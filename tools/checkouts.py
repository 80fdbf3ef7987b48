"""Run the code of one or more checkouts in child processes, the checkouts
taking turns to go first, so that they can be compared on the same inputs
and host. ``pipeline_scale.py`` and ``raw_forms.py`` import it; it reads
no program module itself.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
CLI = "import sys; from pqforecast.cli import main; sys.exit(main(sys.argv[1:]))"


def resolved(roots: Optional[list[Path]]) -> list[Path]:
    """The ``--root`` checkouts given, or this one."""
    return [root.resolve() for root in roots or [ROOT]]


def run(root: Path, argv: list, log: Path, code: str = CLI) -> dict:
    """``code`` (the CLI by default) of ``root`` (``src/`` on
    ``PYTHONPATH``) as a child process with ``argv``, its output in
    ``log``: its exit code, wall time and peak resident set (``ru_maxrss``
    from ``wait4``, VmHWM), and on failure the log's tail."""
    argv = [str(a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "w") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    record = {"root": str(root), "argv": argv, "exit": child.returncode,
              "wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}
    if child.returncode:
        record["log"] = log.read_text(errors="replace")[-2000:]
    return record


def turns(roots: list[Path], repeat: int) -> Iterator[tuple[int, Path]]:
    """Each repetition and root, each repetition starting with the next root."""
    for rep in range(repeat):
        for k in range(len(roots)):
            yield rep, roots[(rep + k) % len(roots)]


def header(**fields) -> dict:
    """A report's first fields: the command, Python version and CPU count,
    then ``fields``."""
    return {"command": sys.argv, "python": platform.python_version(), "cpus": os.cpu_count(), **fields}
