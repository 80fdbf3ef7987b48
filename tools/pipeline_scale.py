"""Time each CLI stage of the pipeline at a chosen corpus size, with its peak memory.

    python tools/pipeline_scale.py --raw-series 40 --series 100 --out scale.json
    python tools/pipeline_scale.py --raw-series 40 --series 0 --repeat 5 \\
        --root /path/to/other/checkout --root . --out preprocess.json

Each stage runs as its own process of a checkout's CLI (``src/`` on
``PYTHONPATH``, ``pqforecast.cli.main``), in a temporary directory, one
after the other:

- ``synth --mode raw --n-series R --length-weeks 157``, then ``preprocess``
  of its ``raw.csv`` (skipped for ``--raw-series 0``);
- ``synth --n-series N``, then ``forecast --jobs 2``, ``evaluate``,
  ``ensemble`` and the final ``evaluate`` (skipped for ``--series 0``).

The two corpora are made once, by the first ``--root``; every other stage
runs ``--repeat`` times for each root, the roots taking turns to go first,
so that two checkouts can be compared on the same inputs and host. The JSON
written to ``--out`` has, for every stage run, its root, repetition, stage,
argv, exit code, wall time in seconds and the child's peak resident set
(``ru_maxrss`` from ``wait4``, VmHWM) in MB. A stage that fails ends that
root's chain for the repetition; its log is kept in the JSON. The tool
reads no program module itself and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGE = "import sys; from pqforecast.cli import main; sys.exit(main(sys.argv[1:]))"


def run(root: Path, argv: list, log: Path) -> dict:
    """One stage of ``root``'s CLI as a child process: its exit code, wall
    time and peak resident set."""
    argv = [str(a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "w") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", STAGE, *argv], stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    record = {"root": str(root), "stage": argv[0], "argv": argv, "exit": child.returncode,
              "wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}
    if child.returncode:
        record["log"] = log.read_text(errors="replace")[-2000:]
    return record


def chains(work: Path, raw_series: int, series: int) -> list[list[tuple[str, list]]]:
    """The stages that follow each synth, by output directory name and argv."""
    out = []
    if raw_series:
        raw = work / "raw"
        out.append([("pre", ["preprocess", "--raw", raw / "raw.csv", "--planning-levels",
                             raw / "planning_levels.ini", "--out", "{dir}/pre"])])
    if series:
        weekly = work / "weekly" / "weekly.csv"
        out.append([("fc", ["forecast", "--weekly", weekly, "--jobs", 2, "--out", "{dir}/fc"]),
                    ("ev", ["evaluate", "--forecasts", "{dir}/fc/forecasts.csv", "--weekly", weekly,
                            "--out", "{dir}/ev"]),
                    ("en", ["ensemble", "--forecasts", "{dir}/fc/forecasts.csv", "--leaderboard",
                            "{dir}/ev/leaderboard_individual.csv", "--out", "{dir}/en"]),
                    ("ev2", ["evaluate", "--forecasts", "{dir}/fc/forecasts.csv", "{dir}/en/ensemble_forecasts.csv",
                             "--weekly", weekly, "--out", "{dir}/ev2"])])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw-series", type=int, required=True, help="series of the raw corpus (0: none)")
    parser.add_argument("--series", type=int, required=True, help="series of the weekly corpus (0: none)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--root", type=Path, action="append", help="a checkout to run (default: this one)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    roots = [root.resolve() for root in args.root or [ROOT]]
    runs = []
    with tempfile.TemporaryDirectory(prefix="pipeline_scale_") as tmp:
        work = Path(tmp)
        synth = []
        if args.raw_series:
            synth.append(["synth", "--mode", "raw", "--n-series", args.raw_series, "--length-weeks", 157,
                          "--seed", args.seed, "--out", work / "raw"])
        if args.series:
            synth.append(["synth", "--n-series", args.series, "--seed", args.seed, "--out", work / "weekly"])
        for argv in synth:
            runs.append(run(roots[0], argv, work / "synth.log"))
            if runs[-1]["exit"]:
                break
        else:
            for rep in range(args.repeat):
                for k in range(len(roots)):
                    root = roots[(rep + k) % len(roots)]  # each repetition starts with the next root
                    for chain in chains(work, args.raw_series, args.series):
                        stage_dir = work / f"r{rep}_{roots.index(root)}"
                        for name, argv in chain:
                            argv = [str(a).format(dir=stage_dir) for a in argv]
                            runs.append({"repeat": rep, **run(root, argv, work / f"{name}.log")})
                            if runs[-1]["exit"]:
                                break
                        shutil.rmtree(stage_dir, ignore_errors=True)  # ensemble tables run to GBs at scale
    report = {"command": sys.argv, "python": platform.python_version(), "cpus": os.cpu_count(),
              "raw_series": args.raw_series, "series": args.series, "seed": args.seed, "runs": runs}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for r in runs:
        print(f"{r.get('repeat', '-')}\t{r['stage']}\t{r['wall_s']:.2f} s\t{r['peak_rss_mb']:.1f} MB\t"
              f"exit {r['exit']}\t{r['root']}")
    return 1 if any(r["exit"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
