"""Print each line of ``src/pqforecast`` that the whole pipeline never runs.

Runs six stages in this process under the stdlib ``trace`` module, on a
seeded corpus in a temporary directory: ``synth --mode raw`` (5 series, 3 %
missing weeks; at seed 3 all five keep 157 weeks and one is weakly
seasonal, so SARIMA takes both its D = 0 and D = 1 paths), ``preprocess``,
``forecast``, ``evaluate``, ``ensemble`` and the final ``evaluate``, which
draws the figures. Then it prints ``file:line: text`` for every line of a
function body that never ran. ``raise`` statements, module-level lines,
class bodies (dataclass fields) and the comprehensions they run at import,
before the trace starts, are skipped. The last line is
``src lines: N``, the newlines in every ``.py`` file under ``src/``, as
``find src -name '*.py' | xargs cat | wc -l`` counts them. The stages' own
output goes to stderr. Takes about 15 s on a 2-core machine:

    python tools/unreached_lines.py
"""

import ast
import contextlib
import inspect
import sys
import tempfile
import trace
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from pqforecast.cli import main as run_stage  # noqa: E402


def stages(d: Path) -> list[list]:
    return [["synth", "--mode", "raw", "--n-series", 5, "--missing-rate", 0.03, "--seed", 3, "--out", d / "raw"],
            ["preprocess", "--raw", d / "raw/raw.csv", "--planning-levels", d / "raw/planning_levels.ini",
             "--out", d / "pre"],
            ["forecast", "--weekly", d / "pre/weekly.csv", "--out", d / "fc"],
            ["evaluate", "--forecasts", d / "fc/forecasts.csv", "--weekly", d / "pre/weekly.csv", "--out", d / "ev"],
            ["ensemble", "--forecasts", d / "fc/forecasts.csv", "--leaderboard", d / "ev/leaderboard_individual.csv",
             "--out", d / "en"],
            ["evaluate", "--forecasts", d / "fc/forecasts.csv", d / "en/ensemble_forecasts.csv",
             "--weekly", d / "pre/weekly.csv", "--out", d / "ev2"]]


COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def body_lines(code: types.CodeType, at_import: bool = True) -> set[int]:
    """The lines of every function body in ``code``, nested ones included,
    but for comprehensions that run when ``code`` does while ``at_import``:
    a module's, a class body's at import, and theirs."""
    function = bool(code.co_flags & inspect.CO_OPTIMIZED)  # not a module or a class body
    at_import = at_import and (not function or code.co_name in COMPREHENSIONS)
    lines = set()
    if not at_import:
        lines.update(line for _, _, line in code.co_lines() if line and line != code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= body_lines(const, at_import)
    return lines


def main() -> int:
    # no ignoredirs: trace caches its verdict per module basename, so an
    # ignored numpy ``__init__`` would hide every package's ``__init__``
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):  # stage output
        for argv in stages(Path(tmp)):
            if tracer.runfunc(run_stage, [str(a) for a in argv]) != 0:
                print(f"stage failed: {argv[0]}", file=sys.stderr)
                return 1
    ran = tracer.results().counts
    for path in sorted((SRC / "pqforecast").rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        raised = {line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
                  for line in range(node.lineno, node.end_lineno + 1)}
        for line in sorted(body_lines(compile(source, str(path), "exec")) - raised):
            if (str(path), line) not in ran:
                print(f"{path.relative_to(SRC.parent)}:{line}: {text[line - 1].strip()}")
    newlines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    print(f"src lines: {newlines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
