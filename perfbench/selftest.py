"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

``run_all`` checks the self-time arithmetic on a hand-built span tree and
that a wrap target which no longer exists is reported as missing; every
benchmark run calls it first. ``mutate_one_value`` backs the third
self-test, made on real outputs inside each run: one changed value in a
copy of an output must register as a failed operation.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

import tracer


def mutate_one_value(src: Path, dst: Path, rng: np.random.Generator, column: int = 3) -> None:
    """Copy a CSV, changing the number in ``column`` of one random data row."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    row = int(rng.integers(1, len(lines)))
    cells = lines[row].rstrip("\r\n").split(",")
    cells[column] = repr(float(cells[column]) * 1.5 + 1.0)
    lines[row] = ",".join(cells) + lines[row][len(lines[row].rstrip("\r\n")):]
    dst.write_text("".join(lines), encoding="utf-8")


def check_self_time() -> list[str]:
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, union 5)
    # and [8, 12] (clipped to 8..10); grandchild [2, 3] under the first child
    spans = [
        [0, -1, "cli.x", 0.0, 10.0, None],
        [1, 0, "a", 1.0, 4.0, None],
        [2, 0, "b", 3.0, 6.0, None],
        [3, 0, "c", 8.0, 12.0, None],
        [4, 1, "d", 2.0, 3.0, None],
    ]
    want = {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
    got = tracer.self_times(spans)
    if got != want:
        return [f"self-test: self times {got} != {want}"]
    return []


def check_missing_target() -> list[str]:
    module = types.ModuleType("perfbench_selftest_module")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        t = tracer.Tracer("selftest", "stage", targets=[
            (module.__name__, "present", "layer.present", None, None),
            (module.__name__, "absent", "layer.absent", None, None),
        ])
        t.install()
        module.present(1)
    finally:
        del sys.modules[module.__name__]
    problems = []
    if t.missing != [f"{module.__name__}.absent"]:
        problems.append(f"self-test: missing targets reported as {t.missing}")
    if [s[2] for s in t.spans] != ["layer.present"]:
        problems.append("self-test: wrapped function recorded no span")
    metrics = tracer.layer_metrics(
        [{"forecast": {"spans": [[0, -1, "cli.forecast", 0.0, 1.0, None]], "traced_s": 1.0,
                       "untraced_s": 1.0, "rss_mb": 1.0}}],
        missing=[f"{m}.{a}" for m, a, name, _, _ in tracer.TARGETS if name == "numerics.loess_window"])
    if any(k.startswith("numerics.loess_window.") for k in metrics) or metrics["trace.missing_targets"] != 1:
        problems.append("self-test: metrics of a missing wrap target were not left out")
    return problems


def run_all() -> list[str]:
    return check_self_time() + check_missing_target()


if __name__ == "__main__":
    found = run_all()
    for line in found:
        print(line)
    print("self-tests: " + ("FAILED" if found else "ok"))
    sys.exit(1 if found else 0)
