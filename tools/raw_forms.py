"""Time ``read_raw_csv`` on one raw table written in many forms, in each of several checkouts.

    python tools/raw_forms.py --out forms.json
    python tools/raw_forms.py --repeat 5 --root /path/to/other/checkout --root . --out forms.json

Writes one table of 4 series of 157 weeks with ``synth --mode raw --seed 1``
(the first ``--root``'s CLI), then rewrites it into each form of ``FORMS``,
one file at a time: as ``synth`` writes it (``+00:00``, ``\\r\\n``); naive
timestamps and ``\\n`` (perfbench's form); local time at ``+05:30``; a
``t`` for the ``T``; every id, every timestamp or every field quoted; the
first series' id beyond ASCII; and that id holding a comma (so the writer
quotes it), its rows grouped by series or sorted by time; and the writer's
with a ``0xff`` byte in its last line, which is read to its ``not UTF-8``
error, in chunks and then again line by line. The timestamp and
quoting rewrites are the tests' own (``tests/raw_text.py``). For each form
and repetition, every root (the roots taking turns to go first) reads the
file in a child process of its own ``pqforecast.io``, which reports
``read_raw_csv``'s CPU seconds (``time.process_time``) and what it gave:
each series' id, first week and the sha256 of its percentiles' bytes, or
its error text. The JSON written to ``--out`` has every run and, per form,
each root's median CPU seconds, its ratio to the first root's, and whether
every root gave the same result. Exits 1 when two roots differ on a form.
The tool reads no program module itself and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable

from checkouts import ROOT, header, resolved, run, turns

sys.path.insert(0, str(ROOT / "tests"))
from raw_text import quote, restamp  # noqa: E402

SERIES, WEEKS, SEED = 4, 157, 1
READ = """
import hashlib, json, sys, time
from pqforecast.errors import DataError
from pqforecast.io import read_raw_csv
start = time.process_time()
try:
    series, error = read_raw_csv(sys.argv[1]), None
except DataError as exc:
    series, error = [], str(exc)
cpu_s = time.process_time() - start
result = error or [[sid, week and list(week), hashlib.sha256(p95.tobytes()).hexdigest()] for sid, week, p95 in series]
print(json.dumps({"cpu_s": cpu_s, "result": result}))
"""


def renamed(text: str, new_id: Callable[[str], str]) -> str:
    """``text`` with the first series' id replaced by ``new_id`` of it."""
    first = text.split("\n", 2)[1].split(",", 1)[0]
    return re.sub(f"^{re.escape(first)},", lambda m: new_id(first) + ",", text, flags=re.M)


def comma_id(text: str) -> str:
    return renamed(text, lambda sid: '"' + sid.replace(":", ",", 1) + '"')


def by_time(text: str) -> str:
    """The rows sorted by timestamp, each minute's rows in series order."""
    header_line, *rows = text.splitlines(keepends=True)
    return header_line + "".join(sorted(rows, key=lambda row: row.rsplit(",", 2)[1]))


FORMS: dict[str, Callable[[str], str]] = {
    "writer": lambda text: text,
    "naive LF": lambda text: restamp(text, "T", ":00", "").replace("\r\n", "\n"),
    "+05:30": lambda text: restamp(text, "T", ":00", "+05:30"),
    "t separator": lambda text: restamp(text, "t", ":00", "+00:00"),
    "quoted ids": lambda text: quote(text, True, False, False),
    "quoted stamps": lambda text: quote(text, False, True, False),
    "all quoted": lambda text: quote(text, True, True, True),
    "id beyond ASCII": lambda text: renamed(text, lambda sid: "P\u00e4rnu-" + sid),
    "comma id by series": comma_id,
    "comma id by time": lambda text: by_time(comma_id(text)),
    "not UTF-8 at end": lambda text: text[:-2] + "\udcff" + text[-2:],  # 0xff, by surrogateescape
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="reads per form and root")
    parser.add_argument("--root", type=Path, action="append", help="a checkout to run (default: this one)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    roots = resolved(args.root)
    runs, forms = [], {}
    with tempfile.TemporaryDirectory(prefix="raw_forms_") as tmp:
        work = Path(tmp)
        made = run(roots[0], ["synth", "--mode", "raw", "--n-series", SERIES, "--length-weeks", WEEKS,
                              "--seed", SEED, "--out", work / "synth"], work / "synth.log")
        if made["exit"]:
            sys.exit(f"synth failed:\n{made['log']}")
        base = (work / "synth" / "raw.csv").read_bytes().decode("utf-8")
        for name, rewrite in FORMS.items():
            path = work / "raw.csv"
            path.write_bytes(rewrite(base).encode("utf-8", "surrogateescape"))
            for rep, root in turns(roots, args.repeat):
                log = work / "read.log"
                done = run(root, [path], log, code=READ)
                if done["exit"]:
                    sys.exit(f"{root}: reading {name} failed:\n{done['log']}")
                runs.append({"form": name, "repeat": rep, **done, **json.loads(log.read_text().splitlines()[-1])})
            mine = [r for r in runs if r["form"] == name]
            medians = {str(root): statistics.median(r["cpu_s"] for r in mine if r["root"] == str(root))
                       for root in roots}
            forms[name] = {"bytes": path.stat().st_size, "median_cpu_s": medians,
                           "ratio": {root: s / medians[str(roots[0])] for root, s in medians.items()},
                           "same_result": len({json.dumps(r["result"]) for r in mine}) == 1}
            print(f"{name:20} " + "  ".join(f"{s:.3f} s" for s in medians.values())
                  + ("" if forms[name]["same_result"] else "  RESULTS DIFFER"), flush=True)
    report = header(series=SERIES, weeks=WEEKS, seed=SEED, roots=[str(r) for r in roots], forms=forms, runs=runs)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(f["same_result"] for f in forms.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
