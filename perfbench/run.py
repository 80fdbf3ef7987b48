"""pqforecast benchmark: seeded workloads through the real CLI, checked
against independent oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every stage runs as its own process at
``--jobs 1`` (``stage.py`` imports ``pqforecast.cli`` and calls ``main``,
as the console script does), one after the other: a closed loop with one
client. The workload's stage sequence repeats for about ``--seconds`` of
stage time; timings are medians over the repetitions, scaled to a
reference host speed (see REFERENCE_JOB).

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` the first repetition runs
each stage untraced and then traced (see ``tracer.py``), later ones traced
only, and the last line carries the per-layer metrics. Either way every
repetition's outputs are checked (``oracles.py``) and any mismatch counts
as a failed operation. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

import inputs
import oracles
import selftest
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CLOCK = time.CLOCK_MONOTONIC
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stages still running then are killed
# The speed of a shared host drifts by up to 2x within minutes, far more than
# any bound: when memory runs short elsewhere, library and module pages drop
# out of the page cache and everything that loads or touches them slows
# down, while a small compute loop does not. So every reported time is
# scaled to a host on which the reference job, a fresh interpreter
# importing numpy and scipy.signal as every stage does, takes REFERENCE_S,
# as on a quiet 2-core machine. The job runs before the first repetition
# that starts in each of MAX_REFERENCES equal parts of the run, and after
# the last until it ran MIN_REFERENCES times; it runs no program code, so a
# change to the program cannot move it.
REFERENCE_JOB = "import numpy, scipy.signal"
REFERENCE_S = 1.0
MIN_REFERENCES, MAX_REFERENCES = 3, 4
FIGURE_UNITS = {"best_individual_smape": "%", "best_ensemble_smape": "%", "ensemble_win_fraction": "ratio",
                "accepted": "count", "rejected": "count"}


@dataclass
class Workload:
    """Inputs, stage commands, output files and oracle of one workload."""

    make: callable  # (seed, workdir) -> corpus
    stages: callable  # (corpus, workdir) -> [(stage name, CLI argv)]
    outputs: callable  # workdir -> {key: path}
    check: callable  # (corpus, outputs, seed) -> Verdict
    main_stage: str  # the stage that runs the layer this workload isolates
    final_stage: str  # the stage that produces the workload's result
    mutate: str  # output key the mutation self-check alters


def _forecast_stages(corpus, w):
    weekly = str(corpus.files["weekly"])
    return [("forecast", ["forecast", "--weekly", weekly, "--out", str(w / "fc"), "--jobs", "1"]),
            ("evaluate", ["evaluate", "--forecasts", str(w / "fc" / "forecasts.csv"),
                          "--weekly", weekly, "--out", str(w / "ev")])]


def _ensemble_stages(corpus, w):
    weekly, members = str(corpus.files["weekly"]), str(corpus.files["forecasts"])
    return [("evaluate", ["evaluate", "--forecasts", members, "--weekly", weekly, "--out", str(w / "ev0")]),
            ("ensemble", ["ensemble", "--forecasts", members, "--leaderboard",
                          str(w / "ev0" / "leaderboard_individual.csv"), "--out", str(w / "ens")]),
            ("evaluate_ensembles", ["evaluate", "--forecasts", members, str(w / "ens" / "ensemble_forecasts.csv"),
                                    "--weekly", weekly, "--out", str(w / "ev")])]


def _preprocess_stages(corpus, w):
    return [("preprocess", ["preprocess", "--raw", str(corpus.files["raw"]),
                            "--planning-levels", str(corpus.files["levels"]), "--out", str(w / "pp")])]


WORKLOADS = {
    "forecast_corpus": Workload(
        make=inputs.make_forecast_corpus, stages=_forecast_stages,
        outputs=lambda w: {"forecasts": w / "fc" / "forecasts.csv",
                           "leaderboard": w / "ev" / "leaderboard_individual.csv"},
        check=lambda corpus, out, seed: oracles.check_forecast_corpus(corpus, out),
        main_stage="forecast", final_stage="evaluate", mutate="forecasts"),
    "ensemble_wide": Workload(
        make=inputs.make_ensemble_corpus, stages=_ensemble_stages,
        outputs=lambda w: {"leaderboard_individual": w / "ev0" / "leaderboard_individual.csv",
                           "ensembles": w / "ens" / "ensemble_forecasts.csv",
                           "leaderboard_final_individual": w / "ev" / "leaderboard_individual.csv",
                           "leaderboard_ensembles": w / "ev" / "leaderboard_ensembles.csv",
                           "comparison": w / "ev" / "comparison.csv"},
        check=oracles.check_ensemble_wide,
        main_stage="ensemble", final_stage="evaluate_ensembles", mutate="ensembles"),
    "preprocess_raw": Workload(
        make=inputs.make_raw_corpus, stages=_preprocess_stages,
        outputs=lambda w: {"weekly": w / "pp" / "weekly.csv", "rejections": w / "pp" / "rejections.csv"},
        check=lambda corpus, out, seed: oracles.check_preprocess_raw(corpus, out),
        main_stage="preprocess", final_stage="preprocess", mutate="weekly"),
}


# -- stage processes -------------------------------------------------------------

@dataclass
class StageRun:
    name: str
    exit: int
    wall_s: float  # spawn to exit, seen from here
    setup_s: float  # spawn to `import pqforecast.cli` done
    main_s: float  # cli.main(argv) alone, measured in the child
    rss_mb: float  # the child's own peak resident set (VmHWM)
    report: dict = field(default_factory=dict)


def _wait(pid: int, timeout: float):
    """waitpid with a deadline; the child is killed when the deadline passes,
    and is always reaped, also when this process is interrupted."""
    def on_alarm(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    reaped = False
    try:
        _, status = os.waitpid(pid, 0)
        reaped = True
        return status
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _spawn(cmd: list[str], log_path: Path, deadline: float, env=None) -> tuple[int, float, float]:
    """Run a process with stdout and stderr to ``log_path``; returns its exit
    code, start time and wall time."""
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    started = time.clock_gettime(CLOCK)
    try:
        pid = os.posix_spawn(sys.executable, cmd, env or os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2)])
    finally:
        os.close(log)
    status = _wait(pid, deadline - started)
    return os.waitstatus_to_exitcode(status), started, time.clock_gettime(CLOCK) - started


def run_stage(workload: str, stage: str, argv: list[str], workdir: Path, trace: bool,
              deadline: float) -> StageRun:
    report_path = workdir / f"{stage}.report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "stage.py"), str(report_path), "1" if trace else "0",
           workload, stage, "--", *argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code, started, wall = _spawn(cmd, workdir / f"{stage}.log", deadline, env)
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    if code != 0 or not report:
        return StageRun(stage, code or 1, wall, 0.0, 0.0, 0.0, report)
    return StageRun(stage, code, wall, report["imported"] - started,
                    report["finished"] - report["imported"], report["peak_rss_kb"] / 1024.0, report)


def run_reference(workdir: Path, deadline: float, tally) -> float:
    code, _, wall = _spawn([sys.executable, "-c", REFERENCE_JOB], workdir / "reference.log", deadline)
    if code != 0:
        tally.problems.append(f"reference job exited with {code}")
    return wall


# -- repetitions and checks ----------------------------------------------------------

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    verdict: oracles.Verdict | None = None
    hashes: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def verify(wl: Workload, corpus, workdir: Path, seed: int, tally: Tally) -> None:
    """Full oracle check and mutation self-check on the first repetition;
    later repetitions must reproduce its outputs byte for byte."""
    outputs = wl.outputs(workdir)
    if tally.verdict is None:
        verdict = wl.check(corpus, outputs, seed)
        tally.verdict = verdict
        tally.attempted += verdict.attempted
        tally.failed += len(verdict.failed)
        tally.problems += verdict.problems
        tally.hashes = {k: sha256(p) for k, p in outputs.items() if p.exists()}
        if not verdict.failed:
            mutated = workdir / "mutated.csv"
            selftest.mutate_one_value(outputs[wl.mutate], mutated, inputs.rng_for(seed, 6))
            caught = wl.check(corpus, {**outputs, wl.mutate: mutated}, seed)
            if not caught.failed:
                tally.problems.append(f"self-test: a changed value in {outputs[wl.mutate].name} went unnoticed")
        return
    tally.attempted += tally.verdict.attempted
    if {k: sha256(p) for k, p in outputs.items() if p.exists()} != tally.hashes:
        tally.failed += tally.verdict.attempted
        tally.problems.append("outputs differ from the first repetition")


def repetitions(wl: Workload, name: str, corpus, workdir: Path, seed: int, seconds: float,
                trace: bool, deadline: float, tally: Tally, references: list[float]) -> list[dict[str, dict]]:
    """Repeat the stage sequence while another repetition, as long as the
    last one would be, still fits into `seconds` of stage time (at least once), so a
    run measures about `seconds` without overshooting. A traced run runs
    each stage untraced and then traced in its first repetition (for the
    overhead and the untraced peak RSS) and traced only after that.

    Returns one {stage: {"run": StageRun, "traced": StageRun}} per
    repetition. A failed stage fails every operation of its repetition and
    ends the loop. An untraced run also times the reference job into
    ``references``."""
    reps: list[dict[str, dict]] = []
    measured = 0.0
    while True:
        if not trace and measured >= len(references) * seconds / MAX_REFERENCES:
            references.append(run_reference(workdir, deadline, tally))
        rep: dict[str, dict] = {}
        for stage, argv in wl.stages(corpus, workdir):
            rep[stage] = {}
            if not trace or not reps:
                rep[stage]["run"] = run_stage(name, stage, argv, workdir, False, deadline)
            if trace and all(r.exit == 0 for r in rep[stage].values()):
                rep[stage]["traced"] = run_stage(name, stage, argv, workdir, True, deadline)
            measured += sum(r.wall_s for r in rep[stage].values())
            failed = next((r for r in rep[stage].values() if r.exit != 0), None)
            if failed is not None:
                tally.attempted += tally.verdict.attempted if tally.verdict else 1
                tally.failed += tally.verdict.attempted if tally.verdict else 1
                tally.problems.append(f"stage {stage} exited with {failed.exit}")
                log = (workdir / f"{stage}.log").read_text(errors="replace").strip().splitlines()
                tally.problems += log[-5:]
                return reps
        verify(wl, corpus, workdir, seed, tally)
        reps.append(rep)
        # a later traced repetition runs only the traced processes
        next_rep = sum(r["traced" if trace else "run"].wall_s for r in rep.values())
        if measured + next_rep > seconds or time.clock_gettime(CLOCK) > deadline - 1.0:
            while not trace and len(references) < MIN_REFERENCES:
                references.append(run_reference(workdir, deadline, tally))
            return reps


# -- metrics -------------------------------------------------------------------------

def end_to_end(wl: Workload, reps, tally: Tally, scale: float) -> dict[str, float]:
    """End-to-end metrics; times are multiplied by ``scale``."""
    runs = [[r["run"] for r in rep.values()] for rep in reps]
    return {
        "setup_s": scale * median(s.setup_s for rep in runs for s in rep),
        "wall_s": scale * median(sum(s.wall_s for s in rep) for rep in runs),
        "main_stage_s": scale * median(rep[wl.main_stage]["run"].wall_s for rep in reps),
        "final_stage_s": scale * median(rep[wl.final_stage]["run"].wall_s for rep in reps),
        "peak_rss_mb": median(max(s.rss_mb for s in rep) for rep in runs),
        "ok_fraction": 1.0 - tally.failed / tally.attempted,
        "result_smape": tally.verdict.result_smape,
    }


def per_layer(reps) -> tuple[dict[str, float], list[str], list]:
    passes = [{stage: {"spans": r["traced"].report["spans"], "traced_s": r["traced"].main_s} for stage, r in rep.items()}
              for rep in reps]
    for stage, r in reps[0].items():
        passes[0][stage].update(untraced_s=r["run"].main_s, rss_mb=r["run"].rss_mb)
    missing = sorted({m for r in reps[0].values() for m in r["traced"].report["missing"]})
    spans = [[stage, *s] for stage, r in reps[0].items() for s in r["traced"].report["spans"]]
    return tracer.layer_metrics(passes, missing), missing, spans


def environment(sizes: dict, hashes: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": version("scipy"),
            "nproc": os.cpu_count(), "src_lines": src_lines, "input": sizes, "sha256": hashes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.clock_gettime(CLOCK) + RUN_LIMIT_S

    if not (SRC / "pqforecast" / "cli.py").is_file():
        print(f"error: no pqforecast sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tally = Tally(problems=selftest.run_all())
    try:
        corpus = wl.make(args.seed, workdir)
        references: list[float] = []
        reps = repetitions(wl, args.workload, corpus, workdir, args.seed, args.seconds,
                           bool(args.trace), deadline, tally, references)
        figures = dict(tally.verdict.figures) if tally.verdict else {}
        record = {"workload": args.workload, "seed": args.seed, "repetitions": len(reps),
                  "environment": environment(corpus.size, tally.hashes), "figures": figures,
                  "failed_fraction": tally.failed / max(tally.attempted, 1), "problems": tally.problems}
        metrics: dict[str, float] = {}
        if reps and args.trace:
            metrics, record["missing_targets"], spans = per_layer(reps)
            with open(outdir / f"{args.workload}-seed{args.seed}-spans.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps([args.workload, *s]) + "\n" for s in spans)
        elif reps:
            scale = REFERENCE_S / median(references)
            metrics = end_to_end(wl, reps, tally, scale)
            record.update(reference_s=references, scale=scale, unscaled=end_to_end(wl, reps, tally, 1.0))
            record["stage_s"] = {stage: scale * median(rep[stage]["run"].wall_s for rep in reps) for stage in reps[0]}
            record["stage_walls"] = [{stage: r["run"].wall_s for stage, r in rep.items()} for rep in reps]
        record["metrics"] = metrics
        (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetition(s), trace {args.trace}")
    print("environment: " + json.dumps(record["environment"]))
    for problem in tally.problems:
        print(f"problem: {problem}")
    if "scale" in record:
        print(f"reference job: median {median(references):.4g} s; times scaled by {record['scale']:.4g}"
              f" (unscaled in {outdir.name}/)")
    if args.trace and record.get("missing_targets"):
        print("missing wrap targets: " + ", ".join(record["missing_targets"]))
    # every declared metric, then the same figures under their stage and
    # accuracy names
    lines = [(m["name"], metrics[m["name"]], m["unit"]) for m in declared if m["name"] in metrics]
    if not args.trace:
        lines += [(f"{stage}_s", value, "s") for stage, value in record.get("stage_s", {}).items()]
        lines.append(("failed_fraction", record["failed_fraction"], "ratio"))
    lines += [(k, v, FIGURE_UNITS[k]) for k, v in figures.items() if k in FIGURE_UNITS]
    for name, value, unit in lines:
        print(f"{name:<48} {value:>14.6g} {unit}")

    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": bool(reps) and tally.failed == 0 and not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
