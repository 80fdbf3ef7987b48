"""Golden outputs: the SHA-256 of every file a seeded CLI pipeline writes.

The pipeline runs in-process: ``synth`` (weekly, 10 series), ``synth --mode
raw`` (2 series, 60 weeks, 5 % missing weeks), ``preprocess``, ``forecast``,
``evaluate``, ``ensemble`` and the final ``evaluate``, which also draws
the three figures. The hashes were recorded with Python 3.11.7 and numpy
2.4.6; another numpy may round the model arithmetic differently and change
them.

Any change to any output byte fails this test. A change that is meant to
change numbers or formats updates ``GOLDEN`` and gives the reason in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from pqforecast.cli import main

GOLDEN = {
    "corpus/truth.json": "02e2f6ff5b9878ad6347f3e5328125a6dcda99566d1413d1d4f4e03e79e1f50f",
    "corpus/weekly.csv": "3caba6997ff89b4875d71efabd7595fb3ba921bb92293836425f9de0793dc4ad",
    "ens/ensemble_forecasts.csv": "0450e014737fce08304479ec8a23d3ec94b6bfaeeb8cc2ad8cb9b1717983dbcf",
    "ev/comparison.csv": "036e0d2a2bca89a22d8238e7629459bdbe9d4def785d819894ea16216a178e04",
    "ev/composition_top.csv": "47e5024876e199669d0c77d050836b229c2a171c1aa04679b0ec5c26dbb12519",
    "ev/ecdf.csv": "41d603e56c69195c7d1784dbf11e141665f4af39f6bd4c16988db7d405f55e02",
    "ev/fig_comparison.svg": "8eaa15b32b8f66205fd95414ab934ebd0f3a1f9fb07c10440452c5ea3783d2e2",
    "ev/fig_composition.svg": "a5ae249b368a9daa831c900a72175d71c6bf385ff4e5347ed2a87b131f5cb35a",
    "ev/fig_size_aggregates.svg": "f7f4aec57bfe4db7ece27bb05311d992360d805e844432468a5baead76e408fa",
    "ev/leaderboard_ensembles.csv": "7b119fe218dec67fe41f480db09d6c3748da6039dfa15fb8c12e400186c5bd48",
    "ev/leaderboard_individual.csv": "aafabbeb00c8dc0f83348b81fa901bbe4ee4146786c6217c942e3781507f5ccc",
    "ev/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ev/size_aggregates.csv": "f358f28f295337efe7921a21769382d78c2ea1fd53ab39c4eaf25d913aaebb92",
    "ev0/leaderboard_individual.csv": "aafabbeb00c8dc0f83348b81fa901bbe4ee4146786c6217c942e3781507f5ccc",
    "ev0/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fc/forecasts.csv": "5d6ead185b2f70e80a3c415c49217f876f1234e497b4144446fa95969399272c",
    "fc/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "pre/rejections.csv": "12fced24ef42040db0bcad1d41cb0deb3974379367dfbfe8a142f63f4fc91d21",
    "pre/weekly.csv": "183f8943ba56b77875852e581e074eff95ab80d6cfd2939dee3938cfd6f91845",
    "raw/planning_levels.ini": "b88443d3d7332bf4df102cfb1b35b63e5cb2bf2640990f3d972f2f8f9dc4196b",
    "raw/raw.csv": "541cf677665957132eaf10b730d7eb8208605d19d5ce93731b048789912272d7",
    "raw/truth.json": "2dfab80af99366a9e969df0dfa937dddcedfdb4d0003da1081c50dd171b557b8",
}


def run_pipeline(base: Path) -> dict[str, str]:
    """Run the seeded pipeline under ``base``; return {relative path: sha256}."""
    def run(*argv) -> None:
        assert main([str(a) for a in argv]) == 0, argv

    run("synth", "--out", base / "corpus", "--n-series", 10, "--seed", 11)
    run("synth", "--out", base / "raw", "--mode", "raw", "--n-series", 2, "--seed", 12,
        "--length-weeks", 60, "--missing-rate", 0.05)
    run("preprocess", "--raw", base / "raw" / "raw.csv",
        "--planning-levels", base / "raw" / "planning_levels.ini", "--out", base / "pre")
    weekly = base / "corpus" / "weekly.csv"
    run("forecast", "--weekly", weekly, "--out", base / "fc")
    run("evaluate", "--forecasts", base / "fc" / "forecasts.csv", "--weekly", weekly,
        "--out", base / "ev0")
    run("ensemble", "--forecasts", base / "fc" / "forecasts.csv",
        "--leaderboard", base / "ev0" / "leaderboard_individual.csv", "--out", base / "ens")
    run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
        base / "ens" / "ensemble_forecasts.csv", "--weekly", weekly, "--out", base / "ev")
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*")) if path.is_file()
    }


def test_pipeline_outputs_match_golden_hashes(tmp_path):
    assert run_pipeline(tmp_path) == GOLDEN
