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
    "ens/ensemble_forecasts.csv": "c720450f043fdbb4ef807c47619232facfd4b79261281d2db3799ffa37dc9660",
    "ev/comparison.csv": "09cd023a60f2852433bbaa89384411d48e1742900b75522c89b5ed2237464f2f",
    "ev/composition_top.csv": "29b1ab51302611aa0a83851744a150b981780ba28948e64167cd753b82d522cb",
    "ev/ecdf.csv": "0e49a377cc87e580aa4ed3675a86decd475a175c5bb96cdd302699b887a4731f",
    "ev/fig_comparison.svg": "91a7e84c343938a8d15356bb8240baac256d6e6f5fabadefef6749d38dfc65ac",
    "ev/fig_composition.svg": "f914bcff46e30deb9d3be08c4b35ff9493cbcb3c66ed2727e072656b4945529e",
    "ev/fig_size_aggregates.svg": "c83be3a380b5997d12f46e7a279cf3ce991579a59327ead34e17251b48d8d3bf",
    "ev/leaderboard_ensembles.csv": "f0ac1c0567d3df8266c736d5a04e73ef38e7e48ed313af344f94aa2886653136",
    "ev/leaderboard_individual.csv": "01fb35ca7a24c9ffb93807e134073bce062f96985ca9dc3d7eee1b2cba4a1f2e",
    "ev/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ev/size_aggregates.csv": "cbe22738512960fee45136078d3f6d915c1860c3bd599c4d9035be8b81fb815a",
    "ev0/leaderboard_individual.csv": "01fb35ca7a24c9ffb93807e134073bce062f96985ca9dc3d7eee1b2cba4a1f2e",
    "ev0/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fc/forecasts.csv": "0a9929e4b04829e189b3f17b7284ad1420fd1961b88da81cbb444570c47b17fe",
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
