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
    "ens/ensemble_forecasts.csv": "4a2507d40eeddaa6b156cb9e74efbcdef93b45ad10be7ae7d830340b0aad74bb",
    "ev/comparison.csv": "d5bd5fca948b2326d2fb3e8c51fd9ef93de65baa093a78736e8f0d45bb0b82c1",
    "ev/composition_top.csv": "21ce1d0553609720373b48a89ec0b8c04d208dd5e839cc936605d59cbd694852",
    "ev/ecdf.csv": "0a5be2883eedc7354f533aab43c9c9787460d6a5c17a1be629da214bf676ab70",
    "ev/fig_comparison.svg": "881578bfccbfe7a3956c6b33d54a9b5708abc53b437ef3701e371ac3b32d6306",
    "ev/fig_composition.svg": "33d654c7bef0b0833670c85bd7fd2f6522d2c9b57493299a04a47e37a9a29412",
    "ev/fig_size_aggregates.svg": "852dff4f7a2a64dad2b157b484ef21b7ee9da57e5054fa1c7af9ecdbeb522100",
    "ev/leaderboard_ensembles.csv": "213d0100cf82f57434125135af1a3253d9ed35ba1efe8824eb0b7e5598a5fe81",
    "ev/leaderboard_individual.csv": "a8770b8a0e8117939884f1cd0a1ec403d7160716ae90409dc25b5b5960b0b43e",
    "ev/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ev/size_aggregates.csv": "e1a34ba4d1c1e740c5b52fb3a3a67f8cfa0743c2966ec53d524059a7818b8174",
    "ev0/leaderboard_individual.csv": "a8770b8a0e8117939884f1cd0a1ec403d7160716ae90409dc25b5b5960b0b43e",
    "ev0/manifest.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fc/forecasts.csv": "4f8d77ec1461b04c5565072ef8beed62575a9274c0c0bba458ea70362fa3b229",
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
