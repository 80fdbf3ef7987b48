from __future__ import annotations

import argparse
import concurrent.futures
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqforecast
import pqforecast.models.sarima
import pqforecast.models.stl_models

from pqforecast import io as pqio
from pqforecast.cli import build_parser, main
from pqforecast.ensembles import catalogue, combine, ensemble_producers, ensemble_weights
from pqforecast.models import PUBLIC_MODELS, ForecastBlock
from pqforecast.weekly import WeeklySeries

MODEL_NAMES = [m.value for m in PUBLIC_MODELS]
MEAN_PRODUCERS = ensemble_producers()[::4]  # each ensemble's mean rule


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_forecasts(path, rng, series_ids, producers=MODEL_NAMES, low=5.0, high=50.0):
    """A forecast table of random 52-step forecasts, one block per series."""
    pqio.write_forecast_csv(path, [
        ForecastBlock(sid, list(producers), rng.uniform(low, high, (len(producers), 52)))
        for sid in series_ids])


def write_leaderboard(path):
    """An individual leaderboard of the eight models whose every metric
    gives valid ensemble weights."""
    from pqforecast.evaluation import Leaderboard, LeaderboardRow
    rows = [LeaderboardRow(name, 4.0, 20.0 + i, 4.0 + i / 10, 1.0) for i, name in enumerate(MODEL_NAMES)]
    pqio.write_leaderboard_csv(path, Leaderboard(rows=rows, n_series=2))
    return path


def write_weekly(path, n_series=2, length=157, seed=0):
    from pqforecast.synth import SyntheticSpec, generate_corpus
    corpus, _ = generate_corpus(SyntheticSpec(n_series=n_series, length_weeks=length,
                                              rng_seed=seed))
    pqio.write_weekly_csv(path, corpus)
    return corpus


class TestSynthCommand:
    def test_weekly_mode_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--out", a, "--n-series", 3, "--seed", 7) == 0
        assert run("synth", "--out", b, "--n-series", 3, "--seed", 7) == 0
        assert (a / "weekly.csv").read_bytes() == (b / "weekly.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_raw_mode_emits_planning_levels(self, tmp_path):
        out = tmp_path / "raw"
        assert run("synth", "--out", out, "--n-series", 2, "--length-weeks", 3,
                   "--mode", "raw", "--seed", 3) == 0
        assert (out / "raw.csv").exists()
        levels = pqio.load_planning_levels(out / "planning_levels.ini")
        assert all(pl.level == 100.0 for pl in levels.values())

    def test_weekly_mode_rejects_missing_rate(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--n-series", 1,
                   "--missing-rate", "0.2") == 1

    def test_bad_dimensions_exit_usage(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--n-series", 0) == 1


class TestPreprocessCommand:
    def test_fixture_with_rejection(self, tmp_path):
        # 3 series: one clean, one with a >20 % gap pattern, one with a small gap
        from pqforecast.synth import SyntheticSpec, generate_corpus

        corpus, _ = generate_corpus(SyntheticSpec(n_series=3, length_weeks=10, rng_seed=5))
        missing = {corpus[0].series_id: [], corpus[1].series_id: [2, 4, 6],
                   corpus[2].series_id: [3]}
        raw = [(s, missing[s.series_id]) for s in corpus]
        raw_path = tmp_path / "raw.csv"
        pqio.write_raw_csv(raw_path, raw)
        pairs = sorted({tuple(s.series_id.split(":")[1:]) for s in corpus})
        pqio.write_planning_levels(tmp_path / "levels.ini", [
            pqio.PlanningLevel(parameter=p, voltage_level=v, level=100.0) for p, v in pairs
        ])

        out = tmp_path / "out"
        assert run("preprocess", "--raw", raw_path, "--planning-levels",
                   tmp_path / "levels.ini", "--out", out) == 0
        accepted = pqio.read_weekly_csv(out / "weekly.csv")
        assert {s.series_id for s in accepted} == {corpus[0].series_id, corpus[2].series_id}
        rejected = (out / "rejections.csv").read_text().splitlines()
        assert rejected[1] == f"{corpus[1].series_id},too-many-gaps"
        # the filled week keeps the previous value and is flagged
        filled = next(s for s in accepted if s.series_id == corpus[2].series_id)
        assert filled.filled_flags[3]
        assert filled.values[3] == filled.values[2]

    def test_byte_order_marks_change_no_output_byte(self, tmp_path):
        from pqforecast.synth import SyntheticSpec, generate_corpus

        corpus, _ = generate_corpus(SyntheticSpec(n_series=2, length_weeks=10, rng_seed=5))
        pqio.write_raw_csv(tmp_path / "raw.csv", [(corpus[0], ()),
                                                  (corpus[1], [2, 4, 6])])
        pairs = sorted({tuple(s.series_id.split(":")[1:]) for s in corpus})
        pqio.write_planning_levels(tmp_path / "levels.ini", [
            pqio.PlanningLevel(parameter=p, voltage_level=v, level=100.0) for p, v in pairs
        ])
        marked = tmp_path / "marked"
        marked.mkdir()
        for name in ("raw.csv", "levels.ini"):
            (marked / name).write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        for base in (tmp_path, marked):
            assert run("preprocess", "--raw", base / "raw.csv", "--planning-levels", base / "levels.ini",
                       "--out", base / "out") == 0
        assert len((tmp_path / "out" / "rejections.csv").read_text().splitlines()) == 2  # one accepted, one not
        for name in ("weekly.csv", "rejections.csv"):
            assert (marked / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name

    def test_missing_planning_level_exit_usage(self, tmp_path):
        corpus, _ = __import__("pqforecast.synth", fromlist=["generate_corpus"]).generate_corpus(
            __import__("pqforecast.synth", fromlist=["SyntheticSpec"]).SyntheticSpec(
                n_series=1, length_weeks=3, rng_seed=5))
        raw_path = tmp_path / "raw.csv"
        pqio.write_raw_csv(raw_path, [(corpus[0], ())])
        pqio.write_planning_levels(tmp_path / "levels.ini",
                                   [pqio.PlanningLevel("ZZZ", "999", 1.0)])
        assert run("preprocess", "--raw", raw_path, "--planning-levels",
                   tmp_path / "levels.ini", "--out", tmp_path / "o") == 1

    def test_series_in_two_raw_files_exit_data(self, tmp_path, capsys):
        from pqforecast.synth import SyntheticSpec, generate_corpus

        corpus, _ = generate_corpus(SyntheticSpec(n_series=2, length_weeks=3, rng_seed=5))
        raw = [(s, ()) for s in corpus]
        pqio.write_raw_csv(tmp_path / "a.csv", raw)
        pqio.write_raw_csv(tmp_path / "b.csv", raw[1:])
        pairs = sorted({tuple(s.series_id.split(":")[1:]) for s in corpus})
        pqio.write_planning_levels(tmp_path / "levels.ini", [
            pqio.PlanningLevel(parameter=p, voltage_level=v, level=100.0) for p, v in pairs
        ])
        for second in ("a.csv", "b.csv"):
            out = tmp_path / "out"
            assert run("preprocess", "--raw", tmp_path / "a.csv", tmp_path / second,
                       "--planning-levels", tmp_path / "levels.ini", "--out", out) == 2
            err = capsys.readouterr().err
            dup = corpus[0].series_id if second == "a.csv" else corpus[1].series_id
            assert dup in err and str(tmp_path / "a.csv") in err and str(tmp_path / second) in err
            assert not out.exists()

    def test_missing_file_exit_data(self, tmp_path):
        pqio.write_planning_levels(tmp_path / "levels.ini", [pqio.PlanningLevel("A", "1", 1.0)])
        assert run("preprocess", "--raw", tmp_path / "absent.csv",
                   "--planning-levels", tmp_path / "levels.ini", "--out", tmp_path / "o") == 2


class TestPreprocessErrors:
    """The text, exit code and order of the errors ``preprocess`` finds in
    the series of its ``--raw`` files."""

    @staticmethod
    def preprocess(tmp_path, capsys, *tables: list[str], pairs=(("UNB", "220"),)) -> tuple[int, str]:
        """Each table a list of series ids, written as 2-week raw files."""
        paths = []
        for i, ids in enumerate(tables):
            paths.append(tmp_path / f"raw{i}.csv")
            pqio.write_raw_csv(paths[-1], [(WeeklySeries(sid, (2022, 1), [5.0, 6.0]), ()) for sid in ids])
        pqio.write_planning_levels(tmp_path / "levels.ini", [pqio.PlanningLevel(p, v, 100.0) for p, v in pairs])
        capsys.readouterr()
        code = run("preprocess", "--raw", *paths, "--planning-levels", tmp_path / "levels.ini",
                   "--out", tmp_path / "out")
        assert not (tmp_path / "out").exists() or code == 0
        return code, capsys.readouterr().err

    def test_series_id_not_site_parameter_voltage_names_the_file(self, tmp_path, capsys):
        assert self.preprocess(tmp_path, capsys, ["a:UNB:220", "a-UNB-220"]) == (
            2, f"data error: {tmp_path / 'raw0.csv'}: a-UNB-220: series id is not site:parameter:voltage\n")

    def test_series_in_two_raw_files(self, tmp_path, capsys):
        assert self.preprocess(tmp_path, capsys, ["a:UNB:220", "b:UNB:220"], ["c:UNB:220", "b:UNB:220"]) == (
            2, f"data error: b:UNB:220: in both {tmp_path / 'raw0.csv'} and {tmp_path / 'raw1.csv'}\n")

    def test_missing_planning_level(self, tmp_path, capsys):
        assert self.preprocess(tmp_path, capsys, ["a:UNB:220", "b:UNB:380"]) == (
            1, "error: no planning level for (UNB, 380) needed by b:UNB:380\n")

    def test_first_series_error_in_file_order(self, tmp_path, capsys):
        """A series' errors come in the order of its checks, and an earlier
        series' before a later one's."""
        code, err = self.preprocess(tmp_path, capsys, ["a-UNB-220", "b:UNB:380"], ["a-UNB-220"])
        assert (code, err) == (2, f"data error: {tmp_path / 'raw0.csv'}: a-UNB-220: series id is not "
                                  "site:parameter:voltage\n")
        assert self.preprocess(tmp_path, capsys, ["b:UNB:380", "a-UNB-220"])[0] == 1

    @pytest.mark.parametrize("bad", ["line", "sample", "sample, then line"])
    def test_file_errors_come_before_series_errors(self, tmp_path, capsys, bad):
        """A malformed line, and a sample off the grid, out of order or
        invalid, in any series of a file are reported before the checks of
        its first series; the line at once, the sample once the file has
        parsed, so a line after it, in a later week, still comes first."""
        path = tmp_path / "raw0.csv"
        self.preprocess(tmp_path, capsys, ["a-UNB-220", "b:UNB:220"])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        k = 1 + 2 * 1008 + 1008 + 4  # after the header and a's rows: b's second week, 00:40
        if bad != "line":
            lines[k - 1008] = lines[k - 1008].replace(",5.0", ",-5.0")  # b's first week
        if bad != "sample":
            lines[k] = lines[k].replace(",6.0", ",x")
        path.write_text("".join(lines), encoding="utf-8")
        code = run("preprocess", "--raw", path, "--planning-levels", tmp_path / "levels.ini",
                   "--out", tmp_path / "out")
        err = capsys.readouterr().err
        want = (f"{path}: b:UNB:220: invalid value -5.0 at 2022-01-03T00:40:00+00:00" if bad == "sample" else
                f"{path}:{k + 1}: could not convert string to float: 'x'")
        assert (code, err) == (2, f"data error: {want}\n")


def one_raw_series(tmp_path, level="100.0"):
    """A 3-week raw table of one synth series, and an INI giving its pair ``level``."""
    from pqforecast.synth import SyntheticSpec, generate_corpus

    corpus, _ = generate_corpus(SyntheticSpec(n_series=1, length_weeks=3, rng_seed=5))
    pqio.write_raw_csv(tmp_path / "raw.csv", [(corpus[0], ())])
    _, parameter, voltage = corpus[0].series_id.split(":")
    (tmp_path / "levels.ini").write_text(f"[{parameter}@{voltage}]\nlevel = {level}\n")
    return tmp_path / "raw.csv", tmp_path / "levels.ini"


def with_byte_ff(path):
    """Put a byte that is not UTF-8 at the end of a line in the middle of ``path``."""
    data = path.read_bytes()
    i = data.index(b"\r\n", len(data) // 2)
    path.write_bytes(data[:i] + b"\xff" + data[i:])


class TestInputFiles:
    @pytest.mark.parametrize("text", [
        "[U05@110]\nlevel = 1.0\n[U05@110]\nlevel = 2.0\n",  # a duplicate section
        "[U05@110]\nlevel = 1.0\nlevel = 2.0\n",  # a duplicate key
        "level = 1.0\n[U05@110]\nlevel = 1.0\n",  # a key before any section header
        "[U05@110]\nlevel\n",  # a line that is no key = value
    ])
    def test_malformed_planning_levels_exit_usage(self, tmp_path, capsys, text):
        raw, levels = one_raw_series(tmp_path)
        levels.write_text(text)
        out = tmp_path / "out"
        assert run("preprocess", "--raw", raw, "--planning-levels", levels, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {levels}: ") and "Traceback" not in err
        assert not out.exists()

    def test_infinite_planning_level_exit_usage(self, tmp_path, capsys):
        raw, levels = one_raw_series(tmp_path, "inf")
        out = tmp_path / "out"
        assert run("preprocess", "--raw", raw, "--planning-levels", levels, "--out", out) == 1
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (out / "weekly.csv").exists()

    def test_raw_table_not_utf8_exit_data(self, tmp_path, capsys):
        raw, levels = one_raw_series(tmp_path)
        with_byte_ff(raw)
        out = tmp_path / "out"
        assert run("preprocess", "--raw", raw, "--planning-levels", levels, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"data error: {raw}: not UTF-8 text (byte 0xff")
        assert not out.exists()

    def test_weekly_table_not_utf8_exit_data(self, tmp_path, capsys):
        weekly = tmp_path / "weekly.csv"
        write_weekly(weekly, n_series=1)
        with_byte_ff(weekly)
        assert run("forecast", "--weekly", weekly, "--out", tmp_path / "f") == 2
        assert capsys.readouterr().err.startswith(f"data error: {weekly}: not UTF-8 text (byte 0xff")

    def test_forecast_table_not_utf8_exit_data(self, tmp_path, rng, capsys):
        forecasts = tmp_path / "forecasts.csv"
        write_forecasts(forecasts, rng, ("s1", "s2"))
        with_byte_ff(forecasts)
        out = tmp_path / "out"
        assert run("ensemble", "--forecasts", forecasts, "--leaderboard", write_leaderboard(tmp_path / "board.csv"),
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"data error: {forecasts}: not UTF-8 text (byte 0xff")
        assert not (out / "ensemble_forecasts.csv").exists()

    def test_planning_levels_not_utf8_exit_usage(self, tmp_path, capsys):
        raw, levels = one_raw_series(tmp_path)
        levels.write_bytes(levels.read_bytes().replace(b"level", b"lev\xffel"))
        assert run("preprocess", "--raw", raw, "--planning-levels", levels, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(f"error: {levels}: ")


class TestForecastCommand:
    def test_snaive_rows_match_last_cycle(self, tmp_path):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=1, seed=2)
        out = tmp_path / "out"
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--out", out) == 0
        blocks = pqio.read_forecast_csv(out / "forecasts.csv")
        assert len(blocks) == 1 and blocks[0].producers == MODEL_NAMES
        train = corpus[0].values[:105]
        assert np.array_equal(blocks[0].values[0], train[53:105])

    def test_row_count_two_series_eight_models(self, tmp_path):
        write_weekly(tmp_path / "weekly.csv", n_series=2, seed=3)
        out = tmp_path / "out"
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--out", out) == 0
        rows = (out / "forecasts.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 8 * 52

    def test_short_series_exit_data(self, tmp_path, capsys):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=1, length=100, seed=3)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--out", tmp_path / "o") == 2
        assert (f"{corpus[0].series_id}: insufficient history (100 weeks, need 157)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_series_leaves_other_series_unchanged(self, tmp_path, scale):
        # subprocesses, so that a numpy overflow warning shows on stderr
        from pqforecast.synth import SyntheticSpec, generate_corpus
        corpus, _ = generate_corpus(SyntheticSpec(n_series=3, length_weeks=157, rng_seed=0))
        corpus[0].values = corpus[0].values * scale
        src = Path(pqforecast.__file__).resolve().parents[1]

        def forecast(name, series):
            pqio.write_weekly_csv(tmp_path / f"{name}.csv", series)
            done = subprocess.run(
                [sys.executable, "-m", "pqforecast.cli", "forecast", "--weekly",
                 str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)],
                capture_output=True, text=True, env={"PYTHONPATH": str(src)})
            assert done.returncode == 0, done.stderr
            assert "Warning" not in done.stderr
            return (tmp_path / name / "forecasts.csv").read_bytes().splitlines(keepends=True)

        with_huge, without = forecast("all", corpus), forecast("rest", corpus[1:])
        huge_id = corpus[0].series_id.encode()
        assert [line for line in with_huge if not line.startswith(huge_id)] == without
        huge = pqio.read_forecast_csv(tmp_path / "all" / "forecasts.csv")[0]
        assert huge.series_id == corpus[0].series_id
        assert len(huge.producers) == 8 and np.isfinite(huge.values).all()

    def test_one_decomposition_per_series(self, tmp_path, monkeypatch):
        write_weekly(tmp_path / "weekly.csv", n_series=3, seed=4)
        calls = []
        stl_decompose = pqforecast.models.stl_models.stl_decompose

        def counting(*args, **kwargs):
            calls.append(args[0])
            return stl_decompose(*args, **kwargs)

        monkeypatch.setattr(pqforecast.models.stl_models, "stl_decompose", counting)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--out", tmp_path / "o") == 0
        assert len(calls) == 3

    def test_fallbacks_name_every_series_in_the_manifest_at_any_jobs(self, tmp_path, monkeypatch):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=3, seed=6)
        # no order is admissible; the forked workers inherit the patch
        monkeypatch.setattr(pqforecast.models.sarima, "select_order", lambda *args: None)
        outputs = []
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--jobs", jobs, "--out", out) == 0
            outputs.append([(out / name).read_bytes() for name in ("forecasts.csv", "manifest.jsonl")])
        assert outputs[0] == outputs[1]
        entries = [json.loads(line) for line in outputs[0][1].decode().splitlines()]
        assert entries == [
            {"stage": "forecast", "series_id": s.series_id, "producer": producer, "message": message}
            for s in corpus
            for producer, message in (
                ("SARIMA", "sarima: no admissible order; snaive fallback"),
                ("STL-ARIMA", "arima inadmissible on adjusted series; naive fallback"))
        ]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        write_weekly(tmp_path / "weekly.csv", n_series=1, seed=3)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--jobs", jobs, "--out", tmp_path / "o") == 1
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs, pools", [(64, [3]), (2, [2]), (1, [])])
    def test_pool_has_at_most_one_worker_per_series(self, tmp_path, monkeypatch, jobs, pools):
        write_weekly(tmp_path / "weekly.csv", n_series=3, seed=3)
        started = []

        class RecordingPool:  # runs the fits in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # cmd_forecast imports the pool class only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--jobs", jobs, "--out", tmp_path / "o") == 0
        assert started == pools
        assert len(pqio.read_forecast_csv(tmp_path / "o" / "forecasts.csv")) == 3


class TestEnsembleCommand:
    @pytest.fixture
    def forecasts_csv(self, tmp_path, rng):
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ("s1", "s2"))
        return path

    @pytest.fixture
    def leaderboard_csv(self, tmp_path):
        return write_leaderboard(tmp_path / "board.csv")

    def test_all_methods_give_988_producers(self, tmp_path, forecasts_csv, leaderboard_csv):
        out = tmp_path / "out"
        assert run("ensemble", "--forecasts", forecasts_csv, "--leaderboard", leaderboard_csv,
                   "--out", out) == 0
        blocks = pqio.read_forecast_csv(out / "ensemble_forecasts.csv")
        assert [b.series_id for b in blocks] == ["s1", "s2"]
        assert all(len(set(b.producers)) == len(b.values) == 988 for b in blocks)

    def test_rows_are_the_library_combination(self, tmp_path, forecasts_csv, leaderboard_csv):
        """Each series' 988 rows are ``combine`` of its eight members, the
        weighted ones under the leaderboard's mean sMAPE and mean rank."""
        out = tmp_path / "out"
        assert run("ensemble", "--forecasts", forecasts_csv, "--leaderboard", leaderboard_csv,
                   "--out", out) == 0
        weights = ensemble_weights(pqio.read_leaderboard_csv(leaderboard_csv))
        members = pqio.read_forecast_csv(forecasts_csv)
        blocks = pqio.read_forecast_csv(out / "ensemble_forecasts.csv")
        assert [b.series_id for b in blocks] == [m.series_id for m in members]
        for block, member in zip(blocks, members):
            assert block.producers == ensemble_producers()
            assert np.array_equal(block.values, combine(member.rows(MODEL_NAMES), weights))

    def test_leaderboard_is_required(self, tmp_path, forecasts_csv, capsys):
        assert run("ensemble", "--forecasts", forecasts_csv, "--out", tmp_path / "o") == 1
        assert "the following arguments are required: --leaderboard" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_member_is_data_error(self, tmp_path, rng, capsys, leaderboard_csv):
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ["s1"], MODEL_NAMES[:-1])
        assert run("ensemble", "--forecasts", path, "--leaderboard", leaderboard_csv,
                   "--out", tmp_path / "o") == 2
        assert "s1: missing forecasts of STL-ARIMA" in capsys.readouterr().err

    def test_leaderboard_without_a_model_is_usage_error(self, tmp_path, forecasts_csv, capsys):
        from pqforecast.evaluation import Leaderboard, LeaderboardRow
        board = tmp_path / "board.csv"
        rows = [LeaderboardRow(name, 4.0, 20.0, 4.0, 1.0) for name in MODEL_NAMES[1:]]
        pqio.write_leaderboard_csv(board, Leaderboard(rows=rows, n_series=2))
        assert run("ensemble", "--forecasts", forecasts_csv, "--leaderboard", board,
                   "--out", tmp_path / "o") == 1
        assert "producer 'SNaive' not on the leaderboard" in capsys.readouterr().err

    def test_producer_named_twice_is_data_error_at_its_line(self, tmp_path, forecasts_csv, capsys):
        """An extra HW row placed first, which a first-match lookup would
        weight HW by."""
        from pqforecast.evaluation import Leaderboard, LeaderboardRow
        board = tmp_path / "board.csv"
        rows = pqio.read_leaderboard_csv(write_leaderboard(board)).rows
        pqio.write_leaderboard_csv(board, Leaderboard([LeaderboardRow("HW", 4.0, 0.001, 1.0, 1.0), *rows], 2))
        assert [line.split(",")[1] for line in board.read_text().splitlines()[1:4]] == ["HW", "SNaive", "HW"]
        assert run("ensemble", "--forecasts", forecasts_csv, "--leaderboard", board,
                   "--out", tmp_path / "o") == 2
        assert f"data error: {board}:4: producer 'HW' named twice" in capsys.readouterr().err
        assert not (tmp_path / "o" / "ensemble_forecasts.csv").exists()

    @pytest.mark.parametrize("names, smape, code, message", [
        (MODEL_NAMES, 0.0, 2, "compute_weights: metric values must be positive and finite"),
        (MODEL_NAMES[1:], 20.0, 1, "producer 'SNaive' not on the leaderboard"),
    ], ids=["zero-smape", "missing-model"])
    def test_leaderboard_error_names_it_before_members_are_read(self, tmp_path, capsys, names, smape, code, message):
        from pqforecast.evaluation import Leaderboard, LeaderboardRow
        board = tmp_path / "board.csv"
        rows = [LeaderboardRow(name, 4.0, smape, 4.0, 1.0) for name in names]
        pqio.write_leaderboard_csv(board, Leaderboard(rows=rows, n_series=2))
        absent = tmp_path / "forecasts.csv"  # never written, so reading members would fail first
        assert run("ensemble", "--forecasts", absent, "--leaderboard", board,
                   "--out", tmp_path / "o") == code
        assert f"{board}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "ensemble_forecasts.csv").exists()


class TestEvaluateCommand:
    def test_snaive_br_is_one(self, tmp_path):
        write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        fc_out = tmp_path / "fc"
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--out", fc_out) == 0
        ev_out = tmp_path / "ev"
        assert run("evaluate", "--forecasts", fc_out / "forecasts.csv",
                   "--weekly", tmp_path / "weekly.csv", "--out", ev_out) == 0
        board = pqio.read_leaderboard_csv(ev_out / "leaderboard_individual.csv")
        assert board.row("SNaive").benchmark_ratio == 1.0

    def test_fewer_ensembles_than_the_top_are_all_reported(self, tmp_path, rng, capsys):
        """A table of 10 ensembles, fewer than the protocol's top 100: the
        composition covers all 10, and the run says so."""
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        ids = [s.series_id for s in corpus]
        write_forecasts(tmp_path / "members.csv", rng, ids)
        write_forecasts(tmp_path / "ensembles.csv", rng, ids, MEAN_PRODUCERS[:10])
        assert run("evaluate", "--forecasts", tmp_path / "members.csv", tmp_path / "ensembles.csv",
                   "--weekly", tmp_path / "weekly.csv", "--out", tmp_path / "ev") == 0
        assert "warning: top 100 clipped to 10 ensembles" in capsys.readouterr().out
        assert (tmp_path / "ev" / "composition_top.csv").read_text().splitlines()[1] == "meta,top_n,10"
        assert [json.loads(line)["message"] for line in (tmp_path / "ev" / "manifest.jsonl").open()] == [
            "top 100 clipped to 10"]

    def test_top_100_of_more_ensembles_are_reported(self, tmp_path, rng, capsys):
        """A table of 247 ensembles: the composition covers the best 100,
        with no clipping warning."""
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        ids = [s.series_id for s in corpus]
        write_forecasts(tmp_path / "members.csv", rng, ids)
        write_forecasts(tmp_path / "ensembles.csv", rng, ids, MEAN_PRODUCERS)
        assert run("evaluate", "--forecasts", tmp_path / "members.csv", tmp_path / "ensembles.csv",
                   "--weekly", tmp_path / "weekly.csv", "--out", tmp_path / "ev") == 0
        assert "clipped" not in capsys.readouterr().out
        assert (tmp_path / "ev" / "composition_top.csv").read_text().splitlines()[1] == "meta,top_n,100"
        assert (tmp_path / "ev" / "manifest.jsonl").read_text() == ""

    def _weekly_with(self, path, extra):
        """A two-series 157-week corpus plus one series of ``extra`` weeks,
        which comes first in the file."""
        corpus = write_weekly(path, n_series=2, seed=9)
        short = WeeklySeries("short:UNB:220", corpus[0].start_week, corpus[0].values[:extra])
        pqio.write_weekly_csv(path, [short, *corpus])
        return [s.series_id for s in corpus]

    def test_short_series_no_forecast_names_is_unchecked(self, tmp_path, rng, capsys):
        ids = self._weekly_with(tmp_path / "weekly.csv", 100)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ids)
        assert run("evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 0
        assert "evaluate: 2 series" in capsys.readouterr().out

    def test_short_series_a_forecast_names_exit_data(self, tmp_path, rng, capsys):
        ids = self._weekly_with(tmp_path / "weekly.csv", 150)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, [ids[0], "short:UNB:220", ids[1]])
        assert run("evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert "short:UNB:220: insufficient history (150 weeks, need 157)" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "leaderboard_individual.csv").exists()

    def test_alignment_error_names_series(self, tmp_path, rng, capsys):
        write_weekly(tmp_path / "weekly.csv", n_series=1, seed=9)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ["ghost"], ["SNaive"], 1.0, 9.0)
        assert run("evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "o") == 2
        assert "ghost" in capsys.readouterr().err


class TestStreamedForecastFiles:
    """``ensemble`` and ``evaluate`` read forecast files one series at a time,
    ``evaluate`` its files one after another."""

    @pytest.fixture
    def members(self, tmp_path, rng):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=3, seed=9)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, [s.series_id for s in corpus])
        return [s.series_id for s in corpus], path

    @staticmethod
    def poison_last_value(path):
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("order, lacking", [([1, 0, 2], None), ([0, 2], 1), ([0, 1], 2)],
                             ids=["swapped", "missing", "ends-early"])
    def test_second_file_in_another_series_order(self, tmp_path, rng, members, capsys, order, lacking):
        ids, path = members
        producers = MEAN_PRODUCERS
        blocks = [ForecastBlock(sid, producers, rng.uniform(5.0, 50.0, (len(producers), 52))) for sid in ids]
        pqio.write_forecast_csv(tmp_path / "aligned.csv", blocks)
        other = tmp_path / "ensembles.csv"
        pqio.write_forecast_csv(other, [blocks[i] for i in order])
        assert run("evaluate", "--forecasts", path, tmp_path / "aligned.csv",
                   "--weekly", tmp_path / "weekly.csv", "--out", tmp_path / "ev0") == 0
        code = run("evaluate", "--forecasts", path, other, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev")
        if lacking is None:
            assert code == 0
            names = sorted(f.name for f in (tmp_path / "ev0").iterdir())
            assert sorted(f.name for f in (tmp_path / "ev").iterdir()) == names
            for name in names:
                assert (tmp_path / "ev" / name).read_bytes() == (tmp_path / "ev0" / name).read_bytes(), name
        else:
            assert code == 2
            assert f"{ids[lacking]}: missing forecasts of B01:mean, " in capsys.readouterr().err
            assert list((tmp_path / "ev").iterdir()) == []

    def test_series_only_the_second_file_lists(self, tmp_path, rng, members, capsys):
        ids, _ = members
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_forecasts(first, rng, ids[:2])
        write_forecasts(second, rng, ids, MEAN_PRODUCERS)
        assert run("evaluate", "--forecasts", first, second, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert f"{ids[2]}: missing forecasts of SNaive, HW, " in capsys.readouterr().err
        assert list((tmp_path / "ev").iterdir()) == []

    def test_same_file_twice_is_duplicate_forecasts(self, tmp_path, members, capsys):
        ids, path = members
        assert run("evaluate", "--forecasts", path, path, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert f"{ids[0]}: duplicate forecasts of SNaive, HW, " in capsys.readouterr().err
        assert list((tmp_path / "ev").iterdir()) == []

    def test_content_error_yields_to_a_malformed_line_in_a_later_file(self, tmp_path, rng, members,
                                                                    capsys):
        # the first file's first series is absent from --weekly; the second file's last line is malformed
        ids, _ = members
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_forecasts(first, rng, ["ghost:UNB:220", *ids])
        write_forecasts(second, rng, ids, MEAN_PRODUCERS)
        lines = second.read_text().splitlines()
        second.write_text("\n".join(lines[:-1] + ["garbage,line"]) + "\n")
        assert run("evaluate", "--forecasts", first, second, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert f"{second}:{len(lines)}: " in capsys.readouterr().err

    def test_content_errors_in_both_files_report_the_first_files(self, tmp_path, rng, members, capsys):
        # the first file's last series and the second file's first series have 53 steps
        ids, _ = members
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"

        def table(path, producers, long):
            pqio.write_forecast_csv(path, [
                ForecastBlock(sid, producers, rng.uniform(5.0, 50.0, (len(producers), 53 if sid == long else 52)))
                for sid in ids])

        table(first, MODEL_NAMES, ids[-1])
        table(second, MEAN_PRODUCERS, ids[0])
        assert run("evaluate", "--forecasts", first, second, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert f"{first}: {ids[-1]}: 53 steps, horizon is 52" in capsys.readouterr().err

    def test_nonfinite_last_series_leaves_no_ensemble_table(self, tmp_path, members, capsys):
        ids, path = members
        self.poison_last_value(path)
        assert run("ensemble", "--forecasts", path, "--leaderboard", write_leaderboard(tmp_path / "board.csv"),
                   "--out", tmp_path / "ens") == 2
        assert f"{path}: {ids[-1]}/STL-ARIMA: non-finite forecast value" in capsys.readouterr().err
        assert list((tmp_path / "ens").iterdir()) == []

    def test_nonfinite_last_series_leaves_no_leaderboard(self, tmp_path, members, capsys):
        ids, path = members
        assert run("ensemble", "--forecasts", path, "--leaderboard", write_leaderboard(tmp_path / "board.csv"),
                   "--out", tmp_path / "ens") == 0
        ensembles = tmp_path / "ens" / "ensemble_forecasts.csv"
        self.poison_last_value(ensembles)
        assert run("evaluate", "--forecasts", path, ensembles, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert f"{ensembles}: {ids[-1]}/H01:rank: non-finite forecast value" in capsys.readouterr().err
        assert list((tmp_path / "ev").iterdir()) == []

    def test_series_error_yields_to_a_malformed_line_later_in_the_file(self, tmp_path, members,
                                                                       capsys):
        # the first series lacks a member, and a later line of the file is malformed
        ids, path = members
        lines = path.read_text().splitlines()
        lines = [line for line in lines if not line.startswith(f"{ids[0]},HW,")] + ["x,HW,1,y"]
        path.write_text("\n".join(lines) + "\n")
        for argv in (["ensemble", "--forecasts", path, "--leaderboard", write_leaderboard(tmp_path / "board.csv")],
                     ["evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv"]):
            assert run(*argv, "--out", tmp_path / argv[0]) == 2
            assert f"{path}:{len(lines)}: could not convert" in capsys.readouterr().err

    @pytest.mark.parametrize("early", ["a", "b"])
    def test_first_file_with_a_malformed_line_is_reported(self, tmp_path, rng, capsys, early):
        # one file malformed in its first series (line 11), the other in its last (line 465):
        # the first file named reports its own line, whichever it is
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=3, seed=9)
        table = tmp_path / "table.csv"
        write_forecasts(table, rng, [s.series_id for s in corpus], ["SNaive", "HW", "Prophet"])
        lines = table.read_text().splitlines()
        late = lines[464].split(",")
        edits = {"a": {10: "garbage,line"}, "b": {464: ",".join([*late[:2], "zz", late[3]])}}
        if early == "b":
            edits = {"a": edits["b"], "b": edits["a"]}
        for name, edit in edits.items():
            (tmp_path / f"{name}.csv").write_text(
                "\n".join(edit.get(k, line) for k, line in enumerate(lines)) + "\n")
        assert run("evaluate", "--forecasts", tmp_path / "a.csv", tmp_path / "b.csv",
                   "--weekly", tmp_path / "weekly.csv", "--out", tmp_path / "ev") == 2
        line = 11 if early == "a" else 465
        assert f"{tmp_path / 'a.csv'}:{line}: " in capsys.readouterr().err


# runs one CLI stage, then prints the process's own peak resident set (VmHWM) in kB
_STAGE_WITH_PEAK = (
    "import sys; from pqforecast.cli import main; code = main(sys.argv[1:]); "
    "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')).split()[1]); "
    "sys.exit(code)"
)


def peak_mb(*argv) -> float:
    """The peak resident set of one CLI stage run in its own process, in MB."""
    src = Path(pqforecast.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _STAGE_WITH_PEAK, *map(str, argv)],
                          capture_output=True, text=True, env={"PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_preprocess_peak_rss_grows_under_0_1_mb_per_series(tmp_path):
    """``preprocess``, in its own process, on synth raw corpora of 8 and 32
    series of 60 weeks in one file: a stage that held each series' samples
    until its file ended grew by ~1 MB per series."""
    peaks = {}
    for n in (8, 32):
        base = tmp_path / str(n)
        assert run("synth", "--mode", "raw", "--n-series", n, "--length-weeks", 60, "--seed", 3, "--out", base) == 0
        peaks[n] = peak_mb("preprocess", "--raw", base / "raw.csv", "--planning-levels",
                           base / "planning_levels.ini", "--out", base / "pre")
        assert len(pqio.read_weekly_csv(base / "pre" / "weekly.csv")) == n
        (base / "raw.csv").unlink()  # ~3.6 MB per series
    growth = (peaks[32] - peaks[8]) / 24
    assert growth < 0.1, f"{peaks[8]:.1f} -> {peaks[32]:.1f} MB, {growth:.3f} MB per series"


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_ensemble_path_peak_rss_grows_under_0_1_mb_per_series(tmp_path, rng):
    """``ensemble`` and the final ``evaluate``, each its own process, on 40
    and 160 series with random members: a stage that held every series'
    block grew by ~0.4 MB per series."""
    peaks = {}
    for n in (40, 160):
        base = tmp_path / str(n)
        base.mkdir()
        corpus = write_weekly(base / "weekly.csv", n_series=n, seed=5)
        members = base / "forecasts.csv"
        write_forecasts(members, rng, [s.series_id for s in corpus])
        assert run("evaluate", "--forecasts", members, "--weekly", base / "weekly.csv",
                   "--out", base / "ev0") == 0
        ensembles = base / "ens" / "ensemble_forecasts.csv"
        peaks[n] = (
            peak_mb("ensemble", "--forecasts", members,
                    "--leaderboard", base / "ev0" / "leaderboard_individual.csv", "--out", base / "ens"),
            peak_mb("evaluate", "--forecasts", members, ensembles, "--weekly", base / "weekly.csv",
                    "--out", base / "ev"),
        )
        assert len(pqio.read_leaderboard_csv(base / "ev" / "leaderboard_ensembles.csv").rows) == 988
        ensembles.unlink()  # ~2.4 MB per series
    for stage, small, large in zip(("ensemble", "evaluate"), peaks[40], peaks[160]):
        growth = (large - small) / 120
        assert growth < 0.1, f"{stage}: {small:.1f} -> {large:.1f} MB, {growth:.3f} MB per series"


class TestFullPipeline:
    def test_end_to_end_with_figures(self, tmp_path):
        base = tmp_path
        assert run("synth", "--out", base / "corpus", "--n-series", 2, "--seed", 21) == 0
        assert run("forecast", "--weekly", base / "corpus" / "weekly.csv",
                   "--out", base / "fc") == 0
        assert run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
                   "--weekly", base / "corpus" / "weekly.csv", "--out", base / "ev0") == 0
        assert run("ensemble", "--forecasts", base / "fc" / "forecasts.csv",
                   "--leaderboard", base / "ev0" / "leaderboard_individual.csv",
                   "--out", base / "ens") == 0
        assert run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
                   base / "ens" / "ensemble_forecasts.csv",
                   "--weekly", base / "corpus" / "weekly.csv",
                   "--out", base / "ev") == 0
        for name in ("leaderboard_individual.csv", "leaderboard_ensembles.csv",
                     "composition_top.csv", "size_aggregates.csv", "comparison.csv",
                     "ecdf.csv"):
            assert (base / "ev" / name).exists(), name
        board = pqio.read_leaderboard_csv(base / "ev" / "leaderboard_ensembles.csv")
        assert len(board.rows) == 988
        for name in ("fig_size_aggregates.svg", "fig_composition.svg", "fig_comparison.svg"):
            svg = (base / "ev" / name)
            assert svg.exists() and svg.read_text().startswith("<svg"), name

    def test_members_only_evaluate_draws_no_figure(self, tmp_path, rng):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        write_forecasts(tmp_path / "forecasts.csv", rng, [s.series_id for s in corpus])
        assert run("evaluate", "--forecasts", tmp_path / "forecasts.csv", "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 0
        written = sorted(p.name for p in (tmp_path / "ev").iterdir())
        assert written == ["leaderboard_individual.csv", "manifest.jsonl"]

    def test_producers_cover_leaderboards_exactly_once(self, tmp_path):
        base = tmp_path
        run("synth", "--out", base / "corpus", "--n-series", 2, "--seed", 22)
        run("forecast", "--weekly", base / "corpus" / "weekly.csv", "--out", base / "fc")
        run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
            "--weekly", base / "corpus" / "weekly.csv", "--out", base / "ev0")
        run("ensemble", "--forecasts", base / "fc" / "forecasts.csv",
            "--leaderboard", base / "ev0" / "leaderboard_individual.csv", "--out", base / "ens")
        run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
            base / "ens" / "ensemble_forecasts.csv",
            "--weekly", base / "corpus" / "weekly.csv", "--out", base / "ev")
        produced = {p for b in pqio.read_forecast_csv(base / "fc" / "forecasts.csv")
                    for p in b.producers}
        produced |= {p for b in pqio.read_forecast_csv(base / "ens" / "ensemble_forecasts.csv")
                     for p in b.producers}
        individual = pqio.read_leaderboard_csv(base / "ev" / "leaderboard_individual.csv")
        ensembles = pqio.read_leaderboard_csv(base / "ev" / "leaderboard_ensembles.csv")
        listed = [r.producer for r in individual.rows + ensembles.rows]
        assert sorted(listed) == sorted(produced)
        assert len(listed) == len(set(listed))


class TestMalformedForecastTable:
    """A malformed forecast table is a data error (exit 2) that names the file."""

    @pytest.fixture
    def corpus(self, tmp_path, rng):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, [s.series_id for s in corpus])
        return corpus, path

    def _stages(self, tmp_path, path):
        yield ["ensemble", "--forecasts", path, "--leaderboard", write_leaderboard(tmp_path / "board.csv"),
               "--out", tmp_path / "ens"]
        yield ["evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
               "--out", tmp_path / "ev"]

    def test_producer_a_step_short(self, tmp_path, corpus, capsys):
        series, path = corpus
        lines = path.read_text().splitlines()
        short = f"{series[1].series_id},HW,52,"
        path.write_text("\n".join(line for line in lines if not line.startswith(short)) + "\n")
        for argv in self._stages(tmp_path, path):
            assert run(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"{path}: {series[1].series_id}: HW has 51 steps, SNaive has 52" in err

    def test_series_that_resumes_names_line(self, tmp_path, corpus, capsys):
        series, path = corpus
        lines = path.read_text().splitlines()
        moved = [line for line in lines if line.startswith(f"{series[0].series_id},STL-ARIMA,")]
        lines = [line for line in lines if line not in moved] + moved  # after the second series
        path.write_text("\n".join(lines) + "\n")
        for argv in self._stages(tmp_path, path):
            assert run(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            line = len(lines) - len(moved) + 1
            assert f"{path}:{line}: series {series[0].series_id} resumes after other series" in err

    def test_table_horizon_differs_from_option(self, tmp_path, corpus, rng, capsys):
        series, path = corpus
        pqio.write_forecast_csv(path, [ForecastBlock(s.series_id, MODEL_NAMES, rng.uniform(5.0, 50.0, (8, 53)))
                                       for s in series])
        assert run("evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "ev") == 2
        assert f"{path}: {series[0].series_id}: 53 steps, horizon is 52" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["B99:mean", "B01:avg"])
    def test_bad_ensemble_label_names_line(self, tmp_path, corpus, capsys, label):
        series, path = corpus
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(",SNaive,", f",{label},")
        path.write_text("\n".join(lines) + "\n")
        for argv in self._stages(tmp_path, path):
            assert run(*argv) == 2, argv[0]
            assert f"{path}:6: unknown" in capsys.readouterr().err


def test_report_is_no_stage(tmp_path, capsys):
    """The final ``evaluate`` draws the figures; no stage reads its tables back."""
    assert run("report", "--eval-dir", tmp_path / "ev", "--out", tmp_path / "figs") == 1
    assert "invalid choice: 'report'" in capsys.readouterr().err
    assert not (tmp_path / "figs").exists()


class TestStageFlags:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--forecasts", "f.csv", "--weekly", "w.csv", "--jobs", "2"],
        ["ensemble", "--forecasts", "f.csv", "--leaderboard", "b.csv", "--seed", "1"],
        ["ensemble", "--forecasts", "f.csv", "--leaderboard", "b.csv", "--config", "c.ini"],
        ["preprocess", "--raw", "r.csv", "--planning-levels", "p.ini", "--jobs", "2"],
        ["synth", "--n-series", "1", "--config", "c.ini"],
        ["forecast", "--weekly", "w.csv", "--config", "c.ini"],
        ["forecast", "--weekly", "w.csv", "--train-len", "105"],
        ["evaluate", "--forecasts", "f.csv", "--weekly", "w.csv", "--horizon", "52"],
    ])
    def test_flag_of_another_stage_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "o") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["forecast", "--weekly", "w.csv", "--models", "SNaive"],
        ["ensemble", "--forecasts", "f.csv", "--leaderboard", "b.csv", "--methods", "mean"],
        ["evaluate", "--forecasts", "f.csv", "--weekly", "w.csv", "--top-n", "20"],
    ], ids=["models", "methods", "top-n"])
    def test_part_of_the_protocol_is_usage_error(self, tmp_path, capsys, argv):
        """A run that selects part of the protocol stops at the usage check,
        before it reads a file, rather than run the full protocol instead."""
        assert run(*argv, "--out", tmp_path / "o") == 1
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_each_stage_has_exactly_the_protocol_options(self):
        """Every stage runs the paper's full protocol: no option selects a
        part of it, and each stage's options are exactly these."""
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: [flag for action in stage._actions if not isinstance(action, argparse._HelpAction)
                          for flag in action.option_strings] for name, stage in subparsers.choices.items()}
        assert options == {
            "synth": ["--out", "--seed", "--n-series", "--length-weeks", "--mode", "--missing-rate"],
            "preprocess": ["--out", "--raw", "--planning-levels"],
            "forecast": ["--out", "--jobs", "--weekly"],
            "ensemble": ["--out", "--forecasts", "--leaderboard"],
            "evaluate": ["--out", "--forecasts", "--weekly"],
        }
        required = {name: [a.option_strings[0] for a in stage._actions if a.required]
                    for name, stage in subparsers.choices.items()}
        assert required["ensemble"] == ["--out", "--forecasts", "--leaderboard"]

    def test_readme_names_only_flags_of_some_stage(self):
        """Every ``--flag`` in README.md is an option of some stage, so a
        deleted flag cannot stay documented."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {flag for stage in subparsers.choices.values() for action in stage._actions
                   for flag in action.option_strings}
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
        assert documented and documented <= options, sorted(documented - options)


def test_readme_python_api_runs(capsys):
    """README's Python code block runs as written, so the documented API
    cannot name an import that no longer exists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "(988, 52)" in capsys.readouterr().out  # 247 ensembles under four rules


def test_perfbench_tracer_wraps_every_target_of_every_stage(tmp_path):
    """Each stage the benchmark traces, run through its launcher with the
    tracer on: every stage exits 0 and every traced function is found."""
    root = Path(__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    assert run("synth", "--mode", "raw", "--n-series", 2, "--length-weeks", 20, "--missing-rate", 0.08,
               "--seed", 5, "--out", tmp_path / "raw") == 0
    assert run("synth", "--n-series", 2, "--seed", 5, "--out", tmp_path / "wk") == 0
    weekly, fc, ev, ens = (tmp_path / "wk" / "weekly.csv", tmp_path / "fc" / "forecasts.csv",
                           tmp_path / "ev", tmp_path / "ens" / "ensemble_forecasts.csv")
    stages = [
        ("preprocess", ["preprocess", "--raw", tmp_path / "raw" / "raw.csv", "--planning-levels",
                        tmp_path / "raw" / "planning_levels.ini", "--out", tmp_path / "pre"]),
        ("forecast", ["forecast", "--weekly", weekly, "--out", fc.parent]),
        ("evaluate", ["evaluate", "--forecasts", fc, "--weekly", weekly, "--out", ev]),
        ("ensemble", ["ensemble", "--forecasts", fc, "--leaderboard", ev / "leaderboard_individual.csv",
                      "--out", ens.parent]),
        ("evaluate_ensembles", ["evaluate", "--forecasts", fc, ens, "--weekly", weekly,
                                "--out", tmp_path / "ev2"]),
    ]
    spans = set()
    for stage, argv in stages:
        report_path = tmp_path / f"{stage}.json"
        subprocess.run([sys.executable, str(root / "perfbench" / "stage.py"), str(report_path), "1", "tiny",
                        stage, "--", *map(str, argv)], env=env, cwd=tmp_path, check=False, timeout=300)
        report = json.loads(report_path.read_text())
        assert (stage, report["exit"], report["missing"]) == (stage, 0, [])
        spans |= {span[2] for span in report["spans"]}
    assert {"weekly.aggregate_weekly", "weekly.fill_gaps", "models.fit_predict", "io.read"} <= spans


@pytest.mark.parametrize("module, unloaded", [
    ("pqforecast.cli", ("pqforecast.models.sarima", "pqforecast.models.smoothing",
                        "pqforecast.models.fourier_trend", "pqforecast.models.baselines",
                        "pqforecast.models.stl_models", "pqforecast.numerics", "pqforecast.synth",
                        "pqforecast.report", "concurrent.futures")),
    ("pqforecast.models", ("pqforecast.numerics",)),
])
def test_import_loads_no_module_its_stages_may_not_run(module, unloaded):
    """A stage imports the fitters, ``numerics``, ``synth``, ``report`` and
    the process pool only when it runs them."""
    src = Path(pqforecast.__file__).resolve().parents[1]
    code = f"import sys, {module}; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={"PYTHONPATH": str(src)}).stdout.split()
    assert [m for m in loaded if m.startswith(unloaded)] == []


def test_cli_import_loads_no_scipy():
    src = Path(pqforecast.__file__).resolve().parents[1]
    code = ("import sys, pqforecast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_stages_that_meet_no_ensemble_never_build_the_catalogue(tmp_path):
    """``preprocess``, ``forecast`` and a members-only ``evaluate``, run in
    one process, never build the ensemble catalogue, so none of its 988
    labels adds to their peak memory; ``ensemble`` builds it."""
    raw, pre, fc, ev = (tmp_path / name for name in ("raw", "pre", "fc", "ev"))
    assert run("synth", "--mode", "raw", "--n-series", 2, "--seed", 5, "--out", raw) == 0
    catalogue.cache_clear()
    assert run("preprocess", "--raw", raw / "raw.csv", "--planning-levels", raw / "planning_levels.ini",
               "--out", pre) == 0
    assert run("forecast", "--weekly", pre / "weekly.csv", "--out", fc) == 0
    assert run("evaluate", "--forecasts", fc / "forecasts.csv", "--weekly", pre / "weekly.csv", "--out", ev) == 0
    assert catalogue.cache_info().currsize == 0
    assert run("ensemble", "--forecasts", fc / "forecasts.csv", "--leaderboard", ev / "leaderboard_individual.csv",
               "--out", tmp_path / "ens") == 0
    assert catalogue.cache_info().currsize == 1
