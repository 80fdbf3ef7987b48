from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqforecast
import pqforecast.models.stl_models

from pqforecast import io as pqio
from pqforecast.cli import main
from pqforecast.models import PUBLIC_MODELS, ForecastBlock

MODEL_NAMES = [m.value for m in PUBLIC_MODELS]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_forecasts(path, rng, series_ids, producers=MODEL_NAMES, low=5.0, high=50.0):
    """A forecast table of random 52-step forecasts, one block per series."""
    pqio.write_forecast_csv(path, [
        ForecastBlock(sid, list(producers), rng.uniform(low, high, (len(producers), 52)))
        for sid in series_ids])


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
        raw = [pqio.weekly_to_raw(s, missing[s.series_id]) for s in corpus]
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

    def test_missing_planning_level_exit_usage(self, tmp_path):
        corpus, _ = __import__("pqforecast.synth", fromlist=["generate_corpus"]).generate_corpus(
            __import__("pqforecast.synth", fromlist=["SyntheticSpec"]).SyntheticSpec(
                n_series=1, length_weeks=3, rng_seed=5))
        raw_path = tmp_path / "raw.csv"
        pqio.write_raw_csv(raw_path, [pqio.weekly_to_raw(corpus[0])])
        pqio.write_planning_levels(tmp_path / "levels.ini",
                                   [pqio.PlanningLevel("ZZZ", "999", 1.0)])
        assert run("preprocess", "--raw", raw_path, "--planning-levels",
                   tmp_path / "levels.ini", "--out", tmp_path / "o") == 1

    def test_missing_file_exit_data(self, tmp_path):
        pqio.write_planning_levels(tmp_path / "levels.ini", [pqio.PlanningLevel("A", "1", 1.0)])
        assert run("preprocess", "--raw", tmp_path / "absent.csv",
                   "--planning-levels", tmp_path / "levels.ini", "--out", tmp_path / "o") == 2


class TestForecastCommand:
    def test_snaive_rows_match_last_cycle(self, tmp_path):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=1, seed=2)
        out = tmp_path / "out"
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--models", "SNaive",
                   "--out", out) == 0
        blocks = pqio.read_forecast_csv(out / "forecasts.csv")
        assert len(blocks) == 1 and blocks[0].producers == ["SNaive"]
        train = corpus[0].values[:105]
        assert np.array_equal(blocks[0].values[0], train[53:105])

    def test_row_count_two_series_two_models(self, tmp_path):
        write_weekly(tmp_path / "weekly.csv", n_series=2, seed=3)
        out = tmp_path / "out"
        assert run("forecast", "--weekly", tmp_path / "weekly.csv",
                   "--models", "SNaive,Prophet", "--out", out) == 0
        rows = (out / "forecasts.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 52

    def test_unknown_model_lists_names(self, tmp_path, capsys):
        write_weekly(tmp_path / "weekly.csv", n_series=1, seed=3)
        code = run("forecast", "--weekly", tmp_path / "weekly.csv",
                   "--models", "Oracle", "--out", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert "SNaive" in err and "STL-ARIMA" in err

    def test_short_series_exit_data(self, tmp_path):
        write_weekly(tmp_path / "weekly.csv", n_series=1, length=100, seed=3)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv",
                   "--models", "SNaive", "--out", tmp_path / "o") == 2

    def test_train_len_override_requires_pair(self, tmp_path):
        write_weekly(tmp_path / "weekly.csv", n_series=1, seed=3)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--models", "SNaive",
                   "--train-len", 60, "--out", tmp_path / "o") == 1

    def test_one_year_window_fails_two_season_models(self, tmp_path, capsys):
        write_weekly(tmp_path / "weekly.csv", n_series=1, seed=3)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv",
                   "--train-len", 53, "--horizon", 52, "--out", tmp_path / "o") == 2
        assert "two seasons (104 observations), got 53" in capsys.readouterr().err

    @pytest.mark.parametrize("models, decompositions", [("all", 3), ("SNaive,Prophet", 0)])
    def test_one_decomposition_per_series(self, tmp_path, monkeypatch, models, decompositions):
        write_weekly(tmp_path / "weekly.csv", n_series=3, seed=4)
        calls = []
        stl_decompose = pqforecast.models.stl_models.stl_decompose

        def counting(*args, **kwargs):
            calls.append(args[0])
            return stl_decompose(*args, **kwargs)

        monkeypatch.setattr(pqforecast.models.stl_models, "stl_decompose", counting)
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--models", models,
                   "--out", tmp_path / "o") == 0
        assert len(calls) == decompositions


class TestEnsembleCommand:
    @pytest.fixture
    def forecasts_csv(self, tmp_path, rng):
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ("s1", "s2"))
        return path

    @pytest.fixture
    def leaderboard_csv(self, tmp_path):
        from pqforecast.evaluation import Leaderboard, LeaderboardRow
        rows = [LeaderboardRow(m.value, 4.0, 20.0 + i, 4.0 + i / 10, 1.0)
                for i, m in enumerate(PUBLIC_MODELS)]
        path = tmp_path / "board.csv"
        pqio.write_leaderboard_csv(path, Leaderboard(rows=rows, n_series=2))
        return path

    def test_mean_only_gives_247_producers(self, tmp_path, forecasts_csv):
        out = tmp_path / "out"
        assert run("ensemble", "--forecasts", forecasts_csv, "--methods", "mean",
                   "--out", out) == 0
        blocks = pqio.read_forecast_csv(out / "ensemble_forecasts.csv")
        assert [b.series_id for b in blocks] == ["s1", "s2"]
        assert all(len(set(b.producers)) == len(b.values) == 247 for b in blocks)

    def test_all_methods_give_988_producers(self, tmp_path, forecasts_csv, leaderboard_csv):
        out = tmp_path / "out"
        assert run("ensemble", "--forecasts", forecasts_csv, "--leaderboard", leaderboard_csv,
                   "--methods", "all", "--out", out) == 0
        blocks = pqio.read_forecast_csv(out / "ensemble_forecasts.csv")
        assert len({p for b in blocks for p in b.producers}) == 988

    def test_weighted_without_leaderboard_is_usage_error(self, tmp_path, forecasts_csv):
        assert run("ensemble", "--forecasts", forecasts_csv, "--methods", "smape",
                   "--out", tmp_path / "o") == 1

    def test_missing_member_is_data_error(self, tmp_path, rng, capsys):
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ["s1"], MODEL_NAMES[:-1])
        assert run("ensemble", "--forecasts", path, "--methods", "mean",
                   "--out", tmp_path / "o") == 2
        assert "s1: missing forecasts of STL-ARIMA" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", ["mean,mean", "median,mean,MEDIAN"])
    def test_repeated_method_is_usage_error(self, tmp_path, forecasts_csv, capsys, methods):
        assert run("ensemble", "--forecasts", forecasts_csv, "--methods", methods,
                   "--out", tmp_path / "o") == 1
        assert "given twice" in capsys.readouterr().err
        assert not (tmp_path / "o" / "ensemble_forecasts.csv").exists()

    def test_leaderboard_without_a_model_is_usage_error(self, tmp_path, forecasts_csv, capsys):
        from pqforecast.evaluation import Leaderboard, LeaderboardRow
        board = tmp_path / "board.csv"
        rows = [LeaderboardRow(name, 4.0, 20.0, 4.0, 1.0) for name in MODEL_NAMES[1:]]
        pqio.write_leaderboard_csv(board, Leaderboard(rows=rows, n_series=2))
        assert run("ensemble", "--forecasts", forecasts_csv, "--leaderboard", board,
                   "--methods", "rank", "--out", tmp_path / "o") == 1
        assert "producer 'SNaive' not on the leaderboard" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_snaive_br_is_one(self, tmp_path):
        write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        fc_out = tmp_path / "fc"
        assert run("forecast", "--weekly", tmp_path / "weekly.csv", "--models",
                   "SNaive,Prophet,STL-Drift", "--out", fc_out) == 0
        ev_out = tmp_path / "ev"
        assert run("evaluate", "--forecasts", fc_out / "forecasts.csv",
                   "--weekly", tmp_path / "weekly.csv", "--out", ev_out) == 0
        board = pqio.read_leaderboard_csv(ev_out / "leaderboard_individual.csv")
        assert board.row("SNaive").benchmark_ratio == 1.0

    @pytest.mark.parametrize("top_n", [0, -5])
    def test_top_n_below_one_is_usage_error(self, tmp_path, rng, capsys, top_n):
        corpus = write_weekly(tmp_path / "weekly.csv", n_series=2, seed=9)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, [s.series_id for s in corpus])
        assert run("ensemble", "--forecasts", path, "--methods", "mean",
                   "--out", tmp_path / "ens") == 0
        assert run("evaluate", "--forecasts", path, tmp_path / "ens" / "ensemble_forecasts.csv",
                   "--weekly", tmp_path / "weekly.csv", "--top-n", top_n,
                   "--out", tmp_path / "ev") == 1
        assert "--top-n" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_alignment_error_names_series(self, tmp_path, rng, capsys):
        write_weekly(tmp_path / "weekly.csv", n_series=1, seed=9)
        path = tmp_path / "forecasts.csv"
        write_forecasts(path, rng, ["ghost"], ["SNaive"], 1.0, 9.0)
        assert run("evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
                   "--out", tmp_path / "o") == 2
        assert "ghost" in capsys.readouterr().err


class TestFullPipeline:
    def test_end_to_end_with_report(self, tmp_path):
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
                   "--out", base / "ev", "--top-n", 20) == 0
        for name in ("leaderboard_individual.csv", "leaderboard_ensembles.csv",
                     "composition_top.csv", "size_aggregates.csv", "comparison.csv",
                     "ecdf.csv"):
            assert (base / "ev" / name).exists(), name
        board = pqio.read_leaderboard_csv(base / "ev" / "leaderboard_ensembles.csv")
        assert len(board.rows) == 988
        assert run("report", "--eval-dir", base / "ev", "--out", base / "figs") == 0
        for name in ("fig_size_aggregates.svg", "fig_composition.svg", "fig_comparison.svg"):
            svg = (base / "figs" / name)
            assert svg.exists() and svg.read_text().startswith("<svg"), name

    def test_producers_cover_leaderboards_exactly_once(self, tmp_path):
        base = tmp_path
        run("synth", "--out", base / "corpus", "--n-series", 2, "--seed", 22)
        run("forecast", "--weekly", base / "corpus" / "weekly.csv", "--models",
            "all", "--out", base / "fc")
        run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
            "--weekly", base / "corpus" / "weekly.csv", "--out", base / "ev0")
        run("ensemble", "--forecasts", base / "fc" / "forecasts.csv",
            "--leaderboard", base / "ev0" / "leaderboard_individual.csv",
            "--methods", "mean,median", "--out", base / "ens")
        run("evaluate", "--forecasts", base / "fc" / "forecasts.csv",
            base / "ens" / "ensemble_forecasts.csv",
            "--weekly", base / "corpus" / "weekly.csv", "--out", base / "ev")
        produced = {p for b in pqio.read_forecast_csv(base / "fc" / "forecasts.csv")
                    for p in b.producers}
        produced |= {p for b in pqio.read_forecast_csv(base / "ens" / "ensemble_forecasts.csv")
                     for p in b.producers}
        individual = pqio.read_leaderboard_csv(base / "ev" / "leaderboard_individual.csv")
        ensembles = pqio.read_leaderboard_csv(base / "ev" / "leaderboard_ensembles.csv")
        listed = individual.producers() + ensembles.producers()
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
        yield ["ensemble", "--forecasts", path, "--methods", "mean", "--out", tmp_path / "ens"]
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

    def test_table_horizon_differs_from_option(self, tmp_path, corpus, capsys):
        series, path = corpus
        assert run("evaluate", "--forecasts", path, "--weekly", tmp_path / "weekly.csv",
                   "--train-len", 104, "--horizon", 53, "--out", tmp_path / "ev") == 2
        assert f"{path}: {series[0].series_id}: 52 steps, horizon is 53" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["B99:mean", "B01:avg"])
    def test_bad_ensemble_label_names_line(self, tmp_path, corpus, capsys, label):
        series, path = corpus
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(",SNaive,", f",{label},")
        path.write_text("\n".join(lines) + "\n")
        for argv in self._stages(tmp_path, path):
            assert run(*argv) == 2, argv[0]
            assert f"{path}:6: unknown" in capsys.readouterr().err


class TestReportCommand:
    @pytest.mark.parametrize("text, expected", [
        pytest.param("size,count,mean_smape,q25,median,q75,min,max\n2,abc,1,1,1,1,1,1\n",
                     "size_aggregates.csv:2", id="bad-count"),
        pytest.param("size,count\n2,abc\n", "expected header", id="bad-header"),
    ])
    def test_malformed_table_is_data_error(self, tmp_path, capsys, text, expected):
        ev = tmp_path / "ev"
        ev.mkdir()
        (ev / "size_aggregates.csv").write_text(text)
        assert run("report", "--eval-dir", ev, "--out", tmp_path / "figs") == 2
        assert expected in capsys.readouterr().err


class TestStageFlags:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--forecasts", "f.csv", "--weekly", "w.csv", "--jobs", "2"],
        ["ensemble", "--forecasts", "f.csv", "--seed", "1"],
        ["ensemble", "--forecasts", "f.csv", "--config", "c.ini"],
        ["preprocess", "--raw", "r.csv", "--planning-levels", "p.ini", "--jobs", "2"],
        ["synth", "--n-series", "1", "--config", "c.ini"],
        ["report", "--eval-dir", "ev", "--seed", "1"],
        ["forecast", "--weekly", "w.csv", "--config", "c.ini"],
    ])
    def test_flag_of_another_stage_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "o") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_cli_import_loads_no_scipy():
    src = Path(pqforecast.__file__).resolve().parents[1]
    code = ("import sys, pqforecast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"
