"""Command-line harness: subcommands, CSV round-trips, flag precedence."""

import itertools
import re

import numpy as np
import pytest

import mcadjoint.cli as cli
import mcadjoint.estimators as est
import mcadjoint.model as mdl
import mcadjoint.optimizer as opt
from mcadjoint.optimizer import read_trace_csv


@pytest.fixture()
def market_file(tmp_path):
    spec, curve = mdl.default_fixture()
    path = tmp_path / "market.cfg"
    mdl.save_market_file(path, spec, curve)
    return path


def run_config(tmp_path, market_file, **overrides):
    base = dict(subcommand="test", spec_path=str(market_file),
                algorithms=[1, 2, 3], n_mc_list=[400, 900], seed=11,
                batch_width=4, out_dir=str(tmp_path / "out"),
                repeats=1, max_iter=3)
    base.update(overrides)
    return cli.RunConfig(**base)


class TestVarianceTable:
    def test_row_and_column_shape(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file)
        paths = cli.cmd_variance_table(cfg)
        assert len(paths) == 3  # one CSV per algorithm
        total_rows = 0
        for p in paths:
            header, rows = cli.read_csv_table(p)
            assert len(header) == 2 + 5  # n_mc, time, five variances
            total_rows += len(rows)
        assert total_rows == 6

    def test_variance_decreases_with_paths(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, n_mc_list=[2000, 20000],
                         algorithms=[1])
        (path,) = cli.cmd_variance_table(cfg)
        _, rows = cli.read_csv_table(path)
        small, large = rows
        assert all(lv < sv for sv, lv in zip(small[2:], large[2:]))

    def test_reparseable_roundtrip(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, algorithms=[2])
        (path,) = cli.cmd_variance_table(cfg)
        header, rows = cli.read_csv_table(path)
        assert rows[0][0] == 400.0
        assert all(np.isfinite(v) for row in rows for v in row)


class TestGradient:
    def test_one_row_per_algorithm(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, n_mc_list=[2000])
        path = cli.cmd_gradient(cfg)
        header, rows = cli.read_csv_table(path)
        assert len(rows) == 3
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert len(header) == 2 + 5

    def test_single_algorithm_single_row(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, algorithms=[3], n_mc_list=[800])
        path = cli.cmd_gradient(cfg)
        _, rows = cli.read_csv_table(path)
        assert len(rows) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_gradient_coordinate_has_zero_spread(self, tmp_path, capsys):
        # no option expires after the second knot, so the third knot's
        # gradient is exactly zero under every algorithm: spread 0, not 0/0
        market = tmp_path / "market.cfg"
        market.write_text("spot = 100.0\nknot = 1 0.3\nknot = 2 0.3\n"
                          "knot = 3 0.3\noption = 100 1 8.0\n"
                          "option = 105 2 9.0\n")
        cfg = run_config(tmp_path, market, n_mc_list=[2000])
        _, rows = cli.read_csv_table(cli.cmd_gradient(cfg))
        assert [row[-1] for row in rows] == [0.0, 0.0, 0.0]
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("max pairwise relative spread per coordinate:")
        spread = [float(v) for v in lines[at + 1].split()]
        assert len(spread) == 3 and np.isfinite(spread).all()
        assert spread[2] == 0.0

    def test_seed_reproducibility(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, n_mc_list=[1500])
        a = cli.read_csv_table(cli.cmd_gradient(cfg))
        b = cli.read_csv_table(cli.cmd_gradient(cfg))
        for ra, rb in zip(a[1], b[1]):
            assert ra[2:] == rb[2:]  # identical gradients, timing aside


class TestTiming:
    def test_time_is_median_of_the_estimates_millis(self, tmp_path,
                                                    market_file, monkeypatch):
        # every row's three repeats report 1, 5 and 3 ms of their own
        millis = itertools.cycle([1.0, 5.0, 3.0])

        def estimate(tape, params, paths, targets):
            return est.GradientEstimate(np.zeros(5), np.ones(5), paths.n_paths,
                                        0, 0, 1, millis=next(millis))

        for alg in (1, 2, 3):
            monkeypatch.setitem(opt._ESTIMATORS, alg, estimate)
        out = tmp_path / "o"
        for subcommand in ("variance-table", "gradient"):
            assert cli.main([subcommand, "--spec", str(market_file),
                             "--nmc", "400,900", "--repeats", "3",
                             "--out", str(out)]) == 0
        tables = sorted(out.glob("*.csv"))
        assert len(tables) == 4  # three variance tables and the gradient
        for path in tables:
            header, rows = cli.read_csv_table(path)
            assert [row[header.index("time_us")] for row in rows] == (
                [3000.0] * len(rows))


class TestCalibrate:
    def test_trace_per_algorithm_and_nmc(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, algorithms=[3],
                         n_mc_list=[400, 900], max_iter=2)
        paths = cli.cmd_calibrate(cfg)
        assert len(paths) == 2
        for p in paths:
            trace = read_trace_csv(p)
            assert trace.records[0].iteration == 0

    def test_requested_iterations_present(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, algorithms=[1],
                         n_mc_list=[3000], max_iter=5)
        (path,) = cli.cmd_calibrate(cfg)
        trace = read_trace_csv(path)
        assert trace.records[-1].iteration == 5
        assert len(trace) == 6  # iteration 0 plus five steps

    def test_loss_decreases(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, algorithms=[1],
                         n_mc_list=[20000], max_iter=6)
        (path,) = cli.cmd_calibrate(cfg)
        trace = read_trace_csv(path)
        assert trace.records[-1].loss < trace.records[0].loss


class TestMeasureSpeedup:
    def test_degenerate_width_one(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, batch_width=1)
        path = cli.cmd_measure_speedup(cfg)
        header, rows = cli.read_csv_table(path)
        row = dict(zip(header, rows[0]))
        assert row["k_f"] == 1.0 and row["k_r"] == 1.0

    def test_width8_reports_finite_positive(self, tmp_path, market_file):
        cfg = run_config(tmp_path, market_file, batch_width=8,
                         n_mc_list=[4000], repeats=5)
        path = cli.cmd_measure_speedup(cfg)
        header, rows = cli.read_csv_table(path)
        row = dict(zip(header, rows[0]))
        assert row["k_f"] > 0 and np.isfinite(row["k_f"])
        assert row["k_r"] > 0 and np.isfinite(row["k_r"])
        assert row["k_f_spread"] >= 0.0

    @pytest.mark.parametrize("argv, repeats", [([], 3),
                                               (["--repeats", "2"], 2),
                                               (["--repeats", "7"], 7)])
    def test_repeats_taken_as_given(self, argv, repeats, tmp_path,
                                    monkeypatch):
        seen = []

        def record(tape, params, paths, width, *, repeats):
            seen.append(repeats)
            return est.SpeedupReport(width, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                     repeats, [1.0] * repeats, [1.0] * repeats)

        monkeypatch.setattr(est, "measure_correction_coefficients", record)
        rc = cli.main(["measure-speedup", "--nmc", "64",
                       "--out", str(tmp_path / "o"), *argv])
        assert rc == 0 and seen == [repeats]

    @pytest.mark.parametrize("argv, n_paths", [([], 100_000),
                                               (["--nmc", "3e4,64"], 30_000)])
    def test_nmc_taken_as_given(self, argv, n_paths, tmp_path, monkeypatch):
        seen = []

        def record(tape, params, paths, width, *, repeats):
            seen.append(paths.n_paths)
            return est.SpeedupReport(width, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                     repeats, [1.0] * repeats, [1.0] * repeats)

        monkeypatch.setattr(est, "measure_correction_coefficients", record)
        rc = cli.main(["measure-speedup", "--out", str(tmp_path / "o"),
                       *argv])
        assert rc == 0 and seen == [n_paths]


class TestArgumentHandling:
    @pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
    def test_help_states_every_default(self, subcommand, capsys):
        with pytest.raises(SystemExit):
            cli.main([subcommand, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        # the option entries, each "--flag METAVAR help text"
        entries = {e.split()[0]: e
                   for e in re.split(r" (?=--[a-z-]+ [A-Z_]+ )", text)[1:]}
        config = cli.RunConfig(subcommand=subcommand)
        for key, (attr, *_, commands) in cli._OPTIONS.items():
            shown = commands is None or subcommand in commands
            if shown and getattr(config, attr) is not None:
                assert "(default" in entries[cli._flag(key)], key
        assert "(default 100000,1000000)" in entries["--nmc"]
        if "--alg" in entries:
            assert "(default 1,2,3)" in entries["--alg"]

    def test_flags_beat_config_file(self, tmp_path, market_file):
        conf = tmp_path / "run.cfg"
        conf.write_text("seed = 5\nnmc = 600\nalg = 2\n")
        args = cli._build_parser().parse_args(
            ["gradient", "--config", str(conf), "--seed", "9"])
        cfg = cli._resolve(args)
        assert cfg.seed == 9            # flag wins
        assert cfg.n_mc_list == [600]   # file beats default
        assert cfg.algorithms == [2]

    def test_defaults_used_without_sources(self):
        args = cli._build_parser().parse_args(["variance-table"])
        cfg = cli._resolve(args)
        assert cfg.seed == 42
        assert cfg.algorithms == [1, 2, 3]
        assert cfg.batch_width == 8

    def test_nmc_scientific_notation(self):
        args = cli._build_parser().parse_args(["gradient", "--nmc", "1e3,2e3"])
        cfg = cli._resolve(args)
        assert cfg.n_mc_list == [1000, 2000]

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "run.cfg"
        conf.write_text("wibble = 3\n")
        args = cli._build_parser().parse_args(["gradient", "--config", str(conf)])
        with pytest.raises(ValueError, match="wibble"):
            cli._resolve(args)

    def test_invalid_nmc_rejected(self):
        with pytest.raises(ValueError, match="N_mc"):
            cli.RunConfig(subcommand="gradient", n_mc_list=[1])

    def test_invalid_algorithms_rejected(self):
        with pytest.raises(ValueError):
            cli.RunConfig(subcommand="gradient", algorithms=[4])

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_batch_width_below_one_rejected(self, width, capsys):
        with pytest.raises(ValueError, match="batch width must be >= 1"):
            cli.RunConfig(subcommand="measure-speedup", batch_width=int(width))
        rc = cli.main(["measure-speedup", "--batch-width", width])
        assert rc == 1
        assert "batch width must be >= 1" in capsys.readouterr().err

    def test_bad_config_value_located(self, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text("nmc = 600\nseed = abc\n")
        rc = cli.main(["gradient", "--config", str(conf)])
        assert rc == 1
        assert f"{conf}:2: seed: invalid literal" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--nmc", "1e5,abc"),
                                             ("--seed", "abc"),
                                             ("--batch-width", "2.5")])
    def test_bad_flag_value_named(self, flag, value, capsys):
        rc = cli.main(["measure-speedup", flag, value])
        assert rc == 1
        assert f"error: {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gradient", "--nmc", ","], "N_mc"),
        (["measure-speedup", "--nmc", ","], "N_mc"),
        (["gradient", "--nmc", "inf"], "--nmc: "),
        (["calibrate", "--alg", "inf"], "--alg: "),
        (["gradient", "--alg", ","], "algorithms"),
        (["variance-table", "--alg", ","], "algorithms"),
        (["gradient", "--repeats", "0"], "repeats must be >= 1"),
        (["variance-table", "--repeats", "-3"], "repeats must be >= 1"),
        (["calibrate", "--max-iter", "-1"], "max_iter must be >= 0"),
        (["gradient", "--alg", "2.5", "--nmc", "600"],
         "--alg: 2.5 is not an integer"),
        (["gradient", "--nmc", "1500.5"], "--nmc: 1500.5 is not an integer"),
    ], ids=["gradient-empty-nmc", "speedup-empty-nmc", "inf-nmc", "inf-alg",
            "gradient-empty-alg", "table-empty-alg", "zero-repeats",
            "negative-repeats", "negative-max-iter", "fractional-alg",
            "fractional-nmc"])
    def test_bad_value_fails_before_running(self, argv, message, tmp_path,
                                            capsys):
        rc = cli.main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source, value", [
        ("flag", "-1"), ("flag", str(2**64)), ("config", "-5"),
        ("config", "99999999999999999999999")])
    def test_seed_outside_u64_rejected(self, source, value, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text(f"nmc = 600\nseed = {value}\n")
        argv = (["--seed", value] if source == "flag"
                else ["--config", str(conf)])
        rc = cli.main(["gradient", *argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        named = "--seed" if source == "flag" else f"{conf}:2: seed"
        assert (f"error: {named}: seed must be in [0, 2**64), got {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, key", [
        ("gradient", "batch_width"), ("variance-table", "batch_width"),
        ("calibrate", "batch_width"), ("calibrate", "repeats"),
        ("measure-speedup", "alg")])
    def test_flag_only_where_read(self, subcommand, key, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([subcommand, cli._flag(key), "2"])
        assert "unrecognized arguments" in capsys.readouterr().err
        conf = tmp_path / "run.cfg"
        conf.write_text(f"{key} = 2\n")  # config keys stay accepted
        args = cli._build_parser().parse_args([subcommand, "--config", str(conf)])
        assert getattr(cli._resolve(args), cli._OPTIONS[key][0]) in (2, [2])

    def test_unknown_generator_rejected(self, capsys):
        with pytest.raises(ValueError, match="unknown generator 'mt19937'"):
            cli.RunConfig(subcommand="gradient", generator_id="mt19937")
        assert cli.main(["gradient", "--generator", "mt19937"]) == 1
        assert "unknown generator" in capsys.readouterr().err

    def test_threads_option_gone(self, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text("threads = 2\n")
        args = cli._build_parser().parse_args(["gradient", "--config", str(conf)])
        with pytest.raises(ValueError, match="unknown config key 'threads'"):
            cli._resolve(args)
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["gradient", "--threads", "2"])
        assert "--threads" in capsys.readouterr().err

    def test_main_smoke(self, tmp_path, market_file, capsys):
        rc = cli.main(["gradient", "--spec", str(market_file),
                       "--alg", "1", "--nmc", "500", "--seed", "3",
                       "--repeats", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "gradient.csv").exists()

    def test_main_reports_missing_file(self, capsys):
        rc = cli.main(["gradient", "--spec", "/nonexistent/market.cfg"])
        assert rc == 1
        assert "error" in capsys.readouterr().err
