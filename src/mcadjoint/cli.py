"""Command-line harness for the estimator experiments.

Subcommands::

    variance-table   per-algorithm CSV of wall time and Var(G_k) vs N_mc
    gradient         one-row-per-algorithm gradient comparison at fixed N_mc
    calibrate        L-BFGS calibration trace CSV per (algorithm, N_mc)
    measure-speedup  empirical K_F / K_R of batched vs scalar replay

All numeric output is CSV (plotting is left to external tools) plus a
human-readable table on stdout.  Every estimate is reproducible from
--seed.  Flag values beat config-file values, which beat the defaults.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import estimators as est
from . import model as mdl
from . import optimizer as opt
from . import rng_paths as rng
from .optimizer import _write_csv, read_csv_table

__all__ = [
    "RunConfig",
    "main",
    "cmd_variance_table",
    "cmd_gradient",
    "cmd_calibrate",
    "cmd_measure_speedup",
    "read_csv_table",
]


def _seed(value) -> int:
    """A seed as an int in [0, 2**64), the range of the path generators."""
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


@dataclass
class RunConfig:
    subcommand: str
    spec_path: str | None = None
    algorithms: list = field(default_factory=lambda: [1, 2, 3])
    n_mc_list: list = field(default_factory=lambda: [100_000, 1_000_000])
    seed: int = 42
    batch_width: int = 8
    out_dir: str = "out"
    repeats: int = 3
    max_iter: int = opt._CALIBRATION.max_iter
    generator_id: str = "philox"

    def __post_init__(self):
        _seed(self.seed)
        if not self.n_mc_list or any(n < 2 for n in self.n_mc_list):
            raise ValueError("need one or more N_mc, every N_mc >= 2")
        if not self.algorithms or not set(self.algorithms) <= {1, 2, 3}:
            raise ValueError("algorithms must be a non-empty subset of {1,2,3}")
        if self.batch_width < 1:
            raise ValueError(f"batch width must be >= 1, got {self.batch_width}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.generator_id not in rng.GENERATOR_IDS:
            raise ValueError(f"unknown generator {self.generator_id!r}; "
                             f"choose from {rng.GENERATOR_IDS}")

    def setup(self):
        """The market (the built-in fixture without --spec), its tape, and
        the output directory, made if missing."""
        spec, curve = (mdl.default_fixture() if self.spec_path is None
                       else mdl.load_market_file(self.spec_path))
        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return spec, curve, mdl.build_model_tape(spec, curve), out


def _timed_estimate(cfg: RunConfig, alg, tape, vols, paths, targets):
    """The estimate, which the seed determines, and the median of its
    repeats' own wall times in microseconds."""
    runs = [opt._ESTIMATORS[alg](tape, vols, paths, targets)
            for _ in range(cfg.repeats)]
    return runs[-1], statistics.median(e.millis for e in runs) * 1e3


def _print_table(title, header, rows):
    print(f"\n{title}")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))


def cmd_variance_table(cfg: RunConfig):
    """One CSV per algorithm: rows are N_mc, columns time and Var(G_k)."""
    spec, curve, tape, out = cfg.setup()
    m = curve.n_knots
    header = ["n_mc", "time_us"] + [f"var_g{k + 1}" for k in range(m)]
    paths_written = []
    for alg in cfg.algorithms:
        rows = []
        for n_mc in cfg.n_mc_list:
            # drop the last set before drawing the next
            paths = None
            paths = rng.generate(cfg.seed, n_mc, tape.n_inputs, cfg.generator_id)
            estimate, micros = _timed_estimate(cfg, alg, tape, curve.knot_vols,
                                               paths, spec.prices)
            rows.append([n_mc, micros] + list(estimate.variance))
        path = _write_csv(out / f"variance_alg{alg}.csv", header, rows)
        paths_written.append(path)
        _print_table(f"Algorithm {alg}: time and per-coordinate variance",
                     header, rows)
    return paths_written


def cmd_gradient(cfg: RunConfig):
    """Gradient comparison at fixed N_mc (the first --nmc value).

    Every algorithm reads one path set.  Above 131 072 paths the set holds
    no draws and each run draws it again, so each time includes its own
    draw, two for algorithm 1; below it the first run draws the set once.
    """
    spec, curve, tape, out = cfg.setup()
    n_mc = cfg.n_mc_list[0]
    paths = rng.generate(cfg.seed, n_mc, tape.n_inputs, cfg.generator_id)
    m = curve.n_knots
    header = ["algorithm", "time_us"] + [f"grad_g{k + 1}" for k in range(m)]
    rows, grads = [], {}
    for alg in cfg.algorithms:
        estimate, micros = _timed_estimate(cfg, alg, tape, curve.knot_vols,
                                           paths, spec.prices)
        grads[alg] = estimate.grad
        rows.append([alg, micros] + list(estimate.grad))
    path = _write_csv(out / "gradient.csv", header, rows)
    _print_table(f"Gradient estimates at N_mc={n_mc}", header, rows)

    if len(grads) > 1:
        algs = sorted(grads)
        spread = np.zeros(m)
        for i, a in enumerate(algs):
            for b in algs[i + 1:]:
                # two zero gradients are equal: spread 0, not 0/0
                denom = np.maximum(np.abs(grads[a]), np.abs(grads[b]))
                spread = np.maximum(spread, np.divide(
                    np.abs(grads[a] - grads[b]), denom, out=np.zeros(m),
                    where=denom > 0))
        print("\nmax pairwise relative spread per coordinate:")
        print("  " + "  ".join(f"{s:.3e}" for s in spread))
    return path


def cmd_calibrate(cfg: RunConfig):
    """One calibration trace CSV per requested (algorithm, N_mc)."""
    config = replace(opt._CALIBRATION, max_iter=cfg.max_iter)
    spec, curve, _, out = cfg.setup()
    written = []
    for alg in cfg.algorithms:
        for n_mc in cfg.n_mc_list:
            fitted, trace = opt.calibrate(spec, curve, alg, n_mc, cfg.seed,
                                          config, generator_id=cfg.generator_id)
            path = out / f"calibrate_alg{alg}_nmc{n_mc}.csv"
            opt.write_trace_csv(path, trace)
            written.append(path)
            first, last = trace.records[0], trace.records[-1]
            print(f"alg {alg} n_mc {n_mc}: loss {first.loss:.6g} -> "
                  f"{last.loss:.6g} in {last.iteration} iterations "
                  f"({trace.status}); vols {np.round(fitted.knot_vols, 4)}")
    return written


def cmd_measure_speedup(cfg: RunConfig):
    """Wall-time comparison of scalar vs width-c batched replay on the first
    --nmc paths."""
    spec, curve, tape, out = cfg.setup()
    n_mc = cfg.n_mc_list[0]
    paths = rng.generate(cfg.seed, n_mc, tape.n_inputs, cfg.generator_id)
    report = est.measure_correction_coefficients(
        tape, curve.knot_vols, paths, cfg.batch_width, repeats=cfg.repeats)
    header = ["width", "k_f", "k_r", "t_scalar_f_us", "t_scalar_r_us",
              "t_batched_f_us", "t_batched_r_us", "k_f_spread", "k_r_spread"]
    kf_spread = float(np.std(report.k_f_runs)) if len(report.k_f_runs) > 1 else 0.0
    kr_spread = float(np.std(report.k_r_runs)) if len(report.k_r_runs) > 1 else 0.0
    row = [report.width, report.k_f, report.k_r, report.t_scalar_f_us,
           report.t_scalar_r_us, report.t_batched_f_us, report.t_batched_r_us,
           kf_spread, kr_spread]
    path = _write_csv(out / "speedup.csv", header, [row])
    _print_table("Batched replay correction coefficients", header, [row])
    if report.degenerate:
        print("width 1 is a degenerate measurement: K_F = K_R = 1 by definition")
    else:
        print(f"measured over {report.repeats} runs; spread is the "
              "run-to-run standard deviation")
    return path


# -- argument handling --------------------------------------------------------


def _parse_int_list(text):
    """Comma-separated integers; scientific notation such as 1e5 is allowed."""
    values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    for value in values:
        if not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
    return [int(value) for value in values]


# config key -> (RunConfig field, parser, help, subcommands taking the flag
# or None for all); the flag is --key with dashes, RunConfig holds the
# defaults
_OPTIONS = {
    "spec": ("spec_path", str,
             "market spec file (default: built-in fixture)", None),
    "alg": ("algorithms", _parse_int_list,
            "comma-separated algorithms, e.g. 1,2,3",
            ("variance-table", "gradient", "calibrate")),
    "nmc": ("n_mc_list", _parse_int_list,
            "comma-separated path counts, e.g. 1e5,1e6; gradient and "
            "measure-speedup use the first", None),
    "seed": ("seed", _seed, "base RNG seed in [0, 2**64)", None),
    "batch_width": ("batch_width", int,
                    "lane count c that measure-speedup measures",
                    ("measure-speedup",)),
    "out": ("out_dir", str, "output directory for CSV files", None),
    "repeats": ("repeats", int, "timing repetitions per row",
                ("variance-table", "gradient", "measure-speedup")),
    "generator": ("generator_id", str, "rng id: philox or pcg64", None),
    "max_iter": ("max_iter", int, "optimizer iteration budget",
                 ("calibrate",)),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mcadjoint",
        description="Monte-Carlo adjoint gradient experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = {k: ",".join(map(str, v)) if isinstance(v, list) else v
                for k, v in vars(RunConfig(subcommand="")).items()}
    for name, help_text in [
        ("variance-table", "variance and wall time per (algorithm, N_mc)"),
        ("gradient", "gradient comparison across algorithms at fixed N_mc"),
        ("calibrate", "calibrate the vol curve; one trace CSV per run"),
        ("measure-speedup", "measure K_F/K_R of batched vs scalar replay"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        for key, (attr, _, help_text, commands) in _OPTIONS.items():
            if commands is None or name in commands:
                if defaults[attr] is not None:
                    help_text += f" (default {defaults[attr]})"
                p.add_argument(_flag(key), dest=key, help=help_text)
    return parser


def _resolve(args) -> RunConfig:
    """RunConfig from the flags, then the config file, then the defaults.

    A bad value raises ValueError naming its flag or its ``path:line`` and
    key.
    """
    given = {}
    if args.config:
        for lineno, key, value in mdl.read_key_values(args.config):
            key = key.replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(
                    f"{args.config}:{lineno}: unknown config key {key!r}")
            given[key] = (value, f"{args.config}:{lineno}: {key}")
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = (flag, _flag(key))
    values = {}
    for key, (text, source) in given.items():
        name, parse = _OPTIONS[key][:2]
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return RunConfig(subcommand=args.subcommand, **values)


_COMMANDS = {
    "variance-table": cmd_variance_table,
    "gradient": cmd_gradient,
    "calibrate": cmd_calibrate,
    "measure-speedup": cmd_measure_speedup,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _COMMANDS[cfg.subcommand](cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
