"""European-option forward model on a piecewise-linear volatility curve.

Prices are undiscounted (zero rates throughout): the terminal asset value
at expiry T is S0 * exp(-sigma(T)^2 T / 2 + sigma(T) sqrt(T) w) with one
independent standard-normal driver w per distinct expiry, so E S(T) = S0.
The calibration loss is g = 0.5 * sum_i (E y_i - C_i)^2 over the quoted
options.

The payoff program is written once: ``payoffs`` evaluates it directly on
numpy arrays and ``build_model_tape`` records it, so the recorded tape
reproduces the direct evaluation bit-for-bit; ``vol_at`` and
``terminal_price`` call its volatility and terminal-price pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import tape as tp
from .estimators import _Sums
from .rng_paths import PathBatch

__all__ = [
    "VolCurve",
    "OptionQuote",
    "MarketSpec",
    "LossValue",
    "vol_at",
    "terminal_price",
    "payoffs",
    "loss",
    "black_scholes_call",
    "build_model_tape",
    "load_market_file",
    "save_market_file",
    "default_fixture",
]

# paths per payoff block in ``loss``
_LOSS_ROWS = 8192


def _check_finite(**fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class VolCurve:
    """Piecewise-linear volatility curve over strictly increasing knot times."""

    knot_times: np.ndarray
    knot_vols: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.knot_times, dtype=np.float64))
        v = np.atleast_1d(np.asarray(self.knot_vols, dtype=np.float64))
        if t.size < 1:
            raise ValueError("need at least one knot")
        _check_finite(knot_times=t, knot_vols=v)
        if t.size != v.size:
            raise ValueError("knot_times and knot_vols must have equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("knot times must be strictly increasing")
        if not np.all(v > 0):
            raise ValueError("knot vols must be positive")
        object.__setattr__(self, "knot_times", t)
        object.__setattr__(self, "knot_vols", v)

    @property
    def n_knots(self) -> int:
        return self.knot_times.size

    def with_vols(self, vols) -> "VolCurve":
        return VolCurve(self.knot_times, vols)


@dataclass(frozen=True)
class OptionQuote:
    strike: float
    expiry: float
    price: float

    def __post_init__(self):
        _check_finite(strike=self.strike, expiry=self.expiry, price=self.price)
        if self.strike < 0:
            raise ValueError("strike must be >= 0")
        if self.expiry <= 0:
            raise ValueError("expiry must be > 0")
        if self.price < 0:
            raise ValueError("observed price must be >= 0")


@dataclass(frozen=True)
class MarketSpec:
    """Spot plus the quoted call options to calibrate against."""

    spot: float
    options: tuple

    def __post_init__(self):
        _check_finite(spot=self.spot)
        if self.spot <= 0:
            raise ValueError("spot must be > 0")
        opts = tuple(self.options)
        if not opts:
            raise ValueError("need at least one option")
        object.__setattr__(self, "options", opts)
        # the driver layout, computed once: ``payoffs`` reads it per block
        distinct = np.unique(self.expiries)
        index = {t: k for k, t in enumerate(distinct)}
        cols = np.array([index[o.expiry] for o in opts])
        distinct.flags.writeable = cols.flags.writeable = False
        object.__setattr__(self, "_layout", (distinct, cols))

    def __reduce__(self):
        # pickle and deepcopy rebuild the layout read-only, not copy it
        return MarketSpec, (self.spot, self.options)

    @property
    def n_options(self) -> int:
        return len(self.options)

    @property
    def strikes(self) -> np.ndarray:
        return np.array([o.strike for o in self.options])

    @property
    def expiries(self) -> np.ndarray:
        return np.array([o.expiry for o in self.options])

    @property
    def prices(self) -> np.ndarray:
        return np.array([o.price for o in self.options])

    def driver_layout(self):
        """Distinct expiries (sorted) and each option's driver column, as
        read-only arrays."""
        return self._layout

    @property
    def n_drivers(self) -> int:
        return self._layout[0].size


@dataclass(frozen=True)
class LossValue:
    g: float
    expectations: np.ndarray
    residuals: np.ndarray


def _interp_weights(knot_times: np.ndarray, t: float):
    """Bracketing knots and linear weights for time t; flat outside the grid."""
    n = knot_times.size
    if n == 1 or t <= knot_times[0]:
        return 0, 0, 1.0, 0.0
    if t >= knot_times[-1]:
        return n - 1, n - 1, 1.0, 0.0
    hi = int(np.searchsorted(knot_times, t, side="right"))
    lo = hi - 1
    w_hi = (t - knot_times[lo]) / (knot_times[hi] - knot_times[lo])
    if w_hi == 0.0:
        return lo, lo, 1.0, 0.0
    return lo, hi, 1.0 - w_hi, w_hi


def _sigma(knot_times, vols, t):
    """Interpolated volatility at time t from knot values ``vols``."""
    lo, hi, w_lo, w_hi = _interp_weights(knot_times, t)
    if w_hi == 0.0:
        return w_lo * vols[lo]
    return w_lo * vols[lo] + w_hi * vols[hi]


def _terminal(spot, sig, t, w, exp):
    """S(T) = spot * exp(sigma^2 (-T/2) + sigma sqrt(T) w)."""
    return spot * exp(sig * sig * (-0.5 * t) + sig * math.sqrt(t) * w)


def _max0(x):
    """(x)^+ for the numpy payoff program, in place: x is a fresh temporary."""
    return np.maximum(x, 0.0, out=x)


def _call_payoffs(spec: MarketSpec, knot_times, vols, inputs, exp, max0):
    """The payoff program: yields y_i = max0(S(T_i) - K_i) in option order.

    ``inputs[k]`` is the driver of the k-th distinct expiry.  It runs on
    numpy values (``payoffs``) and on trace variables (``build_model_tape``),
    so the recorded tape performs exactly the direct evaluation's arithmetic.
    """
    distinct, cols = spec.driver_layout()
    s_at = [_terminal(spec.spot, _sigma(knot_times, vols, t), t, inputs[k], exp)
            for k, t in enumerate(distinct)]
    for i, opt in enumerate(spec.options):
        yield max0(s_at[cols[i]] - opt.strike)


def vol_at(curve: VolCurve, t: float) -> float:
    """Interpolated volatility at time t (flat extrapolation off the grid)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(_sigma(curve.knot_times, curve.knot_vols, float(t)))


def terminal_price(spot: float, curve: VolCurve, expiry: float, w):
    """Terminal asset value S(T) for standard-normal draw(s) w."""
    if expiry <= 0:
        raise ValueError("expiry must be > 0")
    return _terminal(spot, vol_at(curve, expiry), expiry,
                     np.asarray(w, dtype=np.float64), np.exp)


def payoffs(spec: MarketSpec, curve: VolCurve, w):
    """Call payoffs y_i = (S(T_i) - K_i)^+ for one path or a block of paths.

    ``w`` has one column per distinct expiry (shape (n_drivers,) or
    (n_paths, n_drivers)); option i reads the column of its own expiry.
    """
    w = np.asarray(w, dtype=np.float64)
    single = w.ndim == 1
    if single:
        w = w[None, :]
    _check_drivers(spec, w.shape[1])
    out = np.empty((w.shape[0], spec.n_options), dtype=np.float64)
    _write_payoffs(spec, curve, w, out)
    return out[0] if single else out


def _check_drivers(spec: MarketSpec, n_drivers: int) -> None:
    if n_drivers != spec.n_drivers:
        raise ValueError(
            f"expected {spec.n_drivers} drivers (one per distinct expiry), "
            f"got {n_drivers}"
        )


def _write_payoffs(spec: MarketSpec, curve: VolCurve, w, out) -> None:
    """Run the payoff program on the rows of ``w``, option i into out[:, i]."""
    program = _call_payoffs(spec, curve.knot_times, curve.knot_vols, w.T,
                            np.exp, _max0)
    for i, y in enumerate(program):
        out[:, i] = y


def loss(spec: MarketSpec, curve: VolCurve, paths: PathBatch) -> LossValue:
    """Monte-Carlo calibration loss over a path batch.

    The payoff program reads the draws ``_LOSS_ROWS`` paths at a time
    through ``paths.rows``, which fills rows still pending
    (``PathBatch.reading``), and writes each block straight into the rows
    of a total-only ``estimators._Sums``: no (n_paths, n_options)
    payoff matrix is formed, a block's temporaries stay cache-sized, and
    the payoffs add in path order for any number of options and blocks.
    ``payoffs(...).mean(axis=0)`` adds in that order too for two or more
    options, and is then bit-identical to ``expectations``; it sums a lone
    column pairwise, so for one option only that mean differs in its bits.
    """
    n = paths.n_paths
    if n < 1:
        raise ValueError("paths must be nonempty")
    _check_drivers(spec, paths.n_inputs)
    sums = _Sums(spec.n_options, min(n, _LOSS_ROWS))
    with paths.reading():
        for lo in range(0, n, _LOSS_ROWS):
            w = paths.rows(lo, lo + _LOSS_ROWS)
            _write_payoffs(spec, curve, w, sums.rows(len(w)))
            sums.commit(len(w))
    expectations = sums.total / n
    residuals = expectations - spec.prices
    g = 0.5 * float(residuals @ residuals)
    return LossValue(g=g, expectations=expectations, residuals=residuals)


def black_scholes_call(spot: float, strike: float, sigma: float, expiry: float) -> float:
    """Zero-rate closed-form call price (test oracle)."""
    if expiry <= 0:
        raise ValueError("expiry must be > 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if strike == 0.0:
        return float(spot)
    if sigma == 0.0:
        return float(max(spot - strike, 0.0))
    sd = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + 0.5 * sd * sd) / sd
    d2 = d1 - sd
    return float(spot * ndtr(d1) - strike * ndtr(d2))


def bs_vega(spot: float, strike: float, sigma: float, expiry: float) -> float:
    """Zero-rate Black-Scholes vega (analytic companion to the oracle)."""
    sd = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + 0.5 * sd * sd) / sd
    return float(spot * math.sqrt(expiry) * math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi))


def build_model_tape(spec: MarketSpec, curve: VolCurve) -> tp.Tape:
    """Record the payoff program: knot vols are the parameter slots.

    The tape has M = n_knots parameters, N = n distinct expiries random
    inputs and m = n_options outputs, and replays identically to
    :func:`payoffs` at any parameter vector (knot times stay fixed).
    """
    def program(params, inputs):
        return _call_payoffs(spec, curve.knot_times, params, inputs,
                             tp.exp, tp.max0)

    return tp.record(program, n_params=curve.n_knots, n_inputs=spec.n_drivers)


# -- plain-text market configuration -----------------------------------------


def read_key_values(path) -> list:
    """``(lineno, key, value)`` per entry of a ``key = value`` file.

    '#' starts a comment and blank lines are skipped; keys are stripped and
    lower-cased, values stripped.  A line without '=' raises ValueError
    located as ``path:lineno``.
    """
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip().lower(), value.strip()))
    return entries


def load_market_file(path) -> tuple[MarketSpec, VolCurve]:
    """Read a key-value market file: spot, option and knot lines.

    Schema (one entry per line, '#' starts a comment)::

        spot = 100.0
        option = <strike> <expiry_years> <observed_price>
        knot = <time_years> <vol>

    Every value must be a finite number.  A bad entry raises ValueError
    located as ``path:lineno``.
    """
    arity = {"spot": 1, "option": 3, "knot": 2}
    spot = None
    options = []
    knots = {}  # time -> (vol, lineno)
    for lineno, key, value in read_key_values(path):
        try:
            if key not in arity:
                raise ValueError(f"unknown key {key!r}")
            numbers = [float(v) for v in value.split()]
            if len(numbers) != arity[key]:
                raise ValueError(f"{key} needs {arity[key]} numbers, got {value!r}")
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"{key} values must be finite, got {value!r}")
            if key == "spot":
                if spot is not None:
                    raise ValueError(f"spot repeats line {spot_line}")
                if numbers[0] <= 0:
                    raise ValueError("spot must be > 0")
                spot, spot_line = numbers[0], lineno
            elif key == "option":
                options.append(OptionQuote(*numbers))
            elif numbers[0] in knots:
                raise ValueError(f"knot time {numbers[0]!r} repeats line "
                                 f"{knots[numbers[0]][1]}")
            else:  # a one-knot curve checks the vol
                knots[numbers[0]] = VolCurve(*numbers).knot_vols[0], lineno
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if spot is None:
        raise ValueError(f"{path}: missing 'spot'")
    if not options:
        raise ValueError(f"{path}: no option lines")
    if not knots:
        raise ValueError(f"{path}: no knot lines")
    times = sorted(knots)
    curve = VolCurve(times, [knots[t][0] for t in times])
    return MarketSpec(spot=spot, options=tuple(options)), curve


def save_market_file(path, spec: MarketSpec, curve: VolCurve) -> None:
    with open(path, "w") as fh:
        fh.write(f"spot = {float(spec.spot)!r}\n")
        for t, v in zip(curve.knot_times, curve.knot_vols):
            fh.write(f"knot = {float(t)!r} {float(v)!r}\n")
        for o in spec.options:
            fh.write(f"option = {float(o.strike)!r} {float(o.expiry)!r} "
                     f"{float(o.price)!r}\n")


def default_fixture(start_vol: float = 0.4, reference_vol: float = 0.2):
    """Desk-scale five-option fixture.

    Strikes 100..120 against spot 100, expiries 1..5y, knots at the
    expiries.  Observed prices are closed-form prices under a flat
    reference curve; the returned curve is a flat starting guess.
    """
    spot = 100.0
    strikes = [100.0, 105.0, 110.0, 115.0, 120.0]
    expiries = [1.0, 2.0, 3.0, 4.0, 5.0]
    options = tuple(
        OptionQuote(k, t, black_scholes_call(spot, k, reference_vol, t))
        for k, t in zip(strikes, expiries)
    )
    spec = MarketSpec(spot=spot, options=options)
    curve = VolCurve(expiries, [start_vol] * len(expiries))
    return spec, curve
