"""Record-once / replay-many reverse-mode AD tape.

A forward program is traced once into a flat list of primitive operations
(topological order by construction).  The tape can then be replayed on new
parameter/input values, either one input set at a time or as a batch of
independent input sets ("lanes"), and swept backwards with an arbitrary
output-weight vector to obtain weighted adjoints with respect to the
parameter slots.

The replay engine operates on numpy arrays of shape ``(n_lanes,)`` per tape
node, so a "scalar" replay is simply a one-lane batch.  Elementwise ufuncs
in numpy are lane-deterministic, which is what makes batch and scalar
replay bit-identical lane by lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tape",
    "AdjointSeed",
    "ReplayCounters",
    "TapeError",
    "UnsupportedPrimitiveError",
    "NonFiniteError",
    "record",
    "exp",
    "log",
    "sqrt",
    "max0",
]

# opcodes
_CONST = 0
_PARAM = 1
_INPUT = 2
_ADD = 3
_SUB = 4
_MUL = 5
_DIV = 6
_NEG = 7
_EXP = 8
_LOG = 9
_SQRT = 10
_POWC = 11
_MAX0 = 12

_BINARY = (_ADD, _SUB, _MUL, _DIV)

_OP_NAMES = {
    _CONST: "const",
    _PARAM: "param",
    _INPUT: "input",
    _ADD: "add",
    _SUB: "sub",
    _MUL: "mul",
    _DIV: "div",
    _NEG: "neg",
    _EXP: "exp",
    _LOG: "log",
    _SQRT: "sqrt",
    _POWC: "pow-const",
    _MAX0: "max-with-zero",
}


class TapeError(Exception):
    """Base class for tape recording/replay failures."""


class UnsupportedPrimitiveError(TapeError):
    """A traced program used an operation outside the closed primitive set."""


class NonFiniteError(TapeError):
    """A replay produced a non-finite value; carries the offending node index."""

    def __init__(self, node_index: int, op_name: str):
        self.node_index = node_index
        self.op_name = op_name
        super().__init__(
            f"non-finite value at tape node {node_index} ({op_name})"
        )


@dataclass
class ReplayCounters:
    """Caller-owned evaluation counters.

    ``f_evals``/``r_evals`` count scalar-equivalent applications (one per
    active lane); ``f_batch_calls``/``r_batch_calls`` count whole batched
    replays regardless of width.
    """

    f_evals: int = 0
    r_evals: int = 0
    f_batch_calls: int = 0
    r_batch_calls: int = 0


@dataclass(frozen=True)
class AdjointSeed:
    """Output weights for a reverse sweep: one lambda per tape output."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if not np.all(np.isfinite(lam)):
            raise ValueError("adjoint seed entries must be finite")
        object.__setattr__(self, "lambdas", lam)


class TraceVar:
    """Symbolic handle used while recording a program. Not for user storage."""

    __slots__ = ("builder", "index")

    def __init__(self, builder: "_Builder", index: int):
        self.builder = builder
        self.index = index

    def _lift(self, other):
        if isinstance(other, TraceVar):
            if other.builder is not self.builder:
                raise TapeError("cannot mix variables from different recordings")
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return self.builder.const(float(other))
        raise UnsupportedPrimitiveError(
            f"cannot trace operand of type {type(other).__name__}"
        )

    def __add__(self, other):
        o = self._lift(other)
        return self.builder.emit(_ADD, self.index, o.index)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return self.builder.emit(_SUB, self.index, o.index)

    def __rsub__(self, other):
        o = self._lift(other)
        return self.builder.emit(_SUB, o.index, self.index)

    def __mul__(self, other):
        o = self._lift(other)
        return self.builder.emit(_MUL, self.index, o.index)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self.builder.emit(_DIV, self.index, o.index)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return self.builder.emit(_DIV, o.index, self.index)

    def __neg__(self):
        return self.builder.emit(_NEG, self.index)

    def __pow__(self, exponent):
        if isinstance(exponent, TraceVar):
            raise UnsupportedPrimitiveError(
                "pow with a traced exponent is not a supported primitive"
            )
        return self.builder.emit(_POWC, self.index, const=float(exponent))

    def __bool__(self):
        raise UnsupportedPrimitiveError(
            "branching on a traced value is not supported; "
            "express selections with max0"
        )

    def __float__(self):
        raise UnsupportedPrimitiveError(
            "a traced value has no concrete float value during recording"
        )


def exp(x: TraceVar) -> TraceVar:
    return x.builder.emit(_EXP, x.index)


def log(x: TraceVar) -> TraceVar:
    return x.builder.emit(_LOG, x.index)


def sqrt(x: TraceVar) -> TraceVar:
    return x.builder.emit(_SQRT, x.index)


def max0(x: TraceVar) -> TraceVar:
    """Positive part, max(x, 0). Derivative at exactly 0 is defined as 0."""
    return x.builder.emit(_MAX0, x.index)


class _Builder:
    def __init__(self):
        self.ops: list[tuple[int, int, int, float]] = []
        self._const_cache: dict[float, TraceVar] = {}

    def emit(self, op: int, a1: int = -1, a2: int = -1, const: float = 0.0) -> TraceVar:
        self.ops.append((op, a1, a2, const))
        return TraceVar(self, len(self.ops) - 1)

    def const(self, value: float) -> TraceVar:
        v = self._const_cache.get(value)
        if v is None:
            v = self.emit(_CONST, const=value)
            self._const_cache[value] = v
        return v


class Tape:
    """Immutable recorded program with parameter, input and output slots.

    Replays never mutate the tape; every replay writes into a caller-owned
    (or freshly allocated) value buffer of shape ``(n_nodes, n_lanes)``,
    so concurrent replays of one tape are safe.
    """

    def __init__(self, ops, param_slots, input_slots, output_slots):
        self._prog = tuple(ops)
        self.param_slots = np.asarray(param_slots, dtype=np.intp)
        self.input_slots = np.asarray(input_slots, dtype=np.intp)
        self.output_slots = np.asarray(output_slots, dtype=np.intp)
        self._validate()

    # -- structure ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._prog)

    @property
    def n_params(self) -> int:
        return len(self.param_slots)

    @property
    def n_inputs(self) -> int:
        return len(self.input_slots)

    @property
    def n_outputs(self) -> int:
        return len(self.output_slots)

    def op_name(self, index: int) -> str:
        return _OP_NAMES[self._prog[index][0]]

    def _validate(self):
        for idx, (op, a1, a2, _) in enumerate(self._prog):
            if op not in _OP_NAMES:
                raise UnsupportedPrimitiveError(f"unknown opcode {op}")
            if op in _BINARY:
                args = (a1, a2)
            elif op in (_NEG, _EXP, _LOG, _SQRT, _POWC, _MAX0):
                args = (a1,)
            else:
                args = ()
            for a in args:
                if not 0 <= a < idx:
                    raise TapeError(
                        f"node {idx} reads node {a}: tape is not topological"
                    )
        slots = [*self.param_slots, *self.input_slots, *self.output_slots]
        if len(set(slots)) != len(slots):
            raise TapeError("param/input/output slots must be distinct")

    # -- replay engine ------------------------------------------------------

    def alloc_buffer(self, n_lanes: int) -> np.ndarray:
        """Allocate a value buffer: one lane group per tape node."""
        return np.empty((self.n_nodes, n_lanes), dtype=np.float64)

    def _check_params(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got shape {params.shape}"
            )
        return params

    def replay_forward(self, params, inputs, *, buffer=None, counters=None,
                       check_finite=True) -> tuple[np.ndarray, np.ndarray]:
        """Forward replay over an arbitrary block of input rows.

        ``inputs`` has shape (n_lanes, n_inputs).  Returns ``(outputs,
        buffer)`` with outputs of shape (n_lanes, n_outputs).  The filled
        buffer can be fed to :meth:`replay_reverse` to avoid recomputing
        the forward pass.
        """
        params = self._check_params(params)
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected input block of shape (lanes, {self.n_inputs}), "
                f"got {inputs.shape}"
            )
        n_lanes = inputs.shape[0]
        if buffer is None:
            buffer = self.alloc_buffer(n_lanes)
        elif buffer.shape != (self.n_nodes, n_lanes):
            raise ValueError("buffer shape does not match tape/lanes")

        w = inputs.T  # (n_inputs, lanes) view; column slices below are rows
        # non-finite values are detected explicitly below; keep IEEE quiet
        with np.errstate(all="ignore"):
            self._forward_sweep(buffer, params, w)
        outputs = buffer[self.output_slots].T.copy()
        if check_finite and not np.all(np.isfinite(outputs)):
            self._raise_non_finite(buffer)
        if counters is not None:
            counters.f_evals += n_lanes
            counters.f_batch_calls += 1
        return outputs, buffer

    def _forward_sweep(self, buffer, params, w):
        for idx, (op, a1, a2, cv) in enumerate(self._prog):
            out = buffer[idx]
            if op == _MUL:
                np.multiply(buffer[a1], buffer[a2], out=out)
            elif op == _ADD:
                np.add(buffer[a1], buffer[a2], out=out)
            elif op == _SUB:
                np.subtract(buffer[a1], buffer[a2], out=out)
            elif op == _DIV:
                np.divide(buffer[a1], buffer[a2], out=out)
            elif op == _EXP:
                np.exp(buffer[a1], out=out)
            elif op == _MAX0:
                np.maximum(buffer[a1], 0.0, out=out)
            elif op == _CONST:
                out[:] = cv
            elif op == _PARAM:
                out[:] = params[a1]
            elif op == _INPUT:
                out[:] = w[a1]
            elif op == _NEG:
                np.negative(buffer[a1], out=out)
            elif op == _LOG:
                np.log(buffer[a1], out=out)
            elif op == _SQRT:
                np.sqrt(buffer[a1], out=out)
            elif op == _POWC:
                np.power(buffer[a1], cv, out=out)

    def _raise_non_finite(self, buffer):
        bad = ~np.isfinite(buffer).all(axis=1)
        node = int(np.argmax(bad))
        raise NonFiniteError(node, _OP_NAMES[self._prog[node][0]])

    def replay_reverse(self, buffer, seeds, *, counters=None) -> np.ndarray:
        """Reverse sweep from a filled forward buffer.

        ``seeds`` has shape (n_lanes, n_outputs): one output-weight vector
        per lane.  Returns per-lane parameter adjoints of shape
        (n_lanes, n_params): row j holds sum_i seeds[j, i] * dy_i/dparam.
        A non-finite parameter adjoint raises :class:`NonFiniteError` naming
        the first node, in sweep order, whose step wrote a non-finite
        adjoint.
        """
        n_lanes = buffer.shape[1]
        seeds = np.asarray(seeds, dtype=np.float64)
        if seeds.shape != (n_lanes, self.n_outputs):
            raise ValueError(
                f"expected seeds of shape ({n_lanes}, {self.n_outputs}), "
                f"got {seeds.shape}"
            )
        adj = self._reverse_sweep(buffer, seeds)
        grads = adj[self.param_slots].T.copy()
        if not np.all(np.isfinite(grads)):
            self._reverse_sweep(buffer, seeds, locate=True)
        if counters is not None:
            counters.r_evals += n_lanes
            counters.r_batch_calls += 1
        return grads

    def _reverse_sweep(self, buffer, seeds, locate=False) -> np.ndarray:
        """Node adjoints of shape (n_nodes, n_lanes); with ``locate``, raise
        at the first node whose step writes a non-finite adjoint."""
        adj = np.zeros((self.n_nodes, buffer.shape[1]), dtype=np.float64)
        adj[self.output_slots] = seeds.T  # output slots are distinct
        prog = self._prog
        # non-finite parameter adjoints are detected by the caller
        with np.errstate(all="ignore"):
            for idx in range(self.n_nodes - 1, -1, -1):
                op, a1, a2, cv = prog[idx]
                if op <= _INPUT:  # leaves
                    continue
                g = adj[idx]
                if op == _MUL:
                    adj[a1] += g * buffer[a2]
                    adj[a2] += g * buffer[a1]
                elif op == _ADD:
                    adj[a1] += g
                    adj[a2] += g
                elif op == _SUB:
                    adj[a1] += g
                    adj[a2] -= g
                elif op == _EXP:
                    adj[a1] += g * buffer[idx]
                elif op == _MAX0:
                    adj[a1] += g * (buffer[a1] > 0.0)
                elif op == _DIV:
                    gb = g / buffer[a2]
                    adj[a1] += gb
                    adj[a2] -= gb * buffer[idx]
                elif op == _NEG:
                    adj[a1] -= g
                elif op == _LOG:
                    adj[a1] += g / buffer[a1]
                elif op == _SQRT:
                    adj[a1] += 0.5 * g / buffer[idx]
                elif op == _POWC:
                    adj[a1] += g * cv * buffer[a1] ** (cv - 1.0)
                if locate and not (np.isfinite(adj[a1]).all() and (
                        op not in _BINARY or np.isfinite(adj[a2]).all())):
                    raise NonFiniteError(idx, _OP_NAMES[op])
        return adj

    # -- public single-set API ----------------------------------------------

    def forward(self, params, inputs, *, counters=None) -> np.ndarray:
        """Evaluate the recorded program on one input set. Pure."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.n_inputs,):
            raise ValueError(
                f"expected {self.n_inputs} inputs, got shape {inputs.shape}"
            )
        outputs, buffer = self.replay_forward(
            params, inputs[None, :], counters=counters, check_finite=False
        )
        # one-lane replay is cheap enough to locate any bad node exactly
        if not np.all(np.isfinite(buffer)):
            self._raise_non_finite(buffer)
        return outputs[0]

    def reverse(self, params, inputs, seed, *, forward_buffer=None,
                counters=None) -> np.ndarray:
        """Weighted adjoints of one input set w.r.t. all parameters.

        Runs a forward replay internally unless ``forward_buffer`` (from a
        previous :meth:`replay_forward` on the same values) is supplied.
        """
        lam = seed.lambdas if isinstance(seed, AdjointSeed) else np.asarray(seed, dtype=np.float64)
        if lam.shape != (self.n_outputs,):
            raise ValueError(
                f"expected {self.n_outputs} seed weights, got shape {lam.shape}"
            )
        if not np.all(np.isfinite(lam)):
            raise ValueError("adjoint seed entries must be finite")
        if forward_buffer is None:
            inputs = np.asarray(inputs, dtype=np.float64)
            if inputs.shape != (self.n_inputs,):
                raise ValueError(
                    f"expected {self.n_inputs} inputs, got shape {inputs.shape}"
                )
            _, forward_buffer = self.replay_forward(
                params, inputs[None, :], counters=counters
            )
        return self.replay_reverse(forward_buffer, lam[None, :], counters=counters)[0]

def record(program, n_params: int, n_inputs: int) -> Tape:
    """Trace ``program`` once and return the recorded tape.

    ``program(params, inputs)`` receives lists of trace variables and must
    return one variable or a sequence of them (the outputs).  Only the
    closed primitive set (+, -, *, /, neg, exp, log, sqrt, pow-by-constant,
    max0, constants) may be used; anything else raises
    :class:`UnsupportedPrimitiveError`.
    """
    if n_params < 0 or n_inputs < 0:
        raise ValueError("n_params and n_inputs must be non-negative")
    builder = _Builder()
    params = [builder.emit(_PARAM, k) for k in range(n_params)]
    inputs = [builder.emit(_INPUT, k) for k in range(n_inputs)]
    result = program(params, inputs)
    if isinstance(result, TraceVar):
        result = [result]
    result = list(result)
    if not result:
        raise ValueError("program must produce at least one output")
    out_slots = []
    n_leaves = n_params + n_inputs
    for var in result:
        if not isinstance(var, TraceVar) or var.builder is not builder:
            raise TapeError("program outputs must be trace variables of this recording")
        idx = var.index
        if idx < n_leaves or builder.ops[idx][0] == _CONST or idx in out_slots:
            # keep every slot distinct: pass leaves, constants and repeated
            # outputs through an exact identity
            one = builder.const(1.0)
            idx = builder.emit(_MUL, idx, one.index).index
        out_slots.append(idx)
    return Tape(builder.ops, list(range(n_params)),
                list(range(n_params, n_leaves)), out_slots)
