"""Record-once / replay-many reverse-mode AD tape.

A forward program is traced once into a flat list of primitive operations
(topological order by construction).  The tape can then be replayed on new
parameter/input values, either one input set at a time or as a batch of
independent input sets ("lanes"), and swept backwards with an arbitrary
output-weight vector to obtain weighted adjoints with respect to the
parameter slots.

Each tape is compiled once, when it is built, into static schedules
(activity analysis):

* nodes that do not depend on an input (lane-invariant) are evaluated once
  per distinct parameter vector as a one-lane replay and cached; the
  forward schedule sweeps only the lane-dependent nodes and reads
  invariant operands as scalars;
* nodes that reach no output are dropped;
* the reverse schedule forms adjoints only for active nodes (those that
  depend on a parameter and reach an output) as write-once symbols: a
  first contribution is the adjoint itself, never a sum onto zeros or a
  copy;
* one placement pass over the forward and the reverse gives every value
  and adjoint a row of one buffer: the values the reverse reads, the
  parameter adjoints, the seeds and the outputs keep theirs, and any other
  row is reused once no later step reads it, in place where an operand
  dies.  A replay holds no state beyond that buffer.

The replay engine operates on numpy arrays of shape ``(n_lanes,)`` per tape
node, so a scalar replay (``Tape.forward``/``Tape.reverse``) is a one-lane
block replay through the same schedules.  Elementwise ufuncs in numpy are
lane-deterministic, which is what makes batch and scalar replay, and a
scalar read of a hoisted invariant, bit-identical lane by lane.

Non-finite values follow one contract at every replay width, one lane
included.  A forward replay raises :class:`NonFiniteError` when an output is
non-finite, naming the first node with a non-finite value; an intermediate
that an output masks (``max0(-inf)`` is 0) is not an error.  A reverse sweep
whose parameter adjoints are non-finite raises ``ValueError`` when a seed it
reads is non-finite, and otherwise :class:`NonFiniteError` naming the node
whose step first wrote a non-finite adjoint.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tape",
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
_UNARY = (_NEG, _EXP, _LOG, _SQRT, _POWC, _MAX0)

_UFUNCS = {
    _ADD: np.add,
    _SUB: np.subtract,
    _MUL: np.multiply,
    _DIV: np.divide,
    _NEG: np.negative,
    _EXP: np.exp,
    _LOG: np.log,
    _SQRT: np.sqrt,
    _POWC: np.power,
    _MAX0: np.maximum,
}

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
    """Caller-owned evaluation counters: scalar-equivalent forward and
    reverse applications, one per lane of each replay."""

    f_evals: int = 0
    r_evals: int = 0


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


def _operands(op: int, a1: int, a2: int) -> tuple:
    if op in _BINARY:
        return (a1, a2)
    if op in _UNARY:
        return (a1,)
    return ()


def _power(x, e, out):
    """``x ** e`` through the ndarray operator, as the reverse step reads it."""
    np.copyto(out, x ** float(e))


def _run(steps, rows) -> None:
    """Execute a compiled schedule: each step is ``f(rows[x], rows[y],
    out=rows[z])`` (``y`` is None for a unary step).  ``rows`` holds lane
    rows from the front and scalars from the back (negative indices)."""
    for f, x, y, z in steps:
        if y is None:
            f(rows[x], out=rows[z])
        else:
            f(rows[x], rows[y], out=rows[z])


def _index(seq):
    """A slice when ``seq`` is a consecutive ascending run, else an array."""
    seq = list(seq)
    start = seq[0] if seq else 0
    if seq == list(range(start, start + len(seq))):
        return slice(start, start + len(seq))
    return np.asarray(seq, dtype=np.intp)


def _place(steps, first, keep, last):
    """``(row, n_rows)``: ``row`` maps each symbol of a write-once schedule
    to a row, placed in one linear scan.

    Step ``(f, x, y, z)`` reads symbols ``x`` and ``y`` and writes ``z``;
    negative operands (scalars) and None are not placed.  The symbols
    ``first`` hold values before step 0 and take rows 0, 1, ...; the
    symbols ``last`` take the final rows, in order, and keep them.  Any
    other row is free once no later step reads its symbol, unless the
    symbol is in ``keep``.  A step whose operand dies there takes that
    operand's row: in place.
    """
    end = {s: i for i, (_, x, y, _) in enumerate(steps) for s in (x, y)}
    end.update(dict.fromkeys(keep, len(steps)))
    row = {s: r for r, s in enumerate(first)}
    fixed = set(last)
    free, top = [], len(first)
    for i, (_, x, y, z) in enumerate(steps):
        # the rows of operands that die here go on top, the first one last
        free += [row[s] for s in dict.fromkeys((y, x))
                 if s in row and end[s] == i]
        if z in fixed:
            continue
        if not free:
            free, top = [top], top + 1
        row[z] = free.pop()
    row.update((s, top + k) for k, s in enumerate(last))
    return row, top + len(last)


class Tape:
    """Immutable recorded program with parameter, input and output slots.

    Construction compiles the program (see the module docstring).  Replays
    write into a caller-owned (or freshly allocated) buffer that holds the
    forward values and the adjoints (:meth:`alloc_buffer`), lanes on axis
    1.  The only state a replay touches is a one-entry cache of the
    lane-invariant values, keyed by the parameter bytes and checked on
    every use, so a replay depends only on its arguments.  Concurrent
    replays of one tape are safe with the same or with different
    parameters.
    """

    def __init__(self, ops, param_slots, input_slots, output_slots):
        self._prog = tuple(ops)
        self.param_slots = np.asarray(param_slots, dtype=np.intp)
        self.input_slots = np.asarray(input_slots, dtype=np.intp)
        self.output_slots = np.asarray(output_slots, dtype=np.intp)
        self._validate()
        self._compile()
        self._cache = (None, None, None)
        self._bound = (None, None, None)

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
            for a in _operands(op, a1, a2):
                if not 0 <= a < idx:
                    raise TapeError(
                        f"node {idx} reads node {a}: tape is not topological"
                    )
        slots = [*self.param_slots, *self.input_slots, *self.output_slots]
        if len(set(slots)) != len(slots):
            raise TapeError("param/input/output slots must be distinct")
        if not all(0 <= s < self.n_nodes for s in slots):
            raise TapeError("param/input/output slots must be tape nodes")
        for kind, leaf, leaf_slots in (("param", _PARAM, self.param_slots),
                                       ("input", _INPUT, self.input_slots)):
            for k, s in enumerate(leaf_slots):
                if self._prog[s][:2] != (leaf, k):
                    raise TapeError(f"{kind} slot {k} must be a {kind} node "
                                    f"reading {kind} {k}")

    # -- compilation ----------------------------------------------------------

    def _compile(self):
        """Build the static forward and reverse schedules.

        A node is lane-dependent when it reads an input, live when it
        reaches an output, and active when it is live and depends on a
        parameter.  Live invariant nodes are evaluated per parameter vector
        by the one-lane schedule ``_inv_steps``; live lane-dependent nodes
        get buffer rows and forward steps; active nodes get adjoints in the
        reverse schedule.
        """
        prog = self._prog
        n = len(prog)
        args = [_operands(op, a1, a2) for op, a1, a2, _ in prog]
        lane = [op == _INPUT for op, *_ in prog]
        pdep = [op == _PARAM for op, *_ in prog]
        for idx, operands in enumerate(args):
            if operands:
                lane[idx] = any(lane[a] for a in operands)
                pdep[idx] = any(pdep[a] for a in operands)
        live = [False] * n
        for s in self.output_slots:
            live[s] = True
        for idx in range(n - 1, -1, -1):
            if live[idx]:
                for a in args[idx]:
                    live[a] = True
        active = [lv and pd for lv, pd in zip(live, pdep)]

        # scalars, read from the back of a replay's row list: the invariant
        # values, then the constants the steps use
        consts, const_at = [], {}
        for v in (0.0, 0.5, *(c for op, _, _, cv in prog if op == _POWC
                              for c in (cv, cv - 1.0))):
            if np.float64(v).tobytes() not in const_at:
                const_at[np.float64(v).tobytes()] = len(consts)
                consts.append(np.array(v, dtype=np.float64))
        inv_nodes = [i for i in range(n) if live[i] and not lane[i]]
        inv_at = {node: i for i, node in enumerate(inv_nodes)}
        n_scalars = len(inv_nodes) + len(consts)

        def const(v):
            return const_at[np.float64(v).tobytes()] - len(consts)

        def val(node):
            return node if lane[node] else inv_at[node] - n_scalars

        def forward_step(idx, ref, out):
            op, a1, a2, cv = prog[idx]
            if op in _BINARY:
                y = ref(a2)
            elif op == _POWC:
                y = const(cv)
            elif op == _MAX0:
                y = const(0.0)
            else:
                y = None
            return (_UFUNCS[op], ref(a1), y, out)

        inv_init = np.full(len(inv_nodes), np.nan)
        inv_params, inv_steps = [], []
        for i, node in enumerate(inv_nodes):
            op, a1, _, cv = prog[node]
            if op == _CONST:
                inv_init[i] = cv
            elif op == _PARAM:
                inv_params.append((i, a1))
            else:
                inv_steps.append(forward_step(node, inv_at.__getitem__, i))

        # the forward on node symbols: the live lane-dependent nodes, then
        # the invariant outputs broadcast into their rows
        outputs = self.output_slots.tolist()
        inputs = [i for i in range(n)
                  if live[i] and lane[i] and prog[i][0] == _INPUT]
        fwd = [forward_step(i, val, i) for i in range(n)
               if live[i] and lane[i] and prog[i][0] != _INPUT]
        fwd += [(np.positive, val(s), None, s) for s in outputs if not lane[s]]
        rev, groups, grads = self._compile_reverse(args, active, val, const, n)

        # one placement over the forward and the reverse.  The inputs take
        # the first rows, the seeds (symbols n, n + 1, ...) and then the
        # outputs the last ones; the forward values the reverse reads keep
        # theirs, so a reverse can be rerun, and so do the parameter
        # adjoints.  Every other row is shared.
        seeds = range(n, n + self.n_outputs)
        keep = {v for _, x, y, _ in rev for v in (x, y)
                if v is not None and 0 <= v < n}
        row, n_rows = _place(fwd + rev, inputs, [*keep, *grads],
                             [*seeds, *outputs])
        # renumber the shared rows so that the parameter adjoints end them
        # as one run, in parameter order: ``_index`` then makes the fold's
        # row map a slice, and the fold reads a view of the buffer instead
        # of gathering an (n_params, n_lanes) copy.  This holds on the model
        # tapes; where parameters share the zero adjoint, or an adjoint is a
        # seed, the map stays an index array.
        pool = n_rows - 2 * self.n_outputs
        tail = list(dict.fromkeys(row[s] for s in grads if row[s] < pool))
        order = [r for r in range(pool) if r not in tail] + tail
        moved = {old: new for new, old in enumerate(order)}
        row = {s: moved.get(r, r) for s, r in row.items()}

        def placed(steps):
            return tuple((f, row.get(x, x), row.get(y, y), row[z])
                         for f, x, y, z in steps)

        self._n_rows = n_rows
        self.seed_rows = slice(n_rows - 2 * self.n_outputs,
                               n_rows - self.n_outputs)
        self._out_rows = slice(n_rows - self.n_outputs, n_rows)
        self._in_dst = _index(row[i] for i in inputs)
        self._in_src = _index(prog[i][1] for i in inputs)
        self._in_nodes = np.asarray(inputs, dtype=np.intp)
        self._fwd = placed(fwd)
        self._consts = tuple(consts)
        self._inv_nodes = np.asarray(inv_nodes, dtype=np.intp)
        self._inv_init = inv_init
        self._inv_param_rows = _index(i for i, _ in inv_params)
        self._inv_param_idx = _index(k for _, k in inv_params)
        self._inv_steps = tuple(inv_steps)
        self._rev = placed(rev)
        self._rev_groups = tuple((end, idx, sorted({row[s] for s in syms}))
                                 for end, idx, syms in groups)
        self._fwd_groups = tuple((i + 1, z, [row[z]])
                                 for i, (*_, z) in enumerate(fwd))
        self._seed_cols = _index(k for k, s in enumerate(outputs) if active[s])
        self._grad_rows = _index(row[s] for s in grads)

    def _compile_reverse(self, args, active, val, const, n):
        """``(steps, groups, grads)``: the reverse schedule over the active
        nodes, on write-once adjoint symbols.

        Output ``k``'s seed is symbol ``n + k``, and each step writes a new
        symbol after the seeds: an operand's first contribution is its
        adjoint, through ``np.negative`` when subtracted; a later one is
        added or subtracted; an adjoint two operands start from is shared,
        not copied.  ``groups`` holds, per node swept, the step count after
        its steps, the node and the adjoint symbols they wrote; ``grads``
        the parameters' adjoint symbols.  ``val`` and ``const`` give the
        symbol of a node's value and of a constant.
        """
        prog = self._prog
        adj = {s: n + k for k, s in enumerate(self.output_slots)
               if active[s]}
        rev, groups = [], []

        def step(f, x, y=None):
            rev.append((f, x, y, n + self.n_outputs + len(rev)))
            return rev[-1][3]

        def scale_by(node):
            # g * 1.0 is g, bit for bit: skip the step
            if prog[node][0] == _CONST and prog[node][3] == 1.0:
                return []
            return [(np.multiply, val(node))]

        idle = [s for s in self.param_slots if not active[s]]
        if idle:  # parameters no output depends on share one zero
            adj.update(dict.fromkeys(idle, step(np.positive, const(0.0))))
        for idx in range(len(prog) - 1, -1, -1):
            op, a1, a2, cv = prog[idx]
            if not (active[idx] and args[idx]):
                continue
            g = adj.pop(idx)
            pre = []
            if op == _ADD:
                contribs = [(a1, [], 1), (a2, [], 1)]
            elif op == _SUB:
                contribs = [(a1, [], 1), (a2, [], -1)]
            elif op == _MUL:
                contribs = [(a1, scale_by(a2), 1), (a2, scale_by(a1), 1)]
            elif op == _DIV:
                pre = [(np.divide, val(a2))]
                contribs = [(a1, [], 1), (a2, [(np.multiply, val(idx))], -1)]
            elif op == _NEG:
                contribs = [(a1, [], -1)]
            elif op == _EXP:
                contribs = [(a1, [(np.multiply, val(idx))], 1)]
            elif op == _LOG:
                contribs = [(a1, [(np.divide, val(a1))], 1)]
            elif op == _SQRT:
                pre = [(np.multiply, const(0.5))]
                contribs = [(a1, [(np.divide, val(idx))], 1)]
            else:  # _POWC, _MAX0: g * factor(value of a1)
                if op == _POWC:
                    factor = step(_power, val(a1), const(cv - 1.0))
                    pre = [(np.multiply, const(cv))]
                else:  # max(x, 0) > 0 exactly when x > 0: read the
                    # value, which is an output row on a payoff tape
                    factor = step(np.greater, val(idx), const(0.0))
                contribs = [(a1, [(np.multiply, factor)], 1)]
            for f, v in pre:
                g = step(f, g, v)
            contribs = [c for c in contribs if active[c[0]]]
            for a, chain, sign in contribs:
                term = g
                for f, v in chain:
                    term = step(f, term, v)
                if a in adj:
                    adj[a] = step(np.add if sign > 0 else np.subtract,
                                  adj[a], term)
                else:
                    adj[a] = term if sign > 0 else step(np.negative, term)
            groups.append((len(rev), idx, [adj[c[0]] for c in contribs]))
        return rev, groups, [adj[s] for s in self.param_slots]

    def _invariants(self, params):
        """``(key, scalars, values)`` of the live lane-invariant nodes.

        One-lane replay of ``_inv_steps``, cached under the parameter
        bytes.  ``scalars`` is the tail of a replay's row list; ``values``
        follows ``_inv_nodes``.
        """
        key = params.tobytes()
        entry = self._cache
        if entry[0] != key:  # replays racing on a miss each store a whole entry
            vals = self._inv_init[:, None].copy()
            vals[self._inv_param_rows, 0] = params[self._inv_param_idx]
            with np.errstate(all="ignore"):
                _run(self._inv_steps, [*vals, *self._consts])
            inv = vals[:, 0]
            # 0-d arrays: a ufunc takes them faster than numpy scalars
            entry = (key, [*map(np.array, inv), *self._consts], inv)
            self._cache = entry
        return entry

    # -- replay engine ------------------------------------------------------

    def alloc_buffer(self, n_lanes: int) -> np.ndarray:
        """Allocate a value buffer of shape ``(n_rows, n_lanes)``.

        One buffer holds a replay's forward values and its adjoints.  Rows
        go only to the lane-dependent values the reverse sweep reads, the
        parameter adjoints, the seeds and the outputs; every other value
        shares rows that one placement pass reuses (27 rows per lane on the
        default fixture's 75 nodes, 1.8 MB at 8192 lanes).  The last ``n_outputs``
        rows are the outputs in order, filled also when the replay raises
        :class:`NonFiniteError`; the ``n_outputs`` rows before them,
        :attr:`seed_rows`, are where :meth:`replay_reverse` reads its
        seeds.  Parameters and lane-invariant values take no rows.
        """
        return np.empty((self._n_rows, n_lanes), dtype=np.float64)

    @contextmanager
    def bound(self, buffer):
        """Let replays into ``buffer`` share one list of row views.

        A replay addresses its buffer's rows and the invariant scalars
        through a list of row views.  Inside the ``with`` block, replays
        into this very array object build that list once per parameter
        vector instead of on every call.  Leaving the block drops it, so no
        buffer stays pinned by the tape.  One buffer is bound at a time; a
        replay into any other array builds its own list, so results never
        depend on the binding.
        """
        self._bound = (buffer, None, None)
        try:
            yield
        finally:
            self._bound = (None, None, None)

    def _rows(self, buffer, entry):
        """The row list of a replay into ``buffer`` with the invariants
        ``entry``: the buffer's rows, then the scalars; built once while
        ``buffer`` is bound, else per call."""
        bound = self._bound
        if bound[0] is buffer and bound[1] is entry:
            return bound[2]
        rows = [*buffer, *entry[1]]
        if bound[0] is buffer:
            self._bound = (buffer, entry, rows)
        return rows

    def _check_params(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got shape {params.shape}"
            )
        return params

    def replay_forward(self, params, inputs, *, buffer=None,
                       counters=None) -> tuple[np.ndarray, np.ndarray]:
        """Forward replay over an arbitrary block of input rows.

        ``inputs`` has shape (n_lanes, n_inputs).  Returns ``(outputs,
        buffer)``.  ``outputs`` has shape (n_lanes, n_outputs) and is a view
        of the buffer's last ``n_outputs`` rows, transposed, not a copy: the
        next forward replay into the same buffer overwrites it, and
        ``outputs.T`` is the lane-major (n_outputs, n_lanes) block of those
        rows; the reverse sweep may read them.  The filled buffer can be
        fed to :meth:`replay_reverse` to avoid recomputing the forward
        pass.  A non-finite output raises :class:`NonFiniteError` naming
        the first node, in tape order, with a non-finite value.
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
        elif buffer.shape != (self._n_rows, n_lanes):
            raise ValueError("buffer shape does not match tape/lanes")

        entry = self._invariants(params)
        rows = self._rows(buffer, entry)
        buffer[self._in_dst] = inputs.T[self._in_src]
        # non-finite values are detected explicitly below; keep IEEE quiet
        with np.errstate(all="ignore"):
            _run(self._fwd, rows)
        outputs = buffer[self._out_rows].T
        if not np.isfinite(outputs).all():
            # the inputs' rows may have been overwritten in place: reload
            # them and re-run the schedule, noting the first bad step
            buffer[self._in_dst] = inputs.T[self._in_src]
            bad_in = ~np.isfinite(inputs.T[self._in_src]).all(axis=1)
            bad = [*self._inv_nodes[~np.isfinite(entry[2])],
                   *self._in_nodes[bad_in]]
            node = self._locate(self._fwd, self._fwd_groups, rows)
            node = int(min(bad if node is None else [*bad, node]))
            raise NonFiniteError(node, _OP_NAMES[self._prog[node][0]])
        if counters is not None:
            counters.f_evals += n_lanes
        return outputs, buffer

    def replay_reverse(self, buffer, seeds, *, params, out=None,
                       counters=None) -> np.ndarray:
        """Reverse sweep from a filled forward buffer.

        ``seeds`` has shape (n_lanes, n_outputs): one output-weight vector
        per lane.  Any strides do; the transpose of a lane-major
        (n_outputs, n_lanes) array is read row by row without a copy, and
        seeds written into the buffer's own :attr:`seed_rows` are not
        copied at all.  ``params`` are the parameters of the forward replay
        that filled ``buffer``; no buffer row holds them.  Returns
        per-lane parameter adjoints of shape (n_lanes, n_params): row j
        holds sum_i seeds[j, i] * dy_i/dparam.  They are written into ``out`` when given (a float64
        array of that shape, returned), else into a new array.  The sweep
        writes only rows the forward values it reads do not hold, so it can
        be rerun on one forward buffer.  A non-finite parameter adjoint
        raises ``ValueError`` when a seed the sweep reads is non-finite,
        else :class:`NonFiniteError` naming the first node, in sweep order,
        whose step wrote a non-finite adjoint among the adjoints that reach
        a parameter (adjoints of constants, inputs and other parameter-free
        nodes are not formed).
        """
        if buffer.ndim != 2 or buffer.shape[0] != self._n_rows:
            raise ValueError(
                f"expected a buffer of shape ({self._n_rows}, lanes), "
                f"got shape {buffer.shape}"
            )
        n_lanes = buffer.shape[1]
        seeds = np.asarray(seeds, dtype=np.float64)
        if seeds.shape != (n_lanes, self.n_outputs):
            raise ValueError(
                f"expected seeds of shape ({n_lanes}, {self.n_outputs}), "
                f"got {seeds.shape}"
            )
        if out is None:
            out = np.empty((n_lanes, self.n_params), dtype=np.float64)
        elif out.shape != (n_lanes, self.n_params) or out.dtype != np.float64:
            raise ValueError(
                f"expected out of shape ({n_lanes}, {self.n_params}) and dtype "
                f"float64, got {out.shape} {out.dtype}"
            )
        if n_lanes:
            entry = self._invariants(self._check_params(params))
            rows = self._rows(buffer, entry)
            # numpy skips assigning an array onto itself: seeds the caller
            # wrote into the seed rows are not copied
            buffer[self.seed_rows] = seeds.T
            # non-finite parameter adjoints are detected below
            with np.errstate(all="ignore"):
                _run(self._rev, rows)
            # the first write of an adjoint is an assignment, which keeps a
            # -0.0 that accumulating onto +0.0 would not: fold it here
            np.add(buffer[self._grad_rows].T, 0.0, out=out)
            if not np.isfinite(out).all():
                if not np.isfinite(seeds.T[self._seed_cols]).all():
                    raise ValueError("adjoint seed entries must be finite")
                node = self._locate(self._rev, self._rev_groups, rows)
                if node is not None:
                    raise NonFiniteError(node, _OP_NAMES[self._prog[node][0]])
        if counters is not None:
            counters.r_evals += n_lanes
        return out

    @staticmethod
    def _locate(steps, groups, rows):
        """Re-run ``steps`` over ``rows`` group by group and return the node
        of the first group ``(end, node, written rows)`` that writes a
        non-finite value, or None.  Every row a step reads is written
        before it, or holds an input or a seed, so the rerun reproduces the
        sweep; it runs to the end, so the rows finish as the sweep left
        them."""
        first, start = None, 0
        with np.errstate(all="ignore"):
            for end, node, written in groups:
                _run(steps[start:end], rows)
                start = end
                if first is None and not all(np.isfinite(rows[r]).all()
                                             for r in written):
                    first = node
        return first

    # -- one input set: a one-lane replay ------------------------------------

    def _one_lane(self, values, n, what) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n,):
            raise ValueError(f"expected {n} {what}, got shape {values.shape}")
        return values[None, :]

    def forward(self, params, inputs) -> np.ndarray:
        """Evaluate the recorded program on one input set: a one-lane
        :meth:`replay_forward`. Pure."""
        inputs = self._one_lane(inputs, self.n_inputs, "inputs")
        return self.replay_forward(params, inputs)[0][0]

    def reverse(self, params, inputs, seed) -> np.ndarray:
        """Adjoints w.r.t. all parameters of one input set, weighted by
        ``seed`` (one weight per output): a one-lane :meth:`replay_reverse`."""
        seeds = self._one_lane(seed, self.n_outputs, "seed weights")
        inputs = self._one_lane(inputs, self.n_inputs, "inputs")
        return self.replay_reverse(self.replay_forward(params, inputs)[1],
                                   seeds, params=params)[0]


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
