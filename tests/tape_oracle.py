"""Reference interpreter for recorded tapes.

The node-by-node forward and reverse sweeps that ``mcadjoint.tape``
compiles into static schedules: every node gets a full row of values and
every node a full row of adjoints, zero-filled and accumulated.  Tests
compare the compiled replay against it byte for byte.

The one deliberate difference from a plain interpretation: nodes that reach
no output are skipped in the reverse sweep.  Their adjoint is zero, and
stepping them would only inject ``0 * inf`` artefacts from dead branches.
"""

import numpy as np

import mcadjoint.tape as tp


def operands(op, a1, a2):
    if op in (tp._ADD, tp._SUB, tp._MUL, tp._DIV):
        return (a1, a2)
    if op in (tp._CONST, tp._PARAM, tp._INPUT):
        return ()
    return (a1,)


def live_nodes(tape):
    """Nodes from which some output is reachable."""
    live = np.zeros(tape.n_nodes, dtype=bool)
    live[tape.output_slots] = True
    for idx in range(tape.n_nodes - 1, -1, -1):
        if live[idx]:
            live[list(operands(*tape._prog[idx][:3]))] = True
    return live


def param_dependent_nodes(tape):
    dep = np.zeros(tape.n_nodes, dtype=bool)
    for idx, (op, a1, a2, _) in enumerate(tape._prog):
        dep[idx] = op == tp._PARAM or any(dep[a] for a in operands(op, a1, a2))
    return dep


def forward(tape, params, inputs):
    """Full value buffer of shape (n_nodes, n_lanes)."""
    params = np.asarray(params, dtype=np.float64)
    w = np.asarray(inputs, dtype=np.float64).T
    buffer = np.empty((tape.n_nodes, w.shape[1]), dtype=np.float64)
    with np.errstate(all="ignore"):
        for idx, (op, a1, a2, cv) in enumerate(tape._prog):
            out = buffer[idx]
            if op == tp._MUL:
                np.multiply(buffer[a1], buffer[a2], out=out)
            elif op == tp._ADD:
                np.add(buffer[a1], buffer[a2], out=out)
            elif op == tp._SUB:
                np.subtract(buffer[a1], buffer[a2], out=out)
            elif op == tp._DIV:
                np.divide(buffer[a1], buffer[a2], out=out)
            elif op == tp._EXP:
                np.exp(buffer[a1], out=out)
            elif op == tp._MAX0:
                np.maximum(buffer[a1], 0.0, out=out)
            elif op == tp._CONST:
                out[:] = cv
            elif op == tp._PARAM:
                out[:] = params[a1]
            elif op == tp._INPUT:
                out[:] = w[a1]
            elif op == tp._NEG:
                np.negative(buffer[a1], out=out)
            elif op == tp._LOG:
                np.log(buffer[a1], out=out)
            elif op == tp._SQRT:
                np.sqrt(buffer[a1], out=out)
            elif op == tp._POWC:
                np.power(buffer[a1], cv, out=out)
    return buffer


def first_non_finite(tape, buffer):
    """First node, in tape order, that reaches an output and holds a
    non-finite value in some lane; None when there is none."""
    bad = ~np.isfinite(buffer).all(axis=1) & live_nodes(tape)
    return int(np.argmax(bad)) if bad.any() else None


def reverse(tape, buffer, seeds, locate=False):
    """Node adjoints of shape (n_nodes, n_lanes).

    With ``locate``, return the first node, in sweep order, whose step
    wrote a non-finite adjoint into a parameter-dependent node (None when
    there is none) instead.
    """
    adj = np.zeros((tape.n_nodes, buffer.shape[1]), dtype=np.float64)
    adj[tape.output_slots] = np.asarray(seeds, dtype=np.float64).T
    live = live_nodes(tape)
    dep = param_dependent_nodes(tape)
    with np.errstate(all="ignore"):
        for idx in range(tape.n_nodes - 1, -1, -1):
            op, a1, a2, cv = tape._prog[idx]
            if op <= tp._INPUT or not live[idx]:
                continue
            g = adj[idx]
            if op == tp._MUL:
                adj[a1] += g * buffer[a2]
                adj[a2] += g * buffer[a1]
            elif op == tp._ADD:
                adj[a1] += g
                adj[a2] += g
            elif op == tp._SUB:
                adj[a1] += g
                adj[a2] -= g
            elif op == tp._EXP:
                adj[a1] += g * buffer[idx]
            elif op == tp._MAX0:
                adj[a1] += g * (buffer[a1] > 0.0)
            elif op == tp._DIV:
                gb = g / buffer[a2]
                adj[a1] += gb
                adj[a2] -= gb * buffer[idx]
            elif op == tp._NEG:
                adj[a1] -= g
            elif op == tp._LOG:
                adj[a1] += g / buffer[a1]
            elif op == tp._SQRT:
                adj[a1] += 0.5 * g / buffer[idx]
            elif op == tp._POWC:
                adj[a1] += g * cv * buffer[a1] ** (cv - 1.0)
            if locate and not all(np.isfinite(adj[a]).all()
                                  for a in operands(op, a1, a2) if dep[a]):
                return idx
    return None if locate else adj
