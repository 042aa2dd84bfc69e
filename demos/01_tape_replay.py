"""Record a payoff program once, replay it anywhere, sweep it backwards.

The tape is the workhorse of the whole library: a forward program is
traced into a flat operation list, and the same recording serves replay
over blocks of input rows and weighted reverse sweeps.  Scalar evaluation
is a one-lane block replay.
"""

import numpy as np

import mcadjoint.tape as tp

# --- record -----------------------------------------------------------------
# A one-year call on a lognormal spot: parameters are (sigma, strike), the
# single random input is the standard normal driver w.

S0, T = 100.0, 1.0


def call_program(params, inputs):
    sig, strike = params
    w = inputs[0]
    z = sig * sig * (-0.5 * T) + sig * np.sqrt(T) * w
    return [tp.max0(S0 * tp.exp(z) - strike)]


tape = tp.record(call_program, n_params=2, n_inputs=1)
print(f"recorded {tape.n_nodes} nodes; "
      f"M={tape.n_params} params, N={tape.n_inputs} inputs, m={tape.n_outputs} outputs")

# --- forward replay ----------------------------------------------------------
params = np.array([0.2, 95.0])
print("payoff at w=0.0:", tape.forward(params, [0.0]))
print("payoff at w=1.5:", tape.forward(params, [1.5]))

# --- reverse sweep -----------------------------------------------------------
# One sweep returns d(payoff)/d(sigma) and d(payoff)/d(strike) together.
grad = tape.reverse(params, [1.5], [1.0])
print("adjoints (vega, dK) at w=1.5:", grad)

# check against a central finite difference in sigma
h = 1e-6
up = tape.forward([0.2 + h, 95.0], [1.5])[0]
dn = tape.forward([0.2 - h, 95.0], [1.5])[0]
print(f"finite-difference vega:        [{(up - dn) / (2 * h):.10f}]")

# --- block replay ------------------------------------------------------------
# Eight independent draws, one per row, go through one replay; every lane
# is bit-identical to the scalar replay of that row, forward and reverse.
block = np.random.default_rng(1).standard_normal((8, 1))
outputs, buffer = tape.replay_forward(params, block)
scalar = np.array([tape.forward(params, row) for row in block])
print("block == scalar, lane by lane:", bool((outputs == scalar).all()))
# the buffer holds the values that depend on the draw and the adjoints,
# in rows that one placement pass shares; nodes of sigma and strike alone
# are evaluated once, off the buffer, so the reverse is told the params
print(f"buffer: {buffer.shape[0]} rows for {tape.n_nodes} tape nodes, "
      f"{buffer.shape[1]} lanes")
adjoints = tape.replay_reverse(buffer, np.ones((8, 1)), params=params)
scalar = np.array([tape.reverse(params, row, [1.0]) for row in block])
print("reverse block == scalar, lane by lane:", bool((adjoints == scalar).all()))

counters = tp.ReplayCounters()
tape.replay_forward(params, block, counters=counters)
print(f"one block replay counted as {counters.f_evals} scalar-equivalent "
      "forwards")
