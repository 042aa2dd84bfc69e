"""Reference serial generation of the draw matrix.

The whole-matrix fill that ``mcadjoint.rng_paths`` replaced with chunks
written in place on a thread pool: every raw word of the matrix in
one array, then one conversion of that array to normals, on the caller's
thread.  Tests compare the chunked draws against it byte for byte.
"""

import numpy as np
from numpy.random import PCG64, Philox
from scipy.special import ndtri

# raw 64-bit words produced per advance(1) step of each bit generator
_GENERATORS = {
    "philox": (Philox, 4),
    "pcg64": (PCG64, 1),
}


def raw_words(seed, generator_id, start, count):
    """Raw 64-bit words [start, start+count) of the keyed counter stream."""
    cls, words_per_step = _GENERATORS[generator_id]
    bg = cls(seed)
    bg.advance(start // words_per_step)
    skip = start % words_per_step
    return bg.random_raw(count + skip)[skip:]


def normals_from_words(words):
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u)


def generate(seed, n_paths, n_inputs, generator_id="philox"):
    """The full n_paths x n_inputs draw matrix."""
    words = raw_words(seed, generator_id, 0, n_paths * n_inputs)
    return normals_from_words(words).reshape(n_paths, n_inputs)
