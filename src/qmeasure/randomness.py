"""Reproducible random streams and random test objects.

All randomness flows through numpy's PCG64 bit generator. A consumer never
shares a stream with another consumer: substream(seed, *tags) derives an
independent generator from SeedSequence([seed, *tags]), so results are a
pure function of the master seed and the tags, independent of evaluation
order, and bit-stable across platforms. A stack of random cases draws all
the normals of each case from its stream in one call: the same variates, in
the same order, that rand_state and the standard_normal calls of a Ginibre
matrix draw one object at a time, so each case has the same bits alone or
in a stack.

The streams of at least _VECTOR_SEEDING_CASES (10) cases that differ only
in their trailing tags, each one 32-bit word (substreams), build no
SeedSequence per case. One vectorized pass derives the PCG64 state of
every case's stream: it reimplements numpy's documented SeedSequence
entropy mixing and generate_state, and PCG64's seeding from that state.
Each state is then set on one reused PCG64. This ties the package to those two numpy algorithms;
tests/test_randomness.py holds the pass equal to substream, and the golden
files pin the draws.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .errors import ValidationError
from .linalg import readonly, row_norms


def check_seed(seed: int) -> None:
    """The one range check of a master seed, a document's or a command
    line's: an unsigned 64-bit word."""
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits, in [0, 2^64)")


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent PCG64 generator for (seed, tags)."""
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def rand_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex vector, Haar-uniform on the unit sphere."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a Ginibre matrix or a stack (..., d, d)
    of them: QR, with each column's phase fixed by the diagonal of R. One
    stacked QR gives every slice the bits of its own."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


# numpy's SeedSequence with its default pool of 4 uint32 words
# (numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
# (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# smallest stack whose streams are seeded in one pass rather than through
# substream: the pass has a fixed cost of about 0.13 ms and saves about 15 us
# a case, and the two paths broke even at 8 cases for dim 2 and 6 and at 10
# for dim 16 (in-process timeit, min of 7 x 50 calls, 2-core x86-64, numpy
# 2.4, one BLAS thread)
_VECTOR_SEEDING_CASES = 10


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads an entropy integer as."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of count successive hash calls, and after
    the last, as a read-only column: init, init * mult, ... mod 2^32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return readonly(np.array(consts, dtype=np.uint32)[:, None])


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of values, row j with the hash
    constant before and after its call, consts[j] and consts[j + 1]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of y into x, mod 2^32 like every uint32 product."""
    values = _MIX_L * x - _MIX_R * y
    return values ^ values >> 16


def _case_words(cases) -> np.ndarray | None:
    """The trailing tags of each case as an (n, m) uint32 array, one row per
    case: a case is one tag or a tuple of m tags. None when some tag is not
    a single 32-bit word, which the one-pass seeding does not take."""
    if isinstance(cases, range):
        ends = (cases[0], cases[-1]) if cases else (0, 0)
        if not 0 <= min(ends) <= max(ends) <= _MASK32:
            return None
        return np.arange(cases.start, cases.stop, cases.step, dtype=np.uint32)[:, None]
    # a word past int64 makes a float or object array, which is no 32-bit word
    words = np.asarray(cases)
    if words.dtype.kind not in "iu" or not 0 <= words.min() <= words.max() <= _MASK32:
        return None
    return words.astype(np.uint32).reshape(len(words), -1)


def _pcg64_states(seed: int, tags: tuple[int, ...], words: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of substream(seed, *tags, *key) for each case,
    its key the row of 32-bit words (_case_words) that ends its tags, in one
    vectorized pass over the cases: SeedSequence's pool mixing of the
    entropy words, its generate_state(4, uint64), and PCG64's srandom_r
    seeding, as numpy documents and implements them."""
    check_seed(seed)
    prefix = [w for key in (seed, *tags) for w in _words(int(key))]
    n = len(words)
    entropy = np.empty((len(prefix) + words.shape[1], n), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix) :] = words.T
    n_words = max(len(entropy), _POOL)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * n_words)
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, consts[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [j for j in range(_POOL) if j != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, consts[k : k + _POOL + 1]))
        k += _POOL
    # generate_state(4, np.uint64): 8 words cycling the pool, read as
    # little-endian pairs
    out = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    seeds = out.T.astype("<u4", order="C").view("<u8").tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds:
        # pcg_setseq_128_srandom_r: inc from the sequence, two LCG steps from 0
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((inc + (s_hi << 64 | s_lo)) & _MASK128) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def substreams(seed: int, tags: tuple[int, ...], cases) -> Iterator[np.random.Generator]:
    """substream(seed, *tags, *key) for each case of cases, in turn: a range
    of last tags, a sequence of equal-length tuples of trailing tags, or an
    (n, m) integer array of them, one row per case. From
    _VECTOR_SEEDING_CASES cases on, when every trailing tag is one 32-bit
    word, one generator is reset to each case's state from one pass, so each
    is valid only until the next is taken."""
    words = _case_words(cases) if len(cases) >= _VECTOR_SEEDING_CASES else None
    if words is None:
        for key in cases:
            yield substream(seed, *tags, *np.ravel(key).tolist())
        return
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state, inc in _pcg64_states(seed, tags, words):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def draw_cases(
    dim: int, n: int, streams: Iterator[np.random.Generator], state_first: bool
) -> tuple[np.ndarray, np.ndarray]:
    """A Haar state and a Haar unitary from each of the next n generators of
    streams (substreams), in order: the (n, dim) states and the (n, dim,
    dim) unitaries of the n cases. Each stream gives all 2 dim + 2 dim^2
    normals of its case in one standard_normal call, the state's before the
    Ginibre matrix's when state_first, else after them; a single call draws
    the same variates as rand_state and a dim x dim Ginibre matrix's two
    standard_normal calls in that order. The states are normalized with the
    bits of np.linalg.norm, and the Ginibre matrices go through one stacked
    QR. Streams past the n-th are left untaken, so several calls can share
    one pass of seeding."""
    n_state, n_ginibre = 2 * dim, 2 * dim * dim
    x = np.empty((n, n_state + n_ginibre))
    for row, rng in zip(x, streams):
        rng.standard_normal(out=row)
    if state_first:
        v, z = x[:, :n_state], x[:, n_state:]
    else:
        z, v = x[:, :n_ginibre], x[:, n_ginibre:]
    states = v[:, :dim] + 1j * v[:, dim:]
    states /= row_norms(states)[:, None]
    ginibres = (z[:, : dim * dim] + 1j * z[:, dim * dim :]) / np.sqrt(2)
    return states, haar_unitaries(ginibres.reshape(-1, dim, dim))


def rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2
