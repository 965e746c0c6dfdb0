"""Seeded draws: the random streams of a chunk of trials, seeded in one pass,
the Hilbert-Schmidt states of the Ginibre matrices drawn from them, and the
search's perturbations, drawn and diagonalized a window of blocks at a time.

A trial's stream is np.random.default_rng((seed, trial id)): a PCG64 bit
generator seeded by numpy's SeedSequence from the entropy words of the pair.
`pcg64_states` runs SeedSequence for every id of a chunk at once, on uint32
arrays, then PCG64's seeding on Python ints. `streams` reseeds one generator
in place to each of those states, in a chunk of any size, so every bit
drawn is the one default_rng((seed, trial id)) gives. numpy's own
SeedSequence per trial, with the same reseeding, costs more than
default_rng (23 against 20 us a trial on a shared x86-64 Xeon):
bench/run.py verify-small ran 6855 items/s with it against 7495 with the
one pass (medians of 10 alternated pairs).
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import _Batch, _sampled
from .errors import Fault, InputError

# SeedSequence (a pool of four 32-bit words): the initial constant and
# multiplier of hashmix and of generate_state's output hash, and mix's two
# multipliers; then PCG64's multiplier.
_HASHMIX = (0x43B0D7E5, 0x931E8875)
_OUTPUT_HASH = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1
_SHIFT = np.uint32(16)


@functools.cache
def _steps(h: int, mult: int, count: int) -> np.ndarray:
    """The running constant h mult^i (mod 2^32) of a SeedSequence hash for
    i = 0..count, as a uint32 column (count + 1, 1): hash step i XORs with
    row i and multiplies by row i + 1."""
    steps = [h]
    for _ in range(count):
        h = h * mult & _M32
        steps.append(h)
    column = np.array(steps, np.uint32)[:, None]
    column.setflags(write=False)  # one cached array, shared by every call
    return column


def _hash(v: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 arrays, broadcast against constant
    columns: v XORed with x, multiplied by y, then its high half folded
    into its low half."""
    v = (v ^ x) * y
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 arrays."""
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> _SHIFT
    return r


def _pool_columns() -> list[tuple[np.ndarray, np.ndarray]]:
    """For each source word of the pool, the constant columns (4, 1) of its
    three hashes into the other words, in their order, and 0 in its own row:
    hashmix steps 4 to 15, after the four that fill the pool."""
    h = _steps(*_HASHMIX, 16)
    cols = []
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        x, y = np.zeros((2, 4, 1), np.uint32)
        x[dst], y[dst] = h[4 + 3 * src : 7 + 3 * src], h[5 + 3 * src : 8 + 3 * src]
        cols.append((x, y))
    return cols


_POOL_COLUMNS = _pool_columns()
# generate_state(4, uint64): eight output words, the pool hashed twice.
_OUT_X, _OUT_Y = (_steps(*_OUTPUT_HASH, 8)[k : k + 8].reshape(2, 4, 1) for k in (0, 1))


def pcg64_states(seed: int, ids: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of np.random.default_rng((seed, i)) for each
    id i, one 32-bit word (0 <= i < 2^32; InputError otherwise), and none
    for no ids. The entropy words are seed's 32-bit words, low first, then
    i. Each hash step is one broadcast of the ids' words against constant
    columns."""
    if len(ids) and (min(ids) < 0 or max(ids) > _M32):
        raise InputError(f"trial ids {min(ids)}..{max(ids)} outside 0..{_M32}")
    words = [seed >> s & _M32 for s in range(0, max(int(seed).bit_length(), 1), 32)]
    entropy = np.zeros((max(4, len(words) + 1), len(ids)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = ids
    h = _steps(*_HASHMIX, 4 * len(entropy))
    pool = _hash(entropy[:4], h[:4], h[1:5])  # entropy short of 4 words is padded with zeros
    for src, (x, y) in enumerate(_POOL_COLUMNS):  # each pool word hashed into the other three
        mixed = _mix(pool, _hash(pool[src], x, y))
        mixed[src] = pool[src]
        pool = mixed
    for s in range(16, len(h) - 1, 4):  # the words beyond the pool, from seeds of 2^96 up
        pool = _mix(pool, _hash(entropy[s // 4], h[s : s + 4], h[s + 1 : s + 5]))
    out = _hash(pool, _OUT_X, _OUT_Y).reshape(8, -1)  # generate_state(4, uint64)
    states = []
    for w0, w1, w2, w3 in np.ascontiguousarray(out.T).view(np.uint64).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        states.append((((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _M128, inc))
    return states


def streams(seed: int, ids: Sequence[int]) -> Iterator[np.random.Generator]:
    """The generator of each (seed, id) stream, in order, for ids below
    2^32: one generator reseeded in place to each stream's state (valid
    until the next is yielded)."""
    g = np.random.default_rng(0)
    for state, inc in pcg64_states(seed, ids):
        g.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield g


def _ginibre(z: np.ndarray) -> np.ndarray:
    """Ginibre matrices (..., d, d) from standard normals z (..., 2, d, d) in
    the order they are drawn: each matrix's real part, then its imaginary part."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _states(p: np.ndarray, z: np.ndarray) -> _Batch:
    """The validated batch of probabilities p (B, n) and the normals
    z (B, n, 2, d, d) of Ginibre matrices G: the Hilbert-Schmidt states
    G G† / Tr(G G†) of all of them formed in one stacked product and one
    trace-divide, then checked together (`_sampled`)."""
    G = _ginibre(z)
    rho = G @ G.conj().swapaxes(-1, -2)
    return _sampled(p, rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None])


def _unit_spectra(G: np.ndarray):
    """The spectra (w / ||H||, V) of H = (G + G†)/2 for a stack of Ginibre
    matrices G (..., d, d), in one stacked eigh, and the norms ||H|| (...);
    a zero norm leaves its w unscaled."""
    w, V = hm._eigh(hm.hermitian_part(G))  # Hermitian bit for bit
    norms = np.max(np.abs(w), axis=-1)
    return w / np.where(norms > 0.0, norms, 1.0)[..., None], V, norms


def _climb_window(k: int, block: int, n: int, dim: int, g: np.random.Generator):
    """The draws of a window of k search candidates, drawn now in one flat
    call (per candidate: n Ginibre matrices, real part then imaginary part,
    then n probability noises) and one stacked eigh: the bits that k
    candidates drawn a block at a time read from g, and the spectra each
    would get alone. Returns an iterator over blocks of `block` candidates
    (the last may be short): the spectra (b, n, d), (b, n, d, d) of their
    unit-norm Hamiltonians and their noises (b, n). A block that holds a
    zero-norm H raises when it is reached, not before: an earlier block
    may end the search first."""
    m = 2 * n * dim * dim
    z = g.standard_normal(k * (m + n)).reshape(k, m + n)
    w, V, norms = _unit_spectra(_ginibre(z[:, :m].reshape(k, n, 2, dim, dim)))

    def blocks():
        for s in range(0, k, block):
            if not norms[s : s + block].all():
                raise Fault("a zero-norm Hamiltonian in a block of candidates")
            yield w[s : s + block], V[s : s + block], z[s : s + block, m:]

    return blocks()
