"""Seeded draws: the random streams of a chunk of trials, seeded in one pass,
and the Hilbert-Schmidt states of the Ginibre matrices drawn from them.

A trial's stream is np.random.default_rng((seed, trial id)): a PCG64 bit
generator seeded by numpy's SeedSequence from the entropy words of the pair.
`pcg64_states` runs SeedSequence for every id of a chunk at once, on uint32
arrays, then PCG64's seeding on Python ints. `streams` reseeds one generator
in place to each of those states, so every bit drawn is the one
default_rng((seed, trial id)) gives. numpy's own SeedSequence per trial,
with the same reseeding, costs more than default_rng (23 against 20 us a
trial on a shared x86-64 Xeon): bench/run.py verify-small ran 6855 items/s
with it against 7495 with the one pass (medians of 10 alternated pairs).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .ensembles import _Batch, _sampled
from .errors import InputError

# A chunk of at least SEEDED_CHUNK trials is seeded in one pass, a smaller one
# by one default_rng per trial. On a shared x86-64 Xeon, default_rng took
# 15-24 us a trial; the one pass took 86-146 us for a chunk of one and 4-7 us
# a trial at 128, so the two meet between 8 and 10 trials. In pool workers a
# chunk of one d = 64 trial ran 2% slower seeded in one pass (bench/run.py
# verify-large, 16 of 20 alternated pairs) and peaked 0.19 MB higher (18 of
# 20): the pass's integer xor and multiply loops page in numpy code.
SEEDED_CHUNK = 8
# SeedSequence (a pool of four 32-bit words): the initial constant and
# multiplier of hashmix and of generate_state's output hash, and mix's two
# multipliers; then PCG64's multiplier.
_HASHMIX = (0x43B0D7E5, 0x931E8875)
_OUTPUT_HASH = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _hasher(h: int, mult: int):
    """SeedSequence's hash on uint32 arrays. Each row of a call's (m, B)
    input takes the next step of the running constant h -> h mult
    (mod 2^32): XORed with h before the step, multiplied by it after, and
    then its high half folded into its low half."""

    def hash_rows(v: np.ndarray) -> np.ndarray:
        nonlocal h
        steps = [h]
        for _ in range(len(v)):
            h = h * mult & _M32
            steps.append(h)
        x = np.array(steps, np.uint32)[:, None]
        v = (v ^ x[:-1]) * x[1:]
        return v ^ v >> 16

    return hash_rows


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 arrays."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def pcg64_states(seed: int, ids: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of np.random.default_rng((seed, i)) for each
    id i, one 32-bit word (0 <= i < 2^32; InputError otherwise). The entropy
    words are seed's 32-bit words, low first, then i."""
    if min(ids) < 0 or max(ids) > _M32:
        raise InputError(f"trial ids {min(ids)}..{max(ids)} outside 0..{_M32}")
    words = [seed >> s & _M32 for s in range(0, max(int(seed).bit_length(), 1), 32)]
    entropy = np.zeros((max(4, len(words) + 1), len(ids)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = ids
    hashmix = _hasher(*_HASHMIX)
    pool = hashmix(entropy[:4])  # entropy short of 4 words is padded with zeros
    for src in range(4):  # each pool word hashed into the other three
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[[src] * 3]))
    for word in entropy[4:]:  # the words beyond the pool, from seeds of 2^96 up
        pool = _mix(pool, hashmix(np.broadcast_to(word, pool.shape)))
    out = _hasher(*_OUTPUT_HASH)(np.concatenate([pool, pool]))  # generate_state(4, uint64)
    states = []
    for w0, w1, w2, w3 in np.ascontiguousarray(out.T).view(np.uint64).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        states.append((((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _M128, inc))
    return states


def streams(seed: int, ids: Sequence[int]) -> Iterator[np.random.Generator]:
    """The generator of each (seed, id) stream, in order, for ids below
    2^32. A chunk of SEEDED_CHUNK ids or more gets one generator reseeded in
    place to each stream's state (valid until the next is yielded); a
    smaller chunk gets default_rng((seed, id)) for each id."""
    if len(ids) < SEEDED_CHUNK:
        yield from (np.random.default_rng((seed, i)) for i in ids)
        return
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
