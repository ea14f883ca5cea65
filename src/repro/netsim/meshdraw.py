"""Batched mesh-ping draws that keep every pair's own random stream.

The calibration archive's value for a landmark pair is half the minimum
of ``samples`` fault-free RTT samples, with the queueing noise drawn
from ``np.random.default_rng((lo_id, hi_id))`` — one seeded stream per
unordered pair, so the archive is a pure function of the substrate.
Seeding a fresh ``default_rng`` costs ~20 µs, ten times the draws it
feeds; at paper scale that is most of a cold calibration.

:func:`mesh_one_way_ms` produces the same streams in bulk.  NumPy seeds
``default_rng(key)`` in two steps, both reproduced here bit for bit:

1. ``SeedSequence(key)`` hashes the key's uint32 words into a 4-word
   pool and expands it into four uint64 words (``generate_state``).
   This is pure uint32 arithmetic, vectorised over every pair at once.
2. ``PCG64`` takes the first two words as the 128-bit initial state
   and the last two as the stream increment, then advances the LCG
   twice (``pcg_setseq_128_srandom_r``).

Each pair's resulting state is set on one reused generator, local to
the call, which then draws exactly what ``Network.min_rtt_ms`` draws.
The equality with ``default_rng(key)`` is pinned against an oracle in
the tests.  A key word must fit in 32 bits: ``SeedSequence`` splits
larger ints into several words, which this derivation does not model,
so such ids raise :class:`MeshStreamError` instead of drawing from a
silently different stream.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .hosts import Host
from .network import Network

#: SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Probability and scale of a congestion spike (``Network.rtt_samples_ms``).
_SPIKE_PROBABILITY = 0.02
_SPIKE_SCALE_MS = 60.0

#: Pairs per batch: bounds the stream-state list and draw buffers.
_CHUNK = 8192


class MeshStreamError(ValueError):
    """A host id outside the per-pair seed domain (``0 <= id < 2**32``)."""


def _seed_words(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``SeedSequence((lo, hi)).generate_state(4, np.uint64)`` per pair."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    # The entropy is the two key words; the rest of the pool hashes 0.
    zero = np.zeros(len(lo), dtype=np.uint32)
    pool = [hashmix(lo.astype(np.uint32)), hashmix(hi.astype(np.uint32)),
            hashmix(zero), hashmix(zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = np.empty((len(lo), 2 * _POOL_SIZE), dtype=np.uint32)
    hash_b = _INIT_B
    for at in range(2 * _POOL_SIZE):
        value = pool[at % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_b)
        words[:, at] = value ^ (value >> _XSHIFT)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _mul_64x64(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products of uint64 arrays, as (high, low) words."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    low = (mid << _SHIFT32) | (p00 & _LOW32)
    high = p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return high, low


def pair_stream_states(lo_ids: np.ndarray, hi_ids: np.ndarray
                       ) -> List[Tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng((lo, hi))`` for each pair."""
    lo_ids = np.asarray(lo_ids, dtype=np.int64)
    hi_ids = np.asarray(hi_ids, dtype=np.int64)
    for ids in (lo_ids, hi_ids):
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) > _MASK32):
            raise MeshStreamError(
                "mesh-pair streams need host ids in [0, 2**32); got "
                f"{int(ids.min())}..{int(ids.max())}")
    words = _seed_words(lo_ids, hi_ids)
    # 128-bit values as (high, low) uint64 words; uint64 arithmetic
    # wraps modulo 2**64, and carries are propagated by hand.
    seed_hi, seed_lo = words[:, 0], words[:, 1]
    inc_hi = (words[:, 2] << np.uint64(1)) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << np.uint64(1)) | np.uint64(1)
    # pcg_setseq_128_srandom_r: state = 0; step; state += seed; step.
    start_lo = inc_lo + seed_lo
    start_hi = inc_hi + seed_hi + (start_lo < inc_lo)
    mult_hi, mult_lo = _PCG_MULT >> 64, _PCG_MULT & ((1 << 64) - 1)
    high, low = _mul_64x64(start_lo, np.full_like(start_lo, mult_lo))
    high += start_hi * np.uint64(mult_lo) + start_lo * np.uint64(mult_hi)
    state_lo = low + inc_lo
    state_hi = high + inc_hi + (state_lo < low)
    return [((sh << 64) | sl, (ih << 64) | il)
            for sh, sl, ih, il in zip(state_hi.tolist(), state_lo.tolist(),
                                      inc_hi.tolist(), inc_lo.tolist())]


def mesh_one_way_ms(network: Network, hi_hosts: Sequence[Host],
                    lo_hosts: Sequence[Host], samples: int) -> np.ndarray:
    """Archived one-way delay of each ``(hi, lo)`` host pair, ms.

    Half the minimum of ``samples`` fault-free RTT samples, each pair
    drawing from ``default_rng((lo.host_id, hi.host_id))`` exactly as
    ``network.min_rtt_ms(hi, lo, n=samples, rng=...)`` outside any
    measurement epoch would.  Callers pass each pair in the canonical
    direction, higher host id first: the round-trip floor
    ``2*((last_hi + path) + last_lo)`` is not symmetric in the last ulp.
    """
    n = len(hi_hosts)
    if len(lo_hosts) != n:
        raise ValueError("host lists disagree in length")
    if samples < 1:
        raise ValueError(f"need at least one sample: {samples!r}")
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    hi_ids = np.fromiter((h.host_id for h in hi_hosts), np.int64, count=n)
    lo_ids = np.fromiter((h.host_id for h in lo_hosts), np.int64, count=n)
    if (hi_ids < lo_ids).any():
        raise ValueError("mesh pairs must be (higher id, lower id)")
    congestion = network.congestion_by_city()
    scales = (congestion[[h.city_id for h in hi_hosts]]
              + congestion[[h.city_id for h in lo_hosts]])
    bases = network.base_rtt_pairs(hi_hosts, lo_hosts)

    # One generator, reseeded per pair: local to this call, so no stream
    # state outlives it or is shared with any audit.
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    exponential = generator.standard_exponential
    uniform = generator.random
    pcg_state = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg_state,
                  "has_uint32": 0, "uinteger": 0}
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        states = pair_stream_states(lo_ids[start:stop], hi_ids[start:stop])
        draws = np.empty((stop - start, 2, samples), dtype=np.float64)
        for row, (state, inc) in zip(draws, states):
            pcg_state["state"] = state
            pcg_state["inc"] = inc
            bit_generator.state = full_state
            row[0] = exponential(samples)
            row[1] = uniform(samples)
        # Generator.exponential(scale) is scale * standard_exponential.
        noise = scales[start:stop, None] * draws[:, 0]
        spikes = draws[:, 1] < _SPIKE_PROBABILITY
        for offset in np.flatnonzero(spikes.any(axis=1)).tolist():
            # Spiked pairs continue their stream past the two draws.
            state, inc = states[offset]
            pcg_state["state"] = state
            pcg_state["inc"] = inc
            bit_generator.state = full_state
            exponential(samples)
            uniform(samples)
            hits = spikes[offset]
            noise[offset, hits] += _SPIKE_SCALE_MS * exponential(
                int(hits.sum()))
        rtts = bases[start:stop, None] + noise
        out[start:stop] = rtts.min(axis=1) / 2.0
    return out
