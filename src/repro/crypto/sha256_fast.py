"""Lane-parallel SHA-256 (the fast path for batched hashing).

The scalar :class:`repro.crypto.sha256.Sha256` renders FIPS 180-4 round
by round over Python ints — the trusted reference, but ~100 us per
64-byte block. GuardNN's hardware hash/MAC engines are *throughput*
machines: the paper's pipeline absorbs a block per cycle per engine, so
a batch of independent messages (a dirty Merkle level, a tile's worth
of per-chunk MACs) finishes in the depth of the pipeline, not the sum
of its inputs.

This module is the software analogue: the classic SIMD *multi-buffer*
trick. One numpy uint32 lane per message — ``a..h`` and the message
schedule live in ``(n_lanes,)`` vectors, and each of the 64 rounds is a
handful of whole-batch array operations. This is deliberately **not**
single-message SIMD (which would need the SHA-NI-style within-block
dependency tricks and wins little in numpy); hashing *independent*
messages in parallel is embarrassingly vectorizable and is exactly the
shape of every hot hashing site in the simulator (tree levels, MAC
batches, HMAC fan-out).

Ragged batches are supported the way multi-buffer hardware does it:
every message is padded to its own FIPS 180-4 length, lanes whose
message is exhausted simply stop committing state (an ``active`` mask
per block step), and the whole batch runs for ``max(blocks)`` steps.

Bit-exactness against the scalar reference is asserted by the NIST
known-answer suite and the randomized equivalence tests; the scalar
path remains the implementation of record under ``REPRO_SCALAR=1``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as _np

from repro import perf
from repro.crypto.sha256 import _H0, _K, sha256

_BLOCK = 64

_NP_K = _np.array(_K, dtype=_np.uint32)
_NP_H0 = _np.array(_H0, dtype=_np.uint32)


def _rotr(x, r: int):
    """Rotate each uint32 lane right by ``r`` (numpy wraps shifts)."""
    return (x >> r) | (x << (32 - r))


def _compress_lanes(state, wblock):
    """Run all lanes through the 64 rounds of one block step.

    ``state`` is a list of 8 ``(n,)`` uint32 arrays; ``wblock`` is the
    ``(n, 16)`` uint32 message-schedule seed for this block. Returns
    the 8 working variables after round 63 (caller adds them into the
    state for active lanes). The schedule uses the standard 16-entry
    ring so only 16 lane vectors are live at a time.
    """
    w = [_np.ascontiguousarray(wblock[:, t]) for t in range(16)]
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        if t < 16:
            wt = w[t]
        else:
            w15 = w[(t - 15) % 16]
            w2 = w[(t - 2) % 16]
            s0 = _rotr(w15, 7) ^ _rotr(w15, 18) ^ (w15 >> 3)
            s1 = _rotr(w2, 17) ^ _rotr(w2, 19) ^ (w2 >> 10)
            wt = w[t % 16] + s0 + w[(t - 7) % 16] + s1
            w[t % 16] = wt
        t1 = h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) \
            + ((e & f) ^ (~e & g)) + _NP_K[t] + wt
        t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) \
            + ((a & b) ^ (a & c) ^ (b & c))
        h, g, f, e, d, c, b, a = g, f, e, d + t1, c, b, a, t1 + t2
    return [a, b, c, d, e, f, g, h]


def _pad_lanes(messages: Sequence[bytes]):
    """FIPS 180-4 pad every message into one ``(n, max_blocks, 16)``
    uint32 schedule array plus the per-lane block counts."""
    n = len(messages)
    blocks = [(len(m) + 9 + 63) // _BLOCK for m in messages]
    max_blocks = max(blocks)
    buf = _np.zeros((n, max_blocks * _BLOCK), dtype=_np.uint8)
    for i, message in enumerate(messages):
        length = len(message)
        if length:
            buf[i, :length] = _np.frombuffer(message, dtype=_np.uint8)
        buf[i, length] = 0x80
        tail = blocks[i] * _BLOCK - 8
        buf[i, tail:tail + 8] = _np.frombuffer(
            (length * 8).to_bytes(8, "big"), dtype=_np.uint8)
    words = buf.view(">u4").astype(_np.uint32).reshape(n, max_blocks, 16)
    return words, _np.array(blocks, dtype=_np.int64)


def _sha256_lanes(messages: Sequence[bytes]) -> List[bytes]:
    """All messages through the lane-parallel kernel at once."""
    n = len(messages)
    words, blocks = _pad_lanes(messages)
    state = [_np.full(n, h0, dtype=_np.uint32) for h0 in _NP_H0]
    uniform = bool((blocks == blocks[0]).all())
    for b in range(words.shape[1]):
        compressed = _compress_lanes(state, words[:, b, :])
        if uniform:
            state = [s + v for s, v in zip(state, compressed)]
        else:
            active = blocks > b
            state = [_np.where(active, s + v, s)
                     for s, v in zip(state, compressed)]
    packed = _np.stack(state, axis=1).astype(">u4").tobytes()
    return [packed[32 * i:32 * i + 32] for i in range(n)]


def sha256_many(messages: Iterable[bytes]) -> List[bytes]:
    """SHA-256 of N independent messages — one lane per message.

    The batch entry point every hot hashing site goes through: on the
    fast path all lanes advance together through numpy uint32 rounds;
    in scalar mode (or for trivial batches) it is a plain loop over the
    reference :func:`~repro.crypto.sha256.sha256`.
    Outputs are bit-identical either way.
    """
    messages = list(messages)
    if perf.fast_enabled() and len(messages) > 1:
        return _sha256_lanes(messages)
    return [sha256(m) for m in messages]


def hmac_sha256_many(key: bytes, messages: Iterable[bytes]) -> List[bytes]:
    """HMAC-SHA256 of N messages under one key (the MAC-engine form:
    one keyed engine, a tile's worth of chunks).

    Both HMAC passes ride :func:`sha256_many`, so a batch costs two
    lane-parallel kernel calls instead of 4N scalar compressions. The
    key block is processed once, exactly as RFC 2104 specifies.
    """
    messages = list(messages)
    if len(key) > _BLOCK:
        key = sha256(key)
    key = key + bytes(_BLOCK - len(key))
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = sha256_many([ipad + message for message in messages])
    return sha256_many([opad + digest for digest in inner])
