"""Deterministic, stream-keyed random number generation.

Every random draw in the package is made from a counter-based generator
(Philox) keyed by a master seed plus an integer stream id.  Draws therefore
depend only on (seed, stream id), never on thread count or the order in
which work items happen to run.

`RngStream.generator()` defines a stream: Philox at counter 0 with the key
`SeedSequence(seed, spawn_key=stream).generate_state(2, uint64)`.
`gaussian_vec` makes exactly those draws without building a SeedSequence
and a Generator per stream, in two steps (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11, on re-keying counter-based
generators):

- Keys.  SeedSequence's key is a fixed uint32 hash (O'Neill's seed_seq
  mixing) of the stream's entropy words: the seed's little-endian 32-bit
  words, zero-padded to the 4-word pool, then each stream component's
  words.  numpy pads the seed only for a non-empty stream, but its pool
  fill hashes a missing word as 0, so padding every seed gives the same
  key.  The first four words, the seed's, fill the pool and are mixed
  pairwise; each further word is mixed into every pool word.  So the
  seed's pool is computed once and cached, and `_philox_keys` mixes in
  the remaining words in wrapping uint32 numpy arithmetic over all the
  streams of a call, one group per (seed, word count), with the
  multipliers precomputed.
- Draws.  Each thread keeps one Generator(Philox).  A draw sets its state
  to (key, counter 0, empty buffer) and calls standard_normal(dim), which
  is what a fresh generator of that stream returns.
"""
from __future__ import annotations

import functools
import threading

import numpy as np

from .errors import BadRangeError, DimMismatchError

# Lane constants appended to stream ids so that the noise draw and the
# spectral starting vectors of the same (sample, timestep, repetition)
# never share a stream.  Retries get their own lanes.
LANE_NOISE = 0
LANE_SPECTRAL = 1
LANE_NOISE_RETRY = 2
LANE_SPECTRAL_RETRY = 3
LANE_TRAIN = 4
LANE_DATA = 5


class RngStream:
    """A named, reproducible random stream.

    Parameters
    ----------
    seed : int
        Master seed shared by all streams of a run; non-negative.
    stream : tuple of int
        Stream id, typically (sample index, timestep index, repetition
        index, lane); non-negative components.  Identical (seed, stream)
        pairs yield identical draws on every platform.
    """

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = tuple(map(int, stream))
        if self.seed < 0:
            raise BadRangeError(f"seed must be non-negative, got {self.seed}")
        if min(self.stream, default=0) < 0:
            raise BadRangeError("stream id components must be non-negative")

    def child(self, *lanes: int) -> "RngStream":
        """Return a sub-stream with extra id components appended."""
        return RngStream(self.seed, self.stream + tuple(lanes))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


# -- keys: numpy's SeedSequence hash, vectorized over streams -------------

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the pool words each pool word is mixed into, in order
_OTHERS = [[j for j in range(_POOL) if j != i] for i in range(_POOL)]


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, mul) uint32 constants of n successive hashmix calls.

    Call i XORs its word with init * mult**i and multiplies it by
    init * mult**(i+1), mod 2**32: each call advances the multiplier once.
    """
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c[:-1], dtype=np.uint32), np.array(c[1:], dtype=np.uint32)


# the pool fill and the all-pairs mix make 4 + 4 * 3 hashmix calls
_SEED_XOR, _SEED_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
# generate_state(2, uint64) hashes the four pool words once each
_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B, _POOL)


@functools.lru_cache(maxsize=64)
def _tail_consts(n_tail: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_tail, 4) constants for mixing n_tail further words into the pool."""
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + n_tail))
    consts = tuple(c[_POOL * _POOL :].reshape(n_tail, _POOL) for c in consts)
    for c in consts:
        c.flags.writeable = False  # shared by every caller
    return consts


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0; [0] for 0."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> np.ndarray:
    """The pool after the seed's first four words (zero-padded): fill, then mix."""
    words = (_words(seed) + [0] * (_POOL - 1))[:_POOL]
    pool = _hashmix(np.array(words, dtype=np.uint32), _SEED_XOR[:_POOL], _SEED_MUL[:_POOL])
    for src, dst in enumerate(_OTHERS):
        c = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src, None], _SEED_XOR[c], _SEED_MUL[c]))
    pool.flags.writeable = False  # shared by every caller
    return pool


def _tail(rng: RngStream) -> tuple[int, ...]:
    """The entropy words after the pool's first four: the seed's beyond
    2**128, then each stream component's."""
    if rng.seed >> 128 == 0 and max(rng.stream, default=0) <= _MASK32:
        return rng.stream
    return tuple(_words(rng.seed)[_POOL:] + [w for s in rng.stream for w in _words(s)])


def _hash_tails(seed: int, tails: np.ndarray) -> np.ndarray:
    """Philox keys (n, 2) of n streams of one seed, from their (n, T) uint32 tails."""
    xor, mul = _tail_consts(tails.shape[1])
    # a tail word's hash does not depend on the pool, so all are hashed at once
    h = _hashmix(tails[:, :, None], xor, mul)
    pool = np.broadcast_to(_seed_pool(seed), (tails.shape[0], _POOL))
    for w in range(tails.shape[1]):
        pool = _mix(pool, h[:, w])
    state = _hashmix(pool, _STATE_XOR, _STATE_MUL)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _philox_keys(rngs: list) -> np.ndarray:
    """`SeedSequence(seed, spawn_key=stream).generate_state(2, uint64)` of each stream."""
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for i, r in enumerate(rngs):
        tail = _tail(r)
        rows, tails = groups.setdefault((r.seed, len(tail)), ([], []))
        rows.append(i)
        tails.append(tail)
    keys = np.empty((len(rngs), 2), dtype=np.uint64)
    for (seed, n_tail), (rows, tails) in groups.items():
        tails = np.array(tails, dtype=np.uint32).reshape(len(rows), n_tail)
        keys[rows] = _hash_tails(seed, tails)
    return keys


# -- draws: one re-keyed generator per thread -----------------------------

# a generator's whole state is set before each draw, so no caller sees
# another's; per thread, because setting state and drawing are two calls
_local = threading.local()


def _normals_into(keys: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of out with standard normals from Philox key keys[i], counter 0."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
    bitgen = gen.bit_generator
    # the state of a fresh Philox: counter 0, empty buffer
    keyed = {"counter": (0, 0, 0, 0), "key": None}
    state = {
        "bit_generator": "Philox",
        "state": keyed,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key, row in zip(keys.tolist(), out):
        keyed["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)


def gaussian_vec(rng, dim: int, std) -> np.ndarray:
    """N(0, std^2 I) vectors of length `dim`, one per stream.

    rng is one RngStream, giving a (dim,) vector, or a sequence of n of
    them, giving (n, dim) rows; std is one value or one per stream.  A row
    is `std * rng.generator().standard_normal(dim)` bit for bit: the draw
    restarts the stream, so the same stream always returns the same
    vector.  std = 0 gives +0.0 zeros.
    """
    if dim < 1:
        raise BadRangeError(f"dim must be >= 1, got {dim}")
    one = isinstance(rng, RngStream)
    rngs = [rng] if one else list(rng)
    std = np.asarray(std, dtype=float)
    if std.ndim:
        if std.shape != (len(rngs),):
            raise DimMismatchError(f"{len(rngs)} streams but std of shape {std.shape}")
        std = std[:, None]
    if np.any(std < 0):
        raise BadRangeError(f"std must be >= 0, got {std[std < 0][0]}")
    out = np.empty((len(rngs), dim))
    _normals_into(_philox_keys(rngs), out)
    out *= std
    out[np.broadcast_to(std == 0.0, out.shape)] = 0.0
    return out[0] if one else out
