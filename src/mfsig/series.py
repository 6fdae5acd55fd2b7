"""Profile construction and the shuffling surrogate of a series of samples.

The shuffle surrogate destroys temporal correlations while preserving the
value distribution exactly; it is the reference test for whether measured
multifractality comes from long-range correlation or from the amplitude
distribution.

The surrogate's generator is SplitMix64 (Steele, Lea and Flood 2014), a
frozen specification: shuffles are identical across platforms and
releases for a given seed. The seed is taken mod 2^64. State update:
``state = (state + 0x9E3779B97F4A7C15) mod 2^64``. Output mix of the
updated state z: ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64). Bounded draws use
modulo rejection: draw 64-bit r, accept when ``r < 2^64 - (2^64 mod
bound)``, return ``r mod bound``; a rejected r is discarded and the next
output is drawn for the same bound.

A shuffle makes its bounded draws in wrapping ``uint64`` arithmetic,
``_DRAW_BLOCK`` (2^15) draws at a time, and then resolves the Fisher-Yates
swaps in closed form: one in-place sort groups the swaps by target, and
pointer doubling follows the chains of positions that later swaps move
again. No step loops over the samples, and the permutation is bit for bit
that of the sequential swap loop. The swap indices are 32-bit when
n < 2^31, so a shuffle of n samples holds no more than 5 * 8n bytes at
once, the permutation it returns included.
"""

from __future__ import annotations

import numpy as np

from .errors import AnalysisError

_MASK64 = (1 << 64) - 1


def profile(x: np.ndarray) -> np.ndarray:
    """Cumulative sum of the mean-removed samples, along the last axis of x.

    The final value telescopes to zero (up to rounding), which downstream
    code relies on: detrended fluctuations of the profile, not of the raw
    signal, carry the scaling information. A non-finite sample raises
    AnalysisError naming its index in the first row holding one.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise AnalysisError("profile needs at least 2 samples")
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.argwhere(~finite.reshape(-1, x.shape[-1]))
        raise AnalysisError(f"series contains a non-finite value at index {bad[0, 1]}")
    return np.cumsum(x - x.mean(axis=-1, keepdims=True), axis=-1)


_MAX64 = np.uint64(_MASK64)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Outputs drawn and range-checked at a time by _draws_below.
_DRAW_BLOCK = 2**15


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start + 1 .. start + count`` of the SplitMix64 stream of ``seed``.

    The k-th output is the mix of the state ``seed + k * gamma mod 2^64``, so
    any run of the stream is wrapping ``uint64`` arithmetic on one array.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += np.uint64(seed & _MASK64)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= mix
        z ^= z >> np.uint64(31)
    return z


def _draws_below(seed: int, bounds: np.ndarray) -> np.ndarray:
    """One bounded draw per entry of ``bounds`` (positive ``uint64``), in order.

    A draw r for bound b is accepted when ``r < 2^64 - (2^64 mod b)``, that
    is ``r <= (2^64 - 1) - (2^64 mod b)``. The stream is drawn and checked
    ``_DRAW_BLOCK`` outputs at a time, so the working memory beyond the
    result is a few blocks whatever the number of bounds. Draws are accepted
    up to a block's first rejected one; the next block redraws that bound
    from the state after it, since a rejection shifts every later draw of
    the stream.
    """
    out = np.empty(bounds.size, dtype=np.uint64)
    done = used = 0
    while done < bounds.size:
        b = bounds[done : done + _DRAW_BLOCK]
        r = _splitmix64(seed, used, b.size)
        with np.errstate(over="ignore"):
            highest = _MAX64 - (np.uint64(0) - b) % b
        rejected = np.flatnonzero(r > highest)
        take = int(rejected[0]) if rejected.size else r.size
        np.remainder(r[:take], b[:take], out=out[done : done + take])
        done += take
        used += take + (take < r.size)
    return out


def _index_dtype(n: int) -> type:
    """Signed integer type of the swap indices 0..n-1: 32-bit when n < 2^31."""
    return np.int32 if n < 2**31 else np.int64


def _apply_swaps(j: np.ndarray) -> np.ndarray:
    """The permutation left by swapping positions i and ``j[i]`` of ``range(n)``
    for i = n-1 .. 1, given targets ``0 <= j[i] <= i`` (``j[0] = 0``).

    Closed form, no loop over samples. Steps run from n-1 down, and no step
    after step i touches position i, so it ends holding what position
    ``j[i]`` held as step i began. The last step to write there was
    ``later[i]``, the smallest step i' > i with ``j[i'] = j[i]``, which left
    ``c(later[i])``; with no such step it is still ``j[i]``. Here ``c(p)``,
    what position p held as step p began, is ``c(first[p])`` for the
    smallest step ``first[p] > p`` that targets p, or p when none does.
    One in-place sort of the key ``j * n + i`` groups the steps by target
    in step order; the chains of ``first`` are resolved by pointer doubling,
    in about log2 of the longest chain rounds. Every index array but the
    key and the result is 32-bit when n < 2^31. Requires ``n * n < 2^63``.
    """
    n = j.size
    index = _index_dtype(n)
    key = np.multiply(j, np.int64(n), dtype=np.int64)
    key += np.arange(n, dtype=index)
    key.sort()
    target = np.floor_divide(key, n, out=np.empty(n, dtype=index), casting="unsafe")
    by_target = np.remainder(key, n, out=np.empty(n, dtype=index), casting="unsafe")
    del key
    head = np.ones(n, dtype=bool)  # the first step of each target's group
    np.not_equal(target[1:], target[:-1], out=head[1:])
    same = ~head[1:]
    later = np.full(n, -1, dtype=index)
    later[by_target[:-1][same]] = by_target[1:][same]
    del same
    # root[p] is the smallest step targeting p, which is first[p] unless it
    # is p itself; c(p) of such a p is never read, as neither later[i] nor
    # first[q] can be a step that targets itself. Doubling carries every
    # root to the end of its chain, c(p).
    root = np.arange(n, dtype=index)
    root[target[head]] = by_target[head]
    del target, by_target, head
    jumped = root[root]
    while not np.array_equal(jumped, root):
        root = jumped  # the old root goes before the next jump is made
        jumped = root[root]
    del jumped
    out = j.astype(np.int_)
    moved = later >= 0
    out[moved] = root[later[moved]]
    return out


def permutation(n: int, seed: int) -> np.ndarray:
    """Uniform random permutation of range(n) by Fisher-Yates swaps.

    Swaps run from the top index down: for i = n-1 .. 1, j is drawn
    uniformly from 0..i and positions i, j are swapped (Durstenfeld 1964).
    The draws are made in blocks and the swaps are resolved in closed form
    by ``_apply_swaps``, so the result is bit for bit that of the
    sequential loop. Requires ``n * n < 2^63``, which holds for n up to
    3037000499; a larger n is a ValueError.
    """
    if n * n >= 2**63:
        raise ValueError(f"permutation needs n * n < 2^63 (n <= 3037000499), got n = {n}")
    draws = _draws_below(seed, np.arange(n, 1, -1, dtype=np.uint64))
    j = np.zeros(n, dtype=_index_dtype(n))
    j[1:] = draws[::-1]
    del draws
    return _apply_swaps(j)


def shuffle(x: np.ndarray, seed: int) -> np.ndarray:
    """Random permutation of the samples of x; deterministic for a given seed."""
    return x[permutation(len(x), seed)]
