"""Seeded, splittable random number streams.

Every random quantity in this package is drawn from an :class:`RngStream`,
a counter-based generator keyed by the pair ``(seed, stream_id)``.
Identical keys give bit-identical draw sequences on any machine and under
any parallel layout, which is what makes experiment reports reproducible:
each replicate derives its own stream id, so results do not depend on the
order in which replicates happen to run.
"""

from __future__ import annotations

import numbers

import numpy as np

from .linalg import _as_box, _is_real

__all__ = ["RngStream", "uniform", "normal", "latin_hypercube"]

_U64 = 2**64


def _integer(name, value):
    """``value`` as an int, refused unless it is an integer; a bool is not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class RngStream:
    """One independent draw sequence, keyed by ``(seed, stream_id)``.

    The underlying generator is Philox, a counter-based generator whose
    128-bit key is taken directly from the two ids, so distinct keys give
    statistically independent streams without any shared state.  A stream
    carries mutable position state: hand each worker its own
    ``(seed, stream_id)`` rather than sharing one instance across threads.

    Parameters
    ----------
    seed : int
        Master seed, an unsigned 64-bit integer.
    stream_id : int, optional
        Substream selector, an unsigned 64-bit integer.  Defaults to 0.
    """

    def __init__(self, seed, stream_id=0):
        seed = _integer("seed", seed)
        stream_id = _integer("stream_id", stream_id)
        if not 0 <= seed < _U64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= stream_id < _U64:
            raise ValueError("stream_id must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self):
        """The underlying numpy ``Generator``; drawing from it advances this stream."""
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def uniform(stream, d, size):
    """Draw ``size`` points uniformly from the unit cube ``[0, 1]^d``, a (size, d) array."""
    d = _integer("d", d)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return stream.generator.random((_integer("size", size), d))


def normal(stream, sigma, size):
    """Draw ``size`` values from ``N(0, sigma^2)``.  ``sigma = 0`` returns exact zeros."""
    if not (_is_real(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")
    return sigma * stream.generator.standard_normal(_integer("size", size))


def latin_hypercube(stream, k, box):
    """Draw ``k`` points from a box, stratified along every axis.

    Along each axis the points occupy the ``k`` equal-width strata in a
    random order, jittered uniformly within each stratum, so every
    one-dimensional projection is evenly covered.

    Parameters
    ----------
    stream : RngStream
    k : int
        Number of points, at least 1.
    box : array_like, shape (d, 2)
        Rows of ``[low, high]`` bounds, ``high > low``.

    Returns
    -------
    ndarray, shape (k, d)
    """
    k = _integer("k", k)
    if k < 1:
        raise ValueError("point count must be >= 1")
    box = _as_box(box)
    lo, hi = box[:, 0], box[:, 1]
    d = box.shape[0]
    pts = np.empty((k, d))
    for j in range(d):
        order = stream.generator.permutation(k)
        offset = stream.generator.random(k)
        pts[:, j] = lo[j] + (hi[j] - lo[j]) * (order + offset) / k
    return pts
