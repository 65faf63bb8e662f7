"""Shared oracles and random-input helpers, independent of the implementation
paths they check."""

import io

import numpy as np

from cl33 import (
    Composed,
    HodgeVersor,
    Paravector,
    PerspectiveMap,
    embed_paravector,
    extract_paravector,
    hodge_star,
    reversion,
)
from cl33.blades import BLADE_COUNT
from cl33.selftest import naive_blade_product


def naive_geometric_product(x, y):
    """Coefficient-level double loop over the blade oracle."""
    out = np.zeros(BLADE_COUNT)
    for a in range(BLADE_COUNT):
        if x[a] == 0.0:
            continue
        for b in range(BLADE_COUNT):
            if y[b] == 0.0:
                continue
            sign, mask = naive_blade_product(a, b)
            out[mask] += sign * x[a] * y[b]
    return out


def dense_sandwich(stage, m):
    """The sandwich epsilon U m (rev U) of a Versor, or the star-sandwich
    star(U' (star m) (rev U')) of a HodgeVersor, through dense products."""
    if isinstance(stage, HodgeVersor):
        return hodge_star(stage.uprime * hodge_star(m) * reversion(stage.uprime))
    out = stage.U * m * reversion(stage.U)
    return -out if stage.epsilon < 0 else out


def dense_apply(stage, p):
    """A stage's image of one point through dense products, one point at a
    time: the extracted (star-)sandwich of a Versor or HodgeVersor, the
    to-eye step and the two versors of a PerspectiveMap, and the stages of
    a Composed in turn."""
    if isinstance(stage, Composed):
        for s in stage.stages:
            p = dense_apply(s, p)
        return p
    if isinstance(stage, PerspectiveMap):
        e = stage.eye.vector
        q = Paravector(p.weight - p.weight * stage.eye.weight, p.vector - p.weight * e)
        q = dense_apply(stage.cotranslate, q)
        return dense_apply(stage.from_eye, q)
    return extract_paravector(dense_sandwich(stage, embed_paravector(p)))


def householder(n):
    n = np.asarray(n, dtype=float)
    return np.eye(3) - 2.0 * np.outer(n, n)


def perspective_oracle_matrix(e, n, c):
    """Homogeneous 4x4 of projection from the eye at e onto the plane
    x . n = c, acting on (w, p); image of (1, p) normalizes to the
    line-plane intersection."""
    e = np.asarray(e, dtype=float)
    n = np.asarray(n, dtype=float)
    a = c - n @ e
    m = np.zeros((4, 4))
    m[0, 0] = -(n @ e)
    m[0, 1:] = n
    m[1:, 0] = -a * e - (n @ e) * e
    m[1:, 1:] = a * np.eye(3) + np.outer(e, n)
    return m


def pseudo_perspective_oracle_matrix(n):
    n = np.asarray(n, dtype=float)
    m = np.eye(4)
    m[0, 1:] = n
    return m


class ChunkReadsOnly:
    """A text file that hands out at most ``limit`` characters per ``read``:
    it cannot seek, ``seek`` and ``tell`` raise, and an unsized ``read``
    fails the test."""

    def __init__(self, fh, limit):
        self._fh, self._limit = fh, limit

    def read(self, size=-1):
        assert 0 < size <= self._limit, f"read({size}) with a limit of {self._limit}"
        return self._fh.read(size)

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
