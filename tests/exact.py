"""An exact reference in ``fractions.Fraction``: the 4x4 map of a step's
computed versor.

Every coefficient of a computed versor is a finite float, so a rational, and
so is every entry of the star's table.  The sandwich of the computed U over
``blades.PRODUCT_SIGNS`` and ``REVERSION_SIGNS`` (and ``hodge.STAR`` for a
star-sandwich), in Fraction, is therefore the exact map that the stage's
float matrix rounds: it isolates the rounding of the images and products
from the rounding of the versor's own construction.
"""

import functools
from fractions import Fraction

import numpy as np

from cl33.blades import PRODUCT_SIGNS, REVERSION_SIGNS
from cl33.euclid import POINT_BASIS_ROWS, POINT_BLADES, POINT_SCALES
from cl33.hodge import STAR
from cl33.versors import HodgeVersor, Versor

_SIGNS = PRODUCT_SIGNS.astype(int).tolist()
#: For each blade m, the nonzero entries of the star of m: {blade: entry}.
_STAR_COLUMNS = [{int(k): Fraction(float(STAR[k, m])) for k in np.flatnonzero(STAR[:, m])}
                 for m in range(STAR.shape[1])]


def sparse(coeffs) -> dict:
    """The nonzero coefficients of a row of 64 floats, as {blade: Fraction}."""
    return {int(k): Fraction(float(coeffs[k])) for k in np.flatnonzero(coeffs)}


def product(a: dict, b: dict) -> dict:
    """The geometric product of two sparse multivectors, exactly."""
    out = {}
    for i, x in a.items():
        signs = _SIGNS[i]
        for j, y in b.items():
            term = x * y
            out[i ^ j] = out.get(i ^ j, 0) + (term if signs[j] > 0 else -term)
    return out


def reverse(a: dict) -> dict:
    return {k: x if REVERSION_SIGNS[k] > 0 else -x for k, x in a.items()}


def star(a: dict) -> dict:
    """The Hodge star of a sparse multivector, exactly."""
    out = {}
    for m, x in a.items():
        for k, s in _STAR_COLUMNS[m].items():
            out[k] = out.get(k, 0) + s * x
    return out


@functools.lru_cache(maxsize=None)
def _exact_matrix(kind, coeffs: bytes, epsilon) -> tuple:
    U = sparse(np.frombuffer(coeffs))
    rev = reverse(U)
    columns = []
    for b in POINT_BASIS_ROWS:
        if kind == "sandwich":
            image = {k: epsilon * x for k, x in product(product(U, sparse(b)), rev).items()}
        else:
            image = star(product(product(U, star(sparse(b))), rev))
        columns.append([image.get(int(k), 0) * Fraction(float(s))
                        for k, s in zip(POINT_BLADES, POINT_SCALES)])
    return tuple(tuple(row) for row in zip(*columns))


def exact_matrix(step) -> tuple:
    """The exact 4x4 matrix, as rows of Fractions, of the map of a Versor's
    or a HodgeVersor's computed versor on (w, x, y, z): column j is the
    exact image of POINT_BASIS[j] read at the blades and scales that
    ``extract_points`` reads.  Cached by versor for the process."""
    if type(step) is Versor:
        return _exact_matrix("sandwich", step.U.coeffs.tobytes(), step.epsilon)
    if type(step) is HodgeVersor:
        return _exact_matrix("star-sandwich", step.uprime.coeffs.tobytes(), 1)
    raise TypeError(f"not a Versor or HodgeVersor: {step!r}")
