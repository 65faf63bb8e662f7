"""Two exact references in ``fractions.Fraction``: the 4x4 map of a step's
computed versor, and the 4x4 map of a step's parameters.

Every coefficient of a computed versor is a finite float, so a rational, and
so is every entry of the star's table.  The sandwich of the computed U over
``blades.PRODUCT_SIGNS`` and ``REVERSION_SIGNS`` (and ``hodge.STAR`` for a
star-sandwich), in Fraction, is therefore the exact map that the stage's
float matrix rounds: it isolates the rounding of the images and products
from the rounding of the versor's own construction.

Every DSL number is a finite float too, so the closed forms of a step (those
of ``perfbench/oracle.py``) evaluated in Fraction give the map the
parameters ask for, wherever it is rational in them: ``translate``,
``cotranslate``, ``pseudo``, ``reflect``, ``shear`` and ``perspective``.  A
result can lie near the computed versors' map and far from this one when the
versor's construction rounds.
"""

import functools
from fractions import Fraction

import numpy as np

from cl33.blades import PRODUCT_SIGNS, REVERSION_SIGNS
from cl33.euclid import POINT_BASIS_ROWS, POINT_BLADES, POINT_SCALES
from cl33.hodge import STAR
from cl33.versors import HodgeVersor, PerspectiveMap, Versor, _linear_steps

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


_IDENTITY = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))


def _fractions(values) -> list:
    return [Fraction(float(x)) for x in values]


def matmul(a, b) -> tuple:
    """The product of two 4x4 matrices of Fractions, exactly."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


def computed_map(transform) -> tuple:
    """The exact 4x4 map of a transform's computed versors: ``exact_matrix``
    of each Versor and HodgeVersor step, and a perspective's to-eye step,
    whose entries are floats, multiplied in Fraction, the first step
    rightmost."""
    m = _IDENTITY
    for step in _linear_steps(transform):
        if type(step) is PerspectiveMap:
            step_matrix = tuple(tuple(_fractions(row)) for row in step.to_eye)
        else:
            step_matrix = exact_matrix(step)
        m = matmul(step_matrix, m)
    return m


def parameter_matrix(op, params) -> tuple:
    """The exact 4x4 matrix, as rows of Fractions, that one DSL step's
    parameters give: the closed forms of ``perfbench/oracle.py`` in
    Fraction.  Raises ValueError for ``rotate``, ``hrotate`` and ``scale``,
    whose maps are not rational in their parameters."""
    m = [list(row) for row in _IDENTITY]
    if op == "translate":
        for i, x in enumerate(_fractions(params["v"]), start=1):
            m[i][0] = x
    elif op in ("cotranslate", "pseudo"):
        m[0][1:] = _fractions(params["v" if op == "cotranslate" else "n"])
    elif op in ("reflect", "shear"):
        # p -> p - 2 g(p, n) n, and p -> p + t g(p, v) u
        if op == "reflect":
            n = _fractions(params["n"])
            u, v, t = n, n, -2
        else:
            u, v, t = _fractions(params["u"]), _fractions(params["v"]), Fraction(params["t"])
        for i in range(3):
            for j in range(3):
                m[i + 1][j + 1] += t * u[i] * v[j]
    elif op == "perspective":
        # (w, p) -> (g(p - w e, n)/a, p - w e + e g(p - w e, n)/a), a = c - g(n, e)
        e, n, c = _fractions(params["eye"]), _fractions(params["n"]), Fraction(params["c"])
        ne = sum(x * y for x, y in zip(n, e))
        a = c - ne
        m[0] = [-ne / a, *(x / a for x in n)]
        for i in range(3):
            m[i + 1][0] = -e[i] * c / a
            for j in range(3):
                m[i + 1][j + 1] += e[i] * n[j] / a
    else:
        raise ValueError(f"the map of {op!r} is not rational in its parameters")
    return tuple(map(tuple, m))


def parameter_map(steps) -> tuple:
    """The product of ``parameter_matrix`` over a pipeline's steps, the
    first step rightmost."""
    m = _IDENTITY
    for step in steps:
        m = matmul(parameter_matrix(step.op, step.params), m)
    return m
