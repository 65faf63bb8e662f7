"""Independent oracle for the benchmark: closed-form 4x4 matrices.

Every pipeline operation of the cl33 DSL acts linearly on (weight, vector)
space.  The matrices below are written from the transform formulas in
PAPER.md and the conventions in README.md, with plain numpy and no use of
the package itself.  Outputs of ``cl33 apply`` and ``cl33 matrix`` are
scored against them, never against the program's own matrix.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance every output is held to.
RTOL = 1e-9

#: Operations carried by a sandwich U P rev(U); adjacent ones fuse.
SANDWICH_OPS = frozenset({"reflect", "rotate", "hrotate", "shear", "scale", "translate"})
#: Operations carried by a star-sandwich; adjacent ones fuse.
HODGE_OPS = frozenset({"cotranslate", "pseudo"})

#: Exit codes that inputs built to be rejected must produce.
EXPECTED_EXIT = {
    "perturb-check": 5,   # check --perturb: a preservation condition fails
    "perturb-apply": 4,   # apply --perturb: the image leaves the point subspace
    "parse-error": 2,     # malformed pipeline source
    "eye-on-plane": 3,    # perspective with the eye on the projection plane
}

#: Verdicts the paper gives for infinitesimal generators 1 + eps psi:
#: scalars, vectors and rank-one mixed bivectors keep points points (a
#: bivector of two vectors too, acting as the identity); everything else
#: fails.  Values: (grade, verdict, acts_as_identity or None if unchecked).
GENERATOR_VERDICTS = {
    "scalar": (0, "accept", None),
    "vector": (1, "accept", None),
    "mixed-bivector": (2, "accept", None),
    "vector-bivector": (2, "accept", True),
    "covector-bivector": (2, "reject", None),
    "grade3": (3, "reject", None),
    "grade4": (4, "reject", None),
    "grade5": (5, "reject", None),
    "grade6": (6, "reject", None),
}


def _block(a3):
    m = np.eye(4)
    m[1:, 1:] = a3
    return m


def op_matrix(op, p):
    """Matrix of one DSL step on column vectors (w, x, y, z)."""
    eye3 = np.eye(3)
    if op == "reflect":
        n = p["n"]
        return _block(eye3 - 2.0 * np.outer(n, n))
    if op == "rotate":
        u, v, th = p["u"], p["v"], p["theta"]
        # u -> cos u - sin v, v -> cos v + sin u
        return _block(eye3 + (np.cos(th) - 1.0) * (np.outer(u, u) + np.outer(v, v))
                      + np.sin(th) * (np.outer(u, v) - np.outer(v, u)))
    if op == "hrotate":
        u, v, eta = p["u"], p["v"], p["eta"]
        # u -> cosh u + sinh v, v -> cosh v + sinh u
        return _block(eye3 + (np.cosh(eta) - 1.0) * (np.outer(u, u) + np.outer(v, v))
                      + np.sinh(eta) * (np.outer(u, v) + np.outer(v, u)))
    if op == "shear":
        # p -> p + t g(p, v) u
        return _block(eye3 + p["t"] * np.outer(p["u"], p["v"]))
    if op == "scale":
        u = p["u"]
        return _block(eye3 + np.expm1(p["t"]) * np.outer(u, u))
    if op == "translate":
        m = np.eye(4)
        m[1:, 0] = p["v"]
        return m
    if op in ("cotranslate", "pseudo"):
        # weight gains g(p, v)
        m = np.eye(4)
        m[0, 1:] = p["v"] if op == "cotranslate" else p["n"]
        return m
    if op == "perspective":
        # (w, p) -> (g(p - w e, n)/a, p - w e + e g(p - w e, n)/a), a = c - g(n, e)
        e, n, c = p["eye"], p["n"], p["c"]
        a = c - float(n @ e)
        m = np.empty((4, 4))
        m[0, 0] = -float(n @ e) / a
        m[0, 1:] = n / a
        m[1:, 0] = -e * c / a
        m[1:, 1:] = eye3 + np.outer(e, n) / a
        return m
    raise ValueError(f"unknown operation {op!r}")


def pipeline_matrix(steps):
    """Product of the step matrices, first step applied first."""
    m = np.eye(4)
    for op, params in steps:
        m = op_matrix(op, params) @ m
    return m


def stage_kinds(steps):
    """Kinds of the stages the pipeline fuses into, in order."""
    kinds = []
    for op, _ in steps:
        kind = "sandwich" if op in SANDWICH_OPS else "hodge" if op in HODGE_OPS else op
        if kind != "perspective" and kinds and kinds[-1] == kind:
            continue
        kinds.append(kind)
    return kinds


def close(got, want, rtol=RTOL):
    """Row-wise closeness of (N, 4) arrays, scaled by each expected row."""
    scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
    return np.all(np.abs(got - want) <= rtol * scale[:, None], axis=1)


def expected_points(matrix, points, normalize, at_infinity=None):
    """Expected ``cl33 apply`` output for (N, 4) input rows.

    With ``normalize`` each image is divided by its weight, except the rows
    flagged in ``at_infinity``, which pass through raw.
    """
    out = points @ matrix.T
    if normalize:
        finite = np.ones(len(out), dtype=bool) if at_infinity is None else ~at_infinity
        out[finite] = out[finite] / out[finite, :1]
    return out


def score_points(got, want):
    """Boolean per row: output present, finite and within tolerance."""
    ok = np.zeros(len(want), dtype=bool)
    if got.shape == want.shape:
        ok = np.isfinite(got).all(axis=1) & close(got, want)
    return ok


def score_matrix(lines, want):
    try:
        got = np.array([[float(x) for x in row.split()] for row in lines])
    except ValueError:
        return False
    return got.shape == (4, 4) and bool(close(got, want).all())


def score_check(lines, kinds):
    """``check`` prints one line per fused stage: PASS on all six residuals
    for a sandwich, a skip notice for any other stage."""
    if len(lines) != len(kinds):
        return False
    for i, (line, kind) in enumerate(zip(lines, kinds), start=1):
        if kind == "sandwich":
            if not line.startswith(f"stage {i} (sandwich):") or "FAIL" in line \
                    or line.count("PASS") != 6:
                return False
        elif line != f"stage {i}: skipped (not a sandwich form)":
            return False
    return True
