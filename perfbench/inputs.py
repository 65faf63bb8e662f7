"""Seeded input generation for the three workloads.

A pipeline is a list of ``(op, params)`` steps; ``render`` writes it in the
cl33 DSL with 17 significant digits, so the program parses exactly the
values the oracle uses.  Only the parameters depend on the seed: the shape
of every pipeline and the mix of operations are fixed, so the work per run
does not change with the seed.
"""

from __future__ import annotations

import numpy as np

from oracle import GENERATOR_VERDICTS, pipeline_matrix, stage_kinds

AFFINE_POINTS = 10_000
PROJECTIVE_POINTS = 2_000
#: In the timed loop the apply points are split into this many calls, each
#: short enough (tens of milliseconds) to be read against the reference loop.
APPLY_CALLS = 20
#: Shares of projective inputs sent to infinity / behind the eye.
AT_INFINITY_SHARE = 0.10
BEHIND_EYE_SHARE = 0.20


def _num(x):
    return f"{float(x):.17g}"


def render(steps):
    lines = []
    for op, params in steps:
        parts = [op]
        for key, val in params.items():
            if np.ndim(val):
                parts.append(f"{key}=({','.join(_num(x) for x in val)})")
            else:
                parts.append(f"{key}={_num(val)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def render_points(points):
    return "".join(" ".join(_num(x) for x in row) + "\n" for row in points)


def _unit(rng, normal=None):
    """Random unit vector, orthogonal to the unit ``normal`` when given."""
    v = rng.normal(size=3)
    if normal is not None:
        v -= (v @ normal) * normal
    return v / np.linalg.norm(v)


def _pair(rng, normal=None):
    """Random orthonormal pair, both orthogonal to ``normal`` when given."""
    u = _unit(rng, normal)
    if normal is not None:
        return u, np.cross(normal, u)
    v = rng.normal(size=3)
    v -= (v @ u) * u
    return u, v / np.linalg.norm(v)


def sandwich_step(rng, op, normal=None):
    """One sandwich step; with ``normal`` its linear part keeps the
    normal component g(p, normal) of every vector."""
    if op == "reflect":
        return op, {"n": _unit(rng, normal)}
    if op == "rotate":
        u, v = _pair(rng, normal)
        return op, {"u": u, "v": v, "theta": rng.uniform(-np.pi, np.pi)}
    if op == "hrotate":
        u, v = _pair(rng, normal)
        return op, {"u": u, "v": v, "eta": rng.uniform(-0.8, 0.8)}
    if op == "shear":
        u, v = _pair(rng, normal)
        return op, {"u": u * rng.uniform(0.5, 1.5), "v": v * rng.uniform(0.5, 1.5),
                    "t": rng.uniform(-1.5, 1.5)}
    if op == "scale":
        return op, {"u": _unit(rng, normal), "t": rng.uniform(-0.7, 0.7)}
    if op == "translate":
        v = rng.uniform(-3.0, 3.0, 3)
        if normal is not None:
            # keep 1 + g(v, n) >= 0.6 so the final weight keeps its sign
            v += (rng.uniform(-0.4, 0.4) - v @ normal) * normal
        return op, {"v": v}
    raise ValueError(op)


SANDWICH_ORDER = ("reflect", "rotate", "hrotate", "shear", "scale", "translate")


def affine_pipeline(rng):
    """All six sandwich ops once, in seeded order: one fused stage."""
    return [sandwich_step(rng, SANDWICH_ORDER[i]) for i in rng.permutation(6)]


def projective_pipeline(rng):
    """sandwich | perspective | cotranslate | sandwich | pseudo | sandwich.

    The cotranslation is along the view normal n and the middle sandwich
    keeps g(p, n), so the final weight is a positive multiple of the
    perspective weight g(q - w e, n)/a: an input whose first-stage image
    lies on the eye plane ends at infinity, one behind the eye ends with
    negative weight.  Returns the steps, the first-stage steps, the eye e
    and the unit normal n.
    """
    n = _unit(rng)
    e = rng.uniform(-1.0, 1.0, 3)
    c = float(n @ e) + rng.uniform(1.0, 2.0)
    first = [sandwich_step(rng, "rotate"), sandwich_step(rng, "translate")]
    middle = [sandwich_step(rng, SANDWICH_ORDER[i], normal=n) for i in rng.permutation(6)]
    last = [sandwich_step(rng, "scale"), sandwich_step(rng, "shear")]
    steps = (first
             + [("perspective", {"eye": e, "n": n, "c": c}),
                ("cotranslate", {"v": rng.uniform(-0.3, 0.3) * n})]
             + middle
             + [("pseudo", {"n": n})]
             + last)
    return steps, first, e, n


def affine_points(rng, count):
    w = rng.uniform(0.5, 2.0, count)
    return np.column_stack([w, rng.uniform(-10.0, 10.0, (count, 3))])


def projective_points(rng, count, first, e, n):
    """Inputs whose first-stage images sit in front of the eye, behind it,
    or exactly on the eye plane, in fixed shares.  Returns the (N, 4) rows
    and the mask of rows that must come out at infinity."""
    n_inf = int(round(AT_INFINITY_SHARE * count))
    n_behind = int(round(BEHIND_EYE_SHARE * count))
    depth = np.concatenate([np.zeros(n_inf),
                            -rng.uniform(0.5, 4.0, n_behind),
                            rng.uniform(0.5, 4.0, count - n_inf - n_behind)])
    order = rng.permutation(count)
    depth = depth[order]
    w = rng.uniform(0.5, 2.0, count)
    r = rng.uniform(-3.0, 3.0, (count, 3))
    r -= np.outer(r @ n, n)
    images = np.column_stack([w, w[:, None] * (e + depth[:, None] * n + r)])
    points = np.linalg.solve(pipeline_matrix(first), images.T).T
    return points, depth == 0.0


# -- analysis-check ----------------------------------------------------------

CHECK_PIPELINES = 8
CLASSIFY_KINDS = tuple(GENERATOR_VERDICTS)
BLOCK = 7
REJECT_KINDS = ("perturb-check", "perturb-apply", "parse-error", "eye-on-plane")


def _embed(v, sign):
    """Coefficients of the embedded vector (sign=+1) or covector (sign=-1):
    (v+ + sign v-)/2 with v+ on bits 0..2 and v- on bits 3..5."""
    c = np.zeros(64)
    for i in range(3):
        c[1 << i] = v[i] / 2.0
        c[1 << (i + 3)] = sign * v[i] / 2.0
    return c


def _wedge(a, b):
    """Exterior product of two grade-1 coefficient arrays: the blade of
    bits i < j has coefficient a_i b_j - a_j b_i."""
    c = np.zeros(64)
    for i in range(6):
        for j in range(i + 1, 6):
            c[(1 << i) | (1 << j)] = a[1 << i] * b[1 << j] - a[1 << j] * b[1 << i]
    return c


def generator(rng, kind):
    """Coefficients of a homogeneous generator of the given kind."""
    if kind == "scalar":
        c = np.zeros(64)
        c[0] = rng.uniform(0.2, 1.5)
        return c
    if kind == "vector":
        return _embed(rng.normal(size=3), +1)
    if kind == "mixed-bivector":
        return _wedge(_embed(rng.normal(size=3), +1), _embed(rng.normal(size=3), -1))
    if kind == "vector-bivector":
        return _wedge(_embed(rng.normal(size=3), +1), _embed(rng.normal(size=3), +1))
    if kind == "covector-bivector":
        return _wedge(_embed(rng.normal(size=3), -1), _embed(rng.normal(size=3), -1))
    grade = GENERATOR_VERDICTS[kind][0]
    masks = np.array([m for m in range(64) if bin(m).count("1") == grade])
    c = np.zeros(64)
    c[masks] = rng.normal(size=len(masks))
    return c


def reject_pipeline(rng, kind):
    """Source text for a rejected input of the given kind."""
    if kind == "parse-error":
        variant = rng.integers(4)
        if variant == 0:
            return "rotat u=(1,0,0) v=(0,1,0) theta=0.5\n"
        if variant == 1:
            return f"translate v=({_num(rng.uniform(-1, 1))},0)\n"
        if variant == 2:
            return "scale u=(0,0,1)\n"
        return f"rotate u=(1,0,0) v=(1,0,0) theta={_num(rng.uniform(-1, 1))}\n"
    if kind == "eye-on-plane":
        e = rng.uniform(-1.0, 1.0, 3)
        n = _unit(rng)
        steps = [sandwich_step(rng, "rotate"),
                 ("perspective", {"eye": e, "n": n, "c": float(n @ e)})]
        return render(steps)
    raise ValueError(kind)


def analysis_ops(rng, write):
    """The cycle of ops the analysis child repeats until time is up.

    The cycle is made of blocks of ``BLOCK`` ops: a ``check`` and a
    ``matrix`` on an affine and on a projective pipeline, two classify
    calls and one rejected input.  Generator and reject kinds rotate from
    block to block; the child stops only at the end of a cycle, so every
    share is fixed.
    ``write(name, text)`` stores an input file and returns its path.
    Returns (ops, expectations), aligned.
    """
    ops, expect = [], []
    pts = write("reject-points.txt", render_points(affine_points(rng, 16)))
    for i in range(CHECK_PIPELINES):
        aff = affine_pipeline(rng)
        proj = projective_pipeline(rng)[0]
        for tag, steps in (("affine", aff), ("projective", proj)):
            path = write(f"{tag}-{i}.txt", render(steps))
            ops.append({"kind": "check", "argv": ["check", "--pipeline", path]})
            expect.append({"kind": "check", "units": 1, "stages": stage_kinds(steps)})
            ops.append({"kind": "matrix", "argv": ["matrix", "--pipeline", path]})
            expect.append({"kind": "matrix", "units": 1, "matrix": pipeline_matrix(steps)})
        for j in range(2):
            kind = CLASSIFY_KINDS[(2 * i + j) % len(CLASSIFY_KINDS)]
            grade, verdict, identity = GENERATOR_VERDICTS[kind]
            ops.append({"kind": "classify", "grade": grade,
                        "coeffs": generator(rng, kind).tolist()})
            expect.append({"kind": "classify", "units": 1, "verdict": verdict,
                           "identity": identity})
        kind = REJECT_KINDS[i % len(REJECT_KINDS)]
        # e1p e2p e3p, e1m e2m e3m or the pseudoscalar: added to any versor,
        # each breaks point preservation
        mask = (7, 56, 63)[rng.integers(3)]
        perturb = ["--perturb", f"{mask}:{_num(rng.uniform(0.01, 0.1))}"]
        if kind == "perturb-check":
            argv = ["check", "--pipeline", path] + perturb
        elif kind == "perturb-apply":
            argv = ["apply", "--pipeline", path, "--points", pts] + perturb
        else:
            bad = write(f"{kind}-{i}.txt", reject_pipeline(rng, kind))
            argv = ["check" if kind == "parse-error" else "matrix", "--pipeline", bad]
        ops.append({"kind": kind, "argv": argv})
        expect.append({"kind": kind, "units": 1})
    return ops, expect

