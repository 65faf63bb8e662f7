"""Self-contained acceptance checks, runnable from the CLI or the test suite.

Each check returns (passed, detail).  ``run_selftest`` executes all of them,
prints one line per check, and reports the wall-clock total (budget: under a
minute on an ordinary machine).
"""

from __future__ import annotations

import time

import numpy as np

from . import analysis, pipeline
from .blades import BLADE_COUNT, SQUARES, blade_geometric_product
from .errors import DegenerateConfigurationError, NotHodgeCompatible
from .euclid import (
    E,
    OMEGA_V,
    Paravector,
    embed_covector,
    embed_paravector,
    embed_points,
    embed_vector,
    extract_paravector,
    extract_points,
    g,
    normalize_point,
)
from .hodge import hodge_star, hodge_star_rows
from .multivector import (
    Multivector,
    exponential,
    outer_product,
    reversion,
)
from .versors import (
    COTRANSLATION,
    HYPERBOLIC,
    REFLECTION,
    ROTATION,
    SCALE,
    SHEAR,
    TRANSLATION,
    Versor,
    apply_hodge_sandwich,
    apply_sandwich,
    build,
    compose,
    cotranslation_versor,
    draft,
    hodge_conjugate_versor,
    hyperbolic_versor,
    perspective_project,
    pseudo_perspective,
    reflection_versor,
    rotation_generator,
    rotation_versor,
    sandwich_points,
    sandwich_products,
    scale_versor,
    sector_image,
    shear_versor,
    translation_versor,
)


def matrix_through_chain(stage) -> np.ndarray:
    """The 4x4 matrix of a stage read through its sandwich chain,
    ``sandwich_points``, on the weighted points of POINT_BASIS, the rows of
    the identity: column j is the image of basis point j."""
    return sandwich_points(stage, np.eye(4)).T


def rand_unit(rng):
    """A random unit 3-vector."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def rand_orthonormal(rng):
    """A random orthonormal pair of 3-vectors."""
    a = rand_unit(rng)
    b = rng.normal(size=3)
    b -= (b @ a) * a
    return a, b / np.linalg.norm(b)


def _row_devs(got, want) -> np.ndarray:
    """The deviation of each (w, x, y, z) row of ``got`` from the same row of
    ``want``: its largest coordinate difference, relative to the row's
    largest coordinate of ``want`` or to 1 when that is smaller."""
    return np.max(np.abs(got - want), axis=1) / np.maximum(1.0, np.max(np.abs(want), axis=1))


def naive_blade_product(a, b, squares=SQUARES):
    """Sorted-list oracle for blade products: concatenate the factor lists,
    bubble-sort counting swaps, collapse equal adjacent factors into their
    squares.  Returns (sign, mask)."""
    factors = [i for i in range(6) if a >> i & 1] + [i for i in range(6) if b >> i & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(factors):
        if i + 1 < len(factors) and factors[i] == factors[i + 1]:
            sign *= squares[factors[i]]
            i += 2
        else:
            out.append(factors[i])
            i += 1
    mask = 0
    for f in out:
        mask |= 1 << f
    return sign, mask


def check_algebra_axioms(squares=SQUARES):
    """Blade products against a sorted-list oracle, the defining generator
    relations, associativity, and the derived embedded-basis relations."""
    for a in range(BLADE_COUNT):
        for b in range(BLADE_COUNT):
            if blade_geometric_product(a, b) != naive_blade_product(a, b, squares):
                return False, f"blade product mismatch at masks ({a}, {b})"
    gens = [Multivector.blade(1 << i) for i in range(6)]
    for i in range(6):
        for j in range(6):
            anti = gens[i] * gens[j] + gens[j] * gens[i]
            if i < 3 and j < 3:
                want = 2.0 * (i == j) * squares[i]
            elif i >= 3 and j >= 3:
                want = 2.0 * (i == j) * squares[i]
            else:
                want = 0.0
            if not anti.approx_eq(want):
                return False, f"defining relation fails for generators ({i}, {j})"
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b, c = (Multivector(rng.normal(size=BLADE_COUNT)) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        scale = a.max_abs() * b.max_abs() * c.max_abs() * BLADE_COUNT
        if not lhs.approx_eq(rhs, atol=1e-12 + 1e-9 * scale):
            return False, "associativity failure on random triple"
        u, v = rng.normal(size=3), rng.normal(size=3)
        mu, mv = embed_vector(u), embed_vector(v)
        su, sv = embed_covector(u), embed_covector(v)
        if not (mu * mv + mv * mu).approx_eq(0.0, atol=1e-10):
            return False, "embedded vectors fail to anticommute"
        if not (su * sv + sv * su).approx_eq(0.0, atol=1e-10):
            return False, "embedded covectors fail to anticommute"
        if not (mu * sv + sv * mu).approx_eq(g(u, v), atol=1e-10):
            return False, "vector/covector anticommutator is not the metric"
    return True, "oracle x4096 blade pairs, 1000 random triples"


def check_transform_formulas():
    """Sandwich results against the closed-form right-hand sides.

    Every versor of the 1000 draws is made by one ``build`` call, and each
    draw's point goes through each of its versors, and through the series
    exponential of its rotation generator, in ``versors.sandwich_products``
    with one versor per row: the library's sandwich routine, which stage
    images and points take with one versor for every row.  The first draw
    is also taken through each transform's sandwich chain,
    ``sandwich_points``, and through the products of multivectors, which
    must give the batched rows byte for byte.
    """
    rng = np.random.default_rng(12)
    drafts, points, series, closed, cotranslated = [], [], [], [], []
    for _ in range(1000):
        p = rng.uniform(-2, 2, 3)
        n = rand_unit(rng)
        u, v = rand_orthonormal(rng)
        th = rng.uniform(-np.pi, np.pi)
        series.append(exponential(rotation_generator(u, v, th)).coeffs)
        eta = rng.uniform(-2, 2)
        pu, pv = p @ u, p @ v
        hyp = (u * (pu * np.cosh(eta) + pv * np.sinh(eta))
               + v * (pv * np.cosh(eta) + pu * np.sinh(eta))
               + (p - pu * u - pv * v))
        t = rng.uniform(-3, 3)
        shear = p + t * (p @ v) * u
        t2 = rng.uniform(-2, 2)
        ppar = (p @ u) * u
        w = rng.uniform(-2, 2, 3)
        drafts += [draft(REFLECTION, n), draft(ROTATION, u, v, th), draft(HYPERBOLIC, u, v, eta),
                   draft(SHEAR, u, v, t), draft(SCALE, u, t2), draft(TRANSLATION, w),
                   draft(COTRANSLATION, w)]
        points.append([1.0, *p])
        closed += [[1.0, *(p - 2 * (p @ n) * n)], [1.0, *hyp], [1.0, *shear],
                   [1.0, *((p - ppar) + np.exp(t2) * ppar)], [1.0, *(p + w)]]
        cotranslated.append([1.0 + g(p, w), *p])
    transforms = build(drafts)
    sandwiches = [tr for tr in transforms if isinstance(tr, Versor)]
    stars = transforms[6::7]
    embedded = embed_points(points)
    signs = np.array([tr.epsilon for tr in sandwiches], dtype=np.float64)[:, None]
    got = extract_points(signs * sandwich_products(np.array([tr.U.coeffs for tr in sandwiches]),
                                                   np.repeat(embedded, 6, axis=0)))
    cot = extract_points(hodge_star_rows(sandwich_products(
        np.array([tr.uprime.coeffs for tr in stars]), hodge_star_rows(embedded))))
    ser = extract_points(sandwich_products(np.array(series), embedded))
    got = got.reshape(-1, 6, 4)
    first = embed_paravector(Paravector(1.0, np.array(points[0][1:])))
    rotated = Multivector(series[0])
    own = [sandwich_points(tr, points[:1]) for tr in transforms[:7]]
    own.append(extract_points([(rotated * first * reversion(rotated)).coeffs]))
    if np.concatenate(own).tobytes() != np.concatenate((got[0], cot[:1], ser[:1])).tobytes():
        return False, "batched sandwiches differ from the transforms' own point paths"
    # the rotation against its series, the other five against their closed forms
    worst = float(max(np.max(_row_devs(got[:, 1], ser)),
                      np.max(_row_devs(np.delete(got, 1, axis=1).reshape(-1, 4), np.array(closed))),
                      np.max(_row_devs(cot, np.array(cotranslated)))))
    ok = worst <= 1e-9
    return ok, f"1000 draws per transform, worst relative deviation {worst:.2e}"


def check_hodge_star():
    """Star twice is the identity on the Euclidean exterior algebra, plus the
    three fixed values with their exact factors."""
    w = outer_product
    basis = [Multivector.scalar(1.0), E[0], E[1], E[2],
             w(E[0], E[1]), w(E[0], E[2]), w(E[1], E[2]), OMEGA_V]
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a = Multivector()
        for coeff, b in zip(rng.normal(size=8), basis):
            a = a + float(coeff) * b
        if not hodge_star(hodge_star(a)).approx_eq(a):
            return False, "star twice is not the identity on a random element"
    if not hodge_star(Multivector.scalar(1.0)).approx_eq(OMEGA_V):
        return False, "star of 1 is not the volume trivector"
    gens = [Multivector.blade(1 << i) for i in range(6)]
    sector_sum_12 = Multivector()
    for sa in (0, 3):
        for sb in (0, 3):
            sector_sum_12 = sector_sum_12 + w(gens[0 + sa], gens[1 + sb])
    if not hodge_star(sector_sum_12).approx_eq(2.0 * (gens[2] + gens[5])):
        return False, "sector-sum bivector star value is off"
    v = rng.normal(size=3)
    triple = w(sector_sum_12, embed_vector(v))
    if not hodge_star(triple).approx_eq(4.0 * v[2], atol=1e-12, rtol=1e-12):
        return False, "sector-sum trivector star value is off"
    return True, "1000 random round trips, fixed values exact"


def check_perspective():
    """Projection against the line-plane intersection oracle; degenerate
    configurations rejected; pseudo-perspective maps the eye to infinity and
    matches its homogeneous matrix."""
    rng = np.random.default_rng(14)
    done = 0
    while done < 100:
        e = rng.uniform(-2, 2, 3)
        n = rand_unit(rng)
        c = rng.uniform(-2, 2)
        a = c - n @ e
        if abs(a) < 0.1:
            continue
        q = rng.normal(size=3)
        q -= (q @ n) * n
        p = e + rng.uniform(0.1, 3.0) * (a * n + q)
        out = perspective_project(Paravector(1.0, e), n, c, Paravector(1.0, p))
        if out.weight <= 0:
            return False, "front point produced non-positive weight"
        loc = normalize_point(out).vector
        ell = e + a * (p - e) / (n @ (p - e))
        if np.max(np.abs(loc - ell)) > 1e-9 * max(1.0, np.max(np.abs(ell))):
            return False, "projection disagrees with the intersection oracle"
        if abs(n @ loc - c) > 1e-9 * max(1.0, abs(c)):
            return False, "projected point is off the plane"
        done += 1
    try:
        perspective_project(Paravector(1.0, [0, 0, 1]), [0, 0, 1], 1.0,
                            Paravector(1.0, [1, 1, 2]))
        return False, "eye-on-plane configuration was not rejected"
    except DegenerateConfigurationError:
        pass
    n = np.array([0.0, 0.0, 1.0])
    eye_image = pseudo_perspective(n, Paravector(1.0, -n))
    if not (eye_image.is_at_infinity and np.allclose(eye_image.vector, -n, atol=1e-15)):
        return False, "pseudo-perspective does not send the eye to infinity"
    for _ in range(100):
        n = rand_unit(rng)
        p = rng.uniform(-2, 2, 3)
        out = pseudo_perspective(n, Paravector(1.0, p))
        m = np.eye(4)
        m[0, 1:] = n
        hom = m @ np.concatenate(([1.0], p))
        if _row_devs(np.array([[out.weight, *out.vector]]), hom[None])[0] > 1e-9:
            return False, "pseudo-perspective disagrees with its matrix"
    return True, "100 configurations per projection"


def check_hodge_equivalence():
    """Sandwich and star-sandwich forms agree for the five compatible kinds.

    The scale row needs the Hodge versor e^{t/2} D(u; -t): the prefactor is
    determined by the volume-scaling condition (rev U*) Omega U* = lam^2
    Omega, and any other scale changes the output weight.
    """
    rng = np.random.default_rng(15)
    t = 0.9
    u, v = rand_orthonormal(rng)
    rows = [
        ("reflection", reflection_versor(rand_unit(rng)), 1.0),
        ("rotation", rotation_versor(u, v, 1.2), 1.0),
        ("hyperbolic", hyperbolic_versor(u, v, -0.8), 1.0),
        ("shear", shear_versor(u, v, 1.5), 1.0),
        ("scale", scale_versor(u, t), float(np.exp(t / 2))),
    ]
    for name, versor, lam_expected in rows:
        h = hodge_conjugate_versor(versor)
        if abs(h.lam - lam_expected) > 1e-12 * max(1.0, lam_expected):
            return False, f"{name}: lam = {h.lam:.12g}, expected {lam_expected:.12g}"
        for _ in range(100):
            p = Paravector(rng.uniform(-1, 1), rng.uniform(-2, 2, 3))
            a1 = apply_sandwich(versor, p)
            a2 = apply_hodge_sandwich(h, p)
            if _row_devs(np.array([[a2.weight, *a2.vector]]),
                         np.array([[a1.weight, *a1.vector]]))[0] > 1e-9:
                return False, f"{name}: forms disagree"
    return True, "5 kinds x 100 points; lam = (1, 1, 1, 1, e^(t/2))"


def check_translation_incompatibility():
    """Translations fail the volume-scaling condition with a visible residual."""
    rng = np.random.default_rng(16)
    for _ in range(50):
        v = rng.uniform(-2, 2, 3)
        if np.linalg.norm(v) < 0.1:
            continue
        try:
            hodge_conjugate_versor(translation_versor(v))
            return False, "translation accepted as Hodge-compatible"
        except NotHodgeCompatible as exc:
            if exc.residual <= 1e-6:
                return False, f"translation residual too small: {exc.residual:.3e}"
    return True, "50 random translations rejected"


def check_classification():
    """Composed families accepted at rounding level; generators of grades
    3..6 and covector bivectors rejected; grades 0, 1 and rank-1 mixed
    bivectors accepted."""
    for res in analysis.composed_family_report():
        if not res.passed:
            return False, (f"family {res.family} (eps={res.eps}, eta={res.eta}) "
                           f"residual {res.max_residual:.3e}")
    rng = np.random.default_rng(17)
    from .blades import GRADES

    for k in (3, 4, 5, 6):
        coeffs = np.where(GRADES == k, rng.normal(size=BLADE_COUNT), 0.0)
        verdict = analysis.classify_infinitesimal(k, Multivector(coeffs))
        if verdict.verdict != analysis.REJECT or verdict.max_residual <= 1e-6:
            return False, f"grade-{k} generator not rejected"
    cov2 = outer_product(embed_covector(rng.normal(size=3)),
                         embed_covector(rng.normal(size=3)))
    if analysis.classify_infinitesimal(2, cov2).verdict != analysis.REJECT:
        return False, "covector bivector not rejected"
    if analysis.classify_infinitesimal(0, Multivector.scalar(0.7)).verdict != analysis.ACCEPT:
        return False, "scalar generator not accepted"
    if analysis.classify_infinitesimal(1, embed_vector(rng.normal(size=3))).verdict \
            != analysis.ACCEPT:
        return False, "vector generator not accepted"
    mixed = outer_product(embed_vector(rng.normal(size=3)),
                          embed_covector(rng.normal(size=3)))
    if analysis.classify_infinitesimal(2, mixed).verdict != analysis.ACCEPT:
        return False, "rank-1 mixed bivector not accepted"
    null2 = outer_product(E[0], E[1])
    c2 = analysis.classify_infinitesimal(2, null2)
    if not (c2.verdict == analysis.ACCEPT and c2.acts_as_identity):
        return False, "vector-vector bivector should be accepted as a null action"
    return True, "families at rounding; grade/covector rejections confirmed"


def check_projective_matrices():
    """First-order matrices against direct evaluation at eps = 1e-4, probe
    matrices against the transforms they summarize, and each stage matrix
    (a sandwich, a star-sandwich and fused composites) against its basis
    points read through ``apply``, byte for byte."""
    rng = np.random.default_rng(18)
    eps = 1e-4
    worst = 0.0
    for _ in range(100):
        v, a, b = (rng.uniform(-1, 1, 3) for _ in range(3))
        psi = (1.0 + eps * embed_vector(v)) * \
            (1.0 + eps * outer_product(embed_vector(a), embed_covector(b)))
        maff = analysis.affine_matrix(v, a, b, eps)
        mcot = analysis.cotranslation_matrix(v, a, b, eps)
        for _ in range(3):
            p = rng.uniform(-1, 1, 3)
            hom = np.concatenate(([1.0], p))
            direct = extract_paravector(
                psi * embed_paravector(Paravector(1.0, p)) * reversion(psi))
            want = maff @ hom
            worst = max(worst, abs(direct.weight - want[0]),
                        float(np.max(np.abs(direct.vector - want[1:]))))
            hs = hodge_star(psi * hodge_star(embed_paravector(Paravector(1.0, p)))
                            * reversion(psi))
            directc = extract_paravector(hs)
            wantc = mcot @ hom
            worst = max(worst, abs(directc.weight - wantc[0]),
                        float(np.max(np.abs(directc.vector - wantc[1:]))))
    if worst > 1e-6:
        return False, f"first-order matrix deviation {worst:.3e} exceeds 1e-6"
    u, w2 = rand_orthonormal(rng)
    pipelines = [
        compose([translation_versor([1, 2, 3])]),
        compose([rotation_versor(u, w2, 0.8),
                 scale_versor(u, 0.5),
                 cotranslation_versor([0.3, -0.2, 0.7])]),
        compose([reflection_versor(rand_unit(rng)),
                 shear_versor(u, w2, 1.1)]),
    ]
    stages = [stage for tr in pipelines for stage in tr.stages]
    for stage in stages:
        if stage.matrix.tobytes() != matrix_through_chain(stage).tobytes():
            return False, (f"{type(stage).__name__} matrix differs from its basis "
                           "points read through its sandwich chain")
    n_each = -(-1000 // len(pipelines))
    for tr in pipelines:
        m = analysis.projective_matrix_probe(tr)
        # weights in +-1, vector parts in +-2, drawn row by row
        pts = rng.uniform([-1, -2, -2, -2], [1, 2, 2, 2], (n_each, 4))
        if np.any(_row_devs(sandwich_points(tr, pts), pts @ m.T) > 1e-9):
            return False, "probe matrix disagrees with its transform"
    return True, (f"100 parameter draws; {n_each * len(pipelines)} matrix points; "
                  f"{len(stages)} stage matrices equal their sandwich chain on the basis")


def check_sector_behavior():
    """Reflection and rotation preserve the sector subspaces; hyperbolic,
    shear, scale, and translation leak across with visible coefficients."""
    rng = np.random.default_rng(19)
    u, v = rand_orthonormal(rng)
    keep = [reflection_versor(rand_unit(rng)), rotation_versor(u, v, 1.3)]
    for versor in keep:
        rep = sector_image(versor)
        if not (rep.preserves_plus and rep.preserves_minus):
            return False, f"{versor.kind} failed to preserve the sectors"
        if max(rep.plus_off_sector, rep.minus_off_sector) > 1e-12:
            return False, f"{versor.kind} off-sector leakage above 1e-12"
    mix = [hyperbolic_versor(u, v, 0.9), shear_versor(u, v, 1.2),
           scale_versor(u, 0.7), translation_versor(rng.uniform(-1, 1, 3))]
    for versor in mix:
        rep = sector_image(versor)
        if min(rep.plus_off_sector, rep.minus_off_sector) <= 1e-6:
            return False, f"{versor.kind} did not mix the sectors"
    return True, "reflection/rotation preserve; the other four mix"


def check_cli_round_trip():
    """Pipeline + inverse returns the input; apply's matrix path reproduces
    the versor chain and the printed matrix; the documented exit codes fire
    on fixture inputs."""
    import tempfile
    from pathlib import Path

    from .cli import main

    rng = np.random.default_rng(20)
    src = ("rotate u=(1,0,0) v=(0,1,0) theta=0.7\n"
           "scale u=(0,0,1) t=0.4\n"
           "translate v=(0.5,-1,2)\n"
           "shear u=(0,1,0) v=(0,0,1) t=0.9\n")
    pipe = pipeline.parse_pipeline(src)
    fwd = pipe.composed()
    bwd = pipeline.inverse_pipeline(pipe).composed()
    pts = np.column_stack((np.ones(1000), rng.uniform(-2, 2, (1000, 3))))
    images = sandwich_points(fwd, pts)
    if np.any(_row_devs(sandwich_points(bwd, images), pts) > 1e-9):
        return False, "pipeline + inverse does not return the input"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "pipe.txt").write_text(src)
        (tmp / "pts.txt").write_text(pipeline.format_points(pts))
        out_lines = []
        code = main(["apply", "--pipeline", str(tmp / "pipe.txt"),
                     "--points", str(tmp / "pts.txt")], _capture=out_lines)
        if code != 0:
            return False, f"apply exited {code}"
        matrix_lines = []
        code = main(["matrix", "--pipeline", str(tmp / "pipe.txt")], _capture=matrix_lines)
        if code != 0:
            return False, f"matrix exited {code}"
        m = np.array([[float(x) for x in row.split()] for row in matrix_lines])
        applied = pipeline.parse_points("\n".join(out_lines))
        for want, name in ((images, "versor chain"), (pts @ m.T, "printed matrix")):
            if np.any(_row_devs(applied, want) > 1e-9):
                return False, f"apply output disagrees with the {name}"
        (tmp / "bad.txt").write_text("rotate u=(1,0,0) v=(1,0,0) theta=1\n")
        if main(["check", "--pipeline", str(tmp / "bad.txt")], _capture=[]) != 2:
            return False, "semantic error did not exit 2"
        (tmp / "degen.txt").write_text("perspective eye=(0,0,1) n=(0,0,1) c=1\n")
        if main(["apply", "--pipeline", str(tmp / "degen.txt"),
                 "--points", str(tmp / "pts.txt")], _capture=[]) != 3:
            return False, "degenerate geometry did not exit 3"
        if main(["apply", "--pipeline", str(tmp / "pipe.txt"),
                 "--points", str(tmp / "pts.txt"), "--perturb", "7:0.01"],
                _capture=[]) != 4:
            return False, "residue did not exit 4"
        if main(["check", "--pipeline", str(tmp / "pipe.txt"),
                 "--perturb", "7:0.01"], _capture=[]) != 5:
            return False, "condition failure did not exit 5"
    return True, "1000 round-trip points; exit codes 2, 3, 4, 5 exercised"


ACCEPTANCE_CHECKS = (
    ("algebra-axioms", check_algebra_axioms),
    ("transform-formulas", check_transform_formulas),
    ("hodge-star", check_hodge_star),
    ("perspective", check_perspective),
    ("hodge-equivalence", check_hodge_equivalence),
    ("translation-incompatibility", check_translation_incompatibility),
    ("infinitesimal-classification", check_classification),
    ("projective-matrices", check_projective_matrices),
    ("sector-behavior", check_sector_behavior),
    ("cli-round-trip", check_cli_round_trip),
)


def run_selftest(emit=print) -> bool:
    """Run every acceptance check; one line each, ending in its wall time;
    True iff all pass."""
    start = time.perf_counter()
    all_ok = True
    for name, fn in ACCEPTANCE_CHECKS:
        t0 = time.perf_counter()
        ok, detail = fn()
        all_ok &= ok
        emit(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{time.perf_counter() - t0:.2f}s]")
    elapsed = time.perf_counter() - start
    emit(f"{'PASS' if all_ok else 'FAIL'} total ({elapsed:.1f}s)")
    return all_ok
