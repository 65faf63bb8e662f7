import warnings

import numpy as np
import pytest

from cl33 import analysis, versors
from cl33 import (
    E,
    E_STAR,
    I_FULL,
    DomainError,
    Multivector,
    NonParavectorResidue,
    NotLinearError,
    OMEGA_V,
    POINT_BASIS,
    Paravector,
    Transform,
    affine_matrix,
    classify_infinitesimal,
    composed_family_report,
    compose,
    cotranslation_matrix,
    cotranslation_versor,
    embed_covector,
    embed_paravector,
    embed_vector,
    extract_paravector,
    correction_terms,
    g,
    grade_parts,
    hodge_star,
    hyperbolic_versor,
    outer_product,
    paravector_conditions,
    probe_points,
    projective_matrix_probe,
    reflection_versor,
    reversion,
    rotation_versor,
    scale_versor,
    shear_versor,
    translation_versor,
    vector_contract,
    worst_residuals,
)
from cl33.analysis import (
    ACCEPT,
    INCONCLUSIVE,
    REJECT,
    RESIDUALS,
    family_two_mixed,
    family_two_vectors,
    family_vector_mixed,
)
from cl33.blades import GRADES
from cl33.pipeline import parse_pipeline
from cl33.selftest import rand_orthonormal, rand_unit
from cl33.versors import PerspectiveMap
from helpers import perspective_oracle_matrix

W = outer_product


def random_homogeneous(rng, k):
    return Multivector(np.where(GRADES == k, rng.normal(size=64), 0.0))


# -- grade parts -----------------------------------------------------------------

def test_grade_parts_examples():
    parts = grade_parts(1.0 + E[0])
    assert parts[0].approx_eq(1.0)
    assert parts[1].approx_eq(E[0])
    assert all(parts[k].is_zero() for k in range(2, 7))

    t = translation_versor([0.4, -0.2, 1.0])
    parts = grade_parts(t.U)
    assert parts[0].approx_eq(1.0)
    assert parts[1].approx_eq(0.5 * embed_vector([0.4, -0.2, 1.0]))
    assert all(parts[k].is_zero() for k in range(2, 7))

    refl = reflection_versor([0, 0, 1])
    parts = grade_parts(refl.U)
    assert not parts[2].is_zero()
    assert all(parts[k].is_zero() for k in (1, 3, 4, 5, 6))
    assert sum(parts[1:], parts[0]).approx_eq(refl.U)


def test_grade_parts_reconstruct():
    rng = np.random.default_rng(0)
    psi = Multivector(rng.normal(size=64))
    total = Multivector()
    for part in grade_parts(psi):
        total = total + part
    assert total.approx_eq(psi)


# -- correction terms --------------------------------------------------------------

def test_corrections_vanish_without_high_grades():
    parts = grade_parts(1.0 + embed_vector([1, 2, 3]) + W(E[0], embed_covector([0, 1, 0])))
    p = embed_vector([0.3, 0.7, -0.2])
    d1, d2, d3, d4 = correction_terms(parts, p)
    assert d1.is_zero() and d2.is_zero() and d3.is_zero() and d4.is_zero()
    with pytest.raises(DomainError, match="grade 1"):
        correction_terms(parts, 1.0 + p)


def test_family_two_reduction_terms_vanish():
    rng = np.random.default_rng(1)
    v, a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    psi = family_vector_mixed(0.1, 0.01, v, a, b)
    parts = grade_parts(psi)
    for p in probe_points(extra=4):
        pm = embed_vector(p)
        assert (parts[2] * pm * parts[3]).grade(4).is_zero(1e-14)
        assert (parts[3] * pm * parts[3]).grade(5).is_zero(1e-14)


def test_family_three_reduction_terms_vanish():
    rng = np.random.default_rng(2)
    u, v, a, b = (rng.uniform(-1, 1, 3) for _ in range(4))
    psi = family_two_mixed(0.1, 0.1, u, v, a, b)
    parts = grade_parts(psi)
    assert (parts[2] * parts[4]).grade(4).is_zero(1e-14)
    for p in probe_points(extra=4):
        pm = embed_vector(p)
        assert (parts[4] * pm * parts[4]).grade(5).is_zero(1e-15)


def test_family_displayed_grade_parts():
    rng = np.random.default_rng(3)
    eps, eta = 0.1, 0.01
    v, u, a, b = (rng.uniform(-1, 1, 3) for _ in range(4))
    psi = family_vector_mixed(eps, eta, v, a, b)
    mv, ma, mbs = embed_vector(v), embed_vector(a), embed_covector(b)
    assert psi.grade(0).approx_eq(1.0)
    assert psi.grade(1).approx_eq(eps * mv - 0.5 * eps * eta * g(v, b) * ma)
    assert psi.grade(2).approx_eq(eta * W(ma, mbs))
    assert psi.grade(3).approx_eq(eps * eta * W(W(mv, ma), mbs))

    psi = family_two_mixed(eps, eta, u, v, a, b)
    mu, mvs = embed_vector(u), embed_covector(v)
    assert psi.grade(0).approx_eq(1.0 + 0.25 * eps * eta * g(u, b) * g(v, a))
    want2 = (eps * W(mu, mvs) + eta * W(ma, mbs)
             + 0.5 * eps * eta * (g(v, a) * W(mu, mbs) + g(u, b) * W(mvs, ma)))
    assert psi.grade(2).approx_eq(want2)
    assert psi.grade(4).approx_eq(eps * eta * W(W(W(mu, mvs), ma), mbs))

    psi = family_two_vectors(eps, eta, v, u)
    assert psi.grade(1).approx_eq(eps * mv + eta * mu)
    assert psi.grade(2).approx_eq(eps * eta * W(mv, mu))


# -- conditions ---------------------------------------------------------------------

def test_conditions_vanish_for_every_sandwich_versor():
    rng = np.random.default_rng(4)
    u, v = rand_orthonormal(rng)
    versors = [reflection_versor(rand_unit(rng)), rotation_versor(u, v, 1.2),
               shear_versor(u, v, 0.8), scale_versor(u, -0.5),
               translation_versor(rng.normal(size=3))]
    for versor in versors:
        for p in probe_points(extra=4):
            rep = paravector_conditions(versor.U, p)
            assert rep.max_residual() < 1e-11, versor.kind


def test_conditions_covector_residual_detected():
    psi = 1.0 + 0.01 * W(embed_covector([1, 0, 0]), embed_covector([0, 1, 0]))
    rep = paravector_conditions(psi, [0.3, 0.5, -0.2])
    assert rep.r1.is_zero(1e-15) and rep.r2.is_zero(1e-15)
    assert rep.covector_residual.max_abs() > 1e-4


def test_conditions_mixed_bivector_exact():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=3), rng.normal(size=3)
    psi = 1.0 + 0.01 * W(embed_vector(a), embed_covector(b))
    for p in probe_points(extra=4):
        rep = paravector_conditions(psi, p)
        assert rep.max_residual() < 1e-14


def test_conditions_detect_grade3():
    rng = np.random.default_rng(6)
    psi = 1.0 + 0.01 * random_homogeneous(rng, 3)
    worst = max(paravector_conditions(psi, p).max_residual() for p in probe_points())
    assert worst > 1e-6


def test_conditions_equal_direct_grade_parts():
    # on arbitrary operators the four conditions are exactly the grade-4/5
    # parts of Psi (rev Psi) and Psi p (rev Psi)
    rng = np.random.default_rng(60)
    for _ in range(20):
        psi = Multivector(rng.normal(size=64))
        p = rng.normal(size=3)
        rep = paravector_conditions(psi, p)
        pm = embed_vector(p)
        sym = psi * reversion(psi)
        mid = psi * pm * reversion(psi)
        scale = 1e-9 * max(1.0, psi.max_abs() ** 2 * 64)
        assert rep.r1.approx_eq(sym.grade(4), atol=scale)
        assert rep.r2.approx_eq(sym.grade(5), atol=scale)
        assert rep.r3.approx_eq(mid.grade(4), atol=scale)
        assert rep.r4.approx_eq(mid.grade(5), atol=scale)


def test_conditions_vanish_for_mixed_composites():
    # composites carrying both a scalar and a grade-5 part (rotation fused
    # with translation) still satisfy every condition
    rng = np.random.default_rng(61)
    u, v = rand_orthonormal(rng)
    composite = translation_versor(rng.normal(size=3)).U * rotation_versor(u, v, 0.8).U
    assert not composite.grade(5).is_zero(1e-12)
    for p in probe_points(extra=4):
        rep = paravector_conditions(composite, p)
        assert rep.max_residual() < 1e-12


# -- classification -----------------------------------------------------------------

def test_classify_accepts_stated_generators():
    rng = np.random.default_rng(7)
    assert classify_infinitesimal(0, Multivector.scalar(1.3)).verdict == ACCEPT
    res = classify_infinitesimal(1, embed_vector(rng.normal(size=3)))
    assert res.verdict == ACCEPT and not res.acts_as_identity
    mixed = W(embed_vector(rng.normal(size=3)), embed_covector(rng.normal(size=3)))
    assert classify_infinitesimal(2, mixed).verdict == ACCEPT


def test_classify_vector_vector_bivector_is_null_action():
    res = classify_infinitesimal(2, W(E[0], E[1]))
    assert res.verdict == ACCEPT
    assert res.acts_as_identity


def test_classify_rejects_high_grades_and_covectors():
    rng = np.random.default_rng(8)
    for k in (3, 4, 5, 6):
        res = classify_infinitesimal(k, random_homogeneous(rng, k))
        assert res.verdict == REJECT, k
        assert res.max_residual > 1e-6
    cov = W(embed_covector([1, 0, 0]), embed_covector([0, 1, 0]))
    assert classify_infinitesimal(2, cov).verdict == REJECT
    covec = embed_covector(rng.normal(size=3))
    assert classify_infinitesimal(1, covec).verdict == REJECT


def test_classify_validates_homogeneity():
    with pytest.raises(ValueError):
        classify_infinitesimal(2, 1.0 + E[0])


def test_classify_inconclusive_band_exists():
    # a tiny grade-5 generator lands between the accept and reject thresholds
    rng = np.random.default_rng(9)
    psi = 1e-8 * random_homogeneous(rng, 5)
    res = classify_infinitesimal(5, psi)
    assert res.verdict == INCONCLUSIVE
    assert res.detail


# -- matrices -----------------------------------------------------------------------

def test_affine_matrix_identity_at_zero():
    assert np.allclose(affine_matrix([0, 0, 0], [0, 0, 0], [0, 0, 0], 0.1), np.eye(4))
    assert np.allclose(cotranslation_matrix([0, 0, 0], [0, 0, 0], [0, 0, 0], 0.1), np.eye(4))


def test_affine_matrix_structure():
    m = affine_matrix([1, 2, 3], [1, 0, 0], [0, 1, 0], 0.1)
    assert np.allclose(m[0], [1, 0, 0, 0])
    assert np.allclose(m[1:, 0], [0.2, 0.4, 0.6])
    want_block = np.eye(3)
    want_block[0, 1] = 0.1
    assert np.allclose(m[1:, 1:], want_block)


def test_cotranslation_matrix_structure():
    v, a, b, eps = [1, 2, 3], [1, 0, 0], [0, 1, 0], 0.1
    m = cotranslation_matrix(v, a, b, eps)
    assert np.allclose(m[0], [1, 0.2, 0.4, 0.6])
    assert np.allclose(m[1:, 0], 0)
    want_block = np.eye(3)
    want_block[1, 0] = -0.1  # -eps a^j b^i at row i=2, column j=1
    assert np.allclose(m[1:, 1:], want_block)


def test_first_order_matrices_against_direct_evaluation():
    rng = np.random.default_rng(10)
    eps = 1e-4
    worst = 0.0
    for _ in range(40):
        v, a, b = (rng.uniform(-1, 1, 3) for _ in range(3))
        psi = (1.0 + eps * embed_vector(v)) * \
            (1.0 + eps * W(embed_vector(a), embed_covector(b)))
        maff = affine_matrix(v, a, b, eps)
        mcot = cotranslation_matrix(v, a, b, eps)
        for _ in range(3):
            p = rng.uniform(-1, 1, 3)
            hom = np.concatenate(([1.0], p))
            from cl33 import extract_paravector

            direct = extract_paravector(
                psi * embed_paravector(Paravector(1.0, p)) * reversion(psi))
            got = np.concatenate(([direct.weight], direct.vector))
            worst = max(worst, float(np.max(np.abs(got - maff @ hom))))
            inner = psi * hodge_star(embed_paravector(Paravector(1.0, p))) * reversion(psi)
            directc = extract_paravector(hodge_star(inner))
            gotc = np.concatenate(([directc.weight], directc.vector))
            worst = max(worst, float(np.max(np.abs(gotc - mcot @ hom))))
    assert worst <= 1e-6


def test_star_sandwich_bracket_identities():
    # the exact first-order building blocks of the star-sandwich matrix
    rng = np.random.default_rng(11)
    for _ in range(25):
        v, p, a, b = (rng.normal(size=3) for _ in range(4))
        mv, mp = embed_vector(v), embed_vector(p)
        ma, mbs = embed_vector(a), embed_covector(b)
        s1 = hodge_star(Multivector.scalar(1.0))
        sp = hodge_star(mp)
        bivec = W(ma, mbs)
        assert hodge_star(mv * s1 + s1 * mv).is_zero(1e-12)
        # the weight picks up twice the metric pairing (the versor carries
        # half the displacement)
        assert hodge_star(mv * sp + sp * mv).approx_eq(2.0 * g(v, p), atol=1e-10)
        assert hodge_star(bivec * s1 - s1 * bivec).approx_eq(g(a, b), atol=1e-10)
        want = g(a, b) * mp - g(a, p) * embed_vector(b)
        assert hodge_star(bivec * sp - sp * bivec).approx_eq(want, atol=1e-10)


def test_projective_matrix_probe_translation():
    tr = compose([translation_versor([1, 2, 3])])
    m = projective_matrix_probe(tr)
    want = np.eye(4)
    want[1:, 0] = [1, 2, 3]
    assert np.allclose(m, want, atol=1e-12)


def test_projective_matrix_probe_cotranslation():
    tr = compose([cotranslation_versor([0.5, -1.0, 2.0])])
    m = projective_matrix_probe(tr)
    want = np.eye(4)
    want[0, 1:] = [0.5, -1.0, 2.0]
    assert np.allclose(m, want, atol=1e-12)


def test_projective_matrix_probe_perspective():
    eye = Paravector(1.0, [0.2, -0.3, 0.0])
    n = np.array([0.0, 0.0, 1.0])
    c = 1.0
    tr = PerspectiveMap(eye, n, c)
    m = projective_matrix_probe(tr)
    # rank deficient, and the eye maps to the zero 4-vector
    assert np.linalg.matrix_rank(m, tol=1e-9) == 3
    assert np.allclose(m @ np.array([1.0, 0.2, -0.3, 0.0]), 0.0, atol=1e-12)
    # agrees with the homogeneous oracle up to overall scale
    oracle = perspective_oracle_matrix(eye.vector, n, c)
    ratio = m[np.abs(oracle) > 1e-9] / oracle[np.abs(oracle) > 1e-9]
    assert np.allclose(ratio, ratio.flat[0], atol=1e-9)


def test_matrix_probe_idempotent():
    rng = np.random.default_rng(12)
    u, v = rand_orthonormal(rng)
    tr = compose([rotation_versor(u, v, 0.7),
                  scale_versor(u, 0.3),
                  cotranslation_versor([0.1, 0.2, 0.3])])
    m = projective_matrix_probe(tr)
    # probing again returns the matrix the transform keeps
    assert projective_matrix_probe(tr) is m


def test_matrix_probe_rejects_nonlinear():
    class Quadratic(Transform):
        def apply_points(self, points):
            points = np.asarray(points, dtype=np.float64).reshape(-1, 4)
            return np.array([[r[0], *(r[1:] * float(np.sum(r[1:])))] for r in points])

        def images(self):
            return np.array([b.coeffs for b in POINT_BASIS])

    # a user's Transform has no a-priori bound: the probe always runs
    quadratic = Quadratic()
    rows = analysis._MATRIX_PROBE_ROWS
    assert not analysis._certified(quadratic, rows @ quadratic.matrix.T, rows)
    with pytest.raises(NotLinearError):
        projective_matrix_probe(quadratic)


def test_matrix_probe_raises_the_first_points_error():
    # point 3 fails extraction and point 1 deviates: the batch raises point
    # 3's residue, and the probe raises what checking the points one at a
    # time raises, point 1's NotLinearError
    rows = analysis._MATRIX_PROBE_ROWS

    class Faulty(Transform):
        def apply_points(self, points):
            out = []
            for r in np.asarray(points, dtype=np.float64).reshape(-1, 4):
                p = Paravector(r[0], r[1:])
                if p.weight == rows[2, 0]:
                    p = extract_paravector(embed_paravector(p) + Multivector.blade(0b11))
                elif p.weight == rows[0, 0]:
                    p = Paravector(p.weight + 1.0, p.vector)
                out.append([p.weight, *p.vector])
            return np.array(out).reshape(-1, 4)

        def images(self):
            return np.array([b.coeffs for b in POINT_BASIS])

    with pytest.raises(NonParavectorResidue):
        Faulty().apply_points(rows)
    assert not analysis._certified(Faulty(), rows @ Faulty().matrix.T, rows)
    with pytest.raises(NotLinearError, match="deviates from its probe matrix by 1.0"):
        projective_matrix_probe(Faulty())


def test_matrix_probe_refuses_nan_deviations():
    # the matrix is read off the basis and is the identity, but every probe
    # point comes back with a NaN weight: a deviation of NaN is within no
    # bound
    class NaNWeights(Transform):
        def apply_points(self, points):
            out = np.array(points, dtype=np.float64).reshape(-1, 4)
            out[:, 0] = np.nan
            return out

        def images(self):
            return np.array([b.coeffs for b in POINT_BASIS])

    assert np.array_equal(NaNWeights().matrix, np.eye(4))
    with pytest.raises(NotLinearError, match="deviates from its probe matrix by nan at a random"):
        projective_matrix_probe(NaNWeights())


# -- identities and reports ------------------------------------------------------------

def test_grade4_wedge_identity():
    rng = np.random.default_rng(13)
    for _ in range(15):
        a4 = random_homogeneous(rng, 4)
        p = embed_vector(rng.normal(size=3))
        lhs = (a4 * p * a4).grade(5)
        rhs = -1.0 * W((a4 * a4).grade(4), p)
        assert lhs.approx_eq(rhs, atol=1e-9 * max(1.0, lhs.max_abs()))


def test_even_versors_do_not_mix_weight_and_vector():
    rng = np.random.default_rng(14)
    u, v = rand_orthonormal(rng)
    n = rand_unit(rng)
    refl = reflection_versor(n)
    evens = [rotation_versor(u, v, 0.8).U, shear_versor(u, v, 1.1).U,
             scale_versor(u, 0.4).U, refl.U * refl.U]
    for uu in evens:
        p = embed_vector(rng.normal(size=3))
        assert (uu * p * reversion(uu)).grade(0).is_zero(1e-12)
        assert (uu * reversion(uu)).grade(1).is_zero(1e-12)


def test_composed_family_report_all_pass():
    for res in composed_family_report():
        assert res.passed, res


def _worst_residual_operators():
    """Full 64-coefficient operators, every sandwich versor, and 1 + 0.01 X for
    homogeneous X of each grade (rejected generators included)."""
    rng = np.random.default_rng(62)
    ops = [Multivector(rng.normal(size=64)) for _ in range(6)]
    u, v = rand_orthonormal(rng)
    ops += [reflection_versor(rand_unit(rng)).U, rotation_versor(u, v, 1.1).U,
            hyperbolic_versor(u, v, 0.6).U, shear_versor(u, v, 0.9).U,
            scale_versor(u, -0.4).U, translation_versor(rng.normal(size=3)).U]
    ops += [1.0 + 0.01 * random_homogeneous(rng, k) for k in range(7) for _ in range(2)]
    return ops


def test_worst_residuals_match_per_probe_reference():
    # the operator/probe split and the array products over the probes give
    # the per-probe maxima of the reference to rounding
    for psi in _worst_residual_operators():
        rows = [paravector_conditions(psi, p).residuals() for p in probe_points()]
        want = dict(zip(RESIDUALS, map(max, zip(*rows))))
        got = worst_residuals(psi)
        assert list(got) == list(RESIDUALS)
        bound = 1e-12 * max(1.0, psi.max_abs() ** 2)
        for name in RESIDUALS:
            assert abs(got[name] - want[name]) <= bound, (name, got[name], want[name])


def _count_products(monkeypatch):
    """Count dense products (``*`` and ``^`` of two multivectors) and calls
    of the two batched kernels: planned_products (the condition formulas,
    and the first product of the probe images' sandwich, and its second
    when that is sparse) and table_products (its second product when that
    is dense)."""
    counts = {"products": 0, "planned": 0, "sandwich": 0, "table": 0}
    for name in ("__mul__", "__xor__"):
        fn = getattr(Multivector, name)

        def counted(a, b, fn=fn):
            counts["products"] += isinstance(b, Multivector)
            return fn(a, b)

        monkeypatch.setattr(Multivector, name, counted)
    for module, name, key in ((analysis, "planned_products", "planned"),
                              (versors, "planned_products", "sandwich"),
                              (versors, "table_products", "table")):
        fn = getattr(module, name)

        def kernel(*args, fn=fn, key=key):
            counts[key] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, kernel)
    return counts


def test_worst_residuals_product_count(monkeypatch):
    # no dense product: the condition formulas take two planned_products
    # calls (operator terms and left products, then what multiplies them),
    # the probe images the planned and the tabled product of one sandwich
    psi = translation_versor([0.3, -0.2, 0.5]).U * rotation_versor([1, 0, 0], [0, 1, 0], 0.7).U
    counts = _count_products(monkeypatch)
    worst_residuals(psi)
    assert counts == {"products": 0, "planned": 2, "sandwich": 1, "table": 1}


def test_classify_reuses_the_residual_images(monkeypatch):
    # an accepted classification reads its identity flag off the probe
    # images worst_residuals already built: no kernel call beyond those;
    # 1 + 0.01 X is sparse, so both products of its sandwich are planned
    counts = _count_products(monkeypatch)
    for k, psi, identity in ((2, W(E[0], E[1]), True), (1, E[2], False)):
        phi = 1.0 + 0.01 * psi
        counts.update(products=0, planned=0, sandwich=0, table=0)
        worst_residuals(phi)
        alone = dict(counts)
        counts.update(products=0, planned=0, sandwich=0, table=0)
        res = classify_infinitesimal(k, psi)
        assert counts == alone == {"products": 0, "planned": 2, "sandwich": 2, "table": 0}
        assert res.verdict == ACCEPT and res.acts_as_identity is identity


# -- the dense oracle ------------------------------------------------------------------
#
# The condition formulas through Multivector products, as written before the
# batched kernel: the byte-for-byte reference of analysis._conditions.

def dense_operator_terms(P):
    g4 = lambda m: m.grade(4)
    g5 = lambda m: m.grade(5)
    d1 = (2 * g4(P[1] * P[5]) + 2 * g4(P[2] * (P[4] - P[6]))
          + g4(P[3] * (-1 * P[3] + 2 * P[5])) + g4(P[4] * P[4]))
    d2 = (2 * g5(P[1] * (P[4] - P[6])) + 2 * g5(P[2] * (-1 * P[3] + P[5]))
          + 2 * g5(P[3] * P[4]))
    r1 = 2 * (P[0] * P[4]) - outer_product(P[2], P[2]) - 2 * outer_product(P[1], P[3]) + d1
    r2 = 2 * (P[0] * P[5]) + d2
    return r1, r2, d1, d2


def dense_probe_terms(P, p):
    g4 = lambda m: m.grade(4)
    g5 = lambda m: m.grade(5)
    d3 = (2 * g4(P[1] * p * (P[4] - P[6])) + 2 * g4(P[2] * p * (-1 * P[3] + P[5]))
          + 2 * g4(P[3] * p * (P[4] - P[6])) + 2 * g4(P[4] * p * P[5]))
    d4 = (2 * g5(P[1] * p * P[5]) + 2 * g5(P[2] * p * (P[4] - P[6]))
          + g5(P[3] * p * (-1 * P[3] + 2 * P[5])) + g5(P[4] * p * P[4]))
    r3 = (outer_product(2 * (P[0] * P[3]), p)
          - outer_product(2 * outer_product(P[1], P[2]), p)
          + 2 * (P[0] * vector_contract(p, P[5])) + d3)
    r4 = (outer_product(2 * (P[0] * P[4]), p)
          - outer_product(outer_product(P[2], P[2]), p)
          + outer_product(2 * outer_product(P[1], P[3]), p)
          - 2 * (P[0] * vector_contract(p, P[6])) + d4)
    return r3, r4, d3, d4


def dense_worst_residuals(psi):
    parts = grade_parts(psi)
    r1, r2, _, _ = dense_operator_terms(parts)
    axes = [dense_probe_terms(parts, e) for e in E]
    probes = analysis._PROBE_ROWS[:, 1:]
    r3 = probes @ np.array([t[0].coeffs for t in axes])
    r4 = probes @ np.array([t[1].coeffs for t in axes])
    images = analysis._PROBE_ROWS @ versors.basis_images(psi.coeffs)[0]
    cov = (images[:, [1, 2, 4]] - images[:, [8, 16, 32]]) @ np.array([e.coeffs for e in E_STAR])
    high = images[:, (GRADES == 4) | (GRADES == 5)]
    worst = (r1.max_abs(), r2.max_abs(), np.max(np.abs(r3)), np.max(np.abs(r4)),
             np.max(np.abs(cov)), np.max(np.abs(high)))
    return dict(zip(RESIDUALS, map(float, worst)))


def _stage_operators(text):
    """Every multivector a pipeline's stages carry, nested stages included."""
    out, todo = [], list(parse_pipeline(text).composed().stages)
    while todo:
        stage = todo.pop()
        for value in vars(stage).values():
            if isinstance(value, Multivector):
                out.append(value)
            elif isinstance(value, Transform):
                todo.append(value)
    return out


def _oracle_operators():
    """Affine and projective stage versors, 1 + 0.01 X for generators X of
    every kind classify rules on, and random dense operators of magnitudes
    across 1e-3..1e3."""
    rng = np.random.default_rng(63)
    u, v = rand_orthonormal(rng)
    ops = _stage_operators(
        f"rotate u=({u[0]},{u[1]},{u[2]}) v=({v[0]},{v[1]},{v[2]}) theta=0.7\n"
        "translate v=(1.5,-0.5,2)\nshear u=(1,0,0) v=(0,1.5,0) t=0.4\n"
        "scale u=(0,0,1) t=-0.3\nreflect n=(0.6,0.8,0)\nhrotate u=(0,1,0) v=(0,0,1) eta=0.5\n")
    ops += _stage_operators(
        "rotate u=(1,0,0) v=(0,1,0) theta=0.3\n"
        "perspective eye=(0.2,-0.3,0.1) n=(0,0,1) c=1.5\ncotranslate v=(0,0,0.2)\n"
        "translate v=(0.3,0.1,0)\npseudo n=(0,0,1)\nscale u=(1,0,0) t=0.2\n")
    vec, cov = (lambda: embed_vector(rng.normal(size=3))), (lambda: embed_covector(rng.normal(size=3)))
    generators = [Multivector.scalar(rng.uniform(0.2, 1.5)), vec(), W(vec(), cov()),
                  W(vec(), vec()), W(cov(), cov())]
    generators += [random_homogeneous(rng, k) for k in (3, 4, 5, 6)]
    ops += [1.0 + 0.01 * x for x in generators]
    ops += [Multivector(rng.normal(size=64) * 10.0 ** rng.integers(-3, 4, 64)) for _ in range(8)]
    # operators that lack grade parts: a fused stage of grades 0, 2 and 4,
    # and the generators alone, one grade each
    ops.append(compose([rotation_versor(u, v, 0.4), scale_versor(u, 0.3)]).stages[0].U)
    return ops + generators


def _rounding_operators():
    """Operators whose sums round in the subnormal range, or end in signed
    zeros, or add terms of many binades: a sum added in another order, or
    with its terms scaled apart ((a - b) 0.5 as 0.5 a - 0.5 b), then rounds
    differently.  1 plus subnormal multiples of 2^-1074 in each grade, and
    in all of them; ±0 mixed with such multiples; and coefficients 2^-60
    to 2^10 in size."""
    rng = np.random.default_rng(65)
    tiny = lambda: rng.integers(-7, 8, 64) * 5e-324
    rows = [np.where(GRADES == k, tiny(), 0.0) for k in range(1, 7)] + [tiny()]
    rows.append(np.where(rng.random(64) < 0.5, -0.0, tiny()))
    rows.append(rng.normal(size=64) * 2.0 ** rng.integers(-60, 11, 64))
    for row in rows:
        row[0] = 1.0
    return [Multivector(row) for row in rows]


def test_residuals_are_the_dense_formulas_byte_for_byte():
    ops = _oracle_operators() + _worst_residual_operators() + _rounding_operators()
    for psi in ops:
        got, want = worst_residuals(psi), dense_worst_residuals(psi)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        assert list(got) == list(want)
        parts = grade_parts(psi)
        r1, r2, d1, d2 = dense_operator_terms(parts)
        for p in probe_points(extra=2):
            pm = embed_vector(p)
            r3, r4, d3, d4 = dense_probe_terms(parts, pm)
            rep = paravector_conditions(psi, p)
            image = psi * embed_paravector(Paravector(1.0, p)) * reversion(psi)
            for field, want in (("r1", r1), ("r2", r2), ("r3", r3), ("r4", r4),
                                ("direct4", image.grade(4)), ("direct5", image.grade(5))):
                assert getattr(rep, field).coeffs.tobytes() == want.coeffs.tobytes(), field
            got = correction_terms(parts, pm)
            assert all(x.coeffs.tobytes() == y.coeffs.tobytes()
                       for x, y in zip(got, (d1, d2, d3, d4)))
    # the plans keep only the read coefficients: an operator of every grade
    # takes at most 8000 pairs at the three axes (15 555 with every one)
    first, second = analysis._layers(3, analysis._ALL_PARTS)[0]
    assert len(first.left) + len(second.left) <= 8000


def _overflowing_operators():
    """Operators that lack grade parts and overflow: a grade-2 part whose
    first-layer products overflow, and a grade-5 part whose double, a
    first-layer operand, does."""
    c = np.zeros(64)
    c[0], c[0b011111] = 1.0, 1.5e308
    return [1.0 + 1e200 * W(E[0], E_STAR[1]), Multivector(c)]


def test_pruned_plans_are_the_plans_of_every_part(monkeypatch):
    # a layer whose operand rows are all finite drops the products of the
    # absent parts; one that is not takes the plan of all seven parts, so
    # that an overflow keeps its NaN
    rng = np.random.default_rng(64)
    u, v = rand_orthonormal(rng)
    ops = [translation_versor([0.3, -0.2, 0.5]).U, rotation_versor(u, v, 0.7).U,
           1.0 + 0.01 * W(E[0], E[1]), random_homogeneous(rng, 3), *_overflowing_operators()]
    evaluate = analysis._evaluate
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in [[psi.coeffs] for psi in ops] + [[psi.coeffs for psi in ops]]:
            P = analysis._grade_rows(np.array(rows))
            got = analysis._conditions(P, analysis._E_ROWS)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_evaluate", lambda layer, rows, m, parts:
                              evaluate(layer, rows, m, analysis._ALL_PARTS))
                want = analysis._conditions(P, analysis._E_ROWS)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_an_overflow_names_its_operator():
    # the first operator whose residuals overflow is the error's row,
    # whichever grade parts the batch carries
    ok = [translation_versor([0.3, -0.2, 0.5]).U, 1.0 + 0.01 * W(E[0], E[1])]
    for bad in _overflowing_operators():
        for batch, row in (([bad], 0), ([ok[0], bad, ok[1], bad], 1), (ok + [bad], 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="overflow") as info:
                    analysis.worst_residuals_of(batch)
            assert info.value.row == row


# -- inputs outside the domain ------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_operators_are_named(bad):
    c = np.zeros(64)
    c[0], c[3] = 1.0, bad
    psi = Multivector(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: worst_residuals(psi),
                     lambda: paravector_conditions(psi, [0.1, 0.2, 0.3]),
                     lambda: classify_infinitesimal(2, psi)):
            with pytest.raises(DomainError, match="psi must be finite"):
                call()
        with pytest.raises(DomainError, match="p must be finite"):
            paravector_conditions(Multivector.scalar(1.0), [0.1, bad, 0.3])


def test_overflowing_residuals_raise():
    # finite operators whose products overflow: the residuals were NaN before
    c = np.zeros(64)
    c[3] = 1e200
    for psi in (Multivector(c), 1e200 * W(E[0], E_STAR[1])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: worst_residuals(psi),
                         lambda: paravector_conditions(psi, [0.1, 0.2, 0.3]),
                         lambda: classify_infinitesimal(2, psi)):
                with pytest.raises(DomainError, match="overflow"):
                    call()


@pytest.mark.parametrize("k", [7, -1, 2.5, "2"])
def test_classify_rejects_a_bad_grade(k):
    with pytest.raises(DomainError, match="grade must be an integer"):
        classify_infinitesimal(k, W(E[0], E[1]))
    with pytest.raises(DomainError, match="grade must be an integer"):
        W(E[0], E[1]).is_homogeneous(k)


def test_probe_points_deterministic():
    a = probe_points()
    b = probe_points()
    assert len(a) == 12
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_probe_tables_are_their_seeded_draws():
    # the two fixed probe sets are literal tables, so that analysis does not
    # load numpy.random; each is the seeded draw it was written from, bit
    # for bit
    probes = np.array(probe_points())
    want = np.column_stack((np.ones(len(probes)), probes))
    assert analysis._PROBE_ROWS.shape == (12, 4)
    assert analysis._PROBE_ROWS.tobytes() == want.tobytes()
    rng = np.random.default_rng(7151)
    want = np.array([[rng.uniform(-1, 1), *rng.uniform(-1, 1, 3)] for _ in range(10)])
    assert analysis._MATRIX_PROBE_ROWS.shape == (10, 4)
    assert analysis._MATRIX_PROBE_ROWS.tobytes() == want.tobytes()
    assert not (analysis._PROBE_ROWS.flags.writeable
                or analysis._MATRIX_PROBE_ROWS.flags.writeable)


def test_conditions_report_direct_parts():
    # for a point-preserving operator the direct grade-4/5 parts vanish too
    versor = translation_versor([1, 1, 1])
    rep = paravector_conditions(versor.U, [0.2, 0.4, 0.8])
    assert rep.direct4.is_zero(1e-12)
    assert rep.direct5.is_zero(1e-12)
    # a raw grade-6 insertion shows up in the direct residuals
    rep = paravector_conditions(1.0 + 0.01 * I_FULL, [0.2, 0.4, 0.8])
    assert rep.direct5.max_abs() > 1e-4
    assert rep.r4.max_abs() > 1e-4


def test_volume_identity_i_squared():
    assert (I_FULL * I_FULL).approx_eq(1.0)
    assert (OMEGA_V * OMEGA_V).is_zero()
