import warnings

import numpy as np
import pytest

from cl33 import (
    Composed,
    DegenerateConfigurationError,
    DomainError,
    E,
    GENERATORS,
    HodgeVersor,
    Multivector,
    NotHodgeCompatible,
    OMEGA_V,
    Paravector,
    PerspectiveMap,
    Versor,
    apply_cotranslation,
    apply_hodge_sandwich,
    apply_sandwich,
    compose,
    cotranslation_versor,
    embed_paravector,
    embed_vector,
    exponential,
    extract_paravector,
    hodge_conjugate_versor,
    hodge_star,
    hyperbolic_versor,
    identity_versor,
    normalize_point,
    perspective_project,
    projective_matrix_probe,
    pseudo_perspective,
    reflection_versor,
    reversion,
    rotation_versor,
    scale_versor,
    sector_image,
    shear_versor,
    tolerance,
    translation_versor,
)
from cl33 import versors
from cl33.selftest import rand_orthonormal, rand_unit
from cl33.versors import (
    SectorReport,
    Transform,
    hyperbolic_generator,
    rotation_generator,
    scale_generator,
    shear_generator,
    translation_generator,
)
from helpers import dense_sandwich, householder, perspective_oracle_matrix

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


# -- constructor preconditions ----------------------------------------------

def test_preconditions_rejected():
    with pytest.raises(DomainError):
        reflection_versor([1, 1, 0])
    with pytest.raises(DomainError):
        rotation_versor(E1, E1, 1.0)
    with pytest.raises(DomainError):
        rotation_versor(2 * E1, E2, 1.0)
    with pytest.raises(DomainError):
        hyperbolic_versor(E1, [0.5, 0.5, 0], 1.0)
    with pytest.raises(DomainError):
        shear_versor(E1, [1, 1, 0], 1.0)
    with pytest.raises(DomainError):
        scale_versor([1, 1, 0], 1.0)


def test_shear_allows_non_unit_orthogonal_axes():
    v = apply_sandwich(shear_versor(2 * E1, 3 * E2, 0.5), Paravector(1.0, [0, 1, 0]))
    # generator scales with |u||v|: p + t p_v' u' with u' = 2 e1, v' = 3 e2
    assert np.allclose(v.vector, [3.0, 1.0, 0.0])


# -- versor normalization ----------------------------------------------------

def test_versor_times_reverse():
    rng = np.random.default_rng(0)
    u, v = rand_orthonormal(rng)
    for versor in (rotation_versor(u, v, 1.1), hyperbolic_versor(u, v, -0.7),
                   shear_versor(u, v, 2.2), scale_versor(u, 0.9)):
        assert (versor.U * reversion(versor.U)).approx_eq(1.0)
        assert versor.epsilon == 1
    n = rand_unit(rng)
    refl = reflection_versor(n)
    # the reflection operator squares the other way; its epsilon compensates
    assert (refl.U * reversion(refl.U)).approx_eq(-1.0)
    assert refl.epsilon == -1
    t = translation_versor([0.3, 1.0, -2.0])
    assert (t.U * reversion(t.U)).approx_eq(embed_paravector(Paravector(1.0, [0.3, 1.0, -2.0])))


def test_closed_forms_match_series_exponentials():
    rng = np.random.default_rng(1)
    u, v = rand_orthonormal(rng)
    pairs = [
        (rotation_versor(u, v, 1.234), rotation_generator(u, v, 1.234)),
        (hyperbolic_versor(u, v, -0.8), hyperbolic_generator(u, v, -0.8)),
        (shear_versor(u, v, 0.6), shear_generator(u, v, 0.6)),
        (scale_versor(u, 1.1), scale_generator(u, 1.1)),
        (translation_versor([1, -2, 3]), translation_generator([1, -2, 3])),
    ]
    for versor, gen in pairs:
        assert versor.U.approx_eq(exponential(gen))


# -- per-kind behavior --------------------------------------------------------

def test_reflection_examples():
    n = E3
    out = apply_sandwich(reflection_versor(n), Paravector(1.0, [0, 0, 1]))
    assert out.approx_eq(Paravector(1.0, [0, 0, -1]))
    out = apply_sandwich(reflection_versor(n), Paravector(1.0, [1, 0, 0]))
    assert out.approx_eq(Paravector(1.0, [1, 0, 0]))
    # weight part alone: -N 1 (rev N) = 1
    refl = reflection_versor(n)
    weight = -1.0 * refl.U * reversion(refl.U)
    assert weight.approx_eq(1.0)


def test_reflection_householder_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = rand_unit(rng)
        p = rng.normal(size=3)
        out = apply_sandwich(reflection_versor(n), Paravector(1.0, p))
        assert np.allclose(out.vector, householder(n) @ p, atol=1e-12)
        assert abs(out.weight - 1.0) <= 1e-12


def test_rotation_examples():
    out = apply_sandwich(rotation_versor(E1, E2, 0.77), Paravector(1.0, [0, 0, 1]))
    assert out.approx_eq(Paravector(1.0, [0, 0, 1]))
    out = apply_sandwich(rotation_versor(E1, E2, 0.0), Paravector(1.0, [1, 2, 3]))
    assert out.approx_eq(Paravector(1.0, [1, 2, 3]))
    out = apply_sandwich(rotation_versor(E1, E2, np.pi), Paravector(1.0, [1, 0, 0]))
    assert out.approx_eq(Paravector(1.0, [-1, 0, 0]))


def test_rotation_matrix_form_is_consistent():
    # the in-plane action is u -> cos u - sin v, v -> cos v + sin u,
    # with the same sign for every plane and angle
    rng = np.random.default_rng(3)
    for _ in range(25):
        u, v = rand_orthonormal(rng)
        th = rng.uniform(-3, 3)
        r = rotation_versor(u, v, th)
        out_u = apply_sandwich(r, Paravector(1.0, u)).vector
        out_v = apply_sandwich(r, Paravector(1.0, v)).vector
        assert np.allclose(out_u, np.cos(th) * u - np.sin(th) * v, atol=1e-11)
        assert np.allclose(out_v, np.cos(th) * v + np.sin(th) * u, atol=1e-11)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u, v = rand_orthonormal(rng)
        p = rng.normal(size=3)
        out = apply_sandwich(rotation_versor(u, v, rng.uniform(-3, 3)), Paravector(1.0, p))
        assert abs(np.linalg.norm(out.vector) - np.linalg.norm(p)) < 1e-10


def test_hyperbolic_examples_and_invariant():
    eta = 0.83
    out = apply_sandwich(hyperbolic_versor(E1, E2, eta), Paravector(1.0, [1, 0, 0]))
    assert out.approx_eq(Paravector(1.0, [np.cosh(eta), np.sinh(eta), 0]))
    out = apply_sandwich(hyperbolic_versor(E1, E2, eta), Paravector(1.0, [0, 0, 1]))
    assert out.approx_eq(Paravector(1.0, [0, 0, 1]))
    out = apply_sandwich(hyperbolic_versor(E1, E2, 0.0), Paravector(1.0, [3, 4, 5]))
    assert out.approx_eq(Paravector(1.0, [3, 4, 5]))
    rng = np.random.default_rng(5)
    for _ in range(25):
        u, v = rand_orthonormal(rng)
        p = rng.normal(size=3)
        out = apply_sandwich(hyperbolic_versor(u, v, rng.uniform(-2, 2)), Paravector(1.0, p))
        pu, pv = p @ u, p @ v
        qu, qv = out.vector @ u, out.vector @ v
        assert abs((qu * qu - qv * qv) - (pu * pu - pv * pv)) < 1e-9


def test_shear_examples_and_invariant():
    out = apply_sandwich(shear_versor(E1, E2, 2.0), Paravector(1.0, [0, 1, 0]))
    assert out.approx_eq(Paravector(1.0, [2, 1, 0]))
    out = apply_sandwich(shear_versor(E1, E2, 2.0), Paravector(1.0, [0, 0, 1]))
    assert out.approx_eq(Paravector(1.0, [0, 0, 1]))
    out = apply_sandwich(shear_versor(E1, E2, 0.0), Paravector(1.0, [1, 2, 3]))
    assert out.approx_eq(Paravector(1.0, [1, 2, 3]))
    rng = np.random.default_rng(6)
    for _ in range(25):
        u, v = rand_orthonormal(rng)
        p = rng.normal(size=3)
        out = apply_sandwich(shear_versor(u, v, rng.uniform(-3, 3)), Paravector(1.0, p))
        assert abs(out.vector @ v - p @ v) < 1e-10


def test_scale_examples_and_invariant():
    out = apply_sandwich(scale_versor(E1, np.log(2.0)), Paravector(1.0, [1, 1, 0]))
    assert out.approx_eq(Paravector(1.0, [2, 1, 0]))
    out = apply_sandwich(scale_versor(E1, 0.0), Paravector(1.0, [5, 6, 7]))
    assert out.approx_eq(Paravector(1.0, [5, 6, 7]))
    out = apply_sandwich(scale_versor(E1, 1.7), Paravector(1.0, [0, 2, -1]))
    assert out.approx_eq(Paravector(1.0, [0, 2, -1]))


def test_translation_examples():
    out = apply_sandwich(translation_versor([1, 2, 3]), Paravector(1.0, [0, 0, 0]))
    assert out.approx_eq(Paravector(1.0, [1, 2, 3]))
    out = apply_sandwich(translation_versor([0, 0, 0]), Paravector(1.0, [4, 5, 6]))
    assert out.approx_eq(Paravector(1.0, [4, 5, 6]))
    # translation leaves raw vectors (weight-0 points) unchanged
    out = apply_sandwich(translation_versor([1, 2, 3]), Paravector(0.0, [9, 9, 9]))
    assert out.approx_eq(Paravector(0.0, [9, 9, 9]))


def test_point_square_root():
    p = np.array([0.4, -1.1, 2.0])
    t = translation_versor(p)
    assert (t.U * t.U).approx_eq(embed_paravector(Paravector(1.0, p)))


def test_weight_invariance_for_even_versors():
    rng = np.random.default_rng(7)
    u, v = rand_orthonormal(rng)
    versors = [rotation_versor(u, v, 0.9), hyperbolic_versor(u, v, 0.5),
               shear_versor(u, v, -1.2), scale_versor(u, 0.8)]
    for versor in versors:
        for _ in range(20):
            p = Paravector(rng.uniform(-2, 2), rng.normal(size=3))
            out = apply_sandwich(versor, p)
            assert abs(out.weight - p.weight) < 1e-10


def test_identity_versor():
    p = Paravector(0.3, [1, 2, 3])
    assert apply_sandwich(identity_versor(), p).approx_eq(p)


# -- cotranslation ------------------------------------------------------------

def test_cotranslation_examples():
    out = apply_cotranslation([2, 0, 0], Paravector(1.0, [1, 0, 0]))
    assert out.approx_eq(Paravector(3.0, [1, 0, 0]))
    p = Paravector(1.0, [3, -1, 2])
    assert apply_cotranslation([0, 0, 0], p).approx_eq(p)
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = rng.normal(size=3)
        q = Paravector(rng.uniform(-2, 2), rng.normal(size=3))
        out = apply_cotranslation(w, q)
        assert out.approx_eq(Paravector(q.weight + float(q.vector @ w), q.vector))


# -- two-reflections composition ----------------------------------------------

def test_two_reflections_make_a_rotation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n1 = rand_unit(rng)
        n2 = rand_unit(rng)
        if abs(n1 @ n2) > 0.99:
            continue
        comp = compose([reflection_versor(n1), reflection_versor(n2)])
        m = projective_matrix_probe(comp)
        want = np.eye(4)
        want[1:, 1:] = householder(n2) @ householder(n1)
        assert np.allclose(m, want, atol=1e-10)
        # equal to the rotation by twice the angle from n1 to n2 in their plane
        u = n1
        v = n2 - (n2 @ n1) * n1
        v = v / np.linalg.norm(v)
        phi = np.arctan2(n2 @ v, n2 @ u)
        rot = rotation_versor(u, v, -2.0 * phi)
        m_rot = projective_matrix_probe(compose([rot]))
        assert np.allclose(m, m_rot, atol=1e-10)


# -- perspective ----------------------------------------------------------------

def test_perspective_worked_example():
    out = perspective_project(Paravector(1.0, [0, 0, 0]), E3, 1.0, Paravector(1.0, [2, 4, 2]))
    assert abs(out.weight - 2.0) < 1e-12
    assert normalize_point(out).approx_eq(Paravector(1.0, [1, 2, 1]))


def test_perspective_fixes_points_on_plane():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = rand_unit(rng)
        c = rng.uniform(0.2, 2.0)
        q = rng.normal(size=3)
        p = c * n + q - (q @ n) * n  # on the plane
        out = perspective_project(Paravector(1.0, np.zeros(3)), n, c, Paravector(1.0, p))
        assert np.allclose(normalize_point(out).vector, p, atol=1e-9)


def test_perspective_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        e = rng.uniform(-1.5, 1.5, 3)
        n = rand_unit(rng)
        c = rng.uniform(-2, 2)
        a = c - n @ e
        if abs(a) < 0.1:
            continue
        q = rng.normal(size=3)
        q -= (q @ n) * n
        p = e + rng.uniform(0.1, 3.0) * (a * n + q)
        out = perspective_project(Paravector(1.0, e), n, c, Paravector(1.0, p))
        hom = perspective_oracle_matrix(e, n, c) @ np.concatenate(([1.0], p))
        # the oracle matrix is the map scaled by a, so only the ratio matters
        assert out.weight > 0
        assert np.allclose(normalize_point(out).vector, hom[1:] / hom[0], atol=1e-9)


def test_perspective_behind_eye_conjugated():
    out = perspective_project(Paravector(1.0, np.zeros(3)), E3, 1.0,
                              Paravector(1.0, [0.4, -0.6, -2.0]))
    assert out.weight < 0
    # the conjugated result still represents the line-plane intersection
    loc = out.location()
    assert np.allclose(loc, [0.4 / -2.0, -0.6 / -2.0, 1.0], atol=1e-12)


def test_perspective_degenerate_and_bad_eye():
    with pytest.raises(DegenerateConfigurationError):
        perspective_project(Paravector(1.0, [0, 0, 1]), E3, 1.0, Paravector(1.0, [1, 1, 2]))
    with pytest.raises(DomainError):
        perspective_project(Paravector(2.0, [0, 0, 0]), E3, 1.0, Paravector(1.0, [1, 1, 2]))


def test_perspective_zero_normal_is_degenerate():
    # an all-zero normal gives an all-zero weight row: every point would go
    # to infinity, whatever c is
    eye = Paravector(1.0, [0, 0, 0])
    for n, c in (([0, 0, 0], 1.0), ([-0.0, 0.0, -0.0], -2.0), ([0, 0, 0], 0.0)):
        with pytest.raises(DegenerateConfigurationError, match="normal n is zero"):
            PerspectiveMap(eye, n, c)
        with pytest.raises(DegenerateConfigurationError, match="normal n is zero"):
            perspective_project(eye, n, c, Paravector(1.0, [1, 1, 2]))
    # a tiny nonzero normal is a valid far plane
    stage = PerspectiveMap(eye, [1e-300, 0, 0], 1.0)
    assert stage.matrix[0, 1] == 1e-300 and np.isfinite(stage.matrix).all()
    out = perspective_project(eye, [1e-300, 0, 0], 1.0, Paravector(1.0, [1, 1, 2]))
    assert out.approx_eq(Paravector(1e-300, [1, 1, 2]))


def test_pseudo_perspective_examples():
    out = pseudo_perspective(E3, Paravector(1.0, [0, 0, -1]))
    assert out.is_at_infinity
    assert np.allclose(out.vector, [0, 0, -1])
    out = pseudo_perspective(E3, Paravector(1.0, [0.3, 0.7, 2.0]))
    assert out.approx_eq(Paravector(3.0, [0.3, 0.7, 2.0]))
    out = pseudo_perspective(E3, Paravector(1.0, [1, 1, 1]))
    assert normalize_point(out).approx_eq(Paravector(1.0, [0.5, 0.5, 0.5]))
    with pytest.raises(DomainError):
        pseudo_perspective([0, 0, 2], Paravector(1.0, [1, 1, 1]))


# -- Hodge-conjugate equivalence ------------------------------------------------

def test_hodge_conjugate_table():
    rng = np.random.default_rng(12)
    n = rand_unit(rng)
    u, v = rand_orthonormal(rng)
    th, eta, t, s = 1.1, -0.9, 1.6, 0.7
    refl = reflection_versor(n)
    h = hodge_conjugate_versor(refl)
    assert h.lam == pytest.approx(1.0)
    assert h.uprime.approx_eq(-1.0 * refl.U)
    h = hodge_conjugate_versor(rotation_versor(u, v, th))
    assert h.lam == pytest.approx(1.0)
    assert h.uprime.approx_eq(rotation_versor(u, v, th).U)
    h = hodge_conjugate_versor(hyperbolic_versor(u, v, eta))
    assert h.lam == pytest.approx(1.0)
    assert h.uprime.approx_eq(hyperbolic_versor(u, v, -eta).U)
    h = hodge_conjugate_versor(shear_versor(u, v, t))
    assert h.lam == pytest.approx(1.0)
    assert h.uprime.approx_eq(shear_versor(v, u, -t).U)
    # scale: the volume-scaling condition forces the e^{+s/2} prefactor
    # (any other scale changes the output weight by a factor)
    h = hodge_conjugate_versor(scale_versor(u, s))
    assert h.lam == pytest.approx(np.exp(s / 2))
    assert h.uprime.approx_eq(float(np.exp(s / 2)) * scale_versor(u, -s).U)


def test_sandwich_and_hodge_sandwich_agree():
    rng = np.random.default_rng(13)
    u, v = rand_orthonormal(rng)
    versors = [reflection_versor(rand_unit(rng)), rotation_versor(u, v, 0.8),
               hyperbolic_versor(u, v, 1.2), shear_versor(u, v, -0.5),
               scale_versor(u, 1.3)]
    for versor in versors:
        h = hodge_conjugate_versor(versor)
        for _ in range(25):
            p = Paravector(rng.uniform(-1, 1), rng.normal(size=3))
            a = apply_sandwich(versor, p)
            b = apply_hodge_sandwich(h, p)
            assert a.approx_eq(b, atol=1e-10, rtol=1e-9), versor.kind


def test_translation_is_not_hodge_compatible():
    rng = np.random.default_rng(14)
    for _ in range(20):
        v = rng.uniform(-2, 2, 3)
        if np.linalg.norm(v) < 0.2:
            continue
        with pytest.raises(NotHodgeCompatible) as info:
            hodge_conjugate_versor(translation_versor(v))
        assert info.value.residual > 1e-6
    # a translation this large still has a finite product, and fails the
    # condition rather than overflowing
    with pytest.raises(NotHodgeCompatible):
        hodge_conjugate_versor(translation_versor([1e150, 0, 0]))


@pytest.mark.parametrize("versor", [
    lambda: scale_versor([1, 0, 0], 1000.0),
    lambda: translation_versor([1e200, 0, 0]),
], ids=["scale", "translation"])
def test_hodge_conjugate_of_an_overflowing_versor_raises(versor):
    versor = versor()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite: the arithmetic overflowed"):
            hodge_conjugate_versor(versor)


def test_hodge_sandwich_respects_volume_condition_residual():
    # the condition reads off lam^2 from (rev U*) Omega U*
    rng = np.random.default_rng(15)
    u = rand_unit(rng)
    versor = scale_versor(u, 0.9)
    from cl33 import star_conjugate

    ustar = star_conjugate(versor.U)
    m = reversion(ustar) * OMEGA_V * ustar
    lam2 = np.exp(0.9)
    assert m.approx_eq(float(lam2) * OMEGA_V)


# -- composition ----------------------------------------------------------------

def test_compose_translations_fuse_in_order():
    v1, v2 = np.array([1.0, 0, 0]), np.array([0.0, 2.0, 0])
    t1, t2 = translation_versor(v1), translation_versor(v2)
    comp = compose([t1, t2])
    assert len(comp.stages) == 1
    fused = comp.stages[0]
    assert fused.U.approx_eq(t2.U * t1.U)
    assert fused.epsilon == 1
    out = comp.apply(Paravector(1.0, [0, 0, 0]))
    assert out.approx_eq(Paravector(1.0, v1 + v2))


def test_compose_mixed_forms_stay_staged():
    rng = np.random.default_rng(16)
    u, v = rand_orthonormal(rng)
    comp = compose([rotation_versor(u, v, 0.4), cotranslation_versor([1, 0, 0])])
    assert len(comp.stages) == 2
    assert isinstance(comp.stages[0], Versor)
    assert isinstance(comp.stages[1], HodgeVersor)


def test_compose_hodge_stages_fuse():
    comp = compose([cotranslation_versor([1, 0, 0]), cotranslation_versor([0, 1, 0])])
    assert len(comp.stages) == 1
    out = comp.apply(Paravector(1.0, [3, 4, 5]))
    assert out.approx_eq(Paravector(1.0 + 3.0 + 4.0, [3, 4, 5]))


def test_compose_empty_is_identity():
    comp = compose([])
    p = Paravector(0.5, [1, -2, 3])
    assert comp.apply(p).approx_eq(p)
    assert comp.stages == ()


def test_compose_epsilons_multiply():
    n1, n2 = np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])
    comp = compose([reflection_versor(n1), reflection_versor(n2)])
    assert comp.stages[0].epsilon == 1


def test_compose_flattens_nested():
    t1 = translation_versor([1, 0, 0])
    t2 = translation_versor([0, 1, 0])
    nested = compose([compose([t1]), t2])
    assert len(nested.stages) == 1


def test_compose_rejects_non_transform():
    with pytest.raises(TypeError):
        compose([translation_versor([1, 0, 0]).U])


def test_versors_are_stages():
    c, s = np.cos(0.5), np.sin(0.5)
    rot = rotation_versor(E1, E2, 0.5)
    want = np.eye(4)
    want[1:3, 1:3] = [[c, s], [-s, c]]
    assert np.allclose(rot.matrix, want, atol=1e-12)
    assert not rot.matrix.flags.writeable
    assert compose([rot]).stages == (rot,)
    want = np.eye(4)
    want[0, 1:] = [1.0, -2.0, 3.0]
    assert np.allclose(cotranslation_versor([1, -2, 3]).matrix, want, atol=1e-12)


def test_overflow_raises_domain_error():
    # the dense product overflows to inf and NaN; extraction must not pass them on
    t = translation_versor([1e200, 0, 0])
    p = Paravector(1.0, [1, 0, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="overflowed"):
            apply_sandwich(t, p)
        with pytest.raises(DomainError, match="overflowed"):
            compose([t]).apply(p)
        with pytest.raises(DomainError, match="overflowed"):
            apply_cotranslation([1e200, 0, 0], Paravector(1.0, [1e200, 0, 0]))


P123 = Paravector(1.0, [1, 2, 3])


@pytest.mark.parametrize("run", [
    lambda: apply_sandwich(translation_versor([1e200, 0, 0]), P123),
    lambda: scale_versor([1, 0, 0], 1400.0).apply(P123),
    lambda: apply_cotranslation([1e200, 0, 0], P123),
    lambda: apply_hodge_sandwich(cotranslation_versor([1e200, 0, 0]), P123),
    lambda: perspective_project(Paravector(1.0, [1e200, 0, 0]), [1, 0, 0], 0.0, P123),
    lambda: compose([rotation_versor([1, 0, 0], [0, 1, 0], 0.3),
                     cotranslation_versor([1, 0, 0]),
                     translation_versor([1e200, 0, 0])]).apply(P123),
], ids=["sandwich", "scale", "cotranslation", "hodge-sandwich", "perspective", "composed"])
def test_overflow_raises_without_warnings(run):
    # finite input whose arithmetic overflows: the DomainError, and no
    # numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="the extracted point is not finite"):
            run()


def test_transform_without_a_point_map_raises_not_implemented():
    class Bare(Transform):
        pass

    with pytest.raises(NotImplementedError):
        Bare().apply(P123)
    with pytest.raises(NotImplementedError):
        Bare().apply_points([[1.0, 0.0, 0.0, 0.0]])


@pytest.mark.parametrize("build, name", [
    (lambda: translation_versor([np.inf, 0, 0]), "v"),
    (lambda: cotranslation_versor([np.inf, 0, 0]), "v"),
    (lambda: reflection_versor([np.nan, 0, 0]), "n"),
    (lambda: rotation_versor([1, 0, 0], [0, 1, 0], np.inf), "theta"),
    (lambda: hyperbolic_versor([1, 0, 0], [0, 1, 0], 1e400), "eta"),
    (lambda: hyperbolic_versor([1, 0, 0], [0, 1, 0], 2000.0), "eta"),
    (lambda: shear_versor([1, 0, 0], [0, 1, 0], np.inf), "t"),
    (lambda: shear_versor([np.nan, 0, 0], [0, 1, 0], 1.0), "u"),
    (lambda: scale_versor([1, 0, 0], np.nan), "t"),
    (lambda: scale_versor([1, 0, 0], -2000.0), "t"),
    (lambda: PerspectiveMap(Paravector(np.nan, [0, 0, 0]), [0, 0, 1], 1.0), "eye"),
    (lambda: PerspectiveMap(Paravector(1.0, [0, 0, 0]), [0, 0, np.inf], 1.0), "n"),
    (lambda: PerspectiveMap(Paravector(1.0, [0, 0, 0]), [0, 0, 1], np.nan), "c"),
    (lambda: exponential(Multivector.scalar(np.inf)), "argument a"),
], ids=["translation", "cotranslation", "reflection", "rotation", "hyperbolic",
        "hyperbolic-overflow", "shear", "shear-u", "scale", "scale-overflow",
        "perspective-eye", "perspective-n", "perspective-c", "exponential"])
def test_non_finite_arguments_rejected(build, name):
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        build()


# -- sector behavior --------------------------------------------------------------

def test_sector_reports():
    rng = np.random.default_rng(17)
    u, v = rand_orthonormal(rng)
    rep = sector_image(reflection_versor(rand_unit(rng)))
    assert rep.plus_image == "preserved" and rep.minus_image == "preserved"
    assert max(rep.plus_off_sector, rep.minus_off_sector) <= 1e-12
    rep = sector_image(rotation_versor(u, v, 1.0))
    assert rep.preserves_plus and rep.preserves_minus
    rep = sector_image(identity_versor())
    assert rep.preserves_plus and rep.preserves_minus
    for versor in (hyperbolic_versor(u, v, 0.8), shear_versor(u, v, 1.5),
                   scale_versor(u, 0.6), translation_versor([0.5, 0.5, 0.5])):
        rep = sector_image(versor)
        assert rep.plus_image == "mixed" and rep.minus_image == "mixed"
        assert min(rep.plus_off_sector, rep.minus_off_sector) > 1e-6


@pytest.mark.parametrize("versor", [
    lambda: scale_versor([1, 0, 0], 1000.0),
    lambda: translation_versor([1e200, 0, 0]),
    lambda: hyperbolic_versor([1, 0, 0], [0, 1, 0], 1400.0),
], ids=["scale", "translation", "hyperbolic"])
def test_sector_image_of_an_overflowing_versor_raises(versor):
    versor = versor()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite: the arithmetic overflowed"):
            sector_image(versor)


def test_sector_image_matches_the_per_row_sandwich():
    rng = np.random.default_rng(23)
    u, v = rand_orthonormal(rng)
    versors_ = [reflection_versor(rand_unit(rng)), rotation_versor(u, v, 1.1),
                hyperbolic_versor(u, v, 0.8), shear_versor(u, v, 1.5), scale_versor(u, 0.6),
                translation_versor([0.5, -0.5, 2.0]), identity_versor(),
                compose([rotation_versor(u, v, 0.3), translation_versor([1.0, 2.0, 3.0]),
                         reflection_versor(v)]).stages[0]]
    for versor in versors_:
        factors = (Multivector.scalar(1.0), *GENERATORS)
        images = np.abs([dense_sandwich(versor, b).coeffs for b in factors])
        plus = float(np.max(np.delete(images[:4], [0, 1, 2, 4], axis=1)))
        minus = float(np.max(np.delete(images[[0, 4, 5, 6]], [0, 8, 16, 32], axis=1)))
        tol = tolerance(max(1.0, versor.U.max_abs() ** 2))
        assert sector_image(versor) == SectorReport(plus, minus, plus <= tol, minus <= tol)


def test_sector_image_product_count(monkeypatch):
    # the seven sandwiches of 1 and the six generators are two batched
    # products, against 14 products one sandwich at a time and 32 for
    # sixteen random probes
    versor = shear_versor([1, 0, 0], [0, 1, 0], 1.5)
    calls = {"mul": 0, "batched": 0}
    mul, batched = Multivector.__mul__, versors.table_products

    def counted(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counted_batch(a, tables):
        calls["batched"] += 1
        return batched(a, tables)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    monkeypatch.setattr(versors, "table_products", counted_batch)
    sector_image(versor)
    assert calls == {"mul": 0, "batched": 2}


# -- star-sandwich internals -------------------------------------------------------

def test_cotranslation_intermediate_is_euclid_exterior():
    # star of an axis point, sandwiched by the translation versor, stays in
    # the star's domain; the full pipeline is exact
    t = translation_versor([0.2, 0.4, -0.1])
    p = embed_paravector(Paravector(1.0, [1.0, 2.0, 3.0]))
    inner = t.U * hodge_star(p) * reversion(t.U)
    back = extract_paravector(hodge_star(inner))
    assert back.approx_eq(Paravector(1.0 + (0.2 + 0.8 - 0.3), [1, 2, 3]))


def test_sandwich_on_weighted_points_is_linear():
    rng = np.random.default_rng(18)
    u, v = rand_orthonormal(rng)
    versor = hyperbolic_versor(u, v, 0.7)
    p = Paravector(rng.uniform(-1, 1), rng.normal(size=3))
    q = Paravector(rng.uniform(-1, 1), rng.normal(size=3))
    al, be = rng.normal(), rng.normal()
    combo = Paravector(al * p.weight + be * q.weight,
                       al * p.vector + be * q.vector)
    out = apply_sandwich(versor, combo)
    op, oq = apply_sandwich(versor, p), apply_sandwich(versor, q)
    want = Paravector(al * op.weight + be * oq.weight,
                      al * op.vector + be * oq.vector)
    assert out.approx_eq(want, atol=1e-10)


def test_embedded_vector_accessor():
    assert embed_vector([1, 0, 0]).approx_eq(E[0])
