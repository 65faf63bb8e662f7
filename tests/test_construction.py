"""Versors are built from checked drafts in two planned products, and fused
by the geometric product: every versor, fused versor, stage matrix and
pipeline matrix is byte-identical to the dense closed forms, the dense
fusion and the per-stage extraction kept here as the oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl33 import (
    Composed,
    CovectorResidue,
    DegenerateConfigurationError,
    DomainError,
    HodgeVersor,
    Multivector,
    NonParavectorResidue,
    Paravector,
    PerspectiveMap,
    PipelineError,
    Versor,
    compose,
    cotranslation_versor,
    hyperbolic_versor,
    parse_pipeline,
    pseudo_perspective_map,
    reflection_versor,
    rotation_versor,
    scale_versor,
    sector_vector,
    shear_versor,
    translation_versor,
    pipeline,
    versors,
)
from cl33.euclid import extract_points
from cl33.versors import COMPOSITE, shear_generator, translation_generator
from helpers import AXES, orthonormal_pairs, render, unit_vectors

# -- the oracle: dense closed forms, dense fusion, per-stage extraction ------------


def dense_reflection(n):
    return Versor(sector_vector(n, +1) * sector_vector(n, -1), -1, versors.REFLECTION)


def dense_rotation(u, v, theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    up, vp = sector_vector(u, +1), sector_vector(v, +1)
    um, vm = sector_vector(u, -1), sector_vector(v, -1)
    return Versor((c + s * (up * vp)) * (c - s * (um * vm)), +1, versors.ROTATION)


def dense_hyperbolic(u, v, eta):
    ch, sh = math.cosh(eta / 2.0), math.sinh(eta / 2.0)
    um, vp = sector_vector(u, -1), sector_vector(v, +1)
    vm, up = sector_vector(v, -1), sector_vector(u, +1)
    return Versor((ch + sh * (um * vp)) * (ch + sh * (vm * up)), +1, versors.HYPERBOLIC)


def dense_shear(u, v, t):
    return Versor(1.0 + shear_generator(u, v, t), +1, versors.SHEAR)


def dense_scale(u, t):
    ch, sh = math.cosh(t / 2.0), math.sinh(t / 2.0)
    return Versor(ch + sh * (sector_vector(u, -1) * sector_vector(u, +1)), +1, versors.SCALE)


def dense_translation(v):
    return Versor(1.0 + translation_generator(v), +1, versors.TRANSLATION)


def dense_cotranslation(v):
    return HodgeVersor(dense_translation(v).U, 1.0)


DENSE = {
    "reflect": lambda p: dense_reflection(p["n"]),
    "rotate": lambda p: dense_rotation(p["u"], p["v"], p["theta"]),
    "hrotate": lambda p: dense_hyperbolic(p["u"], p["v"], p["eta"]),
    "shear": lambda p: dense_shear(p["u"], p["v"], p["t"]),
    "scale": lambda p: dense_scale(p["u"], p["t"]),
    "translate": lambda p: dense_translation(p["v"]),
    "cotranslate": lambda p: dense_cotranslation(p["v"]),
    "pseudo": lambda p: dense_cotranslation(p["n"]),
}


def dense_append(stages, stage):
    prev = stages[-1] if stages else None
    if isinstance(stage, Versor) and isinstance(prev, Versor):
        return stages[:-1] + [Versor(stage.U * prev.U, stage.epsilon * prev.epsilon, COMPOSITE)]
    if isinstance(stage, HodgeVersor) and isinstance(prev, HodgeVersor):
        return stages[:-1] + [HodgeVersor(stage.uprime * prev.uprime, stage.lam * prev.lam)]
    return stages + [stage]


def dense_compose(transforms):
    stages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in transforms:
            stages = dense_append(stages, t)
    return stages


def quiet_compose(transforms):
    """``compose``, without numpy's warnings for versors that overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return compose(transforms).stages


def stage_matrix(stage):
    """One stage's matrix read alone, extraction by extraction."""
    if isinstance(stage, PerspectiveMap):
        to_eye = np.eye(4)
        to_eye[0, 0] -= stage.eye.weight
        to_eye[1:, 0] = -stage.eye.vector
        with np.errstate(over="ignore", invalid="ignore"):
            m = stage_matrix(stage.from_eye) @ stage_matrix(stage.cotranslate) @ to_eye
        if not np.isfinite(m).all():
            raise DomainError("the perspective matrix is not finite: the arithmetic overflowed")
        return m
    with np.errstate(over="ignore", invalid="ignore"):
        return extract_points(stage.images()).T


def pipeline_matrix(stages):
    m = np.eye(4)
    for idx, stage in enumerate(stages, start=1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                m = stage_matrix(stage) @ m
        except DomainError as exc:
            raise DomainError(f"stage {idx}: {exc}") from exc
        if not np.isfinite(m).all():
            raise DomainError(f"stage {idx}: the pipeline matrix through this stage "
                              "is not finite: the arithmetic overflowed")
    return m


def outcome(fn):
    """The bytes ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn().tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def same_versor(got, want):
    assert type(got) is type(want)
    if isinstance(want, Versor):
        assert (got.epsilon, got.kind) == (want.epsilon, want.kind)
        assert got.U.coeffs.tobytes() == want.U.coeffs.tobytes()
    else:
        assert got.lam == want.lam
        assert got.uprime.coeffs.tobytes() == want.uprime.coeffs.tobytes()


# -- drawn parameters: signed zeros, axis vectors, large magnitudes ----------------

def numbers(bound):
    return st.one_of(st.sampled_from((0.0, -0.0)),
                     st.floats(-bound, bound, allow_nan=False, allow_infinity=False))


@st.composite
def steps(draw):
    """(op, params) of one step, any of the nine operations."""
    op = draw(st.sampled_from(("reflect", "rotate", "hrotate", "shear", "scale", "translate",
                               "cotranslate", "perspective", "pseudo")))
    if op in ("reflect", "pseudo"):
        return op, {"n": draw(unit_vectors())}
    if op in ("rotate", "hrotate"):
        u, v = draw(orthonormal_pairs())
        key, bound = ("theta", 1e6) if op == "rotate" else ("eta", 1400.0)
        return op, {"u": u, "v": v, key: draw(numbers(bound))}
    if op == "shear":
        # axes of any length along coordinate axes (exactly orthogonal), or
        # of moderate length in any direction
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(3)))[:2]
            u, v, bound = AXES[i], AXES[j], 1e200
        else:
            (u, v), bound = draw(orthonormal_pairs()), 1e3
        a, b = draw(numbers(bound)), draw(numbers(bound))
        return op, {"u": a * u, "v": b * v, "t": draw(numbers(1e300))}
    if op == "scale":
        return op, {"u": draw(unit_vectors()), "t": draw(numbers(1400.0))}
    if op in ("translate", "cotranslate"):
        scale = 10.0 ** draw(st.integers(-3, 160))
        return op, {"v": scale * np.array([draw(numbers(1.0)) for _ in range(3)])}
    eye = np.array([draw(numbers(3.0)) for _ in range(3)])
    n = draw(unit_vectors()) * 10.0 ** draw(st.integers(-2, 100))
    offset = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return op, {"eye": eye, "n": n, "c": float(n @ eye) + offset * np.max(np.abs(n))}


def dense_step(op, params):
    if op == "perspective":
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return DENSE[op](params)


# -- byte identity ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(steps(), min_size=1, max_size=8))
def test_pipeline_is_byte_identical_to_the_dense_oracle(steps_):
    pipe = parse_pipeline(render(steps_))
    transforms = pipe.transforms()
    want = []
    for step, got in zip(pipe.steps, transforms):
        dense = dense_step(step.op, step.params)
        if dense is None:
            # the perspective's two translations
            same_versor(got.from_eye, dense_translation(got.eye.vector))
            same_versor(got.cotranslate, dense_cotranslation(got.n / got.a))
            dense = got
        else:
            same_versor(got, dense)
        want.append(dense)
        assert outcome(lambda: got.matrix) == outcome(lambda: stage_matrix(got))
    stages = quiet_compose(transforms)
    dense_stages = dense_compose(want)
    assert len(stages) == len(dense_stages)
    for got, dense in zip(stages, dense_stages):
        if isinstance(dense, (Versor, HodgeVersor)):
            same_versor(got, dense)
        else:
            assert got is dense
        assert outcome(lambda: got.matrix) == outcome(lambda: stage_matrix(dense))
    assert outcome(lambda: Composed(tuple(stages)).matrix) == \
        outcome(lambda: pipeline_matrix(dense_stages))


@settings(max_examples=60, deadline=None)
@given(orthonormal_pairs(), numbers(1e6), numbers(1400.0), numbers(1e300), unit_vectors(),
       st.floats(-1e300, 1e300))
def test_constructors_are_byte_identical_to_the_dense_oracle(pair, theta, eta, t, n, x):
    u, v = pair
    with np.errstate(over="ignore", invalid="ignore"):
        cases = [(reflection_versor(n), dense_reflection(n)),
                 (rotation_versor(u, v, theta), dense_rotation(u, v, theta)),
                 (hyperbolic_versor(u, v, eta), dense_hyperbolic(u, v, eta)),
                 (shear_versor(u, v, t), dense_shear(u, v, t)),
                 (shear_versor(x * AXES[0], AXES[2], t), dense_shear(x * AXES[0], AXES[2], t)),
                 (scale_versor(u, eta), dense_scale(u, eta)),
                 (translation_versor(x * n), dense_translation(x * n)),
                 (cotranslation_versor(x * n), dense_cotranslation(x * n)),
                 (pseudo_perspective_map(n), dense_cotranslation(n))]
    for got, want in cases:
        same_versor(got, want)
        assert outcome(lambda: got.matrix) == outcome(lambda: stage_matrix(want))
    fused = quiet_compose([got for got, _ in cases])
    for got, want in zip(fused, dense_compose([want for _, want in cases])):
        same_versor(got, want)


#: Components that stress construction: signed zeros, the smallest
#: subnormal, and magnitudes whose squares and products overflow.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e154, -3e154, 2.5e200, -1e300, 1e300)


def components():
    return st.one_of(st.sampled_from(SPECIAL), st.floats(-10, 10))


@st.composite
def special_steps(draw):
    """(op, params) of one step of each of the nine operations, with the
    SPECIAL components wherever the step's preconditions let them in: the
    unit vectors are signed axes whose other components are signed zeros or
    subnormals, or normalized draws."""
    op = draw(st.sampled_from(tuple(pipeline.GRAMMAR)))
    tiny = st.sampled_from((0.0, -0.0, 5e-324, -5e-324))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(3)))[:2]
        u, v = (np.array(draw(st.lists(tiny, min_size=3, max_size=3))) for _ in range(2))
        u[i], v[j] = draw(st.sampled_from((1.0, -1.0))), draw(st.sampled_from((1.0, -1.0)))
    else:
        u, v = draw(orthonormal_pairs())
    vector = lambda: np.array([draw(components()) for _ in range(3)])
    number = draw(components())
    if op in ("reflect", "pseudo"):
        return op, {"n": u}
    if op == "shear":
        return op, {"u": u * draw(components()), "v": v * draw(components()), "t": number}
    if op in ("rotate", "hrotate"):
        return op, {"u": u, "v": v, "theta" if op == "rotate" else "eta": number}
    if op == "scale":
        return op, {"u": u, "t": number}
    if op in ("translate", "cotranslate"):
        return op, {"v": vector()}
    return op, {"eye": vector(), "n": vector(), "c": number}


CONSTRUCTORS = {
    "reflect": lambda p: reflection_versor(p["n"]),
    "rotate": lambda p: rotation_versor(p["u"], p["v"], p["theta"]),
    "hrotate": lambda p: hyperbolic_versor(p["u"], p["v"], p["eta"]),
    "shear": lambda p: shear_versor(p["u"], p["v"], p["t"]),
    "scale": lambda p: scale_versor(p["u"], p["t"]),
    "translate": lambda p: translation_versor(p["v"]),
    "cotranslate": lambda p: cotranslation_versor(p["v"]),
    "perspective": lambda p: PerspectiveMap(Paravector(1.0, p["eye"]), p["n"], p["c"]),
    "pseudo": lambda p: pseudo_perspective_map(p["n"]),
}


def same_transform(got, want):
    """Byte identity of versors, and of a perspective's a, n, c and versors."""
    if isinstance(want, PerspectiveMap):
        assert type(got) is PerspectiveMap
        assert np.float64(got.a).tobytes() == np.float64(want.a).tobytes()
        assert np.float64(got.c).tobytes() == np.float64(want.c).tobytes()
        assert got.n.tobytes() == want.n.tobytes()
        same_versor(got.from_eye, want.from_eye)
        same_versor(got.cotranslate, want.cotranslate)
    else:
        same_versor(got, want)


@settings(max_examples=300, deadline=None)
@given(special_steps())
def test_parsed_steps_are_their_constructors_byte_for_byte(step):
    # the parser's checked values and the build's translation rows give
    # every transform the bytes of the public constructor, non-finite
    # coefficients of an overflow included; a rejected step has its message
    op, params = step
    source = render([step])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = CONSTRUCTORS[op](params)
    except DegenerateConfigurationError as exc:
        with pytest.raises(DegenerateConfigurationError) as info:
            parse_pipeline(source)
        assert str(info.value) == str(exc)
        return
    except DomainError as exc:
        with pytest.raises(PipelineError) as info:
            parse_pipeline(source)
        assert str(info.value) == f"line 1: {exc}"
        return
    (got,) = parse_pipeline(source).transforms()
    same_transform(got, want)
    assert outcome(lambda: compose([got]).matrix) == outcome(lambda: compose([want]).matrix)


def test_fusion_of_non_finite_versors_keeps_the_dense_bytes():
    # an operand that is not finite goes through *, NaN payloads and all
    rotation = rotation_versor(AXES[0], AXES[1], 0.3)
    for value in (np.inf, -np.inf, np.nan):
        coeffs = rotation.U.coeffs.copy()
        coeffs[5] = value
        bad = Versor(Multivector(coeffs), +1, versors.ROTATION)
        for pair in ((bad, rotation), (rotation, bad), (bad, bad)):
            got = quiet_compose(pair)[0].U.coeffs
            want = dense_compose(pair)[0].U.coeffs
            assert got.tobytes() == want.tobytes()


def coefficients():
    """64 coefficients, up to 24 of them set: signed zeros, the smallest
    subnormals, and magnitudes from 1e-5 to 1e300, whose products overflow."""
    magnitude = st.builds(lambda m, k: m * 10.0 ** k, st.floats(-10, 10), st.integers(-5, 300))
    value = st.one_of(st.sampled_from((-0.0, 5e-324, -5e-324)), magnitude)

    def row(entries):
        coeffs = np.zeros(64)
        coeffs[list(entries)] = list(entries.values())
        return coeffs

    return st.dictionaries(st.integers(0, 63), value, max_size=24).map(row)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), coefficients(), coefficients())
def test_fusion_is_the_planned_pair_product(star, first, second):
    # a fused stage has the bytes of the planned product of the pair, which
    # leaves out only the pairs that are zero by grade, and an overflow in
    # it warns of nothing
    make = ((lambda c: HodgeVersor(Multivector(c), 1.0)) if star
            else (lambda c: Versor(Multivector(c), +1, versors.ROTATION)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (stage,) = compose([make(first), make(second)]).stages
        want = versors._pair_products(np.array([second, first]), versors.grade_set(second),
                                      versors.grade_set(first))[0]
    got = stage.uprime if star else stage.U
    assert got.coeffs.tobytes() == want.tobytes()


def test_zero_operand_fuses_to_zero():
    zero = Versor(Multivector(), +1, versors.ROTATION)
    for pair in ((zero, translation_versor([1, 2, 3])), (translation_versor([1, 2, 3]), zero)):
        got = compose(pair).stages[0].U.coeffs
        assert got.tobytes() == (pair[1].U * pair[0].U).coeffs.tobytes()


def test_batched_extraction_names_the_stage_that_fails():
    # stage 2 of 3 overflows: the error names it, as reading one stage at a
    # time does, although all stages were read in one extraction
    stages = (rotation_versor(AXES[0], AXES[1], 0.3),
              cotranslation_versor([1e200, 0, 0]),
              translation_versor([1, 2, 3]))
    with pytest.raises(DomainError) as got:
        Composed(stages).matrix
    assert str(got.value) == str(pytest.raises(DomainError, pipeline_matrix, stages).value)
    assert str(got.value).startswith("stage 2: ")
    # a perspective whose eye translation overflows, alone and as stage 2
    far = PerspectiveMap(Paravector(1.0, [0, 0, 1e200]), [0, 0, 1], 0.0)
    with pytest.raises(DomainError) as got:
        far.matrix
    assert str(got.value) == str(pytest.raises(DomainError, stage_matrix, far).value)
    stages = (translation_versor([1, 2, 3]), far)
    with pytest.raises(DomainError) as got:
        Composed(stages).matrix
    assert str(got.value) == str(pytest.raises(DomainError, pipeline_matrix, stages).value)
    assert str(got.value).startswith("stage 2: ")


def _counted_images(monkeypatch):
    """Count the ``images`` calls of every Versor and HodgeVersor."""
    calls = []
    for cls in (Versor, HodgeVersor):
        images = cls.images
        monkeypatch.setattr(cls, "images",
                            lambda self, images=images: calls.append(1) or images(self))
    return calls


def test_failing_pipeline_builds_each_image_once(monkeypatch):
    # 3 stages and 4 versors: the failing extraction is named from the
    # images already built, not from a second build of every stage
    stages = parse_pipeline("rotate u=(1,0,0) v=(0,1,0) theta=0.3\n"
                            "perspective eye=(0,0,-3) n=(0,0,1) c=1\n"
                            "cotranslate v=(1e200,0,0)\n"
                            "cotranslate v=(1e200,0,0)\n").composed().stages
    want = str(pytest.raises(DomainError, pipeline_matrix, stages).value)
    calls = _counted_images(monkeypatch)
    with pytest.raises(DomainError) as got:
        Composed(stages).matrix
    assert str(got.value) == want
    assert want.startswith("stage 3: the extracted point is not finite")
    assert len(calls) == 4


def test_images_that_raise_name_their_stage():
    # hodge_star_rows raises inside images(): the error carries the stage
    # number, after the stages before it are read as usual
    uprime = 1.0 + 0.2 * Multivector.blade(0b001111) + 0.3 * Multivector.blade(0b010111)
    bad = HodgeVersor(uprime, 1.0)
    overflowing = cotranslation_versor([1e200, 0, 0])
    for stages, prefix in (((rotation_versor(AXES[0], AXES[1], 0.3), bad), "stage 2: "),
                           ((overflowing, bad), "stage 1: ")):
        want = pytest.raises(DomainError, pipeline_matrix, stages).value
        with pytest.raises(DomainError) as got:
            Composed(stages).matrix
        assert str(got.value) == str(want) and str(want).startswith(prefix)


def test_residue_errors_pass_through_the_pipeline_matrix():
    # a stage whose images are not points, at each position of 4 stages:
    # the pipeline raises that stage's residue error unprefixed, with the
    # type, text and residual that reading one stage at a time gives, also
    # when a later stage overflows
    rotation = rotation_versor(AXES[0], AXES[1], 0.3)
    coeffs = rotation.U.coeffs.copy()
    coeffs[0b000111] += 0.01
    grade3 = Versor(Multivector(coeffs), +1, versors.ROTATION)
    covector = Versor(1.0 + 0.01 * sector_vector(AXES[0], +1), +1, versors.ROTATION)
    healthy = (rotation, cotranslation_versor([0.1, 0.2, 0.3]),
               PerspectiveMap(Paravector(1.0, [0, 0, -3]), [0, 0, 1], 1.0),
               translation_versor([1, 2, 3]))
    overflowing = cotranslation_versor([1e200, 0, 0])
    for bad, error in ((grade3, NonParavectorResidue), (covector, CovectorResidue)):
        for i in range(4):
            for tail in (healthy[i + 1:], (overflowing,) * (3 - i)):
                stages = (*healthy[:i], bad, *tail)
                want = pytest.raises(error, pipeline_matrix, stages).value
                with pytest.raises(error) as got:
                    Composed(stages).matrix
                assert type(got.value) is type(want) is error
                assert str(got.value) == str(want) and not str(want).startswith("stage")
                assert got.value.residual == want.residual
