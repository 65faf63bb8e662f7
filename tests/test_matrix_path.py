"""`cl33 apply` runs the pipeline as one 4x4 matrix: it agrees with the
per-point versor chain, composes as a matrix product, keeps the residue
checks, and does no per-point algebra."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cl33 import (
    POINT_BASIS,
    Composed,
    CovectorResidue,
    DomainError,
    HodgeVersor,
    Multivector,
    NonParavectorResidue,
    Paravector,
    PerspectiveMap,
    Versor,
    compose,
    cotranslation_versor,
    extract_paravector,
    hyperbolic_versor,
    multivector,
    parse_pipeline,
    pipeline,
    reflection_versor,
    rotation_versor,
    scale_versor,
    shear_versor,
    tolerance,
    translation_versor,
    versors,
)
from cl33.cli import main
from cl33.selftest import matrix_through_chain, rand_orthonormal, rand_unit
from helpers import dense_apply, dense_sandwich

COORD = st.integers(-16, 16).map(lambda k: k / 8)
SANDWICH_OPS = ("reflect", "rotate", "hrotate", "shear", "scale", "translate")


def _vec(v):
    return "(" + ",".join(f"{x:.17g}" for x in v) + ")"


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    assume(np.linalg.norm(v) > 0.1)
    return v / np.linalg.norm(v)


@st.composite
def orthonormal_pairs(draw):
    u = draw(unit_vectors())
    w = draw(unit_vectors())
    w = w - (w @ u) * u
    assume(np.linalg.norm(w) > 0.1)
    return u, w / np.linalg.norm(w)


@st.composite
def steps(draw, ops=("reflect", "rotate", "hrotate", "shear", "scale",
                     "translate", "cotranslate", "perspective", "pseudo")):
    """One DSL line, any of ``ops`` (by default all nine operations), with
    moderate parameters."""
    op = draw(st.sampled_from(ops))
    num = lambda lo, hi: draw(st.floats(lo, hi))
    vec = lambda r: np.array([num(-r, r) for _ in range(3)])
    if op in ("reflect", "pseudo"):
        return f"{op} n={_vec(draw(unit_vectors()))}"
    if op in ("rotate", "hrotate", "shear"):
        u, v = draw(orthonormal_pairs())
        key, bound = {"rotate": ("theta", 3.2), "hrotate": ("eta", 1.0),
                      "shear": ("t", 2.0)}[op]
        return f"{op} u={_vec(u)} v={_vec(v)} {key}={num(-bound, bound):.17g}"
    if op == "scale":
        return f"scale u={_vec(draw(unit_vectors()))} t={num(-1, 1):.17g}"
    if op in ("translate", "cotranslate"):
        return f"{op} v={_vec(vec(2.0 if op == 'translate' else 1.0))}"
    eye, n = vec(1.0), draw(unit_vectors())
    # keep the eye well off the plane: c - n.e in +-[0.5, 2]
    offset = num(0.5, 2.0) * draw(st.sampled_from((-1.0, 1.0)))
    return f"perspective eye={_vec(eye)} n={_vec(n)} c={float(n @ eye) + offset:.17g}"


pipelines = st.lists(steps(), min_size=1, max_size=6).map(lambda lines: "\n".join(lines) + "\n")
points = st.lists(st.tuples(st.one_of(st.just(0.0), COORD), COORD, COORD, COORD),
                  min_size=0, max_size=8).map(lambda rows: np.array(rows).reshape(-1, 4))


def _apply(source, rows, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        pipe, pts = Path(tmp) / "pipe.txt", Path(tmp) / "pts.txt"
        pipe.write_text(source)
        pts.write_text(pipeline.format_points(rows))
        lines = []
        code = main(["apply", "--pipeline", str(pipe), "--points", str(pts), *flags],
                    _capture=lines)
    return code, lines


def _close(got, want):
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1, initial=0.0))
    return np.all(np.abs(got - want) <= 1e-9 * scale[..., None])


@settings(max_examples=40, deadline=None)
@given(pipelines, points)
def test_matrix_path_agrees_with_versor_chain(source, rows):
    chain = parse_pipeline(source).composed()
    images = [dense_apply(chain, Paravector(w, (x, y, z))) for w, x, y, z in rows]
    want = np.array([[q.weight, *q.vector] for q in images]).reshape(-1, 4)

    code, lines = _apply(source, rows)
    assert code == 0
    assert _close(pipeline.parse_points("\n".join(lines)), want)

    code, lines = _apply(source, rows, "--normalize")
    assert code == 0
    got = pipeline.parse_points("\n".join(lines))
    for q, raw, row in zip(images, want, got):
        scale = max(1.0, float(np.max(np.abs(raw))))
        if abs(q.weight) < 1e-3 * tolerance(np.max(np.abs(q.vector))):
            assert _close(row, raw)
        elif abs(q.weight) > 1e-6 * scale:
            # a weight this far from zero divides without losing more than
            # the tolerance; rows nearer infinity are too ill-conditioned
            # for a fixed relative bound
            assert _close(row, np.concatenate(([1.0], q.vector / q.weight)))


@settings(max_examples=40, deadline=None)
@given(pipelines, pipelines)
def test_matrix_of_composition_is_product(first, second):
    a = parse_pipeline(first).transforms()
    b = parse_pipeline(second).transforms()
    want = compose(b).matrix @ compose(a).matrix
    assert _close(compose(a + b).matrix, want)


@settings(max_examples=25, deadline=None)
@given(pipelines, points)
def test_perturbed_sandwich_is_rejected(source, rows):
    assume(any(line.split()[0] in SANDWICH_OPS for line in source.splitlines()))
    code, _ = _apply(source, rows, "--perturb", "7:0.01")
    assert code == 4


ALL_OPS = ("reflect n=(0,0,1)\n"
           "rotate u=(1,0,0) v=(0,1,0) theta=0.7\n"
           "cotranslate v=(0.2,0,0.1)\n"
           "hrotate u=(0,1,0) v=(0,0,1) eta=0.3\n"
           "shear u=(1,0,0) v=(0,0,1) t=0.5\n"
           "scale u=(0,1,0) t=0.2\n"
           "translate v=(0.5,-1,2)\n"
           "pseudo n=(0,0,1)\n"
           "perspective eye=(0,0,-3) n=(0,0,1) c=1\n")

def _count_drafts(m, counts):
    """Count ``versors.draft`` calls by kind, in every module that calls it."""
    draft = versors.draft

    def counted(kind, *args):
        counts[kind] = counts.get(kind, 0) + 1
        return draft(kind, *args)

    for module in (versors, pipeline):
        m.setattr(module, "draft", counted)


def _counted_apply(monkeypatch, source, rows, *flags):
    """Multivector products and step drafts, by kind, during one apply."""
    counts = {"mul": 0}
    mul = multivector.Multivector.__mul__

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    with monkeypatch.context() as m:
        m.setattr(multivector.Multivector, "__mul__", counted_mul)
        _count_drafts(m, counts)
        code, lines = _apply(source, rows, *flags)
    assert code == 0 and len(lines) == len(rows)
    return counts


def test_no_per_point_algebra(monkeypatch):
    rng = np.random.default_rng(5)
    few = np.column_stack((np.ones(10), rng.uniform(-2, 2, (10, 3))))
    many = np.column_stack((np.ones(1000), rng.uniform(-2, 2, (1000, 3))))
    small = _counted_apply(monkeypatch, ALL_OPS, few, "--normalize")
    large = _counted_apply(monkeypatch, ALL_OPS, many, "--normalize")
    # the only products are the four fusions: rotate into reflect, and
    # shear, scale and translate into hrotate
    assert small["mul"] == 4 and small == large


def test_each_versor_built_once(monkeypatch, tmp_path):
    # one draft per step per call; a perspective drafts its two translations
    # (the second packaged as a cotranslation)
    rows = np.column_stack((np.ones(10), np.arange(30.0).reshape(10, 3)))
    counts = _counted_apply(monkeypatch, "rotate u=(1,0,0) v=(0,1,0) theta=0.5\n", rows)
    assert counts == {"mul": 0, versors.ROTATION: 1}
    perspective = "perspective eye=(0,0,0) n=(0,0,1) c=1\n"
    want = {versors.PERSPECTIVE: 1, versors.COTRANSLATION: 1, versors.TRANSLATION: 2}
    counts = _counted_apply(monkeypatch, perspective, rows)
    assert counts == {"mul": 0, **want}
    counts = {}
    with monkeypatch.context() as m:
        _count_drafts(m, counts)
        path = tmp_path / "p.txt"
        path.write_text(perspective)
        assert main(["matrix", "--pipeline", str(path)], _capture=[]) == 0
    assert counts == want


def _benchmark_shaped(rng):
    """The 13 steps of a projective benchmark pipeline: rotate, translate,
    perspective, cotranslate along its normal, the six sandwich ops in
    seeded order, pseudo, scale, shear."""
    n, eye = rand_unit(rng), rng.uniform(-1, 1, 3)
    u, v = rand_orthonormal(rng)
    middle = _six_ops(rng)
    return "\n".join(
        [f"rotate u={_vec(u)} v={_vec(v)} theta={rng.uniform(-3, 3):.17g}",
         f"translate v={_vec(rng.uniform(-3, 3, 3))}",
         f"perspective eye={_vec(eye)} n={_vec(n)} c={float(n @ eye) + 1.5:.17g}",
         f"cotranslate v={_vec(0.2 * n)}",
         *middle,
         f"pseudo n={_vec(n)}",
         f"scale u={_vec(u)} t={rng.uniform(-0.7, 0.7):.17g}",
         f"shear u={_vec(u)} v={_vec(v)} t={rng.uniform(-1.5, 1.5):.17g}"]) + "\n"


def test_projective_apply_makes_no_dense_product(monkeypatch):
    # the benchmark's 13-step projective pipeline: its 14 versors are built
    # in two planned products and fused in 7 products of multivectors into
    # 7 versors (a perspective holds two), whose images each take one
    # planned product, and the 4 translation-kind ones (the perspective's
    # two, the cotranslation and the pseudo-perspective) a second
    rng = np.random.default_rng(41)
    rows = np.column_stack((rng.uniform(0.5, 2, 50), rng.uniform(-3, 3, (50, 3))))
    planned = multivector.planned_products
    calls = []
    monkeypatch.setattr(versors, "planned_products",
                        lambda *args: calls.append(1) or planned(*args))
    for _ in range(3):
        source = _benchmark_shaped(rng)
        assert len(source.splitlines()) == 13
        calls.clear()
        counts = _counted_apply(monkeypatch, source, rows, "--normalize")
        assert counts["mul"] == 7
        assert len(calls) == 2 + 7 + 4


def test_matrix_makes_no_dense_product(monkeypatch):
    # the only products of multivectors are the 7 fusions; the probe of
    # `cl33 matrix` takes its ten points through each stage together, in
    # planned and tabled products
    rng = np.random.default_rng(43)
    calls = []
    mul = multivector.Multivector.__mul__
    monkeypatch.setattr(multivector.Multivector, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for _ in range(3):
        source = _benchmark_shaped(rng)
        calls.clear()
        with tempfile.TemporaryDirectory() as tmp:
            pipe = Path(tmp) / "pipe.txt"
            pipe.write_text(source)
            lines = []
            code = main(["matrix", "--pipeline", str(pipe)], _capture=lines)
        assert code == 0 and len(lines) == 4
        assert len(calls) == 7


def _point(transform, row, apply=dense_apply):
    """The image of one (w, x, y, z) row through ``apply(transform, p)``, by
    default the dense oracle, as a row."""
    q = apply(transform, Paravector(row[0], row[1:]))
    return np.array([q.weight, *q.vector])


def _outcome(fn):
    """The bytes ``fn`` returns, or the type and text of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn().tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


MAGNITUDE = st.tuples(st.floats(-1, 1), st.integers(0, 300)).map(lambda t: t[0] * 10.0 ** t[1])
big_points = st.lists(st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE, MAGNITUDE),
                      min_size=1, max_size=6).map(lambda rows: np.array(rows).reshape(-1, 4))


@st.composite
def odd_points(draw):
    """``big_points`` with up to two entries set to inf, -inf or NaN."""
    rows = draw(big_points)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        rows[i, j] = draw(st.sampled_from((np.inf, -np.inf, np.nan)))
    return rows


projective_pipelines = st.tuples(
    st.lists(steps(), max_size=4), steps(("perspective",)), steps(("pseudo",)),
    steps(("cotranslate",))).flatmap(
        lambda t: st.permutations(t[0] + list(t[1:]))).map(lambda lines: "\n".join(lines) + "\n")


def _block_rows(extra):
    """_POINT_BLOCK + extra seeded points: one block, less or more."""
    return np.random.default_rng(extra + 2).uniform(-4, 4, (versors._POINT_BLOCK + extra, 4))


_BLOCK_PIPELINE = ("perspective eye=(0,0,5) n=(0,0,1) c=1\nrotate u=(1,0,0) v=(0,1,0) theta=0.3\n"
                   "translate v=(1,2,3)\ncotranslate v=(1,0,0)\n")


@settings(max_examples=60, deadline=None)
@given(projective_pipelines, odd_points())
@example("scale u=(1,0,0) t=700\n", np.array([[1.0, 1.0, 2.0, 3.0], [1.0, 1e300, 0.0, 0.0]]))
@example(_BLOCK_PIPELINE, _block_rows(-1))
@example(_BLOCK_PIPELINE, _block_rows(0))
@example(_BLOCK_PIPELINE, _block_rows(1))
@example(_BLOCK_PIPELINE, _block_rows(versors._POINT_BLOCK + 1))
@example(_BLOCK_PIPELINE,
         np.vstack((_block_rows(versors._POINT_BLOCK), [[1.0, 0.0, np.inf, 0.0]])))
@example("rotate u=(1,0,0) v=(0,1,0) theta=0.3\ntranslate v=(1e8,0,0)\n",
         np.array([[1.0, 1.0, 2.0, 3.0], [1.0, 1e5, -1e5, 3.0]]))
@example("perspective eye=(0,0,5) n=(0,0,1) c=1\ncotranslate v=(1,0,0)\n",
         np.array([[np.inf, 1.0, 2.0, 3.0], [1.0, np.nan, 0.0, 0.0], [0.0, 0.0, -np.inf, 0.0]]))
def test_sandwich_points_is_apply_byte_for_byte(source, rows):
    chain = parse_pipeline(source).composed()
    want = [_outcome(lambda: _point(chain, row)) for row in rows]
    # the sandwich chain of a batch of one gives the dense oracle's row, or
    # the same error type and text
    assert [_outcome(lambda: versors.sandwich_points(chain, row[None])[0])
            for row in rows] == want
    if all(isinstance(w, bytes) for w in want):
        assert _outcome(lambda: versors.sandwich_points(chain, rows)) == b"".join(want)
    else:
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            versors.sandwich_points(chain, rows)


@settings(max_examples=60, deadline=None)
@given(projective_pipelines, odd_points())
@example("scale u=(1,0,0) t=700\n", np.array([[1.0, 1.0, 2.0, 3.0], [1.0, 1e300, 0.0, 0.0]]))
@example("translate v=(1e300,0,0)\n", np.array([[1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]]))
@example("rotate u=(1,0,0) v=(0,1,0) theta=0.3\n",
         np.array([[1.0, 1.0, 2.0, 3.0], [1.0, 1.7e308, 1.7e308, 0.0], [np.nan, 0.0, 0.0, 0.0]]))
def test_apply_points_is_the_matrix_product(source, rows):
    # one executor: rows @ matrix.T byte for byte, apply of a point its one
    # row, what the matrix raises, and for an image that is not finite a
    # DomainError naming the first such row
    chain = parse_pipeline(source).composed()
    try:
        m = chain.matrix
    except ValueError as exc:
        assert _outcome(lambda: chain.apply_points(rows)) == (type(exc), str(exc))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            want = rows @ m.T
        finite = np.isfinite(want).all(axis=1)
        if finite.all():
            assert chain.apply_points(rows).tobytes() == want.tobytes()
        else:
            with pytest.raises(DomainError, match="^the transformed point is not finite: the "
                               "arithmetic overflowed$") as info:
                chain.apply_points(rows)
            assert info.value.row == np.argmin(finite)
    for row in rows:
        one = _outcome(lambda: chain.apply_points(row[None])[0])
        assert _outcome(lambda: _point(chain, row, Composed.apply)) == one


def test_sandwich_points_plans_one_block_at_a_time(monkeypatch):
    # the rows are planned and multiplied a block at a time, so neither the
    # cached plans nor the temporaries of a call grow with its row count
    stages = parse_pipeline(_BLOCK_PIPELINE).composed()
    counts = []
    plan = versors._plan

    def recorded(left, right, count):
        counts.append(count)
        return plan(left, right, count)

    monkeypatch.setattr(versors, "_plan", recorded)
    block = versors._POINT_BLOCK
    versors.sandwich_points(stages, np.random.default_rng(9).uniform(-4, 4, (3 * block + 5, 4)))
    assert sorted(set(counts)) == [5, block]


def test_a_second_cycle_plans_nothing_anew(tmp_path):
    # the images, points and residual images of an affine and a 13-step
    # projective pipeline share the bounded plan cache: after one cycle of
    # apply --normalize, matrix and check, a second finds every plan kept
    rng = np.random.default_rng(47)
    rows = np.column_stack((rng.uniform(0.5, 2, 50), rng.uniform(-3, 3, (50, 3))))
    points = tmp_path / "pts.txt"
    points.write_text(pipeline.format_points(rows))
    calls = []
    for name, source in (("affine", "\n".join(_six_ops(rng)) + "\n"),
                         ("projective", _benchmark_shaped(rng))):
        path = tmp_path / f"{name}.txt"
        path.write_text(source)
        calls += [["apply", "--pipeline", str(path), "--points", str(points), "--normalize"],
                  ["matrix", "--pipeline", str(path)], ["check", "--pipeline", str(path)]]
    infos = []
    for _ in range(2):
        assert [main(argv, _capture=[]) for argv in calls] == [0] * len(calls)
        infos.append(versors._plan.cache_info())
    first, second = infos
    assert second.misses == first.misses and second.hits > first.hits


@pytest.mark.parametrize("count", [1, 2, 7, 30])
def test_pair_plans_are_the_per_product_plans(count):
    # the plan of count pairs is the plan of one pair, tiled: the same
    # arrays as planning each product in turn
    sets = [(0,), (1,), (2,), (0, 2), (0, 2, 4), (1, 3, 5), tuple(range(7))]
    for left in sets:
        for right in sets:
            got = versors._plan(left, right, count)
            want = multivector.product_plan([left, right] * count,
                                            [(2 * r, 2 * r + 1, False) for r in range(count)])
            assert all(np.array_equal(a, b) for a, b in zip(got[:4], want[:4]))
            assert (got.count, got.grades) == (want.count, want.grades)


def test_sandwich_points_of_one_raises_what_apply_raises():
    # a star-sandwich whose middle product carries grade > 3, and a
    # translation perturbed as --perturb 7:0.01 perturbs it
    uprime = 1.0 + 0.2 * Multivector.blade(0b001111) + 0.3 * Multivector.blade(0b010111)
    coeffs = translation_versor([1, 0, 0]).U.coeffs.copy()
    coeffs[7] += 0.01
    rows = np.array([[1.0, 1.0, 2.0, 3.0], [0.0, -1.0, 0.5, 2.0]])
    for stage in (HodgeVersor(uprime, 1.0), Versor(Multivector(coeffs), +1, "translation")):
        for row in rows:
            want = _outcome(lambda: _point(stage, row))
            assert isinstance(want, tuple)
            assert _outcome(lambda: versors.sandwich_points(stage, row[None])[0]) == want


def test_stage_matrix_is_apply_on_basis():
    u, v = np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.0, 1.0])
    stages = [
        reflection_versor([0.0, 0.6, 0.8]),
        rotation_versor(u, v, 0.7),
        hyperbolic_versor(u, v, -0.4),
        shear_versor(u, v, 1.3),
        scale_versor(v, 0.25),
        translation_versor([0.3, -1.5, 2.0]),
        compose([rotation_versor(u, v, 0.3), translation_versor([1.0, 2.0, -0.5]),
                 scale_versor(u, -0.6)]).stages[0],
        cotranslation_versor([0.2, -0.7, 0.4]),
        compose([cotranslation_versor([0.2, 0.1, 0.0]),
                 cotranslation_versor([-0.5, 0.3, 0.9])]).stages[0],
    ]
    for stage in stages:
        assert stage.images().shape == (4, 64)
        assert stage.matrix.tobytes() == matrix_through_chain(stage).tobytes(), stage


def test_perspective_matrix_matches_apply():
    rng = np.random.default_rng(31)
    for _ in range(20):
        eye = rng.uniform(-2, 2, 3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        stage = PerspectiveMap(Paravector(1.0, eye), n, float(n @ eye) + rng.uniform(0.5, 2.0))
        want = matrix_through_chain(stage)
        assert np.max(np.abs(stage.matrix - want)) <= 1e-14 * np.max(np.abs(want))
    stage = PerspectiveMap(Paravector(1.0, [0, 0, 5]), [0, 0, 1], 1.0)
    assert np.array_equal(stage.matrix, matrix_through_chain(stage))


# -- batched basis images ----------------------------------------------------------


def _six_ops(rng):
    """The six sandwich ops in seeded order, with seeded parameters."""
    lines = []
    for op in rng.permutation(SANDWICH_OPS):
        u, v = rand_orthonormal(rng)
        x = rng.uniform(-1.5, 1.5)
        lines.append({"reflect": f"reflect n={_vec(rand_unit(rng))}",
                      "rotate": f"rotate u={_vec(u)} v={_vec(v)} theta={x:.17g}",
                      "hrotate": f"hrotate u={_vec(u)} v={_vec(v)} eta={x:.17g}",
                      "shear": f"shear u={_vec(u)} v={_vec(v)} t={x:.17g}",
                      "scale": f"scale u={_vec(u)} t={x:.17g}",
                      "translate": f"translate v={_vec(rng.uniform(-3, 3, 3))}"}[op])
    return lines


def _projective(rng):
    """Six ops | perspective | cotranslate | pseudo | six ops: two fused
    sandwich stages, a perspective and a fused star-sandwich stage."""
    eye, n = rng.uniform(-1, 1, 3), rand_unit(rng)
    c = float(n @ eye) + rng.uniform(1.0, 2.0)
    return (_six_ops(rng)
            + [f"perspective eye={_vec(eye)} n={_vec(n)} c={c:.17g}",
               f"cotranslate v={_vec(rng.uniform(-0.5, 0.5, 3))}",
               f"pseudo n={_vec(n)}"]
            + _six_ops(rng))


def _versor_stages(source):
    """Every Versor and HodgeVersor of a pipeline: its fused stages, each
    step alone, and the two versors inside each perspective."""
    pipe = parse_pipeline(source)
    found = list(pipe.composed().stages) + pipe.transforms()
    found += [v for t in pipe.transforms() if isinstance(t, PerspectiveMap)
              for v in (t.cotranslate, t.from_eye)]
    return [t for t in found if isinstance(t, (Versor, HodgeVersor))]


def test_images_are_the_sandwiches_byte_for_byte():
    rng = np.random.default_rng(77)
    kinds = {Versor: 0, HodgeVersor: 0}
    for trial in range(16):
        lines = _projective(rng) if trial % 2 else _six_ops(rng)
        for stage in _versor_stages("\n".join(lines) + "\n"):
            want = np.array([dense_sandwich(stage, b).coeffs for b in POINT_BASIS])
            assert stage.images().tobytes() == want.tobytes(), stage
            assert stage.matrix.tobytes() == matrix_through_chain(stage).tobytes(), stage
            kinds[type(stage)] += 1
    assert kinds[Versor] >= 100 and kinds[HodgeVersor] >= 20


def _per_row_error(stage):
    """The error of reading the basis images one sandwich at a time."""
    try:
        for b in POINT_BASIS:
            extract_paravector(dense_sandwich(stage, b))
    except ValueError as exc:
        return exc
    raise AssertionError(f"{stage} reads cleanly")


def _assert_same_error(stage):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _per_row_error(stage)
        with pytest.raises(type(want)) as got:
            stage.matrix
    assert type(got.value) is type(want) and str(got.value) == str(want)
    return want


def test_perturbed_versor_keeps_its_error():
    # as --perturb 7:0.01 and 1:0.01 do to every sandwich stage; on the
    # translation the second leaves only a covector residue
    kinds = set()
    for source in ("translate v=(1,0,0)\n",
                   "\n".join(_six_ops(np.random.default_rng(3))) + "\n"):
        (stage,) = parse_pipeline(source).composed().stages
        for mask in (7, 1):
            coeffs = stage.U.coeffs.copy()
            coeffs[mask] += 0.01
            err = _assert_same_error(Versor(Multivector(coeffs), stage.epsilon, stage.kind))
            kinds.add(type(err))
    assert kinds == {NonParavectorResidue, CovectorResidue}


def test_non_finite_versor_keeps_its_error():
    for value in (np.inf, -np.inf, np.nan, 1e300):
        coeffs = rotation_versor([1, 0, 0], [0, 1, 0], 0.4).U.coeffs.copy()
        coeffs[3] = value
        err = _assert_same_error(Versor(Multivector(coeffs), +1, "rotation"))
        assert isinstance(err, DomainError) and "not finite" in str(err)


def test_star_sandwich_above_grade_3_keeps_its_error():
    # the middle product of rows 1 and 2 carries grade > 3, the residues
    # differ, and the error names the first row's
    uprime = 1.0 + 0.2 * Multivector.blade(0b001111) + 0.3 * Multivector.blade(0b010111)
    stage = HodgeVersor(uprime, 1.0)
    residues = []
    for b in POINT_BASIS:
        try:
            dense_sandwich(stage, b)
        except DomainError as exc:
            residues.append(str(exc))
    assert len(set(residues)) == 2
    err = _assert_same_error(stage)
    assert str(err) == residues[0] and "grade > 3" in str(err)
    with pytest.raises(DomainError, match="grade > 3") as got:
        stage.images()
    assert str(got.value) == residues[0]
