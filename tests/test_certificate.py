"""The a-priori certificate of ``cl33 matrix``: the steps' componentwise
rounding radii (``versors.point_bounds``) skip the 10-point probe only when
it would pass.

``_certified`` is a filter in front of ``_probe_failure``: whenever it
holds, the probe must find no failure, and the probe, with its errors, runs
whenever it does not.  A pipeline that no radius decides costs what it cost
before the certificate; one that is certified returns the same matrix.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cl33 import analysis, cli, versors
from cl33.errors import NotLinearError
from cl33.pipeline import parse_pipeline
from exact import exact_matrix
from helpers import orthonormal_pairs, render, unit_vectors

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def golden(name):
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def magnitudes(low, high):
    """3-vectors of entries in [-1, 1] times 10^k, k in low..high."""
    return st.builds(lambda k, v: 10.0 ** k * np.array(v), st.integers(low, high),
                     st.lists(st.floats(-1, 1), min_size=3, max_size=3))


#: Translations and eyes of 1e-3..1e12, where the probe passes or fails by
#: rounding.
MODERATE = magnitudes(-3, 12)
#: Those, or, in half the draws, 1e150..1e156, where a stage's radius
#: overflows.
WIDE = st.one_of(MODERATE, magnitudes(150, 156))


@st.composite
def steps(draw, sizes=WIDE):
    """(op, params) of one step of any of the nine operations, with
    translations and eyes drawn from ``sizes``, |t| and |eta| up to 40, and
    perspectives whose c - g(n, eye) is as small as 1e-8 of the eye."""
    op = draw(st.sampled_from(("reflect", "rotate", "hrotate", "shear", "scale", "translate",
                               "cotranslate", "perspective", "pseudo")))
    if op in ("reflect", "pseudo"):
        return op, {"n": draw(unit_vectors())}
    if op in ("rotate", "hrotate"):
        u, v = draw(orthonormal_pairs())
        key, bound = ("theta", 10.0) if op == "rotate" else ("eta", 40.0)
        return op, {"u": u, "v": v, key: draw(st.floats(-bound, bound))}
    if op == "shear":
        u, v = draw(orthonormal_pairs())
        return op, {"u": u * draw(st.floats(0.1, 10)), "v": v * draw(st.floats(0.1, 10)),
                    "t": draw(st.floats(-10, 10))}
    if op == "scale":
        return op, {"u": draw(unit_vectors()), "t": draw(st.floats(-40, 40))}
    if op in ("translate", "cotranslate"):
        return op, {"v": draw(sizes)}
    eye, n = draw(sizes), draw(unit_vectors())
    a = 10.0 ** draw(st.floats(-8, 1)) * max(1.0, np.max(np.abs(eye)))
    return op, {"eye": eye, "n": n, "c": float(n @ eye) + draw(st.sampled_from((-a, a)))}


def probe_inputs(source):
    """The transform of a pipeline source, and the probe's rows and their
    images under its matrix, computed as the probe computes them."""
    transform = parse_pipeline(source).composed()
    m = transform.matrix
    rows = analysis._MATRIX_PROBE_ROWS
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([m @ row for row in rows])
    return transform, want, rows


def unsound(source) -> bool:
    """Whether the certificate accepts a pipeline that the probe rejects;
    False for a pipeline whose parse or matrix raises, which never reaches
    the probe."""
    try:
        transform, want, rows = probe_inputs(source)
    except ValueError:
        return False
    return (analysis._certified(transform, want, rows)
            and analysis._probe_failure(transform, want, rows) is not None)


PIPELINES = st.lists(steps(), min_size=1, max_size=5)


# 300 draws, since half of WIDE's sizes are ones the probe rejects outright
@settings(max_examples=300, deadline=None, database=None)
@given(PIPELINES)
def test_a_certified_probe_passes(steps_):
    assert not unsound(render(steps_))


def test_the_soundness_property_bites(monkeypatch):
    # with every step's radius shrunk by 1e6, a translation of 1e8 is
    # certified, yet its points deviate from its matrix, and the property
    # finds such a pipeline
    radius = versors._radius

    def shrunk(*args):
        return [(matrix / 1e6, [(r / 1e6, divisor) for r, divisor in checks], size)
                for matrix, checks, size in radius(*args)]

    monkeypatch.setattr(versors, "_radius", shrunk)
    assert unsound("translate v=(1e8,0,0)\n")

    # 150 draws find one in about 19 runs of 20; 600 leave about one run in
    # 10^5 without
    @settings(max_examples=600, deadline=None, database=None, phases=[Phase.generate])
    @given(st.lists(steps(MODERATE), min_size=1, max_size=5))
    def the_property(steps_):
        assert not unsound(render(steps_))

    with pytest.raises(AssertionError):
        the_property()


@pytest.mark.parametrize("name", ["affine", "empty", "fused-extreme", "interleaved",
                                  "perspective", "projective", "pseudo", "signed-zero"])
def test_the_golden_pipelines_that_pass_the_probe_are_certified(name):
    transform, want, rows = probe_inputs(golden(name))
    assert analysis._certified(transform, want, rows)
    assert analysis.projective_matrix_probe(transform) is transform.matrix


#: Pipelines whose matrix the probe rejects, and the deviation it reports.
UNCERTIFIED = {
    "deviation": (golden("deviation"), "2.123e+06"),
    "overflow-middle": (golden("overflow-middle"), "1.820e+149"),
    "translate 1e8": ("translate v=(1e8,0,0)\n", "4.038e-02"),
    "perspective eye 1e4": ("perspective eye=(1e4,0,0) n=(1,0,0) c=1\n", "1.655e-08"),
}


@pytest.mark.parametrize("source, dev", UNCERTIFIED.values(), ids=list(UNCERTIFIED))
def test_pipelines_the_probe_rejects_are_not_certified(source, dev):
    transform, want, rows = probe_inputs(source)
    assert not analysis._certified(transform, want, rows)
    with pytest.raises(NotLinearError) as info:
        analysis.projective_matrix_probe(transform)
    assert str(info.value) == f"transform deviates from its probe matrix by {dev} at a random point"


#: Stages whose radius overflows, with the ``cl33 matrix`` error the probe
#: gives them.
TOO_LARGE_TO_BOUND = {
    "translate 1e154": ("translate v=(1e154,-3e154,2e154)\n",
                        "error: residue: grade >= 2 residue 2.495e+291 exceeds tolerance 2.495e+282"),
    "cotranslate 1e155": ("cotranslate v=(1e155,0,0)\n",
                          "error: transform deviates from its probe matrix by 4.382e+154 "
                          "at a random point"),
}


@pytest.mark.parametrize("source, error", TOO_LARGE_TO_BOUND.values(),
                         ids=list(TOO_LARGE_TO_BOUND))
def test_stages_too_large_to_bound_are_not_certified(source, error, tmp_path):
    transform, want, rows = probe_inputs(source)
    # the size of the stage's radius, 4 _STAR_DIVISOR (1 + |U|_1)^2,
    # overflows to inf, and so does every floor the stage adds to a point's
    # radius
    (radius,) = versors._step_radii(transform.stages)
    assert np.isinf(radius[2])
    assert not analysis._certified(transform, want, rows)
    pipe = tmp_path / "pipe.txt"
    pipe.write_text(source, encoding="utf-8")
    out = []
    assert cli.main(["matrix", "--pipeline", str(pipe)], _capture=out) == cli.EXIT_RESIDUE
    assert out == [error]


#: Pipelines the componentwise radii certify, all of which the probe passes.
#: The parent's 1-norm bounds certified the perspectives with the eye on the
#: normal's axis and the scales, but not the translations and
#: cotranslations of 5e3 to 1e4 off an axis, the perspective whose eye is
#: 100 off the normal, or the golden projective pipeline with its first
#: translation set to 1000 (1, 0.2, -0.3).
#: Translations of 1e5 and 1e6 stay uncertified: the radius of their
#: images' grade >= 2 residue grows as |v|^2, past extraction's tolerance.
CERTIFIED = {
    "translate 1e4": "translate v=(1e4,5e3,-2e3)\n",
    "translate 8e3": "translate v=(5e3,-8e3,2e3)\n",
    "cotranslate 1e4": "cotranslate v=(1e4,0,0)\n",
    "cotranslate 8e3": "cotranslate v=(5e3,-8e3,2e3)\n",
    "perspective eye 30": "perspective eye=(30,0,0) n=(1,0,0) c=1\n",
    "perspective eye 100": "perspective eye=(100,0,0) n=(1,0,0) c=1\n",
    "perspective eye 100 off the normal": "perspective eye=(60,-80,0) n=(0,0.6,0.8) c=1\n",
    "scale 10": "scale u=(1,0,0) t=10\n",
    "scale 20": "scale u=(0,0,1) t=20\n",
    "scale 30": "scale u=(0,1,0) t=30\n",
    "projective with a translation of 1000": golden("projective").replace(
        "translate v=(2.95080379614053,0.36847893918269525,2.1007832558200814)",
        "translate v=(1000,200,-300)"),
}


@pytest.mark.parametrize("source", CERTIFIED.values(), ids=list(CERTIFIED))
def test_the_radius_certifies_what_the_probe_passes(source):
    transform, want, rows = probe_inputs(source)
    assert analysis._certified(transform, want, rows)
    assert analysis._probe_failure(transform, want, rows) is None


def test_a_subclass_of_a_library_stage_is_not_certified():
    class Doubled(versors.Versor):
        def apply_points(self, rows):
            return 2.0 * super().apply_points(rows)

    (stage,) = parse_pipeline("rotate u=(1,0,0) v=(0,1,0) theta=0.5\n").transforms()
    doubled = Doubled(stage.U, stage.epsilon, stage.kind)
    rows = analysis._MATRIX_PROBE_ROWS
    assert not analysis._certified(doubled, rows @ doubled.matrix.T, rows)
    with pytest.raises(NotLinearError):
        analysis.projective_matrix_probe(doubled)


def test_apply_evaluates_no_bound_and_matrix_does(monkeypatch):
    calls = []
    radius = versors._radius

    def counted(*args):
        calls.append(args)
        return radius(*args)

    monkeypatch.setattr(versors, "_radius", counted)
    pipe, points = str(GOLDEN / "projective.txt"), str(GOLDEN / "points.txt")
    for flags in ([], ["--normalize"]):
        assert cli.main(["apply", "--pipeline", pipe, "--points", points, *flags],
                        _capture=[]) == cli.EXIT_OK
    assert calls == []
    assert cli.main(["matrix", "--pipeline", pipe], _capture=[]) == cli.EXIT_OK
    assert calls


def radius_holds(source) -> bool:
    """Whether every entry of the matrix of every Versor and HodgeVersor
    step of a pipeline lies within that step's radius of the exact matrix
    of its computed versor: the matrix of its ``radius``, plus the floor of
    a basis point (|x|_1 = 1), widened by BOUND_SLACK.  A step
    whose matrix raises makes no claim, nor does an entry whose radius is
    not finite."""
    for transform in parse_pipeline(source).transforms():
        steps = versors._linear_steps(transform)
        for step, radius in zip(steps, versors._step_radii(steps)):
            if radius is None:
                continue
            try:
                m = step.matrix
            except ValueError:
                continue
            matrix, _, size = radius
            with np.errstate(over="ignore", invalid="ignore"):
                bound = (matrix + 2.0 * size * versors._FLOOR) * versors.BOUND_SLACK
            exact = exact_matrix(step)
            for i, j in zip(*np.nonzero(np.isfinite(bound))):
                if abs(Fraction(float(m[i, j])) - exact[i][j]) > Fraction(float(bound[i, j])):
                    return False
    return True


@settings(max_examples=100, deadline=None, database=None)
@given(steps(magnitudes(0, 150)))
def test_every_step_matrix_entry_lies_within_its_radius(step):
    assert radius_holds(render([step]))


def test_the_radius_property_bites(monkeypatch):
    # the matrix of this translation errs by 1.9e-6, a twentieth of its
    # radius, which a radius shrunk by 1e6 no longer covers
    source = "translate v=(123456.7,-234567.1,345678.9)\n"
    assert radius_holds(source)
    radius = versors._radius

    def shrunk(*args):
        return [(matrix / 1e6, checks, size) for matrix, checks, size in radius(*args)]

    monkeypatch.setattr(versors, "_radius", shrunk)
    assert not radius_holds(source)
