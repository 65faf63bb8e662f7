import numpy as np
import pytest

from cl33 import (
    HodgeVersor,
    Paravector,
    PipelineError,
    Versor,
    format_pipeline,
    format_points,
    inverse_pipeline,
    parse_pipeline,
    parse_points,
)
from cl33.versors import PerspectiveMap

FULL_SOURCE = """\
# a pipeline touching every operation
reflect n=(0,0,1)
rotate u=(1,0,0) v=(0,1,0) theta=1.5708
hrotate u=(1,0,0) v=(0,1,0) eta=-0.25
shear u=(1,0,0) v=(0,1,0) t=2
scale u=(0,0,1) t=0.5
translate v=(1,2,3)
cotranslate v=(0.5,0,0)   # inline comment
pseudo n=(0,0,1)
perspective eye=(0,0,0) n=(0,0,1) c=1
"""


def test_parse_simple_steps():
    p = parse_pipeline("translate v=(1,2,3)\n")
    assert len(p.steps) == 1
    assert p.steps[0].op == "translate"
    assert np.allclose(p.steps[0].params["v"], [1, 2, 3])

    p = parse_pipeline("rotate u=(1,0,0) v=(0,1,0) theta=1.5708")
    assert p.steps[0].params["theta"] == 1.5708


def test_parse_full_grammar():
    p = parse_pipeline(FULL_SOURCE)
    assert [s.op for s in p.steps] == [
        "reflect", "rotate", "hrotate", "shear", "scale",
        "translate", "cotranslate", "pseudo", "perspective"]
    transforms = p.transforms()
    assert isinstance(transforms[0], Versor)
    assert isinstance(transforms[6], HodgeVersor)
    assert isinstance(transforms[7], HodgeVersor)
    assert isinstance(transforms[8], PerspectiveMap)


def test_parse_comments_and_blanks():
    p = parse_pipeline("\n# only a comment\n\n   \ntranslate v=(1,0,0)\n")
    assert len(p.steps) == 1
    assert p.steps[0].line == 5


def test_semantic_error_carries_line():
    with pytest.raises(PipelineError) as info:
        parse_pipeline("translate v=(0,0,0)\nrotate u=(1,0,0) v=(1,0,0) theta=1\n")
    assert info.value.line == 2
    assert "orthogonal" in str(info.value)


def test_syntax_errors():
    with pytest.raises(PipelineError) as info:
        parse_pipeline("spin u=(1,0,0)\n")
    assert info.value.line == 1 and info.value.column == 1

    with pytest.raises(PipelineError) as info:
        parse_pipeline("translate v=(1,2)\n")
    assert info.value.column == 11

    with pytest.raises(PipelineError):
        parse_pipeline("translate v=(1,2,3) v=(1,2,3)\n")
    with pytest.raises(PipelineError):
        parse_pipeline("translate\n")
    with pytest.raises(PipelineError):
        parse_pipeline("rotate u=(1,0,0) v=(0,1,0) theta=abc\n")
    with pytest.raises(PipelineError):
        parse_pipeline("translate w=(1,2,3)\n")
    with pytest.raises(PipelineError):
        parse_pipeline("translate v\n")


def test_format_parse_round_trip():
    p = parse_pipeline(FULL_SOURCE)
    again = parse_pipeline(format_pipeline(p))
    assert again == p
    assert format_pipeline(parse_pipeline("")) == ""


def test_inverse_pipeline_round_trip():
    src = ("reflect n=(0,0,1)\n"
           "rotate u=(1,0,0) v=(0,1,0) theta=0.6\n"
           "hrotate u=(0,1,0) v=(0,0,1) eta=0.3\n"
           "shear u=(1,0,0) v=(0,0,1) t=-1.5\n"
           "scale u=(1,0,0) t=0.25\n"
           "translate v=(0.3,-0.7,2)\n"
           "cotranslate v=(0.2,0.1,0)\n")
    pipe = parse_pipeline(src)
    fwd = pipe.composed()
    bwd = inverse_pipeline(pipe).composed()
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = Paravector(1.0, rng.uniform(-2, 2, 3))
        q = bwd.apply(fwd.apply(p))
        assert q.approx_eq(p, atol=1e-10, rtol=1e-9)


def test_inverse_pipeline_rejects_projections():
    with pytest.raises(PipelineError):
        inverse_pipeline(parse_pipeline("pseudo n=(0,0,1)\n"))
    with pytest.raises(PipelineError):
        inverse_pipeline(parse_pipeline("perspective eye=(0,0,0) n=(0,0,1) c=1\n"))


def test_points_round_trip():
    text = "1 0 0 0\n# comment\n2.5 1 -2 3e-1\n\n0 0 0 -1\n"
    pts = parse_points(text)
    assert pts.shape == (3, 4) and pts.dtype == np.float64
    assert np.array_equal(pts, [[1, 0, 0, 0], [2.5, 1, -2, 0.3], [0, 0, 0, -1]])
    assert np.array_equal(parse_points(format_points(pts)), pts)
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-300, 300, size=(20, 4))
    assert np.array_equal(parse_points(format_points(rows)), rows)
    assert parse_points("# no points\n").shape == (0, 4)
    assert format_points(np.empty((0, 4))) == ""


def test_points_errors():
    with pytest.raises(PipelineError) as info:
        parse_points("1 2 3\n")
    assert info.value.line == 1
    with pytest.raises(PipelineError) as info:
        parse_points("1 0 0 0\n1 2 three 4\n")
    assert info.value.line == 2


def test_non_finite_values_rejected():
    for src, column in (("translate v=(0,0,0)\nrotate u=(1,0,0) v=(0,1,0) theta=1e400\n", 28),
                        ("reflect n=(0,0,1)\ntranslate v=(1e400,0,0)\n", 11)):
        with pytest.raises(PipelineError) as info:
            parse_pipeline(src)
        assert (info.value.line, info.value.column) == (2, column)
        assert "finite" in str(info.value)
    for row in ("1 nan 0 0", "1 1e400 0 0"):
        with pytest.raises(PipelineError) as info:
            parse_points("1 0 0 0\n" + row + "\n")
        assert info.value.line == 2


def test_composed_pipeline_fuses_adjacent_sandwiches():
    pipe = parse_pipeline("translate v=(1,0,0)\ntranslate v=(0,1,0)\nscale u=(0,0,1) t=1\n")
    comp = pipe.composed()
    assert len(comp.stages) == 1   # three sandwiches fuse into one


def test_empty_pipeline_is_identity():
    comp = parse_pipeline("").composed()
    p = Paravector(1.0, [1, 2, 3])
    assert comp.apply(p).approx_eq(p)
