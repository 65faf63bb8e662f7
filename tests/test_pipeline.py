import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl33 import (
    DegenerateConfigurationError,
    HodgeVersor,
    Paravector,
    PipelineError,
    Versor,
    format_pipeline,
    format_points,
    inverse_pipeline,
    parse_pipeline,
    parse_points,
    pipeline,
)
from cl33.versors import PerspectiveMap
from helpers import ChunkReadsOnly

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


#: (source, error type, line, column, str(exc)) of each syntax and
#: precondition error of the DSL; a degenerate perspective raises its own
#: error, not wrapped in a PipelineError.
PARSE_ERRORS = [
    ('spin u=(1,0,0)', PipelineError, 1, 1,
     "line 1, column 1: unknown operation 'spin'"),
    ('   spin u=(1,0,0)', PipelineError, 1, 4,
     "line 1, column 4: unknown operation 'spin'"),
    ('translate v', PipelineError, 1, 11,
     "line 1, column 11: expected key=value, got 'v'"),
    ('rotate u=(1,0,0)  v v=(0,1,0) theta=1', PipelineError, 1, 19,
     "line 1, column 19: expected key=value, got 'v'"),
    ('translate v=(1,2,3) v=(1,2,3)', PipelineError, 1, 21,
     "line 1, column 21: duplicate parameter 'v'"),
    ('translate w=(1,2,3)', PipelineError, 1, 11,
     "line 1, column 11: operation 'translate' takes no parameter 'w'"),
    ('rotate u=(1,0,0) v=(0,1,0) n=(0,0,1) theta=1', PipelineError, 1, 28,
     "line 1, column 28: operation 'rotate' takes no parameter 'n'"),
    ('translate v=(1,2)', PipelineError, 1, 11,
     "line 1, column 11: parameter 'v' must be a vector (x,y,z), got '(1,2)'"),
    ('translate\tv=(1,2,inf)', PipelineError, 1, 11,
     "line 1, column 11: parameter 'v' must be a vector (x,y,z), got '(1,2,inf)'"),
    ('translate v=(1, 2,3)', PipelineError, 1, 11,
     "line 1, column 11: parameter 'v' must be a vector (x,y,z), got '(1,'"),
    ('rotate u=(1,0,0) v=(0,1,0) theta=abc', PipelineError, 1, 28,
     "line 1, column 28: parameter 'theta' must be a number, got 'abc'"),
    ('scale u=(0,0,1) t=nan', PipelineError, 1, 17,
     "line 1, column 17: parameter 't' must be a number, got 'nan'"),
    ('translate v=(1e400,0,0)', PipelineError, 1, 11,
     "line 1, column 11: parameter 'v' must be finite, got '(1e400,0,0)'"),
    ('rotate u=(1,0,0) v=(0,1,0) theta=-1e999', PipelineError, 1, 28,
     "line 1, column 28: parameter 'theta' must be finite, got '-1e999'"),
    ('translate', PipelineError, 1, 1,
     "line 1, column 1: operation 'translate' missing parameter(s) ['v']"),
    ('rotate u=(1,0,0) v=(0,1,0)', PipelineError, 1, 18,
     "line 1, column 18: operation 'rotate' missing parameter(s) ['theta']"),
    ('perspective   eye=(0,0,0) c=1', PipelineError, 1, 27,
     "line 1, column 27: operation 'perspective' missing parameter(s) ['n']"),
    ('rotate u=(1,1,0) v=(0,0,1) theta=0.5', PipelineError, 1, None,
     'line 1: u must be a unit vector, |u|^2 = 2'),
    ('hrotate u=(1,0,0) v=(0,0.6,0.8000001) eta=0.5', PipelineError, 1, None,
     'line 1: v must be a unit vector, |v|^2 = 1.00000016'),
    ('rotate u=(1,0,0) v=(0.6,0.8,0) theta=0.5', PipelineError, 1, None,
     'line 1: u and v must be orthogonal, g(u, v) = 0.6'),
    ('shear u=(1,2,0) v=(1,0,3) t=1', PipelineError, 1, None,
     'line 1: u and v must be orthogonal, g(u, v) = 1'),
    ('perspective eye=(0,0,0) n=(0,0,0) c=1', DegenerateConfigurationError, None, None,
     'the plane normal n is zero: every point would go to infinity'),
    ('perspective eye=(0,0,1) n=(0,0,1) c=1', DegenerateConfigurationError, None, None,
     'eye lies on the projection plane (c - n.e = 0.000e+00)'),
    ('perspective eye=(1,2,3) n=(0,0,2) c=6', DegenerateConfigurationError, None, None,
     'eye lies on the projection plane (c - n.e = 0.000e+00)'),
    ('pseudo n=(0,0,2)', PipelineError, 1, None,
     'line 1: n must be a unit vector, |n|^2 = 4'),
    ('pseudo n=(0.6,0.8,0.1)', PipelineError, 1, None,
     'line 1: n must be a unit vector, |n|^2 = 1.01'),
    ('reflect n=(0,0,0)', PipelineError, 1, None,
     'line 1: n must be a unit vector, |n|^2 = 0'),
    ('scale u=(1,0,0) t=2000', PipelineError, 1, None,
     'line 1: t = 2000 is too large in magnitude: cosh(t/2) overflows'),
    ('hrotate u=(1,0,0) v=(0,1,0) eta=-1500', PipelineError, 1, None,
     'line 1: eta = -1500 is too large in magnitude: cosh(eta/2) overflows'),
    ('cotranslate v=(1,2,3) n=(0,0,1)', PipelineError, 1, 23,
     "line 1, column 23: operation 'cotranslate' takes no parameter 'n'"),
    ('translate v=(1,2,3)\nrotate u=(1,0,0) v=(1,0,0) theta=1', PipelineError, 2, None,
     'line 2: u and v must be orthogonal, g(u, v) = 1'),
    ('# comment\n\n  scale   u=(1,0,0)   t=0.5   x=1', PipelineError, 3, 31,
     "line 3, column 31: operation 'scale' takes no parameter 'x'"),
    ('translate\xa0v=(1,2)', PipelineError, 1, 11,
     "line 1, column 11: parameter 'v' must be a vector (x,y,z), got '(1,2)'"),
    ('translate v=(١,2,3) w=1', PipelineError, 1, 21,
     "line 1, column 21: operation 'translate' takes no parameter 'w'"),
    ('scale u=(0,2,0) t=0.5', PipelineError, 1, None,
     'line 1: u must be a unit vector, |u|^2 = 4'),
    ('translate v=(1_0,2,3)', PipelineError, 1, 11,
     "line 1, column 11: parameter 'v' must be a vector (x,y,z), got '(1_0,2,3)'"),
    ('rotate u=(1,0,0) v=(0,1,0) theta=0x10', PipelineError, 1, 28,
     "line 1, column 28: parameter 'theta' must be a number, got '0x10'"),
]


@pytest.mark.parametrize("source, error, line, column, message", PARSE_ERRORS)
def test_parse_errors_keep_message_line_and_column(source, error, line, column, message):
    with pytest.raises(ValueError) as info:
        parse_pipeline(source + "\n")
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line
    assert getattr(info.value, "column", None) == column


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
    assert inverse_pipeline(inverse_pipeline(pipe)) == pipe


def test_steps_compare_by_op_and_values():
    a = parse_pipeline("translate v=(1,2,3)\n").steps[0]
    b = parse_pipeline("\ntranslate v=(1,2,3)\n").steps[0]
    assert a.line != b.line and a == b
    assert a != parse_pipeline("translate v=(1,2,4)\n").steps[0]
    assert a != parse_pipeline("cotranslate v=(1,2,3)\n").steps[0]
    with pytest.raises(TypeError):
        hash(a)


def test_inverse_pipeline_rejects_projections():
    with pytest.raises(PipelineError):
        inverse_pipeline(parse_pipeline("pseudo n=(0,0,1)\n"))
    with pytest.raises(PipelineError):
        inverse_pipeline(parse_pipeline("perspective eye=(0,0,0) n=(0,0,1) c=1\n"))


def test_each_pipeline_is_built_by_one_build_call(monkeypatch):
    # parse_pipeline and inverse_pipeline build all their steps in one call;
    # reading the transforms back builds nothing more
    calls = []
    build = pipeline.build
    monkeypatch.setattr(pipeline, "build", lambda drafts: calls.append(1) or build(drafts))
    pipe = parse_pipeline(FULL_SOURCE)
    assert len(calls) == 1
    affine = parse_pipeline("\n".join(FULL_SOURCE.splitlines()[:8]))
    assert len(calls) == 2
    inverse = inverse_pipeline(affine)
    assert len(calls) == 3
    assert len(pipe.transforms()) == 9 and len(inverse.transforms()) == 7
    pipe.composed()
    inverse.composed()
    assert len(calls) == 3
    assert not hasattr(pipe.steps[0], "transform")


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


# -- point files: the chunked fast path against the line-by-line reference ------

#: Tokens whose fate is float()'s: accepted, rejected, or non-finite.
ODD_TOKENS = ["+.5", "1e", "1_0", "infinity", "-Infinity", "nan", "1e400", "-1e-400",
              "-0", "0x10", "\u0661\u0662", "1.", "+", "abc"]
#: What ends a generated line: a splitlines separator, or a space that
#: joins it to the next line.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028", " "]
FIELD_GAPS = [" ", "\t", "  \t", "\xa0"]

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(ODD_TOKENS))


@st.composite
def point_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment", "odd-width"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "comment":
        return "# " + draw(numbers)
    width = 4 if kind == "row" else draw(st.sampled_from([3, 5]))
    gap = draw(st.sampled_from(FIELD_GAPS))
    line = gap.join(draw(st.lists(numbers, min_size=width, max_size=width)))
    if draw(st.booleans()):
        line = draw(st.sampled_from(FIELD_GAPS)) + line
    if draw(st.integers(0, 5)) == 0:
        line += " # trailing comment"
    return line


@st.composite
def point_files(draw):
    lines = draw(st.lists(point_lines(), max_size=12))
    breaks = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                           max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if lines and draw(st.booleans()):
        text = text[:-len(breaks[-1])]
    return text


def _outcome(parse, source):
    try:
        rows = parse(source)
    except PipelineError as exc:
        return "error", str(exc), exc.line
    return "rows", rows.shape, rows.dtype, rows.tobytes()


@settings(max_examples=300, deadline=None)
@given(point_files(), st.sampled_from([1, 3, 8, 32, 1 << 18]))
def test_fast_points_match_reference_parser(text, chunk_chars):
    want = _outcome(pipeline._parse_points_by_line, text)
    with mock.patch.object(pipeline, "POINT_CHUNK_CHARS", chunk_chars):
        assert _outcome(parse_points, text) == want
        assert _outcome(parse_points, io.StringIO(text)) == want
    # the fast path alone takes exactly the reference's language, bit for bit
    if "#" not in text:
        fast = pipeline._chunk_rows(text)
        assert (fast is None) == (want[0] == "error")
        if fast is not None:
            assert _outcome(lambda _: fast, text) == want


def test_chunks_never_split_a_line():
    # an 8-field row cut after its fourth field must still be rejected
    for text in ("1 2 3 4 5 6 7 8\n", "1 2 3 4 5 6 7 8", "1 2 3 4\r\n5 6 7 8\r\n",
                 "10 20 30 40\n\n-1 -2 -3 -4\n"):
        want = _outcome(pipeline._parse_points_by_line, text)
        for size in range(1, len(text) + 1):
            with mock.patch.object(pipeline, "POINT_CHUNK_CHARS", size):
                assert _outcome(parse_points, text) == want, (text, size)
                assert _outcome(parse_points, io.StringIO(text)) == want, (text, size)


def test_bad_row_opening_the_second_chunk_reports_its_line():
    row = "1 2 3 4\n"
    assert pipeline.POINT_CHUNK_CHARS % len(row) == 0
    first = pipeline.POINT_CHUNK_CHARS // len(row)
    for bad, message in (("1 2 3\n", "expected 4 fields"), ("1 2 x 4\n", "bad number"),
                         ("1 2 nan 4\n", "non-finite")):
        text = row * first + bad + row * 3
        for source in (text, io.StringIO(text)):
            with pytest.raises(PipelineError, match=message) as info:
                parse_points(source)
            assert info.value.line == first + 1
    # a comment there is no error: the rows come through the reference parser
    rows = parse_points(row * first + "# note\n" + row)
    assert rows.shape == (first + 1, 4) and np.array_equal(rows[-1], [1, 2, 3, 4])


def test_only_the_chunk_with_a_comment_takes_the_line_parser():
    row = "1 2 3 4\n"
    text = row * 4 + row * 3 + "# note.\n" + row * 4
    spy = mock.Mock(wraps=pipeline._parse_points_by_line)
    with mock.patch.object(pipeline, "POINT_CHUNK_CHARS", 4 * len(row)), \
            mock.patch.object(pipeline, "_parse_points_by_line", spy):
        rows = parse_points(text)
    assert np.array_equal(rows, np.tile([1.0, 2, 3, 4], (11, 1)))
    # the middle of three chunks, numbered from its own first line
    assert spy.call_count == 1
    assert len(spy.call_args.args[0]) == 4 * len(row)
    assert spy.call_args.args == (text[32:64], 5)


UNSEEKABLE_TEXTS = [
    "1 2 3 4\n" * 9,
    "# head\n1 0 0 0\n\n2 2 2 2\r\n3 3 3 3 # tail\n4 4 4 4",
    "1 0 0 0\r" * 5 + "# c\n" + "1 0 0 0\n" * 5 + "1 2 x 4\n",
    "1 0 0 0\n" * 6 + "# c\n" + "1 2 3\n",
    "1 0 0 0\n" * 4 + "1 nan 0 0\n",
    "",
]


def test_unseekable_source_is_read_a_chunk_at_a_time():
    for text in UNSEEKABLE_TEXTS:
        want = _outcome(pipeline._parse_points_by_line, text)
        lines = [lineno for lineno, _ in pipeline._data_lines(text)]
        for size in (1, 5, 8, 64):
            with mock.patch.object(pipeline, "POINT_CHUNK_CHARS", size):
                source = ChunkReadsOnly(io.StringIO(text), size)
                assert _outcome(parse_points, source) == want, (text, size)
                if want[0] == "rows":
                    for index, lineno in enumerate(lines):
                        source = ChunkReadsOnly(io.StringIO(text), size)
                        assert pipeline.point_line(source, index) == lineno


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False), min_size=4, max_size=4), max_size=20))
def test_format_points_bytes_match_line_join(rows):
    points = np.array(rows, dtype=np.float64).reshape(-1, 4)
    lines = [f"{w:.17g} {x:.17g} {y:.17g} {z:.17g}" for w, x, y, z in points.tolist()]
    assert format_points(points) == "\n".join(lines) + ("\n" if lines else "")
