"""Every drawn pipeline ends in a result or a documented exit code.

Pipelines of 1 to 3 steps over all nine operations, with coordinates of
translations, eyes and points that are 0, a subnormal, or +-10^k for k in
-320..160, unit directions (30% on an axis) and scalars up to +-40, go
through ``apply`` (three points), ``matrix`` and ``check`` in process.
Each command exits 0 or with one of the codes 2-5, raises nothing, and
every row that ``apply`` prints with exit 0 is finite.  A failing draw
reports its pipeline and points.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cl33 import cli
from helpers import AXES, render

EXITS = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_DEGENERATE, cli.EXIT_RESIDUE, cli.EXIT_CONDITION}

SIGNS = st.sampled_from((1.0, -1.0))
#: 0, a subnormal (a multiple of the smallest one), or +-10^k.
COORDINATES = st.one_of(
    st.just(0.0),
    st.builds(lambda m, s: s * m * 5e-324, st.integers(1, 2 ** 52 - 1), SIGNS),
    st.builds(lambda k, s: s * 10.0 ** k, st.integers(-320, 160), SIGNS))
VECTORS = st.lists(COORDINATES, min_size=3, max_size=3).map(np.array)
SCALARS = st.floats(-40, 40)


@st.composite
def directions(draw):
    """Unit vectors: a signed axis in 30% of the draws, else a normalized draw."""
    if draw(st.integers(0, 9)) < 3:
        return AXES[draw(st.integers(0, 2))] * draw(SIGNS)
    v = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    return v / norm if norm > 0.1 else AXES[0]


@st.composite
def pairs(draw):
    """Orthonormal pairs of ``directions``."""
    u, w = draw(directions()), draw(directions())
    w = w - (w @ u) * u
    if np.linalg.norm(w) < 0.1:
        w = np.cross(u, AXES[np.argmin(np.abs(u))])
    return u, w / np.linalg.norm(w)


@st.composite
def steps(draw):
    """(op, params) of one step of any of the nine operations."""
    op = draw(st.sampled_from(("reflect", "rotate", "hrotate", "shear", "scale", "translate",
                               "cotranslate", "perspective", "pseudo")))
    if op in ("reflect", "pseudo"):
        return op, {"n": draw(directions())}
    if op in ("rotate", "hrotate", "shear"):
        u, v = draw(pairs())
        return op, {"u": u, "v": v, {"rotate": "theta", "hrotate": "eta"}.get(op, "t"):
                    draw(SCALARS)}
    if op == "scale":
        return op, {"u": draw(directions()), "t": draw(SCALARS)}
    if op in ("translate", "cotranslate"):
        return op, {"v": draw(VECTORS)}
    return op, {"eye": draw(VECTORS), "n": draw(directions()), "c": draw(SCALARS)}


POINTS = st.lists(st.lists(COORDINATES, min_size=4, max_size=4), min_size=3, max_size=3)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("drawn")
    return folder / "pipeline.txt", folder / "points.txt"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(steps(), min_size=1, max_size=3), POINTS)
# a finite matrix whose product with a point overflows, which the draws
# above seldom reach
@example([("translate", {"v": np.array([1e150, 0.0, 0.0])})],
         [[1e160, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1e-320, 0.0, 0.0]])
def test_every_command_exits_with_a_documented_code(files, steps_, points):
    pipe, pts = files
    source = render(steps_)
    rows = "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in points)
    pipe.write_text(source, encoding="utf-8")
    pts.write_text(rows, encoding="utf-8")
    draw = f"pipeline:\n{source}points:\n{rows}"
    for argv in (["apply", "--points", str(pts)], ["matrix"], ["check"]):
        lines = []
        try:
            code = cli.main([*argv[:1], "--pipeline", str(pipe), *argv[1:]], _capture=lines)
        except Exception as exc:  # noqa: BLE001 - the property is that none escapes
            pytest.fail(f"{argv[0]} raised {exc!r}\n{draw}")
        assert code in EXITS, (argv[0], code, lines, draw)
        if argv[0] == "apply" and code == cli.EXIT_OK:
            got = np.array([line.split() for line in lines], dtype=np.float64)
            assert got.shape == (3, 4) and np.isfinite(got).all(), (lines, draw)
