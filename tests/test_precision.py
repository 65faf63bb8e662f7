"""The precision table: ``cl33 apply --normalize`` of the point 1 1 2 3
through the large translations, cotranslations and far eyes of ROADMAP item
3, and through rotations, hyperbolic rotations and scales, held to both
exact references of ``exact.py``.

A printed row passes when it lies within 1e-9 max(1, |row|) of the row that
the parameters give, |row| the largest coordinate of that row, and of the
row that the computed versors give.  The rows that exit 0 with a wrong
answer are strict xfails until ROADMAP item 3 computes them exactly.  Two
wrong answers of item 3 stay inside this normwise limit at 1 1 2 3, and
pass: ``deviation.txt`` (translate 1e12) misses by 3 against a limit of
1000, and fails at its golden point 0.5 1e-3 -2e3 7 instead; ``cotranslate
v=(1e9,0,0)`` misses x by 1/(1e9 + 1) against 1e-9.  ``scale u=(1,0,0)
t=38`` prints weight -3, the rounding of its versor's construction; the
computed versors' exact map puts the point's weight at about -2.66.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from cl33 import cli
from cl33.pipeline import parse_pipeline
from exact import computed_map, parameter_map

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
POINT = (1, 1, 2, 3)
#: The golden point that deviation.txt sends to weight 0; its exact weight is 0.5.
FAR = (0.5, 1e-3, -2e3, 7)

ITEM_3 = pytest.mark.xfail(strict=True, reason="exits 0 with a wrong answer: ROADMAP item 3")

DEVIATION = (GOLDEN / "deviation.txt").read_text(encoding="utf-8")

CASES = {
    "translate 1e7": ("translate v=(1e7,0,0)\n", POINT),
    "translate 1e8": ("translate v=(1e8,0,0)\n", POINT),
    "translate 1e9": pytest.param("translate v=(1e9,0,0)\n", POINT, marks=ITEM_3),
    "deviation.txt": (DEVIATION, POINT),
    "deviation.txt at its golden point": pytest.param(DEVIATION, FAR, marks=ITEM_3),
    "cotranslate 1e9": ("cotranslate v=(1e9,0,0)\n", POINT),
    "perspective eye 1e3": ("perspective eye=(1e3,0,0) n=(1,0,0) c=1\n", POINT),
    "perspective eye 1e4": ("perspective eye=(1e4,0,0) n=(1,0,0) c=1\n", POINT),
    "perspective eye 1e9": pytest.param("perspective eye=(1e9,0,0) n=(1,0,0) c=1\n", POINT,
                                        marks=ITEM_3),
    "rotate": ("rotate u=(0.6,0.8,0) v=(0,0,1) theta=0.7\n", POINT),
    "rotate on the axes": ("rotate u=(1,0,0) v=(0,1,0) theta=-2.5\n", POINT),
    "hrotate": ("hrotate u=(1,0,0) v=(0,0.6,0.8) eta=1.3\n", POINT),
    "scale": ("scale u=(0,0.6,0.8) t=0.3\n", POINT),
    "scale t=-3": ("scale u=(1,0,0) t=-3\n", FAR),
    # the build error of the versor: apply prints weight -3
    "scale t=38": pytest.param("scale u=(1,0,0) t=38\n", POINT, marks=ITEM_3),
}


def image(m, point) -> list:
    """The exact image of a point under a 4x4 matrix of Fractions, divided
    by its weight."""
    row = [sum(a * Fraction(x) for a, x in zip(r, point)) for r in m]
    return [x / row[0] for x in row]


@pytest.mark.parametrize("source, point", CASES.values(), ids=list(CASES))
def test_a_normalized_row_lies_within_1e_9_of_both_references(source, point, tmp_path):
    pipe, points = tmp_path / "pipe.txt", tmp_path / "points.txt"
    pipe.write_text(source, encoding="utf-8")
    points.write_text(" ".join(map(repr, point)) + "\n", encoding="utf-8")
    lines = []
    assert cli.main(["apply", "--pipeline", str(pipe), "--points", str(points), "--normalize"],
                    _capture=lines) == cli.EXIT_OK
    (line,) = lines
    got = [Fraction(float(x)) for x in line.split()]
    pipeline = parse_pipeline(source)
    errors = {}
    for name, m in (("parameters", parameter_map(pipeline.steps)),
                    ("computed versors", computed_map(pipeline.composed()))):
        want = image(m, point)
        error = max(abs(x - y) for x, y in zip(got, want))
        errors[name] = (float(error), float(Fraction(1, 10**9) * max(1, *map(abs, want))))
    assert all(error <= limit for error, limit in errors.values()), (line, errors)
