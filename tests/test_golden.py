"""Golden corpus: every ``apply``/``matrix``/``check`` call on the pipelines
of ``data/golden`` prints exactly the recorded lines and exits with the
recorded code.

The corpus covers affine, projective, perspective and pseudo-perspective
pipelines, signed zeros and subnormals, parameters near the overflow limit,
overflowing and degenerate pipelines, a matrix deviation, and parse errors.
To record it again from the package on ``PYTHONPATH``::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from cl33.cli import main

DATA = Path(__file__).resolve().parent / "data" / "golden"
EXPECTED = DATA / "expected.json"
POINTS = DATA / "points.txt"

#: label -> the arguments of the call after ``--pipeline FILE``.
COMMANDS = {
    "apply": ["apply", "--points", str(POINTS)],
    "apply --normalize": ["apply", "--points", str(POINTS), "--normalize"],
    "apply --perturb 1:0.01": ["apply", "--points", str(POINTS), "--perturb", "1:0.01"],
    "matrix": ["matrix"],
    "check": ["check"],
    "check --perturb 7:0.01": ["check", "--perturb", "7:0.01"],
    # every blade perturbed: the residuals of a stage overflow
    "check --perturb *:3e153": ["check", *(arg for mask in range(64)
                                           for arg in ("--perturb", f"{mask}:3e153"))],
}


def pipelines():
    return sorted(p.name for p in DATA.glob("*.txt") if p != POINTS)


def run(name, label):
    command, *rest = COMMANDS[label]
    lines = []
    code = main([command, "--pipeline", str(DATA / name), *rest], _capture=lines)
    return [code, lines]


def record():
    out = {name: {label: run(name, label) for label in COMMANDS} for name in pipelines()}
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def test_corpus_is_complete():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert sorted(expected) == pipelines()
    assert all(sorted(calls) == sorted(COMMANDS) for calls in expected.values())


@pytest.mark.parametrize("name", pipelines())
def test_cli_output_matches_the_golden_corpus(name):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    for label in COMMANDS:
        assert run(name, label) == expected[label], label


if __name__ == "__main__":
    sys.exit(record())
