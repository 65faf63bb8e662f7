"""Line-oriented DSL for transform pipelines, and the point-file format.

One step per non-empty line; ``#`` starts a comment.  Vectors are written
``key=(x,y,z)`` with no interior spaces, scalars ``key=value``.  Point files
hold one ``w x y z`` quadruple per line and are read into (N, 4) arrays, a
chunk of lines at a time.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from functools import partial

import numpy as np

from .errors import DomainError, PipelineError
from .euclid import Paravector
from .multivector import Frozen
from .versors import (
    COTRANSLATION,
    HYPERBOLIC,
    PERSPECTIVE,
    PSEUDO_PERSPECTIVE,
    REFLECTION,
    ROTATION,
    SCALE,
    SHEAR,
    TRANSLATION,
    build,
    compose,
    draft,
)

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_VEC_RE = re.compile(rf"\(({_FLOAT}),({_FLOAT}),({_FLOAT})\)")
_NUM_RE = re.compile(_FLOAT)

#: Characters of point-file text read and converted per chunk.
POINT_CHUNK_CHARS = 1 << 18
#: Rows of points formatted (and written by ``cl33 apply``) per chunk.
POINT_CHUNK_ROWS = 4096
_POINT_LINE = "%.17g %.17g %.17g %.17g\n"

#: op name -> (draft kind, parameter names in the draft's argument order,
#: vectors then scalars; the parameters its inverse negates, or None when
#: the op has no inverse)
GRAMMAR = {
    "reflect": (REFLECTION, ("n",), ()),
    "rotate": (ROTATION, ("u", "v", "theta"), ("theta",)),
    "hrotate": (HYPERBOLIC, ("u", "v", "eta"), ("eta",)),
    "shear": (SHEAR, ("u", "v", "t"), ("t",)),
    "scale": (SCALE, ("u", "t"), ("t",)),
    "translate": (TRANSLATION, ("v",), ("v",)),
    "cotranslate": (COTRANSLATION, ("v",), ("v",)),
    "perspective": (PERSPECTIVE, ("eye", "n", "c"), None),
    "pseudo": (PSEUDO_PERSPECTIVE, ("n",), None),
}
#: The parameters that are numbers; every other parameter is a vector.
_SCALARS = frozenset({"theta", "eta", "t", "c"})


class PipelineStep(Frozen):
    """One parsed line; equal steps have the same op and parameter values,
    whatever their line."""

    _fields = ("op", "params", "line")

    def __init__(self, op: str, params: dict, line: int):
        self.__dict__.update(op=op, params=params, line=line)

    def __eq__(self, other):
        if not isinstance(other, PipelineStep):
            return NotImplemented
        return (self.op == other.op and self.params.keys() == other.params.keys()
                and all(np.array_equal(x, other.params[k]) for k, x in self.params.items()))


class Pipeline(Frozen):
    """Steps and, in the same order, their transforms; equal pipelines have
    equal steps."""

    _fields = ("steps",)

    def __init__(self, steps: tuple, step_transforms: tuple):
        self.__dict__.update(steps=steps, step_transforms=step_transforms)

    def __eq__(self, other):
        if not isinstance(other, Pipeline):
            return NotImplemented
        return self.steps == other.steps

    def transforms(self) -> list:
        return list(self.step_transforms)

    def composed(self):
        return compose(self.step_transforms)


def _draft(op: str, params: dict):
    """The draft of a step's transform, from its op and finite parameters."""
    kind, names, _ = GRAMMAR[op]
    args = [params[k] for k in names]
    if kind == PERSPECTIVE:
        args[0] = Paravector(1.0, args[0])
    return draft(kind, *args)


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _data_lines(text: str, first: int = 1):
    """(line number from ``first``, body) of each line holding more than a comment."""
    for lineno, line in enumerate(text.splitlines(), start=first):
        body = _strip_comment(line)
        if body.strip():
            yield lineno, body


def _column(raw: str, index: int) -> int:
    """The 1-based column of the token ``index`` of ``raw.split()``."""
    return [m.start() + 1 for m in re.finditer(r"\S+", raw)][index]


def _parse_step(raw: str, lineno: int):
    """The step of one line and its checked draft.

    The line is cut with ``str.split``; a token's column is worked out only
    for the error that names it.  Each number is read into a Python float
    and checked with ``math.isfinite``, and each vector is one array.
    """
    tokens = raw.split()

    def error(message, index):
        return PipelineError(message, lineno, _column(raw, index))

    op = tokens[0]
    if op not in GRAMMAR:
        raise error(f"unknown operation {op!r}", 0)
    names = GRAMMAR[op][1]
    params = {}
    for index, tok in enumerate(tokens[1:], start=1):
        key, eq, val = tok.partition("=")
        if not eq:
            raise error(f"expected key=value, got {tok!r}", index)
        if key in params:
            raise error(f"duplicate parameter {key!r}", index)
        if key not in names:
            raise error(f"operation {op!r} takes no parameter {key!r}", index)
        if key in _SCALARS:
            if not _NUM_RE.fullmatch(val):
                raise error(f"parameter {key!r} must be a number, got {val!r}", index)
            value = float(val)
            finite = math.isfinite(value)
        else:
            m = _VEC_RE.fullmatch(val)
            if not m:
                raise error(f"parameter {key!r} must be a vector (x,y,z), got {val!r}", index)
            x, y, z = map(float, m.groups())
            finite = math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
            value = np.array((x, y, z))
        if not finite:
            raise error(f"parameter {key!r} must be finite, got {val!r}", index)
        params[key] = value
    missing = [k for k in names if k not in params]
    if missing:
        raise error(f"operation {op!r} missing parameter(s) {missing}", len(tokens) - 1)
    step = PipelineStep(op, params, lineno)
    try:
        # semantic validation (unit length, orthogonality)
        return step, _draft(op, params)
    except DomainError as exc:
        raise PipelineError(str(exc), lineno) from exc


def _built(pairs) -> Pipeline:
    """The pipeline of ``(step, draft)`` pairs, every step's transform made
    by one ``versors.build`` call.  ``pairs`` is consumed with numpy's
    overflow warnings off: a versor whose products overflow keeps its
    non-finite coefficients, which the stage matrix and ``check`` report."""
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = list(pairs)
        transforms = build(d for _, d in pairs)
    return Pipeline(tuple(step for step, _ in pairs), tuple(transforms))


def parse_pipeline(text: str) -> Pipeline:
    """Parse pipeline source; raises PipelineError with line/column on
    syntax errors and line on semantic (precondition) errors.

    Each line is parsed and its preconditions checked in file order, so the
    first bad line is the one reported; then one ``versors.build`` call
    makes every step's transform, a perspective's two versors included:
    two batched products for the file, and one array expression for the
    U = 1 + v/2 of every translation, cotranslation and pseudo-perspective.
    """
    return _built(_parse_step(body, lineno) for lineno, body in _data_lines(text))


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def format_pipeline(p: Pipeline) -> str:
    lines = []
    for s in p.steps:
        parts = [s.op]
        for k in GRAMMAR[s.op][1]:
            x = s.params[k]
            parts.append(f"{k}={_fmt(x)}" if k in _SCALARS else f"{k}=({','.join(map(_fmt, x))})")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def inverse_pipeline(p: Pipeline) -> Pipeline:
    """Steps reversed with negated parameters (reflection is its own
    inverse).  Projections are not invertible and raise PipelineError."""
    pairs = []
    for s in reversed(p.steps):
        negated = GRAMMAR[s.op][2]
        if negated is None:
            raise PipelineError(f"operation {s.op!r} is not invertible", s.line)
        params = {k: -x if k in negated else x for k, x in s.params.items()}
        pairs.append((PipelineStep(s.op, params, s.line), _draft(s.op, params)))
    return _built(pairs)


def _parse_points_by_line(text: str, first: int = 1) -> np.ndarray:
    """The reference point-file parser, one line at a time, numbering the
    lines of ``text`` from ``first``: every error it raises names its line."""
    rows = []
    for lineno, body in _data_lines(text, first):
        fields = body.split()
        if len(fields) != 4:
            raise PipelineError(
                f"expected 4 fields 'w x y z', got {len(fields)}", lineno)
        try:
            vals = [float(f) for f in fields]
        except ValueError as exc:
            raise PipelineError(f"bad number: {exc}", lineno) from exc
        if not all(map(math.isfinite, vals)):
            raise PipelineError(f"non-finite value in {body.strip()!r}", lineno)
        rows.append(vals)
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _line_chunks(pieces):
    """Re-cut text pieces after their last newline, so that no line spans
    two chunks (a ``\\r\\n`` pair ends at its newline, so it is never split)."""
    carry = ""
    for piece in pieces:
        piece = carry + piece
        cut = piece.rfind("\n") + 1
        carry = piece[cut:]
        if cut:
            yield piece[:cut]
    if carry:
        yield carry


def _numbered_chunks(source):
    """(first line number, chunk of whole lines, its lines) of a point file's text
    or open file, read POINT_CHUNK_CHARS characters at a time.  Every chunk but the
    last ends in a newline, so the chunks' line counts add up to the whole text's."""
    if isinstance(source, str):
        source = io.StringIO(source)
    first = 1
    for chunk in _line_chunks(iter(partial(source.read, POINT_CHUNK_CHARS), "")):
        lines = chunk.splitlines()
        yield first, chunk, lines
        first += len(lines)


def _chunk_rows(lines):
    """The (n, 4) rows of a chunk's lines, or None when the chunk needs the
    line-by-line parser: it holds a line of other than 0 or 4 fields, a
    token ``float`` rejects (every token with a comment's ``#`` is one) or
    a non-finite value."""
    fields = list(map(str.split, lines))
    if not set(map(len, fields)) <= {0, 4}:
        return None
    tokens = list(itertools.chain.from_iterable(fields))
    try:
        vals = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    if not np.isfinite(vals).all():
        return None
    return vals.reshape(-1, 4)


def parse_points(source) -> np.ndarray:
    """Point file: one ``w x y z`` per line, ``#`` comments.  ``source`` is
    the file's text or a text file open for reading.  Returns a float (N, 4)
    array of rows (w, x, y, z); raises PipelineError with the line number on
    a malformed or non-finite row.

    The source is read POINT_CHUNK_CHARS characters at a time and cut into
    chunks of whole lines; each chunk is converted with one ``float`` pass
    over its tokens.  A chunk that holds a comment or anything that pass
    declines goes alone through the line-by-line parser, numbered from its
    first line, which reads its rows or names its first bad line.
    """
    blocks = [np.empty((0, 4))]
    for first, chunk, lines in _numbered_chunks(source):
        rows = _chunk_rows(lines)
        blocks.append(_parse_points_by_line(chunk, first) if rows is None else rows)
    return np.concatenate(blocks)


def point_line(source, index: int) -> int:
    """Line number of the point file holding row ``index`` of
    ``parse_points(source)``; ``source`` is the file's text or a text file
    open for reading, read a chunk at a time."""
    lines = (line for first, chunk, _ in _numbered_chunks(source)
             for line in _data_lines(chunk, first))
    return next(itertools.islice(lines, index, None))[0]


def format_points(points: np.ndarray) -> str:
    """One ``w x y z`` line per row of an (N, 4) array, 17 significant
    digits, built by one ``%`` call over all the rows given."""
    points = np.asarray(points)
    return _POINT_LINE * len(points) % tuple(points.ravel().tolist())
