"""Command-line front end.

Commands::

    cl33 apply  --pipeline FILE --points FILE [--normalize]
    cl33 matrix --pipeline FILE
    cl33 check  --pipeline FILE
    cl33 selftest

Exit codes: 0 ok, 2 parse or semantic error (non-finite numbers included),
3 degenerate geometry, 4 residue error (result left the point subspace),
finite input whose arithmetic overflows (a stage matrix, an output point,
or the scale ``check`` holds every stage to: a sandwich, a star-sandwich
or either versor of a perspective, or the preservation residuals of a
sandwich stage) or a pipeline that ``matrix`` finds deviating from its own
matrix, 5 preservation-condition failure.
``check`` exits 3 on degenerate geometry and 2 on non-finite input, as
``apply`` and ``matrix`` do.  When the reader of stdout closes it early
(``cl33 apply ... | head -1``), the command stops writing and exits 141
(128 + SIGPIPE, as a shell reports that signal), with nothing on stderr.

``apply`` compiles the pipeline to one 4x4 matrix (each stage's matrix is
read off its versor images of the basis points, with every residue check)
and applies it to all points as one array product, ``apply_points``.  The
point file is read and converted in chunks, and the output is formatted and
written ``pipeline.POINT_CHUNK_ROWS`` rows at a time.

``matrix`` prints the same matrix once ``analysis.projective_matrix_probe``
accepts it.  The probe's 10 points are skipped when ``versors.certifies``
proves from the steps' componentwise rounding radii that they would pass;
otherwise (radii too loose, as for a translation of 1e5 or more, whose
exact terms cancel) they go through the sandwich chain of the stages,
``versors.sandwich_points``.  The output, error and exit code are the same
either way, and ``apply`` computes no radius and no chain.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import analysis, pipeline
from .blades import BLADE_COUNT
from .errors import (
    CovectorResidue,
    DegenerateConfigurationError,
    DomainError,
    NonParavectorResidue,
    NotLinearError,
    PipelineError,
)
from .euclid import at_infinity
from .multivector import Multivector, tolerance
from .versors import Composed, HodgeVersor, Versor

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_RESIDUE = 4
EXIT_CONDITION = 5
EXIT_BROKEN_PIPE = 141


@functools.cache
def _build_parser():
    # built once per process: parsing leaves the parser unchanged
    ap = argparse.ArgumentParser(
        prog="cl33",
        description="Apply geometric-algebra transform pipelines to weighted points.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="transform a point file")
    p_apply.add_argument("--pipeline", required=True, help="pipeline source file")
    p_apply.add_argument("--points", required=True, help="point file (w x y z per line)")
    p_apply.add_argument("--normalize", action="store_true",
                         help="divide each output point by its weight "
                              "(default: emit raw weighted points)")
    p_apply.add_argument("--perturb", metavar="MASK:VALUE", action="append", default=[],
                         help="testing hook: add VALUE to blade MASK of every "
                              "sandwich versor before applying")

    p_matrix = sub.add_parser("matrix", help="print the 4x4 matrix of a pipeline")
    p_matrix.add_argument("--pipeline", required=True)

    p_check = sub.add_parser("check", help="verify the point-preservation conditions")
    p_check.add_argument("--pipeline", required=True)
    p_check.add_argument("--perturb", metavar="MASK:VALUE", action="append", default=[],
                         help="testing hook: add VALUE to blade MASK of every "
                              "sandwich versor before checking")

    sub.add_parser("selftest", help="run the acceptance checks")
    return ap


def _read(path, parse=None):
    """The text of the file at ``path``, or ``parse`` of the open file.  A
    UTF-8 byte order mark at the start of the file is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read() if parse is None else parse(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read {path}: {exc}") from exc


def _parse_perturbations(specs):
    out = []
    for spec in specs:
        try:
            mask_s, _, val_s = spec.partition(":")
            mask, value = int(mask_s, 0), float(val_s)
        except ValueError as exc:
            raise PipelineError(f"bad --perturb spec {spec!r}: {exc}") from exc
        if not (0 <= mask < BLADE_COUNT and math.isfinite(value)):
            raise PipelineError(f"bad --perturb spec {spec!r}: the mask must lie in "
                                f"0..{BLADE_COUNT - 1} and the value must be finite")
        out.append((mask, value))
    return out


def _perturbed_stages(pipe, perturbations) -> Composed:
    composed = pipe.composed()
    if not perturbations:
        return composed
    stages = []
    for stage in composed.stages:
        if isinstance(stage, Versor):
            coeffs = stage.U.coeffs.copy()
            for mask, value in perturbations:
                coeffs[mask] += value
            stage = Versor(Multivector(coeffs), stage.epsilon, stage.kind)
        stages.append(stage)
    return Composed(tuple(stages))


def _cmd_apply(args, write):
    pipe = pipeline.parse_pipeline(_read(args.pipeline))
    points = _read(args.points, pipeline.parse_points)
    transform = _perturbed_stages(pipe, _parse_perturbations(args.perturb))
    transform.matrix  # raises a stage's error as it is, before any point's
    try:
        points = transform.apply_points(points)
    except DomainError as exc:
        line = _read(args.points, functools.partial(pipeline.point_line, index=exc.row))
        raise DomainError(f"line {line} of the point file: {exc}") from exc
    if args.normalize:
        finite = ~at_infinity(points[:, 0], points[:, 1:])
        np.divide(points, points[:, :1], out=points, where=finite[:, None])
    # every row is parsed and transformed before the first write, so an
    # error never leaves partial output
    for start in range(0, len(points), pipeline.POINT_CHUNK_ROWS):
        write(pipeline.format_points(points[start:start + pipeline.POINT_CHUNK_ROWS]))
    return EXIT_OK


def _cmd_matrix(args, emit):
    pipe = pipeline.parse_pipeline(_read(args.pipeline))
    m = analysis.projective_matrix_probe(pipe.composed())
    for row in m:
        emit(" ".join(f"{x:.17g}" for x in row))
    return EXIT_OK


def _scale_tolerance(idx, form, U) -> float:
    """The tolerance ``check`` holds a stage's versor U to, 2 s^2 for its
    scale s; DomainError when it or a coefficient of U is not finite."""
    scale = max(1.0, U.max_abs())
    tol = tolerance(2.0 * scale * scale)
    if not (math.isfinite(tol) and np.isfinite(U.coeffs).all()):
        raise DomainError(f"stage {idx} ({form}): the scale of its versor is not "
                          "finite: the arithmetic overflowed")
    return tol


def _stage_tolerance(idx, stage):
    """The tolerance ``check`` holds a sandwich stage to, or None for a
    stage of another form; DomainError when the stage fails the scale test."""
    if isinstance(stage, Versor):
        return _scale_tolerance(idx, "sandwich", stage.U)
    if isinstance(stage, HodgeVersor):
        if not np.isfinite(stage.uprime.coeffs).all():
            raise DomainError(f"stage {idx} (star-sandwich): its versor is not "
                              "finite: the arithmetic overflowed")
        _scale_tolerance(idx, "star-sandwich", stage.uprime)
    else:
        for U in (stage.from_eye.U, stage.cotranslate.uprime):
            _scale_tolerance(idx, "perspective", U)
    return None


def _cmd_check(args, emit):
    """Hold every sandwich stage to the preservation conditions.

    The stages are held to the scale test in order, up to the first that
    fails it; the residuals of the sandwich stages before it are evaluated
    in one batch.  Then each stage's line is emitted in order, and the
    first error, of the scale test or of residuals that overflow, is raised
    after the lines of the stages before it.
    """
    pipe = pipeline.parse_pipeline(_read(args.pipeline))
    stages = _perturbed_stages(pipe, _parse_perturbations(args.perturb)).stages
    tolerances, failure = [], None
    for idx, stage in enumerate(stages, start=1):
        try:
            tolerances.append(_stage_tolerance(idx, stage))
        except DomainError as exc:
            failure = exc
            break
    numbers = [idx for idx, tol in enumerate(tolerances, start=1) if tol is not None]
    sandwiches = [stages[idx - 1].U for idx in numbers]
    try:
        residuals = analysis.worst_residuals_of(sandwiches)
    except DomainError as exc:
        # the stages up to the one whose residuals overflow, then its error
        residuals = analysis.worst_residuals_of(sandwiches[:exc.row])
        failure = DomainError(f"stage {numbers[exc.row]} (sandwich): {exc}")
    residuals = iter(residuals)
    failed = False
    for idx, tol in enumerate(tolerances, start=1):
        if tol is None:
            emit(f"stage {idx}: skipped (not a sandwich form)")
            continue
        worst = next(residuals, None)
        if worst is None:
            break
        verdicts = []
        for name, value in worst.items():
            ok = value <= tol
            failed |= not ok
            verdicts.append(f"{name} {'PASS' if ok else 'FAIL'}")
        emit(f"stage {idx} (sandwich): " + "  ".join(verdicts))
    if failure is not None:
        raise failure
    if not sandwiches:
        emit("no sandwich stages; PASS")
    return EXIT_CONDITION if failed else EXIT_OK


def _cmd_selftest(args, emit):
    from .selftest import run_selftest

    ok = run_selftest(emit=emit)
    return EXIT_OK if ok else 1


def main(argv=None, _capture=None) -> int:
    """Entry point; returns the exit code.  ``_capture`` (a list) collects
    output lines instead of printing, for in-process use."""
    if _capture is not None:
        emit = _capture.append
        write = lambda text: _capture.extend(text.splitlines())
    else:
        emit, write = print, sys.stdout.write

    def fail(message):
        if _capture is not None:
            _capture.append(message)
        else:
            print(message, file=sys.stderr)

    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        command = {"apply": _cmd_apply, "matrix": _cmd_matrix, "check": _cmd_check,
                   "selftest": _cmd_selftest}[args.command]
        code = command(args, write if args.command == "apply" else emit)
        if _capture is None:
            sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        if _capture is not None:
            raise
        # the reader has gone: what is still buffered goes to devnull at exit
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except PipelineError as exc:
        fail(f"error: {exc}")
        return EXIT_PARSE
    except DegenerateConfigurationError as exc:
        fail(f"error: degenerate geometry: {exc}")
        return EXIT_DEGENERATE
    except (NonParavectorResidue, CovectorResidue) as exc:
        fail(f"error: residue: {exc}")
        return EXIT_RESIDUE
    except (DomainError, NotLinearError) as exc:
        fail(f"error: {exc}")
        return EXIT_RESIDUE


if __name__ == "__main__":
    sys.exit(main())
