"""``cl33 check`` evaluates the residuals of all its sandwich stages in one
batch (``analysis.worst_residuals_of``), yet prints the lines, raises the
errors and exits with the codes of a check that takes the stages one at a
time, as the reference below does."""

import itertools

import numpy as np
import pytest

from cl33 import analysis, cli, pipeline
from cl33.errors import DomainError
from cl33.multivector import Multivector
from cl33.versors import HodgeVersor, Versor

SANDWICHES = ("rotate u=(1,0,0) v=(0,1,0) theta=0.5",
              "translate v=(1,-2,0.5)",
              "shear u=(2,0,0) v=(0,0,0.5) t=1.25",
              "hrotate u=(0,1,0) v=(0,0,1) eta=0.4")
#: A sandwich stage whose residuals overflow under BIG_PERTURB, and not before.
HUGE = "translate v=(3e154,3e154,3e154)"
STAR = ("cotranslate v=(0.1,0.2,-0.3)", "pseudo n=(1,0,0)")
PERSPECTIVE = "perspective eye=(0.1,0.2,-1) n=(0,0,1) c=1.5"


def perturb(value):
    return [arg for mask in range(64) for arg in ("--perturb", f"{mask}:{value}")]


#: Every sandwich perturbed by 1e153 passes the scale test and keeps finite
#: residuals unless it is HUGE; by 3e153, the residuals of every one overflow.
BIG_PERTURB = perturb("1e153")
PERTURBATIONS = {"none": [], "grade 3": ["--perturb", "7:0.01"], "big": BIG_PERTURB,
                 "overflow": perturb("3e153")}


def layout_source(layout):
    """Pipeline text of a layout: S a sandwich, H the huge sandwich, * a
    star-sandwich, P a perspective."""
    sandwiches, stars = itertools.cycle(SANDWICHES), itertools.cycle(STAR)
    lines = {"S": lambda: next(sandwiches), "H": lambda: HUGE, "*": lambda: next(stars),
             "P": lambda: PERSPECTIVE}
    return "".join(lines[c]() + "\n" for c in layout)


#: 0 to 4 sandwich stages between star-sandwich and perspective stages.
LAYOUTS = ["", "*", "P", "S", "S*", "*SP", "S*S", "P*P", "SPS*S", "*S*S*S", "S*SPS*S",
           "S*H*S", "PHS", "S*SPH*S"]


def per_stage_check(args, emit):
    """The check command one stage at a time: a worst_residuals call for
    each sandwich stage, its line emitted before the next stage is read."""
    pipe = pipeline.parse_pipeline(cli._read(args.pipeline))
    stages = cli._perturbed_stages(pipe, cli._parse_perturbations(args.perturb)).stages
    failed = False
    checked = 0
    for idx, stage in enumerate(stages, start=1):
        if not isinstance(stage, Versor):
            if isinstance(stage, HodgeVersor):
                if not np.isfinite(stage.uprime.coeffs).all():
                    raise DomainError(f"stage {idx} (star-sandwich): its versor is not "
                                      "finite: the arithmetic overflowed")
                cli._scale_tolerance(idx, "star-sandwich", stage.uprime)
            else:
                for U in (stage.from_eye.U, stage.cotranslate.uprime):
                    cli._scale_tolerance(idx, "perspective", U)
            emit(f"stage {idx}: skipped (not a sandwich form)")
            continue
        checked += 1
        tol = cli._scale_tolerance(idx, "sandwich", stage.U)
        try:
            residuals = analysis.worst_residuals(stage.U)
        except DomainError as exc:
            raise DomainError(f"stage {idx} (sandwich): {exc}") from exc
        verdicts = []
        for name, worst in residuals.items():
            ok = worst <= tol
            failed |= not ok
            verdicts.append(f"{name} {'PASS' if ok else 'FAIL'}")
        emit(f"stage {idx} (sandwich): " + "  ".join(verdicts))
    if checked == 0:
        emit("no sandwich stages; PASS")
    return cli.EXIT_CONDITION if failed else cli.EXIT_OK


def both_checks(monkeypatch, path, flags):
    """(exit code, lines) of the check command and of the per-stage reference."""
    argv = ["check", "--pipeline", str(path), *flags]
    got, want = [], []
    code = cli.main(argv, _capture=got)
    with monkeypatch.context() as m:
        m.setattr(cli, "_cmd_check", per_stage_check)
        reference = cli.main(argv, _capture=want)
    return (code, got), (reference, want)


@pytest.mark.parametrize("flags", PERTURBATIONS.values(), ids=list(PERTURBATIONS))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_batched_check_is_the_per_stage_check(monkeypatch, tmp_path, layout, flags):
    path = tmp_path / "p.txt"
    path.write_text(layout_source(layout))
    got, want = both_checks(monkeypatch, path, flags)
    assert got == want


def test_a_middle_stage_whose_residuals_overflow_fails_after_the_lines_before_it(
        monkeypatch, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(layout_source("S*SPH*S"))
    got, want = both_checks(monkeypatch, path, BIG_PERTURB)
    assert got == want
    code, lines = got
    assert code == cli.EXIT_RESIDUE
    assert [line.split(" ")[1] for line in lines[:-1]] == ["1", "2:", "3", "4:"]
    assert lines[-1] == ("error: stage 5 (sandwich): the preservation residuals of psi "
                         "overflow: its coefficients are too large in magnitude")


@pytest.mark.parametrize("bad, form", [("translate v=(1e200,0,0)", "sandwich"),
                                       ("cotranslate v=(1e160,0,0)", "star-sandwich"),
                                       ("perspective eye=(1e200,0,0) n=(1e200,0,0) c=1",
                                        "perspective")])
def test_a_middle_stage_that_fails_the_scale_test_fails_after_the_lines_before_it(
        monkeypatch, tmp_path, bad, form):
    path = tmp_path / "p.txt"
    path.write_text(layout_source("SP") + bad + "\n" + layout_source("S*"))
    for flags in PERTURBATIONS.values():
        got, want = both_checks(monkeypatch, path, flags)
        assert got == want
    code, lines = both_checks(monkeypatch, path, [])[0]
    assert code == cli.EXIT_RESIDUE and len(lines) == 3
    assert lines[-1] == (f"error: stage 3 ({form}): the scale of its versor is not finite: "
                         "the arithmetic overflowed")


def stage_versors(layout):
    stages = pipeline.parse_pipeline(layout_source(layout)).composed().stages
    return [stage.U for stage in stages if isinstance(stage, Versor)]


def test_batched_residuals_are_the_one_stage_floats_byte_for_byte():
    rng = np.random.default_rng(17)
    psis = stage_versors("S*SPS*S") + [Multivector(rng.normal(size=64)) for _ in range(3)]
    batch = analysis.worst_residuals_of(psis)
    assert len(batch) == len(psis)
    for psi, got in zip(psis, batch):
        want = analysis.worst_residuals(psi)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
    assert analysis.worst_residuals_of([]) == []


def test_batched_residuals_name_the_first_operator_that_overflows():
    psis = stage_versors("S*S*S")
    big = Multivector(np.full(64, 3e153))
    for row in range(len(psis) + 1):
        with pytest.raises(DomainError, match="overflow") as info:
            analysis.worst_residuals_of(psis[:row] + [big] + psis[row:] + [big])
        assert info.value.row == row
    bad = np.zeros(64)
    bad[5] = np.nan
    with pytest.raises(DomainError, match="psi must be finite"):
        analysis.worst_residuals_of(psis + [Multivector(bad)])
