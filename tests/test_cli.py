import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cl33 import cli, pipeline
from cl33.cli import main
from cl33.selftest import check_algebra_axioms
from helpers import ChunkReadsOnly

SRC = Path(__file__).resolve().parent.parent / "src"


def run(tmp_path, *argv):
    lines = []
    code = main(list(argv), _capture=lines)
    return code, lines


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_apply_translate_fixture(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 0
    assert lines == ["1 1 0 0"]


def test_apply_pseudo_fixture(tmp_path):
    pipe = write(tmp_path, "p.txt", "pseudo n=(0,0,1)\n")
    pts = write(tmp_path, "x.txt", "1 0 0 -1\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 0
    assert lines == ["0 0 0 -1"]


def test_apply_empty_pipeline_copies(tmp_path):
    pipe = write(tmp_path, "p.txt", "# nothing\n")
    pts = write(tmp_path, "x.txt", "1 0.5 -1 2\n0 1 0 0\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 0
    assert lines == ["1 0.5 -1 2", "0 1 0 0"]


def test_apply_normalize(tmp_path):
    pipe = write(tmp_path, "p.txt", "pseudo n=(0,0,1)\n")
    pts = write(tmp_path, "x.txt", "1 1 1 1\n1 0 0 -1\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts, "--normalize")
    assert code == 0
    assert lines[0] == "1 0.5 0.5 0.5"
    # the point at infinity cannot be normalized and is emitted raw
    assert lines[1] == "0 0 0 -1"


def test_apply_keep_weights(tmp_path):
    pipe = write(tmp_path, "p.txt", "pseudo n=(0,0,1)\n")
    pts = write(tmp_path, "x.txt", "1 1 1 1\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 0
    assert lines == ["2 1 1 1"]


def test_matrix_identity(tmp_path):
    pipe = write(tmp_path, "p.txt", "")
    code, lines = run(tmp_path, "matrix", "--pipeline", pipe)
    assert code == 0
    m = np.array([[float(x) for x in row.split()] for row in lines])
    assert np.allclose(m, np.eye(4))


def test_matrix_translation(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,2,3)\n")
    code, lines = run(tmp_path, "matrix", "--pipeline", pipe)
    assert code == 0
    m = np.array([[float(x) for x in row.split()] for row in lines])
    want = np.eye(4)
    want[1:, 0] = [1, 2, 3]
    assert np.allclose(m, want)


def test_matrix_perspective_weight_row(tmp_path):
    pipe = write(tmp_path, "p.txt", "perspective eye=(0,0,0) n=(0,0,1) c=1\n")
    code, lines = run(tmp_path, "matrix", "--pipeline", pipe)
    assert code == 0
    m = np.array([[float(x) for x in row.split()] for row in lines])
    # projection from the origin onto z = 1: weight row reads off z
    assert np.allclose(m[0], [0, 0, 0, 1])
    assert np.allclose(m[1:, 1:], np.eye(3))
    assert np.linalg.matrix_rank(m, tol=1e-12) == 3


def test_matrix_agrees_with_apply(tmp_path):
    src = ("rotate u=(1,0,0) v=(0,1,0) theta=0.4\n"
           "cotranslate v=(0.2,0,0.5)\n"
           "scale u=(0,1,0) t=0.3\n")
    pipe = write(tmp_path, "p.txt", src)
    rng = np.random.default_rng(0)
    pts = [f"{rng.uniform(-1, 1):.6f} " + " ".join(f"{x:.6f}" for x in rng.uniform(-2, 2, 3))
           for _ in range(50)]
    ptsfile = write(tmp_path, "x.txt", "\n".join(pts) + "\n")
    code, out_lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", ptsfile)
    assert code == 0
    code, mat_lines = run(tmp_path, "matrix", "--pipeline", pipe)
    assert code == 0
    m = np.array([[float(x) for x in row.split()] for row in mat_lines])
    for src_line, out_line in zip(pts, out_lines):
        x = np.array([float(t) for t in src_line.split()])
        got = np.array([float(t) for t in out_line.split()])
        want = m @ x
        assert np.allclose(got, want, atol=1e-9, rtol=1e-9)


def test_check_passes_for_library_pipeline(tmp_path):
    pipe = write(tmp_path, "p.txt",
                 "reflect n=(0,0,1)\nrotate u=(1,0,0) v=(0,1,0) theta=0.7\n"
                 "translate v=(1,2,3)\ncotranslate v=(1,0,0)\n")
    code, lines = run(tmp_path, "check", "--pipeline", pipe)
    assert code == 0
    assert any("sandwich" in line and "PASS" in line for line in lines)
    assert any("skipped" in line for line in lines)


def test_check_empty_pipeline(tmp_path):
    pipe = write(tmp_path, "p.txt", "")
    code, lines = run(tmp_path, "check", "--pipeline", pipe)
    assert code == 0
    assert lines == ["no sandwich stages; PASS"]


def test_check_detects_injected_grade3(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    # mask 7 = e1p e2p e3p, a grade-3 blade
    code, lines = run(tmp_path, "check", "--pipeline", pipe, "--perturb", "7:0.01")
    assert code == 5
    assert any("FAIL" in line for line in lines)


def test_exit_code_parse_error(tmp_path):
    pipe = write(tmp_path, "p.txt", "warp v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)[0] == 2
    assert run(tmp_path, "matrix", "--pipeline", pipe)[0] == 2


def test_exit_code_semantic_error(tmp_path):
    pipe = write(tmp_path, "p.txt", "rotate u=(1,0,0) v=(1,0,0) theta=1\n")
    assert run(tmp_path, "check", "--pipeline", pipe)[0] == 2


def test_exit_code_missing_file(tmp_path):
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    assert run(tmp_path, "apply", "--pipeline", str(tmp_path / "no.txt"),
               "--points", pts)[0] == 2


def test_exit_code_degenerate_geometry(tmp_path):
    pipe = write(tmp_path, "p.txt", "perspective eye=(0,0,1) n=(0,0,1) c=1\n")
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)[0] == 3
    assert run(tmp_path, "matrix", "--pipeline", pipe)[0] == 3
    assert run(tmp_path, "check", "--pipeline", pipe)[0] == 3


def test_zero_perspective_normal_exits_3(tmp_path):
    pts = write(tmp_path, "x.txt", "1 1 2 3\n")
    pipe = write(tmp_path, "p.txt", "perspective eye=(0,0,0) n=(0,0,0) c=1\n")
    want = "error: degenerate geometry: the plane normal n is zero: every point would go to infinity"
    for argv in (("apply", "--points", pts), ("matrix",), ("check",)):
        assert run(tmp_path, argv[0], "--pipeline", pipe, *argv[1:]) == (3, [want])
    # a tiny nonzero normal is a valid far plane
    pipe = write(tmp_path, "p.txt", "perspective eye=(0,0,0) n=(1e-300,0,0) c=1\n")
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts) == \
        (0, ["1e-300 1 2 3"])
    assert run(tmp_path, "check", "--pipeline", pipe)[0] == 0


def test_semantic_error_reported_before_a_later_syntax_error(tmp_path):
    # every line is checked in file order before any versor is multiplied
    pipe = write(tmp_path, "p.txt", "rotate u=(1,0,0) v=(0,1,0) theta=0.5\n"
                                    "rotate u=(1,1,0) v=(0,1,0) theta=0.5\n"
                                    "scale u=(1,0,0) t=0.1\n"
                                    "translate v=(1,2\n")
    pts = write(tmp_path, "x.txt", "1 1 2 3\n")
    want = (2, ["error: line 2: u must be a unit vector, |u|^2 = 2"])
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts) == want
    assert run(tmp_path, "matrix", "--pipeline", pipe) == want
    assert run(tmp_path, "check", "--pipeline", pipe) == want


@pytest.mark.parametrize("step", ["hrotate u=(1,0,0) v=(0,1,0) eta=1000",
                                  "scale u=(1,0,0) t=1400",
                                  "shear u=(1,0,0) v=(0,1,0) t=1e300"])
def test_overflowing_steps_keep_their_messages(tmp_path, step):
    # finite parameters whose versor or its images overflow: exit 4 and the
    # one line naming the stage, from each command
    pipe = write(tmp_path, "p.txt", step + "\n")
    pts = write(tmp_path, "x.txt", "1 1 2 3\n")
    extracted = "error: stage 1: the extracted point is not finite: the arithmetic overflowed"
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts) == (4, [extracted])
    assert run(tmp_path, "matrix", "--pipeline", pipe) == (4, [extracted])
    assert run(tmp_path, "check", "--pipeline", pipe) == (
        4, ["error: stage 1 (sandwich): the scale of its versor is not finite: "
            "the arithmetic overflowed"])


BOM = "\ufeff"


def test_byte_order_mark_is_dropped(tmp_path, monkeypatch):
    source = "# view\nrotate u=(1,0,0) v=(0,1,0) theta=0.5\ntranslate v=(1,2,3)\n"
    points = "1 0 0 0\n2 1 2 3\n1 -1 0.5 4\n"
    plain = run(tmp_path, "apply", "--pipeline", write(tmp_path, "p.txt", source),
                "--points", write(tmp_path, "x.txt", points))
    assert plain[0] == 0 and len(plain[1]) == 3
    pipe_bom = tmp_path / "pb.txt"
    pipe_bom.write_text(BOM + source, encoding="utf-8")
    pts_bom = tmp_path / "xb.txt"
    pts_bom.write_text(BOM + points, encoding="utf-8")
    # the BOM file still takes the bulk path: no line goes through the
    # line-by-line parser
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_parse_points_by_line", lambda *a: pytest.fail("by line"))
        assert run(tmp_path, "apply", "--pipeline", str(pipe_bom),
                   "--points", str(pts_bom)) == plain
    for command in ("matrix", "check"):
        assert run(tmp_path, command, "--pipeline", str(pipe_bom)) == \
            run(tmp_path, command, "--pipeline", write(tmp_path, "p.txt", source))


def test_byte_order_mark_keeps_line_numbers(tmp_path):
    pipe = tmp_path / "p.txt"
    pipe.write_text(BOM + "translate v=(1,0,0)\nrotat u=(1,0,0)\n", encoding="utf-8")
    pts = tmp_path / "x.txt"
    pts.write_text(BOM + "1 0 0 0\n", encoding="utf-8")
    code, lines = run(tmp_path, "apply", "--pipeline", str(pipe), "--points", str(pts))
    assert (code, lines) == (2, ["error: line 2, column 1: unknown operation 'rotat'"])
    pipe.write_text(BOM + "translate v=(1,0,0)\n", encoding="utf-8")
    for text, line in (("1 2 3\n1 0 0 0\n", 1), ("1 0 0 0\n# c\n1 2 x 4\n", 3),
                       ("1 0 0 0\n1e308 1e308 0 0\n", 2)):
        pts.write_text(BOM + text, encoding="utf-8")
        code, lines = run(tmp_path, "apply", "--pipeline", str(pipe), "--points", str(pts))
        assert code in (2, 4) and f"line {line}" in lines[-1]


def test_exit_code_non_finite_input(tmp_path):
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    for src in ("rotate u=(1,0,0) v=(0,1,0) theta=1e400\n", "translate v=(1e400,0,0)\n"):
        pipe = write(tmp_path, "p.txt", src)
        assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)[0] == 2
        assert run(tmp_path, "check", "--pipeline", pipe)[0] == 2
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    for row in ("1 nan 0 0", "1 1e400 0 0"):
        bad = write(tmp_path, "bad.txt", row + "\n")
        code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", bad)
        assert code == 2 and "line 1" in lines[-1]


def test_exit_code_residue(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    # the stage is rejected when its matrix is built, so even no points exit 4
    for text in ("1 0.2 0.4 0.8\n", ""):
        pts = write(tmp_path, "x.txt", text)
        code, _ = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts,
                      "--perturb", "7:0.01")
        assert code == 4


def test_parser_state_does_not_leak(tmp_path):
    # one parser serves every call in a process; a --perturb list must not
    # carry over into the next call
    pipe = write(tmp_path, "p.txt", "rotate u=(1,0,0) v=(0,1,0) theta=0.5\n")
    assert run(tmp_path, "check", "--pipeline", pipe, "--perturb", "7:0.05")[0] == 5
    assert run(tmp_path, "check", "--pipeline", pipe)[0] == 0


def test_exit_code_parameter_overflow(tmp_path):
    # cosh(eta/2) of a finite but large parameter overflows: a semantic error
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    for src in ("hrotate u=(1,0,0) v=(0,1,0) eta=2000\n", "scale u=(1,0,0) t=-2000\n"):
        pipe = write(tmp_path, "p.txt", src)
        code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
        assert code == 2 and "too large" in lines[-1]


def test_exit_code_overflow(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1e200,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 1 0 0\n")
    for argv in (("apply", "--points", pts), ("matrix",), ("check",)):
        code, lines = run(tmp_path, argv[0], "--pipeline", pipe, *argv[1:])
        assert code == 4 and lines == [lines[-1]]
        assert "stage 1" in lines[-1] and "overflowed" in lines[-1]
    pipe = write(tmp_path, "p.txt", "translate v=(1e308,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 1e308 0 0\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 4 and "overflowed" in lines[-1]
    # a finite matrix whose product with one point overflows: the point's line
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 0 0 0\n# comment\n\n1e308 1e308 0 0\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 4 and lines == [lines[-1]] and "line 4 of the point file" in lines[-1]


def test_overflow_two_chunks_after_a_comment_names_its_line(tmp_path):
    # chunks of 32 characters: the comment opens the first, the overflowing
    # row is line 10, in the third; the point file is only read in chunks
    row = "1 2 3 4\n"
    text = "# head.\n" + row * 3 + row * 4 + row + "1e308 1e308 0 0\n" + row * 3
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", text)

    def points_in_chunks(path, *args, **kwargs):
        fh = io.open(path, *args, **kwargs)
        return ChunkReadsOnly(fh, pipeline.POINT_CHUNK_CHARS) if path == pts else fh

    with mock.patch.object(pipeline, "POINT_CHUNK_CHARS", 32), \
            mock.patch.object(cli, "open", points_in_chunks, create=True):
        code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)
    assert code == 4 and lines == [lines[-1]] and "line 10 of the point file" in lines[-1]


def test_exit_code_matrix_deviation(tmp_path):
    # apply's rounding at a large translation exceeds the probe's bound: a
    # readable error and exit 4, not a traceback
    for t in ("1e8", "1e12"):
        pipe = write(tmp_path, "p.txt", f"translate v=({t},0,0)\n")
        code, lines = run(tmp_path, "matrix", "--pipeline", pipe)
        assert code == 4 and lines == [lines[-1]]
        assert lines[-1].startswith("error: ") and "deviates" in lines[-1]


def test_exit_code_covector_residue(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 0.2 0.4 0.8\n")
    # perturbing e1p alone (mask 1) breaks the vector/covector balance
    code, _ = run(tmp_path, "apply", "--pipeline", pipe, "--points", pts,
                  "--perturb", "1:0.01")
    assert code == 4


def test_bad_perturb_spec(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 0 0 0\n")
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts,
               "--perturb", "nope")[0] == 2
    for spec in ("99:1", "-1:1", "7:inf"):
        assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts,
                   "--perturb", spec)[0] == 2
        assert run(tmp_path, "check", "--pipeline", pipe, "--perturb", spec)[0] == 2


def test_usage_error_exits_2(tmp_path):
    assert main(["apply"], _capture=[]) == 2
    assert main([], _capture=[]) == 2


def test_perturbed_signature_fails_axioms():
    ok, detail = check_algebra_axioms(squares=(-1, 1, 1, -1, -1, -1))
    assert not ok
    assert "mismatch" in detail or "relation" in detail


def test_apply_output_across_chunks(tmp_path, capsys):
    # more than two chunks of rows: the same bytes as one format_points of
    # the reference product, through _capture and through stdout
    n = 2 * pipeline.POINT_CHUNK_ROWS + 37
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 8, size=(n, 4))
    rows[::5, 1] = -0.0
    source = "rotate u=(1,0,0) v=(0,1,0) theta=0.3\ntranslate v=(1,-2,0.5)\npseudo n=(0,0,1)\n"
    pipe = write(tmp_path, "p.txt", source)
    pts = write(tmp_path, "x.txt", pipeline.format_points(rows))
    matrix = pipeline.parse_pipeline(source).composed().matrix
    want = pipeline.format_points(rows @ matrix.T)
    argv = ["apply", "--pipeline", pipe, "--points", pts]
    code, lines = run(tmp_path, *argv)
    assert code == 0 and len(lines) == n
    assert "\n".join(lines) + "\n" == want
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_apply_bad_row_in_last_chunk_writes_nothing(tmp_path, capsys):
    n = 2 * pipeline.POINT_CHUNK_ROWS + 5
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 2 3 4\n" * n + "1 2 3\n")
    assert main(["apply", "--pipeline", pipe, "--points", pts]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"line {n + 1}" in out.err and "expected 4 fields" in out.err


def test_apply_undecodable_point_file_exits_2(tmp_path):
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = tmp_path / "x.txt"
    pts.write_bytes(b"1 0 0 0\n\xff 1 2 3\n")
    code, lines = run(tmp_path, "apply", "--pipeline", pipe, "--points", str(pts))
    assert code == 2 and lines[-1].startswith("error: cannot read")


@pytest.mark.parametrize("step", ["hrotate u=(1,0,0) v=(0,1,0) eta=1400",
                                  "shear u=(1e200,0,0) v=(0,1e200,0) t=1"])
@pytest.mark.parametrize("command", ["apply", "matrix", "check"])
def test_overflowing_versor_prints_only_the_error(tmp_path, step, command):
    # the versor's own products overflow while it is built; no numpy
    # warning may reach stderr ahead of the error line
    argv = [command, "--pipeline", write(tmp_path, "p.txt", step + "\n")]
    if command == "apply":
        argv += ["--points", write(tmp_path, "x.txt", "1 1 2 3\n")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "cl33", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    what = "stage 1 (sandwich): the scale of its versor" if command == "check" \
        else "stage 1: the extracted point"
    assert proc.returncode == cli.EXIT_RESIDUE == 4
    assert proc.stdout == ""
    assert proc.stderr == f"error: {what} is not finite: the arithmetic overflowed\n"


FUSED_OVERFLOWS = {
    "hrotate-scale": "hrotate u=(1,0,0) v=(0,1,0) eta=1000\nscale u=(1,0,0) t=1\n",
    "shear-shear": "shear u=(1e200,0,0) v=(0,1e200,0) t=1\n" * 2,
    "cotranslate-cotranslate": "cotranslate v=(1e200,0,0)\n" * 2,
    "scale-scale": "scale u=(1,0,0) t=1400\nscale u=(1,0,0) t=-1400\n",
}


@pytest.mark.parametrize("source", FUSED_OVERFLOWS.values(), ids=list(FUSED_OVERFLOWS))
@pytest.mark.parametrize("command", ["apply", "matrix", "check"])
def test_fused_overflow_raises_no_numpy_warning(tmp_path, source, command):
    # the fused versor of two steps overflows; with numpy's RuntimeWarnings
    # turned into errors, each command still ends with its one error line
    argv = [command, "--pipeline", write(tmp_path, "p.txt", source)]
    if command == "apply":
        argv += ["--points", write(tmp_path, "x.txt", "1 1 2 3\n")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "cl33", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_RESIDUE == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_check_rejects_an_overflowed_star_sandwich(tmp_path):
    # two cotranslations fuse into one star-sandwich stage whose versor
    # overflows; a finite one is still skipped with the same line
    rotate = "rotate u=(1,0,0) v=(0,1,0) theta=0.5\n"
    pipe = write(tmp_path, "p.txt", rotate + "cotranslate v=(1e200,0,0)\n" * 2)
    code, lines = run(tmp_path, "check", "--pipeline", pipe)
    assert code == cli.EXIT_RESIDUE == 4
    assert lines[0].startswith("stage 1 (sandwich): ")
    assert lines[1:] == ["error: stage 2 (star-sandwich): its versor is not finite: "
                         "the arithmetic overflowed"]
    pipe = write(tmp_path, "q.txt", "cotranslate v=(1,0,0)\ncotranslate v=(0,2,0)\n")
    assert run(tmp_path, "check", "--pipeline", pipe) == (
        0, ["stage 1: skipped (not a sandwich form)", "no sandwich stages; PASS"])


SKIPPED_SCALE_OVERFLOWS = {
    "cotranslate": ("cotranslate v=(1e160,0,0)\n", "star-sandwich"),
    "pseudo-cotranslate": ("pseudo n=(0,0,1)\ncotranslate v=(1e200,0,0)\n", "star-sandwich"),
    "perspective": ("perspective eye=(1e200,0,0) n=(1e200,0,0) c=1\n", "perspective"),
}


@pytest.mark.parametrize("source, form", SKIPPED_SCALE_OVERFLOWS.values(),
                         ids=list(SKIPPED_SCALE_OVERFLOWS))
def test_check_holds_skipped_stages_to_the_scale_test(tmp_path, source, form):
    # each versor is finite but its scale overflows: check exits 4 before the
    # skip line, as apply and matrix do on the same stage
    pipe = write(tmp_path, "p.txt", source)
    pts = write(tmp_path, "x.txt", "1 1 2 3\n")
    assert run(tmp_path, "check", "--pipeline", pipe) == (
        4, [f"error: stage 1 ({form}): the scale of its versor is not finite: "
            "the arithmetic overflowed"])
    assert run(tmp_path, "apply", "--pipeline", pipe, "--points", pts)[0] == 4
    assert run(tmp_path, "matrix", "--pipeline", pipe)[0] == 4


def test_apply_into_a_closed_pipe_exits_quietly(tmp_path):
    # the reader takes one line and closes the pipe while apply still writes
    pipe = write(tmp_path, "p.txt", "translate v=(1,0,0)\n")
    pts = write(tmp_path, "x.txt", "1 2 3 4\n" * 50000)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cl33", "apply", "--pipeline", pipe, "--points", pts],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert first == b"1 3 3 4\n" and err == b""
