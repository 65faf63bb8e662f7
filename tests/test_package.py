import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cl33

SRC = Path(cl33.__file__).resolve().parent


def test_all_exports_no_modules():
    modules = [n for n in cl33.__all__ if isinstance(getattr(cl33, n), types.ModuleType)]
    assert modules == []


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level > 0 or (node.module or "").split(".")[0] == "cl33"):
                continue
            offenders += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_every_import_is_used():
    # no linter runs here: a name a module imports and never reads is
    # dead.  The package's __init__.py imports to re-export, and a
    # __future__ import is a directive, not a name
    tests = Path(__file__).resolve().parent
    unused = []
    for path in sorted([*SRC.glob("*.py"), *tests.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names if name not in read]
    assert unused == []


def test_values_are_immutable_and_built_by_position_or_keyword():
    # the eleven value classes: each builds from its arguments by position
    # or by keyword, with its defaults, and refuses to set or delete them
    one = cl33.Multivector.scalar(1.0)
    step = cl33.PipelineStep("translate", {"v": np.array([1.0, 0.0, 0.0])}, 1)
    arguments = {
        cl33.Paravector: {"weight": 2.0},
        cl33.Versor: {"U": one, "epsilon": 1, "kind": "identity"},
        cl33.HodgeVersor: {"uprime": one, "lam": 1.0},
        cl33.PerspectiveMap: {"eye": cl33.Paravector(1.0), "n": [0.0, 0.0, 1.0], "c": 1.0},
        cl33.Composed: {"stages": ()},
        cl33.SectorReport: {"plus_off_sector": 0.0, "minus_off_sector": 1.0,
                            "preserves_plus": True, "preserves_minus": False},
        cl33.ConditionReport: dict.fromkeys(
            ["r1", "r2", "r3", "r4", "covector_residual", "direct4", "direct5"], one),
        cl33.Classification: {"verdict": "accept", "max_residual": 0.0,
                              "acts_as_identity": True},
        cl33.analysis.FamilyResult: {"family": "two-vectors", "eps": 0.1, "eta": 0.01,
                                     "max_residual": 0.0, "threshold": 1e-12},
        cl33.PipelineStep: {"op": "translate", "params": step.params, "line": 1},
        cl33.Pipeline: {"steps": (step,), "step_transforms": (cl33.identity_versor(),)},
    }
    for cls, kwargs in arguments.items():
        for value in (cls(*kwargs.values()), cls(**kwargs)):
            for name, given in kwargs.items():
                assert np.array_equal(getattr(value, name), given), (cls, name)
                with pytest.raises(AttributeError):
                    setattr(value, name, given)
                with pytest.raises(AttributeError):
                    delattr(value, name)
    assert np.array_equal(cl33.Paravector(2.0).vector, np.zeros(3))
    assert cl33.Classification("accept", 0.0, True).detail == ""


def test_import_loads_no_new_modules():
    # numpy.random costs memory and start-up time in every process, so
    # neither the import nor any command but selftest loads it (the
    # commands are held to that below); and each module the package pulls
    # in beyond numpy is listed here on purpose.  Start-up runs no
    # generated code either: no value class is a dataclass, so neither
    # dataclasses nor the copy module it imports is loaded
    code = ("import sys, numpy; before = set(sys.modules); import cl33; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    added = set(out.split())
    assert "numpy.random" not in added
    assert {m for m in added if m.split(".")[0] != "cl33"} <= {"__future__"}


def test_commands_load_no_numpy_random():
    # every command but selftest, the classifier included, reads its probe
    # points from literal tables: one interpreter runs apply, check, matrix
    # and a parse error, and numpy.random is still not loaded, nor are
    # dataclasses and copy
    golden = Path(__file__).resolve().parent / "data" / "golden"
    projective, points = golden / "projective.txt", golden / "points.txt"
    calls = [[str(arg) for arg in argv] for argv in (
        ["apply", "--pipeline", projective, "--points", points],
        ["apply", "--pipeline", projective, "--points", points, "--normalize"],
        ["check", "--pipeline", projective], ["matrix", "--pipeline", projective],
        ["check", "--pipeline", projective, "--perturb", "7:0.01"],
        ["check", "--pipeline", golden / "syntax-error.txt"])]
    code = ("import sys, cl33; from cl33.cli import main\n"
            f"codes = [main(argv, _capture=[]) for argv in {calls!r}]\n"
            "c = cl33.classify_infinitesimal(1, cl33.embed_vector([1.0, 0.0, 0.0]))\n"
            "print(*codes, c.verdict, *{'numpy.random', 'dataclasses', 'copy'} & set(sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.split() == ["0", "0", "0", "0", "5", "2", "accept"]


def test_import_builds_no_residual_plan():
    # the product plans of the condition formulas are built on first use,
    # so that importing the package does not pay for them; a batch of S
    # operators adds the plans laid S times side by side
    code = ("import cl33; from cl33 import analysis as a; one = cl33.Multivector.scalar(1.0)\n"
            "def sizes(): print(a._layers.cache_info().currsize, "
            "a._plans.cache_info().currsize)\n"
            "sizes(); a.worst_residuals(one); sizes(); a.worst_residuals_of([one] * 3); sizes(); "
            "a.worst_residuals_of([one, one, one]); sizes()")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.split("\n")[:4] == ["0 0", "1 1", "1 2", "1 2"]
    assert cl33.analysis._plans.cache_parameters()["maxsize"] is not None


def test_import_builds_no_construction_or_fusion_plan():
    # the plans that build versors are made on first use, as the residual
    # plans are; a parse builds the two construction plans of its step
    # count, and composing, which fuses with *, adds none.  Importing keeps
    # no transform's matrix.  The images of the one stage add their plan;
    # its radius certifies this pipeline, so no point goes through the stage
    # and no other plan is added, and the pipeline and its one stage keep a
    # matrix
    code = ("import gc, cl33; from cl33 import analysis as a, versors as v\n"
            "kept = lambda: sum(1 for o in gc.get_objects() if isinstance(o, v.Transform) "
            "and 'matrix' in vars(o))\n"
            "print(v._plan.cache_info().currsize, kept()); "
            "p = cl33.parse_pipeline('rotate u=(1,0,0) v=(0,1,0) theta=0.5\\n"
            "rotate u=(0,1,0) v=(0,0,1) theta=0.25\\n'); "
            "print(v._plan.cache_info().currsize); c = p.composed(); "
            "print(v._plan.cache_info().currsize); a.projective_matrix_probe(c); "
            "print(v._plan.cache_info().currsize, kept())")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.split("\n")[:4] == ["0 0", "2", "2", "3 2"]


def test_residue_errors_share_one_base():
    # the errors that carry a residual magnitude hold it in one base class
    for cls in (cl33.NonParavectorResidue, cl33.CovectorResidue, cl33.NotHodgeCompatible):
        assert issubclass(cls, cl33.ResidualError) and issubclass(cls, ValueError)
        assert "__init__" not in vars(cls)
        exc = cls("message", residual=0.5)
        assert str(exc) == "message" and exc.residual == 0.5
        assert cls("message").residual is None


def test_perfbench_spans_resolve():
    # the benchmark's traced run wraps these functions by name and fails
    # obscurely when one is gone; read its table without importing it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (table,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]]
    missing = [f"{module}.{name}" for module, name, _ in table
               if not hasattr(importlib.import_module(module), name)]
    assert table
    assert missing == []
