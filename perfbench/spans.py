"""Span recorder for the traced run.

Spans are recorded from outside the package: ``install`` wraps the public
functions of each cl33 module (one layer per module), and rebinds each
wrapper everywhere the package looks the function up (``versors``
binds ``hodge_star`` by name, ``pipeline`` binds the versor constructors and
``compose``), so no call slips past.  Each span keeps a name, a start, an end
and the span that was open when it began; spans stay in memory and are
written out once, when the traced process ends.  ``summarize`` turns span
files into per-layer self times: a span's duration minus its children's.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

#: (module, attribute, span name): functions wrapped in every cl33
#: namespace that binds them.
FUNCTIONS = (
    ("cl33.cli", "_cmd_apply", "cli.apply"),
    ("cl33.cli", "_cmd_check", "cli.check"),
    ("cl33.cli", "_cmd_matrix", "cli.matrix"),
    ("cl33.pipeline", "parse_pipeline", "pipeline.parse_pipeline"),
    ("cl33.pipeline", "parse_points", "pipeline.parse_points"),
    ("cl33.pipeline", "format_points", "pipeline.format_points"),
    ("cl33.analysis", "paravector_conditions", "analysis.conditions"),
    ("cl33.analysis", "projective_matrix_probe", "analysis.probe_matrix"),
    ("cl33.analysis", "classify_infinitesimal", "analysis.classify"),
    ("cl33.versors", "reflection_versor", "versors.construct"),
    ("cl33.versors", "rotation_versor", "versors.construct"),
    ("cl33.versors", "hyperbolic_versor", "versors.construct"),
    ("cl33.versors", "shear_versor", "versors.construct"),
    ("cl33.versors", "scale_versor", "versors.construct"),
    ("cl33.versors", "translation_versor", "versors.construct"),
    ("cl33.versors", "apply_sandwich", "versors.sandwich"),
    ("cl33.versors", "apply_hodge_sandwich", "versors.hodge_sandwich"),
    ("cl33.versors", "apply_cotranslation", "versors.hodge_sandwich"),
    ("cl33.versors", "perspective_project", "versors.perspective"),
    ("cl33.versors", "compose", "versors.compose"),
    ("cl33.hodge", "hodge_star", "hodge.star"),
    ("cl33.euclid", "embed_paravector", "euclid.embed"),
    ("cl33.euclid", "extract_paravector", "euclid.extract"),
)


class SpanRecorder:
    """Spans as parallel lists; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def current(self):
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else None

    def wrap(self, span, fn, on_error=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return traced

    def save(self, path):
        np.savez(path,
                 name=np.asarray(self.name, dtype=np.int32),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 meta=np.array(json.dumps({"names": self.names, "counters": self.counters})))


def _rebind(orig, wrapper):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cl33" or mod_name.startswith("cl33."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def install(rec):
    """Wrap every layer boundary of the imported cl33 package."""
    import importlib

    from cl33 import errors, euclid, multivector, versors

    residues = (errors.NonParavectorResidue, errors.CovectorResidue)

    def count_residue(exc):
        if isinstance(exc, residues):
            rec.count("euclid.residue_errors")

    for mod_name, attr, span in FUNCTIONS:
        orig = getattr(importlib.import_module(mod_name), attr)
        wrapper = rec.wrap(span, orig, count_residue if span == "euclid.extract" else None)
        if span == "versors.compose":
            wrapper = _counting_compose(rec, wrapper)
        _rebind(orig, wrapper)

    # Operators and methods are looked up on the class.
    mv = multivector.Multivector
    mul, xor = mv.__mul__, mv.__xor__
    traced_mul, traced_xor = rec.wrap("multivector.mul", mul), rec.wrap("multivector.xor", xor)
    count_nonzero = np.count_nonzero

    def product(self, other):
        if type(other) is not mv:
            return mul(self, other)
        rec.count("multivector.mul_nnz_pairs",
                  int(count_nonzero(self.coeffs)) * int(count_nonzero(other.coeffs)))
        return traced_mul(self, other)

    def exterior(self, other):
        if type(other) is not mv:
            return xor(self, other)
        return traced_xor(self, other)

    mv.__mul__, mv.__xor__ = product, exterior
    versors.PerspectiveMap.apply = rec.wrap("versors.perspective", versors.PerspectiveMap.apply)

    # The CLI asks each output point whether it is at infinity (only under
    # --normalize); count the answers it gets.
    at_inf = euclid.Paravector.is_at_infinity.fget

    def is_at_infinity(self):
        result = at_inf(self)
        if rec.current() == "cli.apply":
            if result:
                rec.count("cli.points_at_infinity")
            elif self.weight < 0.0:
                rec.count("cli.negative_weight")
        return result

    euclid.Paravector.is_at_infinity = property(is_at_infinity)


def _counting_compose(rec, wrapped):
    def compose(transforms):
        transforms = list(transforms)
        out = wrapped(transforms)
        rec.count("versors.steps_in", len(transforms))
        rec.count("versors.stages_out", len(out.stages))
        return out

    return compose


def summarize(paths):
    """Per span name: number of spans and self seconds, summed over every
    file; plus the summed counters."""
    calls, self_s, counters = {}, {}, {}
    for path in paths:
        with np.load(path) as f:
            name, start, end, parent = f["name"], f["start"], f["end"], f["parent"]
            meta = json.loads(str(f["meta"]))
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        for nid, span in enumerate(meta["names"]):
            sel = name == nid
            calls[span] = calls.get(span, 0) + int(sel.sum())
            self_s[span] = self_s.get(span, 0.0) + float(own[sel].sum())
        for key, val in meta["counters"].items():
            counters[key] = counters.get(key, 0) + val
    return calls, self_s, counters
