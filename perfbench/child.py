"""Child process of the benchmark: the only process that calls into cl33.

    python3 perfbench/child.py [--spans FILE] ops OPS.json RESULTS.json SECONDS
        one closed-loop client: call ``cl33.cli.main(argv, _capture=...)``
        (or ``classify_infinitesimal``) for each op in turn, cycling through
        the list in whole cycles until SECONDS have passed, and write each
        call's latency, the reference loop's time on either side of it, and
        its outcome.  An outcome equal to the previous one of the same op is
        written as null.

With ``--spans`` the span recorder wraps the package before any call and
writes its spans to FILE when the work is done.
"""

from __future__ import annotations

import json
import sys
import time

from refclock import tick


def run_ops(ops, seconds):
    import numpy as np

    from cl33 import analysis, multivector
    from cl33.cli import main

    coeffs = [np.asarray(op["coeffs"]) if op["kind"] == "classify" else None for op in ops]
    results = []
    last = {}
    clock = time.perf_counter
    tick(clock)  # the first run of the loop is not timed
    ref = tick(clock)
    start = clock()
    deadline = start + seconds
    i = 0
    while True:
        idx = i % len(ops)
        op = ops[idx]
        t0 = clock()
        if op["kind"] == "classify":
            c = analysis.classify_infinitesimal(op["grade"], multivector.Multivector(coeffs[idx]))
            outcome = [c.verdict, c.acts_as_identity]
        else:
            lines = []
            outcome = [main(op["argv"], _capture=lines), lines]
        t1 = clock()
        ref_after = tick(clock)
        same = last.get(idx) == outcome
        results.append([idx, t1 - t0, ref, ref_after, None if same else outcome])
        last[idx] = outcome
        ref = ref_after
        i += 1
        if i % len(ops) == 0 and t1 >= deadline:
            break
    return {"seconds": clock() - start, "results": results}


def main(argv):
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    recorder = None
    if spans is not None:
        import cl33.cli
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    try:
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        out = run_ops(spec["ops"], float(argv[3]))
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        return 0
    finally:
        if recorder is not None:
            recorder.save(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
