"""Layered benchmark for cl33.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see README.md in this directory for why each was chosen):

    affine-apply      ``cl33 apply`` on 10^4 points, one fused sandwich
                      stage made of all six sandwich ops
    projective-apply  ``cl33 apply --normalize`` on 2*10^3 points through
                      six unfused stages, with shares of points sent to
                      infinity and behind the eye
    analysis-check    ``check``, ``matrix``, rejected inputs, and
                      ``classify_infinitesimal`` on generators the paper rules on

The load is one closed-loop client: one child process at a time, no
threads, the next call only after the previous one ended.  An apply workload
first runs one ``python -m cl33 apply`` process on all its points, for its
peak memory; then, like ``analysis-check``, one child calls
``cl33.cli.main`` in process, cycling through its calls for ``--seconds``
(the apply points split into ``inputs.APPLY_CALLS`` calls).  Every call is
timed against the reference loop of ``refclock.py`` run just before and
after it, and reported in seconds on the baseline machine.  Inputs are made
from ``--seed`` and written to files; only the children import cl33, from
``src/`` of the checkout.  Every output is scored against the closed-form
oracle in ``oracle.py``.

Prints a table of every metric with its unit, then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.  ``--tiny`` shrinks the inputs for
the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
import refclock
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHON = sys.executable
#: A child that runs longer than this is killed and its work counted failed.
CHILD_TIMEOUT_S = 120
#: Fresh interpreters timed for ``setup_s`` before the workload, and again
#: after it, so that one slow spell cannot move every sample.
SETUP_REPEATS = 5
#: The load model has no threads: without these, numpy's BLAS starts a
#: thread pool at import that competes with the measured thread for the
#: machine's two cores and makes every timing noisier.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
#: ``import cl33`` timed, then the reference loop twice after one untimed
#: run (the loop needs numpy, which must not be loaded before cl33); the
#: benchmark's directory is the argument, searched after everything else.
IMPORT_TIMED = ("import sys, time; sys.path.append(sys.argv[1]); c = time.perf_counter; "
                "t = c(); import cl33; t = c() - t; from refclock import tick; tick(c); "
                "print(t, tick(c), tick(c))")


class Context:
    def __init__(self, args, work, env):
        self.seconds = args.seconds
        self.trace = args.trace
        self.tiny = args.tiny
        self.work = work
        self.env = env
        self.rng = np.random.default_rng(args.seed)

    def write(self, name, text):
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def path(self, name):
        return str(self.work / name)


# -- children --------------------------------------------------------------

def spawn(ctx, cmd, stdout_name):
    """Run one child to completion.  Returns (wall seconds, exit code,
    peak RSS in MB); the wall runs from spawn to reaping."""
    with open(ctx.path(stdout_name), "wb") as out, \
            open(ctx.path(stdout_name + ".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ctx.env, cwd=ROOT)

        def kill(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cl33_cmd(argv):
    return [PYTHON, "-m", "cl33", *argv]


def child_cmd(argv, spans_path=None):
    prefix = ["--spans", spans_path] if spans_path else []
    return [PYTHON, str(HERE / "child.py"), *prefix, *argv]


# -- set-up ----------------------------------------------------------------

def setup_samples(ctx, repeats):
    """``import cl33`` in each of ``repeats`` fresh interpreters, in seconds
    on the baseline machine (see refclock.py)."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([PYTHON, "-c", IMPORT_TIMED, str(HERE)], env=ctx.env, check=True,
                             cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seconds, ref1, ref2 = map(float, out.stdout.split())
        times.append(refclock.scaled(seconds, ref1, ref2))
    return times


def measure_importtime(ctx, repeats):
    """Median module import times from ``python -X importtime``: numpy
    cumulative, and the module bodies of cl33.blades (Cayley tables) and
    cl33.hodge (star matrix) without their nested imports."""
    rows = {"setup.numpy_s": [], "setup.blades_s": [], "setup.hodge_s": []}
    for _ in range(repeats):
        out = subprocess.run([PYTHON, "-X", "importtime", "-c", "import cl33"], env=ctx.env,
                             check=True, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        for line in out.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            own, cumulative, name = int(parts[0]), int(parts[1]), parts[2].strip()
            if name == "numpy":
                rows["setup.numpy_s"].append(cumulative * 1e-6)
            elif name in ("cl33.blades", "cl33.hodge"):
                rows[f"setup.{name[5:]}_s"].append(own * 1e-6)
    return {k: float(np.median(v)) for k, v in rows.items()}


# -- scoring -----------------------------------------------------------------

def parse_rows(text, rows):
    try:
        got = np.array(text.split(), dtype=np.float64)
    except ValueError:
        return np.empty((0, 4))
    return got.reshape(-1, 4) if got.size == 4 * rows else np.empty((0, 4))


def failures(expect, outcome):
    """How many of the ``units`` operations one call stands for failed."""
    kind = expect["kind"]
    if kind == "classify":
        verdict, identity = outcome
        return int(verdict != expect["verdict"] or expect["identity"] not in (None, identity))
    code, lines = outcome
    if kind == "apply":
        want = expect["rows"]
        if code != 0:
            return len(want)
        return len(want) - int(oracle.score_points(parse_rows(" ".join(lines), len(want)),
                                                   want).sum())
    if kind == "check":
        ok = code == 0 and oracle.score_check(lines, expect["stages"])
    elif kind == "matrix":
        ok = code == 0 and oracle.score_matrix(lines, expect["matrix"])
    else:
        ok = code == oracle.EXPECTED_EXIT[kind]
    return int(not ok)


def pct(values, q):
    return float(np.percentile(values, q)) if len(values) else float("nan")


# -- the closed loop -----------------------------------------------------------

def run_ops(ctx, spec_path, seconds, name, spans_path=None):
    out = ctx.path(f"{name}-results.json")
    wall, code, rss = spawn(ctx, child_cmd(["ops", spec_path, out, repr(seconds)], spans_path),
                            f"{name}.log")
    if code != 0:
        return None, rss
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), rss


def score_run(expect, res):
    """(attempted, failed) operations of one child's results; a crashed
    child fails one whole cycle."""
    if res is None:
        units = sum(e["units"] for e in expect)
        return units, units
    attempted = failed = 0
    last = {}
    for idx, _, _, _, outcome in res["results"]:
        if outcome is not None:
            last[idx] = failures(expect[idx], outcome)
        attempted += expect[idx]["units"]
        failed += last[idx]
    return attempted, failed


def timings(res):
    """Op indices, raw call seconds, the same in seconds on the baseline
    machine, and the reference loop's seconds before each call, from one
    child's results."""
    rows = np.array([r[:4] for r in res["results"]])
    idx, raw, before, after = rows.T
    return idx.astype(int), raw, refclock.scaled(raw, before, after), before


def loop_workload(ctx, ops, expect):
    """Run the closed loop over ``ops``; with ``--trace`` a third of the
    time untraced and the rest traced.

    Returns (summary, table, layers, attempted, failed, peak RSS of the
    untraced child in MB).  ``summary`` has ``ops_per_s``, the operations
    of one whole cycle over the sum of each call's median time, and
    ``call_p50_ms``, both in time on the baseline machine.
    """
    spec = ctx.write("ops.json", json.dumps({"ops": ops}))
    budget = ctx.seconds / 3.0 if ctx.trace else ctx.seconds
    res, rss = run_ops(ctx, spec, budget, "ops")
    traced = None
    if ctx.trace:
        traced, _ = run_ops(ctx, spec, ctx.seconds - budget, "ops-traced", ctx.path("spans.npz"))
    attempted = failed = 0
    for r in (res, traced) if ctx.trace else (res,):
        a, f = score_run(expect, r)
        attempted += a
        failed += f
    if res is None or (ctx.trace and traced is None):
        return None, {}, None, attempted, failed, rss

    idx, raw, scaled, ref = timings(res)
    per_op = [float(np.median(scaled[idx == i])) for i in range(len(ops))]
    summary = {
        "ops_per_s": sum(e["units"] for e in expect) / sum(per_op),
        "call_p50_ms": pct(scaled, 50) * 1e3,
    }
    table = {
        "calls": (len(idx), "count"),
        "wall_call_p50_ms": (pct(raw, 50) * 1e3, "ms"),
        "ref_loop_ms": (pct(ref, 50) * 1e3, "ms"),
    }
    kinds = np.array([expect[i]["kind"] for i in idx])
    for kind in ("check", "matrix", "classify"):
        lat = scaled[kinds == kind] * 1e3
        if len(lat):
            table[f"{kind}_p50_ms"] = (pct(lat, 50), "ms")
            if kind != "classify":
                table[f"{kind}_p90_ms"] = (pct(lat, 90), "ms")
            table[f"{kind}_calls"] = (len(lat), "count")
    rejected = int(np.isin(kinds, list(oracle.EXPECTED_EXIT)).sum())
    if rejected:
        table["rejected_calls"] = (rejected, "count")
    layers = None
    if ctx.trace:
        # overhead from times on the baseline machine, so that a change of
        # speed between the two children does not read as overhead
        traced_scaled = timings(traced)[2]
        layers = layer_metrics([ctx.path("spans.npz")], len(traced_scaled),
                               float(traced_scaled.mean() / scaled.mean()))
    return summary, table, layers, attempted, failed, rss


# -- apply workloads -----------------------------------------------------------

def apply_workload(ctx, projective):
    rng = ctx.rng
    if projective:
        count = 100 if ctx.tiny else inputs.PROJECTIVE_POINTS
        steps, first, eye, normal = inputs.projective_pipeline(rng)
        points, at_inf = inputs.projective_points(rng, count, first, eye, normal)
    else:
        count = 200 if ctx.tiny else inputs.AFFINE_POINTS
        steps = inputs.affine_pipeline(rng)
        points, at_inf = inputs.affine_points(rng, count), None
    want = oracle.expected_points(oracle.pipeline_matrix(steps), points, projective, at_inf)
    pipeline_path = ctx.write("pipeline.txt", inputs.render(steps))
    flags = ["--normalize"] if projective else []

    # One ``cl33 apply`` process on every point, as a user runs it: its
    # peak memory, and its output scored like the loop's.
    argv = ["apply", "--pipeline", pipeline_path,
            "--points", ctx.write("points.txt", inputs.render_points(points)), *flags]
    wall, code, rss = spawn(ctx, cl33_cmd(argv), "out.txt")
    ok = oracle.score_points(parse_rows(Path(ctx.path("out.txt")).read_text(encoding="utf-8"),
                                        count), want)
    process_failed = count - int(ok.sum()) if code == 0 else count

    # The timed loop: the same points, split into calls short enough to be
    # read against the reference loop.
    ops, expect = [], []
    for k, rows in enumerate(np.array_split(np.arange(count), inputs.APPLY_CALLS)):
        path = ctx.write(f"points-{k}.txt", inputs.render_points(points[rows]))
        ops.append({"kind": "apply",
                    "argv": ["apply", "--pipeline", pipeline_path, "--points", path, *flags]})
        expect.append({"kind": "apply", "units": len(rows), "rows": want[rows]})
    summary, table, layers, attempted, failed, _ = loop_workload(ctx, ops, expect)
    attempted += count
    failed += process_failed
    if summary is None:
        return None, {}, None, attempted, failed
    e2e = dict(summary, peak_rss_mb=rss)
    table.update({
        "points_per_s": (e2e["ops_per_s"], "1/s"),
        "points_per_call": (count / inputs.APPLY_CALLS, "count"),
        "process_wall_ms": (wall * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    })
    return e2e, table, layers, attempted, failed


# -- analysis-check ----------------------------------------------------------

def analysis_workload(ctx):
    ops, expect = inputs.analysis_ops(ctx.rng, ctx.write)
    if ctx.tiny:
        ops, expect = ops[:2 * inputs.BLOCK], expect[:2 * inputs.BLOCK]
    summary, table, layers, attempted, failed, rss = loop_workload(ctx, ops, expect)
    if summary is None:
        return None, {}, None, attempted, failed
    e2e = dict(summary, peak_rss_mb=rss)
    table["peak_rss_mb"] = (rss, "MB")
    return e2e, table, layers, attempted, failed


# -- per-layer metrics ---------------------------------------------------------

#: (metric, unit, span or counter, kind): every per-layer metric, divided by
#: the number of calls the traced loop made.
LAYER_METRICS = (
    ("multivector.mul_calls", "count/call", "multivector.mul", "calls"),
    ("multivector.mul_s", "s/call", "multivector.mul", "self"),
    ("multivector.xor_calls", "count/call", "multivector.xor", "calls"),
    ("multivector.xor_s", "s/call", "multivector.xor", "self"),
    ("hodge.star_calls", "count/call", "hodge.star", "calls"),
    ("hodge.star_s", "s/call", "hodge.star", "self"),
    ("versors.construct_calls", "count/call", "versors.construct", "calls"),
    ("versors.construct_s", "s/call", "versors.construct", "self"),
    ("versors.sandwich_s", "s/call", "versors.sandwich", "self"),
    ("versors.hodge_sandwich_s", "s/call", "versors.hodge_sandwich", "self"),
    ("versors.perspective_s", "s/call", "versors.perspective", "self"),
    ("versors.compose_s", "s/call", "versors.compose", "self"),
    ("euclid.embed_s", "s/call", "euclid.embed", "self"),
    ("euclid.extract_s", "s/call", "euclid.extract", "self"),
    ("euclid.residue_errors", "count/call", "euclid.residue_errors", "counter"),
    ("pipeline.parse_pipeline_s", "s/call", "pipeline.parse_pipeline", "self"),
    ("pipeline.parse_points_s", "s/call", "pipeline.parse_points", "self"),
    ("pipeline.format_points_s", "s/call", "pipeline.format_points", "self"),
    ("analysis.conditions_calls", "count/call", "analysis.conditions", "calls"),
    ("analysis.conditions_s", "s/call", "analysis.conditions", "self"),
    ("analysis.probe_matrix_s", "s/call", "analysis.probe_matrix", "self"),
    ("analysis.classify_s", "s/call", "analysis.classify", "self"),
    ("cli.apply_s", "s/call", "cli.apply", "self"),
    ("cli.check_s", "s/call", "cli.check", "self"),
    ("cli.matrix_s", "s/call", "cli.matrix", "self"),
    ("cli.points_at_infinity", "count/call", "cli.points_at_infinity", "counter"),
    ("cli.negative_weight", "count/call", "cli.negative_weight", "counter"),
)


def layer_metrics(span_files, calls, overhead):
    n_calls, self_s, counters = spans.summarize(span_files)
    out = {}
    for metric, unit, key, kind in LAYER_METRICS:
        raw = {"calls": n_calls, "self": self_s, "counter": counters}[kind].get(key, 0)
        out[metric] = (raw / calls, unit)
    muls = n_calls.get("multivector.mul", 0)
    # computed from operand nonzeros, not timed: useful multiplies / 64*64 per product
    out["multivector.useful_mult_ratio"] = (
        counters.get("multivector.mul_nnz_pairs", 0) / (4096.0 * muls) if muls else 0.0,
        "ratio (computed)")
    steps = counters.get("versors.steps_in", 0)
    out["versors.stages_per_step"] = (
        counters.get("versors.stages_out", 0) / steps if steps else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# -- main --------------------------------------------------------------------------

WORKLOADS = {
    "affine-apply": lambda ctx: apply_workload(ctx, projective=False),
    "projective-apply": lambda ctx: apply_workload(ctx, projective=True),
    "analysis-check": analysis_workload,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cl33" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no cl33 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    # Children keep a bytecode cache, as an installed package has one, but
    # in the scratch directory rather than in src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    try:
        ctx = Context(args, work, env)
        repeats = 1 if args.tiny else SETUP_REPEATS
        # one untimed import first leaves the bytecode cache warm
        subprocess.run([PYTHON, "-c", "import cl33"], env=env, check=True, cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
        setup = setup_samples(ctx, repeats)
        e2e, table, layers, attempted, failed = WORKLOADS[args.workload](ctx)
        setup = float(np.median(setup + setup_samples(ctx, repeats)))
        if args.trace:
            setup_layers = measure_importtime(ctx, repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if e2e is None or (args.trace and layers is None):
        print(f"error: a {args.workload} child failed", file=sys.stderr)
        return 1

    e2e["setup_s"] = setup
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table["setup_s"] = (setup, "s")
    table["failed_frac"] = (failed / attempted, "fraction")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"attempted={attempted} failed={failed}")
    rows = dict(table)
    rows.update((k, (v, units[k])) for k, v in e2e.items())
    if args.trace:
        layers.update((k, (v, "s")) for k, v in setup_layers.items())
        rows.update(layers)
    for name, (value, unit) in rows.items():
        print(f"{name:32s} {value:14.6g} {unit}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else {k: (v, units[k]) for k, v in e2e.items()}
    metrics = {m["name"]: {"value": float(source[m["name"]][0]), "unit": m["unit"]}
               for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
