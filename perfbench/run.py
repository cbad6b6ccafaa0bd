#!/usr/bin/env python3
"""chansr benchmark: train, eval and infer workloads, untraced or traced.

One workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

prints the environment fingerprint, a table of the workload's metrics (name,
value, unit, better) and, as the last line, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json and the workload's named views
(catalog.json); ``--trace 1`` reports the per-layer metrics, taken from spans
recorded around chansr's public functions, and its own throughput.

All workloads, untraced and traced, with every metric and the tracing
overhead (untraced over traced throughput):

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The benchmark's own check runs all of that at tiny sizes and verifies that
every metric is printed with its unit and every output check ran:

    python3 perfbench/run.py --smoke

``--smoke --workload train`` (or eval, infer) runs one workload at tiny sizes.

Inputs come only from ``--seed``. BLAS and OpenMP run one thread, set here
before numpy loads. Scratch files live in ``.perfbench/`` at the repository
root; each run removes its own, keeping only the result and span files.
"""

import argparse
import fnmatch
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402  (after the thread settings, which BLAS reads when it loads)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("train", "eval", "infer")


def load_json(name):
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds(reps):
    """Median wall time of importing chansr.cli (numpy included) in fresh interpreters.

    A fresh process pays what a user's command pays; the first one in a new
    checkout also writes the bytecode caches, which the median leaves out.
    """
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import chansr.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def fingerprint(import_s):
    """Machine, interpreter, BLAS and thread settings the numbers were taken under."""
    from chansr import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        git = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS")) or k.startswith(("OPENBLAS", "GOTO", "OMP_"))},
        "kernel_backend": kernels.backend_name(),
        "git": git,
        "import_s": import_s,
    }


def clean(value):
    return None if value is None or (isinstance(value, float) and not math.isfinite(value)) else value


def timed_pass(w, seconds, tracer, min_cycles=0):
    """Closed loop, one client: whole cycles until `seconds` have passed and `min_cycles` ran.

    Each cycle starts with a garbage collection, outside the op timings. The
    autodiff graph holds reference cycles, so without it the garbage of one
    in-process CLI command would still be resident in the next, which a
    process per command never sees, and peak memory would grow with the
    number of cycles the run happens to fit.
    """
    w.start()
    ops, cycles = [], 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or cycles < min_cycles:
        gc.collect()
        with tracer.span("bench.cycle"):
            ops += w.cycle()
        cycles += 1
    return ops


def views(name, w, ops, setup_s, peak_rss_mb):
    """The named end-to-end figures of one workload (catalog.json lists them)."""
    out = {"setup_s": setup_s, "nmse_db": 10 * math.log10(w.nmse) if w.nmse > 0 else float("nan"),
           "ls_nmse_db": 10 * math.log10(w.baseline_ls) if w.baseline_ls > 0 else float("nan"),
           "peak_rss_mb": peak_rss_mb}
    if name == "train":
        for kind, key in (("train", "train"), ("fisher", "fisher"), ("train-cl", "cl")):
            out[f"{key}_samples_per_s"] = w.samples_per_s(ops, kind)
    elif name == "eval":
        out["eval_samples_per_s"] = w.samples_per_s(ops)
    else:
        lat = sorted(op.seconds * 1e3 for op in ops)
        out["infer_ms_p50"] = statistics.median(lat)
        out["infer_ms_p90"] = lat[int(math.ceil(0.9 * len(lat))) - 1]
        out["infer_grids_beyond_p90"] = len(lat) - int(math.ceil(0.9 * len(lat)))
    return out


def run_workload(args):
    sys.path.insert(0, SRC)
    import layers
    from tracing import NullTracer, Tracer
    from workloads import BATCH, SIZES, WORKLOADS

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "catalog.json"))
    z = SIZES["smoke" if args.smoke else "full"]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    import_s = import_seconds(z["import_reps"]) if not args.trace else float("nan")
    env = fingerprint(import_s)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        w = WORKLOADS[args.workload](args.seed, z, work, NullTracer())
        shares = traced_steps = None
        if not args.trace:
            setups = []
            for r in range(z["setup_reps"]):
                d = os.path.join(work, f"setup{r}")
                os.makedirs(d)
                t0 = time.perf_counter()
                w.setup(d)
                setups.append(time.perf_counter() - t0)
            ops = timed_pass(w, args.seconds, w.tracer)
            checks = w.finish()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_s = import_s + statistics.median(setups)
            metrics = {"setup_s": setup_s, "samples_per_s": w.samples_per_s(ops), "nmse": w.nmse, "peak_rss_mb": peak}
            listed = bench["end_to_end"]
            view = views(args.workload, w, ops, setup_s, peak)
        else:
            tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
            tracer.install()
            w.tracer = tracer
            d = os.path.join(work, "setup0")
            os.makedirs(d)
            with tracer.span("bench.setup"):
                w.setup(d)
            steps = w.steps_per_cycle()
            ops = timed_pass(w, args.seconds, tracer, math.ceil(z["min_traced_steps"] / steps) if steps else 0)
            with tracer.span("bench.check"):
                checks = w.finish()
            tracer.uninstall()
            metrics, shares, traced_steps = layers.derive(tracer, BATCH)
            metrics["trace.samples_per_s"] = w.samples_per_s(ops)
            tracer.save(os.path.join(WORK, f"spans-{args.workload}.npz"))
            listed = bench["per_layer"]
            view = {}
        missing = sorted({m["name"] for m in listed} ^ set(metrics))
        if missing:
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not op.ok for op in ops) + sum(not ok for ok in checks)
    attempted = len(ops) + len(checks)
    unrun = [c for c, n in w.check_runs.items() if n == 0]
    result = {
        "correct": failed == 0 and not unrun,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": clean(metrics[m["name"]]), "unit": m["unit"]} for m in listed},
    }
    view["fail_frac"] = failed / attempted
    units = {v["name"]: v for v in catalog["views"]}
    print(f"{'metric':<40} {'value':>14}  {'unit':<12} better")
    for m in listed:
        print(f"{m['name']:<40} {metrics[m['name']]:>14.6g}  {m['unit']:<12} {m['better']}")
    for key, value in view.items():
        print(f"{key:<40} {value:>14.6g}  {units[key]['unit']:<12} {units[key]['better']}  (view)")
    if shares:
        total = shares["total"] or float("nan")
        print("self time inside traced operations, by layer: "
              + ", ".join(f"{k} {v / total:.1%}" for k, v in shares.items() if k != "total"))
        print(f"training steps behind the step percentiles: {traced_steps}")
    if unrun:
        print(f"output checks that never ran: {unrun}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  smoke=args.smoke, env=env, views={k: clean(v) for k, v in view.items()},
                  checks_run=w.check_runs, checks_failed=w.check_fails, self_time_s=shares, traced_steps=traced_steps,
                  op_seconds={k: [op.seconds for op in ops if op.kind == k] for k in sorted({op.kind for op in ops})})
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run_all(seed, seconds, smoke):
    """Every workload untraced then traced, each in its own process; returns the problems found."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "catalog.json"))
    problems = []
    for name in WORKLOAD_NAMES:
        rates = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            print(f"== {name} trace {trace}: exit {proc.returncode}")
            print(proc.stdout.rstrip())
            if proc.returncode != 0:
                problems.append(f"{name}/trace{trace}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems += verify(name, trace, result, bench, catalog)
            rates[trace] = result["metrics"]["trace.samples_per_s" if trace else "samples_per_s"]["value"]
        if len(rates) == 2 and rates[0] and rates[1]:
            print(f"== {name}: tracing overhead {rates[0] / rates[1] - 1:+.1%} "
                  f"(untraced {rates[0]:.6g} vs traced {rates[1]:.6g} samples/s)")
    return problems


def verify(name, trace, result, bench, catalog):
    """Contract checks on one printed result and its result file."""
    where = f"{name}/trace{trace}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    listed = bench["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in listed}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in listed:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value", 0), (int, float, type(None))):
            problems.append(f"{where}: {m['name']} printed as {entry}")
    record = load_json(os.path.join(WORK, f"result-{name}-trace{trace}.json"))
    unrun = [c for c, n in record["checks_run"].items() if n == 0]
    if unrun:
        problems.append(f"{where}: output checks never ran: {unrun}")
    if not trace:
        view_names = {v["name"] for v in catalog["views"] if name in v["workloads"]}
        if set(record["views"]) != view_names:
            problems.append(f"{where}: views {sorted(record['views'])} != catalog {sorted(view_names)}")
    return problems


def catalog_problems():
    """BENCHMARK.json and catalog.json describe the same metrics and workloads."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "catalog.json"))
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(catalog["workloads"]):
        problems.append("workload names differ between BENCHMARK.json and catalog.json")
    for m in bench["end_to_end"]:
        if sorted(catalog["end_to_end"].get(m["name"], {})) != sorted(names):
            problems.append(f"end_to_end {m['name']}: no definition for every workload")
    for m in bench["per_layer"]:
        entries = [e for e in catalog["per_layer"] if fnmatch.fnmatchcase(m["name"], e["match"])]
        if len(entries) != 1:
            problems.append(f"per_layer {m['name']}: matched by {len(entries)} catalog entries")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="length of the timed pass (default 20, or 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes and, unless --seconds is given, a 1 s timed pass")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "chansr")):
        print(f"chansr sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 20.0
    if args.workload == "all":
        problems = catalog_problems() + run_all(args.seed, args.seconds, args.smoke)
        for p in problems:
            print(f"PROBLEM {p}")
        print("smoke ok" if args.smoke and not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
