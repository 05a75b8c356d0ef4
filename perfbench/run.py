"""Benchmark of signedflow: particles, limit equations and the verification layer.

Run from the repository root; the package is imported from ``src`` and need
not be installed:

    python3 perfbench/run.py --workload collide --seed 1 --seconds 25 --trace 0

A run repeats passes over the workload's calls into the program, at least
three and otherwise as many as fit in ``--seconds``, checks every pass's
outputs against closed forms and invariants, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (solve_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones of tracing.py.
The full report goes to perfbench/results/.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

MIN_PASSES = 3
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
READY = "perfbench-setup-ready"


def import_program():
    """Import signedflow from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import signedflow
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import signedflow from {SRC}: {exc}")
    if not os.path.abspath(signedflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: signedflow came from {signedflow.__file__}, "
                         f"not from {SRC}")
    return signedflow


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and build the inputs, report ready, exit "
                        "(used to time set-up in a fresh process)")
    return p.parse_args(argv)


def time_setup(args):
    """Median wall time from spawning a fresh interpreter to its inputs being
    ready: interpreter start, imports of signedflow, numpy and scipy, and the
    workload's potentials, particle states and grids."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise SystemExit("perfbench: set-up probe timed out")
        if line != READY or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


class Ops:
    """Counts calls into the program; a call that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:   # one failed operation must not end the run
            self.failed += 1
            traceback.print_exc()
            return None


def main(argv=None):
    args = parse_args(argv)
    sf = import_program()
    import workloads
    import tracing

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        wl.build(args.seed, tracing.NullTracer())
        print(READY, flush=True)
        return 0

    setup_times = time_setup(args) if args.trace == 0 else []

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install({m.__name__: m for m in (sf.dynamics, sf.pde,
                                                sf.hamiltonians, sf.harness)})
    ops = Ops()
    pass_times, failures, counters = [], [], {}
    start = time.perf_counter()
    try:
        # start another pass only if it should end within --seconds, judged
        # by the mean cycle (build, pass, checks) so far
        while (len(pass_times) < MIN_PASSES
               or (time.perf_counter() - start) * (1 + 1 / len(pass_times))
               <= args.seconds):
            with tracer.paused():
                inp = wl.build(args.seed, tracer)
            t0 = time.perf_counter()
            out = wl.run(inp, ops)
            pass_times.append(time.perf_counter() - t0)
            with tracer.paused():
                try:
                    failures += wl.check(inp, out)
                except Exception:   # a check that crashes is a failed check
                    failures.append(traceback.format_exc())
                for key, val in wl.counters(out).items():
                    if key.endswith("dt_min"):
                        counters[key] = min(counters.get(key, val), val)
                    else:
                        counters[key] = counters.get(key, 0) + val
    finally:
        if args.trace:
            tracer.uninstall()

    if args.trace:
        metrics = {k: {"value": float(v), "unit": tracing.PER_LAYER[k][0]}
                   for k, v in tracer.metrics(len(pass_times), counters).items()}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "solve_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "pass_times_s": pass_times,
              "setup_times_s": setup_times, "counters": counters,
              "absent_layers": list(tracer.absent), "failures": failures,
              "result": result}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{len(pass_times)} passes, {ops.attempted} calls, {ops.failed} failed; "
          f"report in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
