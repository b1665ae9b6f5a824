"""effact benchmark runner.

    python3 bench/run.py --workload he_desk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one process each

Runs one workload from BENCHMARK.json in this process, checks every output,
prints a table of metrics with units and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics; `--trace 1` makes the separate traced run that reports
the per-layer metrics and writes its spans to bench/out/.  See
bench/README.md for what each metric means and which layer moves it.
"""

import time

T_START = time.perf_counter()   # setup_s counts from here, before numpy/effact

import argparse  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 2              # extra set-ups, each in a fresh process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAPER_STREAM_SAVED = {"dram": 0.422, "cycles": 0.40}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads():
    """Cap numpy's thread pools at nproc; use the built-in hardware."""
    cap = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= cap:
            os.environ[var] = str(cap)
    os.environ.pop("EFFACT_HW", None)


def import_effact():
    """Import effact from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import effact
    except ImportError as e:
        sys.exit(f"error: cannot import effact from {src}: {e}")
    if not os.path.abspath(effact.__file__).startswith(src + os.sep):
        sys.exit(f"error: effact imported from {effact.__file__}, not {src}")
    return effact


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def context(effact, args) -> dict:
    import numpy
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "effact": effact.__version__,
            "nproc": nproc(), "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def setup_samples(args):
    def run_children() -> list:
        out = []
        for _ in range(SETUP_CHILDREN):
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-only"],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            if p.returncode != 0:
                raise RuntimeError(f"set-up process failed:\n{p.stderr}")
            out.append(float(p.stdout.split()[-1]))
        return out
    return run_children


def print_table(metrics: dict, units: dict, res: dict):
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>18.6g} {units[name]}")
    rec = res["record"]
    wall = rec["iter_wall_s"]
    print(f"  times are reference-speed seconds; host ran at "
          f"{rec['host_speed']:.2f}x reference, median iteration wall "
          f"time {sorted(wall)[len(wall) // 2]:.4g} s")
    print(f"  {'fail_frac':34s} {res['failed'] / res['attempted']:>18.6g} "
          f"ratio  ({res['failed']} of {res['attempted']})")
    if "tail_percentile" in rec:
        print(f"  iter_s_tail is p{rec['tail_percentile']} of "
              f"{rec['tail_samples']} iterations")
    if "stream_dram_ratio" in metrics:
        print("  streaming saves {:.1%} of DRAM bytes and {:.1%} of cycles "
              "(paper: {:.1%} / {:.1%}; cycles unvalidated)".format(
                  1 - metrics["stream_dram_ratio"],
                  1 - metrics["stream_cycles_ratio"],
                  PAPER_STREAM_SAVED["dram"], PAPER_STREAM_SAVED["cycles"]))
    if rec["traced"]:
        print(f"  spans: {rec['spans_file']}\n  chrome trace: "
              f"{rec['chrome_trace_file']}")


def run_one(args, spec, clock) -> int:
    effact = import_effact()
    import harness
    from spans import NULL, summary, write_trace

    if args.setup_only:
        harness.Bench(args.workload, args.seed).setup(NULL)
        print(clock.seconds(T_START, time.perf_counter()))
        return 0
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    res = harness.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), T_START, clock, setup_samples(args),
                      OUT)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = res["metrics"]
    if set(got) != set(units):
        sys.exit(f"error: metrics {sorted(set(got) ^ set(units))} are "
                 "missing or undeclared in BENCHMARK.json")
    metrics = {name: got[name] for name in units}
    record = res["record"]
    if args.trace:
        tr = res["tracer"]
        record["spans_file"], record["chrome_trace_file"] = (
            os.path.relpath(p, ROOT) for p in write_trace(tr, base))
        record["self_s_by_layer"] = summary(tr.spans)["self_s_by_layer"]
    record["context"] = context(effact, args)
    record["metrics"] = metrics
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print_table(metrics, units, res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=900, cwd=ROOT)
        sys.stdout.write("\n".join(p.stdout.splitlines()[:-1]) + "\n")
        if p.returncode != 0:
            print(f"{w['name']}: exit {p.returncode}", file=sys.stderr)
            return p.returncode
        results[w["name"]] = json.loads(p.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the seconds it took, exit")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    cap_threads()
    if args.workload is None:
        return run_all(args, spec)
    clock = HostSpeed()
    clock.start()
    try:
        return run_one(args, spec, clock)
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
