"""Benchmark of qrot: time to tolerance, dense-kernel throughput and CLI
artifact writing.  See README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout: qrot is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads (it loads with qrot, in main),
# here and through the environment in every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch artifacts and span files; ignored by git


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0, help="0 gives the stock problems exactly")
    p.add_argument("--seconds", type=float, default=28.0, help="run length; sets the number of rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="tiny sizes, every path, every check")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def import_qrot():
    """Put ./src first on the path and check qrot comes from there."""
    if not (SRC / "qrot" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qrot sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import qrot

    if Path(qrot.__file__).resolve().parent != SRC / "qrot":
        raise SystemExit(f"perfbench: imported qrot from {qrot.__file__}, not from {SRC}")


def main(argv=None):
    args = parse_args(argv)
    import_qrot()
    import bench
    from workloads import WORKLOADS

    bench.pin_allocator()
    if args.self_test:
        import selftest

        return selftest.main(SRC, OUT, T_START)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        run = bench.Run(WORKLOADS[args.workload], args.seed, workdir, SRC, T_START)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            found = run.traced(args.seconds, trace_path)
            metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in (found or {}).items()}
            print(f"# spans written to {trace_path}")
        else:
            found = run.end_to_end(args.seconds)
            metrics = {}
            print("# metric  median  fastest  samples")
            for name, (value, fastest, count) in (found or {}).items():
                print(f"# {name}  {value:.6g}  {fastest:.6g}  {count}")
                metrics[name] = {"value": value, "unit": bench.END_TO_END[name]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in run.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
