#!/usr/bin/env python3
"""Re-records the reference figures in README.md.

Runs the benchmark on each workload once per seed and prints, for every
end-to-end metric, the median of the runs and the distance between the
first and third quartiles as a share of the median (the run-to-run spread
the bounds in BENCHMARK.json are set against). Run from the repository
root:

    python3 perfbench/record.py --seeds 1-10 --seconds 20 replay control media
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        values, shares = {}, set()
        for s in seeds(args.seeds):
            p = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(s),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not res.get("correct"):
                ok = False
                print(f"{wl} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                continue
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: {len(seeds(args.seeds))} seeds, failed/attempted {sorted(shares)}")
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            spread = 0.0
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med
            print(f"  {name:16s} median {med:12.6g}  spread {spread:6.3f}  min {min(v):.6g}  max {max(v):.6g}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
