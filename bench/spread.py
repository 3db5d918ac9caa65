"""Run every workload over several seeds and report the spread of each metric.

Run from the root of a checkout:

    python3 bench/spread.py --seeds 10 --seconds 20 --out spread.json
    python3 bench/spread.py --compare first.json second.json

Round r runs every workload once with --seed r, in the listed order on
even rounds and in reverse order on odd rounds, so that a drift of the
machine does not always land on the same workload.  For each workload
and end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median, and the share of failed operations.  For comparison it does the
same for the raw per-run medians the metrics are made from (marked
"raw"): execution wall and CPU seconds and the import's wall and CPU
seconds.  The output file also keeps every step's CPU seconds and
reference kernel times, from which reference mixes can be refitted.
--compare prints, for two such files, how far each median of the
second lies from the first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"provenance"'):
            p = json.loads(line)["provenance"]
            result["raw"] = {
                "raw_wall_s": statistics.median(p["walls"]),
                "raw_cpu_s": statistics.median(p["cpus"]),
                "raw_setup_wall_s": statistics.median(p["setup_walls"]),
                "raw_setup_cpu_s": statistics.median(p["setup_cpus"])}
            result["steps"] = {key: p[key] for key in
                               ("cpus", "refs", "setup_cpus", "setup_refs")}
    return result


def summarise(results):
    summary = {}
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        row = {"runs": len(runs), "failed_share": failed / attempted,
               "correct": all(r["correct"] for r in runs)}
        metrics = {name: [r["metrics"][name]["value"] for r in runs]
                   for name in runs[0]["metrics"]}
        metrics.update({name: [r["raw"][name] for r in runs]
                        for name in runs[0]["raw"]})
        for name, values in metrics.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            row[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "values": values}
        row["steps"] = [r["steps"] for r in runs]
        summary[workload] = row
    return summary


def print_summary(summary):
    for workload, row in summary.items():
        print(f"{workload}: {row['runs']} runs, failed share "
              f"{row['failed_share']:g}, correct {row['correct']}")
        for name, m in row.items():
            if isinstance(m, dict):
                print(f"  {name:16s} median {m['median']:.4f}"
                      f"  q1 {m['q1']:.4f}"
                      f"  q3 {m['q3']:.4f}  spread {100 * m['spread']:.2f}%")


def compare(first, second):
    for workload, row in second.items():
        for name, m in row.items():
            if isinstance(m, dict):
                base = first[workload][name]["median"]
                change = 100 * (m["median"] / base - 1)
                print(f"{workload:20s} {name:16s} {base:.4f} -> "
                      f"{m['median']:.4f} ({change:+.2f}%)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="SPREAD_JSON")
    args = ap.parse_args(argv)
    if args.compare:
        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            compare(json.load(a), json.load(b))
        return 0
    order = list(WORKLOADS)
    results = {w: [] for w in order}
    for r in range(args.seeds):
        seed = args.first_seed + r
        for workload in (order if r % 2 == 0 else order[::-1]):
            results[workload].append(run_once(workload, seed, args.seconds))
            print(f"round {r} {workload}: "
                  + json.dumps(results[workload][-1]["metrics"]), flush=True)
    summary = summarise(results)
    print_summary(summary)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
