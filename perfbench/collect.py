"""Run the benchmark several times per workload and summarise the spread.

Run from the repository root:

    python3 perfbench/collect.py --traced --output perfbench/results/seed.json

For every workload in BENCHMARK.json it makes RUNS fresh
`perfbench/run.py` processes, with seeds 0, 1, ..., RUNS - 1.  For every
end-to-end metric the summary gives the values, their median, and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  Each run also
keeps, from its full result file, the wall-clock run_s and every
repetition's wall and rescaled leg times, so that the rescaling can be
checked against wall time later.  With --traced, one traced run per
workload is added and its per-layer metrics are stored as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    # run.py writes its full result under .perfbench_out/ in the current directory
    with open(os.path.join(".perfbench_out",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        full = json.load(fh)
    summary["wall_run_s"] = full["wall_run_s"]
    summary["repetitions"] = [{k: r[k] for k in ("leg_wall_s", "leg_rescaled_s",
                                                 "warmup", "traced")}
                              for r in full["repetitions"]]
    return full["environment"], summary


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(RUNS):
            env, result = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            print(workload, seed, json.dumps(result["metrics"]),
                  f"wall_run_s {result['wall_run_s']:.4f}", flush=True)
        entry = {"environment": env, "runs": runs, "metrics": {}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["metrics"][metric["name"]] = {
                "median": statistics.median(values), "spread": spread(values),
                "bound": metric["bound"], "values": values}
            print(f"  {metric['name']}: median {statistics.median(values):.4g} "
                  f"spread {spread(values):.4f} (bound {metric['bound']})", flush=True)
        entry["fail_ratio"] = (sum(r["failed"] for r in runs)
                               / sum(r["attempted"] for r in runs))
        if args.traced:
            _, traced = run_once(workload, 0, bench["run_seconds"], 1)
            entry["traced"] = traced
        summary["workloads"][workload] = entry
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
