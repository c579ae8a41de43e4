"""nitschelab benchmark: time to a verified study result.

Run from the repository root:

    python3 perfbench/run.py --workload rates_p1 --seed 0 --seconds 25 --trace 0

One process runs one workload (workloads.py), a list of legs.  It
measures set-up (interpreter start until nitschelab is imported and the
inputs are written) in fresh child interpreters, half before and half
after the repetitions.  It runs the workload once to warm up, then
repeats it until `--seconds` have passed (at least MIN_REPS times),
checking every repetition's outputs, the warm-up's too; the warm-up is
left out of the times.  Every
timed interval is bracketed by samples of a fixed kernel and rescaled to
the reference machine speed (calibration.py), because contention from
other guests of the host changes the machine's speed by up to 2x.

--trace 0 reports the end-to-end metrics:
    run_s        time from the first library call until the result is
                 written and verified: the sum over legs of each leg's
                 median rescaled time over the timed repetitions
    setup_s      median rescaled set-up time
    peak_rss_mb  peak resident set size of this process
--trace 1 alternates untraced and traced repetitions (at least MIN_REPS
pairs) and reports the per-layer metrics of spans.py (wall times,
medians over traced repetitions) plus trace.overhead_s: the median over
the pairs of traced minus untraced rescaled repetition time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (checks) and metrics.  The line before it is
the environment.  A full result with the environment, the wall and
rescaled times of every repetition goes to .perfbench_out/ in the
current directory, and with --trace 1 the spans too.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")

WARMUP_REPS = 1
MIN_REPS = 3
SETUP_SAMPLES = 8
# every run must end within 180 s; leave room for writing the result
RUN_BUDGET_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RepTimeout(Exception):
    pass


def _cap_threads(cap):
    """Set BLAS and OpenMP thread counts to `cap`; must run before numpy
    loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return {var: cap for var in THREAD_VARS}


def _environment(seed, nproc, cpu, caps):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": caps,
        "git_commit": commit,
        "seed": seed,
    }


_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import workloads
for leg in workloads.WORKLOADS[{name!r}]:
    leg.prepare({seed!r}, {workdir!r})
print(time.monotonic_ns())
"""


def measure_setup(name, seed, workdir, count, speed):
    """Start to inputs ready of `count` fresh interpreters: a list of
    (wall s, rescaled s)."""
    code = _PROBE.format(src=SRC, here=HERE, name=name, seed=seed, workdir=workdir)

    def probe():
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return (int(proc.stdout.split()[-1]) - start) * 1e-9

    samples = []
    for _ in range(count):
        ready, _, factor = speed.measure(probe)
        samples.append((ready, ready * factor))
    return samples


def _on_alarm(signum, frame):
    raise RepTimeout("benchmark run exceeded its time budget")


def run_rep(legs, inputs, firsts, reference, speed, tracer=None):
    """One repetition: run and verify each leg in turn.  A leg that crashes
    or times out leaves its result None, which fails its checks.  Returns
    per leg the wall seconds, the rescaled seconds, the result and the
    checks."""
    import spans

    def attempt(leg, leg_inputs, first):
        result = None
        try:
            with spans.installed(tracer) if tracer else contextlib.nullcontext():
                result = leg.run(leg_inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        return result, leg.checks(result, first, reference)

    wall, rescaled, results, checks = [], [], [], []
    for leg, leg_inputs, first in zip(legs, inputs, firsts):
        (result, leg_checks), seconds, factor = speed.measure(attempt, leg, leg_inputs, first)
        wall.append(seconds)
        rescaled.append(seconds * factor)
        results.append(result)
        checks.append(leg_checks)
    return wall, rescaled, results, checks


def run_seconds(reps, key="leg_rescaled_s"):
    """Sum over legs of each leg's median over `reps`, in s."""
    return sum(statistics.median(leg) for leg in zip(*(r[key] for r in reps)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "nitschelab", "__init__.py")):
        print(f"no nitschelab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    # The measured code is single-threaded numpy and scipy.  One CPU and
    # one BLAS thread keep the work, the set-up probes and the calibration
    # samples that rescale them on the same CPU.
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    caps = _cap_threads(1)
    sys.path.insert(0, SRC)
    import calibration
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    legs = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    # half the set-up samples before the repetitions and half after, so
    # that they do not all fall into one slow stretch of the machine
    probe_dir = os.path.join(workdir, "probe")
    speed = calibration.Calibration()
    setup_samples = measure_setup(args.workload, args.seed, probe_dir, SETUP_SAMPLES // 2,
                                  speed)
    inputs = [leg.prepare(args.seed, os.path.join(workdir, "run")) for leg in legs]

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, RUN_BUDGET_S - (time.monotonic() - t_begin)))
    reps, layer_runs = [], []
    firsts = [None] * len(legs)
    attempted = failed = 0
    step = 1 + args.trace
    while True:
        timed = reps[WARMUP_REPS:]
        if len(reps) == WARMUP_REPS:
            t_measure = time.monotonic()
        # stop before a repetition (with --trace 1, an untraced and traced
        # pair) that would end after --seconds, once MIN_REPS timed
        # repetitions (pairs) are done
        if len(timed) >= MIN_REPS * step and len(timed) % step == 0:
            last = sum(sum(r["leg_wall_s"]) for r in timed[-step:])
            if time.monotonic() - t_measure + last > args.seconds:
                break
        tracer = spans.Tracer(run=len(reps)) if args.trace and len(timed) % 2 else None
        wall, rescaled, results, checks = run_rep(legs, inputs, firsts, reference, speed,
                                                  tracer)
        firsts = [f or r for f, r in zip(firsts, results)]
        bad = [(name, detail) for leg in checks for name, ok, detail in leg if not ok]
        attempted += sum(len(leg) for leg in checks)
        failed += len(bad)
        reps.append({"leg_wall_s": wall, "leg_rescaled_s": rescaled,
                     "warmup": len(reps) < WARMUP_REPS, "traced": tracer is not None,
                     "checks": sum(len(leg) for leg in checks),
                     "failed_checks": [n for n, _ in bad]})
        for name, detail in bad:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        if any(r is None for r in results):
            break
        if tracer is not None:
            written = sum(r["bytes_written"] for r in results)
            layer_runs.append((tracer, spans.layer_metrics(tracer.spans, written)))
    setup_samples += measure_setup(args.workload, args.seed, probe_dir, SETUP_SAMPLES // 2,
                                   speed)
    signal.setitimer(signal.ITIMER_REAL, 0)

    timed = reps[WARMUP_REPS:] or reps
    untraced = [r for r in timed if not r["traced"]]
    if args.trace:
        values = {}
        if layer_runs:
            values = {n: statistics.median(m[n] for _, m in layer_runs)
                      for n in layer_runs[0][1]}
            pairs = zip(timed[0::2], timed[1::2])
            values["trace.overhead_s"] = statistics.median(
                sum(t["leg_rescaled_s"]) - sum(u["leg_rescaled_s"]) for u, t in pairs)
        metrics = {n: {"value": v, "unit": spans.unit_of(n)} for n, v in values.items()}
        with open(os.path.join(OUT, f"{tag}.spans.jsonl"), "w") as fh:
            for tracer, _ in layer_runs:
                for s in tracer.spans:
                    fh.write(json.dumps(s.as_dict()) + "\n")
    else:
        metrics = {
            "run_s": {"value": run_seconds(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    full = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, fail_ratio=failed / attempted, repetitions=reps,
                wall_run_s=run_seconds(untraced, "leg_wall_s"),
                setup_samples_wall_rescaled_s=setup_samples,
                environment=_environment(args.seed, nproc, cpu, caps))
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(full["environment"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
