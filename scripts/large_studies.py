"""Run the two larger studies of ROADMAP.md, S1 and S2, print for each its
exit code, wall time, peak RSS, minor page faults and a sha256 of its
outputs, and compare the outputs against the committed ones.

    python scripts/large_studies.py

S1 is quartic d=2 P1, 6 levels from 8 cells, no diagnostics (66 049 dofs
at the finest level).  S2 is quartic d=2 P2, 5 levels from 4 cells, with
the adjoint, galerkin and ellipticity diagnostics (its largest space, the
adjoint reference of the last level, has 263 169 dofs).  Each study's
config and committed outputs are in `large_reference/<study>/` next to
this script.

Each study runs `cli.main(["run", config])` in a fresh interpreter on
the `src/` next to this script, with one BLAS thread, and writes its
outputs into a temporary directory that is removed afterwards.  The wall
time is that of the `cli.main` call, the peak RSS the interpreter's
`ru_maxrss`, the minor page faults its `ru_minflt` (so a log shows
whether the package's heap policy held: without it, glibc unmaps the
kernels' temporaries after each call and faults them back in on the
next), and the sha256 is taken over rates.csv, diagnostics.csv and
report.txt, in that order, each name followed by its bytes.  Before the
directory is removed, the outputs are compared against the committed
ones as `tests/test_reference.py` compares its cases, with the bounds of
`compare_outputs.py`: report.txt with its numbers masked, the integer
columns exactly, every float within its column's bound.

Exits 1 unless every study exits with its expected code (0 for S1, and 1
for S2, whose report holds the one known `[FAIL] galerkin`) and its
outputs match the committed ones; each value that moved is printed with
its study, column, level and both values.  Times, peaks and faults are
printed, not checked.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import yaml

import compare_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "large_reference")

# name: expected exit code
STUDIES = {"S1": 0, "S2": 1}

# runs in the fresh interpreter; its last stdout line is the measurement
CHILD = """
import json, resource, sys, time
from nitschelab import cli
start = time.perf_counter()
code = cli.main(["run", sys.argv[1]])
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                  "minor_faults": usage.ru_minflt}))
"""


def outputs_sha256(directory):
    digest = hashlib.sha256()
    for name in compare_outputs.OUTPUTS:
        path = os.path.join(directory, name)
        digest.update(name.encode())
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def moved_from_reference(name, out_dir):
    """compare_outputs.moved_values of the outputs in out_dir against the
    study's committed ones, with the floors of the study's config."""
    ref_dir = os.path.join(REFERENCE, name)
    with open(os.path.join(ref_dir, "config.yaml")) as fh:
        floors = compare_outputs.absolute_floors(yaml.safe_load(fh))
    return compare_outputs.moved_values(ref_dir, out_dir, floors)


def run_study(name):
    """The measurement of one study, with the sha256 of its outputs and
    what in them moved from the committed ones."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(os.path.join(REFERENCE, name, "config.yaml")) as fh:
            config = fh.read()
        with open(path, "w") as fh:
            fh.write(config + f"output_dir: {json.dumps(os.path.join(tmp, 'out'))}\n")
        done = subprocess.run([sys.executable, "-c", CHILD, path], env=env, cwd=tmp,
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return {"exit": None, "error": f"interpreter exited {done.returncode}"}
        result = json.loads(done.stdout.splitlines()[-1])
        result["sha256"] = outputs_sha256(os.path.join(tmp, "out"))
        result["moved"] = moved_from_reference(name, os.path.join(tmp, "out"))
    return result


def main():
    ok = True
    for name, expected in STUDIES.items():
        result = run_study(name)
        if "error" in result:
            print(f"{name}: {result['error']}")
        else:
            print(f"{name}: exit {result['exit']}  wall {result['wall_s']:.2f} s  "
                  f"peak {result['peak_rss_mb']:.1f} MB  minor faults {result['minor_faults']}  "
                  f"sha256 {result['sha256']}")
        if result["exit"] != expected:
            print(f"{name}: expected exit {expected}")
            ok = False
        for line in result.get("moved", []):
            print(f"{name}: {line}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
