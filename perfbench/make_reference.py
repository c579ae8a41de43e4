"""Regenerate reference.json from one run of each workload at seed 0.

Run from the repository root:  python3 perfbench/make_reference.py

Only rerun it when a change is meant to move the reference values, and
say so where the change is described.  For CLI studies the stored values
are the per-level errors and the diagnostics that do not depend on the
seed: the adjoint identity residual and H^2 ratio, and the ellipticity
extremes.  The seed-sampled diagnostics (inverse estimate, pq ratio) and
the Galerkin defect, which is solver noise, are checked through their
gates only.  A leg whose own gates fail stores nothing.
"""

import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    workdir = os.path.join(ROOT, ".perfbench_out", "reference")
    reference = {}
    for name, legs in workloads.WORKLOADS.items():
        ref = reference[name] = {}
        for leg in legs:
            result = leg.run(leg.prepare(0, os.path.join(workdir, name)))
            if hasattr(leg, "reference_of"):
                ref[leg.label] = leg.reference_of(result)
            failed = [c for c, ok, _ in leg.checks(result, None, ref) if not ok]
            if failed:
                raise SystemExit(f"{name}/{leg.label} failed {failed}")
    shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
