"""Record bench/reference.json, the values diagnose-64 checks against:
the final energies of the spinodal-64 run it audits, for each seed of the
bank, and the Stokes eigenvalue lambda1 that diagnose reports at 64^2.

    python3 bench/make_reference.py

Run from the root of a checkout, at the commit whose outputs are the
reference; the operations run exactly as in bench/run.py.
"""

import json
import os
import shutil
import sys

import run
import workloads as wl

BANK = range(8)
ENERGIES = ("kinetic", "nonlocal", "potential", "total")


def main():
    workload = wl.WORKLOADS["diagnose-64"]
    workdir = os.path.join(run.ROOT, ".bench_work", "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench = run.Bench(workdir)
    energies = {}
    try:
        for seed in BANK:
            config = bench.path(f"seed{seed}.cfg")
            with open(config, "w") as fh:
                fh.write(wl.config_text(workload.config, seed))
            rundir, res, error = bench.op("run", config)
            failures = [error] if error else wl.check_run(rundir, workload)[0]
            if failures:
                sys.exit(f"seed {seed}: {failures}")
            series = wl.read_series(rundir)
            energies[str(seed)] = {name: float(series[name][-1]) for name in ENERGIES}
        outdir, res, error = bench.op("diagnose", rundir)
        if error:
            sys.exit(error)
        with open(os.path.join(outdir, "diagnose.json")) as fh:
            lambda1 = json.load(fh)["checks"]["dissipative_envelope"]["lambda1"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "about": "diagnose-64 reference values recorded at the seed commit; "
                 f"checked to relative tolerance {wl.REF_RTOL:g}",
        "final_energies": energies,
        "lambda1": lambda1,
    }
    with open(os.path.join(wl.HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
