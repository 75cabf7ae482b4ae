"""nlchns benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Operations run one at a time, back to back, each in a fresh
interpreter (bench/op.py), so per-process caches (the Neumann LU, the DCT
eigenvalues) are paid by every operation as they are by every CLI user.
BLAS and OpenMP threads are pinned to 1.  New operations start until the
next one would end after S seconds, with at least MIN_OPS of them.

--trace 0 reports the end-to-end metrics: medians over the operations of
wall_s, setup_s, steps_per_s and peak_rss_mib.  fail_rate is printed as a
line and carried by the result's ``attempted``/``failed`` counts.
--trace 1 alternates untraced and traced operations on the same input and
reports the per-layer metrics of tracing.py plus trace.overhead_frac.

Every operation's outputs are checked (workloads.py) and compared byte for
byte with the first operation's, and in a traced run each traced
operation's with its untraced twin.  The last line of standard output is
the JSON result.  See NOTES.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 3
RUN_LIMIT_S = 150.0      # never start an operation that would end past this
OP_TIMEOUT_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


class Bench:
    """Work directory, child environment and operation counter of one run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.count = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def op(self, kind, source, traced=False):
        """Run one operation; returns (outdir, result dict or None, error)."""
        self.count += 1
        tag = f"{'t' if traced else 'u'}{self.count:03d}"
        outdir, result = self.path(tag), self.path(tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "op.py"), kind, source, outdir,
               result]
        if traced:
            cmd.append(self.path(tag + ".spans.json"))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return outdir, None, f"timed out after {OP_TIMEOUT_S:g} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return outdir, None, f"exit {proc.returncode}: {tail[0]}"
        with open(result) as fh:
            return outdir, json.load(fh), None


def _steps_per_s(res, steps):
    return steps / (res["wall_s"] - res["setup_s"])


def _checked(workload, outdir, res, error, reference=None):
    """Output checks of one operation: (failures, steps, info)."""
    if error is not None:
        return [error], 0, {}
    try:
        failures, steps, info = wl.check(workload, outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], 0, {}
    if res.get("setup_s") is None:
        failures.append("no step or audit call was reached")
    if reference is not None:
        failures += [f"{name} differs from the first operation's"
                     for name in wl.differing_outputs(reference, outdir)]
    return failures, steps, info


def prepare(bench, workload, seed):
    """Write the generated config; for diagnose-64 also build, untimed, the
    run directory it audits.  Returns (source, setup failures, info)."""
    config = bench.path("input.cfg")
    with open(config, "w") as fh:
        fh.write(wl.config_text(workload.config, wl.input_seed(workload, seed)))
    if workload.kind != "diagnose":
        return config, [], {}
    rundir, res, error = bench.op("run", config)
    failures, steps, info = _checked(
        wl.Workload("input", "run", workload.config, workload.steps),
        rundir, res or {}, error)
    if not failures:
        failures += wl.check_reference(rundir, wl.input_seed(workload, seed))
        info["input_steps_per_s"] = _steps_per_s(res, steps)
    return rundir, failures, info


def measure(bench, workload, seed, seconds, traced):
    """Closed loop of operations; returns the per-operation records."""
    source, setup_failures, setup_info = prepare(bench, workload, seed)
    records = []
    first_dir = None
    start = time.perf_counter()
    durations = []
    while True:
        t_op = time.perf_counter()
        outdir, res, error = bench.op(workload.kind, source)
        failures, steps, info = _checked(workload, outdir, res, error, first_dir)
        records.append({"traced": False, "res": res, "steps": steps, "info": info,
                        "failures": setup_failures + failures})
        first_dir = first_dir or (outdir if not failures else None)
        if traced:
            tdir, tres, terror = bench.op(workload.kind, source, traced=True)
            tfail, tsteps, tinfo = _checked(workload, tdir, tres, terror, outdir)
            record = {"traced": True, "res": tres, "steps": tsteps, "info": tinfo,
                      "failures": setup_failures + tfail}
            if not tfail:
                with open(tdir + ".spans.json") as fh:
                    record["layers"] = tracing.layer_metrics(json.load(fh))
            records.append(record)
            shutil.rmtree(tdir, ignore_errors=True)
        if outdir != first_dir:
            shutil.rmtree(outdir, ignore_errors=True)
        durations.append(time.perf_counter() - t_op)
        elapsed = time.perf_counter() - start
        est = statistics.median(durations)
        if elapsed + est > RUN_LIMIT_S or (
                len(durations) >= MIN_OPS and elapsed + est > seconds):
            break
    for rec in records:
        rec["info"].update(setup_info)
    return records


def _median(records, key):
    return statistics.median(r["res"][key] for r in records)


def end_to_end(workload, good):
    if not good:
        return {}
    out = {key: _median(good, key) for key in ("wall_s", "setup_s", "peak_rss_mib")}
    if workload.kind == "diagnose":
        # diagnose takes no step: report the rate of the run it audits
        out["steps_per_s"] = good[0]["info"]["input_steps_per_s"]
    else:
        out["steps_per_s"] = statistics.median(
            _steps_per_s(r["res"], r["steps"]) for r in good)
    return {k: out[k] for k in END_TO_END_UNITS}


def per_layer(good):
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    if not traced or not plain:
        return {}
    out = {}
    for name, first in traced[0]["layers"].items():
        # counts are exact, so the first traced operation's stand for all
        out[name] = first if tracing.unit(name) in ("count", "bytes") else \
            statistics.median(r["layers"][name] for r in traced)
    out["trace.overhead_frac"] = (
        _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0)
    return out


def machine():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas_numpy": blas(numpy.show_config),
            "openblas_scipy": blas(scipy.show_config),
            "blas_threads": 1}


def report(workload, seed, traced, records):
    good = [r for r in records if not r["failures"]]
    failed = len(records) - len(good)
    metrics = per_layer(good) if traced else end_to_end(workload, good)
    units = dict(END_TO_END_UNITS, **{"trace.overhead_frac": "1"})
    units.update((name, tracing.unit(name)) for name in metrics if name not in units)
    print(f"workload {workload.name}  seed {seed}  trace {int(traced)}  "
          f"operations {len(records)}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    print(f"  {'fail_rate':36s} {failed / len(records):.6g} 1")
    for key in sorted(good[0]["info"]) if good else ():
        values = [r["info"][key] for r in good]
        print(f"  info {key}: {values[0]!r}" if len(set(values)) == 1
              else f"  info {key}: {values!r}")
    for rec in records:
        for msg in rec["failures"]:
            print(f"  FAILED: {msg}")
    print("  machine " + json.dumps(machine(), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_one(workload, seed, seconds, traced):
    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        records = measure(Bench(workdir), workload, seed, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(workload, seed, traced, records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nlchns", "cli.py")):
        print(f"error: no nlchns sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_one(wl.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
