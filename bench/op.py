"""Run one benchmark operation in a fresh interpreter.

    python3 bench/op.py KIND SOURCE OUTDIR RESULT [SPANS]

KIND is ``run`` (``cli.run_coupled``), ``sweep`` (``cli.run_eps_sweep``)
or ``diagnose`` (``cli.run_diagnose``).  SOURCE is the generated flat
config file, or for ``diagnose`` the run directory to audit.  The
operation's timings go to the JSON file RESULT.  With SPANS, the wrappers
of tracing.py are installed first and the spans are written to SPANS when
the operation ends.

The clock starts on entering the command, before the config is resolved.
``setup_s`` ends at the first call of a stepper or of the first audit
(``diagnostics.running_cumulative``); that call is timestamped by a thin
wrapper, the only one installed in an untraced operation.
"""

import functools
import json
import os
import resource
import sys
import time

import tracing

FIRST_WORK = (
    ("nlchns.ns_step", "ns_step"),
    ("nlchns.ch_step", "ch_step"),
    ("nlchns.diagnostics", "running_cumulative"),
)


def main(argv):
    kind, source, outdir, result_path = argv[1:5]
    spans_path = argv[5] if len(argv) > 5 else None
    from nlchns import cli

    first = []

    def mark(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if not first:
                first.append(time.perf_counter())
            return fn(*args, **kwargs)
        return marked

    for module, attr in FIRST_WORK:
        tracing.replace(module, attr, mark)

    def command():
        if kind == "diagnose":
            return cli.run_diagnose(source, outdir)
        cfg = cli.load_config(path=source)
        entry = cli.run_coupled if kind == "run" else cli.run_eps_sweep
        return entry(cfg, outdir)

    tracer = None
    if spans_path:
        tracer = tracing.Tracer(run_id=os.path.basename(outdir))
        tracer.install()
        command = tracer.wrap(tracing.ROOT_SPAN, command)

    t0 = time.perf_counter()
    try:
        rc = command()
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "setup_s": first[0] - t0 if first else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
