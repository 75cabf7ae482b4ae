"""Span tracing around nlchns's public callables, and the per-layer metrics
derived from the spans.

``install`` runs inside the process that performs one operation.  It
replaces each callable in ``TARGETS`` with a wrapper that appends a span
``[name, start, end, parent, run_id, failed, nbytes]`` to an in-memory
list; the caller writes the list out when the operation ends.  Nothing
under ``src/`` is edited: the wrappers are installed on the modules and
classes at run time.  A function that another nlchns module imported by
name (``cli`` imports ``ch_step``, ``init_state``, ``chemical_potential``,
``fprime_l1``, ``build_kernel``, ``build_F_eps`` and ``stokes_lambda1``)
is replaced under that name too, so every call site sees the wrapper.

``layer_metrics`` runs in the benchmark's parent process and turns the
spans of one operation into the per-layer metrics.  A span's self time
is its duration minus the durations of its direct child spans.
"""

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

# (span name, "module" or "module:name", callable name)
TARGETS = (
    ("kernel.build", "nlchns.kernel", "build_kernel"),
    ("kernel.convolve", "nlchns.kernel:KernelData", "convolve_raw"),
    ("potential.build", "nlchns.potential", "build_F_eps"),
    ("potential.eval", "nlchns.potential:RegularizedPotential", "fprime"),
    ("potential.eval", "nlchns.potential:RegularizedPotential", "fsecond"),
    ("potential.eval", "nlchns.potential:SingularPotential", "fprime"),
    ("potential.eval", "nlchns.potential:SingularPotential", "fsecond"),
    ("ch_step.step", "nlchns.ch_step", "ch_step"),
    ("ch_step.init_state", "nlchns.ch_step", "init_state"),
    ("ch_step.chemical_potential", "nlchns.ch_step", "chemical_potential"),
    ("ch_step.fprime_l1", "nlchns.ch_step", "fprime_l1"),
    ("ch_step.invert", "nlchns.ch_step:ImplicitMap", "invert"),
    # ch_step reaches the DCT through its own module-level ``sfft`` binding
    ("ch_step.dct", "nlchns.ch_step:sfft", "dctn"),
    ("ch_step.dct", "nlchns.ch_step:sfft", "idctn"),
    ("ns_step.step", "nlchns.ns_step", "ns_step"),
    ("ns_step.viscous_apply", "nlchns.ns_step", "viscous_apply"),
    ("ns_step.project", "nlchns.ns_step", "project"),
    ("ns_step.project_divfree", "nlchns.ns_step", "project_divfree"),
    ("ns_step.stokes_lambda1", "nlchns.ns_step", "stokes_lambda1"),
    ("grid_ops.laplace", "nlchns.grid_ops", "laplace_arrays"),
    ("grid_ops.poisson", "nlchns.grid_ops", "solve_neumann_direct"),
    ("grid_ops.workspace", "nlchns.grid_ops", "workspace"),
    ("grid_ops.snapshot_write", "nlchns.grid_ops", "write_snapshot"),
    ("grid_ops.snapshot_read", "nlchns.grid_ops", "read_snapshot"),
    ("diagnostics.energy", "nlchns.diagnostics", "nonlocal_energy"),
    ("diagnostics.energy", "nlchns.diagnostics", "potential_energy"),
    ("diagnostics.gradient_bound", "nlchns.diagnostics", "gradient_bound_check"),
)

# file bytes of a snapshot call, from its arguments and result: a 48-byte
# header plus the float64 payload
NBYTES = {
    "grid_ops.snapshot_write": lambda args, out: 48 + 8 * args[1].size,
    "grid_ops.snapshot_read": lambda args, out: 48 + out[0].nbytes,
}

ROOT_SPAN = "cli.run"


class _Proxy:
    """Stands in for a module binding; unlisted attributes pass through."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def replace(path, attr, make_wrapper):
    """Replace ``attr`` of the object at ``path`` ("module" or
    "module:name") with ``make_wrapper(original)``, and rebind every
    ``nlchns`` module-level name that holds the same original."""
    module, _, inner = path.partition(":")
    owner = importlib.import_module(module)
    if inner:
        holder, owner = owner, getattr(owner, inner)
        if isinstance(owner, types.ModuleType):
            owner = _Proxy(owner)
            setattr(holder, inner, owner)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.partition(".")[0] != "nlchns":
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
    return wrapper


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter
        nbytes = NBYTES.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run_id, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if nbytes is not None:
                span[6] = int(nbytes(args, out))
            return out

        return functools.wraps(fn)(traced)

    def install(self):
        for name, path, attr in TARGETS:
            replace(path, attr, lambda fn, name=name: self.wrap(name, fn))


# ------------------------------------------------------------ per layer

def unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if ".ms_per_" in name:
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced operation (see NOTES.md).

    Per-step counts use the calls made from the first step on, divided by
    the steps the CH stepper accepted; an operation that takes no step
    reports them as 0."""
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    failed = defaultdict(int)
    incl = defaultdict(float)
    own = defaultdict(float)
    nbytes = defaultdict(int)
    first = {}
    for i, (name, start, end, _parent, _run, bad, size) in enumerate(spans):
        calls[name] += 1
        failed[name] += bad
        incl[name] += end - start
        own[name] += end - start - child[i]
        nbytes[name] += size
        first.setdefault(name, end - start)
    step_starts = [s[1] for s in spans if s[0] in ("ch_step.step", "ns_step.step")]
    t_step = min(step_starts) if step_starts else None
    stepping = defaultdict(int)
    if t_step is not None:
        for name, start, *_ in spans:
            if start >= t_step:
                stepping[name] += 1

    ch_calls = calls["ch_step.step"]
    steps = ch_calls - failed["ch_step.step"]
    ns_calls = calls["ns_step.step"]
    newton = calls["ch_step.invert"] - ch_calls
    return {
        "kernel.build_s": incl["kernel.build"],
        "kernel.convolve.per_step": _ratio(stepping["kernel.convolve"], steps),
        "kernel.convolve.ms_per_call":
            1e3 * _ratio(incl["kernel.convolve"], calls["kernel.convolve"]),
        "kernel.convolve.self_s": own["kernel.convolve"],
        "potential.build_s": incl["potential.build"],
        "potential.eval.per_step": _ratio(stepping["potential.eval"], steps),
        "potential.eval.self_s": own["potential.eval"],
        "ch_step.ms_per_step": 1e3 * _ratio(incl["ch_step.step"], ch_calls),
        "ch_step.self_s": own["ch_step.step"],
        "ch_step.newton.per_step": _ratio(newton, ch_calls),
        "ch_step.invert.self_s": own["ch_step.invert"],
        # one preconditioner application is one dctn plus one idctn
        "ch_step.pcg.per_newton": _ratio(calls["ch_step.dct"] / 2, newton),
        "ch_step.dct.self_s": own["ch_step.dct"],
        "ch_step.rejections": failed["ch_step.step"],
        "ns_step.ms_per_step": 1e3 * _ratio(incl["ns_step.step"], ns_calls),
        "ns_step.self_s": own["ns_step.step"],
        # the momentum CG applies the operator once before its first iteration
        "ns_step.momentum_cg.per_step":
            _ratio(calls["ns_step.viscous_apply"], ns_calls) - (1 if ns_calls else 0),
        "ns_step.viscous_apply.self_s": own["ns_step.viscous_apply"],
        "ns_step.project.self_s": own["ns_step.project"],
        "ns_step.stokes_lambda1.self_s": own["ns_step.stokes_lambda1"],
        "ns_step.stiffness_cg.iters": calls["ns_step.project_divfree"],
        "grid_ops.poisson.calls": calls["grid_ops.poisson"],
        # self time: the factorization paid in the first call is a child span
        "grid_ops.poisson.ms_per_call":
            1e3 * _ratio(own["grid_ops.poisson"], calls["grid_ops.poisson"]),
        "grid_ops.workspace.first_s": first.get("grid_ops.workspace", 0.0),
        "grid_ops.laplace.per_step": _ratio(stepping["grid_ops.laplace"], steps),
        "grid_ops.snapshot_write.bytes": nbytes["grid_ops.snapshot_write"],
        "grid_ops.snapshot_write.self_s": own["grid_ops.snapshot_write"],
        "grid_ops.snapshot_read.bytes": nbytes["grid_ops.snapshot_read"],
        "grid_ops.snapshot_read.self_s": own["grid_ops.snapshot_read"],
        "diagnostics.energy.self_s": own["diagnostics.energy"],
        "diagnostics.gradient_bound.self_s": own["diagnostics.gradient_bound"],
        "cli.loop.self_s": own[ROOT_SPAN],
    }
