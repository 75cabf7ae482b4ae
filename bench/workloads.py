"""The benchmark's workloads: the config each one generates from the seed,
and the checks on what the program wrote.

Every operation's outputs are checked; a failed check is returned as a
message and counted as a failed operation, never raised.
"""

import csv
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

DT = 2e-3
MASS_DRIFT_MAX = 1e-12   # per-row |mass - mass_0|
DIV_MAX = 1e-10          # per-row post-projection divergence
REF_RTOL = 1e-8          # diagnose-64 against reference.json

# the spinodal-2d preset, with the horizon sized per workload
SPINODAL = {
    "init": "constant-noise", "init_mean": 0.0, "init_amplitude": 0.05,
    "init_u": "swirl", "init_u_amplitude": 0.2, "snapshot_every": 2000,
    "dt": DT,
}

# the cauchy-sweep preset (the eps-sweep command's study), horizon sized
CAUCHY = {
    "grid_nx": 32, "grid_ny": 32,
    "theta": 0.4, "theta_c": 1.66, "kernel_j_l1": 6.0,
    "init": "stripe", "init_amplitude": 0.999, "init_width": 0.08,
    "velocity": "zero", "dt": DT,
    "eps_grid": "1e-1,5e-2,2.5e-2,1.25e-2,6.25e-3,3.125e-3",
}

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # run | sweep | diagnose
    config: dict
    steps: int           # per stepping run (per eps value for a sweep)


def _spinodal(n, steps):
    return dict(SPINODAL, grid_nx=n, grid_ny=n, horizon=steps * DT)


# Why each workload is here, and which layers it stresses: NOTES.md.
# spinodal-64 keeps 200 steps so its energy-prefix excursion (near step
# 180 at seed) stays in view.
WORKLOADS = {w.name: w for w in (
    Workload("spinodal-64", "run", _spinodal(64, 200), 200),
    Workload("spinodal-256", "run", _spinodal(256, 10), 10),
    Workload("cauchy-sweep", "sweep", dict(CAUCHY, horizon=100 * DT), 100),
    Workload("diagnose-64", "diagnose", _spinodal(64, 200), 200),
)}


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def config_text(config, seed):
    """Flat ``key = value`` config that the program reads."""
    items = dict(config, seed=seed)
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in sorted(items.items()))


def input_seed(workload, seed):
    """Seed of the generated config.  diagnose-64 audits a run whose final
    energies reference.json records, so it maps the seed into that bank."""
    if workload.kind == "diagnose":
        bank = sorted(load_reference()["final_energies"], key=int)
        return int(bank[seed % len(bank)])
    return seed % 2**32


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- readers

def _manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def read_series(outdir):
    """series.csv as a dict of float columns."""
    with open(os.path.join(outdir, "series.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body])
            for i, name in enumerate(header)}


def read_fld(path):
    with open(path, "rb") as fh:
        head = fh.read(48)
    n0, n1 = struct.unpack("<qq", head[8:24])
    return np.fromfile(path, dtype="<f8", offset=48).reshape(n0, n1)


def energy_prefix_max(series, dt):
    """Largest running prefix of sum(r_n dt) over the identity residuals."""
    return float(np.max(np.cumsum(series["identity_residual"][1:]) * dt))


# ----------------------------------------------------------------- checks

def check_run(outdir, workload):
    """Checks on a coupled run; returns (failures, steps, info)."""
    manifest = _manifest(outdir)
    failures = []
    if manifest["status"] != "completed":
        failures.append(f"manifest status {manifest['status']}: {manifest['error']}")
    steps = manifest["outputs"].get("steps_completed", 0)
    if steps != workload.steps:
        failures.append(f"{steps} steps completed, expected {workload.steps}")
    series = read_series(outdir)
    drift = float(np.max(np.abs(series["mass"] - series["mass"][0])))
    if drift > MASS_DRIFT_MAX:
        failures.append(f"mass drift {drift:.3g} > {MASS_DRIFT_MAX:g}")
    peak = float(np.max(series["max_abs_phi"]))
    if not peak < 1.0:
        failures.append(f"max_abs_phi {peak!r} >= 1")
    div = float(np.max(series["div_inf"]))
    if div > DIV_MAX:
        failures.append(f"div_inf {div:.3g} > {DIV_MAX:g}")
    info = {"energy_prefix_max": energy_prefix_max(series, workload.config["dt"])}
    return failures, steps, info


def check_sweep(outdir, workload):
    """Checks on an eps sweep.  |phi| may exceed 1 under the regularized
    potential, so only mass and the Cauchy table's monotonicity are held."""
    manifest = _manifest(outdir)
    derived = manifest["derived"]
    failures = []
    if manifest["status"] != "completed":
        failures.append(f"manifest status {manifest['status']}: {manifest['error']}")
    if not derived.get("monotone_decreasing"):
        failures.append("Cauchy differences are not monotone decreasing")
    runs = derived.get("completed_runs", 0)
    n_eps = len(workload.config["eps_grid"].split(","))
    if runs != n_eps:
        failures.append(f"{runs} eps runs completed, expected {n_eps}")
    for name in sorted(os.listdir(outdir)):
        if name.startswith("phi_eps_") and name.endswith(".fld"):
            drift = abs(float(read_fld(os.path.join(outdir, name)).mean())
                        - workload.config.get("init_mean", 0.0))
            if drift > MASS_DRIFT_MAX:
                failures.append(f"{name}: mass drift {drift:.3g}")
    return failures, runs * derived.get("nsteps", 0), {}


def check_reference(rundir, seed):
    """The audited run's final energies against reference.json."""
    ref = load_reference()["final_energies"][str(seed)]
    series = read_series(rundir)
    failures = []
    for name, want in ref.items():
        got = float(series[name][-1])
        if abs(got - want) > REF_RTOL * abs(want):
            failures.append(f"final {name} {got!r} differs from reference {want!r}")
    return failures


def check_diagnose(outdir):
    """Checks on a diagnose report; returns (failures, 0 steps, info)."""
    with open(os.path.join(outdir, "diagnose.json")) as fh:
        report = json.load(fh)
    want = load_reference()["lambda1"]
    failures = []
    got = report["checks"].get("dissipative_envelope", {}).get("lambda1")
    if got is None or abs(got - want) > REF_RTOL * abs(want):
        failures.append(f"lambda1 {got!r} differs from reference {want!r}")
    direction = report["checks"].get("energy_direction", {})
    info = {"energy_direction_max_prefix": direction.get("max_prefix")}
    return failures, 0, info


def check(workload, outdir):
    """Checks matching the workload's kind: (failures, steps, info)."""
    if workload.kind == "run":
        return check_run(outdir, workload)
    if workload.kind == "sweep":
        return check_sweep(outdir, workload)
    return check_diagnose(outdir)


def differing_outputs(a, b):
    """Output files of two operations whose bytes differ; manifest.json is
    skipped because its timing block is informational."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    out = []
    for name in names:
        if name == "manifest.json":
            continue
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            out.append(name)
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                out.append(name)
    return out
