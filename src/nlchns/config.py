"""The config table and the loading that checks every value against it.

A config is flat ``key = value`` text, one pair per line, ``#`` starting a
comment, or the config block of a manifest.json written by an earlier run;
unknown keys are rejected.  Precedence: DEFAULTS < preset < config file <
--seed.  A manifest written while the config still had a ``scheme`` or
``series_every`` key loads when that key holds the one value this version
runs.

TABLE gives each key a Row: its default, its domain and the code of the
ConfigError its domain raises.  The key's type is its default's: int,
float (finite) or str.  The domain is one of
- a tuple, the enumeration of the values the key may take;
- an Interval;
- a parser, called on the typed value, which raises its own ConfigError
  (eps_list, the parser of eps_grid);
- None: every value of the type runs.
A value that is not of its key's type is ``error[parse]``.  Every value
read from a config file, a manifest or --seed is checked as it is read,
whichever command then reads the config; the defaults and the presets are
held to the table by a test.  Checks that need a built object, more than
one key or one command stay with the code that needs them: the grid, the
potential, the kernel, beta-margin, nu1 <= nu2, the mean cap and the
saturation of the built phi, the swirl's overflow, the finiteness of
omega * horizon, the horizon / dt step count, init = file's init_file,
eps-sweep's positive horizon and potential-table's eps > 0.
"""

import json
import math
from collections import namedtuple

from .potential import EPS_MAX_DEFAULT


class ConfigError(Exception):
    """Rejected configuration; ``code`` is a stable machine-readable tag."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class Interval(namedtuple("Interval", "lo hi ends")):
    """The numbers between lo and hi; ends holds the two brackets, "[" or
    "]" taking that end in and "(" or ")" leaving it out."""

    def __contains__(self, x):
        above = self.lo <= x if self.ends[0] == "[" else self.lo < x
        below = x <= self.hi if self.ends[1] == "]" else x < self.hi
        return above and below

    def __str__(self):
        return f"in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"


def eps_list(text):
    """two or more comma-separated epsilons, strictly decreasing, each in
    epsilon's domain.  Returns them as floats: the commands that read
    eps_grid call this, and the config keeps the text."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("parse", f"bad eps_grid: {exc}") from None
    if len(values) < 2:
        raise ConfigError("parse", "eps_grid needs at least two entries")
    for eps in values:
        _check("epsilon", eps)
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError("epsilon-range", "eps_grid must be strictly decreasing")
    return values


Row = namedtuple("Row", "default domain code")
POSITIVE = Interval(0.0, math.inf, "()")
NONNEGATIVE = Interval(0, math.inf, "[)")
VISCOSITY = Interval(0.0, 1e100, "(]")


def _free(**defaults):
    """Rows without a domain: the table takes every value of the default's
    type, though a check on a built object may still refuse one."""
    return {key: Row(default, None, None) for key, default in defaults.items()}


TABLE = {
    # Grid checks the sizes
    **_free(grid_nx=64, grid_ny=64, grid_lx=1.0, grid_ly=1.0),
    # PotentialSpec checks theta, theta_c and q
    **_free(theta=1.0, theta_c=2.0, q=1),
    "epsilon": Row(1e-3, Interval(0.0, EPS_MAX_DEFAULT, "[]"), "epsilon-range"),
    "eps_grid": Row("1e-1,5e-2,2.5e-2,1.25e-2,6.25e-3", eps_list, "epsilon-range"),
    # KernelSpec checks the family, the width and the mass
    **_free(kernel_family="gaussian", kernel_width=0.1, kernel_j_l1=4.0),
    # far above any physical viscosity, far below the 1e300 at which the
    # momentum CG underflows; ViscositySpec checks nu1 <= nu2
    "nu1": Row(0.01, VISCOSITY, "viscosity"), "nu2": Row(0.02, VISCOSITY, "viscosity"),
    # initial order parameter; m0 caps |mean of phi0|
    "m0": Row(0.9, Interval(0.0, 1.0, "()"), "mean-cap"),
    "init": Row("constant-noise", ("constant-noise", "stripe", "bubble", "file"),
                "init"),
    **_free(init_mean=0.0, init_amplitude=0.05, init_file=""),
    "init_radius": Row(0.25, POSITIVE, "init"), "init_width": Row(0.05, POSITIVE, "init"),
    # initial velocity (coupled runs)
    "init_u": Row("zero", ("zero", "swirl"), "init"), **_free(init_u_amplitude=0.0),
    # body force (coupled runs)
    "forcing": Row("zero", ("zero", "steady", "time-periodic"), "parse"),
    **_free(forcing_fx=0.0, forcing_fy=0.0, forcing_omega=6.283185307179586),
    # prescribed velocity (transport-only runs)
    "velocity": Row("zero", ("zero", "swirl", "swirl-periodic"), "parse"),
    "velocity_period": Row(1.0, POSITIVE, "parse"), **_free(velocity_amplitude=0.5),
    # time stepping and output cadence
    "dt": Row(2e-3, POSITIVE, "time"), "horizon": Row(0.2, NONNEGATIVE, "time"),
    "snapshot_every": Row(0, NONNEGATIVE, "time"),
    "seed": Row(1234, NONNEGATIVE, "parse"),
}

DEFAULTS = {key: row.default for key, row in TABLE.items()}

PRESETS = {
    # 1e4 steps of coupled spinodal decomposition on a 64^2 box
    "spinodal-2d": {
        "horizon": 20.0, "snapshot_every": 2000,
        "init": "constant-noise", "init_mean": 0.0, "init_amplitude": 0.05,
        "init_u": "swirl", "init_u_amplitude": 0.2,
    },
    # layered two-phase state stirred by a steady swirl, transport only
    "stripe-ch": {
        "grid_nx": 48, "grid_ny": 48,
        "init": "stripe", "init_amplitude": 0.8, "init_width": 0.08,
        "epsilon": 1e-2, "velocity": "swirl", "velocity_amplitude": 0.5,
        "horizon": 1.0,
    },
    # droplet relaxing under the nonlocal energy alone
    "bubble-ch": {
        "grid_nx": 48, "grid_ny": 48,
        "init": "bubble", "init_amplitude": 0.9, "init_radius": 0.2,
        "init_width": 0.06, "epsilon": 1e-2, "velocity": "zero",
        "horizon": 1.0,
    },
    # epsilon refinement study at T = 1.  The quench is deep (pure-phase
    # plateau about 1 - 5e-4) so every epsilon in the halving grid reshapes
    # the potential on a range the trajectory actually occupies; consecutive
    # rows of the table are then honest phi_eps vs phi_{eps/2} differences.
    "cauchy-sweep": {
        "grid_nx": 32, "grid_ny": 32,
        "theta": 0.4, "theta_c": 1.66, "kernel_j_l1": 6.0,
        "init": "stripe", "init_amplitude": 0.999, "init_width": 0.08,
        "velocity": "zero", "horizon": 1.0,
        "eps_grid": "1e-1,5e-2,2.5e-2,1.25e-2,6.25e-3,3.125e-3",
    },
}


def _domain_text(domain):
    if callable(domain):  # a parser: the first sentence of its docstring
        return " ".join(domain.__doc__.split(".")[0].split())
    return str(domain) if isinstance(domain, Interval) else "one of " + ", ".join(domain)


def _check(key, value):
    """Raise the key's ConfigError when value lies outside its domain."""
    _, domain, code = TABLE[key]
    if callable(domain):
        domain(value)
    elif domain is not None and value not in domain:
        raise ConfigError(code, f"{key} must be {_domain_text(domain)}, got {value!r}")


def _value(key, raw):
    """raw as the type of key's default, checked against key's domain."""
    kind = type(TABLE[key].default)
    try:
        value = kind(raw).strip() if kind is str else kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("parse", f"bad value for {key}: {exc}") from None
    # a manifest's JSON number loads only as the number it is: int(True)
    # is 1 and int(2.5) is 2
    inexact = not isinstance(raw, str) and (isinstance(raw, bool) or value != raw)
    if kind is not str and inexact or kind is float and not math.isfinite(value):
        raise ConfigError("parse", f"bad value for {key}: {raw!r} is not a "
                                   f"finite {kind.__name__}")
    _check(key, value)
    return value


def keys_help():
    """The table as text, a line per key: its default, type and domain."""
    lines = ["config keys (key, default, type, domain; wrong type: error[parse]):"]
    for key, (default, domain, code) in TABLE.items():
        rule = f", {_domain_text(domain)}, else error[{code}]" if domain is not None else ""
        lines.append(f"  {key:<18} {default!s:<16} {type(default).__name__}{rule}")
    return "\n".join(lines)


def parse_config_text(text):
    """Flat key = value lines into a typed, checked dict; unknown keys
    rejected."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("parse", f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in TABLE:
            raise ConfigError("parse", f"line {lineno}: unknown key {key!r}")
        out[key] = _value(key, raw)
    return out


def load_config(path=None, preset=None, seed=None):
    """Resolve DEFAULTS < preset < config file (flat text or a manifest
    from an earlier run) < --seed into a complete typed dict."""
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError("preset", f"unknown preset {preset!r} (known: {known})")
        cfg.update(PRESETS[preset])
    if path is not None:
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("io", f"cannot read config: {exc}") from None
        if text.lstrip().startswith("{"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError("parse", f"bad manifest json: {exc}") from None
            _apply_manifest(cfg, doc)
        else:
            cfg.update(parse_config_text(text))
    if seed is not None:
        cfg["seed"] = _value("seed", seed)
    return cfg


def _apply_manifest(cfg, doc):
    """Overlay the config block of a parsed manifest document onto cfg,
    each value checked.  Manifests from versions that had a retired key
    still load when it holds the one value this version runs."""
    retired = {"scheme": "semi-implicit-convex-split", "series_every": 1}
    items = doc.get("config")
    if not isinstance(items, dict):
        raise ConfigError("parse", "manifest has no config block")
    for key, raw in items.items():
        if key in retired:
            if raw != retired[key]:
                raise ConfigError("parse", f"manifest {key} {raw!r} is not "
                                           f"{retired[key]!r}, the one this runs")
            continue
        if key not in TABLE:
            raise ConfigError("parse", f"unknown key {key!r} in manifest")
        cfg[key] = _value(key, raw)
    return cfg
