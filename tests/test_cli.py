"""Command line contract: config handling, run outputs, determinism,
exit codes, and the reporting subcommands."""

import contextlib
import importlib.util
import io
import json
import pathlib
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nlchns import cli
from nlchns import diagnostics as dg
from nlchns import grid_ops as go
from nlchns import ns_step as ns
from nlchns.config import (ConfigError, DEFAULTS, PRESETS, TABLE, _apply_manifest,
                           load_config, parse_config_text)
from nlchns.ns_step import ViscositySpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def run_module(*args):
    """The command line in a fresh interpreter, so that whatever reaches
    the real stderr (numpy warnings included) is captured."""
    return subprocess.run([sys.executable, "-m", "nlchns.cli", *args],
                          capture_output=True, text=True)


# a grid and a kernel that build in milliseconds
SMALL = "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"

# a coupled run small enough to keep the whole module fast
FAST_COUPLED = """
grid_nx = 24
grid_ny = 24
kernel_width = 0.15
epsilon = 1e-2
dt = 2e-3
horizon = 0.02
init_u = swirl
init_u_amplitude = 0.3
snapshot_every = 5
"""


@pytest.fixture(scope="module")
def coupled_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("coupled")
    cfg = write_cfg(base / "run.cfg", FAST_COUPLED)
    out = base / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert rc == 0
    return {"cfg": cfg, "out": out, "base": base}


class TestConfigParsing:
    def test_defaults_complete(self):
        cfg = load_config()
        assert set(cfg) == set(DEFAULTS)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("bogus = 1")
        assert err.value.code == "parse"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid_nx 32")
        assert err.value.code == "parse"

    def test_comments_and_blanks_ignored(self):
        out = parse_config_text("# hi\n\n grid_nx = 32  # trailing\n")
        assert out == {"grid_nx": 32}

    def test_int_key_rejects_fraction(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid_nx = 32.5")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as err:
            load_config(preset="no-such-thing")
        assert err.value.code == "preset"

    def test_precedence_preset_file_seed(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "c.cfg", "horizon = 3.0\n")
        cfg = load_config(cfg_path, preset="spinodal-2d", seed=99)
        assert cfg["horizon"] == 3.0          # file beats preset (20.0)
        assert cfg["snapshot_every"] == 2000  # preset beats default
        assert cfg["seed"] == 99              # flag beats everything

    def test_manifest_config_block_loads(self, tmp_path):
        doc = {"config": dict(DEFAULTS, grid_nx=16, horizon=0.5)}
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        cfg = load_config(str(p))
        assert cfg["grid_nx"] == 16 and cfg["horizon"] == 0.5

    @pytest.mark.parametrize("key", ["dt", "grid_nx"])
    def test_nonfinite_manifest_value_rejected(self, tmp_path, key):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"config": dict(DEFAULTS, **{key: float("inf")})}))
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.code == "parse"

    @pytest.mark.parametrize("key, value", [("seed", True), ("grid_nx", True),
                                            ("dt", True), ("horizon", False)])
    def test_boolean_manifest_value_rejected(self, tmp_path, key, value):
        # JSON true would otherwise load as seed 1 or dt 1.0
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"config": dict(DEFAULTS, **{key: value})}))
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.code == "parse"

    def test_manifest_without_config_block(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{}")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_shipped_configs_pass_the_table(self):
        # a domain so tight that it refused the defaults, a preset, an
        # identity config or the config a benchmark workload writes would
        # refuse a run that works
        for cfg in [DEFAULTS] + [dict(DEFAULTS, **p) for p in PRESETS.values()]:
            text = "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                           for k, v in cfg.items())
            assert parse_config_text(text) == cfg
        for path in sorted((ROOT / "tools" / "identity").glob("*.cfg")):
            load_config(str(path))
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "bench" / "workloads.py")
        wl = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(wl)
        assert wl.WORKLOADS
        for workload in wl.WORKLOADS.values():
            seed = wl.input_seed(workload, 1000)
            parse_config_text(wl.config_text(workload.config, seed))


class TestRejectionCodes:
    """Every rejection path exits 2 with a distinct error[<code>] line."""

    CASES = [
        ("bogus = 1", "parse"),
        ("theta = 1.0\ntheta_c = 5.0", "beta-margin"),
        ("epsilon = 0.5", "epsilon-range"),
        ("init_mean = 0.95", "mean-cap"),
        ("m0 = 1.5", "mean-cap"),
        ("init_mean = 0.3\ninit_amplitude = 0.8", "init"),
        ("nu1 = 0.2\nnu2 = 0.1", "viscosity"),
        ("grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.01", "kernel"),
        ("dt = 3e-3\nhorizon = 0.01", "time"),
        ("dt = -1e-3", "time"),
        ("scheme = leapfrog", "parse"),
        ("init = vortex-sheet", "init"),
        ("eps_grid = 1e-2,5e-2", "epsilon-range"),
        # non-finite floats, and a negative seed from a config file
        ("dt = nan", "parse"),
        ("horizon = inf", "parse"),
        ("init_amplitude = inf", "parse"),
        ("grid_lx = nan", "parse"),
        ("seed = -1", "parse"),
        # finite, but the swirl's velocity differences overflow
        ("init_u = swirl\ninit_u_amplitude = 1e308", "init"),
        # step counts past MAX_STEPS: horizon / dt overflows to inf, or is
        # finite but would never finish
        ("horizon = 1e300\ndt = 1e-300", "time"),
        ("horizon = 0.01\ndt = 1e-300", "time"),
        ("eps_grid = 1e-1,1e-2\nhorizon = 0.01\ndt = 1e-300", "time"),
        # finite, but the phase omega t of a periodic input overflows
        ("velocity = swirl-periodic\nvelocity_period = 1e-308\n" + SMALL, "parse"),
        ("forcing = time-periodic\nforcing_fx = 1\nforcing_omega = 1e308\n"
         "dt = 0.5\nhorizon = 2\n" + SMALL, "parse"),
    ]

    @pytest.mark.parametrize("text,code", CASES, ids=[c for _, c in CASES])
    def test_exit_2_with_code(self, tmp_path, capsys, text, code):
        cfg = write_cfg(tmp_path / "bad.cfg", text + "\n")
        cmd = ("eps-sweep" if "eps_grid" in text
               else "run-ch" if text.startswith("velocity") else "run")
        rc = cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error[{code}]:" in capsys.readouterr().err

    # one value outside the domain of each key that has one (config.TABLE),
    # then configs that every command ran with exit 0 before the table
    # checked each key whatever the command; the key leads the id
    DOMAIN_CASES = [
        ("epsilon", "epsilon = 0.5", "epsilon-range"),
        ("eps_grid", "eps_grid = 1e-1", "parse"),
        ("eps_grid-order", "eps_grid = 1e-2,5e-2", "epsilon-range"),
        ("m0", "m0 = 1.0", "mean-cap"),
        ("init", "init = vortex-sheet", "init"),
        ("init_radius", "init_radius = 0", "init"),
        ("init_width", "init_width = 0", "init"),
        ("init_u", "init_u = vortex", "init"),
        ("forcing", "forcing = gust", "parse"),
        ("velocity", "velocity = gust", "parse"),
        ("velocity_period", "velocity_period = 0", "parse"),
        ("dt", "dt = 0", "time"),
        ("horizon", "horizon = -0.1", "time"),
        ("snapshot_every", "snapshot_every = -1", "time"),
        ("seed", "seed = -2", "parse"),
        ("nu1", "nu1 = 0", "viscosity"),
        ("nu2", "nu2 = 1e101", "viscosity"),
        ("forcing-and-init_u-typos", "forcing = steadyy\ninit_u = swril", "parse"),
        ("velocity-typo-and-negative-period",
         "velocity = swril\nvelocity_period = -1", "parse"),
        ("eps_grid-garbage", "eps_grid = garbage", "parse"),
        ("init-bubble-negative-radius-and-width",
         "init = bubble\ninit_radius = -3\ninit_width = -1", "init"),
        ("velocity_period-negative", "velocity_period = -1", "parse"),
        # the momentum CG met a non-positive curvature and exited 3
        ("nu1-and-nu2-1e300", "nu1 = 1e300\nnu2 = 1e300\nhorizon = 0.01",
         "viscosity"),
    ]

    def test_every_domain_has_a_case(self):
        cased = {text.partition(" ")[0] for _, text, _ in self.DOMAIN_CASES}
        assert cased == {key for key, row in TABLE.items() if row.domain is not None}

    @pytest.mark.parametrize("name,text,code", DOMAIN_CASES,
                             ids=[c[0] for c in DOMAIN_CASES])
    @pytest.mark.parametrize("cmd", ["run", "run-ch", "eps-sweep", "kernel-report",
                                     "potential-table"])
    def test_refused_at_load(self, tmp_path, capsys, cmd, name, text, code):
        cfg = write_cfg(tmp_path / "bad.cfg", SMALL + text + "\n")
        out = tmp_path / "o"
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error[{code}]:"), lines
        assert not out.exists()

    @pytest.mark.parametrize("width", ["1e200", "1e300"])
    @pytest.mark.parametrize("cmd", ["run", "kernel-report"])
    def test_huge_kernel_width(self, tmp_path, capsys, cmd, width):
        # finite, but its square overflows inside the kernel profile
        cfg = write_cfg(tmp_path / "w.cfg", f"kernel_width = {width}\n")
        rc = cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error[kernel]:" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0.5", "1e12"])
    @pytest.mark.parametrize("cmd", ["run", "kernel-report"])
    def test_huge_kernel_mass(self, tmp_path, capsys, cmd, width):
        # the largest float as L1 mass: its closed-form gradient norm
        # overflows (at width 0.5 so does the table's sum)
        cfg = write_cfg(tmp_path / "m.cfg",
                        "grid_nx = 32\ngrid_ny = 32\n"
                        f"kernel_j_l1 = 1.7976931348623157e308\nkernel_width = {width}\n")
        rc = cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[kernel]:"), lines

    @pytest.mark.parametrize("n,bad", [(16, np.nan), (16, np.inf), (12, 0.0)],
                             ids=["nan", "inf", "shape"])
    def test_bad_init_file(self, tmp_path, capsys, n, bad):
        values = np.zeros((n, 16))
        values[3, 4] = bad
        snap = tmp_path / "phi0.fld"
        go.write_snapshot(str(snap), values, go.Grid(16, 16))
        cfg = write_cfg(tmp_path / "f.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        f"init = file\ninit_file = {snap}\n")
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error[init]:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["swirl", "swirl-periodic"])
    def test_overflowing_run_ch_swirl(self, tmp_path, kind):
        cfg = write_cfg(tmp_path / "s.cfg",
                        f"velocity = {kind}\nvelocity_amplitude = 1e308\n")
        proc = run_module("run-ch", "--config", cfg, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[parse]:"), proc.stderr

    @pytest.mark.parametrize("command", ["run", "run-ch"])
    def test_nonfinite_initial_row(self, tmp_path, command):
        # J * phi is finite but its gradient squared overflows: the t = 0
        # row would hold grad_mu_sq = inf, so the run is refused before
        # any output, with no numpy warning on stderr
        cfg = write_cfg(tmp_path / "j.cfg",
                        SMALL + "horizon = 0.01\nkernel_j_l1 = 1e300\n")
        out = tmp_path / "o"
        proc = run_module(command, "--config", cfg, "--out", str(out))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[init]:"), proc.stderr
        assert "grad_mu_sq" in lines[0]
        assert not out.exists()

    def test_missing_out_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["run"])
        assert err.value.code == 2

    def test_unreadable_config(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error[io]:" in capsys.readouterr().err


def _manifest_edit(edit):
    def corrupt(rundir):
        path = rundir / "manifest.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


def _index_edit(edit):
    def corrupt(rundir):
        path = rundir / "snapshots.json"
        path.write_text(edit(path.read_text()))
    return corrupt


def _drop_first_phi(text):
    doc = json.loads(text)
    del doc["snapshots"][0]["phi"]
    return json.dumps(doc)


def _second_snapshot_t(value):
    def edit(text):
        doc = json.loads(text)
        doc["snapshots"][1]["t"] = value
        return json.dumps(doc)
    return _index_edit(edit)


def _drop_mass_column(rundir):
    path = rundir / "series.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("mass")
    path.write_text("".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows))


def _keep_series_header(rundir):
    path = rundir / "series.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _empty_series(rundir):
    (rundir / "series.csv").write_text("")


def _series_edit(column, row, value):
    def corrupt(rundir):
        path = rundir / "series.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[row][rows[0].index(column)] = value
        path.write_text("".join(",".join(r) + "\n" for r in rows))
    return corrupt


def _snapshot_edit(edit):
    def corrupt(rundir):
        path = rundir / "phi_00000005.fld"
        path.write_bytes(edit(path.read_bytes()))
    return corrupt


def _saturated_singular_snapshot(rundir):
    _manifest_edit(lambda doc: doc["config"].update(epsilon=0.0))(rundir)
    _snapshot_edit(lambda b: b[:48] + struct.pack("<d", 1.0) + b[56:])(rundir)


class TestMalformedRunDirectory:
    """diagnose on a damaged run directory exits 2 with one error[<code>]
    line; a warning on the way there fails the test."""

    CASES = [
        ("unknown-config-key",
         _manifest_edit(lambda doc: doc["config"].update(bogus=1)), "parse"),
        ("missing-config", _manifest_edit(lambda doc: doc.pop("config")),
         "parse"),
        ("truncated-payload", _snapshot_edit(lambda b: b[:-8]), "io"),
        ("short-header", _snapshot_edit(lambda b: b[:30]), "io"),
        ("wrong-magic", _snapshot_edit(lambda b: b"NOTAFLD1" + b[8:]), "io"),
        ("index-not-json", _index_edit(lambda text: text[:-5]), "io"),
        ("entry-without-phi", _index_edit(_drop_first_phi), "io"),
        # the second snapshot is step 5 at t = 5 dt = 0.01
        ("snapshot-t-text", _second_snapshot_t("abc"), "io"),
        ("snapshot-t-nan", _second_snapshot_t(float("nan")), "io"),
        ("snapshot-t-list", _second_snapshot_t([1, 2]), "io"),
        ("snapshot-t-off-step", _second_snapshot_t(0.011), "io"),
        ("series-without-mass", _drop_mass_column, "io"),
        ("series-header-only", _keep_series_header, "io"),
        ("series-empty", _empty_series, "io"),
        ("series-non-numeric", _series_edit("mass", 2, "abc"), "io"),
        ("series-mass-beyond-one", _series_edit("mass", 1, "1.5"), "io"),
        ("series-mass-nan", _series_edit("mass", 2, "nan"), "io"),
        ("series-residual-nan", _series_edit("identity_residual", 3, "nan"), "io"),
        ("series-total-inf", _series_edit("total", 2, "inf"), "io"),
        ("saturated-singular-snapshot", _saturated_singular_snapshot, "io"),
        # the audit weighs each residual by the manifest's dt
        ("manifest-dt-zero", _manifest_edit(lambda doc: doc["config"].update(dt=0.0)),
         "time"),
        ("manifest-dt-negative",
         _manifest_edit(lambda doc: doc["config"].update(dt=-0.002)), "time"),
        ("manifest-dt-huge",
         _manifest_edit(lambda doc: doc["config"].update(dt=1e300)), "time"),
        ("manifest-dt-not-the-series-step",
         _manifest_edit(lambda doc: doc["config"].update(dt=0.001)), "io"),
        # keys a coupled run does not read are checked all the same
        ("manifest-init-width-zero",
         _manifest_edit(lambda doc: doc["config"].update(init_width=0.0)), "init"),
        ("manifest-velocity-typo",
         _manifest_edit(lambda doc: doc["config"].update(velocity="swril")), "parse"),
        ("manifest-eps-grid-garbage",
         _manifest_edit(lambda doc: doc["config"].update(eps_grid="garbage")), "parse"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,corrupt,code", CASES,
                             ids=[c[0] for c in CASES])
    def test_exit_2_with_code(self, coupled_run, tmp_path, capsys, name,
                              corrupt, code):
        rundir = tmp_path / "run"
        shutil.copytree(coupled_run["out"], rundir)
        corrupt(rundir)
        rc = cli.main(["diagnose", str(rundir), "--out", str(tmp_path / "d")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error[{code}]:")


class TestRunOutputs:
    def test_outputs_exist(self, coupled_run):
        out = coupled_run["out"]
        for name in ("series.csv", "snapshots.json", "manifest.json"):
            assert (out / name).exists()

    def test_series_shape_and_header(self, coupled_run):
        lines = (coupled_run["out"] / "series.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.COUPLED_HEADER)
        assert len(lines) == 1 + 1 + 10  # header + t0 row + 10 steps

    def test_series_invariants(self, coupled_run):
        d = np.genfromtxt(coupled_run["out"] / "series.csv",
                          delimiter=",", names=True)
        assert np.max(np.abs(d["mass"] - d["mass"][0])) <= 1e-12
        assert np.max(d["div_inf"]) <= 1e-9
        assert np.all(np.isfinite(d["total"]))
        assert np.isnan(d["identity_residual"][0])
        assert np.all(np.isfinite(d["identity_residual"][1:]))

    def test_manifest_is_complete(self, coupled_run):
        m = json.loads((coupled_run["out"] / "manifest.json").read_text())
        assert m["status"] == "completed"
        assert set(m["config"]) == set(DEFAULTS)
        for key in ("mass_defect_limit", "div_tolerance", "momentum_rtol",
                    "saturation_guard", "eps_max", "energy_prefix_tol"):
            assert key in m["tolerances"]
        for key in ("beta", "a_inf", "c0", "alpha_star", "mass0", "nsteps"):
            assert key in m["derived"]
        assert m["seed"] == 7
        assert m["outputs"]["steps_completed"] == 10

    def test_snapshots_readable_and_indexed(self, coupled_run):
        out = coupled_run["out"]
        index = json.loads((out / "snapshots.json").read_text())
        steps = [e["step"] for e in index["snapshots"]]
        assert steps == [0, 5, 10]
        # one clock: the .fld header, the index and the series row of a
        # snapshot's step hold the same float
        t = np.genfromtxt(out / "series.csv", delimiter=",", names=True)["t"]
        for entry in index["snapshots"]:
            for name in ("phi", "u", "v", "p"):
                _, meta = go.read_snapshot(str(out / entry[name]["file"]))
                assert meta["time"] == entry["t"] == t[entry["step"]]
        entry = index["snapshots"][-1]
        assert entry["t"] == 0.02
        phi, _ = go.read_snapshot(str(out / entry["phi"]["file"]))
        assert phi.shape == (24, 24)
        u, _ = go.read_snapshot(str(out / entry["u"]["file"]))
        assert u.shape == (25, 24)
        assert np.all(u[0] == 0.0) and np.all(u[-1] == 0.0)

    def test_zero_horizon_writes_manifest_only(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "horizon = 0\ngrid_nx = 16\ngrid_ny = 16\n"
                        "kernel_width = 0.2\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


class TestResidualCrossCheck:
    def test_series_residual_equals_snapshot_residuals(self, tmp_path):
        """The series column and the post-hoc residual of the snapshot
        trajectory evaluate the same formula on the same states."""
        cfg_path = write_cfg(tmp_path / "c.cfg", FAST_COUPLED.replace(
            "snapshot_every = 5", "snapshot_every = 1"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        phys = cli._physics(cfg)
        index = json.loads((out / "snapshots.json").read_text())["snapshots"]
        fields = {name: np.stack([
            go.read_snapshot(str(out / e[name]["file"]))[0] for e in index])
            for name in ("phi", "u", "v")}
        traj = dg.Trajectory(phys.grid, cfg["dt"], fields["phi"],
                             fields["u"], fields["v"])
        visc = ViscositySpec(cfg["nu1"], cfg["nu2"])
        ours = dg.energy_identity_residuals(traj, phys.kd, phys.pot, visc)
        d = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
        assert len(index) == len(d) == 11
        assert np.array_equal(d["identity_residual"][1:], ours)


class TestPerStepProducts:
    """Each per-state product of the coupled step has one owner: nu(phi) is
    computed once per accepted state, the row takes D(u) once for both of
    its viscous quadratures, and its div_inf is the projection's own."""

    def test_each_product_is_computed_once(self, tmp_path, monkeypatch):
        calls = {"viscosity_fields": 0, "mac_component_gradients": 0,
                 "div_arrays": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counting)

        count(ns, "viscosity_fields")
        count(go, "mac_component_gradients")
        count(go, "div_arrays")
        projected, project = [], ns.project

        def recording(*args):
            out = project(*args)
            projected.append(out[-1])
            return out

        monkeypatch.setattr(ns, "project", recording)
        cfg = load_config(write_cfg(tmp_path / "c.cfg", FAST_COUPLED))
        dt, nsteps = cfg["dt"], 4
        stepper = cli._Coupled(cfg, cli._physics(cfg))
        column = cli.COUPLED_HEADER.index("div_inf")
        assert stepper.row(0.0, dt)[column] == 0.0
        for _, t in cli._steps(stepper, nsteps, dt):
            before = dict(calls)
            row = stepper.row(t, dt)
            assert calls["mac_component_gradients"] == before["mac_component_gradients"] + 1
            assert calls["div_arrays"] == before["div_arrays"]
            assert row[column] == projected[-1]
        assert len(projected) == nsteps
        assert calls["viscosity_fields"] == 1 + nsteps


REFINED_BUBBLE = """
init = bubble
init_amplitude = 0.9
init_radius = 0.2
init_width = 0.1
init_u = swirl
init_u_amplitude = 0.2
dt = 2e-3
horizon = 0.04
"""


class TestGridRefinement:
    def test_energy_converges_under_refinement(self, tmp_path):
        """The energies at a fixed time settle as the grid is refined from
        32^2 through 64^2 to 128^2: successive differences shrink, those of
        the total energy at least twofold (about 2.5x observed)."""
        finals = []
        for n in (32, 64, 128):
            cfg = write_cfg(tmp_path / f"{n}.cfg",
                            REFINED_BUBBLE + f"grid_nx = {n}\ngrid_ny = {n}\n")
            out = tmp_path / str(n)
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
            finals.append(np.genfromtxt(out / "series.csv", delimiter=",",
                                        names=True)[-1])
        diffs = {name: np.abs(np.diff([row[name] for row in finals]))
                 for name in ("total", "kinetic", "nonlocal", "potential")}
        for name, (coarse, fine) in diffs.items():
            assert fine < coarse, name
        coarse, fine = diffs["total"]
        assert fine <= 0.5 * coarse


class TestDeterminism:
    def test_same_seed_byte_identical(self, coupled_run):
        out2 = coupled_run["base"] / "repeat"
        rc = cli.main(["run", "--config", coupled_run["cfg"],
                       "--out", str(out2), "--seed", "7"])
        assert rc == 0
        a = (coupled_run["out"] / "series.csv").read_bytes()
        assert a == (out2 / "series.csv").read_bytes()
        for name in ("phi_00000010.fld", "u_00000010.fld"):
            assert (coupled_run["out"] / name).read_bytes() == \
                (out2 / name).read_bytes()

    def test_other_seed_differs(self, coupled_run):
        out3 = coupled_run["base"] / "other-seed"
        rc = cli.main(["run", "--config", coupled_run["cfg"],
                       "--out", str(out3), "--seed", "8"])
        assert rc == 0
        assert (coupled_run["out"] / "series.csv").read_bytes() != \
            (out3 / "series.csv").read_bytes()

    def test_manifest_rerun_byte_identical(self, coupled_run):
        out4 = coupled_run["base"] / "from-manifest"
        rc = cli.main(["run", "--config",
                       str(coupled_run["out"] / "manifest.json"),
                       "--out", str(out4)])
        assert rc == 0
        assert (coupled_run["out"] / "series.csv").read_bytes() == \
            (out4 / "series.csv").read_bytes()

    @pytest.mark.parametrize("key, kept, other", [
        ("scheme", "semi-implicit-convex-split", "explicit"),
        ("series_every", 1, 5),
    ], ids=["scheme", "series_every"])
    def test_manifest_with_a_retired_key(self, coupled_run, capsys, key, kept,
                                         other):
        # manifests written while the config had a retired key still rerun
        # and diagnose when it holds the value this version runs; any other
        # is refused
        def with_entry(value):
            rundir = coupled_run["base"] / f"{key}-{value}"
            shutil.copytree(coupled_run["out"], rundir)
            path = rundir / "manifest.json"
            doc = json.loads(path.read_text())
            doc["config"][key] = value
            path.write_text(json.dumps(doc))
            return rundir

        old = with_entry(kept)
        rerun = coupled_run["base"] / f"{key}-rerun"
        assert cli.main(["run", "--config", str(old / "manifest.json"),
                         "--out", str(rerun)]) == 0
        assert (rerun / "series.csv").read_bytes() == \
            (coupled_run["out"] / "series.csv").read_bytes()
        assert cli.main(["diagnose", str(old)]) == 0
        assert json.loads((old / "diagnose.json").read_text())["all_passed"]

        bad = with_entry(other)
        capsys.readouterr()
        bad_rerun = coupled_run["base"] / f"{key}-bad-rerun"
        assert cli.main(["run", "--config", str(bad / "manifest.json"),
                         "--out", str(bad_rerun)]) == 2
        assert cli.main(["diagnose", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error[parse]:") for e in err)


class TestRunCH:
    def test_swirl_transport(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "epsilon = 1e-2\ninit = stripe\ninit_amplitude = 0.6\n"
                        "velocity = swirl\nvelocity_amplitude = 0.5\n"
                        "horizon = 0.02\n")
        out = tmp_path / "o"
        assert cli.main(["run-ch", "--config", cfg, "--out", str(out)]) == 0
        d = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
        assert np.max(np.abs(d["mass"] - d["mass"][0])) <= 1e-12
        assert np.any(d["conv_power"][1:] != 0.0)
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.CH_HEADER)

    def test_zero_velocity_energy_monotone(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "epsilon = 1e-2\ninit = stripe\ninit_amplitude = 0.6\n"
                        "velocity = zero\nhorizon = 0.04\n")
        out = tmp_path / "o"
        assert cli.main(["run-ch", "--config", cfg, "--out", str(out)]) == 0
        d = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
        # convex-split guarantee, active decay throughout this horizon
        assert np.all(np.diff(d["total"]) <= 0.0)
        assert np.all(d["conv_power"] == 0.0)

    def test_periodic_velocity_runs(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "velocity = swirl-periodic\nvelocity_period = 0.02\n"
                        "horizon = 0.02\n")
        out = tmp_path / "o"
        assert cli.main(["run-ch", "--config", cfg, "--out", str(out)]) == 0

    def test_width_below_the_spacing_is_a_sharp_interface(self, tmp_path):
        # the width is not raised to a floor: a subnormal one overflows
        # d / width, which tanh takes to a two-valued step, with no warning
        cfg = write_cfg(tmp_path / "c.cfg",
                        SMALL + "init = stripe\ninit_amplitude = 0.6\n"
                                "init_width = 5e-324\nhorizon = 0.002\n")
        out = tmp_path / "o"
        assert cli.main(["run-ch", "--config", cfg, "--out", str(out)]) == 0
        phi0, _ = go.read_snapshot(str(out / "phi_00000000.fld"))
        assert sorted(np.unique(phi0)) == [-0.6, 0.6]

    def test_epsilon_below_1e_12_runs(self, tmp_path):
        # the comparison bounds hold for every eps in (0, eps_max]
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "epsilon = 1e-13\nhorizon = 0.02\n")
        out = tmp_path / "o"
        assert cli.main(["run-ch", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "series.csv").exists()


class TestEpsSweep:
    def test_table_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "init = stripe\ninit_amplitude = 0.95\n"
                        "velocity = zero\nhorizon = 0.02\n"
                        "eps_grid = 1e-1,5e-2,2.5e-2\n")
        out = tmp_path / "o"
        assert cli.main(["eps-sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "eps_sweep.csv", delimiter=",", names=True)
        rows = np.atleast_1d(rows)
        assert rows.shape[0] == 2
        assert np.all(rows["eps_coarse"] == 2 * rows["eps_fine"])
        m = json.loads((out / "manifest.json").read_text())
        assert "monotone_decreasing" in m["derived"]
        assert len(m["derived"]["cauchy_table"]) == 2
        # the final fields carry the loop's time, which the manifest records
        _, meta = go.read_snapshot(str(out / "phi_eps_2.500000e-02.fld"))
        assert meta["time"] == m["derived"]["t_final"] == 0.02

    def test_zero_horizon_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "horizon = 0\n")
        rc = cli.main(["eps-sweep", "--config", cfg,
                       "--out", str(tmp_path / "o")])
        assert rc == 2


def test_periodic_forcing_at_zero_frequency_is_steady(tmp_path):
    # cos(0 t) = 1 exactly, so the series matches the steady force bit for bit
    text = SMALL + "horizon = 0.02\nforcing_fx = 0.5\n"
    series = []
    for kind in ("steady", "time-periodic"):
        cfg = write_cfg(tmp_path / f"{kind}.cfg",
                        text + f"forcing = {kind}\nforcing_omega = 0\n")
        out = tmp_path / kind
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        series.append((out / "series.csv").read_bytes())
    assert series[0] == series[1]


class TestNumericalFailure:
    def test_blowup_flushes_and_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "dt = 1.0\nhorizon = 3.0\n"
                        "init_u = swirl\ninit_u_amplitude = 80.0\n")
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "failed"
        assert m["error"]
        assert (out / "series.csv").exists()
        index = json.loads((out / "snapshots.json").read_text())
        assert len(index["snapshots"]) >= 1


    def test_overflowing_forcing_fails_the_run(self, tmp_path):
        # ||dt f|| overflows although every entry is finite: the momentum
        # CG must refuse it rather than report a zero velocity as converged,
        # and say so without suggesting a dt that cannot help
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "horizon = 0.01\nforcing = steady\nforcing_fx = 1e200\n")
        out = tmp_path / "o"
        proc = run_module("run", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure"), proc.stderr
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "failed"
        assert m["outputs"]["steps_completed"] == 0
        assert m["error"].startswith("NSError: momentum solve:")
        assert "non-finite norm" in m["error"] and "dt" not in m["error"]

    def test_overflowing_implicit_update_fails_the_run(self, tmp_path):
        # the advective flux of a finite but huge swirl gives the CH
        # right-hand side an infinite norm: a numerical failure that a
        # smaller dt cannot mend (the t = 0 row does not see the velocity)
        cfg = write_cfg(tmp_path / "c.cfg",
                        SMALL + "horizon = 0.01\nvelocity = swirl\n"
                                "velocity_amplitude = 1e200\n")
        out = tmp_path / "o"
        proc = run_module("run-ch", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure"), proc.stderr
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "failed"
        assert m["error"].startswith("CHError")
        assert "non-finite norm" in m["error"] and "dt" not in m["error"]

    def test_overflowing_implicit_update_fails_the_sweep(self, tmp_path):
        # run refuses this kernel's t = 0 row (error[init]); eps-sweep builds
        # no rows, so it fails at its first step, where the Newton residual's
        # norm overflows
        cfg = write_cfg(tmp_path / "c.cfg",
                        SMALL + "horizon = 0.01\nkernel_j_l1 = 1e300\n"
                                "eps_grid = 1e-1,5e-2\n")
        out = tmp_path / "o"
        proc = run_module("eps-sweep", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure"), proc.stderr
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "failed"
        assert m["error"].startswith("CHError")
        assert m["derived"]["completed_runs"] == 0


class TestDiagnose:
    def test_report_on_clean_run(self, coupled_run, capsys):
        out = coupled_run["base"] / "diag"
        rc = cli.main(["diagnose", str(coupled_run["out"]),
                       "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mass_conservation: pass" in printed
        rep = json.loads((out / "diagnose.json").read_text())
        assert rep["all_passed"] is True
        checks = rep["checks"]
        assert checks["mass_conservation"]["passed"]
        assert checks["saturation"]["max_abs_phi"] < 1.0
        assert checks["incompressibility"]["passed"]
        manifest = json.loads((coupled_run["out"] / "manifest.json").read_text())
        assert checks["incompressibility"]["tolerance"] == \
            manifest["tolerances"]["div_tolerance"]
        assert checks["gradient_bound"]["passed"]
        assert checks["energy_direction"]["max_prefix"] <= 1e-8
        assert (out / "gradient_bound.csv").exists()

    def test_report_on_run_ch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "epsilon = 1e-2\ninit = stripe\ninit_amplitude = 0.6\n"
                        "velocity = zero\nhorizon = 0.02\nsnapshot_every = 5\n")
        run = tmp_path / "o"
        assert cli.main(["run-ch", "--config", cfg, "--out", str(run)]) == 0
        assert cli.main(["diagnose", str(run)]) == 0
        names = ["mass_conservation", "saturation", "energy_direction",
                 "gradient_bound", "dissipative_envelope"]
        assert capsys.readouterr().out.splitlines()[-5:] == [
            f"{name}: pass" for name in names]
        rep = json.loads((run / "diagnose.json").read_text())
        assert rep["command"] == "run-ch" and sorted(rep["checks"]) == sorted(names)
        assert rep["checks"]["gradient_bound"]["snapshots"] == 3
        envelope = rep["checks"]["dissipative_envelope"]
        assert envelope["k"] == 0.5 and envelope["lambda1"] is None
        assert len((run / "gradient_bound.csv").read_text().splitlines()) == 1 + 3

    def test_compact_mollifier_run(self, tmp_path):
        # energy_direction is not asserted: the series residual uses the
        # end-of-step mu, not the split scheme's a phi1 + F'(phi1) - J*phi0,
        # so its prefix carries an O(dt) term of either sign
        cfg = write_cfg(tmp_path / "c.cfg",
                        SMALL + "kernel_family = compact-mollifier\n"
                        "horizon = 0.02\nsnapshot_every = 5\n")
        run = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(run)]) == 0
        assert cli.main(["diagnose", str(run)]) == 0
        checks = json.loads((run / "diagnose.json").read_text())["checks"]
        for name in ("mass_conservation", "saturation", "incompressibility",
                     "gradient_bound"):
            assert checks[name]["passed"], (name, checks[name])
        assert checks["gradient_bound"]["snapshots"] == 3

    def test_run_stopped_at_its_first_step(self, coupled_run, tmp_path, capsys):
        # a run whose first step fails leaves the t = 0 row alone
        rundir = tmp_path / "run"
        shutil.copytree(coupled_run["out"], rundir)
        series = rundir / "series.csv"
        series.write_text("".join(series.read_text().splitlines(True)[:2]))
        rc = cli.main(["diagnose", str(rundir), "--out", str(tmp_path / "d")])
        assert rc == 0
        assert "dissipative_envelope: pass" in capsys.readouterr().out
        rep = json.loads((tmp_path / "d" / "diagnose.json").read_text())
        assert rep["checks"]["dissipative_envelope"]["status"] == "inconclusive"
        assert "energy_direction" not in rep["checks"]

    def test_missing_rundir_exits_2(self, tmp_path, capsys):
        rc = cli.main(["diagnose", str(tmp_path / "nope")])
        assert rc == 2
        assert "error[io]:" in capsys.readouterr().err


class TestReports:
    def test_kernel_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "c.cfg", "eps_grid = 1e-1,1e-2\n")
        rc = cli.main(["kernel-report", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "kernel_report.json").read_text())
        assert doc["beta_margin"] > 0.0
        assert doc == json.loads(capsys.readouterr().out)
        # one formula for the convex-split surplus: beta_margin is c0
        rc = cli.main(["potential-table", "--config", cfg, "--out", str(out)])
        assert rc == 0
        d = np.genfromtxt(out / "potential_table.csv", delimiter=",", names=True)
        assert np.all(d["c0"] == doc["beta_margin"])

    def test_potential_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "eps_grid = 1e-1,1e-2\n")
        rc = cli.main(["potential-table", "--config", cfg, "--out", str(out)])
        assert rc == 0
        d = np.genfromtxt(out / "potential_table.csv", delimiter=",",
                          names=True)
        d = np.atleast_1d(d)
        assert d.shape[0] == 2
        for col in d.dtype.names:
            assert np.all(np.isfinite(d[col]))
        # lemma constants: same c_q across the family, d_q shrinks with eps
        assert d["c_q"][0] == d["c_q"][1]
        assert d["d_q"][1] < d["d_q"][0]

    def test_potential_table_accepts_tiny_eps(self, tmp_path):
        # the comparison bounds hold for every eps in (0, eps_max]
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "c.cfg",
                        "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                        "eps_grid = 1e-1,1e-13\n")
        rc = cli.main(["potential-table", "--config", cfg, "--out", str(out)])
        assert rc == 0
        d = np.genfromtxt(out / "potential_table.csv", delimiter=",", names=True)
        assert list(d["epsilon"]) == [1e-1, 1e-13]

    def test_potential_table_rejects_zero_eps(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "eps_grid = 1e-1,0\n")
        rc = cli.main(["potential-table", "--config", cfg])
        assert rc == 2
        assert "error[epsilon-range]:" in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
CONFIG_KEYS = st.sampled_from(sorted(DEFAULTS)) | st.text(max_size=8)
CONFIG_LINES = st.lists(
    st.tuples(CONFIG_KEYS, st.text(max_size=16)).map(" = ".join)
    | st.text(max_size=24),
    max_size=6,
).map("\n".join)
ODD_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, 1e-300, 1e-12, 0.05, 0.5, 1.0, 2.0, 1e12, 1e200,
    1e300, 1.7976931348623157e308, -1.0, -1e300,
]) | st.floats(allow_nan=False, allow_infinity=False)
REPORT_KEYS = ("kernel_width", "kernel_j_l1", "theta", "theta_c", "epsilon",
               "grid_lx", "grid_ly")


def first_refused(items, load):
    """The first of items that load refuses on its own."""
    for item in items:
        try:
            load(item)
        except ConfigError:
            return item
    raise AssertionError("the items are refused only together")


def allowed_codes(key):
    """parse, for a syntax, key or type error, and the code the table gives
    key, for a value of its type outside its domain."""
    return {"parse", TABLE[key].code} if key in TABLE else {"parse"}


class TestProperties:
    """Hypothesis: odd input is a typed config or a ConfigError with the
    code of the entry it refuses, and the report commands exit 0 or 2,
    never with a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.text() | CONFIG_LINES)
    def test_parse_config_text(self, text):
        try:
            out = parse_config_text(text)
        except ConfigError as exc:
            line = first_refused(text.splitlines(), parse_config_text)
            key = line.split("#", 1)[0].partition("=")[0].strip()
            assert exc.code in allowed_codes(key)
        else:
            assert set(out) <= set(DEFAULTS)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(block=st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=6)
           | JSON_VALUES)
    def test_manifest_reload(self, tmp_path, block):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "run", "config": block}))
        try:
            cfg = load_config(str(path))
        except ConfigError as exc:
            key = None
            if isinstance(block, dict):
                key, _ = first_refused(block.items(), lambda item: _apply_manifest(
                    dict(DEFAULTS), {"config": dict([item])}))
            assert exc.code in allowed_codes(key)
        else:
            assert set(cfg) == set(DEFAULTS)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cmd=st.sampled_from(["kernel-report", "potential-table"]),
           values=st.dictionaries(st.sampled_from(REPORT_KEYS), ODD_FLOATS,
                                  max_size=2),
           q=st.sampled_from([1, 1, 1, 2, 2, 0, 10**6]))
    @example(cmd="kernel-report", values={"kernel_width": 1e300}, q=1)
    @example(cmd="potential-table", values={"kernel_width": 1e300}, q=1)
    @example(cmd="kernel-report", q=1, values={
        "kernel_j_l1": 1.7976931348623157e308, "kernel_width": 0.5})
    @example(cmd="kernel-report", q=1, values={
        "kernel_j_l1": 1.7976931348623157e308, "kernel_width": 1e12})
    def test_reports_exit_0_or_2(self, tmp_path, cmd, values, q):
        # at most two keys off their defaults, so most draws reach the
        # kernel and potential builds instead of the first rejection
        lines = ["grid_nx = 32", "grid_ny = 32", f"q = {q}",
                 "eps_grid = 1e-1,1e-2"]
        lines += [f"{key} = {val!r}" for key, val in values.items()]
        cfg = write_cfg(tmp_path / "odd.cfg", "\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([cmd, "--config", cfg])
        assert rc in (0, 2)
        if cmd == "kernel-report":  # a report is strict JSON: finite numbers
            assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()


class TestConsoleEntry:
    def test_module_invocation_exit_codes(self, tmp_path):
        bad = write_cfg(tmp_path / "bad.cfg", "epsilon = 0.9\n")
        proc = run_module("run", "--config", bad, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "error[epsilon-range]:" in proc.stderr


# In a fresh interpreter: the stepping and audit commands on a 16^2 grid,
# one step of run-ch on a grid above go.DENSE_MAX_N, then the potential
# table, recording after each whether scipy.optimize and scipy.fft are
# loaded.
FOOTPRINT_SCRIPT = """
import json, sys
from nlchns import cli

out, cfg, sweep, big = sys.argv[1:]
loaded = {}
for name, argv in (
        ("run", ["run", "--config", cfg, "--out", out + "/run"]),
        ("diagnose", ["diagnose", out + "/run"]),
        ("run-ch", ["run-ch", "--config", cfg, "--out", out + "/run-ch"]),
        ("eps-sweep", ["eps-sweep", "--config", sweep, "--out", out + "/sweep"]),
        ("kernel-report", ["kernel-report", "--config", cfg]),
        ("run-ch-big", ["run-ch", "--config", big, "--out", out + "/big"]),
        ("potential-table",
         ["potential-table", "--config", cfg, "--out", out + "/table"])):
    rc = cli.main(argv)
    loaded[name] = [rc, "scipy.optimize" in sys.modules, "scipy.fft" in sys.modules]
print(json.dumps(loaded))
"""


class TestImportFootprint:
    def test_only_the_potential_table_loads_scipy_optimize(self, tmp_path):
        small = "grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
        cfg = write_cfg(tmp_path / "run.cfg",
                        small + "dt = 1e-3\nhorizon = 0.004\nsnapshot_every = 2\n")
        sweep = write_cfg(tmp_path / "sweep.cfg",
                          small + "dt = 1e-3\nhorizon = 0.002\n"
                                  "eps_grid = 1e-1,5e-2\n")
        n = go.DENSE_MAX_N + 4
        big = write_cfg(tmp_path / "big.cfg",
                        f"grid_nx = {n}\ngrid_ny = {n}\nkernel_width = 0.05\n"
                        "dt = 1e-3\nhorizon = 1e-3\n")
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path), cfg, sweep,
             big],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        # only the DCT of a grid above DENSE_MAX_N needs scipy.fft; the
        # potential table loads it through scipy.optimize
        assert loaded.pop("run-ch-big") == [0, False, True]
        assert loaded.pop("potential-table") == [0, True, True]
        assert loaded == {cmd: [0, False, False] for cmd in
                          ("run", "diagnose", "run-ch", "eps-sweep",
                           "kernel-report")}
        table = (tmp_path / "table" / "potential_table.csv").read_text()
        assert table.splitlines()[0].startswith("epsilon,order,")
        assert len(table.splitlines()) == 1 + 5  # the default eps_grid
