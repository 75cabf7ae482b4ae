"""tools/compare_runs.py, the check that a refactor leaves every output
byte-identical: a tree against itself reads identical, an edited series
value is reported with its column's movement, --diagnose leaves out the
eps-sweep outputs that diagnose does not read, the report commands are
compared too, and the committed identity configs load.  tools/code_lines.py
counts code lines without docstrings, comments and blanks."""

import importlib.util
import pathlib
import shutil

from nlchns import cli
from nlchns import grid_ops as go

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_runs = load_tool("compare_runs")
code_lines = load_tool("code_lines")

FAST_RUN = ("grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
            "horizon = 0.01\ninit_u = swirl\ninit_u_amplitude = 0.2\n")


def test_tree_against_itself_is_identical(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_RUN)
    work = tmp_path / "work"
    src = str(ROOT / "src")
    rc = compare_runs.main([src, src, f"run:{cfg}", "--work", str(work)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.splitlines()[-1] == "all outputs identical"
    assert "  identical  series.csv" in out

    # one edited series value: the file moves, and only its column does
    parent = work / "parent" / "00-fast.cfg"
    change = tmp_path / "edited"
    shutil.copytree(parent, change)
    lines = (change / "series.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    column = header.index("total")
    row[column] = repr(float(row[column]) + 0.5)
    lines[2] = ",".join(row)
    (change / "series.csv").write_text("\n".join(lines) + "\n")

    report, clean = compare_runs.compare_dirs(str(parent), str(change))
    assert not clean
    assert "  moved      series.csv" in report
    assert "  identical  manifest.json (timing aside)" in report
    moves = {line.split()[0]: line.split()[1] for line in report
             if line.startswith("      ")}
    assert float(moves["total"]) == 0.5
    assert all(float(moves[name]) == 0.0 for name in header if name != "total")


def test_diagnose_skips_eps_sweep_outputs(tmp_path, capsys):
    # diagnose reads run and run-ch directories only; on an eps-sweep
    # directory it would exit 2 with error[io] on both sides
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                   "dt = 1e-3\nhorizon = 0.002\neps_grid = 1e-1,5e-2\n")
    src = str(ROOT / "src")
    rc = compare_runs.main([src, src, f"eps-sweep:{cfg}", "--diagnose",
                            "--work", str(tmp_path / "work")])
    captured = capsys.readouterr()
    assert rc == 0, captured.out
    assert "== diagnose eps-sweep" not in captured.out
    assert "error[" not in captured.out + captured.err
    assert "  diagnose does not apply to eps-sweep outputs; skipped" in captured.out


def test_potential_table_is_compared(tmp_path, capsys):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("grid_nx = 16\ngrid_ny = 16\nkernel_width = 0.2\n"
                   "eps_grid = 1e-1,5e-2\n")
    src = str(ROOT / "src")
    rc = compare_runs.main([src, src, f"potential-table:{cfg}",
                            "--work", str(tmp_path / "work")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.splitlines()[-1] == "all outputs identical"
    assert "  identical  potential_table.csv" in out
    assert "  identical  <stdout>" in out


def test_identity_configs_load():
    paths = sorted((ROOT / "tools" / "identity").glob("*.cfg"))
    names = [p.name for p in paths]
    assert names == ["bubble128.cfg", "coupled128.cfg", "forced-periodic.cfg"]
    cfgs = {p.stem: cli.load_config(path=str(p)) for p in paths}
    # the 128^2 configs take the scipy.fft arm of every DCT-II pair
    for name in ("coupled128", "bubble128"):
        assert min(cfgs[name]["grid_nx"], cfgs[name]["grid_ny"]) > go.DENSE_MAX_N


SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment


class Box:
    """A class docstring."""

    # a comment line
    def size(self, x):
        """A function docstring."""
        total = (x +
                 len(os.sep))
        return "a string that is not a docstring"
'''


def test_code_lines_skip_docstrings_comments_and_blanks(capsys):
    # import, class, def, both lines of the assignment, return
    assert code_lines.code_lines(SNIPPET) == 6
    assert code_lines.main([str(ROOT / "tools" / "code_lines.py")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].split()[0] == lines[1].split()[0]
    assert lines[1].split()[1] == "total"
