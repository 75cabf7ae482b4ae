"""Run nlchns under two source trees and report how their outputs differ.

usage: python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC CONFIG...
           [--seed N] [--diagnose] [--work DIR]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts (a
checkout's root works too).  Each CONFIG is ``[COMMAND:]SOURCE``: COMMAND
is ``run`` (the default), ``run-ch``, ``eps-sweep``, ``potential-table`` or
``kernel-report``, and SOURCE a config file, or else a preset name, e.g.
``spinodal-2d``, ``run-ch:stripe-ch`` or ``run:cfg/forced.cfg``.  For each
config, ``python3 -m nlchns.cli`` runs once with PYTHONPATH set to each
tree, and each output file is compared:

- JSON files after dropping the keys that record a time or a place
  (``timing`` of manifest.json, ``rundir`` of diagnose.json);
- every other file, and stdout, byte for byte.

A file that differs is reported by how far its numbers moved: each CSV
column as max |change| and as max |change| / max |parent column| (nan
matching nan), each .fld snapshot likewise over its payload, and each JSON
file by the entries that changed.  With --diagnose, ``diagnose`` then
runs on each run and run-ch directory (not on eps-sweep outputs, which it
does not read) and its report is compared the same way.  The exit status
is 0 when every file matches and 1 otherwise.

The identity check of a refactor, run from a checkout's root, covers the
flagship preset, both transport presets, the eps sweep, the three configs
under tools/identity (the 128^2 ones take the scipy.fft arm of every DCT
pair) and both report commands:

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC spinodal-2d \
        run-ch:stripe-ch run-ch:bubble-ch eps-sweep:cauchy-sweep \
        run:tools/identity/coupled128.cfg \
        run-ch:tools/identity/bubble128.cfg \
        run:tools/identity/forced-periodic.cfg \
        potential-table:cauchy-sweep kernel-report:spinodal-2d --diagnose
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# keys that differ between two runs of the same code
VOLATILE = {"manifest.json": ("timing",), "diagnose.json": ("rundir",)}
COMMANDS = ("run", "run-ch", "eps-sweep", "potential-table", "kernel-report")
DIAGNOSED = ("run", "run-ch")  # the outputs diagnose reads
FLD_HEADER = 48  # magic, <qqddd (n0, n1, hx, hy, t)


def source_dir(path):
    path = os.path.abspath(path)
    nested = os.path.join(path, "src")
    return nested if os.path.isdir(os.path.join(nested, "nlchns")) else path


def parse_config(spec):
    """(command, cli arguments) of one CONFIG argument."""
    command, _, source = spec.rpartition(":")
    command = command or "run"
    if command not in COMMANDS:
        raise SystemExit(f"unknown command {command!r} in {spec!r}")
    if os.path.isfile(source):
        return command, ["--config", os.path.abspath(source)]
    return command, ["--preset", source]


def run_cli(src, args, out):
    """Run the CLI of one tree; returns (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "nlchns.cli", *args, "--out", out],
                          env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 3):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def move(old, new):
    """max |new - old| as text, followed by its ratio to max |old|; nan
    matching nan in place counts as no change."""
    both_nan = np.isnan(old) & np.isnan(new)
    delta = np.where(both_nan, 0.0, np.abs(new - old))
    change = np.inf if np.any(np.isnan(delta)) else np.max(delta, initial=0.0)
    top = np.max(np.abs(np.where(both_nan, 0.0, old)), initial=0.0)
    rel = 0.0 if change == 0.0 else change / top if top > 0.0 else np.inf
    return f"{change:.3g}  (relative {rel:.3g})"


def _read_csv(path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return names, body


def csv_moves(old_path, new_path):
    """Lines of per-column movement between two CSV tables."""
    old_names, old = _read_csv(old_path)
    new_names, new = _read_csv(new_path)
    if old_names != new_names or old.shape != new.shape:
        return [f"      shape {old.shape} -> {new.shape}, header "
                f"{'same' if old_names == new_names else 'differs'}"]
    return [f"      {name:<20} {move(old[:, k], new[:, k])}"
            for k, name in enumerate(old_names)]


def fld_moves(old, new):
    """The movement of a snapshot's payload, given both files' bytes."""
    if old[:FLD_HEADER] != new[:FLD_HEADER] or len(old) != len(new):
        return ["      header or size differs"]
    old, new = (np.frombuffer(b, dtype=float, offset=FLD_HEADER) for b in (old, new))
    return ["      payload " + move(old, new)]


def json_moves(old, new, path=""):
    """Lines naming each changed leaf of two JSON documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(set(old) | set(new))
                for line in json_moves(old.get(key), new.get(key), f"{path}.{key}")]
    if old == new:
        return []
    return [f"      {path or '.'}: {old!r} -> {new!r}"]


def load(name, path):
    """The bytes of a file, or for JSON its document without VOLATILE keys."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not name.endswith(".json"):
        return blob
    doc = json.loads(blob)
    for key in VOLATILE.get(name, ()):
        doc.pop(key, None)
    return doc


def compare_dirs(old_dir, new_dir):
    """(lines, all identical) over the files of two output directories."""
    old_files = set(os.listdir(old_dir)) if os.path.isdir(old_dir) else set()
    new_files = set(os.listdir(new_dir)) if os.path.isdir(new_dir) else set()
    lines, clean = [], True
    for name in sorted(old_files | new_files):
        if name not in old_files or name not in new_files:
            side = "parent" if name in old_files else "change"
            lines.append(f"  only in {side}  {name}")
            clean = False
            continue
        old_path, new_path = os.path.join(old_dir, name), os.path.join(new_dir, name)
        aside = VOLATILE.get(name)
        label = f"{name} ({', '.join(aside)} aside)" if aside else name
        old, new = load(name, old_path), load(name, new_path)
        if old == new:
            lines.append(f"  identical  {label}")
            continue
        clean = False
        lines.append(f"  moved      {label}")
        if name.endswith(".csv"):
            lines += csv_moves(old_path, new_path)
        elif name.endswith(".fld"):
            lines += fld_moves(old, new)
        elif name.endswith(".json"):
            lines += json_moves(old, new)
    return lines, clean


def compare(label, runs):
    """Print the comparison of one pair of (exit code, stdout, outdir)."""
    (old_rc, old_out, old_dir), (new_rc, new_out, new_dir) = runs
    print(f"== {label}  exit {old_rc} -> {new_rc}")
    lines, clean = compare_dirs(old_dir, new_dir)
    same_stdout = old_out == new_out
    lines.append(f"  {'identical' if same_stdout else 'moved    '}  <stdout>")
    print("\n".join(lines))
    return clean and same_stdout and old_rc == new_rc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed passed to every run")
    parser.add_argument("--diagnose", action="store_true",
                        help="also compare diagnose on each run directory")
    parser.add_argument("--work", default=None,
                        help="directory for the outputs (default: a new "
                             "temporary directory, kept)")
    args = parser.parse_args(argv)
    trees = (("parent", source_dir(args.parent_src)),
             ("change", source_dir(args.change_src)))
    work = args.work or tempfile.mkdtemp(prefix="compare_runs_")
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    print(f"outputs under {work}")
    clean = True
    for index, spec in enumerate(args.configs):
        command, source = parse_config(spec)
        tag = f"{index:02d}-{os.path.basename(spec.rpartition(':')[2])}"
        runs, reports = [], []
        for side, src in trees:
            out = os.path.join(work, side, tag)
            runs.append((*run_cli(src, [command, *source, *seed], out), out))
            if args.diagnose and command in DIAGNOSED:
                report = os.path.join(work, side, tag + "-diagnose")
                reports.append((*run_cli(src, ["diagnose", out], report), report))
        clean = compare(spec, runs) and clean
        if reports:
            clean = compare(f"diagnose {spec}", reports) and clean
        elif args.diagnose:
            print(f"  diagnose does not apply to {command} outputs; skipped")
    print("all outputs identical" if clean else "outputs differ")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
