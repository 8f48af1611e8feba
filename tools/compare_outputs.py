#!/usr/bin/env python3
"""Compare what two source trees write for every benchmark invocation.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout root holding ``src/ofdmpcs``.  The script renders
every config of ``perfbench/workloads.py`` (loaded from CHANGE_TREE, read
only) for each config seed the workload selects from, and runs every
invocation as a fresh ``python -m ofdmpcs.cli`` process from each tree, in
a scratch directory of its own, with the same relative config and output
paths, so stdout can be compared byte for byte.

It compares the exit code, stdout, stderr and the bytes of every artifact.
A JSON artifact whose bytes differ is compared value by value: a float
that moved is reported as the worst relative change per file and key, and
any other difference (structure, a string, an integer such as ``iters``,
a boolean such as ``converged``, null against a number) counts as a
difference in behaviour.  A CSV artifact whose bytes differ is reported
with the worst relative change per column, and any header or row-count
difference; every CSV difference counts as a difference in behaviour.  The
exit status is 1 when anything other than a JSON float differs, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile


def load_workloads(tree: str) -> dict:
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look it up
    sys.dont_write_bytecode = True          # leave the tree as it is
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run(tree: str, work: str, argv: list[str]):
    """One fresh CLI process from ``tree``: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run([sys.executable, "-m", "ofdmpcs.cli", *argv],
                          cwd=work, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def json_diff(a, b, key: str, floats: dict, other: list) -> None:
    """Walk two JSON values: the worst relative change of each float under
    ``floats[key]``, every other difference appended to ``other``."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b:
            rel = abs(a - b) / max(abs(a), abs(b))
            floats[key] = max(floats.get(key, 0.0), rel)
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            other.append(f"{key}: keys {list(a)} != {list(b)}")
        for k in a.keys() & b.keys():
            json_diff(a[k], b[k], k, floats, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{key}: length {len(a)} != {len(b)}")
        for x, y in zip(a, b):
            json_diff(x, y, key, floats, other)
    elif type(a) is not type(b) or a != b:
        other.append(f"{key}: {a!r} != {b!r}")


def _relative(a: str, b: str) -> float:
    """Relative change between two CSV values; ``inf`` if not both numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
    return rel if math.isfinite(rel) else math.inf


def csv_diff(text_a: str, text_b: str) -> list[str]:
    """What differs between two CSV texts: a header or row-count
    difference, then the worst relative change of each column both hold."""
    rows_a = [line.split(",") for line in text_a.splitlines()]
    rows_b = [line.split(",") for line in text_b.splitlines()]
    head_a, head_b = (rows[0] if rows else [] for rows in (rows_a, rows_b))
    found = []
    if head_a != head_b:
        found.append(f"header {','.join(head_a)!r} != {','.join(head_b)!r}")
    if len(rows_a) != len(rows_b):
        found.append(f"{len(rows_a) - 1} rows != {len(rows_b) - 1}")
    worst = {}
    for col in (c for c in head_a if c in head_b):
        i, j = head_a.index(col), head_b.index(col)
        worst[col] = max((_relative(ra[i], rb[j])
                          for ra, rb in zip(rows_a[1:], rows_b[1:])
                          if i < len(ra) and j < len(rb)), default=0.0)
    moved = [f"{col} {rel:.2g}" for col, rel in worst.items() if rel > 0]
    if moved:
        found.append("worst relative change per column: " + ", ".join(moved))
    return found


def compare_files(out_a: str, out_b: str, floats: dict, other: list,
                  label: str) -> int:
    """Compare two output directories; returns the number of files compared."""
    names_a = sorted(os.listdir(out_a)) if os.path.isdir(out_a) else []
    names_b = sorted(os.listdir(out_b)) if os.path.isdir(out_b) else []
    if names_a != names_b:
        other.append(f"{label}: files {names_a} != {names_b}")
    for name in sorted(set(names_a) & set(names_b)):
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            blob_a, blob_b = fa.read(), fb.read()
        if blob_a == blob_b:
            continue
        if name.endswith(".csv"):
            found = csv_diff(blob_a.decode(), blob_b.decode())
            other.append(f"{label} {name}: bytes differ"
                         + "".join(f"; {line}" for line in found))
            continue
        if not name.endswith(".json"):
            other.append(f"{label} {name}: bytes differ")
            continue
        moved: dict = {}
        found: list = []
        json_diff(json.loads(blob_a), json.loads(blob_b), name, moved, found)
        other.extend(f"{label} {name}: {line}" for line in found)
        for key, rel in moved.items():
            floats[(name, key)] = max(floats.get((name, key), 0.0), rel)
        if moved:
            print(f"{label} {name}: JSON floats moved: " + ", ".join(
                f"{k} {r:.2g}" for k, r in sorted(moved.items())))
    return len(set(names_a) & set(names_b))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout root of the parent")
    ap.add_argument("change", help="checkout root of the change")
    args = ap.parse_args(argv)

    workloads = load_workloads(args.change)
    floats: dict = {}
    other: list = []
    n_invocations = n_files = 0
    scratch = tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        for name, w in workloads.items():
            for seed in w.config_seeds():
                for inv in w.invocations:
                    label = f"{name} seed {seed} {inv.key}"
                    outs = []
                    results = []
                    for side, tree in (("parent", args.parent),
                                       ("change", args.change)):
                        work = os.path.join(scratch, side)
                        shutil.rmtree(work, ignore_errors=True)
                        os.makedirs(work)
                        with open(os.path.join(work, "exp.ini"), "w") as fh:
                            fh.write(w.configs[inv.config].format(seed=seed))
                        results.append(run(tree, work,
                                           inv.argv("exp.ini", "out")))
                        outs.append(os.path.join(work, "out"))
                    for what, a, b in zip(("exit code", "stdout", "stderr"),
                                          *results):
                        if a != b:
                            other.append(f"{label}: {what} differs")
                    n_files += compare_files(*outs, floats, other, label)
                    n_invocations += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{n_invocations} invocations, {n_files} artifacts compared")
    for (name, key), rel in sorted(floats.items()):
        print(f"worst relative JSON float change: {name} {key} {rel:.2g}")
    if other:
        print(f"{len(other)} differences beyond JSON floats:")
        for line in other:
            print(f"  {line}")
        return 1
    print("exit codes, stdout, stderr and every artifact byte-identical, "
          "apart from the JSON floats listed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
