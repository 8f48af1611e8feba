#!/usr/bin/env python3
"""Capture the checker's references: the artifacts each pinned config seed
produces on the current source tree.  Run once, at the commit the references
should describe, from the root of a checkout:

    python3 perfbench/capture_refs.py [--workload NAME ...]

Writes ``perfbench/refs/<workload>.json``, one entry per config seed the
workload can select.  For each ``tradeoff`` row it also
stores the standard error of ``air_optimal - air_heuristic`` (both rate
estimates' errors combined), because ``tradeoff.csv`` does not carry one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from run import HERE, OUT_DIR, child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tradeoff_se_bits(config_text: str, csv_text: str) -> list[float]:
    import configparser
    from ofdmpcs.constellation import Distribution, make_constellation
    from ofdmpcs.rates import ChannelSpec, mutual_information
    from ofdmpcs.seeds import derive_seed
    from ofdmpcs.shaping import solve_heuristic

    cp = configparser.ConfigParser()
    cp.read_string(config_text)
    c = make_constellation(cp.get("constellation", "family"),
                           cp.getint("constellation", "order"))
    spec = ChannelSpec(cp.getfloat("channel", "sigma2"))
    n_mc = cp.getint("shaping", "air_n_mc", fallback=100_000)
    seed = cp.getint("run", "seed")
    out = []
    for row in check.csv_rows(csv_text):
        c0 = float(row["c0"])
        masses = [float(row[k]) for k in row if k.startswith("mass_")]
        masses = [m / sum(masses) for m in masses]    # CSV rounds to 9 digits
        mi_seed = derive_seed(derive_seed(seed, f"shape[{c0:.9g}]"), "mba-air")
        opt = mutual_information(c, Distribution.from_ring_mass(c, masses),
                                 spec, n_mc=n_mc, seed=mi_seed)
        heur = mutual_information(c, solve_heuristic(c, c0).distribution,
                                  spec, n_mc=n_mc, seed=mi_seed)
        out.append(math.hypot(opt.std_error, heur.std_error))
    return out


def capture(root: str, workload) -> dict:
    env = child_env(root)
    work = os.path.join(root, OUT_DIR, "capture", workload.name)
    per_seed = {}
    for seed in workload.config_seeds():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        paths = {}
        for name in workload.configs:
            paths[name] = os.path.join(work, f"{name}.ini")
            with open(paths[name], "w") as fh:
                fh.write(workload.render(name, seed))
        entry = {}
        for i, inv in enumerate(workload.invocations):
            out = os.path.join(work, f"{i}-{inv.key}")
            os.makedirs(out)
            subprocess.run([sys.executable, "-m", "ofdmpcs.cli",
                            *inv.argv(paths[inv.config], out)],
                           cwd=root, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            ref = {"files": check.read_artifacts(out)}
            if inv.command == "tradeoff":
                ref["air_se_bits"] = tradeoff_se_bits(
                    workload.render(inv.config, seed),
                    ref["files"]["tradeoff.csv"])
            entry[inv.key] = ref
        per_seed[str(seed)] = entry
        print(f"{workload.name}: config seed {seed} captured", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return per_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    for name in args.workload or sorted(WORKLOADS):
        refs = {"seeds": capture(root, WORKLOADS[name])}
        path = os.path.join(HERE, "refs", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
