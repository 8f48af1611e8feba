#!/usr/bin/env python3
"""Self-test of the output checker, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it feeds the checker the reference artifacts of config
seed 0 (a clean run of the seed commit), then four corrupted runs: one
invocation exits non-zero, a ring mass is moved to another ring, P_d is
shifted, and a file (a CSV where the workload writes one) is truncated.  The
clean run must score ``failed_frac = 0`` and every corrupted one more than 0
(a workload without P_d skips that case).  Exit code 0 when all of that
holds.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import HERE, Bench, Sample, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def move_ring_mass(text: str) -> str:
    """Move 0.02 of the heaviest ring's mass to a neighbour: the masses still
    sum to 1 but E[A^4] moves."""
    payload = json.loads(text)
    entry = payload[0] if isinstance(payload, list) else payload
    mass = entry["ring_mass"]
    src = max(range(len(mass)), key=mass.__getitem__)
    mass[src] -= 0.02
    mass[src - 1 if src else src + 1] += 0.02
    return json.dumps(payload)


def shift_pd(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("pd")
    for row in rows[1:]:
        p = float(row[col])
        row[col] = repr(p + 0.15 if p < 0.5 else p - 0.15)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def truncate(text: str) -> str:
    return text[:int(len(text) * 0.6)]


# case -> (artifacts to corrupt, the first one a workload has is used)
CORRUPTIONS = {
    "perturbed ring mass": (("shape_optimal.json", "lut.json"), move_ring_mass),
    "shifted P_d": (("pd_curve.csv", "tradeoff.csv"), shift_pd),
    "truncated file": (("air_curve.csv", "tradeoff.csv", "lut.json"),
                       truncate),
}


def failed_frac(bench: Bench, case: str, candidates=(), mutate=None,
                nonzero_exit=False) -> float:
    failed = 0
    invocations = bench.workload.invocations
    present = [name for inv in invocations for name in bench.refs[inv.key]["files"]]
    artifact = next((c for c in candidates if c in present), None)
    if candidates and artifact is None:
        return None                    # the workload writes no such artifact
    for i, inv in enumerate(invocations):
        out = os.path.join(bench.work, "selftest", case.replace(" ", "_"),
                           f"{i}-{inv.key}")
        os.makedirs(out)
        for name, text in bench.refs[inv.key]["files"].items():
            if name == artifact:
                text = mutate(text)
                artifact = None                 # corrupt one invocation only
            with open(os.path.join(out, name), "w", newline="") as fh:
                fh.write(text)
        if nonzero_exit and i == 0:
            argv = [sys.executable, "-m", "ofdmpcs.cli", inv.command,
                    "--config", os.path.join(out, "missing.ini"), "--out", out]
            sample = spawn(argv, bench.env, bench.root, out + ".stderr", 60.0,
                           inv.key)
        else:
            sample = Sample(inv.key, 0.0, 0, "")
        bench.check(sample, out)
        failed += bool(sample.problems)
    return failed / len(invocations)


def main() -> int:
    root = os.getcwd()
    ok = True
    for name, workload in sorted(WORKLOADS.items()):
        with open(os.path.join(HERE, "refs", f"{name}.json")) as fh:
            refs = json.load(fh)["seeds"]
        bench = Bench(root, workload, 0, refs)
        results = {"clean": failed_frac(bench, "clean"),
                   "non-zero exit": failed_frac(bench, "non-zero exit",
                                                nonzero_exit=True)}
        for case, (candidates, mutate) in CORRUPTIONS.items():
            results[case] = failed_frac(bench, case, candidates, mutate)
        for case, frac in results.items():
            if frac is None:
                print(f"{name:14s} {case:22s} n/a")
                continue
            good = (frac == 0.0) if case == "clean" else (frac > 0.0)
            ok &= good
            print(f"{name:14s} {case:22s} failed_frac={frac:.3f} "
                  f"{'ok' if good else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
