#!/usr/bin/env python3
"""ofdmpcs benchmark: CLI wall time on pinned workloads, per-layer spans traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-16qam --seed 0 --seconds 30 --trace 0

``--trace 0`` drives the CLI as users do: one fresh ``python -m ofdmpcs.cli``
process per invocation, one at a time (a closed loop with one client), each
in a fresh output directory.  It repeats the workload's invocation sequence
while the next round still fits in ``--seconds``, checks every artifact
against the reference the seed commit wrote for the same inputs, and prints
the end-to-end metrics (medians over rounds).

``--trace 1`` runs the sequence once untraced and once in-process through
``ofdmpcs.cli.main`` with span wrappers around each layer (``spans.py``),
requires byte-identical artifacts from both, and prints per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch output goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 5            # fresh-interpreter imports per run (median)
INVOCATION_TIMEOUT_S = 120.0
HARD_DEADLINE_S = 160.0      # no new round may be predicted to end later


class Sample:
    """One timed child process."""

    def __init__(self, key, seconds, returncode, stderr):
        self.key = key
        self.seconds = seconds
        self.returncode = returncode
        self.stderr = stderr
        self.problems: list[str] = []
        self.files: dict = {}


def spawn(argv, env, cwd, stderr_path, timeout, key="") -> Sample:
    """Run one child to exit and time it from start to exit.  A child still
    running after ``timeout`` seconds is killed (``returncode`` None).

    The wait blocks in ``waitpid`` and a timer thread does the kill:
    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    add up to 50 ms to every sample."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.01), kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
            timer.join()
            if proc.poll() is None:          # interrupted: leave no child
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t0
        if expired.is_set():
            returncode = None
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Sample(key, elapsed, returncode, stderr)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_record(root, workload, args) -> dict:
    revision = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "config_seed": workload.config_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


class Bench:
    def __init__(self, root, workload, seed, refs):
        self.root = root
        self.workload = workload
        self.refs = refs[str(workload.config_seed(seed))]
        self.work = os.path.join(root, OUT_DIR, workload.name)
        self.env = child_env(root)
        self.t_start = time.perf_counter()
        self.warm = False
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config_paths = {}
        self.contexts = {}
        for name in workload.configs:
            text = workload.render(name, seed)
            path = os.path.join(self.work, f"{name}.ini")
            with open(path, "w") as fh:
                fh.write(text)
            self.config_paths[name] = path
        for inv in workload.invocations:
            self.contexts[inv.key] = check.context(
                workload.render(inv.config, seed), self.refs[inv.key])

    def remaining(self) -> float:
        return HARD_DEADLINE_S - (time.perf_counter() - self.t_start)

    def measure_setup(self, n) -> list[float]:
        """n timed fresh-interpreter imports (after one untimed warm-up that
        writes the bytecode caches, the first time only)."""
        argv = [sys.executable, "-c", "import ofdmpcs.cli"]
        err = os.path.join(self.work, "setup.stderr")
        times = []
        for _ in range(n + (not self.warm)):
            s = spawn(argv, self.env, self.root, err, INVOCATION_TIMEOUT_S)
            if s.returncode != 0:
                raise RuntimeError(f"import ofdmpcs.cli failed:\n{s.stderr}")
            if self.warm:
                times.append(s.seconds)
            self.warm = True
        return times

    def check(self, sample, out_dir, first=None):
        inv_ref = self.refs[sample.key]
        if sample.returncode != 0:
            tail = sample.stderr.strip().splitlines()[-3:]
            sample.problems.append(f"exit code {sample.returncode}: "
                                   + " | ".join(tail))
            return
        sample.files = check.read_artifacts(out_dir)
        sample.problems += check.check_artifacts(
            sample.files, inv_ref, self.contexts[sample.key])
        if first is not None and sample.files != first.files:
            sample.problems.append("artifacts differ from the first round's "
                                   "for the same inputs")

    def run_round(self, index, first_round=None) -> list[Sample]:
        samples = []
        for i, inv in enumerate(self.workload.invocations):
            out = os.path.join(self.work, f"r{index}", f"{i}-{inv.key}")
            os.makedirs(out)
            argv = [sys.executable, "-m", "ofdmpcs.cli",
                    *inv.argv(self.config_paths[inv.config], out)]
            s = spawn(argv, self.env, self.root, out + ".stderr",
                      min(INVOCATION_TIMEOUT_S, self.remaining()), inv.key)
            self.check(s, out, first_round[i] if first_round else None)
            samples.append(s)
        if index:
            shutil.rmtree(os.path.join(self.work, f"r{index}"))
        return samples


def _median_by_key(rounds) -> dict:
    return {s.key: statistics.median(r[i].seconds for r in rounds)
            for i, s in enumerate(rounds[0])}


def _report_problems(samples) -> int:
    failed = 0
    for s in samples:
        if s.problems:
            failed += 1
            print(f"FAILED {s.key}: " + "; ".join(s.problems), file=sys.stderr)
    return failed


def untraced(bench: Bench, seconds: float):
    # Set-up samples are spread over the run (two first, one after each
    # round), since the machine's speed drifts on a scale of seconds.
    setup = bench.measure_setup(2)
    rounds = []
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append(bench.run_round(len(rounds),
                                      rounds[0] if rounds else None))
        took = time.perf_counter() - t_round
        setup += bench.measure_setup(1)
        if (time.perf_counter() - t0 + took > seconds
                or took > bench.remaining()):
            break
    setup += bench.measure_setup(max(0, SETUP_SAMPLES - len(setup)))
    samples = [s for r in rounds for s in r]
    failed = _report_problems(samples)
    med = _median_by_key(rounds)
    air = [a for s in rounds[0] if not s.problems
           for a in check.shaped_air_bits(s.key, s.files)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(med.values()), "s"),
        # the largest max RSS of any child so far: the command processes,
        # and the import-only set-up ones, which are smaller
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                        / 1024.0, "MB"),
        "air_optimal_bits": (statistics.fmean(air) if air else 0.0, "bit"),
    }
    times = {s.key: [round(r[i].seconds, 3) for r in rounds]
             for i, s in enumerate(rounds[0])}
    print(f"{len(rounds)} round(s); setup_s samples "
          f"{[round(t, 3) for t in setup]}; invocation samples "
          f"{json.dumps(times)}", file=sys.stderr)
    return len(samples), failed, metrics


def traced(bench: Bench):
    """One untraced round, then the same invocations in-process, traced."""
    setup = statistics.median(bench.measure_setup(3))
    plain = bench.run_round(0)
    failed = _report_problems(plain)
    plain_wall = sum(s.seconds for s in plain)

    sys.path.insert(0, os.path.join(bench.root, "src"))
    import ofdmpcs.cli
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)
    main = tracer.span("cli.main", ofdmpcs.cli.main)
    roots = []
    changed = 0
    gains = []
    for i, inv in enumerate(bench.workload.invocations):
        out = os.path.join(bench.work, "traced", f"{i}-{inv.key}")
        os.makedirs(out)
        roots.append(len(tracer.spans))
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(inv.argv(bench.config_paths[inv.config], out))
        except (Exception, SystemExit):      # reported, counted as failed
            rc, err = 1, io.StringIO(traceback.format_exc())
        s = Sample(inv.key, 0.0, rc, err.getvalue())
        bench.check(s, out)
        if s.files != plain[i].files:
            s.problems.append("traced artifacts differ from untraced ones")
        failed += _report_problems([s])
        changed += check.changed_artifacts(plain[i].files, bench.refs[inv.key])
        if inv.command == "tradeoff" and not s.problems:
            gains += check.air_gains(s.files)
    tracer.uninstall()

    per_command = dict.fromkeys(COMMANDS, 0.0)
    for inv, r in zip(bench.workload.invocations, roots):
        per_command[inv.command] += tracer.spans[r][2] - tracer.spans[r][1]
    traced_wall = sum(per_command.values())
    net_plain = plain_wall - len(plain) * setup
    metrics = spans.layer_metrics(tracer)
    metrics.update({
        **{f"cli.{c.replace('-', '_')}_s": (v, "s")
           for c, v in per_command.items()},
        "cli.artifacts_changed": (changed, "count"),
        "shaping_ba.air_gain_bits":
            (sum(gains) / len(gains) if gains else 0.0, "bit"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / net_plain - 1.0, "1"),
    })
    shares = {
        "startup_share_of_wall": len(plain) * setup / plain_wall,
        "layer_self_share_of_wall": {
            k: v / plain_wall
            for k, v in spans.layer_self_times(tracer).items()},
        "run_mba_self_share_of_traced_wall":
            metrics["shaping_ba.run_mba_self_s"][0] / traced_wall,
        "per_command_layer_self_shares": {
            inv.key: spans.command_shares(tracer, r)
            for inv, r in zip(bench.workload.invocations, roots)},
    }
    tracer.dump(os.path.join(bench.work, "spans.json"))
    with open(os.path.join(bench.work, "trace_summary.json"), "w") as fh:
        json.dump(shares, fh, indent=1)
    print(json.dumps(shares, indent=1), file=sys.stderr)
    return 2 * len(plain), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ofdmpcs", "cli.py")):
        print("perfbench: no ofdmpcs source tree (src/ofdmpcs) here; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "refs", f"{workload.name}.json")) as fh:
        refs = json.load(fh)["seeds"]

    bench = Bench(root, workload, args.seed, refs)
    record = run_record(root, workload, args)
    with open(os.path.join(bench.work, "run_record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record), file=sys.stderr)

    if args.trace:
        attempted, failed, metrics = traced(bench)
    else:
        attempted, failed, metrics = untraced(bench, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
