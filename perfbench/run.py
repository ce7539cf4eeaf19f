"""dpem benchmark: closed-loop CLI workloads with output checks and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload shipped-sweeps --seed 1 --seconds 25 --trace 0

A single client launches one ``python -m dpem.cli`` process at a time (a
closed loop), with ``--jobs`` = min(2, usable CPUs).  Each pass runs the
workload's invocations once and checks every output; every output must be
byte-identical to the first one of its invocation.

``--trace 0`` reports the end-to-end metrics, after one untimed
``--help`` launch that fills the bytecode cache.  ``--trace 1`` first runs an
untimed pass at the other ``--jobs`` value, then alternates untraced passes
with traced ones (``traced_cli.py``) and reports the per-layer metrics, so
--jobs 1, --jobs 2 and traced outputs are all checked against each other.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full report
(environment stamp, samples, digests, layer shares) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
MIN_PASSES = 3          # timed passes per run, at least
MIN_SETUP_SAMPLES = 5   # `dpem.cli --help` launches per run, at least
MIN_TRACED = 2          # traced passes per run, at least (counts must repeat)
STOP_AFTER_S = 140.0    # start no new pass after this long, so a run ends within 180 s
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Launch:
    wall_s: float
    code: int
    maxrss_mb: float


@dataclass
class Pass:
    wall_s: float
    maxrss_mb: float
    records: list = field(default_factory=list)  # traced passes only


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.jobs = max(1, min(2, len(os.sched_getaffinity(0))))
        self.invocations = workloads.WORKLOADS[workload](workdir, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # label -> digest of the first output that passed its checks
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    def launch(self, argv: list[str], log: Path) -> Launch:
        """Run one process to completion and time it from launch to exit.

        A watchdog kills it after PROCESS_TIMEOUT_S.  The child is only
        reaped after the watchdog is disarmed, so the watchdog never signals
        a recycled pid.
        """
        lock, state = threading.Lock(), {"exited": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(pid, signal.SIGKILL)

        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                               (os.POSIX_SPAWN_DUP2, fd, 2)])
        finally:
            os.close(fd)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, kill)
        watchdog.start()
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall_s = time.perf_counter() - start
        finally:
            with lock:
                state["exited"] = True
            watchdog.cancel()
            watchdog.join()
            try:
                os.kill(pid, signal.SIGKILL)  # no-op on a zombie; ends it on interrupt
            except ProcessLookupError:
                pass
            _, status, usage = os.wait4(pid, 0)
        return Launch(wall_s, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def setup_probe(self) -> float:
        self.attempted += 1
        result = self.launch([sys.executable, "-m", "dpem.cli", "--help"], self.workdir / "help.log")
        if result.code != 0:
            self._fail(f"dpem.cli --help exited {result.code}")
        return result.wall_s

    def run_pass(self, tag: str, jobs: int, traced: bool = False) -> Pass:
        """One closed-loop pass over the workload's invocations, outputs checked."""
        records, maxrss = [], 0.0
        start = time.perf_counter()
        for inv in self.invocations:
            out = self.workdir / f"{inv.label}.{tag}.csv"
            cli = [*inv.args, "--out", str(out), "--jobs", str(jobs), "--seed", str(self.seed)]
            spans = self.workdir / f"{inv.label}.{tag}.spans.json"
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *cli]
            else:
                argv = [sys.executable, "-m", "dpem.cli", *cli]
            self.attempted += 1
            result = self.launch(argv, self.workdir / f"{inv.label}.{tag}.log")
            maxrss = max(maxrss, result.maxrss_mb)
            if result.code != 0:
                log = (self.workdir / f"{inv.label}.{tag}.log").read_text(errors="replace")
                self._fail(f"{inv.label} [{tag}] exited {result.code}: {log.strip()[-300:]}")
                continue
            digest, problem = workloads.check_output(inv, out)
            if problem is None and self.reference.setdefault(inv.label, digest) != digest:
                problem = f"{inv.label} [{tag}]: output differs from its first run in this benchmark run"
            if problem is not None:
                self._fail(problem)
                continue
            if traced:
                records.append(json.loads(spans.read_text(encoding="utf-8")))
        return Pass(time.perf_counter() - start, maxrss, records)

    def reference_pass(self) -> Pass:
        """Untimed pass at the other --jobs value, so later passes must match it."""
        other = 1 if self.jobs > 1 else 2
        return self.run_pass(f"jobs{other}", other)


def end_to_end(bench: Bench, seconds: float, started: float):
    bench.setup_probe()  # untimed: fills the bytecode cache of every dpem module
    setup, passes = [], []
    window = time.perf_counter()
    while True:
        setup.append(bench.setup_probe())
        passes.append(bench.run_pass("timed", bench.jobs))
        now = time.perf_counter()
        if (now - window >= seconds and len(passes) >= MIN_PASSES) or now - started > STOP_AFTER_S:
            break
    while len(setup) < MIN_SETUP_SAMPLES and time.perf_counter() - started < STOP_AFTER_S:
        setup.append(bench.setup_probe())

    cells, procs = sum(inv.cells for inv in bench.invocations), len(bench.invocations)
    # Each pass is paired with the setup probe launched just before it, so a
    # slow spell of the machine moves both sides of the difference.
    rates = []
    for probe, p in zip(setup, passes):
        compute_s = p.wall_s - procs * probe
        rates.append(cells / (compute_s if compute_s > 0 else p.wall_s))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cells_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(p.maxrss_mb for p in passes), "MB"),
        "ok_frac": ((bench.attempted - bench.failed) / bench.attempted, "frac"),
    }
    samples = {
        "setup_s": setup,
        "wall_s": [p.wall_s for p in passes],
        "peak_rss_mb": [p.maxrss_mb for p in passes],
        "cells_per_s": rates,
        "cells_per_pass": cells,
        "processes_per_pass": procs,
    }
    return metrics, samples, {}


def per_layer(bench: Bench, seconds: float, started: float):
    reference = bench.reference_pass()
    plain, traced_passes = [], []
    window = time.perf_counter()
    while True:
        plain.append(bench.run_pass("untraced", bench.jobs))
        traced_passes.append(bench.run_pass("traced", bench.jobs, traced=True))
        now = time.perf_counter()
        if ((now - window >= seconds and len(traced_passes) >= MIN_TRACED)
                or now - started > STOP_AFTER_S):
            break

    complete = [p for p in traced_passes if len(p.records) == len(bench.invocations)]
    per_pass = [layers.pass_metrics(p.records) for p in complete]
    missing = sorted({m for p in complete for r in p.records for m in r["missing"]})
    if missing:
        print(f"warning: trace targets not found: {', '.join(missing)}", file=sys.stderr)
    if len(per_pass) < MIN_TRACED:
        bench.problems.append("fewer than two complete traced passes")
        per_pass = per_pass or [layers.pass_metrics([])]
    counts = [exact for _, exact, _, _ in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        bench.problems.append("computed counts differ between traced passes")

    metrics = {}
    for name, unit in layers.METRICS:
        values = [m[name] for m, _, _, _ in per_pass if name in m]
        if values:
            # Counts repeat exactly across passes (checked above); times vary.
            exact = unit in ("computed", "count", "B")
            metrics[name] = (values[0] if exact else statistics.median(values), unit)
    # Cell-time percentiles over the cells of the first two traced passes,
    # so the sample count does not depend on how many passes fit the window.
    # The tail is the largest cell time with at least 10 cells above it.
    cells = sorted(c for _, _, _, cell_s in per_pass[:MIN_TRACED] for c in cell_s)
    tail = len(cells) - 11 if len(cells) > 10 else len(cells) - 1
    metrics["harness.cell_s.p50"] = (statistics.median(cells) if cells else 0.0, "s")
    metrics["harness.cell_s.tail"] = (cells[tail] if cells else 0.0, "s")
    overhead = (statistics.median(p.wall_s for p in traced_passes)
                - statistics.median(p.wall_s for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    shares = {group: statistics.median(s.get(group, 0.0) for _, _, s, _ in per_pass)
              for group in sorted({g for _, _, s, _ in per_pass for g in s})}
    samples = {
        "other_jobs_wall_s": reference.wall_s,
        "traced_wall_s": [p.wall_s for p in traced_passes],
        "untraced_wall_s": [p.wall_s for p in plain],
        "cell_samples": len(cells),
        "cell_tail_pct": 100.0 * (tail + 1) / len(cells) if cells else 0.0,
        "counts": counts[0],
    }
    return metrics, samples, shares


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    stamp = {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": None,
        "git_dirty": None,
    }
    for package in ("numpy", "scipy"):
        try:
            stamp[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            stamp[package] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=False)
        if head.returncode == 0:
            stamp["git_commit"] = head.stdout.strip()
            stamp["git_dirty"] = bool(status.stdout.strip())
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpem" / "cli.py").is_file():
        print(f"error: no dpem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, samples, shares = measure(bench, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bench.failed == 0 and not bench.problems
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for group, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"share {group} = {100.0 * share:.1f}%")
    print(f"fail_frac = {bench.failed}/{bench.attempted}")
    if "other_jobs_wall_s" in samples:
        print(f"untimed pass at the other --jobs value: {samples['other_jobs_wall_s']:.3f} s; "
              f"untraced passes at --jobs {bench.jobs}: median "
              f"{statistics.median(samples['untraced_wall_s']):.3f} s")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": bench.jobs, "environment": environment(),
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems, "reference_digests": bench.reference,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "shares": shares, "samples": samples,
        "elapsed_s": time.perf_counter() - started,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print("env " + json.dumps(report["environment"]))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
