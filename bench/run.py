"""aspectarg benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when a result was printed.
``--workload all`` runs every workload in turn, each ending in its own JSON
line.

The workload runs in a fresh interpreter (``worker.py``) as a closed loop
with one client.  Set-up time is measured from starting such an interpreter
to the point where it would send its first timed request, several times per
run, and reported as the median.  Times are scaled to a reference machine
speed (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-ups measured per untraced run, each in its own fresh interpreter.
SETUP_REPEATS = 7
#: Longest a worker may take; a run must end within 180 s.
WORKER_TIMEOUT = 170


def start_worker(workload: str, args, workdir: Path, setup_only: bool):
    """Start a worker and wait for its ``READY`` line; return it and the set-up time."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - started
    if line.strip() != "READY":
        proc.stdout.close()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except BaseException as exc:  # timeout, interrupt or SIGTERM: stop the worker too
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError("worker timed out") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, args, base: Path) -> dict:
    """Run ``workload`` once; an untraced run first times ``SETUP_REPEATS``
    set-ups in workers that stop at ``READY``."""
    setups, raw = [], []
    for i in range(0 if args.trace else SETUP_REPEATS):
        workdir = base / f"{workload}-{args.seed}-{os.getpid()}-setup{i}"
        try:
            before = speed.probe()
            proc, setup = start_worker(workload, args, workdir, setup_only=True)
            finish(proc)
            after = speed.probe()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        raw.append(setup)
        setups.append(setup * 2 * speed.REFERENCE_S / (before + after))
    workdir = base / f"{workload}-{args.seed}-{os.getpid()}"
    try:
        proc, _ = start_worker(workload, args, workdir, setup_only=False)
        out = finish(proc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": median(setups), "unit": "s"}
        result["notes"]["setup_raw_s"] = raw
    return result


def show(workload: str, args, result: dict) -> None:
    notes = result.pop("notes")
    print(f"workload {workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    for name, value in notes.items():
        if name != "problems":
            print(f"  [{name}] {value}")
    for problem in notes.get("problems", []):
        print(f"  problem: {problem}")
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="aspectarg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "aspectarg" / "__init__.py").is_file():
        print(f"error: no aspectarg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_runs"
    base.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = measure(workload, args, base)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        show(workload, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
