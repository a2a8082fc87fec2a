"""One workload process: set up, then run the closed loop (or the traced run).

Started by ``run.py`` in a fresh interpreter.  It imports ``aspectarg`` from
the checkout's ``src``, writes the seed's input files into its work
directory and prints ``READY``; everything after that line is timed or
verified.  The last line of its standard output is a JSON object of results.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import speed
import workloads
from verify import check_answer, load_digests, step_digest

ROOT = Path(__file__).resolve().parent.parent

#: Percentiles the tail metric may report; the highest one with at least
#: ``TAIL_BEYOND`` samples above it, at the workload's nominal pass count, is
#: used.
TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_BEYOND = 10


def import_program():
    """Import ``aspectarg`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "aspectarg" / "__init__.py").is_file():
        raise SystemExit(f"no aspectarg sources under {src}")
    sys.path.insert(0, str(src))
    import aspectarg
    from aspectarg import cli

    if Path(aspectarg.__file__).resolve().parent != (src / "aspectarg").resolve():
        raise SystemExit(f"imported aspectarg from {aspectarg.__file__}, not from {src}")
    return cli


def write_inputs(plan, directory: Path) -> None:
    directory.mkdir(parents=True)
    for name, data in plan.files.items():
        (directory / name).write_bytes(data)


def run_request(cli, request) -> tuple[list[int], list[str]]:
    codes, outputs = [], []
    for argv in request.steps:
        out, err = io.StringIO(), io.StringIO()
        codes.append(cli.run(list(argv), out, err))
        outputs.append(out.getvalue())
    return codes, outputs


def digests_of(request, codes, outputs) -> list:
    out = []
    for argv, code, stdout in zip(request.steps, codes, outputs):
        written = None
        if "-o" in argv and code == 0:
            written = Path(argv[argv.index("-o") + 1]).read_bytes()
        out.append(step_digest(code, stdout, written))
    return out


def tail_percentile(samples: int) -> int:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` of
    ``samples`` beyond it, by the nearest-rank rule."""
    chosen = None
    for pct in TAIL_LADDER:
        if samples - _rank(pct, samples) >= TAIL_BEYOND:
            chosen = pct
    if chosen is None:
        raise SystemExit(f"{samples} samples are too few for a tail percentile")
    return chosen


def _rank(pct: int, n: int) -> int:
    return max(1, -(-pct * n // 100))  # nearest rank: ceil(pct% of n)


def percentile(values: list[float], pct: int) -> float:
    return sorted(values)[_rank(pct, len(values)) - 1]


def typical(samples: list[float], n: int) -> tuple[float, float]:
    """Median latency and throughput of a schedule of ``n`` requests, from
    each request's median over the passes, so that every request counts
    once whatever the number of passes."""
    per_request = [median(samples[i::n]) for i in range(n)]
    return median(per_request), n / sum(per_request)


def window_tails(samples: list[float], size: int, pct: int) -> list[float]:
    """The ``pct`` percentile of each window of ``size`` consecutive samples;
    the samples after the last full window join it."""
    count = max(1, len(samples) // size)
    bounds = [i * size for i in range(count)] + [len(samples)]
    return [percentile(samples[a:b], pct) for a, b in zip(bounds, bounds[1:])]


class Pass:
    """Results of running every request of a plan once."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.bytes = 0


def run_pass(cli, requests, digests, problems, first_seen=None, outdir=None, hook=None) -> Pass:
    """Run ``requests`` in order, each after the previous one ends.

    The clock covers the ``cli.run`` calls only.  Each result is compared with
    its recorded digest.  With ``first_seen``, the first result of each
    request is kept on disk for the answer checks made after the loop.
    ``hook(index)`` is called before each request and ``hook(None)`` after it.
    """
    result = Pass()
    for index, request in enumerate(requests):
        if hook:
            hook(index)
        started = perf_counter()
        try:
            codes, outputs = run_request(cli, request)
        except Exception:  # a crash is a failed request, not a failed benchmark
            result.latencies.append(perf_counter() - started)
            result.failed += 1
            problems.append(f"{request.key}: raised\n{traceback.format_exc()}")
            continue
        finally:
            if hook:
                hook(None)
        result.latencies.append(perf_counter() - started)
        result.bytes += sum(len(o.encode()) for o in outputs)
        got = digests_of(request, codes, outputs)
        if got != digests.get(request.key):
            result.failed += 1
            problems.append(f"{request.key}: digest {got} differs from {digests.get(request.key)}")
        elif first_seen is not None and request.key not in first_seen:
            path = outdir / f"{len(first_seen)}.json"
            path.write_text(json.dumps({"codes": codes, "outputs": outputs}), encoding="utf-8")
            first_seen[request.key] = (request, path)
    return result


def check_answers(first_seen: dict, problems: list) -> set[str]:
    """Keys whose answers fail the checks beyond the digest."""
    wrong = set()
    for key, (request, path) in first_seen.items():
        saved = json.loads(path.read_text(encoding="utf-8"))
        try:
            found = check_answer(request, saved["codes"], saved["outputs"])
        except Exception:
            found = [f"answer check raised\n{traceback.format_exc()}"]
        if found:
            wrong.add(key)
            problems.extend(f"{key}: {p}" for p in found)
    return wrong


def self_check(workload: str, seed: int, plan) -> list[str]:
    """Same seed, same input files and schedule; another seed, another
    schedule.  Seeds differ only in the order of a fixed item list, so the
    input files of every seed are the same."""
    problems = []
    if workloads.plan(workload, seed, ROOT).fingerprint() != plan.fingerprint():
        problems.append("the same seed generated different inputs or another schedule")
    other = workloads.plan(workload, seed + 1, ROOT)
    if [r.key for r in other.requests] == [r.key for r in plan.requests]:
        problems.append("another seed generated the same schedule")
    return problems


def timed_run(cli, plan, args, workdir: Path) -> dict:
    digests = load_digests()
    first_seen: dict = {}
    problems: list[str] = []
    passes: list[Pass] = []
    outdir = workdir / "answers"
    outdir.mkdir()
    meter = speed.Speedometer()
    nominal = workloads.NOMINAL_PASSES[args.workload]
    started = perf_counter()
    while perf_counter() - started < args.seconds or len(passes) < nominal:
        passes.append(run_pass(cli, plan.requests, digests, problems, first_seen, outdir,
                               hook=meter.on_request))
    meter.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = check_answers(first_seen, problems)
    raw = [x for p in passes for x in p.latencies]
    attempted = len(raw)
    failed = sum(p.failed for p in passes) + len(passes) * sum(
        1 for r in plan.requests if r.key in wrong
    )
    problems += self_check(args.workload, args.seed, plan)
    scaled = [x * f for x, f in zip(raw, meter.factors())]
    n = len(plan.requests)
    p50, throughput = typical(scaled, n)
    p50_raw, throughput_raw = typical(raw, n)
    # the tail is taken per window of the nominal pass count and its median
    # reported, so that a slow spell the probes miss spoils one window only
    pct = tail_percentile(n * nominal)
    tails = window_tails(scaled, n * nominal, pct)
    metrics = {
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_tail_ms": (median(tails) * 1000, "ms"),
        "throughput_rps": (throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "correct_frac": ((attempted - failed) / attempted, "frac"),
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {
            "tail_percentile": pct,
            "samples": attempted,
            "tail_windows": len(tails),
            "tail_window_samples": n * nominal,
            "samples_beyond_tail_per_window": n * nominal - _rank(pct, n * nominal),
            "passes": len(passes),
            "probe_median_ms": meter.probe_median() * 1000,
            "latency_p50_raw_ms": p50_raw * 1000,
            "latency_tail_raw_ms": median(window_tails(raw, n * nominal, pct)) * 1000,
            "throughput_raw_rps": throughput_raw,
            "error_frac": failed / attempted,
            "problems": problems[:20],
        },
    }


def traced_run(cli, plan, args, workdir: Path) -> dict:
    """Untraced and traced passes in turn; traced passes alternate between
    two generations of the same seed, and their counts must agree."""
    from spans import Recorder

    second = workloads.plan(args.workload, args.seed, ROOT)
    write_inputs(second, workdir / "inputs2")
    generations = [(workdir / "inputs", plan), (workdir / "inputs2", second)]

    digests = load_digests()
    problems: list[str] = []
    first_seen: dict = {}
    outdir = workdir / "answers"
    outdir.mkdir()
    untraced: list[Pass] = []
    traced: list[tuple[Recorder, Pass]] = []
    meter = speed.Speedometer()
    elapsed = 0.0
    while elapsed < args.seconds or len(traced) < 2:
        directory, generation = generations[len(traced) % 2]
        os.chdir(directory)
        untraced.append(run_pass(cli, generation.requests, digests, problems,
                                 hook=meter.on_request))
        recorder = Recorder()

        def hook(index, recorder=recorder):
            meter.on_request(index)
            recorder.on_request(index)

        recorder.install()
        try:
            result = run_pass(cli, generation.requests, digests, problems, first_seen, outdir,
                              hook=hook)
        finally:
            recorder.uninstall()
        traced.append((recorder, result))
        elapsed += sum(untraced[-1].latencies) + sum(result.latencies)
    meter.finish()

    os.chdir(workdir / "inputs")
    wrong = check_answers(first_seen, problems)
    counts = [rec.counts() for rec, _ in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"per-layer counts differ between passes: {counts}")
    counts = counts[0]
    problems += self_check(args.workload, args.seed, plan)
    traced[0][0].write_spans(ROOT / ".bench_runs" / f"spans-{args.workload}-{args.seed}.jsonl")

    metrics: dict[str, tuple[float, str]] = {}
    for name, value in counts.items():
        if name != "model.lookup_unique_keys":
            metrics[name] = (value, "count")
    calls = counts["model.lookup_calls"]
    metrics["model.lookup_unique_ratio"] = (
        counts["model.lookup_unique_keys"] / calls if calls else 0.0, "ratio")
    times = [rec.times() for rec, _ in traced]
    for name in times[0]:
        metrics[name] = (median(t[name] for t in times), "s")
    metrics["report.bytes"] = (traced[0][1].bytes, "bytes")
    # pass times are scaled like the timed run's, so that the overhead is
    # not lost in the machine's changes of speed
    in_order = [p for plain, (_, result) in zip(untraced, traced) for p in (plain, result)]
    factors = iter(meter.factors())
    seconds = [sum(x * next(factors) for x in p.latencies) for p in in_order]
    untraced_s = median(seconds[0::2])
    traced_s = median(seconds[1::2])
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    attempted = sum(len(p.latencies) for _, p in traced)
    failed = sum(p.failed for _, p in traced) + len(traced) * sum(
        1 for r in plan.requests if r.key in wrong
    )
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {
            "traced_passes": len(traced),
            "traced_pass_raw_s": median(sum(p.latencies) for _, p in traced),
            "problems": problems[:20],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    cli = import_program()
    plan = workloads.plan(args.workload, args.seed, ROOT)
    write_inputs(plan, workdir / "inputs")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    os.chdir(workdir / "inputs")
    if args.trace:
        result = traced_run(cli, plan, args, workdir)
    else:
        result = timed_run(cli, plan, args, workdir)
    os.chdir(ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
