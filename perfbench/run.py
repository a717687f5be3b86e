"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload er_stream_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones, plus ``trace.overhead_ratio`` (traced over
untraced median job time).  Metric names and units come from
``BENCHMARK.json``; every job's output is checked against a reference built
in set-up, and the last line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each result is also appended to ``perfbench/results/history.jsonl`` with a
reproducibility record (host, nproc, Python, git SHA, source digest, seed,
input sizes, repeats, and each metric's median and quartiles).  A traced
run writes its spans to ``perfbench/results/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the program and benchmark sources (checkouts carry no git)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed at the
    moment, recorded beside each result so that drift of a shared host can
    be told apart from a change in the program."""
    from perfbench.stats import median

    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return median(times)


def summary(values: list[float]) -> dict:
    from perfbench.stats import quartiles

    q1, med, q3 = quartiles([float(v) for v in values])
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_job(workload, state, index: int, workdir: Path, recorder):
    """One job; an exception is a failed job, not an aborted run."""
    from perfbench.stats import ProcessSample
    from perfbench.tracing import span_metrics
    from perfbench.workloads import JobOutcome

    gc.collect()
    started = time.perf_counter()
    try:
        if recorder is None:
            return workload.job(state, index, workdir)
        with recorder.request(index) as traced, recorder.process_shims():
            before = ProcessSample()
            outcome = workload.job(state, index, workdir, recorder)
            after = ProcessSample()
        outcome.layers.update(after.delta(before))
        outcome.layers.update(span_metrics(traced["spans"], traced["counts"]))
        return outcome
    except Exception as error:  # noqa: BLE001 - counted as a failed job
        traceback.print_exc(file=sys.stderr)
        return JobOutcome(time.perf_counter() - started, 0, 0, 0.0, 0.0, False, repr(error))


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def closed_loop(workload, state, seconds: float, workdir: Path, recorder) -> dict:
    """Jobs back to back in whole rounds over the workload's inputs until
    ``seconds`` have passed.  A traced run follows each untraced job with a
    traced job on the same input, so both see the same conditions."""
    from perfbench.stats import median, peak_rss_mb, tail

    outcomes, traced = [], []
    started = time.perf_counter()
    while len(outcomes) < 4 or time.perf_counter() - started < seconds:
        for index in range(workload.inputs):
            outcomes.append(run_job(workload, state, index, workdir, None))
            if recorder is not None:
                traced.append(run_job(workload, state, index, workdir, recorder))
    elapsed = time.perf_counter() - started
    everything = outcomes + traced
    errors = [o.error for o in everything if not o.ok]
    walls = [o.wall_s for o in outcomes]
    tail_value, percentile, n = tail(walls)
    per_job = {
        "records_per_s": [o.records / o.wall_s for o in outcomes],
        "provider_calls": [o.provider_calls for o in outcomes],
        "provider_cost_usd": [o.cost_usd for o in outcomes],
        "f1": [o.f1 for o in outcomes],
        "job_p50_s": walls,
    }
    # Whole rounds make the means of per-input values exact for a seed.
    metrics = {
        "records_per_s": median(per_job["records_per_s"]),
        "provider_calls": mean(per_job["provider_calls"]),
        "provider_cost_usd": mean(per_job["provider_cost_usd"]),
        "f1": mean(per_job["f1"]),
        "job_p50_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "job_tail_s": tail_value,
        "sustained_jobs_per_s": len(outcomes) / elapsed,
        "success_ratio": 1.0 - len(errors) / len(everything),
    }
    layers = {}
    if traced:
        names = sorted({name for o in traced for name in o.layers})
        layers = {name: median([o.layers.get(name, 0) for o in traced]) for name in names}
        layers["trace.overhead_ratio"] = median([o.wall_s for o in traced]) / median(walls)
        per_job.update({name: [o.layers.get(name, 0) for o in traced] for name in names})
    return {
        "attempted": len(everything),
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
        "layers": layers,
        "per_job": per_job,
        "notes": {
            "jobs": len(outcomes),
            "traced_jobs": len(traced),
            "job_tail_percentile": percentile,
            "job_tail_samples": n,
        },
    }


def open_loop(workload, state, seconds: float, workdir: Path, recorder) -> dict:
    """The serve workload: every segment of the rate plan in turn, or —
    traced — one top-rate segment untraced and then one traced, on the
    same schedule."""
    from perfbench.stats import median, peak_rss_mb, tail
    from perfbench.tracing import span_metrics
    from perfbench.workloads import SERVE_RATES, SERVE_TAIL_LIMIT_S, serve_plan

    top = SERVE_RATES[-1]
    if recorder is None:
        plan = serve_plan()
        segments = []
        for index, rate in enumerate(plan):
            gc.collect()
            segments.append(workload.segment(state, rate, plan[:index].count(rate), workdir))
    else:
        gc.collect()
        segments = [workload.segment(state, top, 0, workdir)]
        gc.collect()
        with recorder.request(1) as traced, recorder.process_shims():
            segments.append(workload.segment(state, top, 0, workdir, recorder))
    rates = {}
    for rate in SERVE_RATES:
        runs = [s for s in segments if s["rate"] == rate]
        if not runs:
            continue
        latencies = [value for s in runs for value in s["latencies"]]
        late = [value for s in runs for value in s["late_latencies"]]
        tail_value, percentile, n = tail(latencies)
        rates[rate] = {
            "latencies": latencies,
            "p50": median(latencies),
            "tail": tail_value,
            "percentile": percentile,
            "n": n,
            "sustained": tail_value <= SERVE_TAIL_LIMIT_S and median(late) <= SERVE_TAIL_LIMIT_S,
            "achieved": sum(s["jobs"] - s["failed"] for s in runs) / sum(s["wall_s"] for s in runs),
        }
    attempted = sum(s["jobs"] for s in segments)
    failed = sum(s["failed"] for s in segments)
    sustained = [r for r in rates.values() if r["sustained"]]
    f1 = list({key: value for s in segments for key, value in s["f1"].items()}.values())
    metrics = {
        "records_per_s": (attempted - failed) / sum(s["wall_s"] for s in segments),
        "provider_calls": sum(s["provider_calls"] for s in segments),
        "provider_cost_usd": sum(s["cost_usd"] for s in segments),
        "f1": sum(f1) / len(f1) if f1 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "job_p50_s": rates[top]["p50"],
        "job_tail_s": rates[top]["tail"],
        "sustained_jobs_per_s": sustained[-1]["achieved"] if sustained else 0.0,
        "success_ratio": 1.0 - failed / attempted,
    }
    layers = {}
    if recorder is not None:
        layers = dict(segments[1]["layers"])
        layers.update(span_metrics(traced["spans"], traced["counts"]))
        layers["trace.overhead_ratio"] = median(segments[1]["latencies"]) / median(segments[0]["latencies"])
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for s in segments for e in s["errors"]],
        "metrics": metrics,
        "layers": layers,
        "per_job": {"job_p50_s": rates[top]["latencies"]},
        "notes": {
            "segments_jobs_per_s": [s["rate"] for s in segments],
            "jobs_per_segment": [s["jobs"] for s in segments],
            "p50_s_per_rate": {rate: r["p50"] for rate, r in rates.items()},
            "tail_s_per_rate": {rate: r["tail"] for rate, r in rates.items()},
            "sustained_per_rate": {rate: r["sustained"] for rate, r in rates.items()},
            "tail_limit_s": SERVE_TAIL_LIMIT_S,
            "generator_lag_max_s": max(max(s["lags"]) for s in segments),
            "job_tail_percentile": rates[top]["percentile"],
            "job_tail_samples": rates[top]["n"],
        },
    }


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in turn, each in its own process."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [
            sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.tracing import Recorder
        from perfbench.workloads import WORKLOADS, ServeOpenLoop
    except ImportError as error:
        print(f"error: the program under test is missing ({error}); run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    # The program makes temporary ledgers and spill files; keep them here.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    host_before = host_loop_s()
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            # Each set-up writes into a new directory; nothing is deleted
            # until the run ends (see ERStreamCold.job).
            setup_dir = workdir / f"setup{repeat}"
            setup_dir.mkdir()
            gc.collect()
            started = time.perf_counter()
            state = workload.setup(args.seed, setup_dir, seconds)
            setup_times.append(time.perf_counter() - started)
        recorder = Recorder() if args.trace else None
        loop = open_loop if isinstance(workload, ServeOpenLoop) else closed_loop
        result = loop(workload, state, seconds, workdir, recorder)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from perfbench.layers import PREDICTIONS
    from perfbench.stats import median

    result["notes"]["host_loop_s"] = [host_before, host_loop_s()]
    result["metrics"]["setup_s"] = median(setup_times)
    result["per_job"]["setup_s"] = setup_times
    if args.trace:
        wanted = spec["per_layer"]
        values = result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = result["metrics"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    nonfinite = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    for name in nonfinite:
        result["errors"].append(f"{name} is not finite")
        metrics[name]["value"] = 0.0
    correct = result["failed"] == 0 and not nonfinite

    for error in result["errors"][:20]:
        print(f"FAILED: {error}")
    print(f"{args.workload} seed={args.seed} seconds={seconds:g} trace={args.trace} correct={correct}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["notes"].items():
        print(f"  note {name}: {value}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "sizes": workload_sizes(args.workload),
        "setup_repeats": SETUP_REPEATS,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "notes": result["notes"],
        "predictions": PREDICTIONS if args.trace else None,
        "metrics": {
            name: {**metric, **summary(result["per_job"].get(name, [metric["value"]]))}
            for name, metric in metrics.items()
        },
    }
    with (RESULTS / "history.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if recorder is not None:
        recorder.dump(RESULTS / f"spans-{args.workload}.jsonl")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


def workload_sizes(name: str) -> dict:
    from perfbench import workloads as w

    if name.startswith("er_stream"):
        return {"pairs": w.ER_PAIRS, "workers": w.WORKERS}
    if name == "curation_batch":
        return {
            "documents": w.CURATION_DOCS,
            "corpora": w.CURATION_CORPORA,
            "tasks": len(w.CURATION_RUNNERS),
            "workers": w.WORKERS,
        }
    return {
        "segments_jobs_per_s": w.serve_plan(),
        "top_rate_round_jobs": w.SERVE_ROUND,
        "tenants": w.SERVE_TENANTS,
        "repeat_share": w.SERVE_REPEAT_SHARE,
        "max_workers": w.WORKERS,
        "datasets": {task: ref for task, ref in w.SERVE_TASKS},
    }


if __name__ == "__main__":
    sys.exit(main())
