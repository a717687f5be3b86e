"""The benchmark's four workloads.

Each drives only public entry points — ``LinguaManga.run_stream``, the
``repro.tasks.curation`` runners over ``LinguaManga.run``, and
``repro.serve.JobQueue`` — on inputs generated from the workload seed.
Set-up builds the inputs and the reference outputs every job is checked
against; a job is one unit of user-visible work, timed as a whole.

Sizes are chosen for a 2-core host: worker counts never exceed ``nproc``,
and a closed-loop job takes about half a second, so a run of 15 seconds
times more than twenty jobs and ``job_tail_s`` lies above the median.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.datasets.curation import CurationCorpus
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.ml.metrics import f1_score
from repro.serve import JobQueue, JobSpec
from repro.serve.jobs import JOB_STATUSES, TERMINAL_STATUSES, result_payload, run_task
from repro.serve.tenancy import TenantRegistry
from repro.tasks.curation import run_decontamination, run_dedup, run_quality_filter

from perfbench.stats import ProcessSample, median, tail
from perfbench.tracing import Recorder, TracedProvider

WORKERS = max(1, min(2, os.cpu_count() or 1))
ER_PAIRS = 500
#: Curation cycles through several small corpora: provider spend hangs on
#: each corpus's duplicate clusters and quality tiers, so one corpus per
#: seed would swing the bill by more than a tenth between seeds.
CURATION_DOCS = 100
CURATION_CORPORA = 6
#: Open-loop arrival rates (jobs/s).  A job takes 10-30 ms on a 2-core
#: host (CPU under the GIL plus three fsyncs), so even the top rate keeps
#: the two workers mostly idle and measures latency, not saturation.
SERVE_RATES = (3.0, 6.0, 9.0)
#: The top rate runs this many times, each on fresh state with its own
#: arrival jitter; its pooled latencies give ``job_p50_s`` and
#: ``job_tail_s``.
SERVE_TOP_REPLICAS = 5
#: Latency limit on ``job_tail_s`` for a rate to count as sustained.
SERVE_TAIL_LIMIT_S = 0.5
#: Share of serve jobs whose dataset ref repeats an earlier job's.
SERVE_REPEAT_SHARE = 0.25
SERVE_TENANTS = 8
SERVE_TASKS = (
    ("imputation", {"n_train": 10, "n_test": 20}),
    ("names", {"n_documents": 16}),
    ("er", {"name": "beer", "n_entities": 40}),
)
#: A top-rate segment is whole rounds of this many jobs, the least common
#: multiple of the tenant and task counts, so every segment holds each
#: tenant's first, second, ... job of each task alike.  A job's latency
#: grows with its tenant's earlier jobs (its cache is larger), so a
#: partial round would put the median in the gap between two rounds.
SERVE_ROUND = 24


def serve_plan() -> list[float]:
    """The rate of each serve segment, in the order they run."""
    return [*SERVE_RATES[:-1], *[SERVE_RATES[-1]] * SERVE_TOP_REPLICAS]


class SetupError(RuntimeError):
    """Set-up produced inconsistent reference outputs."""


@dataclass
class JobOutcome:
    """One timed job: what it did, what it cost, and whether it was right."""

    wall_s: float
    records: int
    provider_calls: int
    cost_usd: float
    f1: float
    ok: bool
    error: str = ""
    #: per-layer values for a traced job
    layers: dict[str, float] = field(default_factory=dict)


def digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def traced_service(recorder: Recorder, **kwargs: Any) -> tuple[LLMService, SimulatedProvider]:
    """A service over a :class:`TracedProvider`, with its instance shims."""
    inner = SimulatedProvider()
    with recorder.span("llm.cache.open"):
        service = LLMService(TracedProvider(inner, recorder), **kwargs)
    recorder.shim_service(service)
    return service, inner


def _service_layers(served: int, cached: int, near_hits: int) -> dict[str, float]:
    """The service's own accounting of a job's LLM calls."""
    return {
        "llm.service.served_calls": served,
        "llm.service.cached_calls": cached,
        "llm.service.near_hits": near_hits,
        "llm.service.hit_ratio": cached / (served + cached) if served + cached else 0.0,
    }


def _report_layers(report: Any) -> dict[str, float]:
    cost = report.cost
    layers = _service_layers(cost.served_calls, cost.cached_calls, cost.near_hits)
    recovery = report.recovery or {}
    if recovery.get("mode") == "streaming":
        layers.update(
            {
                "workqueue.shards": recovery["shards"],
                "workqueue.retries": recovery["shard_failures"],
                "workqueue.poisoned": recovery["quarantined_shards"],
                "workqueue.spill_peak_bytes": recovery["spill_peak_bytes"],
            }
        )
    return layers



class ERStream:
    """Entity resolution streamed through ``run_stream`` into a sink."""

    records = ER_PAIRS
    inputs = 1

    def setup(self, seed: int, workdir: Path, seconds: float) -> dict:
        corpus = StreamingERCorpus(ER_PAIRS, seed=seed)
        pipeline = get_template("entity_resolution").instantiate(examples=corpus.examples())
        # The reference comes from the batch engine over the materialised
        # pairs: the streaming engine must reproduce it verdict for verdict.
        batch = LinguaManga().run(pipeline, {"pairs": list(corpus.inputs())})
        verdicts = [bool(v) for v in next(iter(batch.outputs.values()))]
        return {
            "corpus": corpus,
            "pipeline": pipeline,
            "labels": list(corpus.labels()),
            "digest": digest(verdicts),
        }

    @staticmethod
    def _system(path: Path, recorder: Recorder | None) -> tuple[LinguaManga, SimulatedProvider]:
        if recorder is None:
            system = LinguaManga(cache_path=str(path))
            return system, system.service.provider
        service, inner = traced_service(recorder, cache_path=str(path))
        return LinguaManga(service=service), inner

    @staticmethod
    def _stream(state: dict, system: LinguaManga) -> tuple[Any, list[bool]]:
        verdicts: list[bool] = []
        report = system.run_stream(
            state["pipeline"],
            {"pairs": state["corpus"].inputs()},
            workers=WORKERS,
            source_id=state["corpus"].fingerprint,
            sink=verdicts.extend,
        )
        return report, [bool(v) for v in verdicts]

    @staticmethod
    def _layers(report: Any, system: LinguaManga, path: Path) -> dict:
        return {
            **_report_layers(report),
            "llm.cache.entries": len(system.service.cache),
            "llm.cache.journal_bytes": path.stat().st_size,
        }

    def _outcome(self, state: dict, wall: float, verdicts: list[bool], calls: int, cost: float, errors: list[str], layers: dict) -> JobOutcome:
        if digest(verdicts) != state["digest"]:
            errors.append("verdict digest differs from the batch reference")
        return JobOutcome(
            wall_s=wall,
            records=self.records,
            provider_calls=calls,
            cost_usd=cost,
            f1=f1_score(state["labels"], [int(v) for v in verdicts]),
            ok=not errors,
            error="; ".join(errors),
            layers=layers,
        )


class ERStreamCold(ERStream):
    """Every job starts from an empty cache journal directory."""

    name = "er_stream_cold"

    def job(self, state: dict, index: int, workdir: Path, recorder: Recorder | None = None) -> JobOutcome:
        # A new directory per job, removed with the run's work directory
        # at its end: deleting synced files is slow on some filesystems,
        # and no deletion should compete with the jobs for the disk.
        job_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=workdir))
        path = job_dir / "cache.jsonl"
        started = time.perf_counter()
        system, provider = self._system(path, recorder)
        report, verdicts = self._stream(state, system)
        wall = time.perf_counter() - started
        layers = self._layers(report, system, path) if recorder is not None else {}
        return self._outcome(state, wall, verdicts, provider.calls_served, report.cost.cost, [], layers)


class ERStreamWarm(ERStream):
    """Every job opens the journal set-up wrote, in a fresh system.

    The journal must not change: its digest is checked before and after
    each job, so every job sees identical cache state.  A job's provider
    bill counts the cold fill that wrote the journal plus its own calls —
    the bill of one cold start and one warm restart — so the metric is
    never zero and a warm job that pays the provider still shows.
    """

    name = "er_stream_warm"

    def setup(self, seed: int, workdir: Path, seconds: float) -> dict:
        state = super().setup(seed, workdir, seconds)
        path = workdir / "warm-journal.jsonl"
        system = LinguaManga(cache_path=str(path))
        report, verdicts = self._stream(state, system)
        if digest(verdicts) != state["digest"]:
            raise SetupError("the cold fill differs from the batch reference")
        state.update(
            journal=path,
            journal_digest=file_digest(path),
            fill_calls=system.service.provider.calls_served,
            fill_cost=report.cost.cost,
        )
        return state

    def job(self, state: dict, index: int, workdir: Path, recorder: Recorder | None = None) -> JobOutcome:
        path = state["journal"]
        errors = []
        if file_digest(path) != state["journal_digest"]:
            errors.append("the journal changed before the job")
        started = time.perf_counter()
        system, provider = self._system(path, recorder)
        report, verdicts = self._stream(state, system)
        wall = time.perf_counter() - started
        if file_digest(path) != state["journal_digest"]:
            errors.append("the warm job changed the journal")
        if provider.calls_served:
            errors.append(f"the warm job paid {provider.calls_served} provider calls")
        layers = self._layers(report, system, path) if recorder is not None else {}
        return self._outcome(
            state,
            wall,
            verdicts,
            state["fill_calls"] + provider.calls_served,
            state["fill_cost"] + report.cost.cost,
            errors,
            layers,
        )


CURATION_RUNNERS = (
    ("dedup", run_dedup),
    ("quality", run_quality_filter),
    ("decontam", run_decontamination),
)


class CurationBatch:
    """Dedup, quality filtering and decontamination of one corpus on the
    batch engine, in a fresh system with an in-memory cache per job; job
    ``i`` takes corpus ``i`` modulo ``CURATION_CORPORA``."""

    name = "curation_batch"
    records = 3 * CURATION_DOCS
    inputs = CURATION_CORPORA

    def setup(self, seed: int, workdir: Path, seconds: float) -> dict:
        corpora = [CurationCorpus(CURATION_DOCS, seed=f"{seed}:{k}") for k in range(CURATION_CORPORA)]
        # The sequential engine (no workers) is the reference for the
        # scheduled runs the jobs make.
        references = []
        for corpus in corpora:
            system = LinguaManga()
            reference = {}
            for task, runner in CURATION_RUNNERS:
                result = runner(system, corpus)
                reference[task] = (digest(result.predictions), result.f1)
            references.append(reference)
        return {"corpora": corpora, "references": references}

    def job(self, state: dict, index: int, workdir: Path, recorder: Recorder | None = None) -> JobOutcome:
        corpus = state["corpora"][index % CURATION_CORPORA]
        reference = state["references"][index % CURATION_CORPORA]
        started = time.perf_counter()
        if recorder is None:
            system = LinguaManga()
            provider = system.service.provider
        else:
            service, provider = traced_service(recorder)
            system = LinguaManga(service=service)
        results = {}
        for task, runner in CURATION_RUNNERS:
            if recorder is None:
                results[task] = runner(system, corpus, workers=WORKERS)
            else:
                with recorder.span(f"tasks.curation.{task}"):
                    results[task] = runner(system, corpus, workers=WORKERS)
        wall = time.perf_counter() - started
        errors = [
            f"{task} predictions or F1 differ from the sequential reference"
            for task, result in results.items()
            if (digest(result.predictions), result.f1) != reference[task]
        ]
        layers = {}
        if recorder is not None:
            layers = {
                **_service_layers(
                    sum(r.llm_calls for r in results.values()),
                    sum(r.cached_calls for r in results.values()),
                    sum(r.near_hits for r in results.values()),
                ),
                "llm.cache.entries": len(system.service.cache),
            }
        return JobOutcome(
            wall_s=wall,
            records=self.records,
            provider_calls=provider.calls_served,
            cost_usd=sum(r.cost for r in results.values()),
            f1=sum(r.f1 for r in results.values()) / len(results),
            ok=not errors,
            error="; ".join(errors),
            layers=layers,
        )


def _serve_specs(seed: int, n: int) -> list[JobSpec]:
    """Jobs cycling the three demo apps across the tenants.

    Every ``1 / SERVE_REPEAT_SHARE``-th job of a task repeats the dataset
    ref of a seeded choice among that task's earlier jobs, and the others
    take the task's next dataset in a fixed catalogue.  Within a round of
    ``SERVE_ROUND`` jobs a tenant gets each task once, so a repeat copies
    another tenant's ref and is never a tenant-cache hit.  The traffic mix
    is thus the same for every seed; the seed decides which earlier job
    each repeat copies and, in :func:`_arrivals`, when jobs arrive.
    The set of distinct datasets stays the same, so the mean quality over
    them is comparable across seeds.
    """
    rng = random.Random(f"serve-specs:{seed}")
    period = round(1 / SERVE_REPEAT_SHARE)
    specs: list[JobSpec] = []
    catalogue = {task: 0 for task, _ in SERVE_TASKS}
    seen = {task: 0 for task, _ in SERVE_TASKS}
    for index in range(n):
        task, base = SERVE_TASKS[index % len(SERVE_TASKS)]
        seen[task] += 1
        if seen[task] % period == 0:
            dataset = dict(rng.choice([spec.dataset for spec in specs if spec.task == task]))
        else:
            catalogue[task] += 1
            dataset = dict(base, seed=catalogue[task])
        specs.append(
            JobSpec(
                tenant=f"tenant{index % SERVE_TENANTS}",
                task=task,
                dataset=dataset,
                options={"workers": 1},
            )
        )
    return specs


def _arrivals(seed: int, rate: float, n: int, replica: int) -> list[float]:
    """Seeded arrival offsets (seconds from the segment start): one slot
    per ``1/rate`` seconds, each arrival jittered within its slot.

    Jittered slots rather than a Poisson process keep the offered load of
    every seed the same, so latency percentiles compare across seeds.
    Each replica of a rate draws its own jitter, so the few close arrivals
    that make two jobs overlap do not repeat in every replica.
    """
    rng = random.Random(f"serve-arrivals:{seed}:{rate}:{replica}")
    return [(index + rng.uniform(0.1, 0.9)) / rate for index in range(n)]


class ServeOpenLoop:
    """Open-loop job arrivals into ``JobQueue`` at a few fixed rates.

    Each rate runs on a fresh data directory and provider for an equal
    share of the timed phase, from one submitter thread and one collector
    thread.  A job's latency runs from when it was *due*, so a stalled
    submitter or a growing queue delays every later job.
    """

    name = "serve_open_loop"

    def setup(self, seed: int, workdir: Path, seconds: float) -> dict:
        duration = seconds / len(serve_plan())
        counts = {rate: max(1, round(rate * duration)) for rate in SERVE_RATES}
        top = SERVE_RATES[-1]
        counts[top] = SERVE_ROUND * max(1, round(counts[top] / SERVE_ROUND))
        specs = _serve_specs(seed, max(counts.values()))
        # Sequential reference, run directly on the task runners with the
        # service layout the queue gives each job: a tenant-namespaced
        # cache (here in memory) and one shared provider behind the
        # coalescing hub.  A job's payload depends only on its tenant's
        # earlier jobs, which every segment submits in the same order.
        registry = TenantRegistry(workdir, persist_caches=False)
        reference = []
        for spec in specs:
            registry.job_started(spec.tenant)
            try:
                system = LinguaManga(service=registry.service_for_job(spec.tenant))
                result = run_task(spec, system, workers=int(spec.options["workers"]))
            finally:
                registry.job_finished(spec.tenant)
            reference.append(result_payload(spec, result))
        return {"seed": seed, "counts": counts, "specs": specs, "reference": reference}

    def segment(
        self, state: dict, rate: float, replica: int, workdir: Path, recorder: Recorder | None = None
    ) -> dict:
        """Run one rate's arrivals to completion and check every result."""
        offsets = _arrivals(state["seed"], rate, state["counts"][rate], replica)
        specs = state["specs"][: len(offsets)]
        n = len(specs)
        inner = SimulatedProvider()
        provider = inner if recorder is None else TracedProvider(inner, recorder)
        data_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        queue = JobQueue(data_dir, provider=provider, max_workers=WORKERS)
        transitions: dict[str, dict[str, float]] = {}
        if recorder is not None:
            make_service = queue.registry.service_for_job
            transition = queue.store.transition

            def service_for_job(*args: Any, **kwargs: Any) -> LLMService:
                service = make_service(*args, **kwargs)
                recorder.shim_service(service)
                return service

            def timed_transition(job_id: str, status: str, *args: Any, **kwargs: Any) -> Any:
                transitions.setdefault(job_id, {})[status] = time.perf_counter()
                return transition(job_id, status, *args, **kwargs)

            queue.registry.service_for_job = service_for_job
            queue.store.transition = timed_transition

        lock = threading.Lock()
        job_ids: list[str | None] = [None] * n
        # The record ``submit`` returns is the store's live view of the job.
        records: list[Any] = [None] * n
        refused = [""] * n
        finished = [0.0] * n
        lags = [0.0] * n
        start = time.perf_counter() + 0.05
        dues = [start + offset for offset in offsets]

        def submit_all() -> None:
            for index, spec in enumerate(specs):
                delay = dues[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags[index] = time.perf_counter() - dues[index]
                try:
                    if recorder is None:
                        job = queue.submit(spec)
                    else:
                        with recorder.span("serve.submit"):
                            job = queue.submit(spec)
                except Exception as error:  # noqa: BLE001 - a refusal is a failed job
                    with lock:
                        refused[index] = f"{type(error).__name__}: {error}"
                    continue
                with lock:
                    job_ids[index] = job.job_id
                    records[index] = job

        def collect() -> None:
            """Stamp each job when it is first seen terminal.  The collector
            sleeps on the store's condition, which every transition wakes,
            rather than polling: a poll every millisecond would take the
            GIL from the workers a thousand times a second."""
            pending = set(range(n))
            deadline = dues[-1] + 120.0

            def settled(_: Any = None) -> bool:
                return any(refused[i] or (records[i] is not None and records[i].terminal) for i in pending)

            while pending and time.perf_counter() < deadline:
                anchor = next((record for record in records if record is not None), None)
                if anchor is None:
                    time.sleep(0.001)
                    continue
                try:
                    # Waits for any transition after which a pending job
                    # is settled; the timeout picks up refusals, which
                    # make no transition.
                    queue.store.wait_for(anchor.job_id, JOB_STATUSES, timeout=0.02, predicate=settled)
                except TimeoutError:
                    pass
                now = time.perf_counter()
                with lock:
                    for index in list(pending):
                        if refused[index]:
                            pending.discard(index)
                        elif records[index] is not None and records[index].terminal:
                            finished[index] = now
                            pending.discard(index)

        before = ProcessSample()
        threads = [threading.Thread(target=submit_all), threading.Thread(target=collect)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            if thread.is_alive():
                raise RuntimeError("serve segment did not finish")
        after = ProcessSample()
        caches = [queue.registry.get(tenant).cache for tenant in queue.registry.tenants()]
        queue.close(timeout=120)
        end = max(finished) if all(finished) else time.perf_counter()
        # A refused or unfinished job counts as waiting until the end.
        finished = [at or end for at in finished]

        errors: list[str] = []
        latencies: list[float] = []
        payloads: list[dict] = []
        violating = {violation["job"] for violation in queue.audit_violations}
        for index in range(n):
            record = queue.store.get(job_ids[index]) if job_ids[index] else None
            latencies.append(finished[index] - dues[index])
            if record is None:
                errors.append(f"job {index} refused: {refused[index]}")
            elif record.status != "succeeded":
                errors.append(f"{record.job_id} {record.status}: {record.error}")
            elif record.result != state["reference"][index]:
                errors.append(f"{record.job_id} result differs from the sequential reference")
            elif record.job_id in violating:
                errors.append(f"{record.job_id} hit another tenant's cache entries")
            else:
                payloads.append(record.result)
        result = {
            "rate": rate,
            "jobs": n,
            "failed": n - len(payloads),
            "errors": errors,
            "latencies": latencies,
            "lags": lags,
            "wall_s": end - start,
            # A growing backlog shows as the last quarter of jobs waiting longer.
            "late_latencies": latencies[-max(1, n // 4) :],
            "provider_calls": inner.calls_served,
            "cost_usd": sum(p["cost"] for p in payloads),
            # F1 per distinct dataset (ER and name extraction report one)
            "f1": {
                (specs[i].task, json.dumps(specs[i].dataset, sort_keys=True)): state["reference"][i]["f1"]
                for i in range(n)
                if "f1" in state["reference"][i]
            },
        }
        if recorder is not None:
            running = [
                transitions[job_ids[i]]["running"] - dues[i]
                for i in range(n)
                if job_ids[i] and "running" in transitions.get(job_ids[i], {})
            ]
            run_times = [
                times[status] - times["running"]
                for times in transitions.values()
                for status in TERMINAL_STATUSES
                if status in times and "running" in times
            ]
            result["layers"] = {
                **after.delta(before),
                **_service_layers(
                    sum(p["llm_calls"] for p in payloads),
                    sum(p["cached_calls"] for p in payloads),
                    sum(p["near_hits"] for p in payloads),
                ),
                "llm.cache.entries": sum(len(cache) for cache in caches),
                "llm.cache.journal_bytes": sum(
                    cache.journal.path.stat().st_size
                    for cache in caches
                    if cache.journal is not None and cache.journal.path.exists()
                ),
                "serve.queue_wait_p50_s": median(running),
                "serve.queue_wait_tail_s": tail(running)[0],
                "serve.job_run_p50_s": median(run_times),
                "serve.hub_shared_calls": queue.registry.hub.stats()["shared_calls"],
                "serve.refusals": queue.admission.refusals,
                "serve.store_bytes": queue.store.path.stat().st_size,
                "bench.generator_lag_max_s": max(lags),
            }
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (ERStreamCold(), ERStreamWarm(), CurationBatch(), ServeOpenLoop())
}
