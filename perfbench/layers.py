"""What each per-layer metric should move, written down before measuring.

For each traced metric: the end-to-end metric it should move and on which
workload, and where it is predicted to stay unchanged.  Every result in the
history carries this table, so a later change can be checked against the
prediction it was made under.
"""

from __future__ import annotations

PREDICTIONS: dict[str, str] = {
    "llm.providers.*": (
        "calls, round_trips and busy_s move records_per_s on er_stream_cold, "
        "and less on curation_batch; unchanged on er_stream_warm, where calls are 0"
    ),
    "llm.service.*": (
        "served/cached/near-hit counts and self_s move provider_calls and "
        "provider_cost_usd on er_stream_cold and serve_open_loop; booking "
        "prefetched answers once moves cached_calls but not provider_calls"
    ),
    "llm.cache.*": (
        "open_s and get_s move records_per_s on er_stream_warm; append_s moves "
        "records_per_s on er_stream_cold; unchanged on curation_batch, which has no journal"
    ),
    "workqueue.*": (
        "ledger_s moves records_per_s on er_stream_warm; shards and spill_peak_bytes "
        "move peak_rss_mb on both ER workloads; not exercised by curation_batch"
    ),
    "plan.*": (
        "compile_s and execute_s move records_per_s on curation_batch and job_p50_s "
        "on serve_open_loop; an engine-unification change must keep both steady"
    ),
    "curation.*": (
        "candidates_s and candidate_calls (2 per dedup run today) move records_per_s "
        "on curation_batch; unchanged on both ER workloads"
    ),
    "tasks.curation.*": "dedup_s, quality_s and decontam_s move records_per_s on curation_batch",
    "serve.*": (
        "submit_s, queue wait, job run time, hub sharing, refusals and store_bytes "
        "move job_p50_s, job_tail_s and sustained_jobs_per_s on serve_open_loop"
    ),
    "io.* and proc.*": (
        "durability changes move records_per_s on er_stream_cold and job_tail_s on "
        "serve_open_loop; a parallelism change should raise proc.cpu_per_wall on er_stream_cold"
    ),
    "bench.generator_lag_max_s": "how late the serve submitter ran; large values void that run's latencies",
    "trace.overhead_ratio": "traced over untraced median job time; the cost of the traced run's shims",
}
