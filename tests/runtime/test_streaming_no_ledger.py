"""``run_stream`` without ``ledger_path``: an in-memory ledger, no files left.

A run that asked for no durability writes no shard-ledger file, spills to
a private temporary directory only while shards are in flight, removes
that directory whether the run succeeds or raises, and reports exactly
what a durable run over the same inputs reports.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

from repro.core.dsl.operators import LogicalOperator
from repro.core.dsl.pipeline import Pipeline
from repro.core.compiler.context import CompilerContext
from repro.core.compiler.plan import BoundOperator, PhysicalPlan
from repro.core.modules.custom import CustomModule
from repro.core.runtime.checkpoint import CheckpointJournal
from repro.core.runtime.system import LinguaManga
from repro.core.runtime.workqueue import ShardLedger, StreamingExecutor
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.llm.faults import CrashInjected, CrashPoint
from tests.conftest import assert_reports_identical
from tests.runtime.test_streaming_executor import Flaky

N_PAIRS = 32


def run_er(ledger_path=None, cache_path=None, workers=1, **kwargs):
    corpus = StreamingERCorpus(N_PAIRS, seed=11)
    pipeline = get_template("entity_resolution").instantiate(
        examples=corpus.examples()
    )
    system = LinguaManga(cache_path=str(cache_path) if cache_path else None)
    return system.run_stream(
        pipeline,
        {"pairs": corpus.inputs()},
        workers=workers,
        chunk_size=8,
        ledger_path=ledger_path,
        source_id=corpus.fingerprint,
        **kwargs,
    )


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """Point :mod:`tempfile` at a fresh, empty directory."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return scratch


def no_journal(monkeypatch):
    def refuse(self, record, durable=False):
        raise AssertionError(f"a ledger-less run appended to {self.path}")

    monkeypatch.setattr(CheckpointJournal, "append", refuse)


class TestNoTempLeak:
    def test_successful_run_leaves_nothing(self, private_tmp, monkeypatch):
        no_journal(monkeypatch)
        report = run_er(workers=2)
        assert report.recovery["spill_writes"] == N_PAIRS // 8  # shards did spill
        assert report.recovery["journaled_shards"] == N_PAIRS // 8
        assert list(private_tmp.iterdir()) == []

    def test_crashed_run_leaves_nothing(self, private_tmp, monkeypatch):
        no_journal(monkeypatch)
        crash = CrashPoint("shard:executed", hits=2)
        with pytest.raises(CrashInjected):
            run_er(workers=2, crash=crash)
        assert crash.fired
        assert list(private_tmp.iterdir()) == []

    def test_run_whose_module_raises_leaves_nothing(self, private_tmp):
        pipeline = Pipeline(name="toy")
        for name, kind, inputs in (
            ("src", "load", []),
            ("work", "transform", ["src"]),
            ("post", "custom", ["work"]),
        ):
            pipeline.add(
                LogicalOperator(name=name, kind=kind, params={}, inputs=inputs)
            )

        def explode(values):
            raise RuntimeError("suffix module failed")

        modules = [
            CustomModule("src", lambda inputs: inputs["records"]),
            Flaky("work"),
            CustomModule("post", explode),
        ]
        plan = PhysicalPlan(
            pipeline=pipeline,
            bound=[
                BoundOperator(operator=operator, module=module)
                for operator, module in zip(pipeline.operators, modules)
            ],
            context=CompilerContext(),
        )
        executor = StreamingExecutor(
            plan, ledger=ShardLedger(None), workers=2, chunk_size=2
        )
        with pytest.raises(RuntimeError, match="suffix module failed"):
            executor.execute({"records": iter(range(10))})
        assert executor.spill.writes == 5
        assert list(private_tmp.iterdir()) == []


class TestInMemoryLedger:
    def test_writes_no_ledger_file(self, tmp_path):
        ledger = ShardLedger(None)
        assert ledger.journal is None and ledger.path is None
        report = run_er(ledger=ledger, spill_dir=tmp_path / "spill")
        assert report.recovery["journaled_shards"] == N_PAIRS // 8
        assert not report.recovery["resumed"]
        assert [p.name for p in tmp_path.iterdir()] == ["spill"]
        assert list((tmp_path / "spill").iterdir()) == []

    def test_durable_run_still_writes_its_ledger(self, tmp_path):
        run_er(ledger_path=tmp_path / "run.wal")
        lines = (tmp_path / "run.wal").read_text().splitlines()
        assert len(lines) == 1 + N_PAIRS // 8  # header + one line per shard


class TestEngineInvariance:
    """No ledger and a durable ledger give byte-identical reports."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("phase", ["cold", "warm"])
    def test_no_ledger_matches_durable(self, tmp_path, monkeypatch, workers, phase):
        caches = [None, None]
        if phase == "warm":
            fill = tmp_path / "fill.jsonl"
            run_er(cache_path=fill)
            # One copy per run, so neither run can see the other's appends.
            caches = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
            for copy in caches:
                shutil.copy(fill, copy)
        with monkeypatch.context() as patch:
            no_journal(patch)
            memory = run_er(cache_path=caches[0], workers=workers)
        durable = run_er(
            ledger_path=tmp_path / "run.wal", cache_path=caches[1], workers=workers
        )
        assert_reports_identical(memory, durable)
        if phase == "warm":
            assert memory.cost.served_calls == 0
