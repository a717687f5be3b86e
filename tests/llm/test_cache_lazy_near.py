"""The near-duplicate tier indexes its sealed snapshot on first use.

Opening a warm cache only loads the journal; canonical forms, TF-IDF
weights and the inverted index are computed by the first near lookup,
exactly once, and answer exactly what an eagerly built index answers.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.llm.cache as cache_module
from repro.llm.cache import CacheKey, NearDuplicateIndex, PromptCache
from repro.llm.providers import LLMResponse

N = 40
BEERS = ["Pale Ale", "Stout", "Porter", "Pilsner", "Saison", "Dubbel", "IPA", "Lager"]


def key(prompt: str, version: str = "") -> CacheKey:
    return CacheKey(provider="sim", version=version, prompt=prompt, max_tokens=64)


def prompt(i: int) -> str:
    beer = BEERS[i % len(BEERS)]
    return f"Match the records: Brewery {i} {beer} ({i * 7} IBU) vs Brewery {i} {beer}."


def response(text: str) -> LLMResponse:
    return LLMResponse(text=text, prompt_tokens=3, completion_tokens=2, model="sim")


def items(n: int = N) -> list[tuple[CacheKey, LLMResponse]]:
    return [
        (key(prompt(i), version="v2" if i % 5 == 0 else ""), response(f"answer {i}"))
        for i in range(n)
    ]


#: Canonical-equal, near-identical, far and out-of-scope probes.
PROBES = [
    key(prompt(3).upper()),
    key(prompt(7).replace("vs", "versus")),
    key(prompt(12) + " Answer yes or no."),
    key(prompt(5)),  # stored under version v2 only
    key(prompt(5), version="v2"),
    key("Summarise the quarterly revenue table for the board meeting."),
    key(""),
]


@pytest.fixture
def normalize_calls(monkeypatch):
    """Count every ``normalize_text`` call the cache module makes."""
    calls = {"n": 0}
    original = cache_module.normalize_text

    def counting(text):
        calls["n"] += 1
        return original(text)

    monkeypatch.setattr(cache_module, "normalize_text", counting)
    return calls


def warm_journal(tmp_path):
    path = tmp_path / "cache.jsonl"
    writer = PromptCache(path=path)
    for k, response in items():
        writer.put(k, response)
    return path


#: Low enough that some probes hit on cosine alone, with scores below 1.
THRESHOLD = 0.7


def eager() -> NearDuplicateIndex:
    index = NearDuplicateIndex(THRESHOLD)
    index.build(items())
    index._index()
    return index


class TestLazyBuild:
    def test_warm_open_makes_no_normalize_calls(self, tmp_path, normalize_calls):
        path = warm_journal(tmp_path)
        cache = PromptCache(path=path)
        assert len(cache) == N
        exact, sealed = cache.state_digests()
        assert len(exact) == len(sealed) == N
        assert cache.get(key(prompt(1))) is not None  # exact tier untouched
        assert normalize_calls["n"] == 0

    @pytest.mark.parametrize("method", ["get_near", "has_any"])
    def test_first_near_miss_builds_once(self, tmp_path, normalize_calls, method):
        cache = PromptCache(path=warm_journal(tmp_path))
        probe = getattr(cache, method)
        miss = key("an entirely unrelated prompt about rainfall")
        assert not probe(miss)
        assert normalize_calls["n"] == N + 1  # the snapshot once, the probe once
        assert not probe(miss)
        assert normalize_calls["n"] == N + 2

    def test_exact_hit_through_has_any_builds_nothing(self, tmp_path, normalize_calls):
        cache = PromptCache(path=warm_journal(tmp_path))
        assert cache.has_any(key(prompt(1)))
        assert normalize_calls["n"] == 0

    def test_disabled_near_tier_never_builds(self, tmp_path, normalize_calls):
        cache = PromptCache(path=warm_journal(tmp_path), near_enabled=False)
        for probe in PROBES:
            assert cache.get_near(probe) is None
            cache.has_any(probe)
        cache.seal()
        assert normalize_calls["n"] == 0

    def test_reseal_drops_the_old_index(self):
        index = NearDuplicateIndex()
        index.build(items()[:1])
        assert index.lookup(key(prompt(0).upper())) is None  # v2 scope only
        index.build([(key(prompt(0)), response("x"))])
        found = index.lookup(key(prompt(0).upper()))
        assert found is not None and found[0].text == "x"


class TestMatchesEagerIndex:
    def test_hits_and_scores(self):
        reference = [eager().lookup(probe) for probe in PROBES]
        assert any(found is not None and found[1] < 1.0 for found in reference)
        assert any(found is None for found in reference)
        # Lazy, probed in reverse order: the first probe must not shape
        # the index the later ones see.
        lazy = NearDuplicateIndex(THRESHOLD)
        lazy.build(items())
        assert [lazy.lookup(probe) for probe in reversed(PROBES)] == reference[::-1]

    def test_state_digests_and_restore_state(self, tmp_path):
        path = warm_journal(tmp_path)
        built = PromptCache(path=path)
        built.get_near(PROBES[0])
        lazy = PromptCache(path=path)
        assert lazy.state_digests() == built.state_digests()
        exact, sealed = built.state_digests()
        # Rewind both to a subset, as a resumed run does.
        for cache in (built, lazy):
            assert cache.restore_state(exact[: N // 2], sealed[: N // 4]) == N - N // 2
        assert lazy.state_digests() == built.state_digests()
        assert [lazy.get_near(p) for p in PROBES] == [built.get_near(p) for p in PROBES]

    def test_racing_first_lookups_build_once(self, monkeypatch):
        calls = {"n": 0}
        lock = threading.Lock()
        original = cache_module.normalize_text

        def slow(text):
            with lock:
                calls["n"] += 1
            time.sleep(0.0005)  # widen the window the threads race in
            return original(text)

        reference = [eager().lookup(probe) for probe in PROBES]
        monkeypatch.setattr(cache_module, "normalize_text", slow)
        index = NearDuplicateIndex(THRESHOLD)
        index.build(items())
        barrier = threading.Barrier(2, timeout=30)
        results: dict[int, list] = {}

        def worker(slot: int) -> None:
            barrier.wait()
            results[slot] = [index.lookup(probe) for probe in PROBES]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results[0] == results[1] == reference
        # One build over the snapshot, plus one canonicalisation per probe
        # per thread.
        assert calls["n"] == N + 2 * len(PROBES)
