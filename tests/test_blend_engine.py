"""End-to-end BlendEngine smoke tests on the NumPy proxy model."""

import pytest

from repro.core.blend_engine import BlendEngine

CHUNKS = [
    "retrieval augmented generation reuses text chunks across many queries",
    "the kv cache of every chunk is precomputed once and stored on disk",
    "selective recompute fixes the cross attention between fused chunks",
]


@pytest.fixture(scope="module")
def engine() -> BlendEngine:
    return BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd", seed=0)


class TestBlendEngineRun:
    def test_run_reports_misses_then_hits(self, engine):
        engine.kv_store.clear()
        engine.reset_cache_stats()
        first = engine.run(CHUNKS[:2], "what is reused?")
        assert first.cache_misses == 2
        assert first.cache_hits == 0
        second = engine.run(CHUNKS[:2], "what is reused?")
        assert second.cache_misses == 0
        assert second.cache_hits == 2

    def test_run_produces_positive_ttft_and_partial_recompute(self, engine):
        engine.precompute_chunks(CHUNKS)
        result = engine.run(CHUNKS, "how is cross attention fixed?")
        assert result.ttft > 0.0
        assert 0.0 < result.fusion.mean_recompute_fraction < 1.0
        assert result.n_context_tokens > 0
        assert result.n_suffix_tokens > 0

    def test_generation_decodes_tokens(self, engine):
        engine.precompute_chunks(CHUNKS[:1])
        result = engine.run(CHUNKS[:1], "what is stored?", max_new_tokens=3)
        assert 1 <= len(result.generated_ids) <= 3

    def test_analytic_generation_does_not_feed_decode_calibration(self):
        """Analytic requests decode through an untimed width-1 session, so
        the cost model's decode calibration (fed only by measured pipelined
        steps) and hence later TTFT estimates stay where they were."""
        engine = BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd", seed=0)
        engine.precompute_chunks(CHUNKS[:2])
        calibration = engine.controller.cost_model.calibration
        before = calibration.as_dict()
        first = engine.run(CHUNKS[:2], "what is stored?", max_new_tokens=4)
        assert 1 <= len(first.generated_ids) <= 4
        assert calibration.as_dict() == before
        again = engine.run(CHUNKS[:2], "what is stored?", max_new_tokens=4)
        assert again.generated_ids == first.generated_ids
        assert again.ttft_estimate == first.ttft_estimate

    def test_run_batch_shares_the_store(self, engine):
        engine.kv_store.clear()
        engine.reset_cache_stats()
        batch = [
            (CHUNKS[:2], "first question"),
            (CHUNKS[:2], "second question"),
        ]
        results = engine.run_batch(batch)
        assert len(results) == 2
        # The second request finds both chunks cached by the first.
        assert results[1].cache_hits == 2
        stats = engine.cache_stats
        assert stats["hits"] == 2
        assert stats["misses"] == 2

    def test_tokenizer_encodings_are_memoized(self, engine):
        engine.reset_cache_stats()
        text = "a brand new text no other test encodes"
        first = engine.encode(text)
        second = engine.encode(text)
        assert second is first  # LRU hit returns the shared array
        assert not second.flags.writeable
        stats = engine.cache_stats
        assert stats["tokenizer_misses"] == 1
        assert stats["tokenizer_hits"] == 1

    def test_repeat_requests_hit_the_encoding_cache(self, engine):
        engine.precompute_chunks(CHUNKS[:2])
        engine.reset_cache_stats()
        engine.run(CHUNKS[:2], "same question twice")
        engine.run(CHUNKS[:2], "same question twice")
        stats = engine.cache_stats
        # Second request re-encodes nothing: two chunks plus the question hit.
        assert stats["tokenizer_hits"] >= 3

    def test_per_request_stats_are_counted_locally(self, engine):
        """Regression: per-request cache stats must not be derived by diffing
        the engine-global counters, or interleaved batches cross-contaminate.

        The global counters are deliberately pre-warmed and left hot while the
        batch runs; every result must still report exactly its own accounting.
        """
        engine.kv_store.clear()
        engine.reset_cache_stats()
        engine.run(CHUNKS[:1], "warm the global counters")  # pollutes globals
        batch = [
            (CHUNKS[:2], "first question of the batch"),
            (CHUNKS[:2], "second question of the batch"),
            (CHUNKS[2:], "third question of the batch"),
        ]
        results = engine.run_batch(batch)
        # Request 0: chunk 0 was warmed above, chunk 1 is cold.
        assert results[0].cache_stats["hits"] == 1
        assert results[0].cache_stats["misses"] == 1
        # Request 1 repeats request 0's chunks: all hits, zero misses.
        assert results[1].cache_stats["hits"] == 2
        assert results[1].cache_stats["misses"] == 0
        assert results[1].cache_stats["miss_tokens"] == 0
        # Request 2 touches a disjoint cold chunk.
        assert results[2].cache_stats["hits"] == 0
        assert results[2].cache_stats["misses"] == 1
        # Per-request tokenizer accounting is local too (question is new).
        assert results[1].cache_stats["tokenizer_misses"] == 1
        assert results[1].cache_stats["tokenizer_hits"] == 2
        # The engine-global counters aggregate everything, warmup included.
        assert engine.cache_stats["hits"] == sum(r.cache_stats["hits"] for r in results)
        assert engine.cache_stats["misses"] == 1 + sum(
            r.cache_stats["misses"] for r in results
        )

    def test_per_request_stats_snapshot_unaffected_by_later_requests(self, engine):
        engine.kv_store.clear()
        engine.reset_cache_stats()
        first = engine.run(CHUNKS[:2], "a question held across requests")
        snapshot = dict(first.cache_stats)
        engine.run(CHUNKS, "another request mutating global counters")
        assert first.cache_stats == snapshot

    def test_faster_device_lowers_ttft(self):
        fast = BlendEngine.build(paper_model="Mistral-7B", device="cpu_ram", seed=0)
        slow = BlendEngine.build(paper_model="Mistral-7B", device="slow_disk", seed=0)
        for e in (fast, slow):
            e.precompute_chunks(CHUNKS[:2])
        question = "which device is faster?"
        # Pin the recompute ratio: the controller otherwise adapts it upward
        # on fast devices, which is the point of Figure 10 but not this test.
        fast_ttft = fast.run(CHUNKS[:2], question, recompute_ratio=0.15).ttft
        slow_ttft = slow.run(CHUNKS[:2], question, recompute_ratio=0.15).ttft
        assert fast_ttft < slow_ttft


class TestStoreParameter:
    """The `store=` API and the `store_capacity_bytes=` deprecation path."""

    def test_store_capacity_bytes_still_works_but_warns(self):
        with pytest.warns(DeprecationWarning, match="store_capacity_bytes"):
            engine = BlendEngine.build(
                paper_model="Mistral-7B",
                device="cpu_ram",
                seed=0,
                store_capacity_bytes=1 << 20,
            )
        assert engine.kv_store.capacity_bytes == 1 << 20

    def test_store_and_store_capacity_bytes_are_mutually_exclusive(self):
        from repro.kvstore.config import StoreConfig

        with pytest.raises(ValueError, match="store_capacity_bytes"):
            BlendEngine.build(
                paper_model="Mistral-7B",
                device="cpu_ram",
                seed=0,
                store=StoreConfig(),
                store_capacity_bytes=1 << 20,
            )

    def test_tiered_trie_store_serves_the_engine(self):
        from repro.kvstore.config import StoreConfig
        from repro.kvstore.hierarchy import TieredKVStore

        engine = BlendEngine.build(
            paper_model="Mistral-7B",
            device="nvme_ssd",
            seed=0,
            store=StoreConfig(backend="tiered_trie"),
        )
        assert isinstance(engine.kv_store, TieredKVStore)
        engine.precompute_chunks(CHUNKS[:2])
        result = engine.run(CHUNKS[:2], "does the tiered store serve hits?")
        assert result.cache_hits == 2
        assert engine.cache_stats["bytes_stored"] > 0

    def test_prebuilt_store_instance_is_accepted(self):
        from repro.kvstore.device import get_device
        from repro.kvstore.trie import RadixTrieStore

        store = RadixTrieStore(device=get_device("cpu_ram"))
        engine = BlendEngine.build(
            paper_model="Mistral-7B", device="cpu_ram", seed=0, store=store
        )
        assert engine.kv_store is store
