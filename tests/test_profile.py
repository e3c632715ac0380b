"""Profile harness: report schema, persistence and the regression gate."""

import copy

import pytest

from repro.bench.profile import (
    PROFILE_SCHEMA_VERSION,
    ProfileConfig,
    check_against_baseline,
    format_profile_summary,
    measure_decode_scaling,
    run_profile,
    save_profile_report,
    validate_profile_report,
)


@pytest.fixture(scope="module")
def document():
    config = ProfileConfig(
        model="tiny", n_chunks=2, chunk_tokens=24, suffix_tokens=8, repeats=1, warmup=0
    )
    return run_profile(config)


class TestProfileReport:
    def test_document_validates(self, document):
        validate_profile_report(document)

    def test_all_hot_path_ops_are_timed(self, document):
        for op in (
            "chunk_prefill",
            "fuse_sequential",
            "fuse_pipelined",
            "decode_sequential",
            "decode_session",
            "serialize_kv",
            "deserialize_kv",
        ):
            assert document["ops"][op]["min_s"] > 0.0

    def test_pipeline_block_is_measured(self, document):
        pipeline = document["pipeline"]
        assert pipeline["sequential_total_s"] > 0.0
        assert pipeline["pipelined_total_s"] > 0.0
        assert pipeline["measured_speedup"] > 0.0
        assert pipeline["layer_load_time_s"] > 0.0

    def test_save_writes_bench_profile_file(self, document, tmp_path):
        path = save_profile_report(document, out_dir=tmp_path, tag="test")
        assert path.name.startswith("BENCH_profile_test_")
        assert path.exists()

    def test_summary_renders(self, document):
        text = format_profile_summary(document)
        assert "pipelined vs sequential fuse" in text

    def test_validation_rejects_missing_op(self, document):
        broken = copy.deepcopy(document)
        del broken["ops"]["fuse_sequential"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_validation_rejects_missing_decode_block(self, document):
        broken = copy.deepcopy(document)
        del broken["decode"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)


class TestDecodeProfile:
    """Acceptance: the decode workload is full-size and the per-token cost
    of a width-1 session stays flat."""

    def test_workload_meets_the_acceptance_floor(self, document):
        decode = document["decode"]
        assert decode["batch_size"] >= 4
        assert decode["n_tokens"] >= 64

    def test_per_token_decode_cost_is_not_quadratic(self, document):
        """On a reserved session pad only attention's O(T) read grows with
        the context; a concatenate-per-token decoder would roughly triple
        the per-token cost between the first and last window here."""
        scaling = document["decode"]["scaling"]
        assert scaling["per_token_first_s"] > 0.0
        # Measured ~1.0-1.2 on the preallocated pad; a
        # concatenate-per-token decoder sat near 3. 2.5 leaves CI-noise margin
        # while still separating the regimes.
        assert scaling["per_token_growth"] < 2.5

    def test_report_has_no_batched_decoder_columns(self, document):
        """Schema v8: sessions are the only decoder, so the deleted
        per-call batched decoder leaves no op, key or column behind."""
        assert document["schema_version"] == 8
        assert "decode_batched" not in document["ops"]
        decode = document["decode"]
        assert not [key for key in decode if "batched" in key]
        assert not [key for key in decode["width_scaling"] if "batched" in key]
        assert "decode_batched" not in format_profile_summary(document)

    def test_scaling_helper_rejects_short_runs(self):
        from repro.model.config import get_config
        from repro.model.transformer import TransformerModel

        model = TransformerModel(get_config("tiny"), seed=0)
        with pytest.raises(ValueError):
            measure_decode_scaling(model, n_tokens=16, window=16)


class TestBaselineGate:
    def test_no_failure_within_budget(self, document):
        assert check_against_baseline(document, copy.deepcopy(document)) == []

    def test_regression_detected(self, document):
        baseline = copy.deepcopy(document)
        for op in ("fuse_sequential", "fuse_pipelined"):
            baseline["ops"][op]["min_s"] = document["ops"][op]["min_s"] / 10.0
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 2
        assert "fuse_sequential" in failures[0]

    def test_baseline_only_op_is_ignored(self, document):
        """An older baseline may carry ops the harness no longer measures
        (v7's ``decode_batched``); they must not fail or crash the gate."""
        baseline = copy.deepcopy(document)
        baseline["ops"]["decode_batched"] = {"min_s": 1e-9}
        assert "decode_batched" not in document["ops"]
        assert check_against_baseline(document, baseline) == []

    def test_missing_baseline_op_is_skipped(self, document):
        baseline = copy.deepcopy(document)
        del baseline["ops"]["fuse_pipelined"]
        failures = check_against_baseline(document, baseline)
        assert all("fuse_pipelined" not in f for f in failures)


class TestDecodeSessionProfile:
    """Acceptance: the persistent-pad session decode is profiled and gated,
    and it amortises vs width-1 sessions run one after another at batch >= 4."""

    def test_session_op_is_timed_and_validated(self, document):
        assert document["ops"]["decode_session"]["min_s"] > 0.0
        assert document["schema_version"] == PROFILE_SCHEMA_VERSION

    def test_session_amortises_vs_sequential_at_batch_4(self, document):
        decode = document["decode"]
        assert decode["batch_size"] >= 4
        assert (
            document["ops"]["decode_session"]["min_s"]
            < document["ops"]["decode_sequential"]["min_s"]
        )
        assert decode["session_speedup_vs_sequential"] > 1.0

    def test_width_scaling_shows_amortisation(self, document):
        width = document["decode"]["width_scaling"]
        assert width["widths"] == sorted(width["widths"])
        assert max(width["widths"]) >= 4
        by_width = dict(zip(width["widths"], width["amortisation_vs_sequential"]))
        # One width-W step costs well under W width-1 steps.
        assert by_width[max(width["widths"])] > 1.5

    def test_session_op_is_gated(self, document):
        baseline = copy.deepcopy(document)
        baseline["ops"]["decode_session"]["min_s"] = (
            document["ops"]["decode_session"]["min_s"] / 10.0
        )
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "decode_session" in failures[0]

    def test_validation_rejects_missing_width_scaling(self, document):
        broken = copy.deepcopy(document)
        del broken["decode"]["width_scaling"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)
        broken = copy.deepcopy(document)
        del broken["ops"]["decode_session"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_summary_renders_the_session_lines(self, document):
        from repro.bench.profile import format_profile_summary

        text = format_profile_summary(document)
        assert "decode session" in text
        assert "session step by batch width" in text


class TestStoreProfile:
    """Acceptance: the tiered trie lookup is profiled and gated, and the
    shared-prefix family actually deduplicates in the committed numbers."""

    def test_store_lookup_op_is_timed(self, document):
        assert document["ops"]["store_lookup"]["min_s"] > 0.0

    def test_store_block_shows_dedup(self, document):
        store = document["store"]
        assert store["bytes_stored"] > 0
        assert store["bytes_stored"] < store["logical_bytes"]
        assert store["dedup_ratio"] > 1.0
        assert len(store["tiers"]) == 2

    def test_store_lookup_is_gated(self, document):
        baseline = copy.deepcopy(document)
        baseline["ops"]["store_lookup"]["min_s"] = (
            document["ops"]["store_lookup"]["min_s"] / 10.0
        )
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "store_lookup" in failures[0]

    def test_validation_rejects_missing_store_block(self, document):
        broken = copy.deepcopy(document)
        del broken["store"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)
        broken = copy.deepcopy(document)
        del broken["ops"]["store_lookup"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_summary_renders_the_store_line(self, document):
        assert "tiered trie store" in format_profile_summary(document)


class TestPreemptResumeProfile:
    """Acceptance: the scheduler's pause/resume round-trip is profiled and
    gated — preempting a decode slot must stay a cheap, bounded operation."""

    def test_preempt_resume_op_is_timed(self, document):
        assert document["ops"]["preempt_resume"]["min_s"] > 0.0
        assert document["decode"]["preempt_resume_s"] == (
            document["ops"]["preempt_resume"]["min_s"]
        )

    def test_round_trip_is_cheaper_than_a_full_decode_run(self, document):
        """One preempt/rejoin/step cycle vs the whole B×T session decode:
        if a single round-trip cost as much as decoding the entire workload,
        preemption would never pay for itself."""
        assert (
            document["ops"]["preempt_resume"]["min_s"]
            < document["ops"]["decode_session"]["min_s"]
        )

    def test_preempt_resume_is_gated(self, document):
        baseline = copy.deepcopy(document)
        baseline["ops"]["preempt_resume"]["min_s"] = (
            document["ops"]["preempt_resume"]["min_s"] / 10.0
        )
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "preempt_resume" in failures[0]

    def test_validation_rejects_missing_preempt_op(self, document):
        broken = copy.deepcopy(document)
        del broken["ops"]["preempt_resume"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)
        broken = copy.deepcopy(document)
        del broken["decode"]["preempt_resume_s"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_summary_renders_the_preempt_line(self, document):
        assert "preempt/resume round-trip" in format_profile_summary(document)
