"""Profiled perf harness (``python -m repro.bench --profile``).

Times the hot-path primitives on a fixed, seeded workload — chunk prefill,
sequential vs pipelined fuse (through the *executing*
:class:`~repro.core.executor.PipelinedExecutor`, not the analytical model),
session vs sequential decode (one persistent
:class:`~repro.model.tensors.DecodeSession` pad stepping B requests
lock-step, vs B width-1 sessions one after another; plus per-token and
batch-width scaling probes), KV serialize/deserialize — and writes a ``BENCH_profile_*.json`` so every PR
has a perf trajectory to regress against.

The pipelined/sequential comparison is run at the calibrated load≈compute
operating point: a zero-delay sequential pass measures the mean per-layer
compute, and the simulated per-layer device transfer is pinned to it.  That
is the crossover §5 of the paper targets — where loading can fully hide the
selective recompute — and it is where pipelining's measured speedup is
meaningful rather than an artifact of one side dominating.

:func:`check_against_baseline` is the CI regression gate: it fails when fuse
wall-clock regresses more than ``max_regression``× against a checked-in
baseline document (see ``benchmarks/profile_baseline.json``).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.executor import ExecutionResult, PipelinedExecutor
from repro.core.fusor import FusorConfig, KVFusor
from repro.kvstore.serialization import deserialize_kv, serialize_kv
from repro.model.config import get_config
from repro.model.transformer import TransformerModel

#: v2 added the decode ops (``decode_batched``/``decode_sequential``) and the
#: top-level ``decode`` block (batched speedup + per-token scaling); v3 added
#: ``decode_session`` (persistent padded batch buffers, no per-step re-gather)
#: and the ``decode.width_scaling`` batch-width block; v4 adds ``store_lookup``
#: (tiered radix-trie lookup: prefix walk + segment reassembly + tier read)
#: and the top-level ``store`` dedup block; v5 adds ``preempt_resume`` (one
#: scheduler pause/resume round-trip on a live decode session: extract the
#: victim's decode state, free its slot, re-join it and take one lock-step
#: step — the per-preemption overhead of the SLO scheduler's decode
#: preemption); v6 adds ``routing_decision`` (affinity-scored placement of
#: one request over a warmed 4-replica fleet — the router tier's per-request
#: overhead) and the top-level ``fleet`` block with per-policy decision
#: timings; v7 adds ``dequant_int8`` (full int8 store round-trip of the
#: fused cache: per-layer quantise + scale recovery on the deserialize
#: path — the extra CPU the narrower store dtype costs per request); v8
#: drops the ``decode_batched`` op with its ``batched_*`` and
#: ``session_vs_batched`` columns (sessions are the only decoder), and
#: ``decode_sequential`` now steps B width-1 sessions one after another.
PROFILE_SCHEMA_VERSION = 8

_REQUIRED_OPS = (
    "chunk_prefill",
    "fuse_sequential",
    "fuse_pipelined",
    "serve_pipelined",
    "decode_sequential",
    "decode_session",
    "preempt_resume",
    "store_lookup",
    "routing_decision",
    "serialize_kv",
    "deserialize_kv",
    "dequant_int8",
)


@dataclass(frozen=True)
class ProfileConfig:
    """The fixed workload the profile harness times."""

    model: str = "small"
    n_chunks: int = 3
    chunk_tokens: int = 128
    suffix_tokens: int = 16
    recompute_ratio: float = 0.15
    repeats: int = 3
    warmup: int = 1
    seed: int = 0
    #: Decode workload: ``decode_batch_size`` requests stepped together in
    #: one session for ``decode_tokens`` tokens (vs the same work through
    #: one width-1 session per request).
    decode_batch_size: int = 4
    decode_tokens: int = 64

    def __post_init__(self) -> None:
        if self.n_chunks < 1 or self.chunk_tokens < 1 or self.suffix_tokens < 1:
            raise ValueError("workload sizes must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.decode_batch_size < 1 or self.decode_tokens < 1:
            raise ValueError("decode workload sizes must be positive")

    @classmethod
    def smoke(cls) -> "ProfileConfig":
        """CI-sized profile (seconds, not minutes)."""
        return cls(chunk_tokens=64, repeats=2, warmup=1)


def _random_token_ids(
    model: "TransformerModel", size, rng: np.random.Generator
) -> np.ndarray:
    """Seeded token ids skipping the reserved special-token ids (0-3)."""
    return rng.integers(4, model.config.vocab_size, size=size).astype(np.int64)


def _stats(samples: list[float]) -> dict[str, float | int]:
    return {
        "mean_s": float(np.mean(samples)),
        "min_s": float(np.min(samples)),
        "max_s": float(np.max(samples)),
        "repeats": len(samples),
    }


def _time_op(fn: Callable[[], object], repeats: int, warmup: int) -> dict[str, float | int]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return _stats(samples)


@dataclass
class PipelineMeasurement:
    """Measured sequential-vs-pipelined executor runs at one operating point."""

    layer_load_time: float
    sequential_runs: list[ExecutionResult]
    pipelined_runs: list[ExecutionResult]

    @property
    def best_sequential(self) -> ExecutionResult:
        return min(self.sequential_runs, key=lambda r: r.total_time)

    @property
    def best_pipelined(self) -> ExecutionResult:
        return min(self.pipelined_runs, key=lambda r: r.total_time)

    @property
    def speedup(self) -> float:
        pipelined = self.best_pipelined.total_time
        if pipelined <= 0:
            return float("inf")
        return self.best_sequential.total_time / pipelined

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly block for bench/profile reports."""
        return {
            "layer_load_time_s": self.layer_load_time,
            "sequential_total_s": self.best_sequential.total_time,
            "pipelined_total_s": self.best_pipelined.total_time,
            "measured_speedup": self.speedup,
            "pipelined_stall_s": self.best_pipelined.stall_time,
        }


def measure_pipeline_speedup(
    model,
    fusor_config: FusorConfig,
    chunk_caches,
    suffix_ids,
    repeats: int = 2,
    recompute_ratio: float | None = None,
) -> PipelineMeasurement:
    """Calibrate load≈compute and run both executor schedules *repeats* times.

    A zero-delay sequential pass measures the per-layer compute; the
    simulated per-layer device transfer is pinned to the mean compute of the
    *selective* layers (layer 0's full recompute is excluded — including it
    would push loads past compute and inflate the speedup with hidden sleep
    time), i.e. the §5 crossover where loading can just hide the selective
    recompute.  Sequential and pipelined schedules then run
    best-of-*repeats*.  This is the single definition of the
    measured-speedup methodology, shared by the profile harness and the sweep
    runner's proxy probe.
    """
    probe = PipelinedExecutor(model, fusor_config, layer_load_time=0.0)
    calibration = probe.execute(
        chunk_caches, suffix_ids, recompute_ratio=recompute_ratio, pipelined=False
    )
    selective = calibration.compute_times[1:]
    layer_load_time = float(
        selective.mean() if selective.size else calibration.compute_times.mean()
    )
    executor = PipelinedExecutor(model, fusor_config, layer_load_time=layer_load_time)

    def runs(pipelined: bool) -> list[ExecutionResult]:
        return [
            executor.execute(
                chunk_caches,
                suffix_ids,
                recompute_ratio=recompute_ratio,
                pipelined=pipelined,
            )
            for _ in range(repeats)
        ]

    return PipelineMeasurement(
        layer_load_time=layer_load_time,
        sequential_runs=runs(pipelined=False),
        pipelined_runs=runs(pipelined=True),
    )


def _measure_served_ttfts(
    model: TransformerModel, config: "ProfileConfig"
) -> list[float]:
    """Measured serving TTFTs of warm pipelined requests through BlendEngine.

    Builds a serving stack around the profile's proxy *model* (word-level
    tokenizer, cpu_ram-backed store, loading controller) and serves the same
    request ``config.repeats`` times with ``execution="pipelined"``, after one
    cold warmup that populates the store.  Each sample is a trace-derived
    wall-clock TTFT — the end-to-end measured serving number the baseline
    gate regresses on, one level above the bare fuse timings.
    """
    from repro.core.blend_engine import BlendEngine
    from repro.core.controller import LoadingController
    from repro.kvstore.device import get_device
    from repro.kvstore.store import KVCacheStore
    from repro.serving.costmodel import GPUSpec, OnlineCostCalibration, ServingCostModel
    from repro.tokenizer.tokenizer import Tokenizer

    cost_model = ServingCostModel(
        model.config, GPUSpec(), calibration=OnlineCostCalibration()
    )
    engine = BlendEngine(
        model=model,
        tokenizer=Tokenizer(vocab_size=model.config.vocab_size),
        kv_store=KVCacheStore(device=get_device("cpu_ram")),
        controller=LoadingController(cost_model, min_quality_ratio=config.recompute_ratio),
        fusor_config=FusorConfig(recompute_ratio=config.recompute_ratio),
    )
    chunks = [
        " ".join(f"w{chunk}x{i}" for i in range(config.chunk_tokens))
        for chunk in range(config.n_chunks)
    ]
    question = " ".join(f"q{i}" for i in range(config.suffix_tokens))
    engine.precompute_chunks(chunks)
    for _ in range(config.warmup):
        engine.run(chunks, question, execution="pipelined")
    return [
        engine.run(chunks, question, execution="pipelined").measured_ttft
        for _ in range(config.repeats)
    ]


def _decode_prompt_caches(
    model: TransformerModel,
    config: "ProfileConfig",
    rng: np.random.Generator,
    n_requests: int | None = None,
):
    """Prefill one prompt per decode request; returns (caches, tokens).

    Shared by the decode-op comparison and the batch-width scaling probe
    (which passes its own ``n_requests``), so both measure the same prompt
    shape and token stream construction.
    """
    if n_requests is None:
        n_requests = config.decode_batch_size
    prefills = [
        model.full_prefill(_random_token_ids(model, config.chunk_tokens, rng)).kv_cache
        for _ in range(n_requests)
    ]
    tokens = _random_token_ids(model, (n_requests, config.decode_tokens), rng)
    return prefills, tokens


def _decode_in_session(
    model: TransformerModel,
    prefills: list,
    tokens: np.ndarray,
    members: list[int],
) -> None:
    """Decode ``tokens[m]`` for every member *m* in one lock-step session."""
    streams = tokens[members]
    session = model.new_decode_session(slot_capacity=len(members))
    for member in members:
        session.join(member, prefills[member], reserve=streams.shape[1])
    for step in range(streams.shape[1]):
        model.decode_session_step(session, streams[:, step])
    for member in members:
        session.leave(member)


def measure_decode_ops(
    model: TransformerModel, config: "ProfileConfig", rng: np.random.Generator
) -> tuple[dict[str, dict[str, float | int]], dict[str, object]]:
    """Time session vs sequential decode of one B×T workload.

    ``decode_sequential`` decodes each of the B requests alone in a width-1
    :class:`~repro.model.tensors.DecodeSession`, one request after another —
    B·T single-token passes.  ``decode_session`` steps all B requests
    together in one session — T batched passes, amortising the per-layer
    dispatch overhead across the batch, with steady-state steps writing only
    each request's appended row (the serving loop's decode path).  Both
    consume identical token streams, so the comparison isolates the
    batching.
    """
    prefills, tokens = _decode_prompt_caches(model, config, rng)
    n_tokens = config.decode_tokens
    members = list(range(len(prefills)))

    def run_sequential() -> None:
        for member in members:
            _decode_in_session(model, prefills, tokens, [member])

    def run_session() -> None:
        _decode_in_session(model, prefills, tokens, members)

    # One preemption round-trip on a live session: pause member 0 (extract
    # its decode state, free the slot), re-admit it and take one lock-step
    # step — what the SLO scheduler pays per decode preemption.  The session
    # persists across samples (its members genuinely mid-generation); the
    # reserve covers one appended row per warmup+timed cycle.
    preempt_session = model.new_decode_session(
        slot_capacity=config.decode_batch_size
    )
    for i, cache in enumerate(prefills):
        preempt_session.join(i, cache, reserve=2 * (config.repeats + config.warmup))

    def run_preempt_resume() -> None:
        paused = preempt_session.preempt(0)
        preempt_session.join(0, paused, reserve=config.repeats + config.warmup)
        model.decode_session_step(preempt_session, tokens[:, 0])

    ops = {
        "decode_sequential": _time_op(run_sequential, config.repeats, config.warmup),
        "decode_session": _time_op(run_session, config.repeats, config.warmup),
        "preempt_resume": _time_op(run_preempt_resume, config.repeats, config.warmup),
    }
    sequential = float(ops["decode_sequential"]["min_s"])
    session = float(ops["decode_session"]["min_s"])
    block: dict[str, object] = {
        "batch_size": config.decode_batch_size,
        "n_tokens": n_tokens,
        "sequential_total_s": sequential,
        "session_total_s": session,
        "session_speedup_vs_sequential": (
            sequential / session if session > 0 else float("inf")
        ),
        "preempt_resume_s": float(ops["preempt_resume"]["min_s"]),
    }
    return ops, block


def measure_decode_width_scaling(
    model: TransformerModel,
    config: "ProfileConfig",
    rng: np.random.Generator,
    widths: tuple[int, ...] | None = None,
) -> dict[str, object]:
    """Per-step session decode cost as a function of batch width.

    For each width W, W requests (prompts of ``chunk_tokens`` tokens) join a
    :class:`~repro.model.tensors.DecodeSession` and decode ``decode_tokens``
    tokens in lock-step; the best-of-``repeats`` per-step wall-clock is
    reported per width.  The amortisation column is what the width-aware
    :class:`~repro.serving.costmodel.OnlineCostCalibration` buckets model:
    one width-W step costs far less than W × the width-1 step.
    """
    if widths is None:
        widths = tuple(sorted({1, 2, config.decode_batch_size}))
    if any(w < 1 for w in widths):
        raise ValueError("widths must be >= 1")
    n_tokens = config.decode_tokens
    # The per-step quantities compared across widths are small (ms); floor
    # the sampling so a repeats=1/no-warmup test config still yields stable
    # minima (first-call allocator/cache effects dominate single samples).
    repeats = max(config.repeats, 3)
    warmup = max(config.warmup, 1)
    prefills, tokens = _decode_prompt_caches(model, config, rng, n_requests=max(widths))

    s_per_step = [
        float(
            _time_op(
                lambda: _decode_in_session(model, prefills, tokens, list(range(width))),
                repeats,
                warmup,
            )["min_s"]
        )
        / n_tokens
        for width in widths
    ]

    baseline_width = 1 if 1 in widths else min(widths)
    baseline = s_per_step[widths.index(baseline_width)]
    return {
        "widths": list(widths),
        "n_tokens": n_tokens,
        "session_s_per_step": s_per_step,
        "tokens_per_s": [
            w / s if s > 0 else float("inf") for w, s in zip(widths, s_per_step)
        ],
        # One width-W step vs W/baseline independent baseline-width steps:
        # the scheduler-level amortisation the width-aware calibration
        # buckets capture.  The baseline is width 1 whenever measured (the
        # default); ``baseline_width`` records it so a custom widths tuple
        # without 1 cannot silently mislabel the column.
        "baseline_width": baseline_width,
        "amortisation_vs_sequential": [
            (w / baseline_width * baseline) / s if s > 0 else float("inf")
            for w, s in zip(widths, s_per_step)
        ],
    }


def measure_store_ops(
    model: TransformerModel, config: "ProfileConfig", rng: np.random.Generator
) -> tuple[dict[str, dict[str, float | int]], dict[str, object]]:
    """Time tiered radix-trie lookups on a shared-prefix chunk family.

    One ``store_lookup`` sample fetches every chunk once through a
    RAM→SSD :class:`~repro.kvstore.hierarchy.TieredKVStore` of
    :class:`~repro.kvstore.trie.RadixTrieStore` tiers — the store work on
    :class:`~repro.core.blend_engine.BlendEngine`'s gather path: the O(L)
    token-prefix walk, reassembling the full-chunk KV from deduplicated
    segments, and pricing the owning tier's read delay.  The chunks share
    the first half of their token ids so the trie actually deduplicates,
    and the RAM tier is sized to half the family's logical bytes so the
    overflow demotes to the SSD tier and lookups exercise both.  Promotion
    is disabled so tier residency stays fixed across timed repeats.

    The family is at least three chunks regardless of ``config.n_chunks``:
    with one chunk demoted, two must stay co-resident in RAM for the shared
    prefix to be stored once (the dedup the block reports).
    """
    from repro.kvstore.device import get_device
    from repro.kvstore.hierarchy import TieredKVStore
    from repro.kvstore.serialization import kv_nbytes
    from repro.kvstore.store import chunk_key
    from repro.kvstore.trie import RadixTrieStore

    n_family = max(3, config.n_chunks)
    half = max(1, config.chunk_tokens // 2)
    shared = _random_token_ids(model, half, rng)
    chunk_ids = [
        np.concatenate(
            [shared, _random_token_ids(model, config.chunk_tokens - half, rng)]
        )
        for _ in range(n_family)
    ]
    caches = [model.chunk_prefill(ids) for ids in chunk_ids]
    logical_each = [kv_nbytes(cache) for cache in caches]
    ram_capacity = max(max(logical_each), sum(logical_each) // 2)
    store = TieredKVStore(
        tiers=[
            RadixTrieStore(device=get_device("cpu_ram"), capacity_bytes=ram_capacity),
            RadixTrieStore(device=get_device("nvme_ssd")),
        ],
        promote_on_hit=False,
    )
    keys = [chunk_key(ids, model_name=config.model) for ids in chunk_ids]
    for key, cache in zip(keys, caches):
        store.put(key, cache)

    def run_lookup() -> None:
        for key in keys:
            if store.lookup(key).cache is None:
                raise RuntimeError("profile store lost a resident chunk")

    ops = {"store_lookup": _time_op(run_lookup, config.repeats, config.warmup)}
    store.reset_stats()
    lookups = [store.lookup(key) for key in keys]
    stored = store.bytes_stored
    logical = sum(tier.logical_bytes for tier in store.tiers)
    block: dict[str, object] = {
        "n_chunks": n_family,
        "chunk_tokens": config.chunk_tokens,
        "shared_prefix_tokens": half,
        "bytes_stored": stored,
        "logical_bytes": logical,
        "dedup_ratio": logical / stored if stored > 0 else float("inf"),
        "slow_tier_hits": sum(
            1 for found in lookups if found.tier_index is not None and found.tier_index > 0
        ),
        "read_delay_s": sum(found.read_delay for found in lookups),
        "tiers": store.stats_by_tier(),
    }
    return ops, block


def measure_routing_ops(
    config: "ProfileConfig", rng: np.random.Generator
) -> tuple[dict[str, dict[str, float | int]], dict[str, object]]:
    """Time fleet routing decisions over a warmed 4-replica fleet.

    The fleet is warmed by routing (and placing) a Zipf-popular request
    stream through each policy's own router, so every replica's private
    store holds the resident/hotness state a steady-state fleet would.  One
    ``routing_decision`` sample then routes a fresh batch of requests
    *without* placing them — pure decisions on frozen fleet state, so timed
    repeats are identical work.  The gated op is the ``affinity`` policy
    (the most expensive: it scans every replica's resident set per
    decision); the ``fleet`` block reports all three policies side by side.
    """
    from repro.kvstore.store import ChunkUsageTracker
    from repro.serving.request import GenerationRequest
    from repro.serving.router import ROUTING_POLICIES, Replica, build_router

    n_replicas = 4
    n_unique_chunks = 128
    n_warm = 128
    n_decisions = 64
    store_capacity = 48
    ranks = np.arange(1, n_unique_chunks + 1, dtype=np.float64)
    popularity = ranks ** -1.0
    popularity /= popularity.sum()

    def draw_chunks() -> list[int]:
        n_chunks = int(rng.integers(3, 7))
        return [
            int(chunk)
            for chunk in rng.choice(
                n_unique_chunks, size=n_chunks, replace=False, p=popularity
            )
        ]

    warm_sets = [draw_chunks() for _ in range(n_warm)]
    decision_sets = [draw_chunks() for _ in range(n_decisions)]
    warm_requests = [
        GenerationRequest(request_id=i, arrival_time=float(i)) for i in range(n_warm)
    ]
    decision_requests = [
        GenerationRequest(request_id=n_warm + i, arrival_time=float(n_warm + i))
        for i in range(n_decisions)
    ]

    ops: dict[str, dict[str, float | int]] = {}
    per_policy: dict[str, object] = {}
    for policy in ROUTING_POLICIES:
        router = build_router(policy, n_replicas)
        replicas = [
            Replica(
                replica_id=r,
                store=ChunkUsageTracker(capacity_entries=store_capacity),
            )
            for r in range(n_replicas)
        ]
        for request, chunks in zip(warm_requests, warm_sets):
            home = router.route(request, chunks, replicas)
            replicas[home].place(request.request_id, request, chunks)

        placements = [0] * n_replicas

        def run_decisions() -> None:
            for request, chunks in zip(decision_requests, decision_sets):
                placements[router.route(request, chunks, replicas)] += 1

        timing = _time_op(run_decisions, config.repeats, config.warmup)
        per_policy[policy] = {
            "decision_s": float(timing["min_s"]) / n_decisions,
            "min_s": timing["min_s"],
            # Placement spread of the timed decisions (identical every
            # repeat; counts cover warmup + timed runs).
            "placement_counts": list(placements),
        }
        if policy == "affinity":
            ops["routing_decision"] = timing

    block: dict[str, object] = {
        "n_replicas": n_replicas,
        "n_warm_requests": n_warm,
        "n_decisions": n_decisions,
        "n_unique_chunks": n_unique_chunks,
        "store_capacity_chunks": store_capacity,
        "gated_policy": "affinity",
        "policies": per_policy,
    }
    return ops, block


def measure_decode_scaling(
    model: TransformerModel,
    prompt_tokens: int = 16,
    n_tokens: int = 256,
    window: int = 64,
    seed: int = 0,
) -> dict[str, float | int]:
    """Per-token decode cost at the start vs the end of a long generation.

    In a width-1 :class:`~repro.model.tensors.DecodeSession` reserved for
    the whole generation, appending is O(1) and only attention's reads grow
    with the context, so the mean per-token cost of the last *window*
    tokens stays within a small factor of the first *window*'s — whereas a
    concatenate-per-token decoder re-copies every layer's full K/V each step
    and grows linearly (O(T²) for the generation).  The profile commits
    the measured growth ratio so the regression test can assert the decode
    path stays out of the quadratic regime.
    """
    if n_tokens < 2 * window:
        raise ValueError("n_tokens must cover two measurement windows")
    rng = np.random.default_rng(seed)
    prompt = _random_token_ids(model, prompt_tokens, rng)
    tokens = _random_token_ids(model, n_tokens, rng)
    session = model.new_decode_session(slot_capacity=1)
    session.join(0, model.full_prefill(prompt).kv_cache, reserve=n_tokens)
    per_token = np.zeros(n_tokens)
    for step in range(n_tokens):
        start = time.perf_counter()
        model.decode_session_step(session, tokens[step : step + 1])
        per_token[step] = time.perf_counter() - start
    first = float(np.median(per_token[:window]))
    last = float(np.median(per_token[-window:]))
    return {
        "n_tokens": n_tokens,
        "window": window,
        "per_token_first_s": first,
        "per_token_last_s": last,
        "per_token_growth": last / first if first > 0 else float("inf"),
    }


def run_profile(config: ProfileConfig | None = None) -> dict[str, object]:
    """Run the profile workload and return the report document."""
    config = config or ProfileConfig()
    model = TransformerModel(get_config(config.model), seed=config.seed)
    rng = np.random.default_rng(config.seed)
    chunk_ids = [
        _random_token_ids(model, config.chunk_tokens, rng)
        for _ in range(config.n_chunks)
    ]
    suffix_ids = _random_token_ids(model, config.suffix_tokens, rng)
    chunk_caches = [model.chunk_prefill(ids) for ids in chunk_ids]
    fusor_config = FusorConfig(recompute_ratio=config.recompute_ratio)
    fusor = KVFusor(model, fusor_config)
    fused = fusor.fuse(chunk_caches, suffix_ids)
    payload = serialize_kv(fused.kv_cache)

    ops: dict[str, dict[str, float | int]] = {}
    ops["chunk_prefill"] = _time_op(
        lambda: model.chunk_prefill(chunk_ids[0]), config.repeats, config.warmup
    )
    ops["serialize_kv"] = _time_op(
        lambda: serialize_kv(fused.kv_cache), config.repeats, config.warmup
    )
    ops["deserialize_kv"] = _time_op(
        lambda: deserialize_kv(payload), config.repeats, config.warmup
    )
    int8_payload = serialize_kv(fused.kv_cache, kv_dtype="int8")
    ops["dequant_int8"] = _time_op(
        lambda: deserialize_kv(int8_payload), config.repeats, config.warmup
    )

    # ---- calibrated pipelined-vs-sequential comparison -------------------
    measurement = measure_pipeline_speedup(
        model,
        fusor_config,
        chunk_caches,
        suffix_ids,
        repeats=config.repeats,
        recompute_ratio=config.recompute_ratio,
    )
    ops["fuse_sequential"] = _stats([r.total_time for r in measurement.sequential_runs])
    ops["fuse_pipelined"] = _stats([r.total_time for r in measurement.pipelined_runs])

    # ---- measured serving TTFT (workload -> engine -> executor) ----------
    ops["serve_pipelined"] = _stats(_measure_served_ttfts(model, config))

    # ---- tiered trie store lookups ---------------------------------------
    store_ops, store_block = measure_store_ops(model, config, rng)
    ops.update(store_ops)

    # ---- fleet routing decisions -----------------------------------------
    routing_ops, fleet_block = measure_routing_ops(config, rng)
    ops.update(routing_ops)

    # ---- session vs sequential decode + scaling --------------------------
    decode_ops, decode_block = measure_decode_ops(model, config, rng)
    ops.update(decode_ops)
    decode_block["scaling"] = measure_decode_scaling(
        model,
        n_tokens=max(2 * config.decode_tokens, 128),
        window=min(config.decode_tokens, 32),
        seed=config.seed,
    )
    decode_block["width_scaling"] = measure_decode_width_scaling(model, config, rng)

    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "profile",
        "created": datetime.now(timezone.utc).isoformat(),
        "config": asdict(config),
        "ops": ops,
        "decode": decode_block,
        "store": store_block,
        "fleet": fleet_block,
        "pipeline": {
            "n_layers": model.config.n_layers,
            "n_tokens": int(fused.n_tokens),
            "mean_compute_per_layer_s": measurement.layer_load_time,
            **measurement.as_dict(),
            "mean_recompute_fraction": float(
                measurement.best_pipelined.fusion.mean_recompute_fraction
            ),
        },
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }


# ----------------------------------------------------------------------
# Validation, persistence, regression gate
# ----------------------------------------------------------------------
def validate_profile_report(document: dict[str, object]) -> None:
    """Raise ``ValueError`` when *document* does not match the profile schema."""
    for key in (
        "schema_version",
        "kind",
        "created",
        "config",
        "ops",
        "decode",
        "store",
        "fleet",
        "pipeline",
    ):
        if key not in document:
            raise ValueError(f"profile report is missing top-level key {key!r}")
    if document["kind"] != "profile":
        raise ValueError(f"unexpected report kind {document['kind']!r}")
    if document["schema_version"] != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported profile schema_version {document['schema_version']!r}"
        )
    ops = document["ops"]
    for op in _REQUIRED_OPS:
        if op not in ops:
            raise ValueError(f"profile report is missing op {op!r}")
        for metric in ("mean_s", "min_s", "max_s"):
            if ops[op][metric] < 0:
                raise ValueError(f"op {op!r} has a negative {metric}")
    pipeline = document["pipeline"]
    if pipeline["measured_speedup"] <= 0:
        raise ValueError("measured_speedup must be positive")
    decode = document["decode"]
    for key in (
        "batch_size",
        "n_tokens",
        "sequential_total_s",
        "session_total_s",
        "session_speedup_vs_sequential",
        "preempt_resume_s",
        "scaling",
        "width_scaling",
    ):
        if key not in decode:
            raise ValueError(f"decode block is missing key {key!r}")
    if decode["preempt_resume_s"] < 0:
        raise ValueError("preempt_resume_s must be non-negative")
    if decode["session_speedup_vs_sequential"] <= 0:
        raise ValueError("session_speedup_vs_sequential must be positive")
    if "per_token_growth" not in decode["scaling"]:
        raise ValueError("decode scaling block is missing key 'per_token_growth'")
    if decode["scaling"]["per_token_growth"] <= 0:
        raise ValueError("per_token_growth must be positive")
    width_scaling = decode["width_scaling"]
    for key in (
        "widths",
        "session_s_per_step",
        "amortisation_vs_sequential",
    ):
        if key not in width_scaling:
            raise ValueError(f"decode width_scaling block is missing key {key!r}")
        if key != "widths" and len(width_scaling[key]) != len(width_scaling["widths"]):
            raise ValueError(f"width_scaling {key!r} length differs from widths")
    if any(s <= 0 for s in width_scaling["session_s_per_step"]):
        raise ValueError("width_scaling per-step timings must be positive")
    store = document["store"]
    for key in ("bytes_stored", "logical_bytes", "dedup_ratio", "tiers"):
        if key not in store:
            raise ValueError(f"store block is missing key {key!r}")
    if store["bytes_stored"] <= 0:
        raise ValueError("store bytes_stored must be positive")
    if store["dedup_ratio"] < 1.0:
        raise ValueError("store dedup_ratio must be >= 1 (trie never inflates)")
    fleet = document["fleet"]
    for key in ("n_replicas", "n_decisions", "gated_policy", "policies"):
        if key not in fleet:
            raise ValueError(f"fleet block is missing key {key!r}")
    if fleet["n_replicas"] < 1:
        raise ValueError("fleet n_replicas must be >= 1")
    policies = fleet["policies"]
    if fleet["gated_policy"] not in policies:
        raise ValueError("fleet gated_policy must appear in the policies block")
    for policy, stats in policies.items():
        if stats["decision_s"] < 0:
            raise ValueError(f"fleet policy {policy!r} has a negative decision time")
        counts = stats["placement_counts"]
        if len(counts) != fleet["n_replicas"]:
            raise ValueError(
                f"fleet policy {policy!r} needs one placement count per replica"
            )


def profile_filename(tag: str = "") -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    middle = f"{tag}_" if tag else ""
    return f"BENCH_profile_{middle}{stamp}.json"


def save_profile_report(
    document: dict[str, object], out_dir: str | Path = ".", tag: str = ""
) -> Path:
    """Validate and write the profile report; returns the written path."""
    validate_profile_report(document)
    out_path = Path(out_dir) / profile_filename(tag)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return out_path


def check_against_baseline(
    document: dict[str, object],
    baseline: dict[str, object],
    max_regression: float = 2.0,
    ops: tuple[str, ...] = (
        "fuse_sequential",
        "fuse_pipelined",
        "serve_pipelined",
        "decode_session",
        "preempt_resume",
        "store_lookup",
        "routing_decision",
        "dequant_int8",
    ),
) -> list[str]:
    """Compare *document* against a checked-in *baseline*; returns failures.

    An op fails when its best (min) wall-clock exceeds ``max_regression``
    times the baseline's.  Minimums are compared so scheduler noise on shared
    CI runners doesn't trip the gate; ``max_regression`` absorbs hardware
    differences between the baseline machine and the runner.  Gated ops are
    the fuse wall-clocks, the measured end-to-end serving TTFT
    (``serve_pipelined``), the session decode wall-clock (``decode_session``, the serving loop's
    steady-state path), the preemption round-trip (``preempt_resume``, the
    SLO scheduler's per-preemption overhead) *and* the tiered trie lookup
    (``store_lookup``, the gather path's store work) and the fleet routing
    decision (``routing_decision``, the router tier's per-request overhead
    under the affinity policy); ops absent from an older baseline are
    skipped.
    """
    failures: list[str] = []
    base_ops = baseline.get("ops", {})
    for op in ops:
        if op not in base_ops:
            continue
        base = float(base_ops[op]["min_s"])
        current = float(document["ops"][op]["min_s"])
        if base > 0 and current > base * max_regression:
            failures.append(
                f"{op}: {current * 1e3:.2f} ms vs baseline {base * 1e3:.2f} ms "
                f"(> {max_regression:.1f}x)"
            )
    return failures


def format_profile_summary(document: dict[str, object]) -> str:
    """Human-readable profile table, for CLI output."""
    cfg = document["config"]
    pipe = document["pipeline"]
    lines = [
        f"profile report (model={cfg['model']}, "
        f"{cfg['n_chunks']}x{cfg['chunk_tokens']} chunk tokens + "
        f"{cfg['suffix_tokens']} suffix, ratio={cfg['recompute_ratio']})",
        f"{'op':<18} {'mean':>10} {'min':>10} {'max':>10}",
    ]
    for op, stats in document["ops"].items():
        lines.append(
            f"{op:<18} {stats['mean_s'] * 1e3:>8.2f}ms {stats['min_s'] * 1e3:>8.2f}ms "
            f"{stats['max_s'] * 1e3:>8.2f}ms"
        )
    lines.append(
        f"pipelined vs sequential fuse: {pipe['measured_speedup']:.2f}x "
        f"(seq {pipe['sequential_total_s'] * 1e3:.1f} ms, "
        f"pipe {pipe['pipelined_total_s'] * 1e3:.1f} ms, "
        f"stall {pipe['pipelined_stall_s'] * 1e3:.1f} ms, "
        f"load/layer {pipe['layer_load_time_s'] * 1e3:.2f} ms)"
    )
    decode = document["decode"]
    scaling = decode["scaling"]
    lines.append(
        f"decode session ({decode['batch_size']}x{decode['n_tokens']} tokens): "
        f"{decode['session_total_s'] * 1e3:.1f} ms "
        f"({decode['session_speedup_vs_sequential']:.2f}x vs "
        f"{decode['sequential_total_s'] * 1e3:.1f} ms of width-1 sessions); "
        f"per-token growth over {scaling['n_tokens']} tokens: "
        f"{scaling['per_token_growth']:.2f}x; "
        f"preempt/resume round-trip {decode['preempt_resume_s'] * 1e3:.2f} ms"
    )
    store = document["store"]
    lines.append(
        f"tiered trie store ({store['n_chunks']} chunks, "
        f"{store['shared_prefix_tokens']}-token shared prefix): "
        f"{store['bytes_stored'] / 1e6:.2f} MB stored vs "
        f"{store['logical_bytes'] / 1e6:.2f} MB logical "
        f"({store['dedup_ratio']:.2f}x dedup, "
        f"{store['slow_tier_hits']} slow-tier hits)"
    )
    fleet = document["fleet"]
    lines.append(
        f"fleet routing ({fleet['n_replicas']} replicas, "
        f"{fleet['n_decisions']} decisions): "
        + ", ".join(
            f"{policy}: {stats['decision_s'] * 1e6:.1f} us/decision"
            for policy, stats in fleet["policies"].items()
        )
    )
    width = decode["width_scaling"]
    lines.append(
        "session step by batch width: "
        + ", ".join(
            f"w={w}: {s * 1e3:.2f} ms/step ({a:.2f}x amortised)"
            for w, s, a in zip(
                width["widths"],
                width["session_s_per_step"],
                width["amortisation_vs_sequential"],
            )
        )
    )
    return "\n".join(lines)
