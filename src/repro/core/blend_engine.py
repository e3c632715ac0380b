"""BlendEngine: the public façade of the CacheBlend reproduction.

The engine ties together the tokenizer, the runnable proxy transformer (for
KV fusion and deviation measurement), the KV cache store, the loading
controller and the serving cost model (for TTFT estimates on the paper's
real model architectures).

Two execution modes serve a request:

* ``execution="analytic"`` (default) fuses through the in-memory fusor and
  *estimates* TTFT with the analytical cost model — fast, deterministic,
  device-parameterised;
* ``execution="pipelined"`` routes the fuse through the
  :class:`~repro.core.executor.PipelinedExecutor`: each layer's KV streams
  off the (simulated) storage device on a background thread while earlier
  layers recompute, and the request carries a *measured*
  :class:`~repro.core.pipeline.PipelineTrace` whose load/compute/stall spans
  are wall-clock facts.  ``run_batch`` additionally pipelines *across*
  requests — request B's layer 0 loads while request A's tail layers
  recompute — and decodes the whole batch in lock-step on one persistent
  :class:`~repro.model.tensors.DecodeSession`, one session step per
  scheduler iteration.  Measured spans feed the cost model's
  :class:`~repro.serving.costmodel.OnlineCostCalibration` so scheduler cost
  estimates track observed rates.

Both modes run identical fusor numerics over identical store bytes, so the
fused KV is bitwise-equal between them.

Typical use::

    engine = BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd")
    engine.precompute_chunks(["chunk one text ...", "chunk two text ..."])
    result = engine.run(["chunk one text ...", "chunk two text ..."],
                        question="who proposed using RAG?",
                        execution="pipelined")
    print(result.ttft, result.trace.stall_time)
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import ControllerDecision, LoadingController
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusionResult, FusorConfig, KVFusor
from repro.core.pipeline import PipelineTrace
from repro.kvstore.config import StoreConfig
from repro.kvstore.device import StorageDevice, get_device
from repro.kvstore.faults import (
    FaultConfig,
    FaultyStore,
    StoreFault,
    StoreReadTimeout,
)
from repro.kvstore.precision import PrecisionPolicy
from repro.kvstore.protocol import ChunkStore, StoreLookup
from repro.kvstore.serialization import KVCorruptionError, quantize_kv_to_store_dtype
from repro.kvstore.store import chunk_key
from repro.model.config import PAPER_MODEL_PAIRS, ModelConfig, get_config
from repro.model.transformer import TransformerModel
from repro.serving.costmodel import GPUSpec, OnlineCostCalibration, ServingCostModel
from repro.tokenizer.tokenizer import Tokenizer

#: Supported request execution modes.
EXECUTION_MODES = ("analytic", "pipelined")

#: Per-request fault-recovery counters, all initialised to zero.
_FAULT_STAT_KEYS = (
    "fault_retries",
    "fault_timeouts",
    "fault_transients",
    "fault_corruptions",
    "fault_fallbacks",
    "fallback_recompute_tokens",
)


@dataclass(frozen=True)
class LookupRetryPolicy:
    """How :meth:`BlendEngine._gather_request` survives store read faults.

    Each chunk lookup gets ``max_retries`` retries after a typed store
    fault (:class:`~repro.kvstore.faults.StoreFault` subclasses or a
    :class:`~repro.kvstore.serialization.KVCorruptionError`), with
    exponential simulated backoff (``backoff_s * 2**attempt`` seconds,
    priced into the request's store read delay rather than slept).  A hit
    whose simulated ``read_delay`` exceeds ``timeout_s`` is cut off and
    treated as a timed-out read — the caller waited ``timeout_s`` for
    nothing.  When every attempt fails, the engine degrades gracefully:
    the chunk is recomputed from scratch (correct output, higher TTFT) and
    re-``put`` to repair the store.
    """

    max_retries: int = 2
    backoff_s: float = 0.005
    timeout_s: float | None = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive (or None to disable)")


@dataclass
class BlendResult:
    """Outcome of answering one request through CacheBlend.

    ``ttft`` is the headline time-to-first-token: the *measured* (trace
    derived) wall-clock under ``execution="pipelined"``, the analytical
    estimate under ``execution="analytic"``.  ``ttft_estimate`` always
    carries the analytical estimate so the two can be compared side by side;
    ``measured_ttft``/``trace`` are populated by the pipelined path only.
    A pipelined ``measured_ttft`` runs to the first emitted token: it folds
    in ``measured_first_decode_s``, the wall-clock of the first co-batched
    :class:`~repro.model.tensors.DecodeSession` step (the analytic
    ``ttft_estimate`` prices that step with the cost model, so the two stay
    comparable).  Generation is decoded in lock-step across the whole
    pipelined batch — one session step per iteration — so the first step is
    shared: every request of the batch carries the same
    ``measured_first_decode_s``, and ``decode_batch_width`` records how many
    requests that step decoded together.

    ``cache_stats`` is this request's *own* hit/miss accounting (KV store and
    tokenizer), counted locally while the request executed — it never reads
    the engine-global counters, so results from concurrent or interleaved
    batches cannot cross-contaminate.
    """

    fusion: FusionResult
    ttft: float
    decision: ControllerDecision
    cache_hits: int
    cache_misses: int
    generated_ids: list[int] = field(default_factory=list)
    n_context_tokens: int = 0
    n_suffix_tokens: int = 0
    execution: str = "analytic"
    ttft_estimate: float = 0.0
    measured_ttft: float | None = None
    #: Measured load-wait inside this request's pipeline (queueing behind
    #: earlier batch requests excluded); pipelined mode only.
    measured_stall: float | None = None
    #: Measured wall-clock of the first decode step (one co-batched
    #: ``DecodeSession`` step shared by the whole pipelined batch), already
    #: folded into ``measured_ttft``; pipelined mode only.
    measured_first_decode_s: float | None = None
    #: How many requests the first decode step was co-batched with (the
    #: session width at that step); pipelined mode only.
    decode_batch_width: int | None = None
    trace: PipelineTrace | None = None
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def n_total_tokens(self) -> int:
        return self.n_context_tokens + self.n_suffix_tokens


@dataclass
class _RequestInputs:
    """One request's gathered inputs plus its locally-counted statistics."""

    chunk_caches: list
    suffix_ids: np.ndarray
    context_tokens: int
    miss_tokens: int
    #: Measured wall-clock spent prefilling cold chunks for this request.
    miss_prefill_s: float
    stats: dict[str, int]
    #: Simulated extra seconds of store reads beyond the primary device's
    #: rate — nonzero only when a tiered store served hits from a slow tier.
    store_read_delay_s: float = 0.0

    @property
    def hits(self) -> int:
        return self.stats["hits"]

    @property
    def misses(self) -> int:
        return self.stats["misses"]


class _EncodingCache:
    """Small LRU memoizing tokenizer encodings per chunk/question text.

    Cache-hit requests repeat the same chunk texts, so re-encoding them on
    every request is pure O(chunk) overhead; the entries are tiny (one int64
    array per distinct text).  Arrays are returned read-only so a hit can be
    shared across requests without defensive copies.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()

    def get(self, text: str) -> np.ndarray | None:
        ids = self._entries.get(text)
        if ids is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(text)
        return ids

    def put(self, text: str, ids: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        ids.setflags(write=False)
        self._entries[text] = ids
        self._entries.move_to_end(text)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class BlendEngine:
    """End-to-end CacheBlend engine over a chunk store and a proxy model."""

    def __init__(
        self,
        model: TransformerModel,
        tokenizer: Tokenizer,
        kv_store: ChunkStore,
        controller: LoadingController,
        fusor_config: FusorConfig | None = None,
        timing_model: ModelConfig | None = None,
        encoding_cache_size: int = 1024,
        execution: str = "analytic",
        executor: PipelinedExecutor | None = None,
        precision: PrecisionPolicy | str | None = None,
        retry_policy: LookupRetryPolicy | None = None,
    ) -> None:
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {execution!r}; expected one of {EXECUTION_MODES}"
            )
        self.model = model
        self.tokenizer = tokenizer
        #: Any :class:`~repro.kvstore.protocol.ChunkStore` backend — whole
        #: chunk, radix-trie dedup, or a multi-tier hierarchy of either.
        self.kv_store = kv_store
        #: Store precision policy; chunk caches are round-tripped through it
        #: before ``put`` so fusion sees exactly the stored precision, and
        #: every load span is priced at its per-layer payload bytes.
        #: Defaults to the store's own policy when it carries one.
        if precision is None:
            precision = getattr(kv_store, "precision", None)
        self.precision = PrecisionPolicy.get(precision)
        self.controller = controller
        self.fusor = KVFusor(model, fusor_config or FusorConfig())
        #: Architecture used for the TTFT estimates (defaults to the proxy).
        self.timing_model = timing_model or model.config
        #: Default execution mode of :meth:`run`/:meth:`run_batch`.
        self.execution = execution
        #: The measured serving path; shares the store's device model and
        #: the engine's precision policy.
        self.executor = executor or PipelinedExecutor(
            model, self.fusor.config, device=kv_store.device, precision=self.precision
        )
        self._encodings = _EncodingCache(capacity=encoding_cache_size)
        #: Retry/timeout/fallback behaviour of store lookups under faults.
        self.retry_policy = retry_policy or LookupRetryPolicy()
        #: Engine-global fault-recovery counters, aggregated across requests
        #: (the per-request counts live in each result's ``cache_stats``).
        self._fault_totals: dict[str, int] = {key: 0 for key in _FAULT_STAT_KEYS}

    @property
    def kv_dtype(self) -> str:
        """Legacy name for the store precision policy's preset name."""
        return self.precision.name

    # ------------------------------------------------------------------
    # Tokenization (memoized)
    # ------------------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Tokenize *text*, memoizing the encoding per distinct string.

        Returns a read-only int64 array shared across requests; copy before
        mutating.
        """
        ids, _ = self._encode(text)
        return ids

    def _encode(self, text: str) -> tuple[np.ndarray, bool]:
        """Memoized encode returning ``(ids, was_cache_hit)``.

        The hit flag lets callers count per-request tokenizer statistics
        locally instead of diffing the engine-global counters.
        """
        ids = self._encodings.get(text)
        if ids is not None:
            return ids, True
        ids = np.asarray(self.tokenizer.encode(text), dtype=np.int64)
        self._encodings.put(text, ids)
        return ids, False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        paper_model: str = "Mistral-7B",
        device: str | StorageDevice = "nvme_ssd",
        recompute_ratio: float = 0.15,
        seed: int = 0,
        n_gpus: int | None = None,
        store_capacity_bytes: int | None = None,
        vocab_size: int | None = None,
        execution: str = "analytic",
        calibration: OnlineCostCalibration | None = None,
        store: StoreConfig | ChunkStore | None = None,
        faults: FaultConfig | None = None,
        retry_policy: LookupRetryPolicy | None = None,
    ) -> "BlendEngine":
        """Build an engine for one of the paper's evaluated models.

        ``paper_model`` must be one of ``Mistral-7B``, ``Yi-34B`` or
        ``Llama-70B``; the proxy configuration runs the actual NumPy forward
        pass while the corresponding architecture preset drives the timing.
        ``calibration`` (one is created by default) accumulates the measured
        per-layer rates of every pipelined run; pass a shared instance to
        feed one calibration from several engines.

        ``store`` selects the KV store backend: a
        :class:`~repro.kvstore.config.StoreConfig` recipe (chunk / trie /
        tiered), or a pre-built :class:`~repro.kvstore.protocol.ChunkStore`.
        The default is a whole-chunk store on ``device``.
        ``store_capacity_bytes`` is deprecated — pass
        ``store=StoreConfig(capacity_bytes=...)`` instead.

        ``faults`` (a :class:`~repro.kvstore.faults.FaultConfig` with
        ``rate > 0``) wraps the built store in a
        :class:`~repro.kvstore.faults.FaultyStore` for chaos testing;
        ``retry_policy`` tunes how the gather path retries and degrades
        when those (or real) store faults surface.
        """
        if paper_model not in PAPER_MODEL_PAIRS:
            known = ", ".join(sorted(PAPER_MODEL_PAIRS))
            raise KeyError(f"unknown paper model {paper_model!r}; known: {known}")
        proxy_name, timing_name = PAPER_MODEL_PAIRS[paper_model]
        proxy_config = get_config(proxy_name)
        if vocab_size is not None:
            proxy_config = ModelConfig(
                **{**proxy_config.__dict__, "vocab_size": vocab_size}
            )
        timing_config = get_config(timing_name)
        if n_gpus is None:
            n_gpus = 2 if paper_model == "Llama-70B" else 1

        if store_capacity_bytes is not None:
            if store is not None:
                raise ValueError(
                    "pass either store= or the deprecated store_capacity_bytes=, not both"
                )
            warnings.warn(
                "store_capacity_bytes= is deprecated; pass "
                "store=StoreConfig(capacity_bytes=...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
            store = StoreConfig(capacity_bytes=store_capacity_bytes)

        model = TransformerModel(proxy_config, seed=seed)
        tokenizer = Tokenizer(vocab_size=proxy_config.vocab_size)
        storage = device if isinstance(device, StorageDevice) else get_device(device)
        if store is None:
            store = StoreConfig()
        if isinstance(store, StoreConfig):
            # Every backend accounts and prices bytes at the store precision
            # policy's widths — identical payloads cost the same no matter
            # which backend holds them.
            precision = store.precision
            kv_store = store.build(device=None if store.tiered else storage)
        else:
            kv_store = store
            precision = PrecisionPolicy.get(getattr(store, "precision", None))
        if faults is not None and faults.rate > 0.0:
            kv_store = FaultyStore(kv_store, faults)
        cost_model = ServingCostModel(
            timing_config,
            GPUSpec(),
            n_gpus=n_gpus,
            calibration=calibration or OnlineCostCalibration(),
            precision=precision,
        )
        controller = LoadingController(cost_model, min_quality_ratio=recompute_ratio)
        return cls(
            model=model,
            tokenizer=tokenizer,
            kv_store=kv_store,
            controller=controller,
            fusor_config=FusorConfig(recompute_ratio=recompute_ratio),
            timing_model=timing_config,
            execution=execution,
            precision=precision,
            retry_policy=retry_policy,
        )

    # ------------------------------------------------------------------
    # Chunk precomputation
    # ------------------------------------------------------------------
    def chunk_cache_key(self, token_ids: np.ndarray) -> str:
        return chunk_key(token_ids, model_name=self.model.config.name)

    def precompute_chunk(self, text: str) -> str:
        """Tokenize, prefill and store one chunk; returns its cache key.

        The stored cache is round-tripped through the store's precision
        policy (per-layer fp32/fp16/int8), so what the in-memory fusion path
        sees is bit-identical to what the executor's byte-level load path
        decodes.
        """
        token_ids = self.encode(text)
        if token_ids.size == 0:
            raise ValueError("cannot precompute an empty chunk")
        key = self.chunk_cache_key(token_ids)
        if not self.kv_store.contains(key):
            cache = self.model.chunk_prefill(token_ids, start_position=0)
            self.kv_store.put(key, quantize_kv_to_store_dtype(cache, self.precision))
        return key

    def precompute_chunks(self, texts: list[str]) -> list[str]:
        """Precompute and store the KV caches of several chunks."""
        return [self.precompute_chunk(text) for text in texts]

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _resolve_execution(self, execution: str | None) -> str:
        mode = self.execution if execution is None else execution
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
            )
        return mode

    def _lookup_with_retry(
        self, key: str, stats: dict[str, int]
    ) -> tuple[StoreLookup, float, bool]:
        """One chunk lookup under the engine's :class:`LookupRetryPolicy`.

        Returns ``(found, fault_delay_s, fallback)``: the final lookup
        result, the simulated seconds lost to faulted attempts (timeouts
        waited out plus exponential backoff between retries), and whether
        every attempt failed — in which case the caller must recompute the
        chunk from scratch.  A clean miss is not a fault and returns
        immediately; faults are only counted on attempts that raised (or a
        hit cut off by the per-lookup timeout).
        """
        policy = self.retry_policy
        fault_delay_s = 0.0
        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                stats["fault_retries"] += 1
                fault_delay_s += policy.backoff_s * 2 ** (attempt - 1)
            try:
                found = self.kv_store.lookup(key)
            except StoreReadTimeout:
                stats["fault_timeouts"] += 1
                if policy.timeout_s is not None:
                    fault_delay_s += policy.timeout_s
                continue
            except StoreFault:
                stats["fault_transients"] += 1
                continue
            except KVCorruptionError:
                stats["fault_corruptions"] += 1
                continue
            if (
                found.hit
                and policy.timeout_s is not None
                and found.read_delay > policy.timeout_s
            ):
                # The read would outlive the lookup deadline: the caller
                # waited ``timeout_s`` for nothing, then retried.
                stats["fault_timeouts"] += 1
                fault_delay_s += policy.timeout_s
                continue
            return found, fault_delay_s, False
        return StoreLookup(cache=None), fault_delay_s, True

    def _gather_request(self, chunk_texts: list[str], question: str) -> _RequestInputs:
        """Resolve one request's chunk caches, counting its stats locally.

        Chunks missing from the KV store are prefilled on the fly (the
        measured wall-clock is recorded in ``miss_prefill_s``) and inserted
        for future requests, exactly like a cold chunk in the real system.
        Store lookups that keep faulting (timeouts, transient losses,
        corrupted payloads) degrade the same way: after
        :class:`LookupRetryPolicy` is exhausted the chunk is recomputed from
        scratch — correct output, higher TTFT — and re-``put`` to repair the
        store; every such fallback is counted in the request's stats.
        """
        if not chunk_texts:
            raise ValueError("run() needs at least one context chunk")
        if not question.strip():
            raise ValueError("run() needs a non-empty question")

        chunk_caches = []
        stats = {
            "hits": 0,
            "misses": 0,
            "miss_tokens": 0,
            "slow_tier_hits": 0,
            "tokenizer_hits": 0,
            "tokenizer_misses": 0,
            **{key: 0 for key in _FAULT_STAT_KEYS},
        }
        context_tokens = 0
        miss_prefill_s = 0.0
        store_read_delay_s = 0.0
        primary = self.kv_store.device
        for text in chunk_texts:
            token_ids, encoded_hit = self._encode(text)
            stats["tokenizer_hits" if encoded_hit else "tokenizer_misses"] += 1
            context_tokens += int(token_ids.size)
            key = self.chunk_cache_key(token_ids)
            found, fault_delay_s, fallback = self._lookup_with_retry(key, stats)
            store_read_delay_s += fault_delay_s
            cached = found.cache
            if cached is None:
                if fallback:
                    # Graceful degradation: the store kept faulting, so the
                    # chunk is recomputed (priced like a miss via
                    # ``miss_tokens``) and re-put to repair the store — but
                    # it is *not* a cache miss: the entry was there.
                    stats["fault_fallbacks"] += 1
                    stats["fallback_recompute_tokens"] += int(token_ids.size)
                else:
                    stats["misses"] += 1
                stats["miss_tokens"] += int(token_ids.size)
                start = time.perf_counter()
                cached = quantize_kv_to_store_dtype(
                    self.model.chunk_prefill(token_ids, start_position=0),
                    self.precision,
                )
                miss_prefill_s += time.perf_counter() - start
                self.kv_store.put(key, cached)
            else:
                stats["hits"] += 1
                # Reads at the primary (fastest) device's rate are already
                # part of the pipeline's per-layer load delay; only the
                # slow-tier excess is charged on top.  Exactly zero for any
                # single-tier store.
                store_read_delay_s += max(
                    0.0, found.read_delay - primary.read_time(found.nbytes)
                )
                if found.tier_index is not None and found.tier_index > 0:
                    stats["slow_tier_hits"] += 1
            chunk_caches.append(cached)
        for fault_key in _FAULT_STAT_KEYS:
            self._fault_totals[fault_key] += stats[fault_key]

        suffix_ids, suffix_hit = self._encode(question)
        stats["tokenizer_hits" if suffix_hit else "tokenizer_misses"] += 1
        return _RequestInputs(
            chunk_caches=chunk_caches,
            suffix_ids=suffix_ids,
            context_tokens=context_tokens,
            miss_tokens=stats["miss_tokens"],
            miss_prefill_s=miss_prefill_s,
            stats=stats,
            store_read_delay_s=store_read_delay_s,
        )

    def _executor_for(self, device: StorageDevice) -> PipelinedExecutor:
        """The engine's executor, re-targeted when the controller picked a
        different storage device than the KV store's (``candidate_devices``):
        the measured transfer delays must simulate the device the analytic
        estimate beside them is priced at."""
        if device.name == self.executor.device.name:
            return self.executor
        return PipelinedExecutor(
            self.model, self.fusor.config, device=device, precision=self.precision
        )

    def _decide(self, inputs: _RequestInputs, recompute_ratio, candidate_devices):
        decision = self.controller.decide(
            n_context_tokens=inputs.context_tokens,
            n_suffix_tokens=int(inputs.suffix_ids.size),
            devices=candidate_devices,
            device=None if candidate_devices else self.kv_store.device,
        )
        ratio = (
            recompute_ratio if recompute_ratio is not None else decision.recompute_ratio
        )
        return decision, ratio

    def _observe(self, trace: PipelineTrace, inputs: _RequestInputs, fusion) -> None:
        """Feed one measured trace into the cost model's online calibration."""
        calibration = self.controller.cost_model.calibration
        if calibration is not None:
            calibration.observe(
                trace,
                n_context_tokens=inputs.context_tokens,
                recompute_counts=fusion.recompute_counts,
            )

    def _decode_session_batch(
        self, fusions: list[FusionResult], max_new_tokens: int
    ) -> tuple[float, list[list[int]]]:
        """Co-batched generation for every pipelined request of a batch.

        All requests join one persistent
        :class:`~repro.model.tensors.DecodeSession` (their fused caches are
        copied into the padded slots once — setup, outside the timed spans;
        a persistent engine would have prefilled into the pad directly), and
        generation runs Orca-style lock-step: **one session step per
        scheduler iteration** for the whole batch.  Steady-state steps write
        only each member's appended row; requests leave the session —
        freeing their slot — the moment they finish, so peak resident KV
        tracks the live batch.

        The first step is timed exactly (the per-iteration unit the
        continuous-batching scheduler paces decode with) and every executed
        step feeds the cost model's width-aware decode calibration, tagged
        with its batch width.  Returns ``(first_step_seconds,
        generated_ids_per_request)``.
        """
        calibration = self.controller.cost_model.calibration

        def observe(step_seconds: float, batch_width: int) -> None:
            if calibration is not None:
                calibration.observe_decode(step_seconds, batch_width=batch_width)

        session = self.model.new_decode_session(
            slot_capacity=max(1, len(fusions))
        )
        for index, fusion in enumerate(fusions):
            session.join(index, fusion.kv_cache, reserve=max(1, max_new_tokens))
        # The first token of every request is decoded in one shared, measured
        # step (mirroring the per-request measured first step this replaces,
        # which also ran regardless of EOS or a zero token budget).
        first_ids = [int(np.argmax(fusion.last_logits)) for fusion in fusions]
        start = time.perf_counter()
        step_logits = self.model.decode_session_step(session, first_ids)
        first_step_s = time.perf_counter() - start
        observe(first_step_s, session.n_members)

        generated: list[list[int]] = [[] for _ in fusions]
        for index, first_id in enumerate(first_ids):
            if max_new_tokens > 0 and first_id != self.tokenizer.eos_id:
                generated[index] = [first_id]
            else:
                session.leave(index)
        if session.n_members and max_new_tokens > 1:
            order = list(session.member_ids)
            rest = self.model.generate_session(
                session,
                [step_logits[index] for index in order],
                max_new_tokens=max_new_tokens - 1,
                eos_id=self.tokenizer.eos_id,
                on_step=observe,
            )
            for index, tokens in zip(order, rest):
                generated[index].extend(tokens)
        else:
            for index in list(session.member_ids):
                session.leave(index)
        return first_step_s, generated

    def _finish(
        self,
        inputs: _RequestInputs,
        fusion: FusionResult,
        decision: ControllerDecision,
        ratio: float,
        mode: str,
        max_new_tokens: int,
        measured_ttft: float | None = None,
        measured_stall: float | None = None,
        trace: PipelineTrace | None = None,
        generated: list[int] | None = None,
        measured_first_decode_s: float | None = None,
        decode_batch_width: int | None = None,
    ) -> BlendResult:
        """Assemble one request's :class:`BlendResult`.

        Pipelined callers pass the request's share of the co-batched session
        decode (``generated``, the shared ``measured_first_decode_s`` and
        the ``decode_batch_width``); the first decode step is folded into
        the measured TTFT here.  Analytic callers generate per request
        through a width-1 session whose steps are not timed, so they never
        feed the cost model's calibration.
        """
        ttft_estimate = self._estimate_ttft(
            inputs.context_tokens,
            int(inputs.suffix_ids.size),
            inputs.miss_tokens,
            ratio,
            decision.device,
            store_read_delay_s=inputs.store_read_delay_s,
        )
        if mode == "pipelined":
            if measured_ttft is not None and measured_first_decode_s is not None:
                measured_ttft += measured_first_decode_s
        elif max_new_tokens > 0:
            session = self.model.new_decode_session(slot_capacity=1)
            session.join(0, fusion.kv_cache, reserve=max_new_tokens)
            generated = self.model.generate_session(
                session,
                [fusion.last_logits],
                max_new_tokens=max_new_tokens,
                eos_id=self.tokenizer.eos_id,
            )[0]
        return BlendResult(
            fusion=fusion,
            ttft=measured_ttft if measured_ttft is not None else ttft_estimate,
            decision=decision,
            cache_hits=inputs.hits,
            cache_misses=inputs.misses,
            generated_ids=generated or [],
            n_context_tokens=inputs.context_tokens,
            n_suffix_tokens=int(inputs.suffix_ids.size),
            execution=mode,
            ttft_estimate=ttft_estimate,
            measured_ttft=measured_ttft,
            measured_stall=measured_stall,
            measured_first_decode_s=measured_first_decode_s,
            decode_batch_width=decode_batch_width,
            trace=trace,
            cache_stats=dict(inputs.stats),
        )

    def run(
        self,
        chunk_texts: list[str],
        question: str,
        recompute_ratio: float | None = None,
        max_new_tokens: int = 0,
        candidate_devices: list[StorageDevice] | None = None,
        execution: str | None = None,
    ) -> BlendResult:
        """Answer one request whose input is *chunk_texts* followed by *question*.

        ``execution`` overrides the engine's default mode for this request:
        ``"pipelined"`` executes the load/recompute pipeline and returns a
        measured TTFT (cold-chunk prefill wall-clock included) plus the
        per-layer :class:`~repro.core.pipeline.PipelineTrace`;
        ``"analytic"`` estimates TTFT with the cost model as before.
        """
        mode = self._resolve_execution(execution)
        inputs = self._gather_request(chunk_texts, question)
        decision, ratio = self._decide(inputs, recompute_ratio, candidate_devices)

        if mode == "pipelined":
            executed = self._executor_for(decision.device).execute(
                inputs.chunk_caches,
                inputs.suffix_ids,
                recompute_ratio=ratio,
                pipelined=True,
                extra_load_delay=inputs.store_read_delay_s,
            )
            self._observe(executed.trace, inputs, executed.fusion)
            first_decode_s, generated = self._decode_session_batch(
                [executed.fusion], max_new_tokens
            )
            return self._finish(
                inputs,
                executed.fusion,
                decision,
                ratio,
                mode,
                max_new_tokens,
                measured_ttft=executed.total_time + inputs.miss_prefill_s,
                measured_stall=executed.stall_time,
                trace=executed.trace,
                generated=generated[0],
                measured_first_decode_s=first_decode_s,
                decode_batch_width=1,
            )

        fusion = self.fusor.fuse(
            inputs.chunk_caches, inputs.suffix_ids, recompute_ratio=ratio
        )
        return self._finish(inputs, fusion, decision, ratio, mode, max_new_tokens)

    # ------------------------------------------------------------------
    # Batch execution (used by the bench subsystem)
    # ------------------------------------------------------------------
    def run_batch(
        self,
        batch: list[tuple[list[str], str]],
        recompute_ratio: float | None = None,
        max_new_tokens: int = 0,
        execution: str | None = None,
    ) -> list[BlendResult]:
        """Answer a batch of ``(chunk_texts, question)`` requests in order.

        Requests share the engine's KV store, so chunks repeated across the
        batch hit the cache exactly as they would across a request stream;
        each :class:`BlendResult` carries its own locally-counted
        ``cache_stats`` (the engine-global :attr:`cache_stats` aggregates
        across requests and batches).

        Under ``execution="pipelined"`` the whole batch runs through
        :meth:`~repro.core.executor.PipelinedExecutor.execute_batch` with
        *cross-request* pipelining — while request A's tail layers recompute,
        request B's layer-0 KV is already streaming off the device — and each
        result's measured TTFT is its completion offset in the batch
        (queueing behind earlier requests included).  Generation is then
        co-batched: every request joins one persistent
        :class:`~repro.model.tensors.DecodeSession` and the batch decodes in
        lock-step, one session step per iteration (the measured first step,
        shared across the batch, is folded into each measured TTFT).
        """
        mode = self._resolve_execution(execution)
        if mode == "analytic":
            return [
                self.run(
                    chunk_texts,
                    question,
                    recompute_ratio=recompute_ratio,
                    max_new_tokens=max_new_tokens,
                    execution=mode,
                )
                for chunk_texts, question in batch
            ]

        gathered = [
            self._gather_request(chunk_texts, question) for chunk_texts, question in batch
        ]
        decisions = [self._decide(inputs, recompute_ratio, None) for inputs in gathered]
        executed = self.executor.execute_batch(
            [(inputs.chunk_caches, inputs.suffix_ids) for inputs in gathered],
            recompute_ratio=[ratio for _, ratio in decisions],
            pipelined=True,
            extra_load_delay=[inputs.store_read_delay_s for inputs in gathered],
        )
        for inputs, request in zip(gathered, executed):
            self._observe(request.trace, inputs, request.fusion)
        first_decode_s, generated = self._decode_session_batch(
            [request.fusion for request in executed], max_new_tokens
        )
        results: list[BlendResult] = []
        for index, (inputs, (decision, ratio), request) in enumerate(
            zip(gathered, decisions, executed)
        ):
            results.append(
                self._finish(
                    inputs,
                    request.fusion,
                    decision,
                    ratio,
                    mode,
                    max_new_tokens,
                    measured_ttft=request.total_time + inputs.miss_prefill_s,
                    measured_stall=request.stall_time,
                    trace=request.trace,
                    generated=generated[index],
                    measured_first_decode_s=first_decode_s,
                    decode_batch_width=len(executed),
                )
            )
        return results

    @property
    def cache_stats(self) -> dict[str, float]:
        """JSON-friendly snapshot of the KV store's and tokenizer's counters.

        Includes the engine's fault-recovery counters (retries, timeouts,
        recompute fallbacks) aggregated across requests, and — when the
        store is a :class:`~repro.kvstore.faults.FaultyStore` — the
        injector's own per-kind counts.
        """
        stats = self.kv_store.stats.as_dict()
        # A tiered store keeps bytes in its tiers, not the top-level counter.
        stats["bytes_stored"] = self.kv_store.bytes_stored
        stats["tokenizer_hits"] = self._encodings.hits
        stats["tokenizer_misses"] = self._encodings.misses
        stats.update(self._fault_totals)
        fault_stats = getattr(self.kv_store, "fault_stats", None)
        if fault_stats is not None:
            stats.update(fault_stats.as_dict())
        return stats

    def reset_cache_stats(self) -> None:
        """Zero the KV store and tokenizer counters (e.g. between cells)."""
        self.kv_store.reset_stats()
        self._encodings.reset_stats()
        self._fault_totals = {key: 0 for key in _FAULT_STAT_KEYS}
        reset_faults = getattr(self.kv_store, "reset_fault_stats", None)
        if reset_faults is not None:
            reset_faults()

    # ------------------------------------------------------------------
    def _estimate_ttft(
        self,
        n_context: int,
        n_suffix: int,
        n_miss: int,
        ratio: float,
        device: StorageDevice,
        store_read_delay_s: float = 0.0,
    ) -> float:
        """TTFT estimate on the paper architecture, including cold-chunk cost."""
        cost_model = self.controller.cost_model
        n_total = n_context + n_suffix
        ttft = cost_model.ttft_cacheblend(n_total, n_suffix, ratio, device, pipelined=True)
        if n_miss > 0:
            # Cold chunks must be prefilled (they are then stored for later).
            ttft += cost_model.prefill_time(n_miss)
        # Hits served from a slow store tier read slower than `device`; the
        # excess extends the load side of the pipeline.
        ttft += store_read_delay_s
        # Include the first decode step, as TTFT is measured to the first token.
        ttft += cost_model.decode_time_per_token(context_tokens=n_total)
        return ttft
