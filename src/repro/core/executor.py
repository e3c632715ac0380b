"""Executed layer-wise pipelining of KV loading and selective recompute.

:mod:`repro.core.pipeline` *models* the paper's §5 schedule analytically; this
module actually **runs** it.  A :class:`PipelinedExecutor` drives
:meth:`KVFusor.fuse_layers` while a background loader thread streams each
layer's serialized KV off a (simulated) storage device:

* every layer's reused KV exists as raw bytes in the store's wire precision
  (fp16 by default; fp32/int8/per-layer mixed under a
  :class:`~repro.kvstore.precision.PrecisionPolicy` — the formats of
  :mod:`repro.kvstore.serialization`); *loading* a layer means sleeping for
  the device's transfer delay priced at that layer's payload width, then
  decoding (``np.frombuffer``), RoPE re-aligning and padding the chunk
  entries — real work, on a real thread;
* the fusor's compute for layer ``i`` blocks until layer ``i``'s load has
  finished, exactly the two-thread double buffer the paper describes in §6;
* every load and compute span is measured with ``time.perf_counter`` and
  reported as a :class:`~repro.core.pipeline.PipelineTrace` — the same type
  the analytical model emits, but with *measured* timestamps.

``pipelined=False`` runs the identical code path without the background
thread (each layer is loaded synchronously right before its compute), which
is the sequential baseline the measured speedup is reported against.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.fusor import (
    FusionLayout,
    FusionResult,
    FusorConfig,
    KVFusor,
    LayerProvider,
    place_chunk_layer,
)
from repro.core.pipeline import PipelineTrace
from repro.kvstore.device import StorageDevice, get_device
from repro.kvstore.precision import PrecisionPolicy
from repro.kvstore.serialization import pack_layer_kv_as, unpack_layer_kv_as
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel


@dataclass
class ExecutionResult:
    """One executed (not modeled) fusion pass plus its measured schedule.

    Inside a batch (:meth:`PipelinedExecutor.execute_batch`) all trace
    timestamps share the batch's time origin, so :attr:`total_time` is the
    request's completion offset in the batch — queueing behind earlier
    requests included, which is exactly the measured serving delay.
    """

    fusion: FusionResult
    trace: PipelineTrace
    pipelined: bool
    #: Simulated device transfer delay injected per layer (seconds).
    simulated_load_delay: float
    #: Batch-origin offset at which the compute stream became available to
    #: this request (the previous request's last compute end; 0 for the
    #: first / a standalone request).
    queue_start: float = 0.0

    @property
    def load_times(self) -> np.ndarray:
        """Measured per-layer load durations (transfer + decode + re-align)."""
        return self.trace.load_end - self.trace.load_start

    @property
    def compute_times(self) -> np.ndarray:
        """Measured per-layer selective-recompute durations."""
        return self.trace.compute_end - self.trace.compute_start

    @property
    def total_time(self) -> float:
        """Measured wall-clock of the whole fuse (seconds)."""
        return self.trace.total_time

    @property
    def stall_time(self) -> float:
        """Measured time compute spent waiting on loads (incl. the first load).

        Waiting for earlier requests in a batch is queueing, not stall, so
        the head wait is measured from :attr:`queue_start`.
        """
        return self.trace.stall_time_since(self.queue_start)


@dataclass
class BatchExecutionResult:
    """A queue of requests executed back to back on one loader/compute pair."""

    requests: list[ExecutionResult]
    pipelined: bool
    #: Measured wall-clock from batch start to the last request's completion.
    makespan: float

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def completion_offsets(self) -> list[float]:
        """Per-request completion offsets from the batch origin (seconds)."""
        return [r.total_time for r in self.requests]


@dataclass
class _RequestPlan:
    """Per-request load state; the packed blobs are made one layer at a time.

    Layout, positions and the simulated per-layer delays are prepared before
    the batch clock starts, but a layer's raw store-precision blobs — the
    store's view of the caches — are packed only right before that layer
    loads, so neither a deep queue nor one request ever holds more than a
    layer's bytes at once, and the next request's first load starts after
    one layer's packing, not all of them.
    """

    layout: FusionLayout
    chunk_caches: list[KVCache]
    chunk_positions: list[np.ndarray]
    #: Per-layer wire dtypes from the executor's precision policy.
    layer_dtypes: tuple[str, ...]
    #: Per-layer simulated transfer delays (non-uniform under ``mixed``).
    layer_delays: tuple[float, ...]
    #: Mean per-layer delay, reported as ``simulated_load_delay``.
    delay: float
    recompute_ratio: float | None

    def layer_blobs(self, layer_idx: int) -> list[bytes]:
        """Pack one layer's raw store-precision bytes per chunk — what
        serialize_kv would have persisted."""
        dtype = self.layer_dtypes[layer_idx]
        return [
            pack_layer_kv_as(cache.layers[layer_idx], dtype) for cache in self.chunk_caches
        ]


class _SpanRecorder:
    """Records per-layer compute spans relative to the executor's clock origin."""

    def __init__(self, n_layers: int, origin: float) -> None:
        self.origin = origin
        self.compute_start_at = np.zeros(n_layers)
        self.compute_end_at = np.zeros(n_layers)

    def compute_start(self, layer_idx: int) -> None:
        self.compute_start_at[layer_idx] = time.perf_counter() - self.origin

    def compute_end(self, layer_idx: int) -> None:
        self.compute_end_at[layer_idx] = time.perf_counter() - self.origin


class PipelinedExecutor:
    """Overlaps per-layer KV loading with selective recompute, for real.

    Parameters
    ----------
    model:
        The runnable proxy transformer the fusor computes with.
    fusor_config:
        Selective-recompute configuration (ratio, gradual filtering shape).
    device:
        Storage device (preset name or instance) whose read bandwidth and
        access latency set the simulated per-layer transfer delay.
    time_scale:
        Multiplier on the device transfer delay.  The proxy model's layers
        are tiny, so scaling lets experiments hit the load≈compute operating
        point the paper's pipelining targets without terabyte caches.
    layer_load_time:
        When set, a fixed simulated transfer delay in seconds per layer,
        overriding the device model entirely (used by the profile harness to
        calibrate loads against measured compute).
    precision:
        The store's :class:`~repro.kvstore.precision.PrecisionPolicy` (or a
        preset name).  Governs both the wire format each layer is packed and
        decoded with and the payload bytes each layer's transfer delay is
        priced at.  Defaults to uniform fp16, the historical behaviour.
    """

    def __init__(
        self,
        model: TransformerModel,
        fusor_config: FusorConfig | None = None,
        device: StorageDevice | str = "nvme_ssd",
        time_scale: float = 1.0,
        layer_load_time: float | None = None,
        precision: PrecisionPolicy | str | None = None,
    ) -> None:
        self.model = model
        self.fusor = KVFusor(model, fusor_config)
        self.device = device if isinstance(device, StorageDevice) else get_device(device)
        if time_scale < 0:
            raise ValueError("time_scale must be non-negative")
        if layer_load_time is not None and layer_load_time < 0:
            raise ValueError("layer_load_time must be non-negative")
        self.time_scale = time_scale
        self.layer_load_time = layer_load_time
        self.precision = PrecisionPolicy.get(precision)

    # ------------------------------------------------------------------
    def execute(
        self,
        chunk_caches: list[KVCache],
        suffix_token_ids: np.ndarray,
        recompute_ratio: float | None = None,
        pipelined: bool = True,
        extra_load_delay: float = 0.0,
    ) -> ExecutionResult:
        """Fuse *chunk_caches* + suffix, measuring the load/compute schedule.

        With ``pipelined=True`` a background thread loads layer ``i+1, i+2,
        ...`` while layer ``i`` recomputes; with ``pipelined=False`` each
        layer is loaded synchronously immediately before its compute.  Both
        paths run the identical fusor numerics and return identical
        :class:`FusionResult` contents (up to float scheduling noise — the
        numerics are deterministic).

        ``extra_load_delay`` adds that many seconds of simulated transfer to
        the request's loads (spread evenly across layers) — how the engine
        charges slow-tier store reads onto the measured pipeline.
        """
        batch = self.execute_batch(
            [(chunk_caches, suffix_token_ids)],
            recompute_ratio=recompute_ratio,
            pipelined=pipelined,
            extra_load_delay=[extra_load_delay],
        )
        return batch.requests[0]

    # ------------------------------------------------------------------
    def execute_batch(
        self,
        items: list[tuple[list[KVCache], np.ndarray]],
        recompute_ratio: float | list[float | None] | None = None,
        pipelined: bool = True,
        extra_load_delay: list[float] | None = None,
    ) -> BatchExecutionResult:
        """Fuse a queue of ``(chunk_caches, suffix_token_ids)`` requests.

        With ``pipelined=True`` one background loader thread streams layers
        *across request boundaries*: while request ``r``'s tail layers
        recompute, request ``r+1``'s layer 0 is already loading — the
        cross-request extension of the paper's §5 pipeline (modeled
        analytically by :func:`~repro.core.pipeline.cross_request_schedule`).
        The loader runs at most one request ahead of compute, bounding peak
        memory to ~two requests' decoded buffers regardless of queue depth.
        With ``pipelined=False`` every request loads and computes strictly in
        turn, which is the sequential baseline the batch speedup is reported
        against.

        ``recompute_ratio`` may be a single value for the whole queue or one
        value per request.  ``extra_load_delay`` (one value per request)
        adds simulated transfer seconds to a request's loads, spread evenly
        across its layers — the engine's channel for slow-tier store reads.
        All returned traces share the batch time origin.
        """
        if not items:
            raise ValueError("execute_batch needs at least one request")
        if isinstance(recompute_ratio, list):
            if len(recompute_ratio) != len(items):
                raise ValueError("need one recompute_ratio per request")
            ratios = list(recompute_ratio)
        else:
            ratios = [recompute_ratio] * len(items)
        if extra_load_delay is None:
            extras = [0.0] * len(items)
        else:
            if len(extra_load_delay) != len(items):
                raise ValueError("need one extra_load_delay per request")
            extras = [float(extra) for extra in extra_load_delay]

        plans = [
            self._plan_request(chunk_caches, suffix_ids, ratio, extra)
            for (chunk_caches, suffix_ids), ratio, extra in zip(items, ratios, extras)
        ]
        n_layers = self.model.config.n_layers
        n_requests = len(plans)
        load_start = [np.zeros(n_layers) for _ in range(n_requests)]
        load_end = [np.zeros(n_layers) for _ in range(n_requests)]
        slots: list[list[LayerKV | None]] = [[None] * n_layers for _ in range(n_requests)]
        ready = [
            [threading.Event() for _ in range(n_layers)] for _ in range(n_requests)
        ]
        load_error: list[BaseException] = []

        origin = time.perf_counter()

        def load_layer(req_idx: int, layer_idx: int) -> None:
            plan = plans[req_idx]
            blobs = plan.layer_blobs(layer_idx)
            load_start[req_idx][layer_idx] = time.perf_counter() - origin
            # The simulated device transfer.  Even a zero delay sleeps: that
            # drops the GIL, so a compute thread woken by the previous
            # layer's event runs now instead of waiting out the interpreter's
            # switch interval (5 ms) behind this thread.
            time.sleep(plan.layer_delays[layer_idx])
            slots[req_idx][layer_idx] = self._decode_layer(
                blobs,
                plan.layer_dtypes[layer_idx],
                plan.chunk_positions,
                plan.layout,
            )
            load_end[req_idx][layer_idx] = time.perf_counter() - origin
            ready[req_idx][layer_idx].set()

        # Backpressure: the loader may run at most one request ahead of the
        # compute stream (the §6 double buffer at request granularity), so
        # peak memory holds ~two requests' decoded buffers, not the
        # queue's.  ``abort`` stops it promptly if compute fails mid-batch.
        lookahead = threading.Semaphore(2)
        abort = threading.Event()
        thread: threading.Thread | None = None
        if pipelined:

            def loader() -> None:
                try:
                    for req_idx in range(n_requests):
                        lookahead.acquire()
                        if abort.is_set():
                            return
                        for layer_idx in range(n_layers):
                            load_layer(req_idx, layer_idx)
                except BaseException as exc:  # surface in the compute thread
                    load_error.append(exc)
                    for events in ready:
                        for event in events:
                            event.set()

            thread = threading.Thread(target=loader, name="kv-loader", daemon=True)
            thread.start()

        results: list[ExecutionResult] = []
        queue_start = 0.0
        try:
            for req_idx, plan in enumerate(plans):
                def provider(layer_idx: int, req_idx: int = req_idx) -> LayerKV:
                    if pipelined:
                        ready[req_idx][layer_idx].wait()
                        if load_error:
                            raise load_error[0]
                    else:
                        load_layer(req_idx, layer_idx)
                    layer = slots[req_idx][layer_idx]
                    slots[req_idx][layer_idx] = None  # the fusor consumes the buffer
                    assert layer is not None
                    return layer

                provider_typed: LayerProvider = provider
                recorder = _SpanRecorder(n_layers, origin)
                fusion = self.fusor.fuse_layers(
                    provider_typed,
                    plan.layout,
                    recompute_ratio=plan.recompute_ratio,
                    recorder=recorder,
                )
                lookahead.release()
                results.append(
                    ExecutionResult(
                        fusion=fusion,
                        trace=PipelineTrace(
                            load_start=load_start[req_idx],
                            load_end=load_end[req_idx],
                            compute_start=recorder.compute_start_at,
                            compute_end=recorder.compute_end_at,
                        ),
                        pipelined=pipelined,
                        simulated_load_delay=plan.delay,
                        queue_start=queue_start,
                    )
                )
                queue_start = (
                    float(recorder.compute_end_at[-1]) if n_layers else queue_start
                )
        except BaseException:
            # Unblock and stop the loader so it neither leaks nor keeps the
            # remaining queue's buffers alive behind a blocked acquire().
            abort.set()
            lookahead.release()
            raise
        if thread is not None:
            thread.join()

        return BatchExecutionResult(
            requests=results,
            pipelined=pipelined,
            makespan=time.perf_counter() - origin,
        )

    # ------------------------------------------------------------------
    def _plan_request(
        self,
        chunk_caches: list[KVCache],
        suffix_token_ids: np.ndarray,
        recompute_ratio: float | None,
        extra_load_delay: float = 0.0,
    ) -> _RequestPlan:
        """Validate one request and plan its layout and simulated delay.

        Validation (layout, KV shapes, ratio) happens here, before any
        loader thread starts, so a bad request fails fast instead of from a
        background thread.  The blob bytes themselves are packed lazily,
        layer by layer, as the request loads (see :class:`_RequestPlan`).
        """
        if recompute_ratio is not None and not 0.0 <= recompute_ratio <= 1.0:
            raise ValueError("recompute_ratio must be in [0, 1]")
        if extra_load_delay < 0.0:
            raise ValueError("extra_load_delay must be non-negative")
        layout = self.fusor.plan_layout(chunk_caches, suffix_token_ids)
        cfg = self.model.config
        n_layers = cfg.n_layers
        layer_dtypes = self.precision.layer_dtype_table(n_layers)
        if self.layer_load_time is not None:
            layer_delays = [float(self.layer_load_time)] * n_layers
        else:
            # K+V payload bytes of each layer across the request's chunks
            # (what pack_layer_kv_as will produce), computable without
            # packing; non-uniform across layers under a mixed policy.
            layer_delays = [
                self.device.read_time(
                    sum(
                        self.precision.layer_payload_nbytes(
                            layer_idx,
                            n_layers,
                            n_tokens=cache.positions.size,
                            n_kv_heads=cfg.n_kv_heads,
                            head_dim=cfg.head_dim,
                        )
                        for cache in chunk_caches
                    )
                )
                * self.time_scale
                for layer_idx in range(n_layers)
            ]
        if extra_load_delay > 0.0 and n_layers:
            per_layer = extra_load_delay / n_layers
            layer_delays = [delay + per_layer for delay in layer_delays]
        mean_delay = sum(layer_delays) / n_layers if n_layers else 0.0
        return _RequestPlan(
            layout=layout,
            chunk_caches=chunk_caches,
            chunk_positions=[cache.positions for cache in chunk_caches],
            layer_dtypes=layer_dtypes,
            layer_delays=tuple(layer_delays),
            delay=float(mean_delay),
            recompute_ratio=recompute_ratio,
        )

    # ------------------------------------------------------------------
    def _decode_layer(
        self,
        layer_blobs: list[bytes],
        layer_dtype: str,
        chunk_positions: list[np.ndarray],
        layout: FusionLayout,
    ) -> LayerKV:
        """Decode one layer's blobs and assemble the padded reused buffers.

        This is the per-layer "load" work that overlaps with compute:
        ``np.frombuffer`` decode (dequantising int8 layers), RoPE
        re-alignment of the keys to the fused offsets, and the scatter into
        the zero-padded ``(n_total, ...)`` buffers the fusor merges into.
        """
        cfg = self.model.config
        n_total = layout.n_tokens
        keys = np.zeros((n_total, cfg.n_kv_heads, cfg.head_dim), dtype=cfg.np_dtype)
        values = np.zeros_like(keys)
        for blob, old_positions, offset in zip(
            layer_blobs, chunk_positions, layout.chunk_offsets
        ):
            layer = unpack_layer_kv_as(
                blob, layer_dtype, old_positions.size, cfg.n_kv_heads, cfg.head_dim
            )
            place_chunk_layer(keys, values, layer, old_positions, offset, cfg.rope_theta)
        return LayerKV(keys, values)
