"""Closed-loop client of the executing CacheBlend path.

One client sends the next call only when the previous one returned; a call
is one ``BlendEngine.run_batch(..., execution="pipelined")``.  An untraced
run gives the end-to-end metrics.  A traced run wraps each layer's public
functions from here (see :mod:`spans`) around every second call and gives
the per-layer metrics; the calls in between stay untraced, so the tracing
overhead is measured against calls served at the same time.

Import this module only after the BLAS/OpenMP thread variables are set (the
entry point, ``run.py``, does so before numpy is first imported).
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import repro.core.blend_engine as blend_engine_module
from repro.core.blend_engine import BlendEngine
from repro.core.deviation import mean_attention_deviation
from repro.core.pipeline import PipelineTrace
from repro.kvstore.config import StoreConfig
from repro.model.config import PAPER_MODEL_PAIRS, get_config

from spans import SpanRecorder, chrome_trace, self_times
from workloads import WORKLOADS, Workload, WorkloadSpec

PAPER_MODEL = "Mistral-7B"
#: KV loads from CPU RAM take microseconds, so these workloads measure
#: compute; pipelining changes move ``executor.stall_s`` and little else.
DEVICE = "cpu_ram"
SETUP_REPEATS = 3
#: Max |logit difference| allowed between a ratio-1.0 served request and
#: full prefill of the same tokens.
PROBE_LOGIT_TOL = 1e-3


# ----------------------------------------------------------------------
# Engine set-up and one served call
# ----------------------------------------------------------------------
def store_config(spec: WorkloadSpec) -> StoreConfig | None:
    """A store holding ``spec.store_chunks`` chunks, or the default store."""
    if spec.store_chunks is None:
        return None
    config = StoreConfig()
    cfg = get_config(PAPER_MODEL_PAIRS[PAPER_MODEL][0])
    chunk_bytes = (
        config.precision.kv_bytes_per_token_per_layer(cfg.n_kv_heads, cfg.head_dim, cfg.n_layers)
        * cfg.n_layers
        * spec.chunk_tokens
    )
    return StoreConfig(capacity_bytes=int(math.ceil(chunk_bytes * spec.store_chunks)))


def serve(engine: BlendEngine, spec: WorkloadSpec, call, **kwargs):
    return engine.run_batch(
        call, max_new_tokens=spec.max_new_tokens, execution="pipelined", **kwargs
    )


def greedy_first(logits: np.ndarray, eos_id: int) -> list[int]:
    """The first token greedy decoding emits after *logits* (none at EOS)."""
    first = int(np.argmax(logits))
    return [] if first == eos_id else [first]


def check_call(engine: BlendEngine, spec: WorkloadSpec, call, results) -> bool:
    """The call returned one result per request, each with finite logits and
    at most the requested tokens, the first being the greedy pick of those
    logits (generation stops early only at the end-of-sequence token)."""
    if len(results) != len(call):
        return False
    eos = engine.tokenizer.eos_id
    for result in results:
        logits = result.fusion.last_logits
        generated = result.generated_ids
        if not np.all(np.isfinite(logits)) or len(generated) > spec.max_new_tokens:
            return False
        if generated[:1] != greedy_first(logits, eos):
            return False
    return True


def build_engine(spec: WorkloadSpec, workload: Workload) -> BlendEngine:
    """Build, precompute (when the workload says so) and warm up an engine."""
    engine = BlendEngine.build(
        PAPER_MODEL, device=DEVICE, execution="pipelined", store=store_config(spec)
    )
    if spec.precompute:
        engine.precompute_chunks(workload.pool())
    for call in workload.warmup_calls():
        if not check_call(engine, spec, call, serve(engine, spec, call)):
            raise RuntimeError(f"{spec.name}: a warm-up call returned a wrong result")
    return engine


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class TracedRequest(NamedTuple):
    """What the per-layer metrics need from one traced request's result."""

    trace: PipelineTrace
    recompute_counts: list[int]
    recompute_frac: float
    stall_s: float


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    requests: int = 0
    failed: int = 0
    out_tokens: int = 0
    context_tokens: int = 0
    suffix_tokens: int = 0
    #: Whether each call was traced.
    traced: list[bool] = field(default_factory=list)
    #: ``(call index, [TracedRequest, ...])`` of every successful traced call.
    results: list = field(default_factory=list)
    #: Request index -> (fused token ids, fused forward attention).
    quality: dict = field(default_factory=dict)

    @property
    def calls(self) -> int:
        return len(self.latencies)

    def percentile(self, q: float, traced: bool | None = None) -> float:
        """Latency percentile over all calls, or over only the traced
        (``traced=True``) or untraced (``traced=False``) ones."""
        latencies = [
            t for t, was in zip(self.latencies, self.traced) if traced is None or was == traced
        ]
        return float(np.percentile(np.asarray(latencies), q))


def closed_loop(
    engine: BlendEngine,
    workload: Workload,
    seconds: float,
    recorder: SpanRecorder | None = None,
) -> LoopResult:
    """Serve the workload's calls back to back for *seconds* (and at least
    the ``workload.quality_calls`` calls), timing each from outside.

    The fused attention of the quality sample is kept.  With a *recorder*,
    every odd-numbered call is served with the engine instrumented
    (:func:`instrument`), and its pipeline traces are kept.  A call that
    raises or fails :func:`check_call` counts every request as failed and
    its latency as infinite, so it misses every percentile.
    """
    spec = workload.spec
    calls = workload.calls()
    out = LoopResult()
    gc.collect()
    start = time.perf_counter()
    while out.calls < workload.quality_calls or time.perf_counter() - start < seconds:
        call = next(calls)
        call_index = out.calls
        traced = recorder is not None and call_index % 2 == 1
        if traced:
            instrument(engine, recorder)
            recorder.req = call_index
        t0 = time.perf_counter()
        try:
            results = serve(engine, spec, call)
            latency = time.perf_counter() - t0
            ok = check_call(engine, spec, call, results)
        except Exception as exc:  # a failed call is counted, not fatal
            print(f"# call {call_index} raised {exc!r}", file=sys.stderr)
            ok = False
        finally:
            if traced:
                recorder.unwrap_all()
        out.traced.append(traced)
        out.requests += len(call)
        if not ok:
            out.failed += len(call)
            out.latencies.append(math.inf)
            continue
        out.latencies.append(latency)
        for k, result in enumerate(results):
            out.out_tokens += len(result.generated_ids)
            out.context_tokens += result.n_context_tokens
            out.suffix_tokens += result.n_suffix_tokens
            request_index = call_index * spec.batch_width + k
            if request_index < spec.quality_sample:
                out.quality[request_index] = (
                    result.fusion.token_ids,
                    result.fusion.forward_attention,
                )
        if traced:
            out.results.append(
                (
                    call_index,
                    [
                        TracedRequest(
                            r.trace,
                            r.fusion.recompute_counts,
                            r.fusion.mean_recompute_fraction,
                            r.measured_stall or 0.0,
                        )
                        for r in results
                    ],
                )
            )
    out.wall_s = time.perf_counter() - start
    return out


# ----------------------------------------------------------------------
# Correctness and quality, after the timed loop
# ----------------------------------------------------------------------
def check_quality(
    engine: BlendEngine, spec: WorkloadSpec, workload: Workload, kept: dict
) -> tuple[float, bool, float]:
    """Quality of the served sample, and the full-recompute correctness probe.

    ``quality_attn_dev`` is the mean forward-attention deviation of the kept
    requests from full prefill of the same tokens (the paper's Figure 6
    metric).  The probe serves the first timed call again at
    ``recompute_ratio=1.0``; every request must then match full prefill: the
    same first token, logits within :data:`PROBE_LOGIT_TOL`.  Returns
    ``(quality_attn_dev, probe_ok, probe_max_logit_err)``.
    """
    window = engine.fusor.config.query_window
    references = {
        index: engine.model.full_prefill(token_ids, query_window=window)
        for index, (token_ids, _) in kept.items()
    }
    quality = float(
        np.mean(
            [
                mean_attention_deviation(kept[i][1], references[i].forward_attention)
                for i in sorted(kept)
            ]
        )
    )
    call = next(workload.calls())
    results = serve(engine, spec, call, recompute_ratio=1.0)
    if not check_call(engine, spec, call, results):
        return quality, False, math.inf
    ok, worst = True, 0.0
    for index, result in enumerate(results):
        reference = references.get(index) or engine.model.full_prefill(result.fusion.token_ids)
        worst = max(
            worst, float(np.max(np.abs(result.fusion.last_logits - reference.last_logits)))
        )
        ok &= result.generated_ids[:1] == greedy_first(
            reference.last_logits, engine.tokenizer.eos_id
        )
    return quality, ok and worst <= PROBE_LOGIT_TOL, worst


# ----------------------------------------------------------------------
# Traced run: wrapping and per-layer metrics
# ----------------------------------------------------------------------
def instrument(engine: BlendEngine, rec: SpanRecorder) -> None:
    """Wrap each layer's public entry points of *engine* with spans of *rec*
    (``rec.unwrap_all()`` undoes it)."""
    rec.wrap(engine, "run_batch", "engine.run_batch")
    rec.wrap(engine.tokenizer, "encode", "tokenizer.encode")
    rec.wrap(engine.kv_store, "lookup", "kvstore.lookup")
    rec.wrap(engine.kv_store, "put", "kvstore.put")
    rec.wrap(blend_engine_module, "quantize_kv_to_store_dtype", "kvstore.quantize")
    rec.wrap(
        engine.model,
        "chunk_prefill",
        "model.chunk_prefill",
        attrs=lambda token_ids, *a, **k: {"tokens": int(np.size(token_ids))},
    )
    rec.wrap(engine.executor, "execute_batch", "executor.execute_batch")
    rec.wrap(engine.executor.fusor, "fuse_layers", "fusor.fuse_layers")
    # Model layers are attributed to the fusor only; inside a chunk prefill
    # they stay part of ``model.chunk_prefill``.
    for attr in ("layer_full", "layer_selective"):
        rec.wrap(engine.model, attr, f"model.{attr}", only_inside="fusor.fuse_layers")
    rec.wrap(
        engine.model,
        "decode_session_step",
        "model.decode_session_step",
        attrs=lambda session, token_ids: {"width": len(token_ids)},
    )


def loader_spans(rec: SpanRecorder, loop: LoopResult) -> list[tuple[str, float, float, int]]:
    """Per-layer load spans from each result's ``PipelineTrace``, moved onto
    the recorder's clock.

    Trace times are offsets from the executor's batch origin.  Layer 0's
    compute starts right before the fusor calls ``layer_full``, so the first
    ``model.layer_full`` span of a call anchors that call's origin.
    """
    first_layer_full: dict[int, float] = {}
    for span in rec.spans:
        if span.name == "model.layer_full" and span.req not in first_layer_full:
            first_layer_full[span.req] = span.start
    out = []
    for call_index, requests in loop.results:
        anchor = first_layer_full.get(call_index)
        if anchor is None:
            continue
        origin = anchor - float(requests[0].trace.compute_start[0])
        for k, request in enumerate(requests):
            trace = request.trace
            for layer, (a, b) in enumerate(zip(trace.load_start, trace.load_end)):
                out.append((f"load r{k} L{layer}", origin + a, origin + b, call_index))
    return out


def per_layer_metrics(
    engine: BlendEngine, rec: SpanRecorder, loop: LoopResult
) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-call layer metrics of the traced calls, plus each span name's
    share of the summed ``engine.run_batch`` time.

    Store counters (hit rate, evictions) cover every call of the loop.
    """
    spans = rec.spans
    selfs = self_times(spans)
    calls = max(1, len(loop.results))
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        count[span.name] = count.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own

    def per_call_count(name: str) -> float:
        return count.get(name, 0) / calls

    def per_call_s(name: str) -> float:
        return self_s.get(name, 0.0) / calls

    requests = [r for _, call in loop.results for r in call]
    steps = [s for s in spans if s.name == "model.decode_session_step"]
    stats = engine.kv_store.stats
    lookups = stats.hits + stats.misses
    execute_s = sum(max(r.trace.total_time for r in call) for _, call in loop.results)
    metrics = {
        "tokenizer.encode_calls": (per_call_count("tokenizer.encode"), "1/call"),
        "tokenizer.encode_s": (per_call_s("tokenizer.encode"), "s/call"),
        "kvstore.lookup_calls": (per_call_count("kvstore.lookup"), "1/call"),
        "kvstore.lookup_s": (per_call_s("kvstore.lookup"), "s/call"),
        "kvstore.hit_rate": (stats.hits / lookups if lookups else 0.0, "ratio"),
        "kvstore.put_calls": (per_call_count("kvstore.put"), "1/call"),
        "kvstore.put_s": (per_call_s("kvstore.put"), "s/call"),
        "kvstore.quantize_s": (per_call_s("kvstore.quantize"), "s/call"),
        "kvstore.evictions": (stats.evictions / max(1, loop.calls), "1/call"),
        "kvstore.bytes_stored": (float(engine.kv_store.bytes_stored), "bytes"),
        "model.chunk_prefill_calls": (per_call_count("model.chunk_prefill"), "1/call"),
        "model.chunk_prefill_tokens": (
            sum(s.attrs["tokens"] for s in spans if s.name == "model.chunk_prefill") / calls,
            "tok/call",
        ),
        "model.chunk_prefill_s": (per_call_s("model.chunk_prefill"), "s/call"),
        "model.layer_full_s": (per_call_s("model.layer_full"), "s/call"),
        "model.layer_selective_s": (per_call_s("model.layer_selective"), "s/call"),
        "model.recompute_tokens": (
            sum(sum(r.recompute_counts) for r in requests) / calls,
            "tok/call",
        ),
        "model.decode_steps": (len(steps) / calls, "1/call"),
        "model.decode_step_s": (per_call_s("model.decode_session_step"), "s/call"),
        "model.decode_width_mean": (
            float(np.mean([s.attrs["width"] for s in steps])) if steps else 0.0,
            "req/step",
        ),
        "fusor.fuse_self_s": (per_call_s("fusor.fuse_layers"), "s/call"),
        "fusor.recompute_frac": (
            float(np.mean([r.recompute_frac for r in requests])) if requests else 0.0,
            "ratio",
        ),
        "executor.execute_s": (execute_s / calls, "s/call"),
        "executor.self_s": (per_call_s("executor.execute_batch"), "s/call"),
        "executor.load_s": (
            sum(float(np.sum(r.trace.load_end - r.trace.load_start)) for r in requests) / calls,
            "s/call",
        ),
        "executor.stall_s": (sum(r.stall_s for r in requests) / calls, "s/call"),
        "engine.self_s": (per_call_s("engine.run_batch"), "s/call"),
        "trace.overhead_frac": (
            loop.percentile(50, traced=True) / loop.percentile(50, traced=False) - 1.0,
            "ratio",
        ),
    }
    total = sum(s.duration for s in spans if s.name == "engine.run_batch") or 1.0
    shares = {name: own / total for name, own in sorted(self_s.items(), key=lambda kv: -kv[1])}
    return metrics, shares


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------
def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": nproc,
        "client_threads": 1,
        "engine_loader_threads": 1,
        "machine": platform.machine(),
    }


def describe(spec: WorkloadSpec, seed: int, loop: LoopResult, hit_rate: float) -> dict:
    served = max(1, loop.requests - loop.failed)
    return {
        "workload": spec.name,
        "seed": seed,
        "loop": "closed, 1 client",
        "batch_width": spec.batch_width,
        "calls": loop.calls,
        "requests_sent": loop.requests,
        "requests_ok": loop.requests - loop.failed,
        "requests_failed": loop.failed,
        "chunk_hit_rate": round(hit_rate, 4),
        "mean_context_tokens": loop.context_tokens / served,
        "mean_suffix_tokens": loop.suffix_tokens / served,
        "mean_output_tokens": loop.out_tokens / served,
        "samples_beyond_p90": int(loop.calls - math.ceil(0.9 * loop.calls)),
    }


def rss_peak_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, t_process: float, root: Path
) -> dict:
    """Set up, run the closed loop, check, and return the result line."""
    spec = WORKLOADS[workload_name]
    workload = Workload(spec, seed)
    import_s = time.perf_counter() - t_process

    build_s = []
    engine = None
    for _ in range(SETUP_REPEATS):
        engine = None  # free the previous repeat's engine before building anew
        gc.collect()
        t0 = time.perf_counter()
        engine = build_engine(spec, workload)
        build_s.append(time.perf_counter() - t0)
    setup_s = import_s + float(np.median(build_s))

    engine.reset_cache_stats()
    rec = SpanRecorder() if trace else None
    loop = closed_loop(engine, workload, seconds, recorder=rec)
    hit_rate = engine.kv_store.stats.hit_rate

    quality, probe_ok, probe_err = check_quality(engine, spec, workload, loop.quality)
    quality_ok = len(loop.quality) == spec.quality_sample and math.isfinite(quality)

    env = environment()
    info = describe(spec, seed, loop, hit_rate)
    info.update(
        setup_repeats_s=[round(b, 4) for b in build_s],
        import_s=round(import_s, 4),
        probe_max_logit_err=probe_err,
        quality_sample=len(loop.quality),
    )
    print("# env " + json.dumps(env))
    print("# workload " + json.dumps(info))

    if trace:
        metrics, shares = per_layer_metrics(engine, rec, loop)
        print("# self-time share of engine.run_batch: " + json.dumps(
            {name: round(share, 4) for name, share in shares.items()}
        ))
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{spec.name}-seed{seed}"
        rec.write_json(f"{stem}-spans.json", extra={"env": env, "workload": info})
        origin = rec.spans[0].start if rec.spans else 0.0
        with open(f"{stem}-trace.json", "w") as fh:
            json.dump(chrome_trace(rec.spans, loader_spans(rec, loop), origin), fh)
        print(f"# trace written to {stem}-trace.json")
    else:
        wall = loop.wall_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_s": (loop.percentile(50), "s"),
            "latency_p90_s": (loop.percentile(90), "s"),
            "req_s": ((loop.requests - loop.failed) / wall, "req/s"),
            "out_tok_s": (loop.out_tokens / wall, "tok/s"),
            "quality_attn_dev": (quality, "unitless"),
            "rss_peak_mb": (rss_peak_mb(), "MB"),
        }
    return {
        "correct": bool(probe_ok and quality_ok and loop.failed == 0),
        "attempted": int(loop.requests),
        "failed": int(loop.failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
