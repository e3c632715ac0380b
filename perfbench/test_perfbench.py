"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import harness
from spans import Span, SpanRecorder, chrome_trace, covered_length, self_times
from workloads import WORKLOADS, Workload


def _span(name, start, end, parent=None, thread="main"):
    return Span(name=name, start=start, end=end, parent=parent, req=0, thread=thread)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4), (8, 12)], 0, 10) == pytest.approx(5.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),  # overlaps a: union is [1, 4]
        _span("b.child", 2.5, 3.5, parent=2),
        _span("c", 8.0, 12.0, parent=0),  # sticks out past root: clipped to [8, 10]
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2, 2.0, 1.0, 1.0, 4.0])


def test_recorder_nests_spans_per_thread_and_restores_wrapped_calls():
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    layer = Layer()
    rec = SpanRecorder()
    rec.wrap(layer, "outer", "outer")
    rec.wrap(layer, "inner", "inner", only_inside="outer")
    rec.req = 7
    assert layer.outer(1) == 4
    assert layer.inner(1) == 2  # not inside "outer": passes straight through
    rec.unwrap_all()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    assert [(s.name, s.parent, s.req) for s in rec.spans] == [("outer", None, 7), ("inner", 0, 7)]
    assert rec.spans[1].start >= rec.spans[0].start and rec.spans[1].end <= rec.spans[0].end


def test_chrome_trace_puts_loader_spans_on_their_own_track():
    spans = [_span("engine.run_batch", 1.0, 2.0), _span("model.layer_full", 1.1, 1.2, parent=0)]
    doc = chrome_trace(spans, [("load r0 L0", 1.05, 1.1, 0)], origin=1.0)
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "thread_name"}
    loader = next(e for e in complete if e["name"] == "load r0 L0")
    assert names[loader["tid"]].startswith("kv-loader")
    assert {e["tid"] for e in complete if e["name"] != "load r0 L0"} == {
        tid for tid, name in names.items() if name == "main"
    }
    assert loader["ts"] == pytest.approx(0.05e6) and loader["dur"] == pytest.approx(0.05e6)
    json.dumps(doc)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_requests(name):
    spec = WORKLOADS[name]
    quality_calls = Workload(spec, 3).quality_calls

    def first_calls(seed):
        workload = Workload(spec, seed)
        stream = workload.calls()
        return [next(stream) for _ in range(quality_calls + 3)], workload.warmup_calls()

    assert first_calls(3) == first_calls(3)
    assert first_calls(3) != first_calls(4)
    calls, _ = first_calls(3)
    # The leading quality calls are the same for every seed; the rest differ.
    assert calls[:quality_calls] == first_calls(4)[0][:quality_calls]
    assert calls[quality_calls:] != first_calls(4)[0][quality_calls:]
    for call in calls:
        assert len(call) == spec.batch_width
        for chunks, question in call:
            assert len(chunks) == len(set(chunks)) == spec.chunks_per_request
            assert all(len(c.split()) == spec.chunk_tokens for c in chunks)
            assert len(question.split()) == spec.question_tokens


def test_same_seed_gives_identical_quality_attn_dev():
    # The real rag_cold shape, with a smaller quality sample to keep it fast.
    spec = dataclasses.replace(WORKLOADS["rag_cold"], warmup_calls=1, quality_sample=2)

    def quality(seed):
        workload = Workload(spec, seed)
        engine = harness.build_engine(spec, workload)
        loop = harness.closed_loop(engine, workload, seconds=0.0)
        assert loop.failed == 0 and len(loop.quality) == spec.quality_sample
        value, probe_ok, probe_err = harness.check_quality(engine, spec, workload, loop.quality)
        assert probe_ok and probe_err <= harness.PROBE_LOGIT_TOL
        return value

    first = quality(5)
    assert 0.0 < first < 1.0
    assert quality(5) == first
    # Other seeds warm the store differently but serve the same quality sample.
    assert quality(6) == first
