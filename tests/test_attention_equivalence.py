"""Equivalence of the vectorized attention/GQA kernels against naive references.

The matmul-GQA ``_attend`` (query heads stacked per KV head, no
``np.repeat`` materialisation, in-place mask fill) must match a
straightforward reference implementation up to float accumulation order —
within 1e-6 on float64 inputs and 1e-5 (the model tolerance) on float32
inputs.  ``batched_decode_attention`` is checked against a float64
per-request loop over the padded pad views a ``DecodeSession`` really passes.
"""

import numpy as np
import pytest

from repro.model.attention import (
    batched_decode_attention,
    full_attention,
    selective_attention,
)
from repro.model.config import get_config
from repro.model.layers import softmax
from repro.model.tensors import DecodeSession, KVCache, LayerKV
from repro.model.transformer import TransformerModel


def _reference_attend(queries, keys, values, query_positions, key_positions, window_rows):
    """The pre-vectorization implementation: repeat KV heads, full masks."""
    n_heads = queries.shape[1]
    head_dim = queries.shape[2]
    group = n_heads // keys.shape[1]
    if group > 1:
        keys = np.repeat(keys, group, axis=1)
        values = np.repeat(values, group, axis=1)
    scores = np.einsum("qhd,khd->hqk", queries, keys) / np.sqrt(head_dim)
    mask = key_positions[None, None, :] > query_positions[None, :, None]
    scores = np.where(mask, -1e30, scores)
    weights = softmax(scores, axis=-1)
    context = np.einsum("hqk,khd->qhd", weights, values)
    forward = None
    if window_rows is not None and window_rows.size:
        forward = weights[:, window_rows, :].mean(axis=0)
    return context, forward


def _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim):
    q = rng.normal(size=(n_tokens, n_heads, head_dim))
    k = rng.normal(size=(n_tokens, n_kv_heads, head_dim))
    v = rng.normal(size=(n_tokens, n_kv_heads, head_dim))
    return q, k, v


class TestFullAttentionEquivalence:
    @pytest.mark.parametrize("n_heads,n_kv_heads", [(4, 4), (8, 2), (6, 3)])
    def test_matches_reference(self, n_heads, n_kv_heads):
        rng = np.random.default_rng(0)
        n_tokens, head_dim, window = 17, 8, 5
        q, k, v = _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim)
        positions = np.arange(n_tokens)

        out = full_attention(q, k, v, positions, query_window=window)
        window_rows = np.arange(n_tokens - window, n_tokens)
        ref_context, ref_forward = _reference_attend(
            q, k, v, positions, positions, window_rows
        )
        assert np.allclose(out.context, ref_context, atol=1e-6)
        assert np.allclose(out.forward_attention, ref_forward, atol=1e-6)

    def test_causality(self):
        """Changing a future key never changes an earlier query's output."""
        rng = np.random.default_rng(1)
        q, k, v = _random_qkv(rng, 10, 4, 2, 6)
        positions = np.arange(10)
        base = full_attention(q, k, v, positions).context
        k2, v2 = k.copy(), v.copy()
        k2[7:] += 10.0
        v2[7:] -= 5.0
        perturbed = full_attention(q, k2, v2, positions).context
        assert np.allclose(base[:7], perturbed[:7], atol=1e-6)
        assert not np.allclose(base[7:], perturbed[7:])


class TestSelectiveAttentionEquivalence:
    @pytest.mark.parametrize("n_heads,n_kv_heads", [(4, 4), (8, 2)])
    def test_matches_reference(self, n_heads, n_kv_heads):
        rng = np.random.default_rng(2)
        n_tokens, head_dim, window = 21, 8, 6
        _, k, v = _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim)
        selected = np.array([0, 3, 4, 11, 18, 19, 20])
        q_sel = rng.normal(size=(selected.size, n_heads, head_dim))
        positions = np.arange(n_tokens)

        out = selective_attention(q_sel, k, v, selected, positions, query_window=window)
        window_rows = np.nonzero(selected >= n_tokens - window)[0]
        ref_context, ref_forward = _reference_attend(
            q_sel, k, v, positions[selected], positions, window_rows
        )
        assert np.allclose(out.context, ref_context, atol=1e-6)
        assert np.allclose(out.forward_attention, ref_forward, atol=1e-6)

    def test_selective_rows_match_full_attention(self):
        """Selecting every token degenerates to full attention."""
        rng = np.random.default_rng(3)
        n_tokens = 12
        q, k, v = _random_qkv(rng, n_tokens, 4, 2, 6)
        positions = np.arange(n_tokens)
        full = full_attention(q, k, v, positions)
        sel = selective_attention(q, k, v, np.arange(n_tokens), positions)
        assert np.allclose(full.context, sel.context, atol=1e-6)


class TestFloat32Inputs:
    """The model computes in float32: the kernels must stay within 1e-5 of
    the float64 reference evaluated on the same float32 values."""

    @pytest.mark.parametrize("n_heads,n_kv_heads", [(4, 4), (8, 4), (6, 2)])
    def test_full_attention(self, n_heads, n_kv_heads):
        rng = np.random.default_rng(6)
        n_tokens, head_dim, window = 33, 16, 7
        q, k, v = (a.astype(np.float32) for a in _random_qkv(
            rng, n_tokens, n_heads, n_kv_heads, head_dim
        ))
        positions = np.arange(n_tokens)

        out = full_attention(q, k, v, positions, query_window=window)
        assert out.context.dtype == np.float32
        window_rows = np.arange(n_tokens - window, n_tokens)
        ref_context, ref_forward = _reference_attend(
            *(a.astype(np.float64) for a in (q, k, v)), positions, positions, window_rows
        )
        assert np.allclose(out.context, ref_context, atol=1e-5)
        assert np.allclose(out.forward_attention, ref_forward, atol=1e-5)

    @pytest.mark.parametrize("n_heads,n_kv_heads", [(4, 4), (8, 4), (6, 2)])
    def test_selective_attention(self, n_heads, n_kv_heads):
        rng = np.random.default_rng(7)
        n_tokens, head_dim, window = 40, 16, 6
        _, k, v = _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim)
        k, v = k.astype(np.float32), v.astype(np.float32)
        selected = np.array([0, 2, 9, 10, 21, 34, 36, 39])
        q_sel = rng.normal(size=(selected.size, n_heads, head_dim)).astype(np.float32)
        positions = np.arange(n_tokens)

        out = selective_attention(q_sel, k, v, selected, positions, query_window=window)
        assert out.context.dtype == np.float32
        window_rows = np.nonzero(selected >= n_tokens - window)[0]
        ref_context, ref_forward = _reference_attend(
            *(a.astype(np.float64) for a in (q_sel, k, v)),
            positions[selected],
            positions,
            window_rows,
        )
        assert np.allclose(out.context, ref_context, atol=1e-5)
        assert np.allclose(out.forward_attention, ref_forward, atol=1e-5)


def _reference_decode(queries, keys, values, lengths):
    """Naive float64 loop: each request and head attends to its live rows."""
    n_requests, n_heads, head_dim = queries.shape
    group = n_heads // keys.shape[2]
    context = np.zeros((n_requests, n_heads, head_dim))
    for i in range(n_requests):
        live = int(lengths[i])
        for h in range(n_heads):
            k = keys[i, :live, h // group].astype(np.float64)
            v = values[i, :live, h // group].astype(np.float64)
            scores = k @ queries[i, h].astype(np.float64) / np.sqrt(head_dim)
            weights = np.exp(scores - scores.max())
            context[i, h] = (weights / weights.sum()) @ v
    return context


class TestBatchedDecodeAttention:
    """One query per request over ragged per-request caches in a session pad."""

    @pytest.mark.parametrize("n_heads,n_kv_heads", [(4, 4), (8, 4), (6, 2)])
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-6), (np.float32, 1e-5)])
    def test_matches_per_request_loop_on_session_pad_views(
        self, n_heads, n_kv_heads, dtype, atol
    ):
        rng = np.random.default_rng(8)
        head_dim, lengths = 16, (5, 1, 12, 3)
        # Spare slots and token rows, so the per-layer views are strided
        # slices of the pad, exactly as in a decode step.
        session = DecodeSession(
            1, n_kv_heads, head_dim, dtype=dtype, token_capacity=32, slot_capacity=8
        )
        for member, n in enumerate(lengths):
            keys = rng.normal(size=(n, n_kv_heads, head_dim)).astype(dtype)
            values = rng.normal(size=(n, n_kv_heads, head_dim)).astype(dtype)
            session.join(member, KVCache([LayerKV(keys, values)]))
        keys_all, values_all = session.layer_kv(0)
        assert keys_all.shape == (len(lengths), max(lengths), n_kv_heads, head_dim)
        assert not keys_all.flags.c_contiguous and not values_all.flags.c_contiguous
        queries = rng.normal(size=(len(lengths), n_heads, head_dim)).astype(dtype)

        context = batched_decode_attention(queries, keys_all, values_all, session.lengths)
        assert context.dtype == dtype
        expected = _reference_decode(queries, keys_all, values_all, session.lengths)
        assert np.allclose(context, expected, atol=atol)

    def test_padding_rows_are_ignored(self):
        """Garbage past a request's length never reaches its context."""
        rng = np.random.default_rng(9)
        queries = rng.normal(size=(2, 4, 8))
        keys = rng.normal(size=(2, 6, 2, 8))
        values = rng.normal(size=(2, 6, 2, 8))
        lengths = np.array([2, 6])
        base = batched_decode_attention(queries, keys, values, lengths)
        keys[0, 2:] = 1e3
        values[0, 2:] = -1e3
        perturbed = batched_decode_attention(queries, keys, values, lengths)
        np.testing.assert_array_equal(base, perturbed)


class TestLayerSelectiveInPlace:
    @pytest.fixture(scope="class")
    def model(self):
        return TransformerModel(get_config("small"), seed=0)

    def test_in_place_matches_copy_path(self, model):
        rng = np.random.default_rng(4)
        cfg = model.config
        n_tokens = 20
        selected = np.array([1, 5, 6, 13, 19])
        hidden_sel = rng.normal(size=(selected.size, cfg.hidden_size)).astype(
            cfg.np_dtype
        )
        positions = np.arange(n_tokens)

        def reused():
            r = np.random.default_rng(5)
            keys = r.normal(size=(n_tokens, cfg.n_kv_heads, cfg.head_dim))
            values = r.normal(size=(n_tokens, cfg.n_kv_heads, cfg.head_dim))
            return LayerKV(keys.astype(cfg.np_dtype), values.astype(cfg.np_dtype))

        copied = model.layer_selective(0, hidden_sel, selected, positions, reused())
        in_place_src = reused()
        in_place = model.layer_selective(
            0, hidden_sel, selected, positions, in_place_src, in_place=True
        )
        assert np.allclose(copied.hidden_selected, in_place.hidden_selected, atol=1e-6)
        assert np.allclose(copied.merged_kv.keys, in_place.merged_kv.keys, atol=1e-6)
        assert np.allclose(copied.merged_kv.values, in_place.merged_kv.values, atol=1e-6)
        # The in-place path scatters into the caller's buffers (no copy).
        assert in_place.merged_kv is in_place_src
