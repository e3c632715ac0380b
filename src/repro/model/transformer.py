"""Decoder-only transformer with full, chunked and selective prefill paths.

The model is deliberately small (it runs on CPU with NumPy) but structurally
faithful: RMSNorm pre-normalisation, grouped-query attention with rotary
positional embeddings, SwiGLU MLP, residual connections and a tied LM head.
It exposes the exact primitives the paper's implementation adds to vLLM
(§6): per-layer prefill with an optional subset of recomputed tokens, and
access to the forward attention matrix of each layer.  Decoding has one
path: requests join a :class:`~repro.model.tensors.DecodeSession` and
:meth:`TransformerModel.decode_session_step` steps every member at once with
padded batched attention over the session's persistent buffers (a single
request is a width-1 session).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.model.attention import (
    batched_decode_attention,
    full_attention,
    selective_attention,
)
from repro.model.config import ModelConfig
from repro.model.layers import ModelWeights, init_weights, rms_norm, swiglu
from repro.model.rope import RopeTable, rotate
from repro.model.tensors import DecodeSession, KVCache, LayerKV


@dataclass
class LayerFullOutput:
    """Output of a full (all-token) pass through one layer."""

    hidden: np.ndarray
    layer_kv: LayerKV
    forward_attention: np.ndarray | None


@dataclass
class LayerSelectiveOutput:
    """Output of a selective (subset-of-tokens) pass through one layer."""

    hidden_selected: np.ndarray
    merged_kv: LayerKV
    new_keys: np.ndarray
    new_values: np.ndarray
    forward_attention: np.ndarray | None


@dataclass
class PrefillResult:
    """Result of a prefill pass.

    Attributes
    ----------
    kv_cache:
        The KV cache produced for the input tokens.
    final_hidden:
        Final-layer hidden states of the whole input, shape ``(T, d)``.
    last_logits:
        LM-head logits of the last input token (used to start decoding).
    forward_attention:
        Per-layer forward attention matrices of the trailing query window
        (each of shape ``(n_window, T)``); empty if no window was requested.
    layer_inputs:
        Per-layer hidden-state inputs, kept only when ``collect_hidden=True``.
    """

    kv_cache: KVCache
    final_hidden: np.ndarray
    last_logits: np.ndarray
    forward_attention: list[np.ndarray] = field(default_factory=list)
    layer_inputs: list[np.ndarray] = field(default_factory=list)


class TransformerModel:
    """A runnable NumPy transformer.

    Parameters
    ----------
    config:
        Architecture configuration.  ``config.runnable`` must be True — the
        large paper presets exist only for the analytical cost model.
    seed:
        Seed for the deterministic weight initialisation.
    """

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        if not config.runnable:
            raise ValueError(
                f"model preset {config.name!r} is an architecture preset for the "
                "cost model; instantiate a runnable proxy preset instead"
            )
        self.config = config
        self.seed = seed
        self.weights: ModelWeights = init_weights(config, seed)
        # One cos/sin table for every layer, prefill and decode step.
        self.rope = RopeTable(config.head_dim, config.rope_theta, config.np_dtype)

    # ------------------------------------------------------------------
    # Embedding and heads
    # ------------------------------------------------------------------
    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        """Look up input embeddings, shape ``(T, hidden_size)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and token_ids.max() >= self.config.vocab_size:
            raise ValueError(
                f"token id {int(token_ids.max())} out of range for vocab size "
                f"{self.config.vocab_size}"
            )
        return self.weights.embedding[token_ids]

    def logits(self, hidden_row: np.ndarray) -> np.ndarray:
        """LM-head logits for a single final hidden state."""
        normalised = rms_norm(hidden_row, self.weights.norm_final)
        return normalised @ self.weights.lm_head

    # ------------------------------------------------------------------
    # Layer primitives
    # ------------------------------------------------------------------
    def _project_qkv(
        self, layer_idx: int, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project hidden states into rotary-embedded Q, K and raw V.

        Q and K are rotated with the same rows of the model's RoPE table.
        """
        cfg = self.config
        w = self.weights.layers[layer_idx]
        normed = rms_norm(hidden, w.norm_attn)
        q = (normed @ w.wq).reshape(-1, cfg.n_heads, cfg.head_dim)
        k = (normed @ w.wk).reshape(-1, cfg.n_kv_heads, cfg.head_dim)
        v = (normed @ w.wv).reshape(-1, cfg.n_kv_heads, cfg.head_dim)
        cos, sin = self.rope.rows(positions)
        return rotate(q, cos, sin), rotate(k, cos, sin), v

    def _finish_layer(
        self, layer_idx: int, hidden: np.ndarray, context: np.ndarray
    ) -> np.ndarray:
        """Apply output projection, residuals and the MLP block."""
        cfg = self.config
        w = self.weights.layers[layer_idx]
        attn_out = context.reshape(-1, cfg.n_heads * cfg.head_dim) @ w.wo
        hidden = hidden + attn_out
        mlp_out = swiglu(rms_norm(hidden, w.norm_mlp), w.w_gate, w.w_up, w.w_down)
        return hidden + mlp_out

    def layer_full(
        self,
        layer_idx: int,
        hidden: np.ndarray,
        positions: np.ndarray,
        query_window: int = 0,
    ) -> LayerFullOutput:
        """Run one layer over all tokens (full prefill path)."""
        q, k, v = self._project_qkv(layer_idx, hidden, positions)
        attn = full_attention(q, k, v, positions, query_window=query_window)
        new_hidden = self._finish_layer(layer_idx, hidden, attn.context)
        return LayerFullOutput(
            hidden=new_hidden,
            layer_kv=LayerKV(k, v),
            forward_attention=attn.forward_attention,
        )

    def layer_selective(
        self,
        layer_idx: int,
        hidden_selected: np.ndarray,
        selected_indices: np.ndarray,
        positions: np.ndarray,
        reused_kv: LayerKV,
        query_window: int = 0,
        in_place: bool = False,
    ) -> LayerSelectiveOutput:
        """Run one layer recomputing only *selected_indices* (CacheBlend path).

        ``hidden_selected`` holds the hidden states of the selected tokens
        only.  The keys/values of all other tokens are taken from
        ``reused_kv`` (the loaded, positionally re-aligned chunk caches).

        With ``in_place=True`` the freshly computed K/V rows are scattered
        directly into ``reused_kv``'s buffers instead of copying the full
        layer first — the caller must own those buffers and must read any
        reused rows it still needs (e.g. for deviation) *before* the call.
        """
        selected_indices = np.asarray(selected_indices, dtype=np.int64)
        if reused_kv.n_tokens != len(positions):
            raise ValueError(
                f"reused KV has {reused_kv.n_tokens} tokens but positions has "
                f"{len(positions)}"
            )
        sel_positions = positions[selected_indices]
        q_sel, k_sel, v_sel = self._project_qkv(
            layer_idx, hidden_selected, sel_positions
        )
        if in_place:
            merged_keys = reused_kv.keys
            merged_values = reused_kv.values
        else:
            merged_keys = reused_kv.keys.copy()
            merged_values = reused_kv.values.copy()
        merged_keys[selected_indices] = k_sel
        merged_values[selected_indices] = v_sel
        attn = selective_attention(
            q_sel,
            merged_keys,
            merged_values,
            selected_indices,
            positions,
            query_window=query_window,
        )
        new_hidden_selected = self._finish_layer(layer_idx, hidden_selected, attn.context)
        merged_kv = reused_kv if in_place else LayerKV(merged_keys, merged_values)
        return LayerSelectiveOutput(
            hidden_selected=new_hidden_selected,
            merged_kv=merged_kv,
            new_keys=k_sel,
            new_values=v_sel,
            forward_attention=attn.forward_attention,
        )

    # ------------------------------------------------------------------
    # Prefill paths
    # ------------------------------------------------------------------
    def full_prefill(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray | None = None,
        query_window: int = 0,
        collect_hidden: bool = False,
    ) -> PrefillResult:
        """Full KV recompute: prefill the whole input from scratch."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size == 0:
            raise ValueError("cannot prefill an empty token sequence")
        if positions is None:
            positions = np.arange(token_ids.size, dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
        hidden = self.embed(token_ids)
        layers: list[LayerKV] = []
        forward_attention: list[np.ndarray] = []
        layer_inputs: list[np.ndarray] = []
        for layer_idx in range(self.config.n_layers):
            if collect_hidden:
                layer_inputs.append(hidden.copy())
            out = self.layer_full(layer_idx, hidden, positions, query_window)
            hidden = out.hidden
            layers.append(out.layer_kv)
            if out.forward_attention is not None:
                forward_attention.append(out.forward_attention)
        kv_cache = KVCache(layers, token_ids, positions)
        last_logits = self.logits(hidden[-1])
        return PrefillResult(
            kv_cache=kv_cache,
            final_hidden=hidden,
            last_logits=last_logits,
            forward_attention=forward_attention,
            layer_inputs=layer_inputs,
        )

    def chunk_prefill(self, token_ids: np.ndarray, start_position: int = 0) -> KVCache:
        """Prefill one chunk in isolation (what gets precomputed and stored).

        ``start_position`` plays the role of PromptCache's dummy-prefix offset:
        the chunk is embedded as if it started at that absolute position.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.arange(start_position, start_position + token_ids.size, dtype=np.int64)
        result = self.full_prefill(token_ids, positions=positions)
        return result.kv_cache

    # ------------------------------------------------------------------
    # Decode sessions (persistent padded batch buffers across steps)
    # ------------------------------------------------------------------
    def new_decode_session(
        self, token_capacity: int = 64, slot_capacity: int = 4
    ) -> DecodeSession:
        """A :class:`~repro.model.tensors.DecodeSession` sized for this model."""
        cfg = self.config
        return DecodeSession(
            cfg.n_layers,
            cfg.n_kv_heads,
            cfg.head_dim,
            dtype=cfg.np_dtype,
            token_capacity=token_capacity,
            slot_capacity=slot_capacity,
        )

    def decode_session_step(
        self, session: DecodeSession, token_ids: list[int] | np.ndarray
    ) -> np.ndarray:
        """One decode step for every session member, on the persistent pad.

        Each member's token is embedded at its slot's next position, and
        every layer runs once over the ``(n_members, ...)`` batch.  The K/V
        the attention reads is a zero-copy *slice of the session pad*: a
        steady-state step writes only each member's newly appended row.
        Members may have different lengths; attention masks the padding (see
        :func:`~repro.model.attention.batched_decode_attention`).

        ``token_ids`` is one token per member in :attr:`DecodeSession.
        member_ids` order; returns the appended tokens' LM-head logits,
        shape ``(n_members, vocab_size)``.
        """
        token_arr = np.asarray(token_ids, dtype=np.int64)
        if token_arr.shape != (session.n_members,):
            raise ValueError("need exactly one token id per session member")
        if session.n_layers != self.config.n_layers:
            raise ValueError(
                f"session has {session.n_layers} layers, model has "
                f"{self.config.n_layers}"
            )
        # Embed first: it validates the token ids, so a bad id fails before
        # any slot has been extended (no phantom rows on error).
        hidden = self.embed(token_arr)
        positions = session.claim_rows(token_arr)
        lengths = session.lengths
        for layer_idx in range(self.config.n_layers):
            q, k, v = self._project_qkv(layer_idx, hidden, positions)
            session.write_layer(layer_idx, k, v)
            keys_all, values_all = session.layer_kv(layer_idx)
            context = batched_decode_attention(q, keys_all, values_all, lengths)
            hidden = self._finish_layer(layer_idx, hidden, context)
        normalised = rms_norm(hidden, self.weights.norm_final)
        return normalised @ self.weights.lm_head

    def generate_session(
        self,
        session: DecodeSession,
        start_logits: list[np.ndarray],
        max_new_tokens: int = 16,
        eos_id: int | None = None,
        on_step: Callable[[float, int], None] | None = None,
    ) -> list[list[int]]:
        """Greedy lock-step decoding of every session member, one
        :meth:`decode_session_step` per iteration.

        Members *leave the session* the moment they finish (EOS or token
        budget) — their slot is freed immediately, so peak resident KV
        tracks the live batch; the session is fully drained on return.  EOS
        ends a generation and is not part of it (it is not generated text).
        The last sampled token of each member is returned but never decoded
        (its KV is only needed to produce a further token).
        ``start_logits`` is aligned with the session's ``member_ids`` at
        entry, and so is the returned list of generations.  ``on_step``
        (if given) receives ``(wall_clock_seconds, batch_width)`` of every
        executed step — the serving loop feeds these to the width-aware
        decode calibration.
        """
        members = list(session.member_ids)
        if len(start_logits) != len(members):
            raise ValueError("need exactly one start_logits row per session member")
        logits = dict(zip(members, start_logits))
        generated: dict[object, list[int]] = {m: [] for m in members}
        active = set(members)
        for step in range(max_new_tokens):
            next_ids: dict[object, int] = {}
            for member in list(active):
                next_id = int(np.argmax(logits[member]))
                if eos_id is not None and next_id == eos_id:
                    active.remove(member)
                    session.leave(member)
                    continue
                generated[member].append(next_id)
                if step < max_new_tokens - 1:
                    next_ids[member] = next_id
            if not next_ids or step == max_new_tokens - 1:
                break
            # All remaining members decode (leavers already left): the step
            # order is the session's current member order.
            order = list(session.member_ids)
            start = time.perf_counter()
            batch_logits = self.decode_session_step(
                session, [next_ids[m] for m in order]
            )
            if on_step is not None:
                on_step(time.perf_counter() - start, len(order))
            for row, member in enumerate(order):
                logits[member] = batch_logits[row]
        for member in list(session.member_ids):
            session.leave(member)
        return [generated[m] for m in members]
