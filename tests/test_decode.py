"""Decode correctness on the session path, anchored on full-prefill ground truth.

A decode step appends one token to a cached prompt, so its logits must equal
those of a from-scratch :meth:`~repro.model.transformer.TransformerModel.
full_prefill` over the prompt plus every token decoded so far.  That holds
for any width-1 :class:`~repro.model.tensors.DecodeSession`; the remaining
tests lock down the session pad (in-place row writes, zero-copy layer views,
geometric growth), position anchoring, attention over the whole cache, error
atomicity and the greedy generation loop (EOS, token budget, drop-out).
"""

import numpy as np
import pytest

from repro.model.config import get_config
from repro.model.tensors import DecodeSession, KVCache, LayerKV
from repro.model.transformer import TransformerModel


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("tiny"), seed=0)


def _random_prompt(model: TransformerModel, n_tokens: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(4, model.config.vocab_size, size=n_tokens).astype(np.int64)


def _prefill_caches(model: TransformerModel, lengths, seed: int = 0):
    return [
        model.full_prefill(_random_prompt(model, n, seed + i))
        for i, n in enumerate(lengths)
    ]


def _solo_session(model: TransformerModel, cache: KVCache, reserve: int = 0):
    session = model.new_decode_session(slot_capacity=1)
    session.join(0, cache, reserve=reserve)
    return session


class TestGroundTruth:
    """Width-1 session steps vs full prefill of the prompt + decoded tokens."""

    N_STEPS = 6

    @pytest.mark.parametrize("preset", ["tiny", "small"])
    @pytest.mark.parametrize("prompt_len", [5, 17, 40])
    def test_each_step_matches_full_prefill(self, preset, prompt_len):
        model = TransformerModel(get_config(preset), seed=0)
        prompt = _random_prompt(model, prompt_len, seed=prompt_len)
        stream = _random_prompt(model, self.N_STEPS, seed=100 + prompt_len)
        session = _solo_session(
            model, model.full_prefill(prompt).kv_cache, reserve=self.N_STEPS
        )
        for step in range(self.N_STEPS):
            logits = model.decode_session_step(session, stream[step : step + 1])[0]
            expected = model.full_prefill(
                np.concatenate([prompt, stream[: step + 1]])
            ).last_logits
            np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-4)
            assert int(np.argmax(logits)) == int(np.argmax(expected))


def _append(session: DecodeSession, token_ids, keys, values) -> np.ndarray:
    """One raw pad step: claim a row per member, then write every layer."""
    positions = session.claim_rows(np.asarray(token_ids, dtype=np.int64))
    for layer_idx in range(session.n_layers):
        session.write_layer(layer_idx, keys[layer_idx], values[layer_idx])
    return positions


class TestSessionPad:
    """The persistent pad a decode step appends to, driven directly."""

    def test_claim_rows_and_write_layer_write_rows_in_place(self):
        session = DecodeSession(n_layers=2, n_kv_heads=1, head_dim=4, token_capacity=8)
        seed = KVCache(
            [LayerKV(np.ones((3, 1, 4), np.float32), np.ones((3, 1, 4), np.float32))
             for _ in range(2)],
            token_ids=np.array([1, 2, 3]),
        )
        session.join(0, seed)
        keys = np.arange(2 * 1 * 1 * 4, dtype=np.float32).reshape(2, 1, 1, 4)
        positions = _append(session, [9], keys, keys * 2.0)
        np.testing.assert_array_equal(positions, [3])
        assert session.length_of(0) == 4
        cache = session.extract(0)
        np.testing.assert_array_equal(cache.layers[1].keys[3], keys[1, 0])
        np.testing.assert_array_equal(cache.layers[0].values[3], keys[0, 0] * 2.0)
        np.testing.assert_array_equal(cache.layers[0].keys[:3], seed.layers[0].keys)
        np.testing.assert_array_equal(cache.token_ids, [1, 2, 3, 9])
        np.testing.assert_array_equal(cache.positions, [0, 1, 2, 3])

    def test_write_layer_needs_a_claim_since_the_last_membership_change(self):
        """A step's (slot, row) index is for the membership that claimed it:
        after a join or a leave, writing without a new claim is refused
        (a stale index would silently write the wrong slots)."""
        kv = np.zeros((1, 1, 1, 2), dtype=np.float32)

        def seed(n):
            return KVCache([LayerKV(np.zeros((n, 1, 2)), np.zeros((n, 1, 2)))])

        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2, token_capacity=8)
        with pytest.raises(ValueError):
            session.write_layer(0, kv[0], kv[0])  # nothing claimed yet
        session.join(0, seed(2))
        _append(session, [5], kv, kv)
        session.join(1, seed(3))
        with pytest.raises(ValueError):
            session.write_layer(0, kv[0], kv[0])

        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2, token_capacity=8)
        session.join(0, seed(2))
        session.join(1, seed(3))
        _append(session, [5, 6], np.zeros((1, 2, 1, 2)), np.zeros((1, 2, 1, 2)))
        session.leave(1)
        with pytest.raises(ValueError):
            session.write_layer(0, kv[0], kv[0])

    def test_layer_kv_aliases_the_pad(self, model):
        session = _solo_session(model, _prefill_caches(model, [6])[0].kv_cache)
        keys, values = session.layer_kv(0)
        assert keys.shape[:2] == values.shape[:2] == (1, 6)
        session._keys[0][0, 2, 0, 0] = 123.0
        assert keys[0, 2, 0, 0] == 123.0  # a view, not a gathered copy

    def test_token_growth_is_geometric_not_per_token(self):
        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2, token_capacity=4)
        session.join(0, KVCache([LayerKV(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))]))
        kv = np.zeros((1, 1, 1, 2), dtype=np.float32)
        capacities = set()
        for token in range(200):
            _append(session, [token], kv, kv)
            capacities.add(session.token_capacity)
        # Doubling from 4 to >=201 passes through at most ~log2 capacities.
        assert session.length_of(0) == 201
        assert len(capacities) <= 7
        assert session.token_capacity >= 201
        assert session.stats.grows == len(capacities) - 1

    def test_reserve_prevents_mid_generation_reallocation(self):
        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2, token_capacity=1)
        session.join(0, KVCache([LayerKV(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))]),
                     reserve=64)
        buffer_before = session._keys[0]
        kv = np.zeros((1, 1, 1, 2), dtype=np.float32)
        for token in range(64):
            _append(session, [token], kv, kv)
        assert session._keys[0] is buffer_before
        assert session.length_of(0) == 65

    def test_rejects_empty_cache_and_bad_layer_count(self, model):
        session = DecodeSession(n_layers=2, n_kv_heads=1, head_dim=2)
        with pytest.raises(ValueError):
            session.join(0, KVCache([]))
        one_layer = KVCache([LayerKV(np.zeros((3, 1, 2)), np.zeros((3, 1, 2)))])
        with pytest.raises(ValueError):
            session.join(0, one_layer)
        assert session.n_members == 0
        with pytest.raises(ValueError):
            session.claim_rows(np.array([1]))  # no members to append to
        # A session shaped for another model is refused before any row moves.
        foreign = DecodeSession(
            model.config.n_layers + 1, model.config.n_kv_heads, model.config.head_dim
        )
        foreign.join(0, KVCache(
            [LayerKV(np.zeros((2, model.config.n_kv_heads, model.config.head_dim)),
                     np.zeros((2, model.config.n_kv_heads, model.config.head_dim)))
             for _ in range(model.config.n_layers + 1)]
        ))
        with pytest.raises(ValueError):
            model.decode_session_step(foreign, [5])
        assert foreign.length_of(0) == 2


class TestDecodeStep:
    def test_appends_at_tracked_position(self, model):
        prefill = _prefill_caches(model, [9])[0]
        session = _solo_session(model, prefill.kv_cache, reserve=1)
        logits = model.decode_session_step(session, [42])
        assert logits.shape == (1, model.config.vocab_size)
        cache = session.extract(0)
        assert cache.n_tokens == 10
        assert cache.positions[-1] == 9
        assert cache.token_ids[-1] == 42

    def test_next_position_follows_last_token_not_max(self):
        """With non-contiguous (unsorted) chunk positions the next decode
        position follows the *last* token, not the numerically largest
        position (a ``positions.max()`` anchor would say 8)."""
        layer = LayerKV(
            np.zeros((5, 1, 2), dtype=np.float32), np.zeros((5, 1, 2), dtype=np.float32)
        )
        cache = KVCache(
            [layer],
            token_ids=np.arange(5),
            positions=np.array([5, 6, 7, 2, 3], dtype=np.int64),
        )
        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2)
        session.join(0, cache, reserve=1)
        np.testing.assert_array_equal(session.claim_rows(np.array([9])), [4])

    def test_position_regression_non_contiguous_chunk_positions(self, model):
        """The appended token continues after the last chunk token even when
        an earlier chunk was embedded at larger absolute positions."""
        chunk_a = model.chunk_prefill(_random_prompt(model, 4, 1), start_position=10)
        chunk_b = model.chunk_prefill(_random_prompt(model, 3, 2), start_position=0)
        combined = KVCache.concat([chunk_a, chunk_b])
        assert combined.positions.max() == 13  # a max-position anchor
        session = _solo_session(model, combined, reserve=1)
        model.decode_session_step(session, [7])
        cache = session.extract(0)
        assert cache.positions[-1] == 3  # follows chunk_b's last token (2) + 1
        assert cache.n_layers == model.config.n_layers

    def test_decode_attends_to_context_beyond_the_query_position(self, model):
        """Cached tokens embedded at positions *larger* than the decode
        token's must still be attended — causality during decode is cache
        membership, not position order.  A positional mask would make the
        high-position chunk invisible, collapsing the logits onto those of a
        cache holding only the low-position chunk."""
        chunk_high = model.chunk_prefill(_random_prompt(model, 4, 1), start_position=10)
        chunk_low = model.chunk_prefill(_random_prompt(model, 3, 2), start_position=0)
        combined = KVCache.concat([chunk_high, chunk_low])
        with_context = model.decode_session_step(_solo_session(model, combined), [7])
        without_context = model.decode_session_step(
            _solo_session(model, combined.slice_tokens(4, 7)), [7]
        )
        assert not np.allclose(with_context, without_context)

    def test_steps_on_a_reserved_session_are_in_place(self, model):
        prefill = _prefill_caches(model, [8])[0]
        session = _solo_session(model, prefill.kv_cache, reserve=4)
        buffer_before = session._keys[0]
        for token in (5, 6, 7, 8):
            model.decode_session_step(session, [token])
        assert session._keys[0] is buffer_before  # no reallocation, no concat
        assert session.length_of(0) == 12
        assert session.stats.grows == 0

    def test_slot_capacity_does_not_change_a_solo_step(self, model):
        """A lone member decodes bitwise the same whatever the pad's spare
        slot capacity: spare slots are never read."""
        prefill = _prefill_caches(model, [10])[0]
        narrow = _solo_session(model, prefill.kv_cache, reserve=3)
        wide = model.new_decode_session(slot_capacity=8)
        wide.join(0, prefill.kv_cache, reserve=3)
        for token in (33, 34, 35):
            np.testing.assert_array_equal(
                model.decode_session_step(narrow, [token]),
                model.decode_session_step(wide, [token]),
            )
        for a, b in zip(narrow.extract(0).layers, wide.extract(0).layers):
            np.testing.assert_array_equal(a.keys, b.keys)
            np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_token_id_leaves_state_untouched(self, model):
        """Token validation runs before any row is claimed, so a caught and
        retried error leaves no phantom all-zero rows behind."""
        prefill = _prefill_caches(model, [5])[0]
        session = _solo_session(model, prefill.kv_cache, reserve=2)
        with pytest.raises(ValueError):
            model.decode_session_step(session, [model.config.vocab_size])
        assert session.length_of(0) == 5
        assert session.stats.steps == 0
        logits = model.decode_session_step(session, [7])  # retry decodes cleanly
        expected = model.full_prefill(
            np.concatenate([prefill.kv_cache.token_ids, [7]])
        ).last_logits
        np.testing.assert_allclose(logits[0], expected, rtol=0, atol=1e-4)
        np.testing.assert_array_equal(session.extract(0).positions, np.arange(6))


class TestGenerateEos:
    def test_eos_is_not_emitted(self, model):
        prefill = _prefill_caches(model, [6])[0]
        eos_id = int(np.argmax(prefill.last_logits))  # force EOS immediately
        session = _solo_session(model, prefill.kv_cache, reserve=4)
        generated = model.generate_session(
            session, [prefill.last_logits], max_new_tokens=4, eos_id=eos_id
        )
        assert generated == [[]]
        assert session.n_members == 0

    def test_token_count_matches_budget_without_eos(self, model):
        prefill = _prefill_caches(model, [6])[0]
        session = _solo_session(model, prefill.kv_cache, reserve=5)
        generated = model.generate_session(
            session, [prefill.last_logits], max_new_tokens=5, eos_id=None
        )
        assert len(generated[0]) == 5
        # The last sampled token is returned but never decoded.
        assert session.stats.steps == 4

    def test_greedy_tokens_match_full_prefill_argmax(self, model):
        prefill = _prefill_caches(model, [7], seed=3)[0]
        session = _solo_session(model, prefill.kv_cache, reserve=5)
        generated = model.generate_session(session, [prefill.last_logits], 5)[0]
        sequence = prefill.kv_cache.token_ids
        for token in generated:
            assert token == int(np.argmax(model.full_prefill(sequence).last_logits))
            sequence = np.concatenate([sequence, [token]])

    def test_generate_session_rejects_misaligned_start_logits(self, model):
        prefill = _prefill_caches(model, [6])[0]
        session = _solo_session(model, prefill.kv_cache, reserve=2)
        with pytest.raises(ValueError):
            model.generate_session(
                session, [prefill.last_logits, prefill.last_logits], max_new_tokens=2
            )
        assert session.member_ids == (0,)  # nothing joined, left or stepped
        assert session.stats.steps == 0

    def test_on_step_reports_every_executed_step(self, model):
        prefills = _prefill_caches(model, [6, 9, 4], seed=5)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=7)
        widths = []
        generated = model.generate_session(
            session,
            [p.last_logits for p in prefills],
            max_new_tokens=7,
            on_step=lambda seconds, width: widths.append((seconds, width)),
        )
        assert [len(tokens) for tokens in generated] == [7, 7, 7]
        assert len(widths) == session.stats.steps == 6
        assert all(seconds >= 0.0 and width == 3 for seconds, width in widths)

    def test_finished_requests_drop_out_of_the_batch(self, model):
        prefills = _prefill_caches(model, [6, 8], seed=21)
        eos_id = int(np.argmax(prefills[0].last_logits))
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=6)
        widths = []
        batched = model.generate_session(
            session,
            [p.last_logits for p in prefills],
            max_new_tokens=6,
            eos_id=eos_id,
            on_step=lambda seconds, width: widths.append(width),
        )
        assert batched[0] == []  # hit EOS on its first token
        assert widths and all(width == 1 for width in widths)
        expected = model.generate_session(
            _solo_session(model, prefills[1].kv_cache, reserve=6),
            [prefills[1].last_logits],
            max_new_tokens=6,
            eos_id=eos_id,
        )[0]
        assert batched[1] == expected
