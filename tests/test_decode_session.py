"""Persistent batch-decode sessions.

Locks down the :class:`~repro.model.tensors.DecodeSession` subsystem: a
width-N session matches full-prefill ground truth and N width-1 session
replays token-for-token — including under membership churn (joins/leaves
mid-generation) and pad growth — caches round-trip bitwise through a slot, steady-state steps perform *no* full K/V
re-gather (copy-count instrumentation), and buffers are released when a
member leaves (peak resident KV tracks the live batch).
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
    """A width-1 session holding *cache* — the one-request replay."""
    session = model.new_decode_session(slot_capacity=1)
    session.join(0, cache, reserve=reserve)
    return session


def _solo_step(model: TransformerModel, session: DecodeSession, token: int):
    return model.decode_session_step(session, [int(token)])[0]


def _ground_truth(model: TransformerModel, cache: KVCache, decoded) -> np.ndarray:
    """Last-token logits of a full prefill over the prompt + decoded tokens."""
    sequence = np.concatenate([cache.token_ids, np.asarray(decoded, dtype=np.int64)])
    return model.full_prefill(sequence).last_logits


class TestSessionStepEquivalence:
    """One width-N session step vs ground truth and width-1 replays."""

    LENGTHS = (12, 7, 19, 9)
    N_STEPS = 8

    @pytest.fixture(scope="class")
    def streams(self, model):
        rng = np.random.default_rng(3)
        return rng.integers(
            4, model.config.vocab_size, size=(len(self.LENGTHS), self.N_STEPS)
        ).astype(np.int64)

    def test_stepwise_logits_match_ground_truth_and_width_one_replays(
        self, model, streams
    ):
        prefills = _prefill_caches(model, self.LENGTHS)
        solo = [_solo_session(model, p.kv_cache, reserve=self.N_STEPS) for p in prefills]
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=self.N_STEPS)
        for step in range(self.N_STEPS):
            session_logits = model.decode_session_step(session, streams[:, step])
            for i, p in enumerate(prefills):
                expected = _ground_truth(model, p.kv_cache, streams[i, : step + 1])
                assert int(np.argmax(expected)) == int(np.argmax(session_logits[i]))
                np.testing.assert_allclose(
                    session_logits[i], expected, rtol=0, atol=1e-4
                )
                replay = _solo_step(model, solo[i], streams[i, step])
                np.testing.assert_allclose(
                    replay, session_logits[i], rtol=1e-4, atol=1e-5
                )

    def test_caches_round_trip_through_a_slot(self, model, streams):
        """After identical steps, extract() matches the cache the same tokens
        produced through a width-1 replay — and a join immediately followed
        by extract is bitwise."""
        prefills = _prefill_caches(model, self.LENGTHS)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=self.N_STEPS)
            bitwise = session.extract(i)
            for a, b in zip(bitwise.layers, p.kv_cache.layers):
                np.testing.assert_array_equal(a.keys, b.keys)
                np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(bitwise.token_ids, p.kv_cache.token_ids)
            np.testing.assert_array_equal(bitwise.positions, p.kv_cache.positions)
        reference = [
            _solo_session(model, p.kv_cache, reserve=self.N_STEPS) for p in prefills
        ]
        for step in range(self.N_STEPS):
            model.decode_session_step(session, streams[:, step])
            for i, solo in enumerate(reference):
                _solo_step(model, solo, streams[i, step])
        for i, ref in enumerate(reference):
            extracted = session.extract(i)
            expected = ref.extract(0)
            assert extracted.n_tokens == expected.n_tokens
            for a, b in zip(extracted.layers, expected.layers):
                np.testing.assert_allclose(a.keys, b.keys, rtol=1e-4, atol=1e-5)
                np.testing.assert_allclose(a.values, b.values, rtol=1e-4, atol=1e-5)
            np.testing.assert_array_equal(extracted.token_ids, expected.token_ids)
            np.testing.assert_array_equal(extracted.positions, expected.positions)

    def test_generate_session_matches_width_one_replays(self, model):
        prefills = _prefill_caches(model, self.LENGTHS, seed=11)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=24)
        via_session = model.generate_session(
            session, [p.last_logits for p in prefills], max_new_tokens=24
        )
        via_solo = [
            model.generate_session(
                _solo_session(model, p.kv_cache, reserve=24),
                [p.last_logits],
                max_new_tokens=24,
            )[0]
            for p in prefills
        ]
        assert via_session == via_solo
        assert all(len(tokens) == 24 for tokens in via_session)
        assert session.n_members == 0  # fully drained on return

    def test_generate_session_eos_dropout_matches_width_one_replays(self, model):
        prefills = _prefill_caches(model, (6, 8), seed=21)
        eos_id = int(np.argmax(prefills[0].last_logits))
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=6)
        via_session = model.generate_session(
            session,
            [p.last_logits for p in prefills],
            max_new_tokens=6,
            eos_id=eos_id,
        )
        via_solo = [
            model.generate_session(
                _solo_session(model, p.kv_cache, reserve=6),
                [p.last_logits],
                max_new_tokens=6,
                eos_id=eos_id,
            )[0]
            for p in prefills
        ]
        assert via_session == via_solo
        assert via_session[0] == []  # hit EOS on its first token

    def test_input_validation(self, model):
        prefill = _prefill_caches(model, [5])[0]
        session = model.new_decode_session()
        with pytest.raises(ValueError):
            model.decode_session_step(session, [1])  # no members yet
        session.join("r", prefill.kv_cache)
        with pytest.raises(ValueError):
            model.decode_session_step(session, [1, 2])
        with pytest.raises(ValueError):
            session.join("r", prefill.kv_cache)  # duplicate member
        with pytest.raises(KeyError):
            session.leave("unknown")

    def test_invalid_token_id_leaves_slots_untouched(self, model):
        prefill = _prefill_caches(model, [5])[0]
        session = model.new_decode_session()
        session.join("r", prefill.kv_cache, reserve=2)
        with pytest.raises(ValueError):
            model.decode_session_step(session, [model.config.vocab_size])
        assert session.length_of("r") == 5
        logits = model.decode_session_step(session, [7])  # retry decodes cleanly
        assert logits.shape == (1, model.config.vocab_size)
        assert session.length_of("r") == 6


class TestMembershipChurn:
    """Joins/leaves mid-generation keep remaining members' decode exact."""

    def test_join_mid_generation_matches_sequential(self, model):
        rng = np.random.default_rng(5)
        streams = rng.integers(4, model.config.vocab_size, size=(3, 10)).astype(np.int64)
        prefills = _prefill_caches(model, (9, 14, 6), seed=31)
        sequential = [_solo_session(model, p.kv_cache, reserve=10) for p in prefills]
        session = model.new_decode_session()
        session.join(0, prefills[0].kv_cache, reserve=10)
        session.join(1, prefills[1].kv_cache, reserve=10)
        joined_at = {0: 0, 1: 0, 2: 4}
        for step in range(10):
            if step == 4:
                session.join(2, prefills[2].kv_cache, reserve=6)  # late admission
            order = list(session.member_ids)
            tokens = [int(streams[m, step - joined_at[m]]) for m in order]
            session_logits = model.decode_session_step(session, tokens)
            for row, member in enumerate(order):
                logits = _solo_step(model, sequential[member], tokens[row])
                np.testing.assert_allclose(
                    logits, session_logits[row], rtol=1e-4, atol=1e-5
                )

    def test_leave_mid_generation_keeps_survivors_exact(self, model):
        rng = np.random.default_rng(6)
        streams = rng.integers(4, model.config.vocab_size, size=(4, 12)).astype(np.int64)
        prefills = _prefill_caches(model, (8, 11, 5, 16), seed=41)
        sequential = [_solo_session(model, p.kv_cache, reserve=12) for p in prefills]
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=12)
        for step in range(12):
            if step == 3:
                session.leave(1)  # early EOS
            if step == 7:
                session.leave(3)  # length cap
            order = list(session.member_ids)
            tokens = [int(streams[m, step]) for m in order]
            session_logits = model.decode_session_step(session, tokens)
            for row, member in enumerate(order):
                logits = _solo_step(model, sequential[member], tokens[row])
                np.testing.assert_allclose(
                    logits, session_logits[row], rtol=1e-4, atol=1e-5
                )
        assert set(session.member_ids) == {0, 2}

    def test_pad_growth_mid_generation_is_transparent(self, model):
        """A token capacity hit mid-run regrows the pad geometrically without
        changing the decoded logits."""
        prefill = _prefill_caches(model, [6])[0]
        tight = DecodeSession(
            model.config.n_layers,
            model.config.n_kv_heads,
            model.config.head_dim,
            dtype=model.config.np_dtype,
            token_capacity=7,  # one spare row: grows on the second step
            slot_capacity=1,
        )
        tight.join(0, prefill.kv_cache)
        roomy = model.new_decode_session(token_capacity=64)
        roomy.join(0, prefill.kv_cache, reserve=16)
        capacities = {tight.token_capacity}
        for step in range(16):
            token = [int(4 + step)]
            np.testing.assert_array_equal(
                model.decode_session_step(tight, token),
                model.decode_session_step(roomy, token),
            )
            capacities.add(tight.token_capacity)
        assert tight.token_capacity >= 22
        assert len(capacities) <= 3  # geometric, not per-token
        assert tight.stats.grows >= 1


class TestCopyInstrumentation:
    """Acceptance: no full K/V re-gather on stable membership."""

    def test_steady_state_steps_append_only(self, model):
        prefills = _prefill_caches(model, (10, 13, 7), seed=51)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=16)
        session.stats.reset()  # joins (the one allowed refill) are done
        for step in range(16):
            model.decode_session_step(session, [4 + step] * 3)
        assert session.stats.steps == 16
        assert session.stats.append_rows == 3 * 16  # one row per member per step
        assert session.stats.refill_rows == 0  # no re-gather, ever
        assert session.stats.grows == 0  # reserve prevented reallocation

    def test_join_refills_exactly_the_joined_rows(self, model):
        prefills = _prefill_caches(model, (10, 13), seed=61)
        session = model.new_decode_session()
        session.join(0, prefills[0].kv_cache, reserve=4)
        assert session.stats.refill_rows == 10
        session.join(1, prefills[1].kv_cache, reserve=4)
        assert session.stats.refill_rows == 10 + 13

    def test_leave_of_the_last_slot_copies_nothing(self, model):
        prefills = _prefill_caches(model, (5, 6), seed=71)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache)
        session.stats.reset()
        session.leave(1)  # dense prefix already; no hole to fill
        assert session.stats.refill_rows == 0
        session.stats.reset()
        # Re-join then remove the *first* member: the survivor moves once.
        session.join(1, prefills[1].kv_cache)
        session.stats.reset()
        session.leave(0)
        assert session.stats.refill_rows == session.length_of(1)


class TestMemoryRelease:
    """Buffers are dropped on leave; peak resident KV tracks the live batch."""

    def test_slot_axis_shrinks_after_leaves(self, model):
        prefill = _prefill_caches(model, [8])[0]
        session = model.new_decode_session(slot_capacity=2)
        for i in range(16):
            session.join(i, prefill.kv_cache, reserve=4)
        peak = session.resident_bytes()
        assert session.slot_capacity >= 16
        for i in range(15):
            session.leave(i)
        assert session.n_members == 1
        assert session.slot_capacity < 16
        assert session.resident_bytes() < peak / 2
        # The survivor still decodes correctly after all the compaction.
        np.testing.assert_allclose(
            model.decode_session_step(session, [9])[0],
            _ground_truth(model, prefill.kv_cache, [9]),
            rtol=0,
            atol=1e-4,
        )

    def test_reused_slot_does_not_leak_previous_token_ids(self, model):
        """Regression: joining a cache with empty token_ids into a slot a
        previous member vacated must not surface the old occupant's ids
        through extract()."""
        prefill = _prefill_caches(model, [8])[0]
        session = model.new_decode_session()
        session.join("old", prefill.kv_cache)
        session.leave("old")
        anonymous = KVCache(
            [layer.copy() for layer in prefill.kv_cache.layers]  # no token_ids
        )
        session.join("new", anonymous, reserve=2)
        extracted = session.extract("new")
        assert np.all(extracted.token_ids == 0)
        np.testing.assert_array_equal(
            extracted.positions, np.arange(prefill.kv_cache.n_tokens)
        )

    def test_leave_forgets_the_member(self, model):
        prefill = _prefill_caches(model, [5])[0]
        session = model.new_decode_session()
        session.join("r", prefill.kv_cache)
        session.leave("r")
        assert session.n_members == 0
        with pytest.raises(KeyError):
            session.extract("r")

    def test_session_validation(self, model):
        with pytest.raises(ValueError):
            DecodeSession(0, 1, 4)
        with pytest.raises(ValueError):
            DecodeSession(1, 1, 4, token_capacity=0)
        session = model.new_decode_session()
        empty = KVCache(
            [LayerKV(np.zeros((0, model.config.n_kv_heads, model.config.head_dim)),
                     np.zeros((0, model.config.n_kv_heads, model.config.head_dim)))
             for _ in range(model.config.n_layers)]
        )
        with pytest.raises(ValueError):
            session.join("empty", empty)
        wrong_shape = KVCache(
            [LayerKV(np.zeros((3, 1, 2)), np.zeros((3, 1, 2)))
             for _ in range(model.config.n_layers)]
        )
        with pytest.raises(ValueError):
            session.join("shape", wrong_shape)


class TestPreemptionInvariants:
    """Pause/resume mid-generation must be invisible to the tokens.

    The scheduler's decode preemption maps to ``session.preempt`` (extract
    + leave) followed by a later re-``join``; the resumed stream must be
    bitwise identical to one that was never paused, no matter when the
    pause happens or how the batch churns around it.
    """

    LENGTHS = (11, 8, 15)
    N_STEPS = 10

    @pytest.fixture(scope="class")
    def streams(self, model):
        rng = np.random.default_rng(17)
        return rng.integers(
            4, model.config.vocab_size, size=(len(self.LENGTHS), self.N_STEPS)
        ).astype(np.int64)

    def _run_with_pause(self, model, streams, pause_at: int, resume_at: int):
        """Member 1 is preempted at *pause_at* and resumes at *resume_at*;
        its steps between the two are replayed after resuming so every
        member sees the same token stream.  Returns per-member logits of
        member 1's steps plus its final extracted cache."""
        prefills = _prefill_caches(model, self.LENGTHS, seed=70)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=self.N_STEPS)
        paused = None
        victim_logits = []
        victim_step = 0
        for step in range(self.N_STEPS):
            if step == pause_at:
                paused = session.preempt(1)
            if step == resume_at and paused is not None:
                session.join(1, paused, reserve=self.N_STEPS)
                paused = None
            order = list(session.member_ids)
            tokens = [int(streams[m, victim_step if m == 1 else step]) for m in order]
            logits = model.decode_session_step(session, tokens)
            for slot, m in enumerate(order):
                if m == 1:
                    victim_logits.append(logits[slot])
                    victim_step += 1
        final = session.extract(1) if 1 in session.member_ids else paused
        return victim_logits, final

    def test_preempted_then_resumed_decode_is_bitwise_identical(self, model, streams):
        # Unpreempted reference: member 1 decodes its stream start to end.
        prefills = _prefill_caches(model, self.LENGTHS, seed=70)
        reference = model.new_decode_session()
        for i, p in enumerate(prefills):
            reference.join(i, p.kv_cache, reserve=self.N_STEPS)
        ref_logits = []
        for step in range(self.N_STEPS):
            logits = model.decode_session_step(reference, streams[:, step])
            ref_logits.append(logits[1])
        ref_cache = reference.extract(1)

        got_logits, got_cache = self._run_with_pause(
            model, streams, pause_at=4, resume_at=7
        )
        # The victim decoded fewer steps (it was paused) but every step it
        # did decode is bitwise equal to the unpreempted run's same step.
        assert len(got_logits) < self.N_STEPS
        for step, got in enumerate(got_logits):
            np.testing.assert_array_equal(got, ref_logits[step])
        # And its cache is the unpreempted cache truncated to those steps.
        n = got_cache.n_tokens
        np.testing.assert_array_equal(got_cache.token_ids, ref_cache.token_ids[:n])
        np.testing.assert_array_equal(got_cache.positions, ref_cache.positions[:n])
        for got_layer, ref_layer in zip(got_cache.layers, ref_cache.layers):
            np.testing.assert_array_equal(got_layer.keys, ref_layer.keys[:n])
            np.testing.assert_array_equal(got_layer.values, ref_layer.values[:n])

    def test_preempt_roundtrip_is_bitwise_through_rejoin(self, model):
        prefills = _prefill_caches(model, self.LENGTHS, seed=71)
        session = model.new_decode_session()
        for i, p in enumerate(prefills):
            session.join(i, p.kv_cache, reserve=4)
        paused = session.preempt(1)
        assert 1 not in session.member_ids
        assert session.stats.preemptions == 1
        session.join(1, paused, reserve=4)
        restored = session.extract(1)
        np.testing.assert_array_equal(restored.token_ids, paused.token_ids)
        for got_layer, want_layer in zip(restored.layers, paused.layers):
            np.testing.assert_array_equal(got_layer.keys, want_layer.keys)
            np.testing.assert_array_equal(got_layer.values, want_layer.values)

    def test_survivors_unaffected_by_a_preemption(self, model, streams):
        """Members 0 and 2 must decode identically whether or not member 1
        is preempted beside them."""
        prefills = _prefill_caches(model, self.LENGTHS, seed=72)
        undisturbed = model.new_decode_session()
        churned = model.new_decode_session()
        for i, p in enumerate(prefills):
            undisturbed.join(i, p.kv_cache, reserve=self.N_STEPS)
            churned.join(i, p.kv_cache, reserve=self.N_STEPS)
        for step in range(self.N_STEPS):
            if step == 3:
                churned.preempt(1)
            ref = model.decode_session_step(undisturbed, streams[:, step])
            order = list(churned.member_ids)
            got = model.decode_session_step(
                churned, [int(streams[m, step]) for m in order]
            )
            for slot, m in enumerate(order):
                np.testing.assert_array_equal(got[slot], ref[m])
