"""The model's per-model RoPE table and its in-place softmax.

Rotating Q/K with rows of a :class:`~repro.model.rope.RopeTable` must be
bitwise equal to :func:`~repro.model.rope.apply_rope` — at position 0, at
non-contiguous positions and past the table's initial end (which grows it) —
and a decode session that runs past the initial end must produce the same
logits as one whose table was already large.  ``softmax`` must not write to
its argument and must return exactly what the three-temporary formula did.
"""

import numpy as np
import pytest

from repro.model.config import get_config
from repro.model.layers import softmax
from repro.model.rope import RopeTable, apply_rope, rotate
from repro.model.transformer import TransformerModel

HEAD_DIM = 16


def _rotated_by_table(table: RopeTable, x: np.ndarray, positions) -> np.ndarray:
    cos, sin = table.rows(positions)
    return rotate(x, cos, sin)


class TestRopeTable:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "positions",
        [[0], [0, 1, 2, 3], [3, 17, 5, 200, 17, 64]],
        ids=["zero", "contiguous", "non_contiguous"],
    )
    def test_rows_bitwise_equal_apply_rope(self, dtype, positions):
        table = RopeTable(HEAD_DIM, dtype=dtype)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(len(positions), 3, HEAD_DIM)).astype(dtype)
        np.testing.assert_array_equal(
            _rotated_by_table(table, x, positions), apply_rope(x, np.asarray(positions))
        )

    def test_growth_past_the_initial_end_is_bitwise(self):
        table = RopeTable(HEAD_DIM, theta=500_000.0)
        end = table.capacity
        positions = np.array([end - 1, end, 2, 4 * end + 3])
        x = np.random.default_rng(1).normal(size=(4, 2, HEAD_DIM)).astype(np.float32)
        rotated = _rotated_by_table(table, x, positions)
        assert table.capacity > 4 * end + 3
        np.testing.assert_array_equal(rotated, apply_rope(x, positions, theta=500_000.0))
        # Rows below the old end did not move when the table grew.
        np.testing.assert_array_equal(
            _rotated_by_table(table, x[:1], [end - 1]),
            apply_rope(x[:1], np.array([end - 1]), 500_000.0),
        )

    def test_grows_geometrically(self):
        table = RopeTable(HEAD_DIM)
        end = table.capacity
        table.rows([end])
        assert table.capacity == 2 * end  # doubled, not just one row longer
        table.rows([2 * end - 1])
        assert table.capacity == 2 * end  # in range: no regrowth

    def test_rejects_negative_positions(self):
        with pytest.raises(ValueError):
            RopeTable(HEAD_DIM).rows([3, -1])

    def test_decode_session_past_the_initial_end_keeps_its_logits(self):
        """A session whose positions cross the table's initial end (growing
        it mid-generation) matches one decoded on an already-grown table."""
        config = get_config("tiny")
        fresh = TransformerModel(config, seed=0)
        grown = TransformerModel(config, seed=0)
        initial = fresh.rope.capacity
        grown.rope.rows([4 * initial])
        n_prompt, n_steps = initial - 3, 8
        rng = np.random.default_rng(2)
        prompt = rng.integers(4, config.vocab_size, size=n_prompt).astype(np.int64)
        steps = rng.integers(4, config.vocab_size, size=n_steps).astype(np.int64)

        logits = []
        for model in (fresh, grown):
            session = model.new_decode_session()
            session.join(0, model.full_prefill(prompt).kv_cache, reserve=n_steps)
            logits.append(
                np.stack([model.decode_session_step(session, [t])[0] for t in steps])
            )
        assert fresh.rope.capacity > initial
        np.testing.assert_array_equal(logits[0], logits[1])
        # And both still agree with a full prefill over the whole sequence.
        truth = grown.full_prefill(np.concatenate([prompt, steps])).last_logits
        np.testing.assert_allclose(logits[0][-1], truth, rtol=0, atol=1e-4)


class TestSoftmax:
    def test_leaves_its_input_unchanged(self):
        scores = np.random.default_rng(3).normal(size=(2, 3, 5, 7)).astype(np.float32)
        before = scores.copy()
        softmax(scores, axis=-1)
        np.testing.assert_array_equal(scores, before)

    def test_rows_sum_to_one_and_match_the_three_temporary_formula(self):
        scores = np.random.default_rng(4).normal(size=(4, 6, 9)).astype(np.float32) * 5
        weights = softmax(scores, axis=-1)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-6)
        exp = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        np.testing.assert_array_equal(weights, exp / np.sum(exp, axis=-1, keepdims=True))

    def test_row_with_one_live_key_puts_all_weight_on_it(self):
        scores = np.full((2, 6), -1e30, dtype=np.float32)
        scores[0, 4] = 0.3
        scores[1] = np.linspace(-1.0, 1.0, 6)
        weights = softmax(scores, axis=-1)
        np.testing.assert_array_equal(weights[0], np.eye(6, dtype=np.float32)[4])
        assert weights[1].min() > 0.0
