"""Rotary positional embeddings (RoPE) and positional re-alignment.

CacheBlend stores chunk KV caches computed at one absolute position and later
reuses them at a different position.  Because RoPE attention scores depend only
on *relative* position (paper Appendix A), the stored keys can be re-aligned by
rotating them by the position delta — ``shift_keys`` implements exactly that
correction.

The forward pass never evaluates ``cos``/``sin`` itself: each model owns one
:class:`RopeTable` of per-position rows, gathered once per layer call and
shared by Q and K.  Rotating with those rows is bitwise equal to
:func:`apply_rope`, which stays the path for arbitrary (e.g. negative
delta) positions.
"""

from __future__ import annotations

import numpy as np


def rope_frequencies(head_dim: int, theta: float = 10_000.0) -> np.ndarray:
    """Per-pair rotation frequencies ``theta_i = theta ** (-2i/d)``."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even")
    exponents = np.arange(0, head_dim, 2, dtype=np.float64) / head_dim
    return theta ** (-exponents)


def rope_angles(positions: np.ndarray, head_dim: int, theta: float = 10_000.0) -> np.ndarray:
    """Rotation angles of shape ``(len(positions), head_dim // 2)``."""
    freqs = rope_frequencies(head_dim, theta)
    positions = np.asarray(positions, dtype=np.float64)
    return positions[:, None] * freqs[None, :]


def apply_rope(x: np.ndarray, positions: np.ndarray, theta: float = 10_000.0) -> np.ndarray:
    """Apply rotary embedding to *x*.

    Parameters
    ----------
    x:
        Array of shape ``(n_tokens, n_heads, head_dim)``.  The output keeps
        this array's floating dtype (the model's compute dtype); only the
        rotation angles are evaluated in float64.
    positions:
        Integer positions of shape ``(n_tokens,)``.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    n_tokens, _, head_dim = x.shape
    if len(positions) != n_tokens:
        raise ValueError(f"positions length {len(positions)} != n_tokens {n_tokens}")
    angles = rope_angles(positions, head_dim, theta)  # (T, d/2)
    cos = np.cos(angles)[:, None, :].astype(x.dtype)
    sin = np.sin(angles)[:, None, :].astype(x.dtype)
    return rotate(x, cos, sin)


def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the ``(even, odd)`` pairs of *x* ``(T, n_heads, head_dim)`` by
    angles given as *cos*/*sin* rows of shape ``(T, 1, head_dim // 2)``."""
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


class RopeTable:
    """Per-position RoPE ``cos``/``sin`` rows in one compute dtype.

    Row ``p`` is ``cos/sin(rope_angles([p]))`` cast to *dtype* — exactly the
    factors :func:`apply_rope` builds for a ``dtype`` input at position
    ``p`` — so :meth:`rows` + :func:`rotate` is bitwise equal to
    :func:`apply_rope`.  The table covers positions ``0..capacity-1`` and
    grows geometrically (at least doubling) the first time a position past
    its end is asked for.
    """

    #: Rows a new table starts with (a few KB; growth is amortised O(1)).
    INITIAL_CAPACITY = 256

    def __init__(
        self, head_dim: int, theta: float = 10_000.0, dtype: np.dtype | str = np.float32
    ) -> None:
        self.head_dim = head_dim
        self.theta = theta
        self.dtype = np.dtype(dtype)
        self._fill(self.INITIAL_CAPACITY)

    @property
    def capacity(self) -> int:
        return self._cos.shape[0]

    def _fill(self, capacity: int) -> None:
        angles = rope_angles(np.arange(capacity), self.head_dim, self.theta)
        self._cos = np.cos(angles).astype(self.dtype)
        self._sin = np.sin(angles).astype(self.dtype)

    def rows(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``cos`` and ``sin`` rows of non-negative integer *positions*, each
        of shape ``(len(positions), 1, head_dim // 2)`` (broadcast over
        heads, ready for :func:`rotate`)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size:
            if int(positions.min()) < 0:
                raise ValueError("RoPE table positions must be non-negative")
            top = int(positions.max())
            if top >= self.capacity:
                self._fill(max(top + 1, 2 * self.capacity))
        return self._cos[positions][:, None, :], self._sin[positions][:, None, :]


def shift_keys(
    keys: np.ndarray,
    old_positions: np.ndarray,
    new_positions: np.ndarray,
    theta: float = 10_000.0,
) -> np.ndarray:
    """Re-align RoPE-rotated keys from *old_positions* to *new_positions*.

    Rotating a key embedded at position ``m`` by the delta ``m' - m`` produces
    the key as if it had been embedded at ``m'``.  This is the positional
    correction CacheBlend applies when a cached chunk is placed at a new
    offset inside the fused input (paper §4.3 footnote and Appendix A).
    """
    old_positions = np.asarray(old_positions)
    new_positions = np.asarray(new_positions)
    if old_positions.shape != new_positions.shape:
        raise ValueError("old and new positions must have the same shape")
    delta = new_positions.astype(np.int64) - old_positions.astype(np.int64)
    return apply_rope(keys, delta, theta)
