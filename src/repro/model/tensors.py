"""KV cache data structures.

A :class:`KVCache` is the concatenation of per-layer key/value tensors for a
token sequence, together with the absolute positions at which the keys were
rotary-embedded.  Chunk caches record those positions so the CacheBlend fusor
can re-align them when the chunk is placed at a different offset.

:class:`DecodeSession` is the decode-path counterpart: one persistent padded
``(slots, tokens, kv_heads, head_dim)`` buffer pair per layer that lives
**across** decode steps.  A steady-state step writes only each member's
newly appended row (O(batch) traffic, amortised O(1) per token) and
membership changes (a request joining on admission, leaving on EOS/length)
refill only the affected slots.  Both axes of the pad grow geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_compute_array(tensor: np.ndarray) -> np.ndarray:
    """Coerce *tensor* to a float compute dtype without an implicit fp64 up-cast."""
    tensor = np.asarray(tensor)
    if tensor.dtype in (np.float32, np.float64):
        return tensor
    return tensor.astype(np.float32)


@dataclass
class LayerKV:
    """Key/value tensors of one transformer layer.

    ``keys`` and ``values`` have shape ``(n_tokens, n_kv_heads, head_dim)``.
    """

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # Preserve the caller's compute dtype (float32 by default end-to-end);
        # only sub-float32 storage dtypes (fp16 payloads) are up-cast, to
        # float32 rather than the former float64.
        self.keys = _as_compute_array(self.keys)
        self.values = _as_compute_array(self.values)
        if self.keys.shape != self.values.shape:
            raise ValueError(
                f"keys shape {self.keys.shape} != values shape {self.values.shape}"
            )
        if self.keys.ndim != 3:
            raise ValueError("LayerKV tensors must be (n_tokens, n_kv_heads, head_dim)")

    @property
    def n_tokens(self) -> int:
        return self.keys.shape[0]

    def copy(self) -> "LayerKV":
        return LayerKV(self.keys.copy(), self.values.copy())

    def slice(self, start: int, stop: int) -> "LayerKV":
        return LayerKV(self.keys[start:stop].copy(), self.values[start:stop].copy())

    def nbytes(self, dtype_bytes: int = 2) -> int:
        """Storage footprint assuming *dtype_bytes* per element."""
        return 2 * self.keys.shape[0] * self.keys.shape[1] * self.keys.shape[2] * dtype_bytes

    @staticmethod
    def concat(parts: list["LayerKV"]) -> "LayerKV":
        if not parts:
            raise ValueError("cannot concatenate an empty list of LayerKV")
        keys = np.concatenate([p.keys for p in parts], axis=0)
        values = np.concatenate([p.values for p in parts], axis=0)
        return LayerKV(keys, values)


@dataclass
class KVCache:
    """Per-layer KV tensors plus token ids and embedding positions.

    Attributes
    ----------
    layers:
        One :class:`LayerKV` per transformer layer.
    token_ids:
        The token ids the cache was computed for.
    positions:
        Absolute positions the keys were rotary-embedded at (shape
        ``(n_tokens,)``).  For a full prefill these are ``0..n-1``; for a
        chunk prefill they start at the chunk's precompute offset.
    """

    layers: list[LayerKV]
    token_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.layers:
            n = self.layers[0].n_tokens
            for i, layer in enumerate(self.layers):
                if layer.n_tokens != n:
                    raise ValueError(
                        f"layer {i} has {layer.n_tokens} tokens, expected {n}"
                    )
            if self.token_ids.size and self.token_ids.size != n:
                raise ValueError("token_ids length does not match KV tensors")
            if self.positions.size and self.positions.size != n:
                raise ValueError("positions length does not match KV tensors")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_tokens(self) -> int:
        return self.layers[0].n_tokens if self.layers else 0

    def copy(self) -> "KVCache":
        return KVCache(
            [layer.copy() for layer in self.layers],
            self.token_ids.copy(),
            self.positions.copy(),
        )

    def slice_tokens(self, start: int, stop: int) -> "KVCache":
        return KVCache(
            [layer.slice(start, stop) for layer in self.layers],
            self.token_ids[start:stop].copy() if self.token_ids.size else self.token_ids,
            self.positions[start:stop].copy() if self.positions.size else self.positions,
        )

    def nbytes(self, dtype_bytes: int = 2) -> int:
        return sum(layer.nbytes(dtype_bytes) for layer in self.layers)

    @staticmethod
    def concat(parts: list["KVCache"]) -> "KVCache":
        """Concatenate chunk caches along the token axis."""
        if not parts:
            raise ValueError("cannot concatenate an empty list of KVCache")
        n_layers = parts[0].n_layers
        for part in parts:
            if part.n_layers != n_layers:
                raise ValueError("all KVCache parts must have the same layer count")
        layers = [
            LayerKV.concat([part.layers[i] for part in parts]) for i in range(n_layers)
        ]
        token_ids = np.concatenate([part.token_ids for part in parts])
        positions = np.concatenate([part.positions for part in parts])
        return KVCache(layers, token_ids, positions)


@dataclass
class DecodeSessionStats:
    """Copy/step instrumentation of one :class:`DecodeSession`.

    ``append_rows`` counts token rows written by per-step appends (one per
    member per step); ``refill_rows`` counts token rows copied by membership
    changes and pad growth (joins, leave compaction, reallocations).  On
    stable membership a steady-state step performs *no* refills.
    """

    joins: int = 0
    leaves: int = 0
    steps: int = 0
    append_rows: int = 0
    refill_rows: int = 0
    grows: int = 0
    peak_members: int = 0
    preemptions: int = 0

    def reset(self) -> None:
        """Zero all counters (e.g. after setup, before the steady-state)."""
        self.joins = 0
        self.leaves = 0
        self.steps = 0
        self.append_rows = 0
        self.refill_rows = 0
        self.grows = 0
        self.peak_members = 0
        self.preemptions = 0


class DecodeSession:
    """Persistent padded batch of K/V buffers across decode steps.

    One ``(n_slots, token_capacity, n_kv_heads, head_dim)`` key/value buffer
    pair per layer holds every member's live K/V rows side by side.  The
    batched decode attention reads the pad *directly* (a zero-copy slice per
    layer), so a steady-state step costs one appended row per member, with
    no per-step re-gather of any member's full cache.

    Members occupy slots ``0..n_members-1`` densely (so the per-layer view
    is a plain slice); :meth:`leave` fills the hole by moving the last slot
    into it, and shrinks the slot axis geometrically when occupancy drops,
    so peak resident KV tracks the *live* batch.  Both pad axes grow
    geometrically (at least doubling), so T appended tokens cost O(T) total
    copy traffic.  All copy traffic is counted in :attr:`stats`.

    Decode continues each member's sequence from its *last* token's
    position, not the numerically largest one, so it stays in order after
    chunk caches with non-contiguous positions.

    Members are identified by caller-chosen hashable ids; the member order
    of a step's inputs/outputs is :attr:`member_ids` (which changes only on
    membership changes, never on steps).
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        dtype: np.dtype | str = np.float32,
        token_capacity: int = 64,
        slot_capacity: int = 4,
    ) -> None:
        if n_layers < 1 or n_kv_heads < 1 or head_dim < 1:
            raise ValueError("n_layers, n_kv_heads and head_dim must be >= 1")
        if token_capacity < 1 or slot_capacity < 1:
            raise ValueError("token_capacity and slot_capacity must be >= 1")
        self._token_capacity = token_capacity
        self._slot_capacity = slot_capacity
        self._min_slot_capacity = slot_capacity
        shape = (slot_capacity, token_capacity, n_kv_heads, head_dim)
        self._keys = [np.zeros(shape, dtype=dtype) for _ in range(n_layers)]
        self._values = [np.zeros_like(k) for k in self._keys]
        self._token_ids = np.zeros((slot_capacity, token_capacity), dtype=np.int64)
        self._positions = np.zeros((slot_capacity, token_capacity), dtype=np.int64)
        self._lengths = np.zeros(slot_capacity, dtype=np.int64)
        self._next_positions = np.zeros(slot_capacity, dtype=np.int64)
        self._members: list[object] = []
        self._slots: dict[object, int] = {}
        # (slot, row) index of the current step's appended rows, built once
        # by claim_rows and reused by every layer's write_layer.
        self._step_rows: tuple[np.ndarray, np.ndarray] | None = None
        self.stats = DecodeSessionStats()

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self._keys)

    @property
    def n_members(self) -> int:
        return len(self._members)

    @property
    def member_ids(self) -> tuple:
        """Current members in slot order (the batch order of a step)."""
        return tuple(self._members)

    @property
    def token_capacity(self) -> int:
        return self._token_capacity

    @property
    def slot_capacity(self) -> int:
        return self._slot_capacity

    @property
    def lengths(self) -> np.ndarray:
        """Live token count per member, in slot order (a copy)."""
        return self._lengths[: self.n_members].copy()

    def length_of(self, member_id) -> int:
        return int(self._lengths[self._slot_of(member_id)])

    def resident_bytes(self) -> int:
        """Bytes held by the pad buffers (capacity, not just live rows)."""
        return sum(k.nbytes + v.nbytes for k, v in zip(self._keys, self._values)) + (
            self._token_ids.nbytes + self._positions.nbytes
        )

    def _slot_of(self, member_id) -> int:
        slot = self._slots.get(member_id)
        if slot is None:
            raise KeyError(f"no session member {member_id!r}")
        return slot

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, member_id, cache: KVCache, reserve: int = 0) -> int:
        """Copy *cache*'s live rows into a free slot; returns the slot index.

        The one O(T) refill a member ever pays on stable membership.
        ``reserve`` extra token rows are preallocated (e.g. the decode
        budget) so the generation never regrows the token axis.
        """
        if member_id in self._slots:
            raise ValueError(f"member {member_id!r} already joined")
        n = cache.n_tokens
        if n < 1:
            raise ValueError("cannot join an empty cache")
        if cache.n_layers != self.n_layers:
            raise ValueError(
                f"cache has {cache.n_layers} layers, session has {self.n_layers}"
            )
        first = cache.layers[0].keys
        if first.shape[1:] != self._keys[0].shape[2:]:
            raise ValueError(
                f"cache KV shape {first.shape[1:]} does not match session "
                f"{self._keys[0].shape[2:]}"
            )
        if self.n_members == self._slot_capacity:
            self._grow_slots(2 * self._slot_capacity)
        if n + max(0, reserve) > self._token_capacity:
            self._grow_tokens(max(n + max(0, reserve), 2 * self._token_capacity))
        slot = self.n_members
        for layer_idx, layer in enumerate(cache.layers):
            self._keys[layer_idx][slot, :n] = layer.keys
            self._values[layer_idx][slot, :n] = layer.values
        token_ids = cache.token_ids
        positions = cache.positions
        # Always overwrite the slot rows: a reused slot still holds the
        # previous occupant's ids, which must not leak into extract().
        self._token_ids[slot, :n] = token_ids if token_ids.size else 0
        if positions.size:
            self._positions[slot, :n] = positions
            self._next_positions[slot] = int(positions[-1]) + 1
        else:
            self._positions[slot, :n] = np.arange(n, dtype=np.int64)
            self._next_positions[slot] = n
        self._lengths[slot] = n
        self._members.append(member_id)
        self._slots[member_id] = slot
        self._step_rows = None  # membership changed: the next step re-claims
        self.stats.joins += 1
        self.stats.refill_rows += n
        self.stats.peak_members = max(self.stats.peak_members, self.n_members)
        return slot

    def leave(self, member_id) -> None:
        """Free a member's slot (request finished or evicted).

        The last slot moves into the hole (one refill of that member, a
        membership-change cost) so the live slots stay a dense prefix; the
        slot axis shrinks geometrically when occupancy drops to a quarter,
        so the pad's resident bytes track the live batch.
        """
        slot = self._slot_of(member_id)
        last = self.n_members - 1
        if slot != last:
            moved_rows = int(self._lengths[last])
            for buffers in (self._keys, self._values):
                for buf in buffers:
                    buf[slot, :moved_rows] = buf[last, :moved_rows]
            self._token_ids[slot, :moved_rows] = self._token_ids[last, :moved_rows]
            self._positions[slot, :moved_rows] = self._positions[last, :moved_rows]
            self._lengths[slot] = self._lengths[last]
            self._next_positions[slot] = self._next_positions[last]
            moved_member = self._members[last]
            self._members[slot] = moved_member
            self._slots[moved_member] = slot
            self.stats.refill_rows += moved_rows
        self._lengths[last] = 0
        self._next_positions[last] = 0
        self._members.pop()
        del self._slots[member_id]
        self._step_rows = None
        self.stats.leaves += 1
        if (
            self._slot_capacity > self._min_slot_capacity
            and self.n_members <= self._slot_capacity // 4
        ):
            self._shrink_slots(max(self._min_slot_capacity, self._slot_capacity // 2))

    def extract(self, member_id) -> KVCache:
        """Deep copy of one member's live rows as a :class:`KVCache`."""
        slot = self._slot_of(member_id)
        n = int(self._lengths[slot])
        return KVCache(
            [
                LayerKV(self._keys[i][slot, :n].copy(), self._values[i][slot, :n].copy())
                for i in range(self.n_layers)
            ],
            self._token_ids[slot, :n].copy(),
            self._positions[slot, :n].copy(),
        )

    def preempt(self, member_id) -> KVCache:
        """Pause a member: extract its decode state, then free its slot.

        The scheduler's decode-preemption primitive — the returned
        :class:`KVCache` holds everything needed to resume later via
        :meth:`join` (same ``member_id`` or a new one), after which stepping
        continues bitwise exactly where it stopped.  The paused member costs
        the session nothing while it waits; ``stats.preemptions`` counts the
        pauses.
        """
        cache = self.extract(member_id)
        self.leave(member_id)
        self.stats.preemptions += 1
        return cache

    # ------------------------------------------------------------------
    # Stepping (driven by TransformerModel.decode_session_step)
    # ------------------------------------------------------------------
    def claim_rows(self, token_ids: np.ndarray) -> np.ndarray:
        """Append one token row per member (in slot order); returns the
        embedding positions of the appended tokens.

        The K/V of the appended rows is written layer by layer afterwards
        via :meth:`write_layer`, which reuses this step's row index.
        """
        n = self.n_members
        if n == 0:
            raise ValueError("session has no members")
        token_arr = np.asarray(token_ids, dtype=np.int64)
        if token_arr.shape != (n,):
            raise ValueError("need exactly one token id per member")
        if int(self._lengths[:n].max()) + 1 > self._token_capacity:
            self._grow_tokens(2 * self._token_capacity)
        rows = self._lengths[:n].copy()
        positions = self._next_positions[:n].copy()
        members = np.arange(n)
        self._token_ids[members, rows] = token_arr
        self._positions[members, rows] = positions
        self._lengths[:n] += 1
        self._next_positions[:n] = positions + 1
        self._step_rows = (members, rows)
        self.stats.steps += 1
        self.stats.append_rows += n
        return positions

    def write_layer(self, layer_idx: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Write the current step's appended row of every member, in place."""
        if self._step_rows is None:
            raise ValueError("no claimed rows: call claim_rows before write_layer")
        self._keys[layer_idx][self._step_rows] = keys
        self._values[layer_idx][self._step_rows] = values

    def layer_kv(self, layer_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy padded ``(n_members, max_len, kv_heads, head_dim)``
        key/value views for one layer — fed straight to
        :func:`~repro.model.attention.batched_decode_attention` (rows at or
        past a member's length are padding, masked by the ``lengths``
        argument)."""
        n = self.n_members
        max_len = int(self._lengths[:n].max()) if n else 0
        return (
            self._keys[layer_idx][:n, :max_len],
            self._values[layer_idx][:n, :max_len],
        )

    # ------------------------------------------------------------------
    # Pad reallocation (geometric, copy traffic counted)
    # ------------------------------------------------------------------
    def _live_rows(self) -> int:
        return int(self._lengths[: self.n_members].sum())

    def _resize(self, slot_capacity: int, token_capacity: int) -> None:
        """Reallocate the pad to new capacities, copying the live rows."""
        n = self.n_members
        keep = int(self._lengths[:n].max()) if n else 0
        for buffers in (self._keys, self._values):
            for layer_idx, old in enumerate(buffers):
                grown = np.zeros(
                    (slot_capacity, token_capacity, *old.shape[2:]), dtype=old.dtype
                )
                grown[:n, :keep] = old[:n, :keep]
                buffers[layer_idx] = grown
        for name in ("_token_ids", "_positions"):
            old = getattr(self, name)
            grown = np.zeros((slot_capacity, token_capacity), dtype=old.dtype)
            grown[:n, :keep] = old[:n, :keep]
            setattr(self, name, grown)
        for name in ("_lengths", "_next_positions"):
            old = getattr(self, name)
            grown = np.zeros(slot_capacity, dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)
        self._slot_capacity = slot_capacity
        self._token_capacity = token_capacity
        self.stats.grows += 1
        self.stats.refill_rows += self._live_rows()

    def _grow_tokens(self, new_capacity: int) -> None:
        self._resize(self._slot_capacity, new_capacity)

    def _grow_slots(self, new_capacity: int) -> None:
        self._resize(new_capacity, self._token_capacity)

    def _shrink_slots(self, new_capacity: int) -> None:
        if new_capacity < self.n_members:
            raise ValueError("cannot shrink below the live member count")
        self._resize(new_capacity, self._token_capacity)
