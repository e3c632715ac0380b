"""Seeded workload definitions for the closed-loop CacheBlend benchmark.

Each workload is a stream of *calls*; one call is one
``BlendEngine.run_batch`` of ``batch_width`` requests, and each request is
``chunks_per_request`` context chunks followed by a question.

The chunk corpus of a workload is fixed, like a knowledge base.  ``--seed``
draws everything else: which chunks are popular, which chunks each request
combines, the questions, and the warm-up calls.  The same seed yields the
same inputs.  The first ``quality_sample`` requests of every run are the
exception: they come from a fixed stream, so ``quality_attn_dev`` (measured
on exactly those requests) is one deterministic number per commit.  With a
seed-drawn sample of 16 requests it varied by 3% (quartile spread over ten
seeds), about as much as serving a recompute ratio of 0.10 instead of 0.15
moves it, so a seed-drawn sample could not guard quality.

Chunk and question texts are made of synthetic words (``w<n>``); the
repository's word-level tokenizer maps each word to one token, so a text of
``n`` words is exactly ``n`` tokens.  The engine sees only these texts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: Words are drawn from this many distinct strings (hashed into the vocab).
_WORD_SPACE = 1_000_000

#: The corpus and the quality sample do not depend on ``--seed``.
_FIXED_SEED = 0

#: Separate RNG streams, so that e.g. the number of warm-up calls never shifts
#: the timed call stream.
_STREAM_CORPUS, _STREAM_RANKS, _STREAM_CALLS, _STREAM_WARMUP, _STREAM_QUALITY = range(1, 6)

Request = tuple[list[str], str]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload.

    ``pool_size`` chunks exist; requests pick ``chunks_per_request`` distinct
    ones with Zipf(``zipf_s``) popularity over the pool's ranks.  With
    ``precompute`` the whole pool is prefilled into the store during set-up;
    ``store_chunks`` caps the store at that many chunks' bytes (``None``:
    the device's own capacity).
    """

    name: str
    why: str
    chunk_tokens: int
    chunks_per_request: int
    question_tokens: int
    max_new_tokens: int
    batch_width: int
    pool_size: int
    zipf_s: float
    precompute: bool
    store_chunks: int | None = None
    warmup_calls: int = 2
    #: The first this-many timed requests form the fixed quality sample.
    quality_sample: int = 4


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="rag_warm",
            why=(
                "full reuse: every chunk precomputed and resident, so selective "
                "recompute (fusor + model layers) does nearly all the work"
            ),
            chunk_tokens=128,
            chunks_per_request=4,
            question_tokens=16,
            max_new_tokens=1,
            batch_width=1,
            pool_size=24,
            zipf_s=1.0,
            precompute=True,
        ),
        WorkloadSpec(
            name="rag_cold",
            why=(
                "working set far above store capacity: most lookups miss, so "
                "chunk prefill, quantise, put and LRU eviction sit beside fusion"
            ),
            chunk_tokens=128,
            chunks_per_request=4,
            question_tokens=16,
            max_new_tokens=1,
            batch_width=1,
            pool_size=4096,
            zipf_s=0.8,
            precompute=False,
            store_chunks=16,
        ),
        WorkloadSpec(
            name="gen_batch",
            why=(
                "offline batches of 8 with short warm contexts and 32 output "
                "tokens, so DecodeSession steps dominate each call"
            ),
            chunk_tokens=32,
            chunks_per_request=2,
            question_tokens=8,
            max_new_tokens=32,
            batch_width=8,
            pool_size=16,
            zipf_s=1.0,
            precompute=True,
        ),
    )
}


def _words(rng: np.random.Generator, n: int) -> str:
    return " ".join(f"w{int(x)}" for x in rng.integers(0, _WORD_SPACE, size=n))


class Workload:
    """The seeded input generator of one workload."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = int(seed)
        ranks = np.arange(1, spec.pool_size + 1, dtype=np.float64)
        weights = ranks ** -spec.zipf_s
        self._popularity = weights / weights.sum()

    def chunk_text(self, index: int) -> str:
        """Text of corpus chunk *index*; the same for every seed."""
        rng = np.random.default_rng([_FIXED_SEED, _STREAM_CORPUS, int(index)])
        return _words(rng, self.spec.chunk_tokens)

    def pool(self) -> list[str]:
        """Every chunk text of the corpus (what set-up precomputes)."""
        return [self.chunk_text(i) for i in range(self.spec.pool_size)]

    def _stream(self, seed: int, stream: int):
        spec = self.spec
        # Which corpus chunk holds which popularity rank is seeded too.
        rank_to_chunk = np.random.default_rng([seed, _STREAM_RANKS]).permutation(
            spec.pool_size
        )
        rng = np.random.default_rng([seed, stream])
        while True:
            call = []
            for _ in range(spec.batch_width):
                ranks = rng.choice(
                    spec.pool_size, size=spec.chunks_per_request, replace=False,
                    p=self._popularity,
                )
                chunks = [self.chunk_text(int(rank_to_chunk[r])) for r in ranks]
                call.append((chunks, _words(rng, spec.question_tokens)))
            yield call

    @property
    def quality_calls(self) -> int:
        """Leading calls that carry the quality sample; every run serves them."""
        return -(-self.spec.quality_sample // self.spec.batch_width)

    def calls(self):
        """Infinite, deterministic stream of timed calls (lists of requests):
        the fixed quality calls, then the seed's own stream."""
        quality = self._stream(_FIXED_SEED, _STREAM_QUALITY)
        return itertools.chain(
            itertools.islice(quality, self.quality_calls),
            self._stream(self.seed, _STREAM_CALLS),
        )

    def warmup_calls(self) -> list[list[Request]]:
        """The set-up warm-up calls, from their own stream."""
        stream = self._stream(self.seed, _STREAM_WARMUP)
        return [next(stream) for _ in range(self.spec.warmup_calls)]
