"""CacheBlend reproduction: fast LLM serving for RAG with cached knowledge fusion.

This package reimplements, in pure Python/NumPy, the system described in
*CacheBlend: Fast Large Language Model Serving for RAG with Cached Knowledge
Fusion* (EuroSys 2025).  It contains the CacheBlend core (selective KV
recompute, HKVD token selection, loading controller, load/compute pipeline),
every substrate the paper depends on (a transformer model, a tokenizer, a
KV cache store with storage-device models, a serving simulator), the baselines the paper compares against, synthetic stand-ins for
the evaluation datasets, and an experiment harness that regenerates every
figure of the paper's evaluation.

The public, stable entry points are re-exported here.
"""

from repro.core.blend_engine import BlendEngine, BlendResult
from repro.core.controller import LoadingController, ControllerDecision
from repro.core.fusor import KVFusor, FusorConfig
from repro.model.config import ModelConfig
from repro.model.transformer import TransformerModel
from repro.kvstore.store import KVCacheStore
from repro.kvstore.device import StorageDevice, DEVICE_PRESETS
from repro.tokenizer.tokenizer import Tokenizer
from repro.serving.costmodel import ServingCostModel

__version__ = "1.0.0"

__all__ = [
    "BlendEngine",
    "BlendResult",
    "LoadingController",
    "ControllerDecision",
    "KVFusor",
    "FusorConfig",
    "ModelConfig",
    "TransformerModel",
    "KVCacheStore",
    "StorageDevice",
    "DEVICE_PRESETS",
    "Tokenizer",
    "ServingCostModel",
    "__version__",
]
