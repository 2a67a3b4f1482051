"""Autoregressive video generation with block-local 3D self-attention and
spatiotemporal subscaling, self-contained on numpy.

Subpackages: config (the table of config keys and defaults), tensor (arrays
+ reverse-mode gradients), subscale (slice geometry), attention (block-local
layers), model (encoder/decoder/heads), optim (RMSProp training), sampler
(autoregressive generation), connectivity (blind-spot analyzer), data
(containers + synthetic sprites), metrics (bits/dim, nats/frame), cli
(command line).
"""

import importlib

# Package-level names resolve on first use (PEP 562), so that importing
# ``svt.cli`` leaves numpy unloaded until --threads has pinned BLAS.
_HOMES = {name: module for module, names in {
    "attention": ("AttentionLayerSpec",),
    "model": ("ModelConfig", "ParamStore", "build_variant", "init_params"),
    "subscale": ("BlockShape", "SubscaleFactor", "slice_order"),
    "tensor": ("ConfigError", "ShapeError", "Tensor"),
}.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


__version__ = "0.1.0"
