"""The config table: every config-file key, its type and its default.

The one place a default is written: ``svt.cli`` parses files against
``SCHEMA``, and ``TrainConfig``, ``SampleConfig`` and the keywords of
``build_variant`` read ``DEFAULTS``.  Loads no numpy.
"""

from types import MappingProxyType

SCHEMA = {
    # model
    "variant": (str, "spatiotemporal"),
    "preset": (str, "base"),
    "video_t": (int, 16),
    "video_h": (int, 64),
    "video_w": (int, 64),
    "channels": (str, "rgb"),
    "head": (str, "categorical"),
    "subscale_t": (int, 0),       # 0: derived from the variant, per axis
    "subscale_h": (int, 0),
    "subscale_w": (int, 0),
    "kernel_t": (int, 0),         # 0: the subscale factor's axis; 6,1,1 for single_frame
    "kernel_h": (int, 0),
    "kernel_w": (int, 0),
    "d_embed": (int, 0),          # 0: preset value
    "d_model": (int, 0),
    "n_heads": (int, 0),
    "d_head": (int, 0),
    "layers": (int, 0),
    "enc_blocks": (str, ""),      # e.g. "2x8x8;2x8x8"; empty: derived
    "dec_blocks": (str, ""),
    "mconv": (int, 3),
    "first_slice_layers": (int, 0),   # 0: no first-slice decoder
    "model_seed": (int, 1),
    # training
    "batch_slices": (int, 64),
    "steps": (int, 1000),
    "train_seed": (int, 0),
    "prime_frames": (int, 1),
    "lr": (float, 2e-5),
    "rms_decay": (float, 0.95),
    "rms_momentum": (float, 0.9),
    "rms_eps": (float, 1e-8),
    "ckpt_every": (int, 0),       # 0: final checkpoint only
    "log_every": (int, 1),
    "stop_bits_per_dim": (float, 0.0),  # 0: never stop early
    "stop_window": (int, 20),
    # sampling
    "temperature": (float, 0.9),
    "sample_seed": (int, 0),
    "sample_count": (int, 1),
}

DEFAULTS = MappingProxyType({key: default for key, (_, default) in SCHEMA.items()})
