"""The config table: its keys, types and defaults, the library defaults that
read it, and the README's library example, which must keep running."""

import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from svt import cli
from svt import model as M
from svt import optim as O
from svt.config import DEFAULTS, SCHEMA
from svt.sampler import SampleConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# every config key with its type and default, as the file format fixes them
PINNED_SCHEMA = {
    "variant": (str, "spatiotemporal"), "preset": (str, "base"),
    "video_t": (int, 16), "video_h": (int, 64), "video_w": (int, 64),
    "channels": (str, "rgb"), "head": (str, "categorical"),
    "subscale_t": (int, 0), "subscale_h": (int, 0), "subscale_w": (int, 0),
    "kernel_t": (int, 0), "kernel_h": (int, 0), "kernel_w": (int, 0),
    "d_embed": (int, 0), "d_model": (int, 0), "n_heads": (int, 0), "d_head": (int, 0),
    "layers": (int, 0), "enc_blocks": (str, ""), "dec_blocks": (str, ""),
    "mconv": (int, 3), "first_slice_layers": (int, 0),
    "model_seed": (int, 1),
    "batch_slices": (int, 64), "steps": (int, 1000), "train_seed": (int, 0),
    "prime_frames": (int, 1), "lr": (float, 2e-5), "rms_decay": (float, 0.95),
    "rms_momentum": (float, 0.9), "rms_eps": (float, 1e-8), "ckpt_every": (int, 0),
    "log_every": (int, 1), "stop_bits_per_dim": (float, 0.0), "stop_window": (int, 20),
    "temperature": (float, 0.9), "sample_seed": (int, 0), "sample_count": (int, 1),
}


class TestOneTable:
    def test_schema_is_pinned(self):
        assert list(SCHEMA) == list(PINNED_SCHEMA)
        for key, (kind, default) in PINNED_SCHEMA.items():
            assert SCHEMA[key][0] is kind and type(SCHEMA[key][1]) is kind, key
            assert SCHEMA[key][1] == default, key

    def test_every_kind_parses_from_its_text(self):
        """A config value is its kind applied to the file's text, so a kind
        must be str, int or float: ``bool("false")`` is True."""
        assert {kind for kind, _ in SCHEMA.values()} <= {str, int, float}

    def test_defaults_are_read_only(self):
        assert dict(DEFAULTS) == {k: v for k, (_, v) in SCHEMA.items()}
        with pytest.raises(TypeError):
            DEFAULTS["lr"] = 1.0

    def test_train_config_defaults_are_the_file_defaults(self):
        assert O.TrainConfig() == cli.train_config_from(DEFAULTS, SimpleNamespace(steps=None))

    def test_steps_flag_overrides_the_file(self):
        tcfg = cli.train_config_from(DEFAULTS, SimpleNamespace(steps=7))
        assert tcfg == dataclasses.replace(O.TrainConfig(), steps=7)

    def test_build_variant_defaults_are_the_file_defaults(self):
        assert cli.model_config_from(DEFAULTS) == M.build_variant("spatiotemporal", (16, 64, 64))

    def test_sample_config_defaults_are_the_file_defaults(self):
        assert SampleConfig() == SampleConfig(prime_frames=DEFAULTS["prime_frames"],
                                              temperature=DEFAULTS["temperature"],
                                              seed=DEFAULTS["sample_seed"])

    def test_model_config_keeps_no_defaults(self):
        """ModelConfig is the resolved form: only build_variant fills it."""
        for f in dataclasses.fields(M.ModelConfig):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name


def test_readme_library_example_runs():
    """The README's one python block runs as written, cut to 2 steps."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    assert blocks[0].count("steps=2000") == 1
    exec(compile(blocks[0].replace("steps=2000", "steps=2"), str(README), "exec"), {})
