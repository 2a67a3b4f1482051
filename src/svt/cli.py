"""Command-line entry point: gen-data, train, eval, sample, analyze.

Configuration is a flat ``key = value`` text file ('#' starts a comment),
parsed against ``svt.config.SCHEMA``, the one table of keys, types and
defaults; unknown keys are rejected and all geometry checks run at load
time.  An override flag (--steps, --prime, --seed, ...) sets the key that is
its argparse dest.  Any command that takes --config also accepts
--dump-config to echo every key as the command would run with it, and exit:
the file's values and the flags given, schema defaults for the rest, unset
(0) values left unresolved.  The echo round-trips through the parser.
A checkpoint records the resolved model it was trained as; ``eval``,
``sample`` and ``train --resume`` refuse one that records another model.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numeric error.
The --threads flag (or the SVT_THREADS environment variable), a positive
integer, pins the BLAS thread pools before numpy loads; --threads 1 is the
reproducibility reference.  Config files are UTF-8, with or without a
byte-order mark.  Every output path (--out, --out-ckpt, --log, --ppm) must
name an existing directory; this is checked before any work starts.
"""

import argparse
import dataclasses
import os
import sys

from .config import DEFAULTS, SCHEMA

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _int_at_least(text, lo):
    """int(``text``) if it is an integer >= ``lo`` (0 or 1), else an
    ArgumentTypeError, which argparse reports as a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < lo:
        kind = "positive" if lo else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return n


def _thread_count(text):
    """``text`` as typed, if it is a positive integer: OpenBLAS reads 0 and
    negative counts as unset."""
    _int_at_least(text, 1)
    return text


def _pin_threads(threads):
    """Set the BLAS thread variables to ``threads`` (the --threads text), or
    to SVT_THREADS when it is None; numpy must not be loaded yet.  Raises
    ArgumentTypeError unless the count is a positive integer."""
    n = threads or os.environ.get("SVT_THREADS")
    if n:
        n = _thread_count(n)
        for var in _THREAD_VARS:
            os.environ[var] = n


# ---------------------------------------------------------------------------
# flat config files
# ---------------------------------------------------------------------------

def _parse_value(key, raw):
    kind = SCHEMA[key][0]
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false for {key}, got {raw!r}")
    return kind(raw)


def load_config(path):
    from .tensor import ConfigError

    conf = dict(DEFAULTS)
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from e
    seen = {}  # key -> the line that set it
    for ln_no, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln_no}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{ln_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{ln_no}: key {key!r} repeated (first set on line "
                              f"{seen[key]})")
        seen[key] = ln_no
        try:
            conf[key] = _parse_value(key, raw)
        except ValueError as e:
            raise ConfigError(f"{path}:{ln_no}: bad value for {key}: {e}") from e
    return conf


def with_flags(conf, args):
    """``conf`` with each override flag of ``args`` that was given (its dest
    a config key, its value not None) set."""
    return {**conf, **{k: v for k, v in vars(args).items() if k in SCHEMA and v is not None}}


def dump_config(conf):
    return "".join(f"{k} = {str(conf[k]).lower() if isinstance(conf[k], bool) else conf[k]}\n"
                   for k in SCHEMA)


def _parse_blocks(key, text):
    """'2x8x8;2x8x8' -> [(2, 8, 8), (2, 8, 8)]; empty text -> None (derived)."""
    from .tensor import ConfigError

    if not text:
        return None
    out = []
    try:
        for part in text.split(";"):
            dims = tuple(int(x) for x in part.strip().split("x"))
            if len(dims) != 3:
                raise ValueError(f"block {part!r} is not TxHxW")
            out.append(dims)
    except ValueError as e:
        raise ConfigError(f"bad {key}: {e}") from e
    return out


def model_config_from(conf):
    """The file's model keys, passed unresolved to ``model.build_variant``."""
    from . import model as M

    def axes(key):
        return tuple(conf[f"{key}_{axis}"] for axis in "thw")

    same = ("preset", "n_heads", "d_head", "layers", "channels", "head",
            "first_slice_decoder", "first_slice_layers")
    return M.build_variant(
        conf["variant"], axes("video"), s=axes("subscale"), kernel=axes("kernel"),
        d_e=conf["d_embed"], d=conf["d_model"], mconv=(conf["mconv"],) * 3,
        enc_blocks=_parse_blocks("enc_blocks", conf["enc_blocks"]),
        dec_blocks=_parse_blocks("dec_blocks", conf["dec_blocks"]),
        seed=conf["model_seed"], **{key: conf[key] for key in same})


def train_config_from(conf, args):
    """The file's training keys, with the flags of ``args`` applied
    (``with_flags``), as a TrainConfig."""
    from .optim import TrainConfig

    conf = with_flags(conf, args)
    return TrainConfig(**{f.name: conf[f.name] for f in dataclasses.fields(TrainConfig)})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args):
    from .data import gen_sprites, write_container

    videos = gen_sprites(args.frames, args.height, args.width, args.videos,
                         n_sprites=args.sprites, sprite_size=args.sprite_size,
                         vel_max=args.vel_max, channels=1 if args.gray else 3,
                         seed=args.seed)
    write_container(args.out, videos)
    print(f"wrote {len(videos)} videos "
          f"({args.frames}x{args.height}x{args.width}x{1 if args.gray else 3}) to {args.out}")
    return EXIT_OK


def _cmd_import_raw(args):
    from .data import import_raw, write_container

    videos = import_raw(args.raw, args.frames, args.height, args.width,
                        args.channels)
    write_container(args.out, videos)
    print(f"imported {len(videos)} videos from {args.raw} to {args.out}")
    return EXIT_OK


_OUTPUT_ARGS = ("out", "out_ckpt", "log", "ppm")  # every flag that names a file to write


def _check_output_dirs(paths):
    """Raise DataError naming the first given path whose directory does not
    exist, so that a command fails before its work rather than after."""
    from .data import DataError

    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"cannot write {path}: no directory {os.path.dirname(path)}")


def _load_for(args):
    conf = with_flags(load_config(args.config), args)
    return conf, model_config_from(conf)


def _cmd_train(args):
    from . import optim
    from .data import read_container

    conf, cfg = _load_for(args)
    videos = read_container(args.data)
    tcfg = train_config_from(conf, args)
    params = opt = None
    start = 0
    if args.resume:
        params, opt, start = optim.load_training_checkpoint(args.resume, cfg)

    def log_fn(rec):
        line = optim.LOG_FORMAT % rec
        print(line)
        if args.log:
            with open(args.log, "a") as f:
                f.write(line + "\n")

    params, opt, records = optim.train(cfg, tcfg, videos, params=params, opt=opt,
                                       start_step=start, ckpt_path=args.out_ckpt,
                                       log_fn=log_fn)
    if records:
        print(f"finished at step {records[-1][0]} bits_per_dim={records[-1][3]!r}")
    return EXIT_OK


def _cmd_eval(args):
    from . import metrics, model as M
    from .data import read_container

    conf, cfg = _load_for(args)
    _, params = M.load_trained(args.ckpt, cfg)
    videos = read_container(args.data)
    result = metrics.evaluate(params, cfg, videos, conf["prime_frames"])
    text = (result.as_json() if args.json else "\n".join(result.lines())) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return EXIT_OK


def _cmd_sample(args):
    from . import model as M
    from .data import read_container, write_container, write_ppm_frames
    from .sampler import SampleConfig, sample_video
    from .tensor import ConfigError

    conf, cfg = _load_for(args)
    _, params = M.load_trained(args.ckpt, cfg)
    primes = read_container(args.prime_video)
    if not primes:
        raise ConfigError(f"{args.prime_video} holds no videos to prime samples with")
    scfg = SampleConfig(prime_frames=conf["prime_frames"], temperature=conf["temperature"],
                        seed=conf["sample_seed"])
    count = conf["sample_count"]
    if count < 0:
        raise ConfigError(f"sample count must not be negative, got {count}")
    outputs = []
    for i in range(count):
        video, _split = sample_video(params, cfg, primes[i % len(primes)], scfg,
                                     video_index=i)
        outputs.append(video)
    write_container(args.out, outputs)
    if args.ppm:
        for i, v in enumerate(outputs):
            write_ppm_frames(f"{args.ppm}_{i:03d}", v)
    print(f"wrote {len(outputs)} sampled videos to {args.out}")
    return EXIT_OK


def _cmd_analyze(args):
    from .connectivity import report_text

    _, cfg = _load_for(args)
    text = report_text(cfg.slice_shape, cfg.dec_schedule, cfg.mconv,
                       enc_schedule=cfg.enc_schedule, max_pairs=args.max_blind,
                       stack=args.stack)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="svt",
        description="Train, evaluate, sample and analyze subscale video models.")
    parser.add_argument("--threads", type=_thread_count, default=None,
                        help="BLAS thread count, a positive integer (1 = reproducibility "
                             "reference); SVT_THREADS is the fallback")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic bouncing-sprite dataset")
    g.add_argument("--out", required=True, help="output container path")
    g.add_argument("--videos", type=int, default=4, help="number of videos")
    g.add_argument("--frames", type=int, default=16, help="frames per video")
    g.add_argument("--height", type=int, default=64, help="frame height")
    g.add_argument("--width", type=int, default=64, help="frame width")
    g.add_argument("--sprites", type=int, default=2, help="sprites per video")
    g.add_argument("--sprite-size", type=int, default=3, help="square sprite side")
    g.add_argument("--vel-max", type=int, default=1, help="max |velocity| component")
    g.add_argument("--gray", action="store_true", help="grayscale instead of RGB")
    g.add_argument("--seed", type=int, default=0, help="generator seed")
    g.set_defaults(fn=_cmd_gen_data)

    i = sub.add_parser("import-raw",
                       help="wrap a raw uint8 video file into a container")
    i.add_argument("--raw", required=True, help="raw bytes, N stacked videos")
    i.add_argument("--out", required=True, help="output container path")
    i.add_argument("--frames", type=int, required=True)
    i.add_argument("--height", type=int, required=True)
    i.add_argument("--width", type=int, required=True)
    i.add_argument("--channels", type=int, default=3, choices=[1, 3])
    i.set_defaults(fn=_cmd_import_raw)

    t = sub.add_parser("train", help="train a model on a video container")
    t.add_argument("--config", required=True, help="flat key=value config file")
    t.add_argument("--data", required=True, help="training container")
    t.add_argument("--out-ckpt", required=True, help="checkpoint output path")
    t.add_argument("--steps", type=SCHEMA["steps"][0], help="override config steps")
    t.add_argument("--log", default=None, help="append metrics log here")
    t.add_argument("--resume", default=None, help="resume from this checkpoint")
    t.add_argument("--dump-config", action="store_true", help="echo config and exit")
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="bits/dim or nats/frame on a container")
    e.add_argument("--config", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--prime", dest="prime_frames", type=SCHEMA["prime_frames"][0],
                   help="primed frame count")
    e.add_argument("--out", default=None, help="also write the report here")
    e.add_argument("--json", action="store_true",
                   help="report as one JSON object, with bits/dim per slice rank")
    e.add_argument("--dump-config", action="store_true", help="echo config and exit")
    e.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("sample", help="generate videos from a checkpoint")
    s.add_argument("--config", required=True)
    s.add_argument("--ckpt", required=True)
    s.add_argument("--prime-video", required=True, help="container with priming videos")
    s.add_argument("--prime-frames", type=SCHEMA["prime_frames"][0])
    s.add_argument("--temperature", type=SCHEMA["temperature"][0])
    s.add_argument("--seed", dest="sample_seed", type=SCHEMA["sample_seed"][0])
    s.add_argument("--count", dest="sample_count", type=SCHEMA["sample_count"][0],
                   help="number of samples")
    s.add_argument("--out", required=True, help="output container path")
    s.add_argument("--ppm", default=None, help="also dump frames with this prefix")
    s.add_argument("--dump-config", action="store_true", help="echo config and exit")
    s.set_defaults(fn=_cmd_sample)

    a = sub.add_parser("analyze", help="connectivity and blind spots of the schedules")
    a.add_argument("--config", required=True)
    a.add_argument("--stack", default="both", choices=["encoder", "decoder", "both"])
    a.add_argument("--max-blind", type=lambda text: _int_at_least(text, 0), default=16,
                   help="blind pairs to list, a non-negative integer")
    a.add_argument("--out", default=None, help="also write the report here")
    a.add_argument("--dump-config", action="store_true", help="echo config and exit")
    a.set_defaults(fn=_cmd_analyze)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _pin_threads(args.threads)
    except argparse.ArgumentTypeError as e:
        print(f"error[config]: SVT_THREADS: {e}", file=sys.stderr)
        return EXIT_CONFIG

    import numpy as np

    from .data import DataError
    from .tensor import ConfigError, NumericError

    try:
        if getattr(args, "dump_config", False):
            sys.stdout.write(dump_config(with_flags(load_config(args.config), args)))
            return EXIT_OK
        _check_output_dirs(getattr(args, name, None) for name in _OUTPUT_ARGS)
        # an overflow is reported once, by the non-finite check where it lands
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ConfigError as e:
        print(f"error[config]: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"error[numeric]: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
