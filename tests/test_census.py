"""Censuses of the program: code that only tests reach belongs in
``tests/helpers.py``, not in ``src/svt``.

Parameters, statically: every defaulted parameter of a public ``svt``
function, and of ``Tensor.__init__``, is passed by some call in ``src/svt``
or ``perfbench/``; a default that no program call overrides is a setting
that only tests use.  ``ALLOWED_DEFAULTS`` lists the exceptions, each with
its reason.

Statements, by tracing: every statement inside a function of ``svt`` runs
in ``traffic``, a fixed table of ``svt`` commands on tiny data that uses
every shipped feature, apart from the statements ``is_exempt`` names (error
paths and statements that compile to nothing) and those ``ALLOWED`` lists,
each with its reason.
"""

import ast
import sys
from pathlib import Path

import numpy as np

import svt
from svt import cli
from svt.model import build_variant
from test_cli import tiny_config_with

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "svt"
IMPORTED = Path(svt.__file__).resolve().parent  # the package the statement census traces
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED_DEFAULTS = {
    ("cli", "main", "argv"): "the entry point: the console script calls main()",
    ("model", "forward_slices", "onehots"): "the causality suite's gradient seam",
}


def defaulted_parameters():
    """{(module, function, parameter): position, or None if keyword-only}
    of every defaulted parameter of a public module-level function of
    ``svt``, and of ``Tensor.__init__`` under the name ``Tensor``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and node.name == "Tensor":
                functions = [("Tensor", f, 1) for f in node.body
                             if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            else:
                continue
            for name, fn, skip in functions:
                positional = (fn.args.posonlyargs + fn.args.args)[skip:]
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out[(path.stem, name, arg.arg)] = i
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        out[(path.stem, name, arg.arg)] = None
    return out


def splat_keys(value, tuples):
    """The keywords a ``**value`` argument passes: the keys of a dict
    comprehension over a tuple of strings named in ``tuples``, or None
    (any keyword) for any other splat."""
    if isinstance(value, ast.DictComp) and len(value.generators) == 1:
        it = value.generators[0].iter
        if isinstance(it, ast.Name) and it.id in tuples:
            return tuples[it.id]
    return None


def program_calls():
    """(callee name, positional count or None for a ``*`` splat, keyword
    names or None for an unresolved ``**`` splat) of every call in the
    program."""
    calls = []
    for path in PROGRAM:
        body = ast.parse(path.read_text()).body
        functions = [n for n in body if isinstance(n, ast.FunctionDef)]
        rest = ast.Module([n for n in body if not isinstance(n, ast.FunctionDef)], [])
        for scope in functions + [rest]:  # a top-level function, or the rest of the module
            nodes = list(ast.walk(scope))
            tuples = {node.targets[0].id: {e.value for e in node.value.elts} for node in nodes
                      if isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)
                      and isinstance(node.value, ast.Tuple)
                      and all(isinstance(e, ast.Constant) for e in node.value.elts)}
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                n_pos = (None if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                keywords = set()
                for k in node.keywords:
                    keys = {k.arg} if k.arg is not None else splat_keys(k.value, tuples)
                    keywords = None if keys is None or keywords is None else keywords | keys
                calls.append((name, n_pos, keywords))
    return calls


def test_every_optional_parameter_is_set_by_the_program():
    params = defaulted_parameters()
    assert len(params) > 20 and ("model", "init_params", "head_init") in params
    passed = set()
    for name, n_pos, keywords in program_calls():
        for key, position in params.items():
            if key[1] != name:
                continue
            by_position = position is not None and (n_pos is None or n_pos > position)
            if by_position or keywords is None or key[2] in keywords:
                passed.add(key)
    assert sorted(set(params) - passed - set(ALLOWED_DEFAULTS)) == []
    # the allowlist holds only parameters that still exist and no program call sets
    assert sorted(set(ALLOWED_DEFAULTS) - (set(params) - passed)) == []


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

# (module, function, statement label) -> reason; a label of None is the
# whole function (for a property, its getter and setter)
ALLOWED = {
    ("tensor", "Tensor._backward", None): "perfbench's tracer wraps each op's closure",
    ("sampler", "_position_stream", None): "perfbench's replay redraws through the streams",
    ("sampler", "sample_categorical", None): "perfbench's replay check draws through it",
    ("tensor", "_sweep", "if node in visited: continue"):
        "a general DAG can push a node twice; the model's graphs never do",
}

# name -> the lines that replace TINY_CONFIG's lines for their keys
VARIANTS = {
    "rgb": "",
    "resumed": "steps = 4\nckpt_every = 1",
    "gray": "channels = gray\nhead = deterministic\nstop_bits_per_dim = 100\nstop_window = 1",
    "first-slice": "first_slice_layers = 1\ntemperature = 0.00001",  # argmax draws
    "spatial": "variant = spatial\nsubscale_t = 0\nkernel_t = 0",
    "derived": "enc_blocks =\ndec_blocks =\nlayers = 3",
    "single-frame": "variant = single_frame\nsubscale_t = 0\nsubscale_h = 0\nsubscale_w = 0\n"
                    "kernel_t = 0\nkernel_h = 0\nkernel_w = 0\nenc_blocks =\ndec_blocks =\n"
                    "layers = 1",
    "large": "preset = large\nd_model = 16\nenc_blocks =\ndec_blocks =\nlayers = 5",
    "disconnected": "subscale_t = 1\nenc_blocks = 2x2x2;2x2x2",
}


def traffic(tmp):
    """The argument lists of the traffic, in order: each command writes
    what later ones read under ``tmp``, where ``<name>.cfg`` is the config
    of ``VARIANTS[name]`` and ``gray4.bin`` holds two 4x8x8 gray videos."""
    rgb, gray = tmp / "rgb.svt", tmp / "gray.svt"
    runs = [
        ["gen-data", "--out", rgb, "--videos", 2, "--frames", 4, "--height", 8, "--width", 8],
        # six frames, which training crops to the config's four
        ["gen-data", "--out", gray, "--videos", 2, "--frames", 6, "--height", 8, "--width", 8,
         "--gray", "--seed", 1],
        ["import-raw", "--raw", tmp / "gray4.bin", "--out", tmp / "gray4.svt", "--frames", 4,
         "--height", 8, "--width", 8, "--channels", 1],
        ["--threads", 1, "train", "--config", tmp / "rgb.cfg", "--data", rgb,
         "--out-ckpt", tmp / "rgb.ckpt", "--log", tmp / "rgb.log"],
        ["train", "--config", tmp / "resumed.cfg", "--data", rgb, "--out-ckpt",
         tmp / "resumed.ckpt", "--resume", tmp / "rgb.ckpt", "--log", tmp / "rgb.log"],
        ["eval", "--config", tmp / "rgb.cfg", "--ckpt", tmp / "rgb.ckpt", "--data", rgb,
         "--json", "--out", tmp / "eval.json"],
        ["sample", "--config", tmp / "rgb.cfg", "--ckpt", tmp / "rgb.ckpt", "--prime-video", rgb,
         "--count", 2, "--out", tmp / "sampled.svt", "--ppm", tmp / "frame"],
        # three of four frames primed: the slices of even frames are all primed
        ["sample", "--config", tmp / "rgb.cfg", "--ckpt", tmp / "rgb.ckpt", "--prime-video", rgb,
         "--prime-frames", 3, "--out", tmp / "primed.svt"],
        ["train", "--config", tmp / "gray.cfg", "--data", gray, "--out-ckpt", tmp / "gray.ckpt"],
        ["eval", "--config", tmp / "gray.cfg", "--ckpt", tmp / "gray.ckpt",
         "--data", tmp / "gray4.svt"],
        ["sample", "--config", tmp / "gray.cfg", "--ckpt", tmp / "gray.ckpt",
         "--prime-video", tmp / "gray4.svt", "--out", tmp / "gray-sampled.svt"],
    ]
    for name in ("first-slice", "spatial", "derived"):
        config, ckpt = tmp / f"{name}.cfg", tmp / f"{name}.ckpt"
        runs += [["train", "--config", config, "--data", rgb, "--out-ckpt", ckpt],
                 ["eval", "--config", config, "--ckpt", ckpt, "--data", rgb, "--prime", 0],
                 ["sample", "--config", config, "--ckpt", ckpt, "--prime-video", rgb,
                  "--out", tmp / f"{name}.svt"]]
    for stack, blind in (("both", 0), ("encoder", 4), ("decoder", 100000)):
        runs += [["analyze", "--config", tmp / "rgb.cfg", "--stack", stack,
                  "--max-blind", blind, "--out", tmp / "analysis.txt"]]
    for name in ("single-frame", "large", "disconnected"):
        runs += [["analyze", "--config", tmp / f"{name}.cfg"]]
    for shipped in sorted((ROOT / "configs").glob("*.cfg")):
        runs += [["analyze", "--config", shipped, "--max-blind", 100000],
                 ["train", "--config", shipped, "--data", rgb, "--out-ckpt", tmp / "x.ckpt",
                  "--dump-config", "--steps", 3]]
    return [[str(a) for a in argv] for argv in runs]


def is_exempt(stmt, index):
    """A ``raise``, a ``global`` or ``nonlocal`` (no code), a function's
    docstring (``index`` is the statement's place in its block), or an
    ``if`` (or ``elif``) whose body only raises: it ends in ``raise`` and
    holds no ``return``, ``break`` or ``continue``."""
    return (isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal))
            or (index == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str))
            or (isinstance(stmt, ast.If) and isinstance(stmt.body[-1], ast.Raise)
                and not any(isinstance(node, (ast.Return, ast.Break, ast.Continue))
                            for part in stmt.body for node in ast.walk(part))))


def function_statements(path):
    """[(function, label, lines)] for every statement inside a function of
    ``path`` that is not exempt, outside ``except`` handlers.  ``function``
    is the qualified name (``Class.method``, ``outer.inner``), ``label``
    the statement's first line, after that of the statement whose block
    holds it, and ``lines`` the lines on which running it shows: its header
    for a compound statement (from its first decorator), all of it
    otherwise.  The ``else`` of an exempt ``if`` is still walked."""
    source = path.read_text()
    text = [line.strip() for line in source.splitlines()]
    out = []

    def walk(block, function, outer):
        for i, stmt in enumerate(block):
            if is_exempt(stmt, i):
                walk(getattr(stmt, "orelse", []), function, outer)
                continue
            label = f"{outer} {text[stmt.lineno - 1]}".strip()
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            body = getattr(stmt, "body", None)
            last = max(first, body[0].lineno - 1) if body else stmt.end_lineno
            out.append((function, label, range(first, last + 1)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                walk(stmt.body, f"{function}.{stmt.name}", "")
            else:
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, field, []), function, text[stmt.lineno - 1])

    def scan(block, prefix):
        for node in block:
            if isinstance(node, ast.FunctionDef):
                walk(node.body, prefix + node.name, "")
            elif isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")

    scan(ast.parse(source).body, "")
    return out


def traced_lines(fn):
    """{(file, line)} of every line run in a frame of ``svt`` while ``fn()``
    runs."""
    prefix = f"{IMPORTED}/"
    seen = set()

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(before)
    return seen


def test_every_statement_runs_in_the_traffic(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:  # --threads sets them
        monkeypatch.delenv(var, raising=False)
    for name, edit in VARIANTS.items():
        (tmp_path / f"{name}.cfg").write_text(tiny_config_with(edit))
    rng = np.random.default_rng(0)
    (tmp_path / "gray4.bin").write_bytes(rng.integers(0, 256, 2 * 4 * 8 * 8, np.uint8).tobytes())
    for module in [m for name, m in sys.modules.items() if name.startswith("svt.")]:
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):  # a cached body runs once per geometry
                fn.cache_clear()
    codes = []

    def run():
        assert svt.build_variant is build_variant  # the package's lazy names
        for argv in traffic(tmp_path):
            codes.append((cli.main(argv), argv))

    seen = traced_lines(run)
    assert [argv for code, argv in codes if code != 0] == []
    unrun = {}  # (module, function) -> labels of the statements that did not run
    ran = set()
    for path in sorted(IMPORTED.glob("*.py")):
        for function, label, lines in function_statements(path):
            key = (path.stem, function)
            if any((str(path), n) in seen for n in lines):
                ran.add(key)
            else:
                unrun.setdefault(key, []).append(label)
    allowed = {(m, f) for m, f, label in ALLOWED if label is None}
    missed = sorted((m, f, label) for (m, f), labels in unrun.items() for label in labels
                    if (m, f) not in allowed and (m, f, label) not in ALLOWED)
    assert missed == []
    # the allowlist holds only what still exists and still does not run
    def still_unrun(module, function, label):
        if label is None:
            return (module, function) in unrun and (module, function) not in ran
        return label in unrun.get((module, function), [])

    assert [key for key in ALLOWED if not still_unrun(*key)] == []
