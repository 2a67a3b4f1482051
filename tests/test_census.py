"""Static census of optional parameters.

Every defaulted parameter of a public ``svt`` function, and of
``Tensor.__init__``, is passed by some call in ``src/svt`` or
``perfbench/``: a default that no program call overrides is a setting that
only tests use, and such forms belong in ``tests/helpers.py``.  ``ALLOWED``
lists the exceptions, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "svt"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
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
    assert sorted(set(params) - passed - set(ALLOWED)) == []
    # the allowlist holds only parameters that still exist and no program call sets
    assert sorted(set(ALLOWED) - (set(params) - passed)) == []
