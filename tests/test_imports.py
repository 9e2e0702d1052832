"""Import hygiene, checked on the source with ``ast`` (no linter needed).

Every name a ``spikefusion`` module imports is used in that module, every
private module-level name is read in its own module, and every name the
package ``__init__`` imports is exported in ``__all__``.  Every error type
is raised somewhere and is one that the CLI reports as one line.  Grad
mode alone picks batch-norm statistics: no function takes a ``train``
flag, and only ``BatchNorm.moments`` reads the grad-mode switch outside
``tensor``.  No ``record_*`` call outside the module-level fusion functions
names its ledger row by a string literal.
"""

import ast
import os

import pytest

from spikefusion import errors

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "spikefusion")
MODULES = sorted(f[:-3] for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")
# (module, name) imported for a caller outside the module to look up there
REEXPORTED = {("model", "infonce_pair")}  # perfbench wraps it in model


def parse(module):
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def imported_names(tree):
    """Names bound by the module's imports, ``from __future__`` excluded."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def used_names(tree):
    """Names read anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for ann in filter(None, annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr)
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = parse(module)
    unused = [name for name in imported_names(tree)
              if name not in used_names(tree)
              and (module, name) not in REEXPORTED]
    assert unused == []


def private_names(tree):
    """``_``-prefixed functions, classes and assignments at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    tree = parse(module)
    assert [n for n in private_names(tree) if n not in used_names(tree)] == []


def test_package_exports_every_import():
    tree = parse("__init__")
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and node.targets[0].id == "__all__")
    assert [n for n in imported_names(tree) if n not in exported] == []
    assert sorted(exported) == exported


def test_every_error_type_is_raised_and_reported():
    classes = [node.name for node in parse("errors").body
               if isinstance(node, ast.ClassDef)]
    raised = {node.exc.func.id for module in MODULES
              for node in ast.walk(parse(module))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    assert [name for name in classes if name not in raised] == []
    # cli.main catches ValueError and StateError, not every Exception
    assert [name for name in classes
            if not issubclass(getattr(errors, name), ValueError)
            and getattr(errors, name) is not errors.StateError] == []


def functions(tree, prefix=""):
    """Yield (qualified name, node) for every function, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_function_takes_a_train_flag(module):
    takes = [name for name, node in functions(parse(module))
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
             and arg.arg == "train"]
    assert takes == []


def grad_mode_reads(tree):
    """How many times ``tree`` reads ``_grad_enabled`` (imports excluded)."""
    return sum(isinstance(n, ast.Name) and n.id == "_grad_enabled"
               or isinstance(n, ast.Attribute) and n.attr == "_grad_enabled"
               for n in ast.walk(tree))


def test_grad_mode_is_read_only_where_it_picks_norm_statistics():
    moments = dict(functions(parse("layers")))["BatchNorm.moments"]
    assert grad_mode_reads(moments) > 0
    reads = {module: grad_mode_reads(parse(module))
             for module in MODULES + ["__init__"] if module != "tensor"}
    assert reads == {module: grad_mode_reads(moments) * (module == "layers")
                     for module in reads}


def test_ledger_rows_are_named_by_model_path():
    """Only the module-level fusion functions name a ledger row by a string
    literal; every other name derives from a block's ``path``."""
    literal = {(module, name) for module in MODULES
               for name, node in functions(parse(module))
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name)
               and call.func.id in ("record_matmul", "record_mask")
               and isinstance(call.args[0], (ast.Constant, ast.JoinedStr))}
    assert literal == {("fusion", "comb_mask"), ("fusion", "qkv_attention")}
