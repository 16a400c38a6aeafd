"""The benchmark's calls into the package still bind to the package's signatures.

``perfbench/workloads.py`` and ``perfbench/selfcheck.py`` call the package by
attribute (``train_mod.adam_step(...)``), through names bound to such
attributes (``real_loss = train_mod.cross_entropy_loss``) and as methods of
a model (``model.forward(...)``). A call that no longer binds fails the
benchmark only when it runs, and in selfcheck's planted defects a TypeError
would fail the output check as the defect should, for the wrong reason.
Each call is read from the source and bound, with placeholder arguments,
to the signature of what it calls. A ``**self.name`` argument stands for
the keys of the ``dict(...)`` that its class assigns to ``name``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from actionseg.autodiff import Tape
from actionseg.data import Dataset
from actionseg.model import Model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "selfcheck.py")
# methods called on a local of this name, in both files
RECEIVERS = {"model": Model, "dataset": Dataset, "tape": Tape}


def _module_of(node, modules):
    """The actionseg module that ``node`` evaluates to, if it is a known alias of one."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module" and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("actionseg")):
        return importlib.import_module(node.args[0].value)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "workloads":
        return _WORKLOAD_MODULES.get(node.attr)
    return None


def _label(fn) -> str:
    return f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"


def _target_of(node, modules, functions):
    """The package callable that ``node`` names, as an attribute or a name bound to one, else None."""
    if isinstance(node, ast.Name):
        return functions.get(node.id)
    if isinstance(node, ast.Attribute):
        module = _module_of(node.value, modules)
        if module is not None:
            return getattr(module, node.attr)
    return None


def _aliases(tree):
    """Module aliases and function aliases that the file's assignments make."""
    modules, functions = {}, {}
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
            else:
                pairs.append((target, value))
    for target, value in pairs:  # the module aliases first: function aliases read them
        module = _module_of(value, modules) if isinstance(target, ast.Name) else None
        if module is not None:
            modules[target.id] = module
    for target, value in pairs:
        found = _target_of(value, modules, {}) if isinstance(target, ast.Name) else None
        if callable(found):
            functions[target.id] = found
    return modules, functions


def _spread_keys(tree):
    """Call node -> {attribute: keys} of the ``dict(...)`` literals its class assigns."""
    spreads = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        keys = {}
        for node in ast.walk(cls):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "dict"):
                target = node.targets[0]
                attr = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                keys[attr] = [k.arg for k in node.value.keywords]
        for node in ast.walk(cls):
            if isinstance(node, ast.Call):
                spreads[node] = keys
    return spreads


def _calls(name):
    """(label, callable, bound self or None, keyword names, call node) per package call in one file."""
    tree = ast.parse((PERFBENCH / name).read_text(), filename=name)
    modules, functions = _aliases(tree)
    spreads = _spread_keys(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, receiver = _target_of(node.func, modules, functions), None
        if (fn is None and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in RECEIVERS):
            fn, receiver = getattr(RECEIVERS[node.func.value.id], node.func.attr), object()
        if fn is None:
            continue
        keywords = []
        for k in node.keywords:
            if k.arg is not None:
                keywords.append(k.arg)
            else:  # **self.name, spelled out from its class's dict(...), or unreadable
                spread = spreads.get(node, {}).get(getattr(k.value, "attr", None))
                keywords += spread if spread is not None else [None]
        found.append((_label(fn), fn, receiver, keywords, node))
    return found


_WORKLOAD_MODULES = _aliases(ast.parse((PERFBENCH / "workloads.py").read_text()))[0]
CALLS = [(name, *call) for name in FILES for call in _calls(name)]


@pytest.mark.parametrize("name, label, fn, receiver, keywords, node", CALLS,
                         ids=[f"{c[0]}:{c[5].lineno}:{c[1]}" for c in CALLS])
def test_a_benchmark_call_binds_to_the_package_signature(name, label, fn, receiver, keywords, node):
    where = f"perfbench/{name}:{node.lineno}: {ast.unparse(node)}"
    assert not any(isinstance(a, ast.Starred) for a in node.args), f"{where}: *args cannot be checked"
    assert None not in keywords, f"{where}: a ** argument whose keys cannot be read"
    args = [object()] * len(node.args)
    if receiver is not None:
        args.insert(0, receiver)
    try:
        inspect.signature(fn).bind(*args, **{k: object() for k in keywords})
    except TypeError as exc:
        pytest.fail(f"{where} does not bind to {label}{inspect.signature(fn)}: {exc}")


def test_the_guard_sees_the_calls_the_benchmark_depends_on():
    # an alias the reader no longer resolves would drop calls without a failure
    seen = {(name, label) for name, label, *_ in CALLS}
    assert {("workloads.py", label) for label in (
        "train.cross_entropy_loss", "train.predict", "train.AdamState", "train.adam_step",
        "train.train", "train.finite_difference_report", "autodiff.finite_diff_check",
        "model.Model.forward", "model.ModelConfig", "model.build", "model.load_checkpoint",
        "data.load_dataset", "metrics.evaluate")} <= seen
    assert {("selfcheck.py", label) for label in (
        "train.cross_entropy_loss", "train.predict", "layers.conv1d_same")} <= seen
