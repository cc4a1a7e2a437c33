"""Every name a `storyforge` module imports is used in that module, no
`storyforge` module imports the benchmark, only the small `tensor`
primitives and the three recurrence nodes build graph nodes of their own
(with a hand-written backward), only `model` pads, encodes and attends over
albums, and only the functions in `ERRSTATE_CALLERS` set numpy's float-fault
rule."""

import ast
from pathlib import Path

import pytest

import storyforge

MODULES = sorted(Path(storyforge.__file__).parent.glob("*.py"))
# perfbench and the modules it puts on the path when it runs
BENCHMARK_MODULES = {"perfbench", "spans", "layers", "workloads", "speed"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads; a name
    listed in `__all__` counts as read (a package re-export)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    src = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(src) == ["line 1: field"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def benchmark_imports(source: str) -> list[str]:
    """Absolute imports of the benchmark package or of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names
                  if n.split(".")[0] in BENCHMARK_MODULES]
    return found


def test_checker_flags_a_benchmark_import():
    assert benchmark_imports("import perfbench.layers\n") == ["line 1: perfbench.layers"]
    assert benchmark_imports("import os\nfrom spans import Tracer\n") == [
        "line 2: spans"]
    assert benchmark_imports("from . import layers\nimport speedy\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_benchmark_imports(path):
    assert benchmark_imports(path.read_text(encoding="utf-8")) == []


# the functions that may call `_make`, by module: the tensor primitives and
# the recurrence nodes; everything else composes them
MAKE_CALLERS = {
    "tensor": {"add", "mul", "matmul", "sigmoid", "tanh", "relu", "concat", "arr_sum",
               "reshape", "pick", "assemble", "masked_softmax", "log_softmax",
               "gru_scan"},
    "scene_encoder": {"encode_scenes"},
    "decoder": {"attend_scan"},
}


# the functions that may pad, encode and attend, by module: `batch_z`, the
# one path from albums to attended vectors, the scene views, which need no
# attention, and `encode_album`'s own padding of a lone album
PIPELINE_CALLEES = {"attend_scan", "encode_album", "pad_steps"}
PIPELINE_CALLERS = {"model": {"batch_z", "scene_views", "encode_album"}}


def stray_calls(source: str, callees: set, allowed: set) -> list[str]:
    """Calls (bare or as an attribute) of the functions named in `callees`
    outside the top-level functions named in `allowed`."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and callees & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                where = getattr(top, "name", "module")
                if where not in allowed:
                    found.append(f"line {node.lineno}: {where}")
    return found


def test_checker_flags_a_stray_make_call():
    src = ("def add(a, b):\n    return _make(a, (), None)\n\n"
           "def cell(x):\n    def bw(g):\n        pass\n    return T._make(x, (), bw)\n")
    assert stray_calls(src, {"_make"}, {"add"}) == ["line 7: cell"]
    assert stray_calls(src, {"_make"}, {"add", "cell"}) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_hand_written_backwards_only_in_primitives_and_recurrence_nodes(path):
    assert stray_calls(path.read_text(encoding="utf-8"), {"_make"},
                       MAKE_CALLERS.get(path.stem, set())) == []


def test_checker_flags_a_stray_pipeline_call():
    src = ("from .decoder import attend_scan\n\n"
           "def step(e, n, ps):\n    return attend_scan(e.memory, e.valid_mask, e.init_state,"
           " n, ps)\n\n"
           "def views(albums):\n    return M.pad_steps([a.features for a in albums])\n")
    assert stray_calls(src, PIPELINE_CALLEES, set()) == ["line 4: step", "line 7: views"]
    assert stray_calls(src, PIPELINE_CALLEES, {"step", "views"}) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_model_pads_encodes_and_attends(path):
    assert stray_calls(path.read_text(encoding="utf-8"), PIPELINE_CALLEES,
                       PIPELINE_CALLERS.get(path.stem, set())) == []


# the functions that set numpy's float-fault rule, by module, with the rules
# each sets: a training stage, the CLI and the fitted estimator's methods
# raise on any overflow or invalid value, the synthetic data on a feature
# beyond the float range, and Adam ignores both while it fills its buffers,
# which it checks before it commits
RAISE = {"over": "raise", "invalid": "raise"}
ERRSTATE_CALLERS = {
    "trainer": {"_run_stage": [RAISE]},
    "cli": {"main": [RAISE]},
    "estimator": {f"AlbumStoryteller.{method}": [RAISE]
                  for method in ("predict", "transform", "score")},
    "data": {"synth_dataset": [{"over": "raise"}]},
    "tensor": {"Adam.step": [{"over": "ignore", "invalid": "ignore"}]},
}


def errstate_rules(source: str) -> dict:
    """The rules of the `np.errstate` calls, as a decorator or a `with`, by
    the function that holds them (`name`, `Class.name` or `outer.inner`)."""
    rules = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "errstate" in {
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)}:
                rules.setdefault(where or "module", []).append(
                    {k.arg: ast.literal_eval(k.value) for k in child.keywords})
            # a decorator's call counts as its function's
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}".lstrip(".") if named else where)

    visit(ast.parse(source), "")
    return rules


def test_checker_reads_each_rule_where_it_is_set():
    src = ("import numpy as np\n\n"
           "@np.errstate(over='ignore')\n"
           "def run():\n"
           "    def inner():\n"
           "        with errstate(invalid='raise'):\n"
           "            pass\n\n"
           "class Opt:\n"
           "    def step(self):\n"
           "        with np.errstate(over='ignore', invalid='ignore'), open('f'):\n"
           "            pass\n")
    assert errstate_rules(src) == {"run": [{"over": "ignore"}],
                                   "run.inner": [{"invalid": "raise"}],
                                   "Opt.step": [{"over": "ignore", "invalid": "ignore"}]}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_float_fault_rules_only_where_listed(path):
    assert errstate_rules(path.read_text(encoding="utf-8")) == \
        ERRSTATE_CALLERS.get(path.stem, {})
