"""Every name a `storyforge` module imports is used in that module, no
`storyforge` module imports the benchmark, only the small `tensor`
primitives and the three recurrence nodes build graph nodes of their own
(with a hand-written backward), only `model` pads, encodes and attends over
albums, only the functions in `ERRSTATE_CALLERS` set numpy's float-fault
rule or apply `tensor.float_faults`, no module writes into a gradient in
place, every number field of a config dataclass declares its kind of
setting (`data.Size`, `Count` or `Weight`) unless `UNRANGED` names it, and
only `tensor.step_lengths` checks the step counts of a padded batch."""

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
               "reshape", "pick", "assemble", "masked_softmax", "target_log_probs",
               "gru_scan"},
    "scene_encoder": {"encode_scenes"},
    "decoder": {"attend_scan"},
}


# the functions that may pad, encode and attend, by module: `batch_z`, the
# one path from albums to every batch result (attended vectors, encodings
# and alphas), and `encode_album`'s own padding of a lone album
PIPELINE_CALLEES = {"attend_scan", "encode_album", "pad_steps"}
PIPELINE_CALLERS = {"model": {"batch_z", "encode_album"}}


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
# each sets: `tensor.float_faults` raises on any overflow or invalid value,
# and inference, the scene views, the gradient check and a training stage
# apply it (FAULTS); the synthetic data raises on a feature beyond the float
# range, and Adam ignores both while it fills its buffers, which it checks
# before it commits
RAISE = {"over": "raise", "invalid": "raise"}
FAULTS = "float_faults"
ERRSTATE_CALLERS = {
    "tensor": {"float_faults": [RAISE],
               "Adam.step": [{"over": "ignore", "invalid": "ignore"}]},
    "model": {name: [FAULTS]
              for name in ("generate_stories", "scene_views", "full_pipeline_grad_check")},
    "trainer": {"_run_stage": [FAULTS]},
    "data": {"synth_dataset": [{"over": "raise"}]},
}


def errstate_rules(source: str) -> dict:
    """The rules of the `np.errstate` calls, their keywords, and FAULTS for
    each `float_faults` call, as a decorator or a `with`, by the function
    that holds them (`name`, `Class.name` or `outer.inner`)."""
    rules = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            called = isinstance(child, ast.Call) and {
                getattr(child.func, "id", None), getattr(child.func, "attr", None)}
            if called and called & {"errstate", FAULTS}:
                rules.setdefault(where or "module", []).append(
                    FAULTS if FAULTS in called
                    else {k.arg: ast.literal_eval(k.value) for k in child.keywords})
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
           "            pass\n\n"
           "@T.float_faults()\n"
           "def decode():\n"
           "    with float_faults():\n"
           "        pass\n")
    assert errstate_rules(src) == {"run": [{"over": "ignore"}],
                                   "run.inner": [{"invalid": "raise"}],
                                   "Opt.step": [{"over": "ignore", "invalid": "ignore"}],
                                   "decode": [FAULTS, FAULTS]}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_float_fault_rules_only_where_listed(path):
    assert errstate_rules(path.read_text(encoding="utf-8")) == \
        ERRSTATE_CALLERS.get(path.stem, {})


def names_a_gradient(node) -> bool:
    """`x.grad`, or a subscript of it (`x.grad[i]`, `x.grad[i][j]`)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "grad"


def in_place_gradient_writes(source: str) -> list[str]:
    """Writes into a gradient array: an augmented assignment to `.grad` or
    to a subscript of it, an assignment to such a subscript, and an `out=`
    that names one (alone or in a tuple). Rebinding `.grad` is no write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
        elif isinstance(node, ast.Call):
            targets = [t for k in node.keywords if k.arg == "out"
                       for t in getattr(k.value, "elts", [k.value])]
        else:
            continue
        if any(names_a_gradient(t) for t in targets):
            found.append(f"line {node.lineno}: {ast.unparse(node).splitlines()[0]}")
    return found


def test_checker_flags_an_in_place_gradient_write():
    src = ("p.grad += g\n"
           "p.grad[0] -= 1.0\n"
           "p.grad[:, 1] = 0.0\n"
           "np.add(p.grad, g, out=p.grad)\n"
           "np.multiply(a, 2.0, out=(p.grad[1:],))\n"
           "p.grad = g if p.grad is None else p.grad + g\n"
           "d_h += h.grad\n"
           "d_rows[i] = v.grad\n"
           "np.add(p.grad, g, out=buf)\n")
    assert in_place_gradient_writes(src) == [
        "line 1: p.grad += g", "line 2: p.grad[0] -= 1.0", "line 3: p.grad[:, 1] = 0.0",
        "line 4: np.add(p.grad, g, out=p.grad)",
        "line 5: np.multiply(a, 2.0, out=(p.grad[1:],))"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_gradient_written_in_place(path):
    assert in_place_gradient_writes(path.read_text(encoding="utf-8")) == []


# the config dataclasses, each with its number fields whose range is no kind
# of `data._KINDS` and is checked by hand
UNRANGED = {"ModelConfig": {"vocab_size"}, "TrainConfig": {"nll_stop"},
            "SynthSpec": {"vocab_size", "cluster_separation"}}


def undeclared_number_fields(source: str) -> list[str]:
    """Fields of the config dataclasses annotated plain `int` or `float` that
    `UNRANGED` does not name: a setting whose range nothing checks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name in UNRANGED:
            found += [f"line {stmt.lineno}: {node.name}.{stmt.target.id}"
                      for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and getattr(stmt.annotation, "id", None) in ("int", "float")
                      and stmt.target.id not in UNRANGED[node.name]]
    return found


def test_checker_flags_a_plain_number_field():
    src = ("@dataclass\nclass TrainConfig:\n    model: ModelConfig\n"
           "    lr: Weight = 0.1\n    nll_stop: float = 0.0\n    warmup: int = 0\n\n"
           "@dataclass\nclass Other:\n    n: int = 1\n")
    assert undeclared_number_fields(src) == ["line 6: TrainConfig.warmup"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_config_number_fields_declare_their_kind(path):
    assert undeclared_number_fields(path.read_text(encoding="utf-8")) == []


# the one function that checks the step counts of a padded batch, by module
STEP_COUNT_CHECKERS = {"tensor": {"step_lengths"}}


def step_count_checks(source: str, allowed: set) -> list[str]:
    """`<expr>.min() < 1` comparisons, a hand-written check that counts are
    >= 1, outside the top-level functions named in `allowed`."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Lt)
                    and isinstance(node.left, ast.Call) and not node.left.args
                    and getattr(node.left.func, "attr", None) == "min"
                    and getattr(node.comparators[0], "value", None) == 1):
                where = getattr(top, "name", "module")
                if where not in allowed:
                    found.append(f"line {node.lineno}: {where}")
    return found


def test_checker_flags_a_step_count_check():
    src = ("def step_lengths(lengths):\n    if lengths.min() < 1:\n        raise ValueError\n\n"
           "def pad(seqs):\n    n = np.array([len(s) for s in seqs])\n"
           "    if n.size == 0 or n.min() < 1:\n        raise ValueError\n"
           "    return n.min() < 2, n.max() < 1, min(n) < 1\n")
    assert step_count_checks(src, {"step_lengths"}) == ["line 7: pad"]
    assert step_count_checks(src, {"step_lengths", "pad"}) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_step_lengths_checks_step_counts(path):
    assert step_count_checks(path.read_text(encoding="utf-8"),
                             STEP_COUNT_CHECKERS.get(path.stem, set())) == []
