"""Library-wide rules checked on the source, not on behaviour."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

import patsim

SRC = Path(patsim.__file__).resolve().parent


def test_no_print_outside_the_cli():
    # diagnostics go through logging or the trace; only the CLI writes
    # to the terminal
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert sorted(p.name for p in SRC.glob("*.py")) != ["cli.py"]
    assert calls == []


def test_oracles_share_no_code_with_the_package():
    # an oracle built from the code under test checks nothing
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert modules and not [m for m in modules if m.split(".")[0] == "patsim"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]


def test_cli_builds_legs_only_through_grid_legs():
    # vectorize and gridsearch share grid.Legs; a second copy of the
    # segment, filter and fit steps in the CLI would let them drift apart
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "Legs" in names
    assert names.isdisjoint({"filter_segments", "unfiltered_notes", "fit_lsa",
                             "VectorizerConfig", "relevancy_from_prototypes"})


def test_benchmark_span_targets_stay_callable():
    # perfbench wraps each (module, attribute) in TARGETS to time a layer;
    # a target that moves or is renamed silently drops its layer to 0
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    # spans.py and workloads.eds_pairs read the kernels' operands by
    # position from each traced call
    kernels = importlib.import_module("patsim.kernels")
    leading = {"rv2_batch": ["rows", "ii", "jj"],
               "mms_batch": ["rows", "offsets", "ii", "jj"],
               "eds_batch": ["rows", "offsets", "ii", "jj"]}
    for name, want in leading.items():
        assert list(inspect.signature(getattr(kernels, name)).parameters)[:len(want)] == want


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone breaks star imports
    modules = [module for module in (importlib.import_module(f"patsim.{path.stem}")
                                     for path in sorted(SRC.glob("*.py"))
                                     if path.stem != "__init__")
               if hasattr(module, "__all__")]
    assert "patsim.matsim" in {module.__name__ for module in modules}
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_the_package_imports_only_exported_names():
    # patsim re-exports each submodule's public names, never a private one
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    private = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if alias.name not in importlib.import_module(f"patsim.{node.module}").__all__]
    assert private == []


def test_only_the_engine_and_matsim_call_the_pair_scorers():
    # rv2 and mms score only distinct pairs i < j in the triangle's order;
    # engine lists every request that way and matsim scores (0, 1), so pair
    # order has one owner as long as no other module calls the scorers
    scorers = {"score_pairs", "rv2_batch", "mms_batch", "eds_batch"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (node.attr if isinstance(node, ast.Attribute)
                     else node.id if isinstance(node, ast.Name) else None)
            imported = ({alias.name for alias in node.names}
                        if isinstance(node, ast.ImportFrom) else set())
            if named in scorers or imported & scorers:
                callers.add(path.name)
    assert callers == {"engine.py", "matsim.py"}


# The SimilarityMatrix members perfbench's output checks read from a result.
_BENCH_SIM_MEMBERS = ("get", "scores", "defined", "n", "patient_ids", "config",
                      "wall_time_seconds")


def _bench_trees():
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(bench.glob("*.py"))]


def _patsim_uses(tree):
    """Each patsim object the module reads through a module name, as
    (dotted name, the object or None, the Call node when it is called)."""
    modules = {}  # local name -> the patsim module bound to it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "patsim":
            modules.update({alias.asname or alias.name: f"patsim.{alias.name}"
                            for alias in node.names})
        elif isinstance(node, ast.Import):
            for alias in node.names:  # "import patsim.engine" binds patsim
                if alias.name.split(".")[0] == "patsim":
                    modules[alias.asname or "patsim"] = alias.name if alias.asname else "patsim"
    nodes = list(ast.walk(tree))
    calls = {id(node.func): node for node in nodes if isinstance(node, ast.Call)}
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    uses = []
    for node in nodes:
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue  # a prefix of a longer chain is checked with the chain
        chain, at = [], node
        while isinstance(at, ast.Attribute):
            chain.insert(0, at.attr)
            at = at.value
        if not (isinstance(at, ast.Name) and at.id in modules):
            continue
        path = modules[at.id].split(".") + chain
        obj = importlib.import_module("patsim")
        for attr in path[1:]:
            obj = getattr(obj, attr, None)
        uses.append((".".join(path), obj, calls.get(id(node))))
    return uses


def test_benchmark_reads_only_names_patsim_has():
    # perfbench drives patsim through its module attributes; a rename or a
    # dropped keyword would surface only when the benchmark runs
    trees = _bench_trees()
    uses = [use for tree in trees for use in _patsim_uses(tree)]
    assert {"patsim.engine.RunConfig", "patsim.grid.GridOptions", "patsim.synth.SynthSpec",
            "patsim.vectorizer.save_matrices"} <= {name for name, _, _ in uses}
    missing = sorted({name for name, obj, _ in uses if obj is None})
    assert missing == []
    unbound = []
    for name, obj, call in uses:
        if call is None or not callable(obj):
            continue
        try:
            inspect.signature(obj).bind_partial(
                *range(len(call.args)), **{kw.arg: None for kw in call.keywords if kw.arg})
        except TypeError as exc:
            unbound.append(f"{name}: {exc}")
    assert unbound == []
    # the members the output checks read from each SimilarityMatrix
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert set(_BENCH_SIM_MEMBERS) <= read
    engine = importlib.import_module("patsim.engine")
    vectorizer = importlib.import_module("patsim.vectorizer")
    rows = np.eye(2)
    sim = engine.compute_all_pairs(
        {pid: vectorizer.PatientMatrix(pid, rows, np.arange(2)) for pid in "ab"},
        engine.RunConfig(filter=False, vmethod="lsa050", mmethod="mms"))
    assert [m for m in _BENCH_SIM_MEMBERS if not hasattr(sim, m)] == []
