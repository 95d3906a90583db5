"""Library-wide rules checked on the source, not on behaviour."""

from __future__ import annotations

import ast
import dataclasses
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


def _environment_reads(source: str) -> list[int]:
    """Lines that read the process environment through os: os.environ,
    os.environb, os.getenv or os.getenvb, by attribute or imported by name."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in names for alias in node.names))


def test_no_module_reads_the_environment():
    # settings come from flags and the config file only, so a run is
    # described by its command line and files
    assert _environment_reads("import os\nos.environ.get('A')\nos.getenv('B')\n"
                              "from os import environ\nos.path.join('a')\n"
                              "env = {}\nenv.get('C')\n") == [2, 3, 4]
    reads = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _environment_reads(path.read_text(encoding="utf-8"))]
    assert reads == []


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name is its module's own; a helper two modules share
    # is public, in the module that owns the concern
    imported = [f"{path.name}:{node.lineno} {alias.name}"
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").split(".")[0] == "patsim")
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


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


# The engine calls that return a SimilarityMatrix or a list of them.
_SIM_MAKERS = {"SimilarityMatrix", "compute_all_pairs", "compute_legs",
               "combine_similarities", "load_similarity"}


def _named(node: ast.AST) -> str | None:
    return (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else None)


def _perfbench_only_uses(source: str) -> list[int]:
    """Lines that read kernels.eds_score or eds_score_with_iters, or call
    .get on a SimilarityMatrix: on a call to one of _SIM_MAKERS, on a name
    bound to them (a parameter annotated with SimilarityMatrix, a name
    assigned such a call or a comprehension of them, or a loop target over
    either), or on an index into them. A dict's .get is not caught."""
    kept = {"eds_score", "eds_score_with_iters"}
    nodes = list(ast.walk(ast.parse(source)))

    def holds_sims(node: ast.AST) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return (isinstance(node, ast.Name) and node.id in sims
                or isinstance(node, ast.Call) and _named(node.func) in _SIM_MAKERS)

    sims = {node.arg for node in nodes if isinstance(node, ast.arg) and node.annotation
            and "SimilarityMatrix" in ast.unparse(node.annotation)}
    sims |= {target.id for node in nodes if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value and holds_sims(getattr(node.value, "elt", node.value))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    sims |= {node.target.id for node in nodes
             if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.target, ast.Name) and holds_sims(node.iter)}
    lines = set()
    for node in nodes:
        imported = ({alias.name for alias in node.names}
                    if isinstance(node, ast.ImportFrom) else set())
        if _named(node) in kept or imported & kept:
            lines.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and holds_sims(node.func.value)):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_calls_the_names_kept_for_perfbench():
    # eds_score, eds_score_with_iters and SimilarityMatrix.get stay only
    # until perfbench stops calling them; the package reads eds_solve and
    # SimilarityMatrix.lookup, so a new caller would outlive their removal
    caught = _perfbench_only_uses(
        "kernels.eds_score(c)\n"
        "from .kernels import eds_score_with_iters\n"
        "sim = engine.compute_all_pairs(m, c)\nsim.get(a, b)\n"
        "def f(s: SimilarityMatrix):\n    return s.get(a, b)\n"
        "legs = compute_legs(x)\nlegs[0].get(a, b)\n"
        "for one in legs:\n    one.get(a, b)\n"
        "load_similarity(p).get(a, b)\n"
        "runs = [load_similarity(p) for p in ps]\n[r.get(a, b) for r in runs]\n"
        "meta = {'n': sim.n}\nmeta.get('n', 0)\n"
        "index.get(pid, -1)\nmeta.get('seed', 0)\nfit.get(dim)\n")
    assert caught == [1, 2, 4, 6, 8, 10, 11, 13]
    uses = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _perfbench_only_uses(path.read_text(encoding="utf-8"))]
    assert uses == []


# The SimilarityMatrix members perfbench's output checks read from a result.
_BENCH_SIM_MEMBERS = ("get", "scores", "defined", "n", "patient_ids", "config",
                      "wall_time_seconds")
# The GridCell members its grid checks and its quality metric (the mean
# of the cells' means) read from a report.
_BENCH_CELL_MEMBERS = ("filter", "vmethod", "mmethod", "status", "mean")


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
    # the members the output checks read from each SimilarityMatrix and
    # GridCell; a cell member must stay a field or a property
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert set(_BENCH_SIM_MEMBERS) | set(_BENCH_CELL_MEMBERS) <= read
    cell = importlib.import_module("patsim.grid").GridCell
    fields = {f.name for f in dataclasses.fields(cell)}
    assert [m for m in _BENCH_CELL_MEMBERS if m not in fields
            and not isinstance(getattr(cell, m, None), property)] == []
    engine = importlib.import_module("patsim.engine")
    vectorizer = importlib.import_module("patsim.vectorizer")
    rows = np.eye(2)
    sim = engine.compute_all_pairs(
        {pid: vectorizer.PatientMatrix(pid, rows, np.arange(2)) for pid in "ab"},
        engine.RunConfig(filter=False, vmethod="lsa050", mmethod="mms"))
    assert [m for m in _BENCH_SIM_MEMBERS if not hasattr(sim, m)] == []
