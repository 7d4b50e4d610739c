"""The benchmark's tracer patches tollkit's layer boundaries from outside:
installing and removing it must leave every patched name as it was. And no
module of the package imports another's private names, imports a name it
never uses, or defines a private name that neither the package nor its
tests read."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_original():
    tracer = load_tracer()
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, *_ in tracer.TARGETS]
    traced = tracer.Tracer()
    traced.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    finally:
        traced.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr


def traced_learn(capsys, tmp_path, rounds):
    """``learn --seeds 0,1`` under the tracer: the tracer module, the
    spans, and the layer metrics of that one item."""
    from tollkit import BasisFunction, GameInstance, build_tax_profile, cli
    b = BasisFunction.monomial(1)
    inst = GameInstance.build([b], [[1.0], [1.0]], [[[0], [1]], [[0], [1]]])
    inst.save(tmp_path / "game.json")
    build_tax_profile(inst, [1.0, 1.0]).save(tmp_path / "taxes.json")
    tracer = load_tracer()
    traced = tracer.Tracer()
    traced.install()
    try:
        code = cli.main(["learn", str(tmp_path / "game.json"),
                         "--taxes", str(tmp_path / "taxes.json"), "--rounds", str(rounds),
                         "--seeds", "0,1", "--out", str(tmp_path / "runs")])
    finally:
        traced.uninstall()
    capsys.readouterr()
    assert code == 0
    spans, counters, rho_bases = traced.take()
    return tracer, spans, tracer.layer_metrics(spans, counters, rho_bases, items=1)


def test_tracer_times_each_trace_write(capsys, tmp_path):
    """``learning.trace_write_s`` comes from one ``RunTrace.save_jsonl``
    span per seed of a ``learn`` call."""
    tracer, spans, metrics = traced_learn(capsys, tmp_path, rounds=200)
    writes = [s for s in spans if s[tracer.NAME] == "RunTrace.save_jsonl"]
    assert len(writes) == 2
    assert all(s[tracer.END] > s[tracer.START] for s in writes)
    assert metrics["learning.trace_write_s"] > 0


def test_tracer_times_each_seeds_run(capsys, tmp_path):
    """``learning.mw_s`` and ``learning.us_per_round`` come from one
    ``multiplicative_weights_run`` span per seed, even where later seeds
    reuse what the first built, and ``learning.mw_rounds`` counts every
    seed's rounds."""
    tracer, spans, metrics = traced_learn(capsys, tmp_path, rounds=200)
    runs = [s for s in spans if s[tracer.NAME] == "multiplicative_weights_run"]
    assert len(runs) == 2
    assert all(s[tracer.END] > s[tracer.START] for s in runs)
    assert metrics["learning.mw_rounds"] == 2 * 200
    assert metrics["learning.mw_s"] > 0 and metrics["learning.us_per_round"] > 0


def test_no_module_imports_private_names_of_another():
    private = []
    for path in sorted((ROOT / "src" / "tollkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, including those inside string
    annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_no_unused_module_imports():
    unused = []
    for path in sorted((ROOT / "src" / "tollkit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        statements = []
        for node in tree.body:
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                statements += node.body
            else:
                statements.append(node)
        used = used_names(tree)
        for node in statements:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_no_unused_private_names():
    package = sorted((ROOT / "src" / "tollkit").glob("*.py"))
    read = set()
    for path in package + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= used_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = []
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.endswith("__")
                       and name not in read]
    assert unused == []
