"""The benchmark's tracer patches tollkit's layer boundaries from outside:
installing and removing it must leave every patched name as it was. And no
module of the package imports another's private names."""

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


def test_no_module_imports_private_names_of_another():
    private = []
    for path in sorted((ROOT / "src" / "tollkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
