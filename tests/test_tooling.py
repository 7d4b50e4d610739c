"""The benchmark's tracer patches tollkit's layer boundaries from outside:
installing and removing it must leave every patched name as it was."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
