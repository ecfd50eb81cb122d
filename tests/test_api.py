"""The public names resolve, and the benchmark's layer tracer still finds its targets.

perfbench/layertrace.py looks up every LAYERS target by name (class methods
through the class __dict__), so a renamed or deleted function breaks
`perfbench/run.py --trace 1`; installing and removing the tracer here catches
that in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import superflows

MODULES = ["cyclotomic", "errors", "matgroup", "homog", "engine", "flows", "symmetry", "cli"]
LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


@pytest.mark.parametrize("module", ["superflows"] + [f"superflows.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def _layer_targets(layers):
    """The object behind every LAYERS target, looked up the way the tracer does."""
    targets = {}
    for name, (module, cls, attrs) in layers.items():
        owner = importlib.import_module(module)
        if cls is not None:
            owner = vars(owner)[cls]
        targets[name] = [vars(owner)[attr] for attr in attrs]
    return targets


def test_layer_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    before = _layer_targets(layertrace.LAYERS)
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert _layer_targets(layertrace.LAYERS) != before
    finally:
        tracer.uninstall()
    assert _layer_targets(layertrace.LAYERS) == before
