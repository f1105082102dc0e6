"""The benchmark's per-layer tracer patches liedim functions by name.

A rename in the package would make ``perfbench/run.py --trace 1`` fail, so
this loads the tracer the way the benchmark does and binds every target.
"""

import importlib.util
from pathlib import Path

import liedim.witt

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target():
    layers = _load_layers()
    original = liedim.witt.witt_dim
    undo = layers.install(layers.Tracer())
    try:
        # one restore entry per target at least; a missing name raises in install()
        assert len({id(fn) for _, _, fn in undo}) == len(layers.TARGETS)
        assert liedim.witt.witt_dim is not original
    finally:
        layers.uninstall(undo)
    assert liedim.witt.witt_dim is original
