"""The benchmark's per-layer tracer patches module attributes by name; a
renamed or moved function must fail here, not only under ``--trace 1``."""

import importlib.util
from pathlib import Path

import pipeclimber
import pipeclimber.cli  # noqa: F401  (the tracer patches names the CLI reads)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def test_every_traced_attribute_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.targets(pipeclimber)
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_tracer_restores_the_originals():
    targets = tracing.targets(pipeclimber)
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    tracer = tracing.Tracer(pipeclimber)
    tracer.install()
    try:
        wrapped = [getattr(module, attr) for module, attr, _, _ in targets]
    finally:
        tracer.remove()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(m, a) is o for (m, a, _, _), o in zip(targets, originals))
