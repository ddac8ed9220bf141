"""The benchmark's per-layer tracer patches module attributes by name; a
renamed or moved function must fail here, not only under ``--trace 1``."""

import importlib.util
from pathlib import Path

import pipeclimber
import pipeclimber.cli  # noqa: F401  (the tracer patches names the CLI reads)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
FOUR_SECTION = str(ROOT / "scenarios" / "four_section.json")


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


def test_every_traced_call_site_is_called(tmp_path, capsys):
    # A call site that stops going through its traced name reads 0 calls
    # under --trace 1.  Only two traced names have no caller left.
    tracer = tracing.Tracer(pipeclimber)
    tracer.install()
    try:
        cli = pipeclimber.cli
        assert cli.main(["run", FOUR_SECTION, "--out", str(tmp_path)]) == 0
        assert cli.main(["sweep", FOUR_SECTION, "--theta", "0,120,240"]) == 0
        loads = [pipeclimber.LinearLoad(1.0, 1.0, v) for v in (1.0, 2.0, 4.0)]
        pipeclimber.balance_state(1.0, loads, pipeclimber.TransmissionConfig(2.0, 1.5))
    finally:
        tracer.remove()
    capsys.readouterr()
    calls, _, _ = tracer.take_op()
    assert {name for name in tracer.names if not calls[name]} == {
        "geometry.pose_at", "scenario_io.summary_to_dict"}
