"""The benchmark's tracer can patch, and restore, every function it names."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    spans = load_spans()
    targets = spans.targets()
    # Tracer.install looks each name up in its owner's __dict__, so a name
    # the package no longer defines raises KeyError here as it would there
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    tracer = spans.Tracer()
    try:
        tracer.install(targets)
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
