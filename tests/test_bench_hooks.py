"""The benchmark's tracer wraps package names it lists by hand; each must
still resolve, or the traced run would fail only in the slow smoke run."""

import importlib.util
import inspect
import os
import sys

import graphlift
from graphlift.lifting import TruncatedLift

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_lift_methods_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.LIFT_METHODS
    for attr in tracer.LIFT_METHODS:
        assert inspect.isfunction(getattr(TruncatedLift, attr, None)), attr


def test_named_spans_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    names = {name for group in tracer.GROUPS.values() for name in group}
    names |= set(tracer.Tracer._COUNTERS)
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        module = getattr(graphlift, layer)
        if layer == "lifting" and attr in tracer.LIFT_METHODS:
            continue
        assert inspect.isfunction(getattr(module, attr, None)), name
