"""The names the benchmark's span tracer wraps still exist in polydiv.

``bench/tracer.py`` wraps polydiv from outside, by name: its layers are
modules, ``METHODS`` lists class attributes and ``OBSERVERS`` counts work on
named spans.  A rename in ``src/polydiv`` fails here, not on the first traced
benchmark run.  The tracer is loaded by path on its own; the benchmark's
workload module is not imported, since it drops the loaded polydiv modules
to import its own checkout afresh.

``bench/selftest.py`` also reads names that one polydiv module binds from
another, to check that the tracer patches the binding as well as the
definition; those bindings are checked here too.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

SPAN_NAMES = {name for _, _, _, name in tracer.METHODS}


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_layer_is_a_module(layer):
    importlib.import_module(f"polydiv.{layer}")


@pytest.mark.parametrize("layer, cls_name, attr, name", tracer.METHODS,
                         ids=[name for *_, name in tracer.METHODS])
def test_method_exists(layer, cls_name, attr, name):
    cls = getattr(importlib.import_module(f"polydiv.{layer}"), cls_name)
    assert attr in vars(cls), f"{cls_name}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(tracer.OBSERVERS))
def test_observed_span_is_wrapped(name):
    """An observed span is a listed method or a public function that the
    tracer wraps: defined in its layer's module and not left unwrapped."""
    if name in SPAN_NAMES:
        return
    layer, attr = name.split(".", 1)
    module = importlib.import_module(f"polydiv.{layer}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{name} is gone"
    assert not attr.startswith("_") and attr not in tracer.UNWRAPPED.get(layer, ())


def test_lattice_points_in_box_takes_p_lo_hi():
    """The tracer's observer of ``convex.lattice_points_in_box`` unpacks its
    arguments as ``_, lo, hi``: another positional parameter would break
    every traced run."""
    fn = importlib.import_module("polydiv.convex").lattice_points_in_box
    params = inspect.signature(fn).parameters.values()
    assert [(q.name, q.kind) for q in params] == \
        [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("p", "lo", "hi")]


def test_convex_binds_linalg_bareiss_det():
    """The selftest checks the tracer's wrapper through ``convex.bareiss_det``."""
    convex = importlib.import_module("polydiv.convex")
    assert convex.bareiss_det is importlib.import_module("polydiv.linalg").bareiss_det


@pytest.mark.xfail(strict=True, raises=AttributeError,
                   reason="ROADMAP item 6: ideals no longer imports hilbert_basis, "
                          "and bench/selftest.py still reads ideals.hilbert_basis")
def test_ideals_binds_convex_hilbert_basis():
    convex = importlib.import_module("polydiv.convex")
    assert importlib.import_module("polydiv.ideals").hilbert_basis is convex.hilbert_basis


def test_public_callables_are_plain_functions_or_classes():
    """The tracer wraps only plain functions, so a public cached function
    would drop out of the per-layer counts (and ``serialize.load_problem``,
    whose calls the selftest reads, with it): a memo must sit on a private
    function."""
    odd = [f"{layer}.{attr}" for layer in tracer.LAYERS
           for attr, obj in vars(importlib.import_module(f"polydiv.{layer}")).items()
           if not attr.startswith("_") and callable(obj)
           and getattr(obj, "__module__", None) == f"polydiv.{layer}"
           and not (inspect.isfunction(obj) or inspect.isclass(obj))]
    assert not odd
