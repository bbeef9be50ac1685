"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Asserts that the tracer changes no output, that its call counts repeat
exactly, that it patches names one polydiv module imported from another and
restores every name afterwards, that timeouts inside traced calls leave the
spans consistent, and that the independent checks can fail.
"""

from __future__ import annotations

import signal
from dataclasses import replace

import exact
import run
import workloads as wl
from tracer import METHODS, Tracer

# cheap operations of every workload: no budget binds, so tracing cannot
# turn a result into a timeout (None: every operation but generators on ex346)
SAMPLE = {"fixtures": None,
          "cone-ladder": {"r3n14/conv", "r4n14/conv", "r4n5/hilb", "r4n10/hilb"},
          "ideal-normality": {"r3-axis-2-3-7/closure", "r3-axis-2-3-7/normal",
                              "r4-orth-3-2/normal", "r2-skew-3-4/oracle"}}


def sample_ops(pd, seed=7, pass_index=0):
    for name, keys in SAMPLE.items():
        workload = wl.WORKLOADS[name]()
        for op in workload.ops(pd, seed, pass_index):
            if op.key in keys if keys else op.key != " ".join(wl.EX346):
                yield name, replace(op, budget=60.0)


def outputs(pd, tracer=None):
    if tracer is not None:
        tracer.install(pd)
    try:
        out = {}
        for i, (name, op) in enumerate(sample_ops(pd)):
            if tracer is not None:
                tracer.begin_op(i)
            status, _, raw = run.timed_call(op)
            assert status != "timeout", op.key
            out[(name, op.key)] = {"raised": raw.name} if isinstance(raw, wl.Raised) \
                else op.canon(raw)
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()


def snapshot(pd):
    names = {(layer, attr): obj for layer, mod in pd.items() for attr, obj in vars(mod).items()}
    names.update({("COMMANDS", k): v for k, v in pd["cli"].COMMANDS.items()})
    for layer, cls, attr, _ in METHODS:
        names[(cls, attr)] = vars(getattr(pd[layer], cls))[attr]
    return names


def test_tracer(pd) -> None:
    before = snapshot(pd)
    plain = outputs(pd)
    first, second = Tracer(), Tracer()
    traced = outputs(pd, first)
    assert traced == plain, [k for k in plain if plain[k] != traced.get(k)]
    assert snapshot(pd) == before, "tracer left a name patched"
    outputs(pd, second)
    ops = set(range(len(plain)))
    a, b = first.summary(ops), second.summary(ops)
    counts = {k: v for k, v in a.items() if k.endswith(".calls")}
    assert counts == {k: v for k, v in b.items() if k.endswith(".calls")}
    for name in ("linalg.bareiss_det.calls", "convex.from_rays.calls",
                 "curves.RationalFunction.mul.calls", "cli.main.calls",
                 "cli.cmd_pair_check.calls", "serialize.load_problem.calls"):
        assert a[name] > 0, name

    tracer = Tracer()
    tracer.install(pd)
    try:
        convex, linalg = pd["convex"], pd["linalg"]
        assert convex.bareiss_det is linalg.bareiss_det
        assert convex.bareiss_det.__wrapped__ is before[("linalg", "bareiss_det")]
        assert pd["ideals"].hilbert_basis is convex.hilbert_basis
        assert hasattr(convex.Cone.from_rays, "__wrapped__")
        assert hasattr(pd["cli"].COMMANDS["pair-check"][0], "__wrapped__")
    finally:
        tracer.uninstall()
    assert snapshot(pd) == before


def test_traced_timeouts(pd) -> None:
    """Budget alarms that cut traced calls short, at many points of the
    wrappers, leave the span arrays aligned and the run summarisable."""
    tracer = Tracer()
    tracer.install(pd)
    try:
        for i in range(40):
            tracer.begin_op(i)
            op = wl.cli_op(pd, wl.EX346, 0.01 + 0.001 * i)
            assert run.timed_call(op)[0] == "timeout"
    finally:
        tracer.uninstall()
    arrays = (tracer.span_name, tracer.span_parent, tracer.span_op,
              tracer.span_start, tracer.span_end)
    assert len({len(a) for a in arrays}) == 1
    tracer.summary(set(range(40)))
    tracer.span_name.append(0)  # a prologue cut after its first append
    tracer.begin_op(40)
    assert len({len(a) for a in arrays}) == 1


def test_checks_can_fail() -> None:
    rays = [(1, 0, 0), (0, 1, 0), (1, 1, 2)]
    halfspaces = [(0, 0, 1), (2, 0, -1), (0, 2, -1)]
    assert exact.check_cone(rays, rays, halfspaces, 3) == []
    assert exact.check_cone(rays, rays, halfspaces[:2], 3)
    assert exact.check_cone(rays + [(1, -1, 0)], rays, halfspaces, 3)
    assert exact.check_cone(rays, [(2, 0, 0)] + rays[1:], halfspaces, 3)
    basis = [(0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 2)]
    assert exact.check_hilbert(rays, halfspaces, basis) == []
    assert exact.check_hilbert(rays, halfspaces, basis + [(2, 2, 2)])
    assert exact.check_hilbert(rays, halfspaces, basis[:3])
    facets = exact.polyhedron_facets([(2, 0), (0, 3)], [(1, 0), (0, 1)])
    assert exact.in_dilate((2, 0), 1, facets) and exact.in_dilate((1, 2), 1, facets)
    assert not exact.in_dilate((1, 1), 1, facets)
    assert exact.in_dilate((2, 3), 2, facets) and not exact.in_dilate((2, 2), 2, facets)


def main() -> None:
    signal.signal(signal.SIGALRM, run.ALARM)
    test_checks_can_fail()
    pd = wl.import_polydiv()
    test_tracer(pd)
    test_traced_timeouts(pd)
    print("selftest passed")


if __name__ == "__main__":
    main()
