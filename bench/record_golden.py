"""Record the golden outputs the benchmark compares against.

    python3 bench/record_golden.py

Writes ``bench/golden/<workload>.json``:

* ``fixtures``: the operation list (every subcommand on every fixture object
  it applies to, and ``generators`` on ``ex346``) with the ``--json`` stdout,
  the exit code and the stderr error class of each;
* ``cone-ladder`` and ``ideal-normality``: a digest per case, of the output
  mapped back to the template's coordinates.

A case that does not finish within ``CAP`` seconds (``EX346_CAP`` for
``ex346``) gets no record; the benchmark then checks it with its
independent checks only.  Run this only
at a commit whose outputs are known to be right: the records define
correctness for every later commit.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from dataclasses import replace

import run
import workloads as wl

CAP = 60.0
EX346_CAP = 600.0


def fixture_argvs(pd) -> list[list[str]]:
    """Every subcommand on every fixture object it applies to.

    Vector arguments are derived from the object: ``m`` is the sum of the
    weight cone's Hilbert basis, the ray is the tail's first ray, ``e`` the
    first Demazure root in the box [-2, 2]^n, and elements are the first
    section generator in degree ``m`` or in a Hilbert-basis degree.
    ``generators`` on ``ex346`` is left out: it runs under its own budget.
    """
    ser, convex, divisors, gaactions = (pd[k] for k in ("serialize", "convex",
                                                        "divisors", "gaactions"))

    def vec(v):
        return ",".join(str(a) for a in v)

    def element(d, candidates):
        """First section generator in the first candidate degree that has
        one; the constant 1 in degree 0 when none has."""
        fn, deg = pd["curves"].RationalFunction.from_factored(1), [0] * d.rank
        for m in candidates:
            gens = divisors.graded_piece(d, m).module.generators
            if gens:
                fn, deg = gens[0], list(m)
                break
        return json.dumps({"function": ser.function_doc(fn), "degree": deg},
                          separators=(",", ":"))

    argvs = []
    for fname in sorted(os.listdir(wl.FIXTURES)):
        problem = ser.load_problem(os.path.join(wl.FIXTURES, fname))
        for obj, (kind, value) in problem.objects.items():
            base = ["--input", fname, "--object", obj]
            if kind in ("divisor", "generators"):
                d = value if kind == "divisor" else \
                    divisors.divisor_from_generators(list(value), problem.curve)[1]
                hb = convex.hilbert_basis(d.tail.dual())
                m = tuple(sum(b[j] for b in hb) for j in range(d.rank))
                box = [(-2, 2)] * d.rank
                roots = [r.vector for ray in d.tail.rays
                         for r in gaactions.roots_with_ray(d.tail, ray, box)]
                el = element(d, [m] + list(hb))
                if kind == "generators":
                    argvs += [["normalize"] + base, ["dpd"] + base]
                argvs += [["eval"] + base + ["--m", vec(m)], ["proper"] + base,
                          ["sections"] + base + ["--m", vec(m)],
                          ["member"] + base + ["--element", el],
                          ["roots"] + base + ["--ray", vec(d.tail.rays[0]),
                                              "--box=" + ",".join(["-2:2"] * d.rank)],
                          ["vertical-exists"] + base + ["--ray", vec(d.tail.rays[0])]]
                if not (fname == "ex346.json" and obj == "gens"):
                    argvs.append(["generators"] + base)
                if problem.curve.name == "PROJECTIVE_LINE":
                    argvs.append(["degree"] + base)
                if roots:
                    e = "--e=" + vec(roots[0])
                    root = gaactions.is_demazure_root(d.tail, roots[0])
                    phi_mod = gaactions.vertical_phi(d, root) if divisors.is_proper(d)[0] \
                        else None
                    phi = ser.function_doc(phi_mod.generators[0]) \
                        if phi_mod is not None and phi_mod.generators else {"constant": 1}
                    argvs += [["root-check"] + base + [e],
                              ["toric-exp"] + base + [e, "--m", vec(m)],
                              ["vertical-exp"] + base + [
                                  e, "--phi", json.dumps(phi, separators=(",", ":")),
                                  "--element", el],
                              ["axiom-check"] + base + [e]]
            elif kind == "monomial_ideal":
                m = vec([2] * problem.rank)
                argvs += [["mono-closure"] + base, ["mono-normal"] + base,
                          ["oracle"] + base + ["--m", m]]
            elif kind == "ideal":
                m = vec([2] * problem.rank)
                argvs += [["rees"] + base, ["closure-piece"] + base + ["--m", m, "--e", "2"],
                          ["pair-check"] + base, ["normal-sufficient"] + base]
            elif kind == "coloring":
                argvs.append(["coloring-check"] + base)
            elif kind == "assemblage":
                d = value.colored.divisor
                hb = convex.hilbert_basis(d.tail.dual())
                m = tuple(sum(b[j] for b in hb) for j in range(d.rank))
                argvs += [["assemblage-check"] + base, ["horizontal-check"] + base,
                          ["horizontal-exp"] + base + ["--element", element(d, [m] + list(hb))],
                          ["kernel"] + base, ["axiom-check"] + base]
    return argvs


def outcome(op: wl.Op, cap: float):
    """Run ``op`` under ``cap``; returns the canonical output or None."""
    status, latency, raw = run.timed_call(replace(op, budget=cap))
    if status == "timeout":
        print(f"  no record: {op.key} passed {cap} s", flush=True)
        return None
    if isinstance(raw, wl.Raised):
        return {"raised": raw.name}
    problems = op.verify(raw)
    if problems:
        sys.exit(f"independent check failed while recording {op.key}: {problems}")
    print(f"  {op.key}: {latency:.3f} s", flush=True)
    return op.canon(raw)


def main() -> None:
    signal.signal(signal.SIGALRM, run.ALARM)
    pd = wl.import_polydiv()
    os.makedirs(wl.GOLDEN, exist_ok=True)

    transcript = []
    for argv in fixture_argvs(pd) + [wl.EX346]:
        cap = EX346_CAP if argv == wl.EX346 else CAP
        transcript.append({"argv": argv, "outcome": outcome(wl.cli_op(pd, argv, cap), cap)})
    write("fixtures", transcript)

    for cls in (wl.ConeLadder, wl.IdealNormality):
        records = {}
        for op in cls().ops(pd, 0, 0):
            got = outcome(op, CAP)
            if got is not None:
                records[op.key] = got
        write(cls.name, records)


def write(name: str, data) -> None:
    with open(wl.golden_path(name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
