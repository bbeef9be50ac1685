"""Closed-loop benchmark of polydiv: one caller, one thread, in process.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Runs whole passes of the workload's operations until ``--seconds`` is spent
(at least the workload's ``min_passes``), each operation under its own time
budget, checks every output outside the timed interval, prints every metric
by name and unit, and ends with one JSON line.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer metrics instead; see BENCHMARK.md.

Every time metric is reported at reference speed: each operation's time is
multiplied by REF_SECONDS over the mean time of a fixed reference loop run
just before and just after it, and its budget is enforced at that speed.  A
shared host switches between speeds about two times apart for tens of
seconds at a time; the scaled times follow the program, the raw times follow
the host.  The raw times are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from time import perf_counter

import workloads
from tracer import Tracer

SETUP_REPEATS = 10
# time of reference() when the host of the defining machine was in its fast state
REF_SECONDS = 0.004
OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    """The metrics BENCHMARK.json declares: {"end_to_end"|"per_layer": [(name, unit)]}."""
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


class Timeout(BaseException):
    """Raised by SIGALRM inside the operation that ran past its budget."""


class _Alarm:
    armed = False

    def __call__(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Timeout()


ALARM = _Alarm()


def reference() -> float:
    """Seconds taken by fixed pure-Python rational arithmetic, the kind of
    work polydiv does, written without polydiv so no change to it can move
    this."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REF_SECONDS / (before + after)


@dataclass(slots=True)
class Record:
    op: str             # case id
    index: int          # position in the run
    status: str         # "ok", "error" (raised) or "timeout"
    latency: float      # seconds
    failed: bool
    problems: list
    scaled: float = 0.0  # latency at reference speed; a timeout's is its budget


def check(op: workloads.Op, raw, golden: dict) -> list:
    """Independent checks plus comparison with the golden record."""
    if isinstance(raw, workloads.Raised):
        problems, got = [], {"raised": raw.name}
    else:
        problems, got = op.verify(raw), op.canon(raw)
    want = golden.get(op.key)
    if want is None and isinstance(raw, workloads.Raised):
        problems.append(f"raised {raw.name}")
    elif want is not None and want != got:
        problems.append("output differs from the golden record")
    return problems


def timed_call(op: workloads.Op) -> tuple[str, float, object]:
    """Run ``op.call`` under its budget: (status, seconds, output)."""
    outcome, t1 = None, None
    t0 = perf_counter()
    try:
        ALARM.armed = True
        signal.setitimer(signal.ITIMER_REAL, op.budget)
        t0 = perf_counter()
        try:
            outcome = ("ok", op.call())
        except Exception as exc:  # recorded as the operation's outcome
            outcome = ("error", workloads.Raised(exc))
        finally:
            t1 = perf_counter()
            ALARM.armed = False
    except Timeout:
        # raised inside the call, or just after it returned, when the outcome stands
        pass
    signal.setitimer(signal.ITIMER_REAL, 0)
    if t1 is None:
        t1 = perf_counter()
    status, raw = outcome if outcome is not None else ("timeout", None)
    return status, t1 - t0, raw


def run_op(op: workloads.Op, index: int, golden: dict) -> Record:
    """Time one operation, then check its output outside the timed interval."""
    status, latency, raw = timed_call(op)
    if status == "timeout":
        return Record(op.key, index, status, latency, False, [])
    problems = check(op, raw, golden)
    failed = bool(problems) or isinstance(raw, workloads.Raised) or \
        getattr(raw, "crashed", False)
    return Record(op.key, index, status, latency, failed, problems)


def run_pass(workload, pd, golden: dict, seed: int, pass_index: int, first_index: int,
             tracer: Tracer | None = None) -> list[Record]:
    ops = workload.ops(pd, seed, pass_index)
    records = []
    if tracer is not None:
        tracer.install(pd)
    try:
        before = reference()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(first_index + k)
            # the budget is in seconds at reference speed too
            record = run_op(replace(op, budget=op.budget * before / REF_SECONDS),
                            first_index + k, golden)
            after = reference()
            record.scaled = op.budget if record.status == "timeout" else \
                at_reference_speed(record.latency, before, after)
            records.append(record)
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def rank(tenths: int, samples: int) -> int:
    """Nearest rank (1-based) of the percentile given in tenths of a percent."""
    return max(1, -(-tenths * samples // 1000))


def tail_percentile(samples: int) -> int:
    """Highest percentile, in tenths of a percent, with at least ten of
    ``samples`` above it."""
    for tenths in range(999, 0, -1):
        if samples - rank(tenths, samples) >= 10:
            return tenths
    return 1


def src_lines() -> int:
    pkg = os.path.join(workloads.SRC, "polydiv")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def set_up(workload, seed: int):
    """Import polydiv and parse the workload's problems several times:
    (modules, median set-up time at reference speed, raw median)."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference()
        t0 = perf_counter()
        pd = workloads.import_polydiv()
        workload.setup(pd, seed)
        raw.append(perf_counter() - t0)
        times.append(at_reference_speed(raw[-1], before, reference()))
    return pd, statistics.median(times), statistics.median(raw)


def wall(passes: list[list[Record]], attr: str) -> float:
    """Median over passes of the time to finish a pass's operations."""
    return statistics.median(sum(getattr(r, attr) for r in recs) for recs in passes)


def times(passes: list[list[Record]], attr: str, tenths: int) -> dict:
    """wall_s, op_p50_ms and op_tail_ms from the records' ``attr`` times."""
    lat = sorted(getattr(r, attr) for recs in passes for r in recs)
    return {"wall_s": wall(passes, attr),
            "op_p50_ms": 1000 * lat[rank(500, len(lat)) - 1],
            "op_tail_ms": 1000 * lat[rank(tenths, len(lat)) - 1]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    declared = declared_metrics()
    workload = workloads.WORKLOADS[name]()
    golden = workload.golden()
    pd, setup_s, setup_raw = set_up(workload, seed)
    tracer = Tracer() if trace else None
    records: list[Record] = []
    plain, traced_passes, traced_ops = [], [], []
    # a traced run alternates untraced and traced passes and stops after a pair
    step, least = (2, 2) if trace else (1, workload.min_passes)
    pass_index, start = 0, perf_counter()
    while True:
        traced = trace and pass_index % 2 == 1
        recs = run_pass(workload, pd, golden, seed, pass_index, len(records),
                        tracer if traced else None)
        records += recs
        (traced_passes if traced else plain).append(recs)
        if traced and not traced_ops:
            traced_ops = [r.index for r in recs if r.status != "timeout"]
        pass_index += 1
        elapsed = perf_counter() - start
        if pass_index >= least and pass_index % step == 0 and \
                elapsed + step * elapsed / pass_index > seconds:
            break
    ops_per_pass = len(records) // pass_index
    result = {"workload": name, "seed": seed, "trace": int(trace), "passes": pass_index,
              "ops_per_pass": ops_per_pass, "src_lines": src_lines(),
              "records": [[r.index, r.op, r.status, r.latency, r.scaled, r.failed,
                           r.problems] for r in records]}
    problems = [(r.op, p) for r in records for p in r.problems]
    summary = {"correct": not problems, "attempted": len(records),
               "failed": sum(r.failed for r in records)}
    if trace:
        layer = tracer.summary(set(traced_ops))
        layer["trace.overhead_ratio"] = wall(traced_passes, "scaled") / wall(plain, "scaled")
        layer["context.src_lines"] = result["src_lines"]
        metrics = {n: {"value": layer.get(n, 0), "unit": u} for n, u in declared["per_layer"]}
        result["layer"] = layer
        tracer.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    else:
        tenths = tail_percentile(ops_per_pass * workload.min_passes)
        values = {"setup_s": setup_s, **times(plain, "scaled", tenths),
            "within_budget_share": sum(r.status != "timeout" for r in records) / len(records),
            "ok_share": 1 - summary["failed"] / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in declared["end_to_end"]}
        result["raw"] = {"setup_s": setup_raw, **times(plain, "latency", tenths)}
        result["op_tail_percentile"] = tenths / 10
        result["latency_samples"] = n = len(records)
        print(f"op_tail_ms is p{tenths / 10} of {n} latency samples "
              f"({n - rank(tenths, n)} above it)")
        print("raw times: " + ", ".join(f"{k} = {v}" for k, v in result["raw"].items()))
    result.update(summary, metrics=metrics)
    report(result, records, problems)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def report(result: dict, records: list[Record], problems: list) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: {result['passes']} passes "
          f"of {result['ops_per_pass']} operations; src/polydiv has {result['src_lines']} lines")
    timeouts: dict[str, int] = {}
    failures: dict[str, int] = {}
    for r in records:
        if r.status == "timeout":
            timeouts[r.op] = timeouts.get(r.op, 0) + 1
        if r.failed:
            failures[r.op] = failures.get(r.op, 0) + 1
    for op, n in timeouts.items():
        print(f"timeout x{n}: {op}")
    for op, n in failures.items():
        print(f"failed x{n}: {op}")
    for op, p in problems[:20]:
        print(f"WRONG OUTPUT: {op}: {p}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, ALARM)
    line = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
