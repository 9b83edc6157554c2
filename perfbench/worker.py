"""Runs one workload's op stream in this (fresh) interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N
        --count N [--cap S] [--results FILE] [--trace SPANS_FILE]
    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N
        --check FILE

Timed pass: a closed loop, one client, one thread, no think time.  Each
op's inputs are built untimed, the call is timed with `perf_counter`, and
its result is pickled to FILE untimed.  The loop stops after `--count` ops,
or early when the wall clock passes `--cap` seconds.  With
`--trace`, the library's public functions are wrapped (see tracer.py) and
the spans are written to SPANS_FILE as JSON lines.

Check pass (`--check`): a second fresh interpreter rebuilds each op from
the seed, reads the result the timed pass stored, and checks it.  Checks
call the library too; running them in another process keeps them out of
the timed process's caches and memory.

Each pass prints one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
from time import perf_counter

import workloads
from probe import CAL_EVERY_S, calibration_per_op, calibration_reading

MAX_ERRORS = 20


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rss_mb():
    """Resident set size now; the peak where /proc is not available."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return _peak_rss_mb()
    return pages * resource.getpagesize() / 2**20


def run(workload, seed, count, cap_s, results_file=None, trace_file=None):
    # the library's documented refusals: a bounded search or factorization
    # gave up, which is not a wrong answer
    from quatwitt.errors import FactorizationLimitExceeded, SearchBoundExceeded
    refusals = (FactorizationLimitExceeded, SearchBoundExceeded)

    import ops

    runner = ops.Runner(workload)
    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cache0 = tracer.cache_info()

    out = open(results_file, "wb") if results_file else None
    records = []
    errors = []
    wall0 = perf_counter()
    marks, readings = [], []
    last_cal = None
    try:
        for op in workloads.stream(workload, seed):
            if len(records) >= count:
                break
            now = perf_counter()
            if now - wall0 > cap_s:
                break
            if last_cal is None or now - last_cal >= CAL_EVERY_S:
                marks.append(len(records))
                readings.append(calibration_reading())
                last_cal = perf_counter()
            prep = runner.prepare(op)
            result = error = None
            if tracer:
                tracer.active = True
                tracer.begin_op()
            t0 = perf_counter()
            try:
                result = prep.call()
            except Exception as exc:  # an op that raises is counted, not fatal
                error = exc
            t1 = perf_counter()
            if tracer:
                tracer.end_op(op["kind"], t0, t1)
                tracer.active = False
            if error is None:
                outcome = "done"
            elif isinstance(error, refusals):
                outcome = "refused"
            else:
                outcome = "error"
            if error is not None and len(errors) < MAX_ERRORS:
                errors.append(f"op {op['i']} {op['kind']} {outcome}: "
                              f"{type(error).__name__}: {error}")
            if out:
                pickle.dump((op["i"], outcome, result), out)
            records.append([op["kind"], op["cls"], op["cli"], t1 - t0,
                            outcome])
    finally:
        if out:
            out.close()
    marks.append(len(records))
    readings.append(calibration_reading())
    for record, cal in zip(records, calibration_per_op(marks, readings,
                                                       len(records))):
        record.append(cal)

    doc = {
        "records": records,
        "errors": errors,
        "wall_s": perf_counter() - wall0,
        "peak_rss_mb": _peak_rss_mb(),
        "rss_end_mb": _rss_mb(),
    }
    if tracer:
        cache1 = tracer.cache_info()
        doc["layers"] = {
            label: [s.calls, s.total, s.self]
            for label, s in tracer.stats.items() if s.calls}
        doc["outcomes"] = tracer.outcomes
        doc["caches"] = {k: [cache1[k][0] - cache0[k][0],
                             cache1[k][1] - cache0[k][1], cache1[k][2]]
                         for k in cache1}
        doc["spans"] = len(tracer.spans)
        with open(trace_file, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return doc


def check(workload, seed, results_file):
    """Outcome per stored result: ok, unknown or wrong (done results),
    refused or error (as the timed pass recorded them)."""
    import ops

    runner = ops.Runner(workload)
    outcomes = []
    errors = []
    gen = workloads.stream(workload, seed)
    with open(results_file, "rb") as fh:
        while True:
            try:
                i, outcome, result = pickle.load(fh)
            except EOFError:
                break
            op = next(gen)
            if op["i"] != i:
                raise RuntimeError(f"stored result {i} does not match op "
                                   f"{op['i']}")
            if outcome == "done":
                prep = runner.prepare(op)
                try:
                    outcome = runner.check(op, prep, result)
                except ops.CheckFailed as exc:
                    outcome = "wrong"
                    if len(errors) < MAX_ERRORS:
                        errors.append(f"op {i} {op['kind']} wrong: {exc}")
            outcomes.append(outcome)
    return {"outcomes": outcomes, "errors": errors}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", type=int)
    mode.add_argument("--check", metavar="FILE")
    ap.add_argument("--cap", type=float, default=100.0,
                    help="start no op after this many seconds")
    ap.add_argument("--results", metavar="FILE")
    ap.add_argument("--trace", metavar="SPANS_FILE")
    args = ap.parse_args(argv)
    if args.check:
        doc = check(args.workload, args.seed, args.check)
    else:
        doc = run(args.workload, args.seed, args.count, args.cap,
                  args.results, args.trace)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
