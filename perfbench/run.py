"""quatwitt benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload {wq-forms,mixed-split,division-certify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports `src/quatwitt`; nothing
is built or installed).  Each invocation

1. compiles the library's bytecode, then times set-up in SETUP_SAMPLES
   fresh interpreters (`import quatwitt` plus the workload's fixed algebra
   data), two side by side where there are two CPUs, scales each time to
   the reference host speed and keeps the median;
2. runs the first S * OPS_PER_SECOND ops of the workload's seeded stream
   in one fresh worker interpreter per CPU (up to two) side by side, each
   pinned to its CPU and each a closed loop (one client, one thread, no
   think time), scales each op's time to the reference host speed, keeps
   its faster replay, and checks every result of the first replay untimed;
   with --trace 1 it runs that stream once untraced and once in a traced
   worker, side by side, and reports per-layer numbers;
3. runs `quatwitt check products` and `check morita` and compares the
   SHA-256 of their JSON reports with `suite_digests.json`;
4. prints every metric with its unit, writes a result file with provenance
   to perfbench/out/, and prints one JSON line:
   {"correct", "attempted", "failed", "metrics"}.

`failed` counts ops whose result was wrong or that raised an error other
than the library's documented refusals `SearchBoundExceeded` and
`FactorizationLimitExceeded`; refusals are reported as `refused` and lower
`ok_frac`.  `correct` is false when a
checked result is wrong or a suite digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from probe import normalized  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_SAMPLES = 10
# The timed pass runs once on each of up to two CPUs side by side, each
# replay a fresh interpreter pinned to its CPU.  Every replay has the same
# hash seed, so it makes the same calls in the same order from the same
# cache state.  Each op's time is scaled to the reference host speed by the
# probe readings around it (probe.py), and the faster replay is kept.  On
# a shared host a CPU can run 20-50% slower than usual for tens of seconds;
# the scaled minimum is steady where the raw times are not.
CPUS = (sorted(os.sched_getaffinity(0))[:2]
        if hasattr(os, "sched_getaffinity") else [])
# Wall seconds after which a timed pass starts no new op, so that even a
# much slower commit ends within the 180 s limit.
TIMED_CAP_S = 120.0
HASH_SEED = "0"
# ops_per_s is the rate over the stream's ops less its fastest and slowest
# TRIM share.  One lambda_all or mixed_equal can take seconds while most ops
# take milliseconds, so the rate of a whole stream swings with how many such
# ops a seed draws; the tail metrics keep the slow ops, and the rate of the
# whole stream is stored as stream_ops_per_s.
TRIM = 0.05
# Tail percentile per workload and op class, fixed so that runs compare the
# same percentile; each run records how many samples lie beyond it.
TAIL_PERCENTILE = {
    "wq-forms": {"construct": 90.0, "decide": 95.0},
    "mixed-split": {"construct": 98.3, "decide": 97.0},
    "division-certify": {"construct": 90.0, "decide": 85.0},
}
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("construct_p50_ms", "ms"),
    ("construct_tail_ms", "ms"),
    ("decide_p50_ms", "ms"),
    ("decide_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("decided_frac", "ratio"),
)

# per-layer count metric -> traced function label
COUNTED = {
    "invariants.lambda_herm.calls": "invariants.lambda_herm",
    "quaternions.mul.calls": "quaternions.Quaternion.__mul__",
    "mixed.twisted_trace_form.calls": "mixed.twisted_trace_form",
    "mixed.closed_form.calls": "mixed.odd_product_closed_form",
    "funcfield.omega_bar.calls": "funcfield.omega_bar",
    "polys.factor_poly.calls": "polys.factor_poly",
    "quadforms.witt_class.calls": "quadforms.witt_class",
    "quadforms.witt_equal.calls": "quadforms.witt_equal",
    "quadforms.is_isotropic.calls": "quadforms.is_isotropic",
    "fields.hilbert_symbol.calls": "fields.hilbert_symbol",
    "fields.factorize.calls": "fields.factorize",
    "hermitian.certificate.calls": "hermitian.hyperbolicity_certificate",
    "mixed.mixed_equal.calls": "mixed.mixed_equal",
    "cli.main.calls": "cli.main",
}
# per-layer time metric -> traced function label (outermost calls)
TOTALS = {
    "funcfield.kt_witt_equal.time_share": "funcfield.kt_witt_equal",
    "quadforms.witt_class.time_share": "quadforms.witt_class",
    "hermitian.certificate.time_share": "hermitian.hyperbolicity_certificate",
}
# Layer times are reported as shares of the traced ops' timed total
# (trace.ops_s): a layer a workload never calls has exactly 0, and a time
# that reads the same on every run is refused.  The seconds are in the
# result file.
PER_LAYER = (
    [(name, "count") for name in COUNTED]
    + [("fields.calls", "count")]
    + [(name, "ratio") for name in TOTALS]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [("quadforms.anis_cache_hit_ratio", "ratio"),
       ("fields.cache_hit_ratio", "ratio"),
       ("fields.cache_entries", "count"),
       ("quadforms.cache_entries", "count"),
       ("hermitian.certificate.found_ratio", "ratio"),
       ("mixed.mixed_equal.unknown_ratio", "ratio"),
       ("trace.ops_s", "s"),
       ("trace.overhead_s", "s")]
)


class BenchError(Exception):
    pass


def children(arg_lists, timeout=CHILD_TIMEOUT_S):
    """Run `python3 <args>` for every args in `arg_lists` side by side, the
    k-th pinned to CPUS[k % len(CPUS)], from the checkout root with src/
    importable and a fixed hash seed; waits for every one to end and
    returns their stdouts."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    deadline = time.monotonic() + timeout
    procs = []
    try:
        for k, args in enumerate(arg_lists):
            cpu = CPUS[k % len(CPUS)] if CPUS else None
            procs.append(subprocess.Popen(
                [sys.executable, *map(str, args)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                preexec_fn=None if cpu is None else
                (lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))))
        outs = []
        for args, proc in zip(arg_lists, procs):
            out, err = proc.communicate(
                timeout=max(0.1, deadline - time.monotonic()))
            if proc.returncode != 0:
                tail = err.decode(errors="replace").strip()[-2000:]
                raise BenchError(f"{' '.join(map(str, args))} exited "
                                 f"{proc.returncode}: {tail}")
            outs.append(out)
        return outs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()


def workers(workload, seed, arg_lists):
    outs = children([[HERE / "worker.py", "--workload", workload,
                      "--seed", seed, *args] for args in arg_lists])
    return [json.loads(out.splitlines()[-1]) for out in outs]


def checked(workload, seed, doc, results):
    """The check pass over the results a timed pass stored; each record's
    outcome becomes the checked one."""
    [check] = workers(workload, seed, [["--check", results]])
    results.unlink()
    for record, outcome in zip(doc["records"], check["outcomes"]):
        record[4] = outcome
    doc["errors"] += check["errors"]
    return doc


def timed_and_checked(workload, seed, count, results):
    """One timed replay per CPU side by side, each record keeping its
    fastest scaled time (its fastest raw time goes to record[5]), checked
    from the results the first replay stored."""
    runs = [["--count", count, "--cap", TIMED_CAP_S]] * max(1, len(CPUS))
    runs[0] = [*runs[0], "--results", results]
    doc, *others = workers(workload, seed, runs)
    for i, record in enumerate(doc["records"]):
        replays = [record] + [o["records"][i] for o in others
                              if i < len(o["records"])]
        record[3], record[5] = (min(normalized(r[3], r[5]) for r in replays),
                                min(r[3] for r in replays))
    return checked(workload, seed, doc, results)


def traced_and_checked(workload, seed, count, results, spans):
    """One untraced pass, checked, and one traced pass of the same ops,
    side by side on two CPUs where there are two (times not scaled)."""
    cap = ["--cap", TIMED_CAP_S if len(CPUS) > 1 else TIMED_CAP_S / 2]
    runs = [["--count", count, *cap, "--results", results],
            ["--count", count, *cap, "--trace", spans]]
    if len(CPUS) > 1:
        base, traced = workers(workload, seed, runs)
    else:
        [base], [traced] = (workers(workload, seed, [r]) for r in runs)
    return checked(workload, seed, base, results), traced


def warm_bytecode():
    """Compile the library once, so that set-up times an import from cached
    bytecode, as every run after a user's first does, even where the
    environment keeps imports from writing it (PYTHONDONTWRITEBYTECODE)."""
    children([["-m", "compileall", "-q", SRC / "quatwitt"]])


def setup_times(workload):
    side = max(1, len(CPUS))
    rounds = -(-SETUP_SAMPLES // side)
    return [normalized(*map(float, out.split())) for _ in range(rounds)
            for out in children([[HERE / "setup_probe.py", workload]] * side)]


def suite_guard():
    recorded = json.loads((HERE / "suite_digests.json").read_text())
    suites = list(recorded["sha256"])
    outs = children([["-m", "quatwitt.cli", "check", suite, "--output",
                      "json"] for suite in suites])
    out = {}
    for suite, report in zip(suites, outs):
        got = hashlib.sha256(report).hexdigest()
        out[suite] = {"sha256": got, "ok": got == recorded["sha256"][suite]}
    return out


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(sorted_vals, pct):
    """Value at percentile pct (nearest rank) and the samples beyond it."""
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1], len(sorted_vals) - k


def tail(sorted_vals, pct):
    """The fixed percentile, stepped down when fewer than 10 samples lie
    beyond it in this run."""
    while pct > 50:
        value, beyond = nearest_rank(sorted_vals, pct)
        if beyond >= 10:
            return value, pct, beyond
        pct = 100 - 2 * (100 - pct)
    value, beyond = nearest_rank(sorted_vals, 50.0)
    return value, 50.0, beyond


def summarize(workload, records):
    """Counts and end-to-end metrics of one untraced pass (ms for latency)."""
    lat = [r[3] for r in records]
    outcomes = [r[4] for r in records]
    n = len(records)
    count = {k: outcomes.count(k) for k in ("ok", "unknown", "refused",
                                            "wrong", "error")}
    cut = int(TRIM * n)
    middle = sorted(lat)[cut:n - cut]
    out = {
        "attempted": n,
        "outcomes": count,
        "ops": {
            "construct": sum(r[1] == "construct" for r in records),
            "decide": sum(r[1] == "decide" for r in records),
            "via_cli": sum(bool(r[2]) for r in records),
        },
        "ops_per_s": len(middle) / sum(middle),
        "stream_ops_per_s": n / sum(lat),
        "timed_s": sum(lat),
        "fail_frac": (count["refused"] + count["wrong"] + count["error"]) / n,
        "unknown_frac": count["unknown"] / n,
    }
    out["ok_frac"] = 1 - out["fail_frac"]
    out["decided_frac"] = 1 - out["unknown_frac"]
    for cls in ("construct", "decide"):
        vals = sorted(1000 * r[3] for r in records if r[1] == cls)
        out[f"{cls}_p50_ms"] = statistics.median(vals)
        value, pct, beyond = tail(vals, TAIL_PERCENTILE[workload][cls])
        out[f"{cls}_tail_ms"] = value
        out[f"{cls}_tail"] = {"percentile": pct, "beyond": beyond,
                              "samples": len(vals)}
    return out


def layer_metrics(traced, overhead_s):
    """Per-layer metrics, plus the seconds behind each share."""
    layers = traced["layers"]
    caches = traced["caches"]
    outcomes = traced["outcomes"]
    ops_s = sum(r[3] for r in traced["records"])

    def calls(label):
        return layers.get(label, [0, 0.0, 0.0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {name: calls(label) for name, label in COUNTED.items()}
    m["fields.calls"] = sum(v[0] for k, v in layers.items()
                            if k.startswith("fields."))
    seconds = {}
    for name, label in TOTALS.items():
        seconds[name.replace("time_share", "total_s")] = \
            layers.get(label, [0, 0.0, 0.0])[1]
        m[name] = ratio(seconds[name.replace("time_share", "total_s")], ops_s)
    for layer in LAYERS:
        seconds[f"{layer}.self_s"] = sum(v[2] for k, v in layers.items()
                                         if k.startswith(layer + "."))
        m[f"{layer}.self_share"] = ratio(seconds[f"{layer}.self_s"], ops_s)

    def cache_sum(prefix, idx):
        return sum(v[idx] for k, v in caches.items() if k.startswith(prefix))

    anis = caches.get("quadforms._anisotropic_reps_q_cached", [0, 0, 0])
    m["quadforms.anis_cache_hit_ratio"] = ratio(anis[0], anis[0] + anis[1])
    hits, misses = cache_sum("fields.", 0), cache_sum("fields.", 1)
    m["fields.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["fields.cache_entries"] = cache_sum("fields.", 2)
    m["quadforms.cache_entries"] = cache_sum("quadforms.", 2)
    cert = outcomes.get("hermitian.hyperbolicity_certificate", {})
    m["hermitian.certificate.found_ratio"] = ratio(
        cert.get("hyperbolic", 0), sum(cert.values()))
    eq = outcomes.get("mixed.mixed_equal", {})
    m["mixed.mixed_equal.unknown_ratio"] = ratio(eq.get("unknown", 0),
                                                 sum(eq.values()))
    m["trace.ops_s"] = ops_s
    m["trace.overhead_s"] = overhead_s
    return m, seconds


# ---------------------------------------------------------------------------
# provenance


def provenance(workload, seed, seconds, trace):
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    src = hashlib.sha256()
    for path in sorted((SRC / "quatwitt").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "why": WHY.get(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "closed_loop": "one client, one process, one thread, no think time",
    }


WHY = {w["name"]: w["why"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]} \
    if (ROOT / "BENCHMARK.json").is_file() else {}


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quatwitt" / "__init__.py").is_file():
        print(f"error: no quatwitt sources under {SRC}; run from the root "
              "of a quatwitt checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    size = workloads.stream_size(args.workload, args.seconds)
    results = OUT / f"{tag}.results.pickle"
    try:
        warm_bytecode()
        setup = setup_times(args.workload)
        if args.trace:
            spans = OUT / f"{tag}.spans.jsonl"
            base, traced = traced_and_checked(args.workload, args.seed, size,
                                              results, spans)
        else:
            base = timed_and_checked(args.workload, args.seed, size, results)
        guard = suite_guard()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = summarize(args.workload, base["records"])
    outcomes = summary["outcomes"]
    attempted = summary["attempted"]
    failed = outcomes["wrong"] + outcomes["error"]
    correct = outcomes["wrong"] == 0 and all(g["ok"] for g in guard.values())

    if args.trace:
        n = len(traced["records"])
        overhead = (sum(r[3] for r in traced["records"])
                    - sum(r[3] for r in base["records"][:n]))
        values, layer_seconds = layer_metrics(traced, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = dict(summary, setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    result = {
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 args.trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_samples_s": setup,
        "stream_size": size,
        "summary": summary,
        "peak_rss_mb": base["peak_rss_mb"],
        "rss_end_mb": base["rss_end_mb"],
        "records": base["records"],
        "suite_guard": guard,
        "errors": base["errors"],
    }
    if args.trace:
        result["layer_seconds"] = layer_seconds
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = traced["spans"]
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} ops "
          f"({summary['ops']['construct']} construct, "
          f"{summary['ops']['decide']} decide, "
          f"{summary['ops']['via_cli']} via cli), failed={failed}, "
          f"correct={correct}")
    for name, m in metrics.items():
        note = ""
        if name.endswith("_tail_ms"):
            t = summary[name[:-3]]
            note = (f"  (p{t['percentile']:g}, {t['beyond']} of "
                    f"{t['samples']} samples beyond)")
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  fail_frac {summary['fail_frac']:.6g}, "
          f"unknown_frac {summary['unknown_frac']:.6g}, "
          f"outcomes {summary['outcomes']}")
    print(f"  rss_end_mb {base['rss_end_mb']:.6g} MB, "
          f"peak_rss_mb {base['peak_rss_mb']:.6g} MB (not gated)")
    for suite, g in guard.items():
        print(f"  suite {suite}: sha256 {'matches' if g['ok'] else 'DIFFERS'}")
    for err in result["errors"][:5]:
        print(f"  {err}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
