"""pmod benchmark: one workload per run, a closed loop, checked answers.

    python3 bench/run.py --workload distmatrix-n2-f2 --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a source tree: pmod is imported from ./src and
nowhere else, so the tree is what gets measured. The workload is built
from --seed (same seed, same inputs), then one client sends its queries
in order, the next when the previous one has finished, cycling through
the list until --seconds have passed. Every answer is then checked
outside the timed region. Set-up and query times are divided by the
host's slowness at the time, read off reference slices run between
them (hostspeed.py), so the host's drift does not show as a change.

--trace 0 prints the end-to-end metrics. --trace 1 first runs the same
untraced window, then replays the first half of the queries it
completed with every public function of pmod's layer modules wrapped
(tracer.py) and prints the per-layer metrics, each per query of the
replay, and what each should move (LAYER_MAP). --workload all runs every workload in its own
process and prints each one's lines.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import importlib
import inspect
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPS = 3
SETUP_REF_S = 0.1  # reference slice before and after each set-up
REF_SHARE = 0.25   # reference slice after a query, share of its latency
BLOCK_S = 1.0      # query time one slowness factor is measured over

LAYER_MODULES = ("freemod", "presentation", "onedim", "interleave",
                 "distance", "characterize")
# Per-operation helpers stay unwrapped, like scalars and grading: their
# time counts in the self time of the layer function that calls them.
PER_OPERATION = {"interval_bottleneck", "format_extended", "w_field_zero"}

# per-layer metric -> (unit, end-to-end metric and workload it should move)
LAYER_MAP = {
    "interleave.self_s": (
        "s/query", "queries_per_s and latency_p90_ms on distmatrix-n2-f2;"
        " less on characterize-n2-f3"),
    "interleave.us_per_enumerated": (
        "us/cand", "queries_per_s and latency_p90_ms on distmatrix-n2-f2;"
        " less on characterize-n2-f3"),
    "distance.probes_per_query": (
        "probes/query", "queries_per_s on distmatrix-n2-f2; flat on"
        " characterize-n2-f3"),
    "distance.probes_no": (
        "probes/query", "queries_per_s on distmatrix-n2-f2; flat on"
        " characterize-n2-f3"),
    "distance.yes_probe_frac": (
        "frac", "queries_per_s on distmatrix-n2-f2; flat on"
        " characterize-n2-f3"),
    "interleave.space": (
        "cands/query", "queries_per_s on distmatrix-n2-f2; flat on"
        " characterize-n2-f3"),
    "interleave.enumerated_no": (
        "cands/query", "queries_per_s on distmatrix-n2-f2; flat on"
        " characterize-n2-f3"),
    "freemod.nullspace_s": (
        "s/query", "latency_p50_ms on characterize-n2-f3"),
    "freemod.nullspace_calls": (
        "calls/query", "latency_p50_ms on characterize-n2-f3"),
    "freemod.rref_s": ("s/query", "latency_p50_ms on characterize-n2-f3"),
    "freemod.span_membership_s": (
        "s/query", "latency_p50_ms on characterize-n2-f3"),
    "freemod.span_membership_calls": (
        "calls/query", "latency_p50_ms on characterize-n2-f3"),
    "presentation.parse_s": (
        "s/query", "latency_p50_ms on distmatrix-n2-f2; setup_s;"
        " queries_per_s on barcode-n1"),
    "presentation.minimize_s": (
        "s/query", "latency_p50_ms on distmatrix-n2-f2"),
    "presentation.minimize_calls_per_query": (
        "calls/query", "latency_p50_ms on distmatrix-n2-f2"),
    "onedim.matching_feasible_calls": (
        "calls/query", "queries_per_s on barcode-n1 only"),
    "onedim.matching_feasible_s": (
        "s/query", "queries_per_s on barcode-n1 only"),
    "onedim.matching_feasible_yield": (
        "frac", "queries_per_s on barcode-n1 only"),
    "onedim.barcode_s": ("s/query", "queries_per_s on barcode-n1 only"),
    "onedim.diagram_bottleneck_s": (
        "s/query", "queries_per_s on barcode-n1 only"),
    "characterize.compatible_presentations_s": (
        "s/query", "latency_p50_ms on characterize-n2-f3"),
    "interleave.check_closure_s": (
        "s/query", "latency_p50_ms on characterize-n2-f3 and"
        " distmatrix-n2-f2"),
    "distance.candidate_set_s": (
        "s/query", "latency_p50_ms on distmatrix-n2-f2"),
    "trace.overhead_frac": ("frac", "none: tracing cost, the replay's traced"
                            " wall time over the same queries' untraced"
                            " time, minus 1"),
}

E2E_UNITS = {"queries_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_pmod():
    """Fresh import of pmod and pmod.cli from ./src, and nothing else."""
    for name in [m for m in sys.modules
                 if m == "pmod" or m.startswith("pmod.")]:
        del sys.modules[name]
    pmod = importlib.import_module("pmod")
    importlib.import_module("pmod.cli")
    if Path(pmod.__file__).resolve().parent != SRC / "pmod":
        fail(f"pmod was imported from {pmod.__file__}, not from {SRC}")
    return pmod


def setup(workload, seed):
    """SETUP_REPS times: import pmod and build the inputs, between two
    reference slices. Returns the median of the set-up times, each
    divided by its slices' slowness factor, and the last import and
    inputs."""
    times = []
    meter = hostspeed.Meter()
    for _ in range(SETUP_REPS):
        meter.reset()
        meter.run(SETUP_REF_S)
        t0 = time.perf_counter()
        pmod = import_pmod()
        queries = workload.build(pmod, seed)
        t = time.perf_counter() - t0
        meter.run(SETUP_REF_S)
        times.append(t / meter.factor())
    return statistics.median(times), pmod, queries


def run_query(workload, pmod, q):
    try:
        return workload.run(pmod, q)
    except Exception as exc:  # a failed query is counted, not fatal
        return exc


def closed_loop(workload, pmod, queries, seconds):
    """Send queries one after another, cycling, until seconds pass.

    After each query a reference slice of REF_SHARE of its latency
    runs (hostspeed.py). Each latency is divided by the slowness factor
    of the slices in its block, about BLOCK_S of query time. Returns
    the records, the raw and the normalized latencies and the wall time.
    """
    meter = hostspeed.Meter()
    records, raw, norm, block = [], [], [], []

    def close_block():
        f = meter.factor()
        raw.extend(block)
        norm.extend(lat / f for lat in block)
        block.clear()
        meter.reset()

    start = time.perf_counter()
    end = start
    while end - start < seconds:
        q = queries[len(records) % len(queries)]
        t0 = time.perf_counter()
        ans = run_query(workload, pmod, q)
        lat = time.perf_counter() - t0
        records.append((q, ans))
        block.append(lat)
        meter.run(REF_SHARE * lat)
        if sum(block) >= BLOCK_S:
            close_block()
        end = time.perf_counter()
    if block:
        close_block()
    return records, raw, norm, end - start


def layer_targets(pmod):
    targets = {}
    for short in LAYER_MODULES:
        mod = sys.modules[f"pmod.{short}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in PER_OPERATION):
                targets[f"{short}.{name}"] = obj
    return targets


def traced_replay(workload, pmod, queries):
    """Replay queries with every layer function wrapped; returns the
    records, the tracer and the traced wall time."""
    targets = layer_targets(pmod)
    is_interleaved = targets["interleave.is_interleaved"]

    def search_space(args, kwargs, result):
        # (p^dim U of the searched side, answered No), read through a
        # budget-0 call, which raises before enumerating anything
        try:
            is_interleaved(args[0], 0)
        except pmod.BudgetExceeded as exc:
            return exc.required, result is None
        raise AssertionError("a budget-0 search did not raise")

    def feasible(args, kwargs, result):
        return result[0]

    tracer = Tracer()
    namespaces = [m for n, m in sys.modules.items()
                  if n == "pmod" or n.startswith("pmod.")]
    tracer.install(namespaces, targets,
                   {"interleave.is_interleaved": search_space,
                    "onedim.matching_feasible": feasible})
    records = []
    try:
        start = tracer.now()
        for qid, q in enumerate(queries):
            tracer.qid = qid
            records.append((q, run_query(workload, pmod, q)))
        wall = tracer.now() - start
    finally:
        tracer.uninstall()
    return records, tracer, wall


def layer_metrics(tracer, nqueries, wall, untraced_wall):
    tot = tracer.totals()

    def self_s(name):
        return tot.get(name, (0, 0.0))[1] / nqueries

    def calls(name):
        return tot.get(name, (0, 0.0))[0] / nqueries

    probes = [s for s in tracer.spans if s.name == "interleave.is_interleaved"]
    no = [s for s in probes if s.note[1]]
    enumerated_no = sum(s.note[0] for s in no)
    feas = [s.note for s in tracer.spans
            if s.name == "onedim.matching_feasible"]
    m = {
        "interleave.self_s": self_s("interleave.is_interleaved"),
        "interleave.us_per_enumerated":
            1e6 * sum(s.self_time for s in no) / enumerated_no
            if enumerated_no else 0.0,
        "distance.probes_per_query": len(probes) / nqueries,
        "distance.probes_no": len(no) / nqueries,
        "distance.yes_probe_frac":
            (len(probes) - len(no)) / len(probes) if probes else 0.0,
        "interleave.space": sum(s.note[0] for s in probes) / nqueries,
        "interleave.enumerated_no": enumerated_no / nqueries,
        "freemod.nullspace_s": self_s("freemod.nullspace"),
        "freemod.nullspace_calls": calls("freemod.nullspace"),
        "freemod.rref_s": self_s("freemod.rref"),
        "freemod.span_membership_s": self_s("freemod.span_membership"),
        "freemod.span_membership_calls": calls("freemod.span_membership"),
        "presentation.parse_s": self_s("presentation.parse"),
        "presentation.minimize_s": self_s("presentation.minimize"),
        "presentation.minimize_calls_per_query":
            calls("presentation.minimize"),
        "onedim.matching_feasible_calls": len(feas) / nqueries,
        "onedim.matching_feasible_s": self_s("onedim.matching_feasible"),
        "onedim.matching_feasible_yield":
            sum(feas) / len(feas) if feas else 0.0,
        "onedim.barcode_s": self_s("onedim.barcode"),
        "onedim.diagram_bottleneck_s": self_s("onedim.diagram_bottleneck"),
        "characterize.compatible_presentations_s":
            self_s("characterize.compatible_presentations"),
        "interleave.check_closure_s": self_s("interleave.check_closure"),
        "distance.candidate_set_s": self_s("distance.candidate_set"),
        "trace.overhead_frac": wall / untraced_wall - 1,
    }
    return {k: {"value": v, "unit": LAYER_MAP[k][0]} for k, v in m.items()}


def report_failures(bad, records):
    for k in sorted(bad)[:10]:
        q, _ = records[k]
        print(f"FAILED query {q.key}: {bad[k]}")


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    setup_s, pmod, queries = setup(workload, args.seed)
    records, raw, lat, wall = closed_loop(workload, pmod, queries,
                                          args.seconds)
    n = len(records)
    print(f"{workload.name} seed {args.seed}: {n} queries in {wall:.3f} s,"
          f" closed loop, 1 client ({len(queries)} distinct queries)")

    if args.trace:
        half = max(1, n // 2)
        replay, tracer, traced_wall = traced_replay(
            workload, pmod, [q for q, _ in records[:half]])
        bad = workload.check(pmod, records + replay)
        report_failures(bad, records + replay)
        metrics = layer_metrics(tracer, half, traced_wall, sum(raw[:half]))
        self_total = sum(s.self_time for s in tracer.spans)
        print(f"summed self time {self_total:.3f} s of traced wall "
              f"{traced_wall:.3f} s ({len(tracer.spans)} spans)")
        correct = not bad and self_total <= traced_wall
        for k, v in metrics.items():
            print(f"{k} {v['value']:.6g} {v['unit']}  -> {LAYER_MAP[k][1]}")
        failed = len({k if k < n else k - n for k in bad})
    else:
        bad = workload.check(pmod, records)
        report_failures(bad, records)
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        raw_deciles = statistics.quantiles(raw, n=10, method="inclusive")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"queries_per_s": n / sum(lat),
                  "latency_p50_ms": 1e3 * deciles[4],
                  "latency_p90_ms": 1e3 * deciles[8],
                  "setup_s": setup_s,
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
        for k, v in metrics.items():
            print(f"{k} {v['value']:.6g} {v['unit']}")
        print(f"latency samples {n}; setup median of {SETUP_REPS}")
        print(f"as measured on this host, not normalized: queries_per_s "
              f"{n / sum(raw):.6g} 1/s, latency_p50_ms "
              f"{1e3 * raw_deciles[4]:.6g} ms, latency_p90_ms "
              f"{1e3 * raw_deciles[8]:.6g} ms; mean slowness factor "
              f"{sum(raw) / sum(lat):.4g}")
        failed = len(bad)
        correct = not bad
        print(f"failed_frac {failed / n:.6g} ({failed}/{n})")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload, each in a child process of its own."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "pmod" / "__init__.py").is_file():
        fail(f"no pmod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
