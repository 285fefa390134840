#!/usr/bin/env python3
"""Seastar end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_engine (perfbench/CMakeLists.txt, from ../src) into
.bench_build/perfbench, runs the workload, checks its outputs against an
independent executor and prints, as the last line of stdout, one JSON object
with the keys correct / attempted / failed / metrics. --trace 0 reports the
end-to-end metrics (measured with tracing and profiling off); --trace 1
reports the per-layer metrics from a traced run. Every other line of stdout
is a human-readable report: host stamp, memory probe, each metric with its
unit and sample count, and for training the additive time breakdown.

Exit status: 0 when every check passed, 1 when a check failed (the JSON line
is still printed, with correct=false), 2 on a build or run error (no JSON).
See perfbench/README.md for the workloads, metrics and noise study.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
ENGINE = os.path.join(BUILD_DIR, "perfbench_engine")

WORKLOADS = ("train_gat_cora", "train_gcn_amz", "serve_gcn_cora")

# Set-up is timed in fresh processes (plan cache and allocator pool cold
# each time); setup_s is the median over them and the measured run's own
# set-up. Half the processes run before the measured run and half after it,
# so the median spans the host phases of a whole run. The cheaper a
# workload's set-up, the larger a share of it host jitter is and the more
# processes it gets (about 0.15 s, 0.35 s and 0.03 s each).
SETUP_PROCESSES = {"train_gat_cora": 20, "train_gcn_amz": 12, "serve_gcn_cora": 40}

# Serving objective and load shape (also stated in BENCHMARK.json).
LATENCY_LIMIT_MS = 25.0  # Client-timed p90 limit for a capacity rung.
LAG_LIMIT_MS = 1.0       # Median generator lag limit for a capacity rung.
FIXED_QPS = 1000.0       # The fixed operating rate (about a tenth of capacity).
WARM_QPS = 4000.0        # Warm-up rate: exercises every batch size 1..8.
LADDER_RUNGS = 12        # Coarse rungs (x1.5 from 4 x FIXED_QPS), retries, bisection.
FIXED_SHARE = 0.35       # Share of --seconds spent at the fixed operating point,
LADDER_SHARE = 0.55      # and on the ladder; warm-up and the backlog an
                         # overloaded rung leaves to drain take the rest.

# Relative tolerance for the training loss against the reference executor.
LOSS_RTOL = 1e-4

END_TO_END = {
    "op_ms_mean": "ms",
    "op_ms_p90": "ms",
    "capacity_qps": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}

PER_LAYER = {
    "graph.build_ms": "ms",
    "gir.compile_ms": "ms",
    "gir.first_op_ms": "ms",
    "exec.plan_misses_steady": "count",
    "exec.forward_ms": "ms",
    "exec.unit_ms": "ms",
    "exec.unit_edges_per_s": "1/s",
    "exec.units_per_op": "count",
    "exec.edges_per_op": "count",
    "exec.tiled_units_per_op": "count",
    "exec.tile_passes_per_op": "count",
    "tensor.backward_ms": "ms",
    "tensor.loss_ms": "ms",
    "tensor.dense_ms": "ms",
    "tensor.alloc_requests_per_op": "count",
    "tensor.fresh_mallocs_per_op": "count",
    "tensor.pool_hit_ratio": "ratio",
    "core.optimizer_ms": "ms",
    "core.unattributed_ms": "ms",
    "parallel.participants": "count",
    "parallel.launches_per_op": "count",
    "parallel.dispatches_per_op": "count",
    "parallel.cpu_per_wall": "ratio",
    "serve.latency_ms_p99": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.forward_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.generator_lag_ms_max": "ms",
    "serve.shed": "count",
    "serve.expired": "count",
    "serve.degraded": "count",
    "serve.failed": "count",
    "common.traced_op_ms_mean": "ms",
    "common.trace_overhead_pct": "%",
}


class BenchError(Exception):
    """A build or run failure: no result can be reported."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- Build -------------------------------------------------------------------


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_tool(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run_tool(["cmake", "--build", BUILD_DIR, "--target", "perfbench_engine", "-j", jobs])


def run_tool(command):
    # Tool output goes to stderr so stdout stays the report.
    completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if completed.returncode != 0:
        raise BenchError("%s failed with status %d" % (command[0], completed.returncode))


# ---- Engine processes ----------------------------------------------------------


class Engine:
    """One perfbench_engine process speaking JSON lines on stdout."""

    def __init__(self, workload, seed, seconds, trace, scale, extra=()):
        command = [ENGINE, "--workload=" + workload, "--seed=%d" % seed,
                   "--seconds=%r" % seconds, "--trace=%d" % trace, "--scale=%r" % scale]
        command.extend(extra)
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        # A hung engine is killed, which ends any blocked read with EOF.
        self.watchdog = threading.Timer(2 * seconds + 120, self.proc.kill)
        self.watchdog.start()

    def read(self, kind):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("engine exited before its %s line" % kind)
        record = json.loads(line)
        if record.get("kind") != kind:
            raise BenchError("engine sent %r, expected %r" % (record.get("kind"), kind))
        return record

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self):
        """Waits for the engine to exit; its status must be 0."""
        self.proc.stdin.close()
        status = self.proc.wait()
        if status != 0:
            raise BenchError("engine exited with status %d" % status)

    def kill(self):
        """Stops the engine if it still runs and reaps it (always safe)."""
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def setup_samples(args, count):
    """The set-up records of `count` set-up-only processes."""
    samples = []
    for _ in range(count):
        engine = Engine(args.workload, args.seed, args.seconds, 0, args.scale, ["--setup-only"])
        try:
            samples.append(engine.read("setup")["setup"])
            engine.close()
        finally:
            engine.kill()
    return samples


# ---- Serving schedule ----------------------------------------------------------


def drive_serve(engine, seconds, trace):
    """Sends the rung schedule; returns (warm-up rungs, fixed rungs by
    server, ladder rungs)."""
    def rung(qps, secs, server, mode="measure"):
        engine.command("rung %.3f %.3f %s %s" % (qps, secs, server, mode))
        return engine.read("rung")

    servers = ["plain", "traced"] if trace else ["plain"]
    warm = []
    for server in servers:
        warm.append(rung(WARM_QPS, 0.3, server, "warm"))
        warm.append(rung(FIXED_QPS, 0.3, server, "warm"))

    # The fixed operating point runs in short segments spread over the whole
    # run, one before each ladder rung, so it samples every host phase the
    # run sees. The traced run alternates its two servers A-B-B-A per pair
    # of segments so both arms sample the same phases.
    ladder_server = "traced" if trace else "plain"
    fixed = {server: [] for server in servers}
    segment_seconds = FIXED_SHARE * seconds / LADDER_RUNGS
    rung_seconds = LADDER_SHARE * seconds / LADDER_RUNGS
    ladder = []
    low, high = 0.0, None
    rate = 4.0 * FIXED_QPS
    retried = False  # Whether the current x1.5 rung already failed once.
    while len(ladder) < LADDER_RUNGS:
        if trace:
            server = ("plain", "traced", "traced", "plain")[len(ladder) % 4]
        else:
            server = "plain"
        fixed[server].append(rung(FIXED_QPS, segment_seconds, server))
        # Capacity ladder: x1.5 rungs from four times the fixed rate until
        # one fails, then bisection between the last pass and the first
        # fail. A failing x1.5 rung is retried once before it counts, so one
        # host stall cannot cap the capacity far below the knee.
        result = rung(rate, rung_seconds, ladder_server)
        ladder.append(result)
        if stats.rung_passes(result, LATENCY_LIMIT_MS, LAG_LIMIT_MS):
            low = rate
        elif high is None and not retried:
            retried = True
            continue
        else:
            high = rate
        rate = rate * 1.5 if high is None else (low + high) / 2.0
    engine.command("end")
    return warm, fixed, ladder


# ---- Metrics -------------------------------------------------------------------


def p50(values):
    return stats.percentile(values, 50)


def per_op(total, ops):
    return total / ops if ops else 0.0


class Report:
    """Metric values with units and sample counts, plus the run's checks."""

    def __init__(self):
        self.values = {}
        self.samples = {}
        self.failures = []  # Human-readable failed checks.
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def put(self, name, value, samples=1):
        self.values[name] = float(value)
        self.samples[name] = samples

    def fail(self, count, why):
        self.failed += count
        self.failures.append(why)


def closed_loop_end_to_end(report, op_ms):
    """Mean and p90 operation time; capacity is the closed loop's
    throughput, operations completed per second of operation time."""
    n = len(op_ms)
    report.put("op_ms_mean", statistics.mean(op_ms), n)
    report.put("op_ms_p90", stats.percentile(op_ms, 90), n)
    report.put("capacity_qps", 1000.0 * n / sum(op_ms), n)


def window_per_layer(report, window, ops):
    report.put("exec.plan_misses_steady", window["plan_misses"], ops)
    report.put("tensor.alloc_requests_per_op", per_op(window["alloc_requests"], ops), ops)
    report.put("tensor.fresh_mallocs_per_op", per_op(window["fresh_mallocs"], ops), ops)
    report.put("tensor.pool_hit_ratio",
               per_op(window["pool_hits"], window["alloc_requests"]), ops)
    report.put("exec.tiled_units_per_op", per_op(window["tiled_units"], ops), ops)
    report.put("exec.tile_passes_per_op", per_op(window["tile_passes"], ops), ops)
    report.put("parallel.launches_per_op", per_op(window["simt_launches"], ops), ops)
    report.put("parallel.dispatches_per_op", per_op(window["simt_dispatches"], ops), ops)


def steady_invariants(report, window):
    if window["plan_misses"] != 0:
        report.fail(1, "steady state compiled %d plans" % window["plan_misses"])
    if window["fresh_mallocs"] != 0:
        report.fail(1, "steady state made %d fresh mallocs" % window["fresh_mallocs"])


def split_traced(ops, key):
    traced = [v for v, t in zip(ops[key], ops["traced"]) if t]
    plain = [v for v, t in zip(ops[key], ops["traced"]) if not t]
    return traced, plain


def trace_overhead(report, traced_op_ms, plain_op_ms):
    traced_mean = statistics.mean(traced_op_ms)
    report.put("common.traced_op_ms_mean", traced_mean, len(traced_op_ms))
    report.put("common.trace_overhead_pct",
               100.0 * (traced_mean / statistics.mean(plain_op_ms) - 1.0),
               len(traced_op_ms) + len(plain_op_ms))


def train_metrics(report, result, trace):
    ops = result["ops"]
    n = len(ops["op_ms"])
    report.attempted += n
    check = result["check"]
    for got, want in zip(check["losses"], check["reference_losses"]):
        if not abs(got - want) <= LOSS_RTOL * max(1.0, abs(want)):
            report.fail(1, "loss %.7g differs from %s %.7g" % (got, check["reference_executor"],
                                                              want))
    if check["nonfinite_losses"]:
        report.fail(check["nonfinite_losses"], "%d epochs had a non-finite loss"
                    % check["nonfinite_losses"])
    steady_invariants(report, result["window"])
    if not trace:
        closed_loop_end_to_end(report, ops["op_ms"])
        return

    window_per_layer(report, result["window"], n)
    traced_op, plain_op = split_traced(ops, "op_ms")
    trace_overhead(report, traced_op, plain_op)
    # Means over the traced epochs, so the phases add up to the epoch.
    t = {key: statistics.mean(split_traced(ops, key)[0]) for key in ops}
    nt = len(traced_op)
    phases = {
        "exec.forward_ms": t["forward_ms"],
        "tensor.loss_ms": t["loss_ms"],
        "tensor.backward_ms": t["backward_ms"],
        "core.optimizer_ms": t["optimizer_ms"],
    }
    for name, value in phases.items():
        report.put(name, value, nt)
    unattributed = t["op_ms"] - sum(phases.values())
    report.put("core.unattributed_ms", unattributed, nt)
    report.notes.append(
        "breakdown (traced epochs, mean ms): forward %.3f + loss %.3f + backward %.3f + "
        "optimizer %.3f + unattributed %.3f = epoch %.3f; untraced epoch %.3f (residual %.3f)"
        % (t["forward_ms"], t["loss_ms"], t["backward_ms"], t["optimizer_ms"], unattributed,
           t["op_ms"], statistics.mean(plain_op), t["op_ms"] - statistics.mean(plain_op)))
    report.put("exec.unit_ms", t["unit_ms"], nt)
    report.put("exec.unit_edges_per_s", 1000.0 * t["unit_edges"] / t["unit_ms"], nt)
    report.put("exec.units_per_op", t["units"], nt)
    report.put("exec.edges_per_op", t["unit_edges"], nt)
    report.put("tensor.dense_ms", t["forward_ms"] + t["backward_ms"] - t["unit_ms"], nt)
    report.put("parallel.cpu_per_wall", sum(ops["cpu_ms"]) / sum(ops["op_ms"]), n)


def serve_metrics(report, result, warm, fixed, ladder, trace):
    # Warm-up requests are operations too: they enter the counts and the
    # checks, though not the latency statistics.
    sent = warm + [r for rs in fixed.values() for r in rs] + ladder
    counts = {key: sum(r[key] for r in sent)
              for key in ("shed", "expired", "failed", "degraded", "mismatched")}
    report.attempted += sum(r["sent"] for r in sent)
    for key, count in counts.items():
        if count:
            report.fail(count, "%d requests %s" % (count, key))
    for stats_key in ("plain_stats", "traced_stats"):
        s = result.get(stats_key)
        if s and s["submitted"] != s["served"] + s["degraded"] + s["shed"] + s["expired"] + s[
                "failed"]:
            report.fail(1, "%s accounting identity broken" % stats_key)
    # Steady invariants hold over the fixed operating point (after warm-up);
    # ladder rungs reach batch shapes and backlogs the fixed point never sees.
    for rungs in fixed.values():
        for rung in rungs:
            steady_invariants(report, rung["window"])

    arm = "traced" if trace else "plain"
    latency = [x for r in fixed[arm] for x in r["latency_ms"]]
    if not trace:
        # Each statistic is the median over the fixed-rate segments of the
        # segment's own value, so a host stall in one segment moves it less
        # than it would move a pooled mean or tail.
        report.put("op_ms_mean",
                   statistics.median(statistics.mean(r["latency_ms"]) for r in fixed[arm]),
                   len(latency))
        report.put("op_ms_p90",
                   statistics.median(stats.percentile(r["latency_ms"], 90) for r in fixed[arm]),
                   len(latency))
        report.put("capacity_qps", stats.capacity(ladder, LATENCY_LIMIT_MS, LAG_LIMIT_MS),
                   len(ladder))
        report.notes.append("ladder (qps pass/fail: p90 ms, lag p50 ms): " + ", ".join(
            "%.0f%s:%.2f,%.2f" % (r["qps"], "+" if stats.rung_passes(r, LATENCY_LIMIT_MS,
                                                                    LAG_LIMIT_MS) else "-",
                                 stats.percentile(r["latency_ms"], 90),
                                 stats.percentile(r["lag_ms"], 50)) for r in ladder))
        return

    traced_rungs = fixed["traced"]
    requests = sum(r["sent"] for r in traced_rungs)
    window = {key: sum(r["window"][key] for r in traced_rungs)
              for key in traced_rungs[0]["window"]}
    window_per_layer(report, window, requests)
    untraced = [x for r in fixed["plain"] for x in r["latency_ms"]]
    trace_overhead(report, latency, untraced)
    # The tail is taken from the untraced server, so tracing is not in it.
    report.put("serve.latency_ms_p99", stats.percentile(untraced, 99), len(untraced))
    if not stats.supported(len(untraced), 99):
        report.notes.append("serve.latency_ms_p99 rests on %d requests" % len(untraced))
    report.put("serve.queue_wait_ms_p50", p50([x for r in traced_rungs for x in r["queue_ms"]]),
               len(latency))
    report.put("serve.forward_ms_p50", p50([x for r in traced_rungs for x in r["exec_ms"]]),
               len(latency))
    report.put("serve.generator_lag_ms_max", max(x for r in traced_rungs for x in r["lag_ms"]),
               requests)
    # Batch size where it matters: the highest passing ladder rung.
    passing = [r for r in ladder if stats.rung_passes(r, LATENCY_LIMIT_MS, LAG_LIMIT_MS)]
    knee = max(passing, key=lambda r: r["qps"]) if passing else ladder[0]
    report.put("serve.batch_size_mean", statistics.mean(knee["batch_size"] or [0.0]),
               len(knee["batch_size"]))
    for key in ("shed", "expired", "degraded", "failed"):
        report.put("serve." + key, counts[key], report.attempted)
    report.put("parallel.cpu_per_wall", window["cpu_s"] / window["wall_s"], requests)


# ---- Main ----------------------------------------------------------------------


def measure(args):
    serving = args.workload == "serve_gcn_cora"
    processes = SETUP_PROCESSES[args.workload]
    setups = setup_samples(args, processes // 2)
    engine = Engine(args.workload, args.seed, args.seconds, args.trace, args.scale)
    try:
        setups.append(engine.read("setup")["setup"])
        if serving:
            warm, fixed, ladder = drive_serve(engine, args.seconds, args.trace)
        result = engine.read("result")
        engine.close()
    finally:
        engine.kill()
    setups.extend(setup_samples(args, processes - processes // 2))

    report = Report()
    trace = bool(args.trace)
    if serving:
        serve_metrics(report, result, warm, fixed, ladder, trace)
    else:
        train_metrics(report, result, trace)

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    if trace:
        report.put("graph.build_ms", setup_median("graph_build_ms"), len(setups))
        report.put("gir.compile_ms", setup_median("compile_ms"), len(setups))
        report.put("gir.first_op_ms", setup_median("first_op_ms"), len(setups))
        report.put("parallel.participants", result["host"]["participants"])
        # Layers this workload does not exercise read 0.
        for name in PER_LAYER:
            report.values.setdefault(name, 0.0)
            report.samples.setdefault(name, 0)
    else:
        report.put("setup_s", setup_median("setup_s"), len(setups))
        report.put("peak_mem_mb", result["peak_mem_mb"])
    return report, result


def emit(args, report, result):
    names = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in names if name not in report.values]
    if missing:
        raise BenchError("metrics not computed: %s" % ", ".join(missing))
    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds,
                                                       args.trace))
    print("host: " + json.dumps(result["host"], sort_keys=True))
    print("memory probe: %.2f ms before, %.2f ms after (not applied to any metric)"
          % (result["probe_before_ms"], result["probe_after_ms"]))
    print("inputs: %d vertices, %d edges" % (result["num_vertices"], result["num_edges"]))
    for name in names:
        print("  %-36s %14.6g %-6s n=%d" % (name, report.values[name], names[name],
                                           report.samples[name]))
    for note in report.notes:
        print(note)
    for failure in report.failures:
        print("CHECK FAILED: " + failure)
    print("attempted %d, failed %d" % (report.attempted, report.failed))
    correct = report.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.values[name], "unit": names[name]} for name in names},
    }), flush=True)
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (tests use small values)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        build()
        report, result = measure(args)
        return emit(args, report, result)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
