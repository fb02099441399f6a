#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/rfbench from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload drive|fleet|quantized \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/. The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics, reduced from the span dump the driver writes at exit.
The exit code is 0 only when every output was correct. perfbench/NOTES.md
describes the workloads and metrics.
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_ROOT = os.path.join(ROOT, ".bench_build", "trace")
WORKLOADS = ("drive", "fleet", "quantized")

# Every fp32 output must equal the graph reference bitwise, so fp32
# workloads agree on every pixel; int8 may flip pixels near the threshold.
MASK_AGREEMENT_FLOOR = {"drive": 1.0, "fleet": 1.0, "quantized": 0.98}
# How far the traced per-frame span sum may sit from the untraced p50, as a
# share of it (both best of repeats). The tracing overhead measured -3% to
# +4%; the rest allows for the host's noise between the interleaved halves
# (NOTES.md).
SPAN_SUM_TOLERANCE = 0.2
# The library's top-level obs spans must cover this share of each driver
# span around a model call (median); see `per_layer`.
MIN_SPAN_COVERAGE = 0.9
# Driver spans around one model call: closed loops time the roadseg call,
# fleet times the wait for the front door's answer.
MODEL_CALL_SPANS = ("roadseg.full", "roadseg.reuse", "roadseg.rgb_only",
                    "serve.await")
# The driver needs a few seconds for inputs, references and set-ups on
# top of the measured time; the build before it has no limit here.
DRIVER_SLACK_S = 60

SOLVERS = ("reference", "blocked", "blocked_prepacked", "blocked_avx2",
           "blocked_mt2", "blocked_mt4", "int8_reference", "int8_blocked",
           "int8_avx2", "tconv_reference", "tconv_blocked", "tconv_prepacked")
# Library spans whose self time the traced run reports (per frame).
LIBRARY_SPANS = (
    ["plan.execute", "plan.stage0"]
    + ["plan.conv%d" % i for i in range(1, 5)]
    + ["rgb_encoder.stage%d" % i for i in range(5)]
    + ["depth_encoder.stage%d" % i for i in range(5)]
    + ["fusion.stage%d" % i for i in range(5)]
    + ["awn.weight", "decoder"]
    + ["decoder.up%d" % i for i in range(4)]
    + ["decoder.head", "depth_cache.reuse", "rgb_only",
       "engine.forward", "frontdoor.submit"])


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def local_env():
    """Environment whose temporary files stay inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=local_env()).returncode:
            fail("build step failed: " + " ".join(step), 1)
    return os.path.join(BUILD_DIR, "rfbench")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def ratio(num, den):
    return num / den if den else 0.0


def best_of(values):
    """Best-of-repeats timings, one per work item; an item never served
    (JSON null) has none."""
    return [v for v in values if v is not None]


def end_to_end(raw):
    """Timings are best-of-repeats: each frame of the input pool (fleet:
    each frame of each burst in the cycle) keeps the fastest of its many
    repeats in the run, and `setup_s` is the fastest set-up repetition; see
    NOTES.md. Shares count every frame sent."""
    p = raw["untraced"]
    frame_ms = best_of(p["best_frame_ms"])
    in_slo = sum(1 for ms in frame_ms if ms <= raw["slo_ms"])
    return {
        "latency_ms_p50": (percentile(frame_ms, 0.5), "ms"),
        "latency_ms_p90": (percentile(frame_ms, 0.9), "ms"),
        "goodput_fps": (1000.0 * ratio(in_slo, sum(best_of(p["best_unit_ms"]))),
                        "1/s"),
        "in_slo_share": (ratio(p["in_slo"], p["sent"]), "share"),
        "fused_share": (ratio(p["fused"], p["sent"]), "share"),
        "mask_agreement": (ratio(p["mask_agree"], p["mask_pixels"]), "share"),
        "cpu_ms_per_frame": (ratio(sum(best_of(p["best_unit_cpu_ms"])),
                                   len(frame_ms)), "ms"),
        "setup_s": (min(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


# ---------------------------------------------------------------------------
# Traced-run reducer

def read_driver_spans(path):
    spans = []  # (frame, index, parent, name, start_ns, end_ns)
    with open(path) as f:
        for line in f:
            frame, idx, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(frame), int(idx), int(parent), name, int(start),
                          int(end)))
    return spans


def library_spans(path):
    """Reads the library's obs spans (microseconds). Returns their
    durations and self times by name, and the top-level spans (those inside
    no other span of their recording thread) merged across threads into a
    sorted list of disjoint intervals. Spans nest by interval containment
    within one thread; self time is a span's duration minus its direct
    children's."""
    by_tid = defaultdict(list)
    with open(path) as f:
        for line in f:
            tid, name, start, dur = line.rstrip("\n").split("\t")
            by_tid[tid].append((int(start), int(dur), name))
    durations = defaultdict(list)
    self_us = defaultdict(float)
    top = []
    for events in by_tid.values():
        events.sort(key=lambda e: (e[0], -e[1]))
        stack = []  # [end, name, duration, child time]

        def pop():
            end, name, dur, child = stack.pop()
            self_us[name] += dur - child

        for start, dur, name in events:
            end = start + dur
            while stack and not (start >= stack[-1][0] - stack[-1][2]
                                 and end <= stack[-1][0]):
                pop()
            if stack:
                stack[-1][3] += dur
            else:
                top.append((start, end))
            stack.append([end, name, dur, 0.0])
            durations[name].append(dur)
        while stack:
            pop()
    union = []
    for start, end in sorted(top):
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    return durations, self_us, union


def covered_us(union, starts, lo, hi):
    """Microseconds of [lo, hi] that the disjoint intervals cover."""
    total = 0.0
    i = max(0, bisect.bisect_right(starts, lo) - 1)
    while i < len(union) and union[i][0] < hi:
        total += max(0.0, min(union[i][1], hi) - max(union[i][0], lo))
        i += 1
    return total


def per_layer(raw, trace_dir):
    t = raw["traced"]
    u = raw["untraced"]
    layer = t["layer"]
    frames = max(1, t["served"])
    spans = read_driver_spans(os.path.join(trace_dir, "driver_spans.tsv"))
    durations, self_us, union = library_spans(
        os.path.join(trace_dir, "obs_spans.tsv"))
    starts = [a for a, _ in union]

    # Span sum: the driver's top-level spans of each frame (its calls into
    # the layers; on fleet, sending the burst and awaiting the answer) add
    # up to the frame's latency, so their best of repeats per frame slot,
    # against the untraced latencies, shows the tracing overhead. Coverage: the
    # library's own top-level spans cover most of each model call. They are
    # recorded inside the library, so a lost or unrecorded stretch of a
    # forward shows as a gap.
    driver_ms = defaultdict(list)
    frame_ms = {}
    frame_id = {}
    child_ms = defaultdict(float)
    coverage = []
    for frame, idx, parent, name, start, end in spans:
        ms = (end - start) * 1e-6
        driver_ms[name].append(ms)
        if name == "frame":
            frame_ms[idx] = ms
            frame_id[idx] = frame
        elif parent >= 0:
            child_ms[parent] += ms
        if name in MODEL_CALL_SPANS and end > start:
            lo, hi = start * 1e-3, end * 1e-3
            coverage.append(covered_us(union, starts, lo, hi) / (hi - lo))
    # Best of repeats per frame slot, as for the end-to-end latencies.
    best_sum = {}
    for k in frame_ms:
        slot = frame_id[k] % raw["frame_cycle"]
        best_sum[slot] = min(best_sum.get(slot, child_ms[k]), child_ms[k])
    span_sum = list(best_sum.values())
    untraced_p50 = percentile(best_of(u["best_frame_ms"]), 0.5)
    traced_p50 = percentile(best_of(t["best_frame_ms"]), 0.5)

    def med_ms(name):
        return median(driver_ms.get(name, []))

    def lib_ms(name, q=0.5):
        return percentile([d * 1e-3 for d in durations.get(name, [])], q)

    forwards = (len(durations.get("engine.forward", []))
                if raw["workload"] == "fleet" else
                sum(len(driver_ms.get(n, [])) for n in
                    ("roadseg.full", "roadseg.reuse", "roadseg.rgb_only")))
    hits, misses = layer.get("cache_hits", 0), layer.get("cache_misses", 0)
    submitted = layer.get("door_submitted", 0)
    m = {
        "kitti.preprocess_ms": (med_ms("kitti.preprocess"), "ms"),
        "kitti.tile_reuse_share": (ratio(layer.get("tiles_reused", 0),
                                         layer.get("tiles_total", 0)), "share"),
        "kitti.health_ms": (med_ms("kitti.health"), "ms"),
        "roadseg.full_ms": (med_ms("roadseg.full"), "ms"),
        "roadseg.reuse_ms": (med_ms("roadseg.reuse"), "ms"),
        "roadseg.rgb_only_ms": (med_ms("roadseg.rgb_only"), "ms"),
        "roadseg.cache_hit_share": (ratio(hits, hits + misses), "share"),
        "plan.compiled_share": (
            ratio(len(durations.get("plan.execute", [])), forwards), "share"),
        "plan.declined_share": (ratio(layer["plan_declined"], forwards),
                                "share"),
        "quant.int8_share": (ratio(layer["int8_convs"], layer["graph_convs"]),
                             "share"),
        "tensor.arena_peak_mb": (layer["arena_peak_mb"], "MB"),
        "runtime.queue_wait_ms_p50": (lib_ms("engine.queue_wait", 0.5), "ms"),
        "runtime.queue_wait_ms_p90": (lib_ms("engine.queue_wait", 0.9), "ms"),
        "runtime.batch_size_mean": (ratio(layer["batched_requests"],
                                          layer["batches"]), "count"),
        "runtime.batch_form_ms": (lib_ms("engine.batch_form"), "ms"),
        "runtime.forward_ms": (lib_ms("engine.forward"), "ms"),
        "runtime.respond_ms": (lib_ms("engine.respond"), "ms"),
        "serve.submit_ms": (med_ms("serve.submit"), "ms"),
        "serve.spill_share": (ratio(layer.get("door_spills", 0), submitted),
                              "share"),
        "serve.forced_degraded_share": (
            ratio(layer.get("door_forced_degraded", 0), submitted), "share"),
        "serve.shed_share": (ratio(layer.get("door_shed", 0), submitted),
                             "share"),
        "trace.untraced_p50_ms": (untraced_p50, "ms"),
        "trace.traced_p50_ms": (traced_p50, "ms"),
        "trace.overhead_share": (ratio(traced_p50, untraced_p50) - 1.0,
                                 "share"),
        "trace.span_sum_p50_ms": (median(span_sum), "ms"),
        "trace.span_coverage": (median(coverage), "share"),
    }
    for solver in SOLVERS:
        name = "solver." + solver
        m["tune.selections." + solver] = (
            len(durations.get(name, [])) / frames, "count")
        m["trace.%s.self_ms" % name] = (self_us.get(name, 0.0) * 1e-3 / frames,
                                        "ms")
    for name in LIBRARY_SPANS:
        m["trace.%s.self_ms" % name] = (self_us.get(name, 0.0) * 1e-3 / frames,
                                        "ms")

    problems = []
    if raw["obs_dropped_events"] or not raw["span_dump_ok"]:
        problems.append("span dump incomplete")
    if median(coverage) < MIN_SPAN_COVERAGE:
        problems.append("library spans cover %.3f of a model call"
                        % median(coverage))
    gap = abs(ratio(median(span_sum), untraced_p50) - 1.0)
    if gap > SPAN_SUM_TOLERANCE:
        problems.append("per-frame span sum p50 %.4f ms is %.1f%% off the "
                        "untraced p50 %.4f ms" % (median(span_sum), 100 * gap,
                                                  untraced_p50))
    return m, problems


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    if args.seed < 0:
        fail("--seed must be >= 0")
    binary = build()
    trace_dir = os.path.join(TRACE_ROOT, args.workload)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", trace_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=local_env(),
                              timeout=1.5 * args.seconds + DRIVER_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out", 1)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode, 1)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    phase = raw["untraced"]
    e2e = end_to_end(raw)
    problems = []
    if phase["wrong"]:
        problems.append("%d outputs differ from the reference" % phase["wrong"])
    floor = MASK_AGREEMENT_FLOOR[args.workload]
    if e2e["mask_agreement"][0] < floor:
        problems.append("mask_agreement %.5f below its floor %.5f"
                        % (e2e["mask_agreement"][0], floor))
    metrics = e2e
    attempted = phase["sent"]
    failed = phase["refused"] + phase["failed"]
    if args.trace:
        t = raw["traced"]
        if t["wrong"]:
            problems.append("%d traced outputs differ from the reference"
                            % t["wrong"])
        metrics, trace_problems = per_layer(raw, trace_dir)
        problems += trace_problems
        attempted += t["sent"]
        failed += t["refused"] + t["failed"]

    for name, (value, unit) in sorted(e2e.items()):
        print("%-18s %14.6g %s" % (name, value, unit))
    detail = {
        "workload": args.workload, "seed": args.seed,
        "run_latency_ms": {q: phase[q + "_ms"] for q in ("p50", "p90", "p99")},
        "timed_s": phase["seconds"], "samples": phase["samples"],
        "best_of_items": len(best_of(phase["best_frame_ms"])),
        "sent": phase["sent"], "served": phase["served"],
        "refused": phase["refused"], "failed": phase["failed"],
        "wrong": phase["wrong"], "first_setup_s": raw["first_setup_s"],
        "setup_s_median": median(raw["setup_s"]),
        "setup_s_runs": raw["setup_s"],
        "host": raw["host"], "problems": problems,
    }
    print(json.dumps(detail))
    if problems:
        print("run.py: INCORRECT: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
