"""Turns the load generator's raw samples into the benchmark's metrics.

The load generator (loadgen.cpp) writes latencies, counts, set-up times and, in
the traced run, spans; everything statistical happens here so it can be
unit-tested (test_metrics.py).
"""

import math
import statistics

# End-to-end metrics: (name, unit, better).  Every workload reports all
# of them; README.md says what each measures on each workload.
END_TO_END = [
    ("jobs_per_s", "1/s", "higher"),
    ("sim_insts_per_s", "1/s", "higher"),
    ("art9_job_p50_ms", "ms", "lower"),
    ("art9_job_p90_ms", "ms", "lower"),
    ("rv32_job_p50_ms", "ms", "lower"),
    ("rv32_job_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

KINDS = ("superblock", "rv32_superblock", "pipeline")
ISAS = ("art9", "rv32")

# Per-layer metrics of the traced run: (name, unit, better, moves, heavy,
# light).  `moves` is the end-to-end metric the layer metric should move;
# `heavy` the workload where the layer does most of the work, `light` one
# where it does little.
PER_LAYER = [
    ("serve.http_rtt_us", "us", "lower", "art9_job_p50_ms", "serve_paper", "service_long"),
    ("serve.handle_post_job_us", "us", "lower", "art9_job_p50_ms jobs_per_s", "serve_paper",
     "paper_eval"),
    ("serve.handle_get_job_us", "us", "lower", "art9_job_p50_ms jobs_per_s", "serve_paper",
     "paper_eval"),
    ("serve.polls_per_job", "count", "lower", "art9_job_p50_ms", "serve_paper", "-"),
    ("serve.poll_done_ratio", "ratio", "higher", "art9_job_p50_ms", "serve_paper", "-"),
    ("serve.digest_us.art9", "us", "lower", "rv32_job_p50_ms jobs_per_s", "serve_paper",
     "service_long"),
    ("serve.digest_us.rv32", "us", "lower", "rv32_job_p50_ms jobs_per_s", "serve_paper",
     "service_long"),
    ("serve.upload_handle_us", "us", "lower", "jobs_per_s", "serve_paper",
     "paper_eval"),
    ("serve.image_cache.hit_ratio", "ratio", "higher", "jobs_per_s setup_s", "serve_paper",
     "paper_eval"),
    ("serve.image_cache.evictions", "count", "lower", "jobs_per_s setup_s", "serve_paper",
     "paper_eval"),
    ("serve.retained_kb_per_job", "KiB", "lower", "peak_rss_mb", "serve_paper", "paper_eval"),
    ("rv32.assemble_us", "us", "lower", "jobs_per_s setup_s", "paper_eval",
     "service_long"),
    ("rv32.decode_us", "us", "lower", "rv32_job_p50_ms setup_s", "paper_eval", "service_long"),
    ("xlat.translate_us", "us", "lower", "jobs_per_s setup_s", "paper_eval",
     "service_long"),
    ("sim.decode_us", "us", "lower", "setup_s", "serve_paper", "service_long"),
    ("sim.decode_rows", "count", "lower", "setup_s", "serve_paper", "service_long"),
    ("sim.decode_useful_ratio", "ratio", "higher", "setup_s", "serve_paper", "service_long"),
    ("sim.superblock_plan_us", "us", "lower", "setup_s", "serve_paper", "service_long"),
]
for _kind in KINDS:
    PER_LAYER += [
        ("sim.make_engine_us." + _kind, "us", "lower", "rv32_job_p50_ms", "serve_paper",
         "service_long"),
        ("sim.state_us." + _kind, "us", "lower", "rv32_job_p50_ms", "serve_paper",
         "service_long"),
        ("sim.run_stats_us." + _kind, "us", "lower", "sim_insts_per_s", "service_long",
         "serve_paper"),
        ("sim.steps_per_s." + _kind, "1/s", "higher", "sim_insts_per_s", "service_long",
         "serve_paper"),
    ]
for _isa in ISAS:
    PER_LAYER += [
        ("sim.snapshot.serialize_us." + _isa, "us", "lower", "rv32_job_p50_ms", "serve_paper",
         "paper_eval"),
        ("sim.snapshot.deserialize_us." + _isa, "us", "lower", "rv32_job_p50_ms", "serve_paper",
         "paper_eval"),
        ("sim.snapshot.bytes." + _isa, "bytes", "lower", "rv32_job_p50_ms", "serve_paper",
         "paper_eval"),
    ]
PER_LAYER += [
    ("sim.service.queue_wait_us", "us", "lower", "jobs_per_s", "service_long", "paper_eval"),
    ("sim.service.overhead_us", "us", "lower", "jobs_per_s", "service_long", "paper_eval"),
    ("sim.pipeline.cycles_per_s", "1/s", "higher", "jobs_per_s", "paper_eval", "serve_paper"),
    ("sim.pipeline.cpi", "ratio", "lower", "jobs_per_s", "paper_eval", "serve_paper"),
    ("core.evaluate_us", "us", "lower", "art9_job_p50_ms jobs_per_s", "paper_eval",
     "serve_paper"),
    ("tech.analyze_us", "us", "lower", "art9_job_p50_ms jobs_per_s", "paper_eval",
     "serve_paper"),
    ("tech.estimate_us", "us", "lower", "art9_job_p50_ms jobs_per_s", "paper_eval",
     "serve_paper"),
    ("trace.overhead_ratio", "ratio", "lower", "-", "-", "-"),
]

# Client spans whose self time (round trip minus the handler) is the HTTP cost.
HTTP_SPANS = ("serve.http.post_image", "serve.http.post_job", "serve.http.get_job")


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values):
    """p50, p90 and p99 with the sample count and how many samples lie
    beyond p99 (the tail is trusted only with ten or more there)."""
    p99 = percentile(values, 99)
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": p99,
        "beyond_p99": sum(1 for v in values if v > p99),
    }


def slot_margin(q, slots):
    """Distance, in percentile points, from percentile q to the nearest
    boundary of `slots` equally weighted slots.  With 5 slots, p50 and
    p90 sit 10 points inside a slot, so a slot's latency, not the gap
    between two slots, sets them."""
    width = 100.0 / slots
    offset = q % width
    return min(offset, width - offset)


def failure_share(attempted, failed):
    """Share of attempted jobs that were refused, failed, timed out or
    returned a wrong result."""
    if attempted < 1:
        raise ValueError("no job attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def self_times(spans):
    """Self time of each span: its duration minus the part its children
    cover.  `spans` holds [name, parent, job, start_us, end_us, work]."""
    child_us = [0.0] * len(spans)
    for name, parent, job, start, end, work in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][3], spans[parent][4]
            child_us[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [span[4] - span[3] - child_us[i] for i, span in enumerate(spans)]


def layer_self_times(spans):
    """Total self time per layer (the span name up to its first dot);
    the benchmark's own `bench.*` spans are left out."""
    totals = {}
    for span, self_us in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        if layer != "bench":
            totals[layer] = totals.get(layer, 0.0) + self_us
    return totals


# Fields of a job record in the load generator's "jobs" list.
INDEX, RV32, OK, START_S, END_S, LATENCY_MS, UPLOAD_MS, INSTS, GROUP = range(9)

# Throughput is measured over windows of whole slot cycles holding at
# least this many jobs each.
WINDOW_JOBS = 40



def latencies(jobs):
    """Latency samples of the completed jobs: per ISA class and upload."""
    done = [j for j in jobs if j[OK]]
    return {
        "art9": [j[LATENCY_MS] for j in done if not j[RV32]],
        "rv32": [j[LATENCY_MS] for j in done if j[RV32]],
        "upload": [j[UPLOAD_MS] for j in done],
    }


def group_latencies(jobs):
    """Each completed job's latency replaced by the median latency of its
    cost group: the jobs of one program (and of one technology on
    paper_eval), which do the same work.  A host busy for part of the run
    moves a group's median only once it has slowed half of the group, so
    percentiles over these values keep the slot arithmetic of a quiet
    host."""
    done = [j for j in jobs if j[OK]]
    by_group = {}
    for j in done:
        by_group.setdefault(j[GROUP], []).append(j[LATENCY_MS])
    costs = {g: statistics.median(v) for g, v in by_group.items()}
    return [(j[RV32], costs[j[GROUP]]) for j in done]


def windows(jobs, cycle_jobs, min_jobs=WINDOW_JOBS):
    """The loop's jobs, in issue order, cut into consecutive windows of
    the fewest whole slot cycles that hold `min_jobs` jobs; a last,
    partial window is dropped."""
    ordered = sorted(jobs, key=lambda j: j[INDEX])
    size = cycle_jobs * max(1, math.ceil(min_jobs / cycle_jobs))
    if len(ordered) < size:
        raise ValueError("fewer jobs than one window")
    return [ordered[i:i + size] for i in range(0, len(ordered) - size + 1, size)]


def window_rates(window):
    """Completed jobs and retired instructions per second of one window."""
    seconds = max(j[END_S] for j in window) - min(j[START_S] for j in window)
    done = [j for j in window if j[OK]]
    return len(done) / seconds, sum(j[INSTS] for j in done) / seconds


def loop_metrics(jobs, cycle_jobs):
    """Throughput (median over windows) and latency percentiles (over
    group latencies) of a measured loop."""
    rates = [window_rates(w) for w in windows(jobs, cycle_jobs)]
    lat = group_latencies(jobs)
    art9 = [v for rv32, v in lat if not rv32]
    rv32 = [v for rv32, v in lat if rv32]
    return {
        "jobs_per_s": statistics.median(r[0] for r in rates),
        "sim_insts_per_s": statistics.median(r[1] for r in rates),
        "art9_job_p50_ms": percentile(art9, 50),
        "art9_job_p90_ms": percentile(art9, 90),
        "rv32_job_p50_ms": percentile(rv32, 50),
        "rv32_job_p90_ms": percentile(rv32, 90),
    }


def end_to_end(data):
    """The end-to-end metrics of one untraced run; set-up time is the
    median of the run's set-ups."""
    out = loop_metrics(data["jobs"], data["cycle_jobs"])
    out["setup_s"] = statistics.median(data["setup_s"])
    out["peak_rss_mb"] = data["peak_rss_kb"] / 1024.0
    return out


def _span_name(metric):
    """Span recording a `*_us` metric: 'sim.state_us.pipeline' is span
    'sim.state.pipeline', 'xlat.translate_us' is span 'xlat.translate'."""
    head, _, tail = metric.partition("_us")
    return head + tail


def per_layer(data):
    """The per-layer metrics of one traced run."""
    spans = data["spans"]
    counters = data["counters"]
    selfs = self_times(spans)
    durations = {}
    work = {}
    for span in spans:
        durations.setdefault(span[0], []).append(span[4] - span[3])
        work.setdefault(span[0], []).append(span[5])

    def median_us(name):
        return statistics.median(durations[name])

    def rate(name):
        return sum(work[name]) / (sum(durations[name]) / 1e6)

    out = {}
    for name, *_ in PER_LAYER:
        if name == "serve.http_rtt_us":
            out[name] = statistics.median(
                s for span, s in zip(spans, selfs) if span[0] in HTTP_SPANS)
        elif name.startswith("sim.service."):
            out[name] = statistics.median(data["samples"][name])
        elif name.startswith("sim.steps_per_s."):
            out[name] = rate("sim.run_stats." + name.rsplit(".", 1)[1])
        elif name == "sim.pipeline.cycles_per_s":
            out[name] = rate("sim.pipeline.run")
        elif name == "sim.pipeline.cpi":
            out[name] = counters["sim.pipeline.cycles"] / counters["sim.pipeline.instructions"]
        elif name == "sim.decode_rows":
            out[name] = counters["sim.decode_rows"] / len(durations["sim.decode"])
        elif name == "sim.decode_useful_ratio":
            out[name] = counters["sim.decode_program_rows"] / counters["sim.decode_rows"]
        elif name == "trace.overhead_ratio":
            out[name] = counters["trace.traced_loop_s"] / counters["trace.untraced_loop_s"]
        elif "_us" in name:
            out[name] = median_us(_span_name(name))
        else:
            out[name] = counters[name]
    return out
