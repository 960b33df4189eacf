"""Metric catalogs and the assembly of each run's result line.

END_TO_END and PER_LAYER are the names BENCHMARK.json declares (a self-test
keeps the two in step). Rank rows are enumerated from the program's engine
registry at run time: only the engines the project keeps are declared, and
an engine missing from the registry drops its row instead of failing.
"""
import math
import re

from . import common, stats

END_TO_END = (
    ("setup_s", "s"),
    ("reads_per_s", "reads/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
    ("archive_bytes_per_base", "B/base"),
    ("rollover_s", "s"),
)

RANK_ENGINES = ("fpga", "rrr", "epr", "sampled")
ARCHIVE_SECTIONS = ("meta", "text", "bwt", "occ", "sa", "kmer", "epr")
SHARE_LAYERS = ("fmindex", "fpga", "mapper", "store", "build", "jobs", "app", "fleet",
                "proc", "loadgen", "unattributed")

PER_LAYER = tuple(
    [("fmindex.rank_mops.%s" % e, "Mrank/s") for e in RANK_ENGINES]
    + [("fmindex.search_ms_per_kread", "ms/kread"),
       ("mapper.seed_ms_per_kread", "ms/kread"),
       ("mapper.locate_ms_per_kread", "ms/kread"),
       ("mapper.sam_ms_per_kread", "ms/kread"),
       ("mapper.occurrences_per_read", "count"),
       ("mapper.unattributed_ms", "ms"),
       ("fpga.modeled_ms", "ms"),
       ("fpga.search_wall_ms", "ms")]
    + [("store.archive_bytes.%s" % s, "bytes") for s in ARCHIVE_SECTIONS]
    + [("store.load_ms", "ms"),
       ("store.loads", "count"),
       ("store.evictions", "count"),
       ("build.index_build_s", "s"),
       ("build.peak_rss_mb", "MB"),
       ("jobs.queue_wait_p50_ms", "ms"),
       ("jobs.queue_wait_p99_ms", "ms"),
       ("jobs.run_p50_ms", "ms"),
       ("jobs.rejected", "count"),
       ("app.overhead_p50_ms", "ms"),
       ("app.unattributed_pct", "%"),
       ("fleet.router_overhead_p50_ms", "ms"),
       ("fleet.polls_per_shard", "count"),
       ("fleet.retries", "count"),
       ("fleet.hedges", "count"),
       ("fleet.hedge_lost_ratio", "fraction"),
       ("fleet.connections_opened", "count"),
       ("proc.cpu_s", "s"),
       ("proc.minor_faults", "count"),
       ("proc.major_faults", "count"),
       ("obs.trace_overhead_pct", "%"),
       ("loadgen.late_p99_ms", "ms"),
       ("failed_ratio", "fraction")]
    + [("layer.%s.share_pct" % layer, "%") for layer in SHARE_LAYERS]
)

_UNITS = dict(END_TO_END + PER_LAYER)
_RANK_RE = re.compile(r"^fmindex\.rank_mops\.")


def unit_of(name):
    if _RANK_RE.match(name):
        return "Mrank/s"
    if name.startswith("store.archive_bytes."):
        return "bytes"
    return _UNITS[name]


def end_to_end(state, result):
    return {
        "setup_s": stats.median(state["setup_s"]),
        "reads_per_s": result["reads_per_s"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_p99_ms": result["latency_p99_ms"],
        "success_ratio": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
        "archive_bytes_per_base": state["file_bytes"] / state["bases"],
        "rollover_s": result["rollover_s"],
        "_notes": {"tail_percentile": result["tail_pct"], "requests": result["requests"],
                   "attempted": result["attempted"], "failed": result["failed"],
                   "oracle_engine": state["oracle_engine"]},
    }


def per_layer(workload, state, base, traced, probe):
    """Per-layer metrics of a --trace 1 run. `base` is the untraced half,
    `traced` the traced half, `probe` the rank probe's output."""
    layers = traced["layers"]
    out = {}
    for engine, mops in probe["rank_mops"].items():
        out["fmindex.rank_mops.%s" % engine] = mops
    for key in ("fmindex.search_ms_per_kread", "mapper.seed_ms_per_kread",
                "mapper.locate_ms_per_kread", "mapper.sam_ms_per_kread",
                "mapper.unattributed_ms"):
        out[key] = layers[key]
    out["mapper.occurrences_per_read"] = state["occurrences_per_read"]
    out["fpga.modeled_ms"] = layers.get("fpga.modeled_ms", probe["fpga_modeled_ms"])
    out["fpga.search_wall_ms"] = layers.get("fpga.search_wall_ms", probe["fpga_wall_ms"])
    for section in set(ARCHIVE_SECTIONS) | set(state["sections"]):
        out["store.archive_bytes.%s" % section] = float(state["sections"].get(section, 0))
    out["store.load_ms"] = stats.median(state["load_ms"])
    out["build.index_build_s"] = stats.median(state["build_s"])
    out["build.peak_rss_mb"] = max(state["build_rss_mb"])
    for key in ("store.loads", "store.evictions", "jobs.queue_wait_p50_ms",
                "jobs.queue_wait_p99_ms", "jobs.run_p50_ms", "jobs.rejected",
                "app.overhead_p50_ms", "app.unattributed_pct",
                "fleet.router_overhead_p50_ms", "fleet.retries", "fleet.hedges",
                "fleet.hedge_lost_ratio"):
        out[key] = float(layers.get(key, 0.0))
    out["fleet.polls_per_shard"] = float(probe.get("polls_per_shard", 0.0))
    out["fleet.connections_opened"] = float(probe.get("connections_opened", 0.0))
    out.update(common.usage_totals(base["usages"]))
    out["obs.trace_overhead_pct"] = trace_overhead_pct(workload, base, traced)
    out["loadgen.late_p99_ms"] = base.get("late_p99_ms", 0.0)
    attempted = base["attempted"] + traced["attempted"]
    out["failed_ratio"] = (base["failed"] + traced["failed"]) / attempted
    total = sum(layers["layer_ms"].values()) or 1.0
    for layer in SHARE_LAYERS:
        out["layer.%s.share_pct" % layer] = 100.0 * layers["layer_ms"].get(layer, 0.0) / total
    out["_notes"] = {"unattributed_ms_by_engine": layers.get("unattributed_by_engine", {}),
                     "unattributed_split": layers.get("unattributed_split", {}),
                     "layer_ms": layers["layer_ms"], "tail_percentile": traced["tail_pct"]}
    return out


def trace_overhead_pct(workload, base, traced):
    """How much slower the traced half ran than the untraced half, on the
    workload's headline metric (throughput for bulk/fleet, p50 latency for
    serve_small)."""
    if workload == "serve_small":
        return 100.0 * (traced["latency_p50_ms"] / base["latency_p50_ms"] - 1.0)
    return 100.0 * (base["reads_per_s"] / traced["reads_per_s"] - 1.0)


def contract(metrics, trace):
    """The result line's metrics: every declared end-to-end metric (trace 0)
    or every declared per-layer metric (trace 1), plus the registry-driven
    rank rows of declared engines."""
    names = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
    out = {}
    for name in names:
        if name in metrics and isinstance(metrics[name], (int, float)) \
                and math.isfinite(metrics[name]):
            out[name] = {"value": metrics[name], "unit": unit_of(name)}
    return out


def print_table(workload, metrics):
    print("workload %s" % workload)
    for name in sorted(k for k in metrics if not k.startswith("_")):
        print("  %-36s %16.6g %s" % (name, metrics[name], unit_of(name)))
    for key, value in sorted(metrics.get("_notes", {}).items()):
        print("  # %s: %s" % (key, value))
