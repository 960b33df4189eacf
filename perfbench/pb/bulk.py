"""`bulk`: the paper's Table II run on its succinct RRR structure.

Repeated `bwaver map --engine rrr --threads <nproc>` invocations over one
read file against a 10 Mbp reference, SAM written to a file. Engine set-up
is paid once per invocation and the work is rank/backward search and
locate; HTTP and the job engine do none of it, so this is the bypass
workload for any per-request optimisation (predicted: no change)."""
import json
import os

from . import common, httpc, oracle, procs, spans, stats

GENOME_BP = 10_000_000
READS = 250_000
READ_BP = 40
MAPPING_RATIO = 0.8
ENGINE = "rrr"
PROBE_READS = 20_000
# Back-to-back archive rebuilds after the timed invocations; rollover_s is
# their median. Each rebuild of the 10 Mbp archive adds ~3.7 s (4-core
# x86-64) to the run on top of --seconds, so there are only two.
ROLLOVERS = 2


def prepare(ctx, setup_reps):
    """Inputs, set-up timing and the oracle. Returns the state the timed
    phase needs."""
    ref = ctx.path("ref.fa")
    reads = ctx.path("reads.fq")
    ctx.cli(["simulate-genome", "--length", str(GENOME_BP), "--seed", str(ctx.seed),
             "--name", "bulkref", "--out", ref], "sim-genome")
    ctx.cli(["simulate-reads", "--ref", ref, "--num", str(READS), "--length", str(READ_BP),
             "--mapping-ratio", str(MAPPING_RATIO), "--seed", str(ctx.seed + 1),
             "--out", reads], "sim-reads")
    one = ctx.path("one.fq")
    oracle.write_fastq(one, oracle.read_fastq(reads)[:1])

    setups, builds, build_rss, loads = [], [], [], []
    store = None
    for rep in range(setup_reps):
        store = common.empty_dir(ctx.path("store"))
        t0 = common.now()
        built = ctx.cli(["index", "build", "--ref", ref, "--store-dir", store, "--name",
                         "bulkref"], "setup-build", layer="build")
        prof = ctx.path("setup-profile.json")
        first = ctx.cli(["map", "--store-dir", store, "--ref-name", "bulkref", "--reads", one,
                         "--engine", ENGINE, "--threads", str(ctx.nproc), "--out",
                         ctx.path("one.sam"), "--profile", prof], "setup-map", layer="store")
        setups.append(common.now() - t0)
        common.record_setup(ctx, t0)
        builds.append(built.wall_s)
        build_rss.append(built.usage.maxrss_mb)
        with open(prof) as handle:
            loads.append(first.wall_s * 1e3 - json.load(handle)["wall_ms"])

    engines = common.registry_engines(ctx, store)
    oracle_engine = common.pick_oracle_engine(engines, (ENGINE,))
    expected_sam = ctx.path("oracle.sam")
    mapped = ctx.cli(["map", "--store-dir", store, "--ref-name", "bulkref", "--reads", reads,
                      "--engine", oracle_engine, "--threads", str(ctx.nproc), "--out",
                      expected_sam], "oracle")
    with open(expected_sam, "rb") as handle:
        expected = handle.read()
    digest = oracle.digest(expected)
    del expected
    sections, file_bytes, bases = common.archive_sections(
        ctx, os.path.join(store, "bulkref.bwva"))
    ctx.dump_file("bulk/ref.fa", ref)
    ctx.dump_file("bulk/reads.fq", reads)
    ctx.dump_data("bulk/expected.sha256", digest + "  oracle.sam\n")
    os.remove(expected_sam)
    return {"ref": ref, "reads": reads, "store": store, "engines": engines,
            "digest": digest, "setup_s": setups,
            "occurrences_per_read": common.occurrences_per_read(mapped.out),
            "build_s": builds, "build_rss_mb": build_rss, "load_ms": loads,
            "sections": sections, "file_bytes": file_bytes, "bases": bases,
            "oracle_engine": oracle_engine}


def phase(ctx, state, seconds, traced):
    """Timed map invocations for `seconds`, then ROLLOVERS back-to-back
    rebuilds of the archive (`index build` of the same name into the
    store). The rebuilds come after the invocations so that no invocation
    competes with a build for the cores."""
    rec = ctx.rec if traced else spans.Recorder(False)
    runs, failures, usages, profiles = [], 0, [], []
    mismatches = 0

    start = common.now()
    phase_span_start = rec.now_ms()
    i = 0
    while common.now() - start < seconds:
        out_sam = ctx.path("bulk-%d.sam" % i)
        args = ["map", "--store-dir", state["store"], "--ref-name", "bulkref", "--reads",
                state["reads"], "--engine", ENGINE, "--threads", str(ctx.nproc), "--out",
                out_sam]
        prof = ctx.path("bulk-%d.json" % i)
        if traced:
            args += ["--profile", prof]
        t0 = rec.now_ms()
        result = ctx.cli(args, "bulk-map", layer="proc", check=False)
        i += 1
        if result.code != 0 or not os.path.exists(out_sam):
            failures += 1
            continue
        with open(out_sam, "rb") as handle:
            same = oracle.digest(handle.read()) == state["digest"]
        os.remove(out_sam)
        if not same:
            failures += 1
            mismatches += 1
            continue
        usages.append(result.usage)
        runs.append(result.wall_s)
        if traced:
            with open(prof) as handle:
                doc = json.load(handle)
            wall_ms = result.wall_s * 1e3
            profiles.append((wall_ms, doc))
            rec.graft(doc["trace"]["spans"], result.sid, t0, wall_ms, "bulk-%d" % i)
    rollover = {}
    for _ in range(ROLLOVERS):
        built = ctx.cli(["index", "build", "--ref", state["ref"], "--store-dir",
                         state["store"], "--name", "bulkref"], "rollover-build",
                        layer="build", check=False)
        if built.code == 0:
            rollover.setdefault("seconds", []).append(built.wall_s)
        else:
            rollover["failed"] = rollover.get("failed", 0) + 1
    if mismatches:
        raise procs.ProcError("bulk: %d invocation(s) wrote SAM that differs from the "
                              "oracle" % mismatches)
    rec.add("phase:bulk", "loadgen", phase_span_start, rec.now_ms() - phase_span_start)
    if not runs:
        raise procs.ProcError("bulk: no map invocation succeeded")

    lat_ms = [w * 1e3 for w in runs]
    p50, tail_ms, pct = common.latency_metrics(lat_ms)
    rollover_s, rollover_failed, rollover_total = common.rollover_summary(rollover)
    out = {
        "reads_per_s": stats.median([READS / w for w in runs]),
        "latency_p50_ms": p50, "latency_p99_ms": tail_ms, "tail_pct": pct,
        "requests": len(runs),
        "attempted": i + ROLLOVERS, "failed": failures + rollover_failed,
        "peak_rss_mb": max(u.maxrss_mb for u in usages),
        "rollover_s": rollover_s,
        "usages": usages,
    }
    if traced:
        out["layers"] = layers_from_profiles(profiles)
        out["layers"]["store.loads"] = len(runs)
        out["layers"]["layer_ms"]["build"] = rollover_total * 1e3
    return out


def layers_from_profiles(profiles):
    """Per-layer split of the traced invocations (CLI --profile output).

    In a sharded run the shards do seed, search and locate; their stage
    spans are CPU time summed over shards, so the shards' wall time is
    split between fmindex (search) and mapper (seed, locate) in proportion
    to those sums. The SAM is rendered after the last shard, timed as the
    `sam` stage, and belongs to mapper. What map_records holds beyond the
    shards and the SAM (engine construction, merging the shards' results)
    is `unattributed`; the rest of the process wall (start, archive load,
    SAM write) is `proc`."""
    total = {"seed": 0.0, "search": 0.0, "locate": 0.0, "sam": 0.0}
    layer_ms = {}
    unattributed = []
    before_first_shard = []
    reads = 0
    for wall_ms, prof in profiles:
        trace = prof["trace"]["spans"]
        recs = [spans.Span(s["id"], s["parent"], s["name"], "mapper", s["start_ms"],
                           max(s["dur_ms"], 0.0)) for s in trace
                if s["name"] in ("map_records", "shard")]
        root = next(s for s in recs if s.name == "map_records")
        shards = [s for s in recs if s.name == "shard" and s.parent == root.sid]
        st = prof["stages"]
        if shards:
            outside = spans.self_times([root] + shards)[root.sid]
            covered = root.dur_ms - outside
            sam = min(st["sam_ms"], outside)
            un = outside - sam
            before_first_shard.append(min(s.start_ms for s in shards) - root.start_ms)
            in_shards = ("seed", "search", "locate")
        else:
            covered = sum(st[k + "_ms"] for k in total)
            sam = 0.0
            un = spans.unattributed_ms(root.dur_ms, [covered])
            in_shards = tuple(total)
        unattributed.append(un)
        cpu = sum(st[k + "_ms"] for k in in_shards) or 1.0
        search_share = st["search_ms"] / cpu
        layer_ms["fmindex"] = layer_ms.get("fmindex", 0.0) + covered * search_share
        layer_ms["mapper"] = layer_ms.get("mapper", 0.0) + covered * (1 - search_share) + sam
        layer_ms["unattributed"] = layer_ms.get("unattributed", 0.0) + un
        layer_ms["proc"] = layer_ms.get("proc", 0.0) + max(0.0, wall_ms - root.dur_ms)
        for k in total:
            total[k] += st[k + "_ms"]
        reads += prof["reads"]
    kreads = reads / 1e3
    return {
        "layer_ms": layer_ms,
        "mapper.seed_ms_per_kread": total["seed"] / kreads,
        "mapper.locate_ms_per_kread": total["locate"] / kreads,
        "mapper.sam_ms_per_kread": total["sam"] / kreads,
        "fmindex.search_ms_per_kread": total["search"] / kreads,
        "mapper.unattributed_ms": stats.median(unattributed),
        # Engine construction happens before the first shard; the rest of
        # `unattributed` is merging and releasing the shards' results.
        "unattributed_split": {"before_first_shard_ms": stats.median(before_first_shard)}
        if before_first_shard else {},
    }


def probe(ctx, state):
    """Rank throughput of every registry engine on this workload's archive,
    from a short-lived traced server over the bulk store."""
    server = ctx.server(["serve", "--port", "0", "--store-dir", state["store"], "--workers", "1",
                         "--trace", "on"], "probe-serve")
    try:
        httpc.wait_ready(server.port)
        records = oracle.read_fastq(state["reads"])[:PROBE_READS]
        body = b"".join(r for _, r in records)
        return common.rank_probe(ctx, server.port, "bulkref", body, state["engines"])
    finally:
        server.stop()
