"""`serve_small`: many small `/map` requests against one `bwaver serve`.

Two references (an E. coli-like 4.64 Mbp genome and a 1 Mbp genome) behind
one server whose memory budget holds both with ~25% headroom. An open loop
at a fixed rate sends fresh 200 x 100 bp requests, each to a seeded random
reference with an engine drawn from a fixed mix, and ROLLOVERS
`/admin/rollover`s of the E. coli reference are spread over the run.

Small requests make per-request fixed costs (engine preparation, the job
hop, HTTP parsing) most of the work; the rollover puts an index build
beside the reads; the tight budget turns any growth in per-reference
memory into evictions and latency."""
import json
import math

from . import common, httpc, loadgen, oracle, procs, prom, stats

ECOLI = "ecoli"
SMALL = "small"
SMALL_BP = 1_000_000
READS_PER_REQUEST = 200
READ_BP = 100
MAPPING_RATIO = 0.8
# ~0.4 of the capacity (95-103 requests/s) measured at the commit that
# introduced this benchmark (4-core x86-64; see perfbench/README.md).
RATE_PER_S = 40.0
# Share of requests sent to the E. coli reference. Latency is multimodal
# (reference x engine); at 40 % the median falls inside one mode (1 Mbp,
# epr) instead of on the edge between two, where the share drawn in a run
# would swing it.
ECOLI_SHARE = 0.4
# Engine mix; an engine the registry no longer lists drops out and the
# others' shares are scaled up to fill its place.
ENGINE_MIX = (("fpga", 0.40), ("epr", 0.30), ("rrr", 0.25), ("sampled", 0.05))
# Both references resident (copy mode, 206 MB as built by `index build`)
# plus ~25% headroom, sized at the commit that introduced this benchmark.
MEMORY_BUDGET_MB = 258
SENDERS = 32
WARMUP_S = 2.0
PROBE_REQUESTS = 20
# Rollovers per run, evenly spaced; rollover_s is their median. Each one
# fsyncs a new archive, so single durations swing with the disk.
ROLLOVERS = 4


def _serve_args(ctx, store, traced, ring):
    # Workers plus the (single-core, GIL-bound) generator stay within nproc.
    return ["serve", "--port", "0", "--store-dir", store, "--workers",
            str(max(1, ctx.nproc - 1)), "--memory-budget-mb", str(MEMORY_BUDGET_MB),
            "--trace", "on" if traced else "off", "--trace-ring", str(ring)]


def _map(port, ref, engine, body, req_id):
    return httpc.request(port, "POST", "/map?ref=%s&engine=%s" % (ref, engine), body,
                         {"X-Request-Id": req_id}, timeout=60.0)


def prepare(ctx, setup_reps):
    fastas = {ECOLI: ctx.path("ecoli.fa"), SMALL: ctx.path("small.fa")}
    ctx.cli(["simulate-genome", "--preset", "ecoli", "--seed", str(ctx.seed), "--name", ECOLI,
             "--out", fastas[ECOLI]], "sim-ecoli")
    ctx.cli(["simulate-genome", "--length", str(SMALL_BP), "--seed", str(ctx.seed + 1),
             "--name", SMALL, "--out", fastas[SMALL]], "sim-small")

    count = int(math.ceil(RATE_PER_S * ctx.seconds))
    rng = ctx.rng
    shares = ((ECOLI, ECOLI_SHARE), (SMALL, 1.0 - ECOLI_SHARE))
    refs = _deck(rng, count, shares)
    warm_refs = _deck(rng, int(RATE_PER_S * WARMUP_S), shares)
    offsets = [i / RATE_PER_S for i in range(count)]

    pools = _simulate_reads(ctx, fastas, refs + warm_refs)
    setups, builds, build_rss, loads = [], [], [], []
    store = None
    for rep in range(setup_reps):
        store = common.empty_dir(ctx.path("store"))
        t0 = common.now()
        for ref, fasta in fastas.items():
            built = ctx.cli(["index", "build", "--ref", fasta, "--store-dir", store, "--name",
                             ref], "setup-build-" + ref, layer="build")
            builds.append(built.wall_s)
            build_rss.append(built.usage.maxrss_mb)
        server = ctx.server(_serve_args(ctx, store, False, 64), "setup-serve")
        try:
            httpc.wait_ready(server.port)
            probe_body = {ref: pools[ref][0][1] for ref in fastas}  # one read
            first = {}
            for ref in fastas:
                t1 = common.now()
                status, _, _ = _map(server.port, ref, "rrr", probe_body[ref], "setup-" + ref)
                first[ref] = common.now() - t1
                if status != 200:
                    raise procs.ProcError("set-up /map %s -> HTTP %d" % (ref, status))
            setups.append(common.now() - t0)
            common.record_setup(ctx, t0)
            for ref in fastas:
                t1 = common.now()
                _map(server.port, ref, "rrr", probe_body[ref], "setup-warm-" + ref)
                loads.append((first[ref] - (common.now() - t1)) * 1e3)
        finally:
            server.stop()

    registry = common.registry_engines(ctx, store)
    oracle_engine = common.pick_oracle_engine(registry, [e for e, _ in ENGINE_MIX])
    oracles, occ = {}, []
    for ref in fastas:
        sam = ctx.path("%s.oracle.sam" % ref)
        mapped = ctx.cli(["map", "--store-dir", store, "--ref-name", ref, "--reads",
                          ctx.path("%s.fq" % ref), "--engine", oracle_engine, "--threads",
                          str(ctx.nproc), "--out", sam], "oracle-" + ref)
        occ.append(common.occurrences_per_read(mapped.out))
        with open(sam, "rb") as handle:
            oracles[ref] = oracle.SamOracle(handle.read())
    mix = [(e, w) for e, w in ENGINE_MIX if e in registry]
    if not mix:
        raise procs.ProcError("no engine of the serve_small mix is registered")
    cursor = {ECOLI: 0, SMALL: 0}
    engines, payloads, expected = _requests(rng, refs, mix, pools, oracles, cursor)
    warm = dict(zip(("engines", "payloads", "expected"),
                    _requests(rng, warm_refs, mix, pools, oracles, cursor)), refs=warm_refs)

    sections, file_bytes, bases = {}, 0, 0
    for ref in fastas:
        sec, fb, bp = common.archive_sections(ctx, "%s/%s.bwva" % (store, ref))
        for name, size in sec.items():
            sections[name] = sections.get(name, 0) + size
        file_bytes += fb
        bases += bp

    if ctx.dump_dir:
        for ref, fasta in fastas.items():
            ctx.dump_file("serve_small/%s.fa" % ref, fasta)
        schedule = [{"index": i, "due_s": offsets[i], "ref": refs[i], "engine": engines[i],
                     "payload": "requests/%05d.fq" % i,
                     "expected_sha256": oracle.digest(expected[i])} for i in range(count)]
        ctx.dump_data("serve_small/schedule.json", json.dumps(schedule, indent=1))
        for i, body in enumerate(payloads):
            ctx.dump_data("serve_small/requests/%05d.fq" % i, body)

    return {"fastas": fastas, "store": store, "refs": refs, "engines": engines,
            "warm": warm,
            "offsets": offsets, "payloads": payloads, "expected": expected,
            "registry": registry, "setup_s": setups, "build_s": builds,
            "build_rss_mb": build_rss, "load_ms": loads, "sections": sections,
            "file_bytes": file_bytes, "bases": bases, "oracle_engine": oracle_engine,
            "occurrences_per_read": sum(occ) / len(occ)}


def _deck(rng, count, weighted):
    """`count` items in exactly the given proportions (largest remainder),
    in a seeded random order. Exact counts keep every run's mix the same:
    with independent draws the number of slow (sampled, E. coli) requests
    varied enough from seed to seed to move the p99 by a fifth."""
    total = sum(w for _, w in weighted)
    exact = [(item, count * w / total) for item, w in weighted]
    counts = {item: int(x) for item, x in exact}
    by_remainder = sorted(exact, key=lambda e: e[1] - int(e[1]), reverse=True)
    for item, _ in by_remainder[:count - sum(counts.values())]:
        counts[item] += 1
    deck = [item for item, _ in weighted for _ in range(counts[item])]
    rng.shuffle(deck)
    return deck


def _requests(rng, refs, mix, pools, oracles, cursor):
    """(engines, payloads, expected SAM) for requests to `refs`: engines in
    exact mix proportions per reference, reads taken fresh from the pools
    at `cursor`."""
    engines = [None] * len(refs)
    for ref in pools:
        slots = [i for i, r in enumerate(refs) if r == ref]
        for i, engine in zip(slots, _deck(rng, len(slots), mix)):
            engines[i] = engine
    payloads, expected = [], []
    for ref in refs:
        start = cursor[ref]
        cursor[ref] += READS_PER_REQUEST
        records = pools[ref][start:start + READS_PER_REQUEST]
        payloads.append(b"".join(r for _, r in records))
        expected.append(oracles[ref].expected([n for n, _ in records]))
    return engines, payloads, expected


def _simulate_reads(ctx, fastas, refs):
    """Fresh reads for every request: {ref: [(name, FASTQ record)]}."""
    pools = {}
    for i, (ref, fasta) in enumerate(sorted(fastas.items())):
        need = max(1, refs.count(ref)) * READS_PER_REQUEST
        reads = ctx.path("%s.fq" % ref)
        ctx.cli(["simulate-reads", "--ref", fasta, "--num", str(need), "--length",
                 str(READ_BP), "--mapping-ratio", str(MAPPING_RATIO), "--seed",
                 str(ctx.seed + 10 + i), "--out", reads], "sim-reads-" + ref)
        pools[ref] = oracle.read_fastq(reads)
    return pools


def phase(ctx, state, seconds, traced):
    count = min(len(state["offsets"]), int(math.ceil(RATE_PER_S * seconds)))
    store = common.phase_store(ctx, state["store"], "t" if traced else "u")
    ring = count + len(state["warm"]["refs"]) + 64
    server = ctx.server(_serve_args(ctx, store, traced, ring), "serve")
    port = server.port
    usage = None
    try:
        httpc.wait_ready(port)
        mismatches = []
        prefix = "ss-%d-%s" % (ctx.seed, "t" if traced else "u")

        def sender(reqs, tag):
            def send(i):
                rid = "%s-%s%d" % (prefix, tag, i)
                status, _, body = _map(port, reqs["refs"][i], reqs["engines"][i],
                                       reqs["payloads"][i], rid)
                if status != 200:
                    return False, status, body[:200].decode(errors="replace"), rid
                if body != reqs["expected"][i]:
                    mismatches.append(rid)
                    return False, status, "SAM differs from the oracle", rid
                return True, status, "", rid
            return send

        # Warm-up at the same rate, untimed: the first second of a fresh
        # server ran ~3x slower than the rest (first use of each engine,
        # allocator growth), which moved the median of the whole run.
        warm = state["warm"]
        loadgen.open_loop([i / RATE_PER_S for i in range(len(warm["refs"]))],
                          sender(warm, "w"), SENDERS)

        with open(state["fastas"][ECOLI], "rb") as handle:
            fasta = handle.read()
        offsets = state["offsets"][:count]
        rollover = {}
        step = offsets[-1] / (ROLLOVERS + 1)
        roller = common.rollover_series(ROLLOVERS,
                                        lambda: common.http_rollover(port, ECOLI, fasta),
                                        step, step, rollover)
        t_start = common.now()
        outcomes = loadgen.open_loop(offsets, sender(state, ""), SENDERS)
        wall = common.now() - t_start
        roller.join()
        metrics = prom.parse(httpc.request(port, "GET", "/metrics")[2].decode())
        server_stats = httpc.get_json(port, "/stats")
        traces = common.fetch_traces(port) if traced else {}
    finally:
        usage = server.stop()
    if mismatches:
        raise procs.ProcError("serve_small: %d response(s) differ from the oracle (first: "
                              "%s)" % (len(mismatches), mismatches[0]))

    ok = [o for o in outcomes if o.ok]
    failed = len(outcomes) - len(ok)
    rollover_s, rollover_failed, rollover_total = common.rollover_summary(rollover)
    if not ok:
        raise procs.ProcError("serve_small: every request failed, e.g. %s"
                              % outcomes[0].detail)
    lat = [o.latency_ms for o in ok]
    p50, tail_ms, pct = common.latency_metrics(lat)
    _, late_tail = stats.tail([o.late_ms for o in outcomes])
    out = {
        "reads_per_s": len(ok) * READS_PER_REQUEST / wall,
        "latency_p50_ms": p50, "latency_p99_ms": tail_ms, "tail_pct": pct,
        "requests": len(ok),
        "attempted": len(outcomes) + ROLLOVERS, "failed": failed + rollover_failed,
        "peak_rss_mb": usage.maxrss_mb,
        "rollover_s": rollover_s,
        "usages": [usage],
        "late_p99_ms": late_tail,
        "loads": prom.total(metrics, "bwaver_registry_loads_total"),
        "evictions": prom.total(metrics, "bwaver_registry_evictions_total"),
    }
    if traced:
        out["layers"] = _layers(ctx, state, ok, traces, metrics, server_stats,
                                rollover_total)
        fpga_ids = {o.req_id for o in outcomes if state["engines"][o.index] == "fpga"}
        common.record_requests(ctx.rec, outcomes,
                               {rid: [(rid, t)] for rid, t in traces.items()}, fpga_ids)
    return out


def _layers(ctx, state, ok, traces, metrics, server_stats, rollover_total_s):
    layer_ms = {}
    by_engine = {}
    kreads = {"all": 0.0, "software": 0.0}
    stage_sum = {"seed": 0.0, "search": 0.0, "locate": 0.0, "sam": 0.0}
    queue_waits, runs, app, fpga_modeled, fpga_wall = [], [], [], [], []
    app_total = client_total = 0.0
    for outcome in ok:
        spans_ = traces.get(outcome.req_id)
        if not spans_:
            continue
        engine = state["engines"][outcome.index]
        client_ms = outcome.latency_ms
        split = common.request_breakdown(client_ms, outcome.late_ms, spans_, engine)
        d = common.stage_durations(spans_)
        for layer, ms in split.items():
            if layer != "fpga_modeled":
                layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
        by_engine.setdefault(engine, []).append(split.get("unattributed", 0.0))
        kreads["all"] += READS_PER_REQUEST / 1e3
        for k in ("seed", "locate", "sam"):
            stage_sum[k] += d.get(k, 0.0)
        if engine == "fpga":
            fpga_modeled.append(split["fpga_modeled"])
            fpga_wall.append(split["fpga"])
        else:
            kreads["software"] += READS_PER_REQUEST / 1e3
            stage_sum["search"] += d.get("search", 0.0)
        queue_waits.append(d.get("queue_wait", 0.0))
        runs.append(d.get("run", 0.0))
        app.append(split["app"])
        app_total += split["app"]
        client_total += client_ms - outcome.late_ms
    if not runs:
        raise procs.ProcError("serve_small: no request trace could be joined by X-Request-Id")
    layer_ms["build"] = rollover_total_s * 1e3
    software = [u for e, us in by_engine.items() if e != "fpga" for u in us]
    _, qtail = stats.tail(queue_waits)
    return {
        "layer_ms": layer_ms,
        "unattributed_by_engine": {e: round(sum(u) / len(u), 3) for e, u in by_engine.items()
                                   if e != "fpga"},
        "mapper.unattributed_ms": sum(software) / len(software) if software else 0.0,
        "fmindex.search_ms_per_kread": stage_sum["search"] / max(kreads["software"], 1e-9),
        "mapper.seed_ms_per_kread": stage_sum["seed"] / kreads["all"],
        "mapper.locate_ms_per_kread": stage_sum["locate"] / kreads["all"],
        "mapper.sam_ms_per_kread": stage_sum["sam"] / kreads["all"],
        "fpga.modeled_ms": stats.median(fpga_modeled) if fpga_modeled else 0.0,
        "fpga.search_wall_ms": stats.median(fpga_wall) if fpga_wall else 0.0,
        "jobs.queue_wait_p50_ms": stats.median(queue_waits),
        "jobs.queue_wait_p99_ms": qtail,
        "jobs.run_p50_ms": stats.median(runs),
        "jobs.rejected": float(server_stats["counters"].get("rejected_queue_full", 0)),
        "app.overhead_p50_ms": stats.median(app),
        "app.unattributed_pct": 100.0 * app_total / client_total if client_total else 0.0,
        "store.loads": prom.total(metrics, "bwaver_registry_loads_total"),
        "store.evictions": prom.total(metrics, "bwaver_registry_evictions_total"),
    }


def probe(ctx, state):
    server = ctx.server(_serve_args(ctx, state["store"], True, 64), "probe-serve")
    try:
        httpc.wait_ready(server.port)
        body = b"".join([state["payloads"][i] for i, r in enumerate(state["refs"])
                         if r == ECOLI][:PROBE_REQUESTS])
        return common.rank_probe(ctx, server.port, ECOLI, body, state["registry"])
    finally:
        server.stop()
