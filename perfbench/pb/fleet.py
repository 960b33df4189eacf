"""`fleet`: `bwaver router` over two `bwaver serve --engine rrr` replicas that
share one store.

Closed loop: two client connections each send a fresh request of
READS_PER_REQUEST x 100 bp reads as soon as the previous reply arrives; the
router splits each into 256-read shards, routes them on its hash ring and
drives every shard through a replica's job API (submit, poll, fetch), with
hedging and retries, then splices the SAM. ROLLOVERS fleet-wide
`/admin/rollover`s are spread over the run. This is the only workload where the
ring, the job API, splicing and hedging carry real work; `rrr` has no
per-request engine preparation, so fleet overhead is measured apart from
serve_small's preparation cost."""
import json
import random
import socket
import threading
import time

from . import common, httpc, loadgen, oracle, procs, prom, stats

REF = "fleetref"
READS_PER_REQUEST = 4096
SHARD_READS = 256
POOL_READS = 65536
READ_BP = 100
MAPPING_RATIO = 0.8
CLIENTS = 2
REPLICAS = 2
PROXY_PROBE_REQUESTS = 20
# Fleet-wide rollovers per run, evenly spaced; rollover_s is their median.
ROLLOVERS = 3
WARMUP_S = 2.0
HTTP_THREADS = 64
# The router's hash ring places backends by "host:port", so ephemeral ports
# would deal the shards to the replicas differently on every run. Replicas
# listen on the first free pair from this base instead.
REPLICA_PORT_BASE = 47310
PORT_PAIRS_TRIED = 10


def _replica_args(store, traced, ring, workers, port=0):
    return ["serve", "--port", str(port), "--store-dir", store, "--engine", "rrr", "--workers",
            str(workers), "--http-threads", str(HTTP_THREADS), "--trace",
            "on" if traced else "off", "--trace-ring", str(ring)]


def _workers(ctx):
    return max(1, ctx.nproc // REPLICAS)


def _start_replicas(ctx, store, traced, ring):
    for pair in range(PORT_PAIRS_TRIED):
        started = []
        try:
            for i in range(REPLICAS):
                port = REPLICA_PORT_BASE + REPLICAS * pair + i
                started.append(ctx.server(
                    _replica_args(store, traced, ring, _workers(ctx), port), "replica"))
            return started
        except procs.ProcError:
            for replica in started:
                replica.stop()
    raise procs.ProcError("no free replica port pair from %d" % REPLICA_PORT_BASE)


class Fleet:
    """Two replicas and a router; `backends` overrides the router's targets
    (the counting proxies of the connection probe)."""

    def __init__(self, ctx, store, traced, ring=64, backends=None, replicas=None):
        self.replicas = replicas or _start_replicas(ctx, store, traced, ring)
        self.own_replicas = replicas is None
        for replica in self.replicas:
            httpc.wait_ready(replica.port)
        ports = backends or [r.port for r in self.replicas]
        args = ["router", "--port", "0", "--shard-reads", str(SHARD_READS)]
        for port in ports:
            args += ["--backend", "127.0.0.1:%d" % port]
        self.router = ctx.server(args, "router")
        httpc.wait_ready(self.router.port)
        self._wait_backends_up()

    def _wait_backends_up(self):
        deadline = common.now() + 30
        while common.now() < deadline:
            entries = httpc.get_json(self.router.port, "/backends")
            if entries and all(e.get("up") for e in entries):
                return
            time.sleep(0.02)
        raise procs.ProcError("router never saw every backend up")

    def warm(self, body):
        for replica in self.replicas:
            status, _, _ = httpc.request(replica.port, "POST", "/map?ref=" + REF, body)
            if status != 200:
                raise procs.ProcError("replica warm-up -> HTTP %d" % status)

    def stop(self):
        usages = [self.router.stop()]
        if self.own_replicas:
            usages += [r.stop() for r in self.replicas]
        return usages


def prepare(ctx, setup_reps):
    fasta = ctx.path("fleet.fa")
    reads = ctx.path("pool.fq")
    ctx.cli(["simulate-genome", "--preset", "ecoli", "--seed", str(ctx.seed), "--name", REF,
             "--out", fasta], "sim-genome")
    ctx.cli(["simulate-reads", "--ref", fasta, "--num", str(POOL_READS), "--length",
             str(READ_BP), "--mapping-ratio", str(MAPPING_RATIO), "--seed", str(ctx.seed + 1),
             "--out", reads], "sim-reads")
    pool = oracle.read_fastq(reads)
    warm = pool[0][1]

    setups, builds, build_rss, loads = [], [], [], []
    store = None
    for rep in range(setup_reps):
        store = common.empty_dir(ctx.path("store"))
        t0 = common.now()
        built = ctx.cli(["index", "build", "--ref", fasta, "--store-dir", store, "--name", REF],
                        "setup-build", layer="build")
        builds.append(built.wall_s)
        build_rss.append(built.usage.maxrss_mb)
        fleet = Fleet(ctx, store, traced=False)
        try:
            t1 = common.now()
            fleet.warm(warm)
            first = common.now() - t1
            setups.append(common.now() - t0)
            common.record_setup(ctx, t0)
            t1 = common.now()
            fleet.warm(warm)
            loads.append((first - (common.now() - t1)) / REPLICAS * 1e3)
        finally:
            fleet.stop()

    registry = common.registry_engines(ctx, store)
    oracle_engine = common.pick_oracle_engine(registry, ("rrr",))
    sam = ctx.path("pool.oracle.sam")
    mapped = ctx.cli(["map", "--store-dir", store, "--ref-name", REF, "--reads", reads,
                      "--engine", oracle_engine, "--threads", str(ctx.nproc), "--out", sam],
                     "oracle")
    with open(sam, "rb") as handle:
        sam_oracle = oracle.SamOracle(handle.read())
    sections, file_bytes, bases = common.archive_sections(ctx, "%s/%s.bwva" % (store, REF))
    ctx.dump_file("fleet/fleet.fa", fasta)
    ctx.dump_file("fleet/pool.fq", reads)
    return {"fasta": fasta, "store": store, "pool": pool, "oracle": sam_oracle, "warm": warm,
            "registry": registry, "setup_s": setups, "build_s": builds,
            "build_rss_mb": build_rss, "load_ms": loads, "sections": sections,
            "file_bytes": file_bytes, "bases": bases, "oracle_engine": oracle_engine,
            "occurrences_per_read": common.occurrences_per_read(mapped.out)}


def _request(state, rng):
    """A fresh request: READS_PER_REQUEST distinct pool reads in a fresh order."""
    picks = rng.sample(range(len(state["pool"])), READS_PER_REQUEST)
    records = [state["pool"][i] for i in picks]
    body = b"".join(r for _, r in records)
    return picks, body, state["oracle"].expected([n for n, _ in records])


def phase(ctx, state, seconds, traced):
    ring = 4096 if traced else 64
    tag = "t" if traced else "u"
    fleet = Fleet(ctx, common.phase_store(ctx, state["store"], tag), traced, ring=ring)
    usages = []
    sent_log = []
    mismatches = []
    rollover = {}
    try:
        fleet.warm(state["warm"])
        port = fleet.router.port
        rngs = [random.Random("%d-%s-%d" % (ctx.seed, tag, c)) for c in range(CLIENTS)]

        def send(cid, seq, warm=""):
            picks, body, expected = _request(state, rngs[cid])
            rid = "fl-%d-%s%s-%d-%d" % (ctx.seed, tag, warm, cid, seq)
            status, _, got = httpc.request(port, "POST", "/map?ref=" + REF, body,
                                           {"X-Request-Id": rid}, timeout=120.0)
            sent_log.append({"id": rid, "reads": picks,
                             "expected_sha256": oracle.digest(expected)})
            if status != 200:
                return False, status, got[:200].decode(errors="replace"), rid
            if got != expected:
                mismatches.append(rid)
                return False, status, "SAM differs from the oracle", rid
            return True, status, "", rid

        def warm_send(cid, seq):
            return send(cid, seq, "w")

        # Untimed warm-up: the router's hedge delay starts at its floor and
        # its connection pools empty, so the first requests hedge and
        # connect far more than in steady state.
        loadgen.closed_loop(CLIENTS, WARMUP_S, warm_send)
        del sent_log[:]
        with open(state["fasta"], "rb") as handle:
            fasta = handle.read()
        step = seconds / (ROLLOVERS + 1)
        roller = common.rollover_series(ROLLOVERS,
                                        lambda: common.http_rollover(port, REF, fasta),
                                        step, step, rollover)
        t_start = common.now()
        outcomes = loadgen.closed_loop(CLIENTS, seconds, send)
        wall = common.now() - t_start
        roller.join()
        router_metrics = prom.parse(httpc.request(port, "GET", "/metrics")[2].decode())
        replica_metrics = [prom.parse(httpc.request(r.port, "GET", "/metrics")[2].decode())
                           for r in fleet.replicas]
        replica_stats = [httpc.get_json(r.port, "/stats") for r in fleet.replicas]
        traces = {}
        if traced:
            for replica in fleet.replicas:
                traces.update(common.fetch_traces(replica.port))
    finally:
        usages = fleet.stop()
    if mismatches:
        raise procs.ProcError("fleet: %d response(s) differ from the oracle (first: %s)"
                              % (len(mismatches), mismatches[0]))
    if ctx.dump_dir:
        ctx.dump_data("fleet/requests-%s.json" % tag, json.dumps(sent_log))

    ok = [o for o in outcomes if o.ok]
    if not ok:
        raise procs.ProcError("fleet: every request failed, e.g. %s" % outcomes[0].detail)
    lat = [o.latency_ms for o in ok]
    p50, tail_ms, pct = common.latency_metrics(lat)
    rollover_s, rollover_failed, rollover_total = common.rollover_summary(rollover)
    out = {
        "reads_per_s": len(ok) * READS_PER_REQUEST / wall,
        "latency_p50_ms": p50, "latency_p99_ms": tail_ms, "tail_pct": pct,
        "requests": len(ok),
        "attempted": len(outcomes) + ROLLOVERS,
        "failed": len(outcomes) - len(ok) + rollover_failed,
        "peak_rss_mb": max(u.maxrss_mb for u in usages),
        "rollover_s": rollover_s,
        "usages": usages,
        "late_p99_ms": 0.0,
    }
    if traced:
        out["layers"] = _layers(ok, traces, router_metrics, replica_metrics, replica_stats,
                                rollover_total)
        by_request = {}
        for trace_id, spans_ in traces.items():
            rid = _split_shard_id(trace_id)[0]
            if rid:
                by_request.setdefault(rid, []).append((trace_id, spans_))
        common.record_requests(ctx.rec, outcomes, by_request)
    return out


def _split_shard_id(trace_id):
    """The router names a shard attempt `<request id>-s<shard>-a<attempt>`;
    returns (request id, shard), or ("", -1) for any other trace."""
    head, _, attempt = trace_id.rpartition("-a")
    rid, _, shard = head.rpartition("-s")
    if not (rid and attempt.isdigit() and shard.isdigit()):
        return "", -1
    return rid, int(shard)


def _root_ms(spans_):
    return sum(s["dur_ms"] for s in spans_ if s["name"].startswith("job:"))


def _layers(ok, traces, router_metrics, replica_metrics, replica_stats, rollover_total_s):
    """Joins each client request to its shards' replica traces (ids
    `<request>-s<shard>-a<attempt>`) and splits its latency: the slowest
    shard's replica job (queue wait, store, mapper stages, fmindex search,
    unattributed) is the blocking path, and the rest is router time
    (`fleet`)."""
    by_request = {}
    for trace_id, spans_ in traces.items():
        rid, shard = _split_shard_id(trace_id)
        if rid:
            by_request.setdefault(rid, {}).setdefault(shard, []).append(spans_)
    layer_ms = {}
    overheads, queue_waits, runs = [], [], []
    unattributed = []
    stage = {"seed": 0.0, "search": 0.0, "locate": 0.0, "sam": 0.0}
    shard_count = 0
    for outcome in ok:
        shards = by_request.get(outcome.req_id)
        if not shards:
            continue
        slowest = None
        for attempts in shards.values():
            shard_count += 1
            # Attempts' clocks are not comparable across replicas. A hedge's
            # loser is cancelled before its stage spans are emitted, so the
            # winner is the shortest attempt that completed its stages.
            done = [a for a in attempts if "sam" in common.stage_durations(a)] or attempts
            best = min(done, key=_root_ms)
            d = common.stage_durations(best)
            root = _root_ms(best)
            for k in stage:
                stage[k] += d.get(k, 0.0)
            queue_waits.append(d.get("queue_wait", 0.0))
            runs.append(d.get("run", 0.0))
            if slowest is None or root > slowest[0]:
                slowest = (root, best)
        client_ms = outcome.latency_ms
        split = common.request_breakdown(client_ms, 0.0, slowest[1], "rrr")
        overhead = split.pop("app")
        overheads.append(overhead)
        split["fleet"] = overhead
        split.pop("loadgen")
        unattributed.append(split.get("unattributed", 0.0))
        for layer, ms in split.items():
            layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
    if not overheads:
        raise procs.ProcError("fleet: no request could be joined to replica traces")
    layer_ms["build"] = rollover_total_s * 1e3
    kreads = shard_count * SHARD_READS / 1e3
    hedges = prom.total(router_metrics, "bwaver_router_hedges_total")
    lost = sum(prom.total(m, "bwaver_jobs_cancel_requests_total", reason="hedge-lost")
               for m in replica_metrics)
    _, qtail = stats.tail(queue_waits)
    return {
        "layer_ms": layer_ms,
        "fleet.router_overhead_p50_ms": stats.median(overheads),
        "fleet.retries": prom.total(router_metrics, "bwaver_router_retries_total"),
        "fleet.hedges": hedges,
        "fleet.hedge_lost_ratio": lost / hedges if hedges else 0.0,
        "fmindex.search_ms_per_kread": stage["search"] / kreads,
        "mapper.seed_ms_per_kread": stage["seed"] / kreads,
        "mapper.locate_ms_per_kread": stage["locate"] / kreads,
        "mapper.sam_ms_per_kread": stage["sam"] / kreads,
        "mapper.unattributed_ms": sum(unattributed) / len(unattributed),
        "jobs.queue_wait_p50_ms": stats.median(queue_waits),
        "jobs.queue_wait_p99_ms": qtail,
        "jobs.run_p50_ms": stats.median(runs),
        "jobs.rejected": float(sum(s["counters"].get("rejected_queue_full", 0)
                                   for s in replica_stats)),
        "store.loads": sum(prom.total(m, "bwaver_registry_loads_total") for m in replica_metrics),
        "store.evictions": sum(prom.total(m, "bwaver_registry_evictions_total")
                               for m in replica_metrics),
    }


class CountingProxy:
    """A loopback TCP relay in front of one replica that counts the
    connections the router opens and the HTTP requests it sends on them,
    by method and path shape."""

    def __init__(self, target_port):
        self.target = target_port
        self.connections = 0
        self.requests = {}
        self._lock = threading.Lock()
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._threads = []
        self._closing = False
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept.start()

    def _accept_loop(self):
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
            upstream = socket.create_connection(("127.0.0.1", self.target))
            for src, dst, count in ((client, upstream, True), (upstream, client, False)):
                thread = threading.Thread(target=self._pump, args=(src, dst, count),
                                          daemon=True)
                thread.start()
                self._threads.append(thread)

    def _count(self, head):
        line = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ")
        if len(line) < 2:
            return 0
        method, path = line[0], line[1].split("?")[0]
        parts = path.strip("/").split("/")
        if parts[0] == "jobs" and len(parts) == 2:
            kind = "%s /jobs/{id}" % method
        elif parts[0] == "jobs" and len(parts) == 3:
            kind = "%s /jobs/{id}/%s" % (method, parts[2])
        else:
            kind = "%s %s" % (method, path)
        with self._lock:
            self.requests[kind] = self.requests.get(kind, 0) + 1
        length = 0
        for header in head.split(b"\r\n")[1:]:
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return length

    def _pump(self, src, dst, count):
        buffer = b""
        skip = 0
        try:
            while True:
                data = src.recv(1 << 16)
                if not data:
                    break
                dst.sendall(data)
                if not count:
                    continue
                buffer += data
                while True:
                    if skip:
                        take = min(skip, len(buffer))
                        buffer = buffer[take:]
                        skip -= take
                        if skip:
                            break
                    end = buffer.find(b"\r\n\r\n")
                    if end < 0:
                        break
                    skip = self._count(buffer[:end])
                    buffer = buffer[end + 4:]
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self):
        self._closing = True
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)


def probe(ctx, state):
    """Rank rows on a replica, then a short proxied run for the router's
    connection and poll counts (kept out of the timed phases, where a
    Python relay would distort the timings it observes)."""
    replicas = _start_replicas(ctx, state["store"], True, 256)
    proxies = []
    fleet = None
    try:
        for replica in replicas:
            httpc.wait_ready(replica.port)
        rng = random.Random("%d-probe" % ctx.seed)
        _, body, _ = _request(state, rng)
        result = common.rank_probe(ctx, replicas[0].port, REF, body, state["registry"])
        proxies = [CountingProxy(r.port) for r in replicas]
        fleet = Fleet(ctx, state["store"], False, backends=[p.port for p in proxies],
                      replicas=replicas)
        base_connections = sum(p.connections for p in proxies)
        shards_before = prom.total(
            prom.parse(httpc.request(fleet.router.port, "GET", "/metrics")[2].decode()),
            "bwaver_router_shards_total")
        for i in range(PROXY_PROBE_REQUESTS):
            _, body, expected = _request(state, rng)
            status, _, got = httpc.request(fleet.router.port, "POST", "/map?ref=" + REF, body)
            if status != 200 or got != expected:
                raise procs.ProcError("fleet probe request %d failed (HTTP %d)" % (i, status))
        shards = prom.total(
            prom.parse(httpc.request(fleet.router.port, "GET", "/metrics")[2].decode()),
            "bwaver_router_shards_total") - shards_before
        polls = sum(p.requests.get("GET /jobs/{id}", 0) for p in proxies)
        result["polls_per_shard"] = polls / shards if shards else 0.0
        result["connections_opened"] = float(sum(p.connections for p in proxies)
                                             - base_connections)
        result["proxy_requests"] = {}
        for p in proxies:
            for kind, n in p.requests.items():
                result["proxy_requests"][kind] = result["proxy_requests"].get(kind, 0) + n
        return result
    finally:
        if fleet is not None:
            fleet.stop()
        for replica in replicas:
            replica.stop()
        for proxy in proxies:
            proxy.close()
