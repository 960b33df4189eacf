"""Shared plumbing for the workloads: the run context, archive facts, the
engine list read from the program's own registry, and the rank probe."""
import json
import os
import random
import re
import shutil
import threading
import time

from . import httpc, procs, prom, spans, stats


class Ctx:
    def __init__(self, bwaver, work, seed, seconds, nproc, recorder, dump_dir=None):
        self.rng = random.Random(seed)
        self.bwaver = bwaver
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.nproc = nproc
        self.rec = recorder
        self.dump_dir = dump_dir
        self._log = 0

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def log(self, tag):
        self._log += 1
        return self.path("logs", "%03d-%s.log" % (self._log, tag))

    def cli(self, args, tag, layer="proc", check=True):
        """Runs `bwaver <args>` as a timed, reaped child process."""
        return procs.run([self.bwaver] + args, self.log(tag), check=check,
                         recorder=self.rec, layer=layer, name="cli:" + tag)

    def server(self, args, tag):
        return procs.Server([self.bwaver] + args, self.log(tag))

    def _dump_target(self, name):
        target = os.path.join(self.dump_dir, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        return target

    def dump_file(self, name, path):
        """--dump-inputs: copy one generated input into the dump dir."""
        if self.dump_dir:
            shutil.copyfile(path, self._dump_target(name))

    def dump_data(self, name, data):
        """--dump-inputs: write one payload or expectation (str or bytes)."""
        if self.dump_dir:
            with open(self._dump_target(name), "w" if isinstance(data, str) else "wb") as dst:
                dst.write(data)


_ENGINE_LIST = re.compile(r"unknown engine: \S+ \(([^)]*)\)")


def registry_engines(ctx, store_dir):
    """Engine names the program's registry lists right now: the CLI rejects
    an unknown engine with the full list, so deleting an engine drops its
    row here instead of failing the benchmark."""
    result = ctx.cli(["index", "info", "--store-dir", store_dir, "--engine", "?"],
                     "engines", check=False)
    match = _ENGINE_LIST.search(result.out)
    if not match:
        raise procs.ProcError("cannot read the engine registry: " + result.out[-500:])
    return match.group(1).split("|")


def pick_oracle_engine(engines, timed):
    """An engine the timed path does not use, so the oracle cross-checks;
    the first listed engine only when every registered engine is timed."""
    preferred = ("epr", "sampled", "fpga", "rrr")
    ranked = [e for e in preferred if e in engines] + [e for e in engines
                                                       if e not in preferred]
    for name in ranked:
        if name not in timed:
            return name
    return engines[0]


_SECTION = re.compile(r"^(\w+)\s+\d+\s+(\d+)\s+[0-9a-f]{8}$")


def archive_sections(ctx, archive):
    """({section: bytes}, file bytes, text bp) from `index info --archive`."""
    out = ctx.cli(["index", "info", "--archive", archive], "index-info").out
    sections = {}
    file_bytes = bases = 0
    for line in out.splitlines():
        line = line.strip()
        match = _SECTION.match(line)
        if match:
            sections[match.group(1)] = int(match.group(2))
        elif line.startswith("file bytes:"):
            file_bytes = int(line.split(":")[1])
        elif line.startswith("text:"):
            bases = int(line.split()[1])
    return sections, file_bytes, bases


def fetch_traces(port):
    """{trace_id: spans} from /trace/recent."""
    doc = httpc.get_json(port, "/trace/recent")
    return {t["trace_id"]: t["spans"] for t in doc.get("traces", [])}


def stage_durations(server_spans):
    """{span name: summed duration} of one server trace."""
    out = {}
    for span in server_spans:
        out[span["name"]] = out.get(span["name"], 0.0) + max(span["dur_ms"], 0.0)
    return out


def request_breakdown(client_ms, late_ms, server_spans, engine):
    """Splits one served request's due-to-done latency across layers.

    The mapper's stage spans are emitted as aggregates at the end of
    map_records, so they are summed, not unioned; whatever map_records
    holds beyond its stages is `unattributed` for software engines (today
    mostly per-request engine preparation). For the modeled FPGA engine
    the search span carries modeled device time, so the FPGA model's wall
    time is map_records minus the wall-time stages."""
    d = stage_durations(server_spans)
    root = sum(v for k, v in d.items() if k.startswith("job:"))
    queue_wait = d.get("queue_wait", 0.0)
    run = d.get("run", 0.0)
    map_ms = d.get("map_records", 0.0)
    wall_stages = d.get("seed", 0.0) + d.get("locate", 0.0) + d.get("sam", 0.0)
    out = {"loadgen": late_ms, "app": max(0.0, client_ms - late_ms - root),
           "jobs": queue_wait + max(0.0, root - queue_wait - run),
           "store": max(0.0, run - map_ms), "mapper": wall_stages}
    if engine == "fpga":
        out["fpga"] = max(0.0, map_ms - wall_stages)
        out["fpga_modeled"] = d.get("search", 0.0)
    else:
        out["fmindex"] = d.get("search", 0.0)
        out["unattributed"] = spans.unattributed_ms(map_ms, [wall_stages, out["fmindex"]])
    return out


def record_requests(rec, outcomes, traces_by_request, fpga_ids=()):
    """Benchmark-side span per HTTP request, with the server span trees it
    caused (joined by X-Request-Id) grafted beneath it. The search span of
    an FPGA request carries modeled device time and is marked modeled."""
    if not rec.enabled:
        return
    for outcome in outcomes:
        sid = rec.add("http:/map", "app", rec.ms_of(outcome.sent),
                      (outcome.done - outcome.sent) * 1e3, trace_id=outcome.req_id,
                      args={"status": outcome.status, "late_ms": outcome.late_ms})
        for trace_id, server_spans in traces_by_request.get(outcome.req_id, ()):
            rec.graft(server_spans, sid, rec.ms_of(outcome.sent),
                      (outcome.done - outcome.sent) * 1e3, trace_id,
                      modeled_names=("search",) if outcome.req_id in fpga_ids else ())


def rank_probe(ctx, port, ref, fastq_bytes, engines):
    """fmindex.rank_mops.<engine> on the workload's own archive.

    Every software engine maps the same probe batch with the sweep
    scheduler, whose `bwaver_sweep_state_steps_total` counts backward-search
    steps exactly; a step is one rank pair (interval low and high), so
    rank/s = 2 x steps / search-stage seconds. The FPGA model does not sweep:
    its row divides the rrr engine's step count for the same batch by the
    FPGA search wall time taken from the request's trace."""
    span_start = ctx.rec.now_ms()
    rows = {}
    steps_by_engine = {}
    fpga_wall = None
    fpga_modeled_ms = 0.0
    for engine in engines:
        for attempt in range(2):  # the first request warms the engine's pages
            before = prom.parse(httpc.request(port, "GET", "/metrics")[2].decode())
            rid = "probe-%s-%d" % (engine, attempt)
            status, _, _ = httpc.request(
                port, "POST", "/map?ref=%s&engine=%s&search_mode=sweep" % (ref, engine),
                fastq_bytes, {"X-Request-Id": rid})
            if status != 200:
                raise procs.ProcError("rank probe %s -> HTTP %d" % (engine, status))
            after = prom.parse(httpc.request(port, "GET", "/metrics")[2].decode())
        steps = (prom.total(after, "bwaver_sweep_state_steps_total", engine=engine)
                 - prom.total(before, "bwaver_sweep_state_steps_total", engine=engine))
        search_s = (prom.total(after, "bwaver_map_stage_seconds_sum", engine=engine,
                               stage="search")
                    - prom.total(before, "bwaver_map_stage_seconds_sum", engine=engine,
                                 stage="search"))
        if engine == "fpga":
            trace = fetch_traces(port).get(rid, [])
            d = stage_durations(trace)
            fpga_wall = (d.get("map_records", 0.0) - d.get("seed", 0.0)
                         - d.get("locate", 0.0) - d.get("sam", 0.0)) / 1e3
            fpga_modeled_ms = d.get("search", 0.0)
        elif steps > 0 and search_s > 0:
            steps_by_engine[engine] = steps
            rows[engine] = 2.0 * steps / search_s / 1e6
    if fpga_wall and "rrr" in steps_by_engine:
        rows["fpga"] = 2.0 * steps_by_engine["rrr"] / fpga_wall / 1e6
    ctx.rec.add("probe:rank", "fmindex", span_start, ctx.rec.now_ms() - span_start,
                args={"engines": ",".join(engines)})
    return {"rank_mops": rows, "fpga_modeled_ms": fpga_modeled_ms,
            "fpga_wall_ms": (fpga_wall or 0.0) * 1e3}


_MAPPED = re.compile(r"mapped (\d+)/(\d+) reads \((\d+) occurrences\)")


def occurrences_per_read(cli_out):
    """Occurrences (SA hits) per read, from a `bwaver map` summary line."""
    match = _MAPPED.search(cli_out)
    if not match:
        raise ValueError("no mapping summary in: " + cli_out[-300:])
    return int(match.group(3)) / int(match.group(2))


def rollover_series(count, do_rollover, first_at, spacing, out):
    """Runs `count` rollovers in a background thread: the first `first_at`
    seconds from now, each later one `spacing` seconds after the previous
    was due (or when it ends, if later). do_rollover() returns (ok, seconds).
    `out` collects "seconds" (successful durations) and "failed"."""
    def run():
        due = now() + first_at
        for _ in range(count):
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            try:
                ok, seconds = do_rollover()
            except (OSError, procs.ProcError):
                ok, seconds = False, 0.0
            if ok:
                out.setdefault("seconds", []).append(seconds)
            else:
                out["failed"] = out.get("failed", 0) + 1
            due += spacing

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def http_rollover(port, ref, fasta_bytes):
    """POST /admin/rollover; (ok, seconds until the new generation serves)."""
    t0 = now()
    status, _, _ = httpc.request(port, "POST", "/admin/rollover?ref=" + ref, fasta_bytes,
                                 timeout=120.0)
    return status == 200, now() - t0


def rollover_summary(out):
    """(median seconds or NaN, failed count, summed seconds) of a series."""
    seconds = out.get("seconds", [])
    med = stats.median(seconds) if seconds else float("nan")
    return med, out.get("failed", 0), sum(seconds)


def record_setup(ctx, t0):
    """Benchmark-side span for one set-up repetition started at perf time t0."""
    ctx.rec.add("setup", "build", ctx.rec.ms_of(t0), (now() - t0) * 1e3)


def empty_dir(path):
    """`path`, emptied: each set-up repetition builds a store from scratch."""
    shutil.rmtree(path, ignore_errors=True)
    return path


def phase_store(ctx, store, tag):
    """A private copy of the set-up store for one phase: a rollover rewrites
    its store, and every phase must start from the same archives."""
    copy = ctx.path("phase-store-" + tag)
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(store, copy)
    return copy


def usage_totals(usages):
    return {"proc.cpu_s": sum(u.cpu_s for u in usages),
            "proc.minor_faults": float(sum(u.minflt for u in usages)),
            "proc.major_faults": float(sum(u.majflt for u in usages))}


def latency_metrics(latencies_ms):
    pct, tail_ms = stats.tail(latencies_ms)
    return stats.median(latencies_ms), tail_ms, pct


def now():
    return time.perf_counter()


def write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
