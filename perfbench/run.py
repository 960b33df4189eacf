#!/usr/bin/env python3
"""BWaveR end-to-end benchmark.

    python3 perfbench/run.py --workload bulk|serve_small|fleet --seed N \\
        --seconds S --trace 0|1 [--dump-inputs DIR]

Run from the root of a BWaveR checkout. Builds `bwaver` from source into
.bench_build/, generates every input from --seed with the program's own
simulators, times the workload for --seconds, checks every SAM against an
oracle and prints one JSON object as the last line of stdout:

  --trace 0  end-to-end metrics (tracing off everywhere)
  --trace 1  per-layer metrics: the same workload run untraced and then
             traced for half of --seconds each, plus the rank probe; the
             spans are written as Chrome trace JSON to .bench_out/.

Exit status is non-zero, with no result line, when the build fails, any
SAM differs from the oracle, or the directory is not a BWaveR checkout.
See perfbench/README.md for the workloads and metric definitions.
"""
import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import bulk, common, fleet, procs, report, serve_small, spans  # noqa: E402

WORKLOADS = {"bulk": bulk, "serve_small": serve_small, "fleet": fleet}
SETUP_REPS = 3
# A run must end well inside 180 s once the binary is built; a wedged
# server or client is cut off here and reported as a failed run.
RUN_DEADLINE_S = 170
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"


def build(root, nproc):
    """Configures (once) and builds the bwaver binary; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(root, BUILD_DIR, "build.log")
    with open(log_path, "wb") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", root, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "bwaver", "-j", str(nproc)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                with open(log_path, errors="replace") as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise procs.ProcError("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "src", "app", "bwaver")
    if not os.access(binary, os.X_OK):
        raise procs.ProcError("build produced no bwaver binary")
    return binary


def quiesce():
    """Before a timed phase: flush the set-up's dirty pages and move the
    set-up's Python objects out of the collector's reach, so neither
    writeback nor a full collection lands inside the measurement."""
    os.sync()
    gc.collect()
    gc.freeze()


def remove_stale_work(work_root):
    """Deletes work directories whose run (named by its pid) is gone, e.g.
    after a SIGKILL that skipped the normal clean-up."""
    if not os.path.isdir(work_root):
        return
    for name in os.listdir(work_root):
        pid = name.rsplit("-", 1)[-1]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(work_root, name), ignore_errors=True)
        except PermissionError:
            pass


def _deadline(_signum, _frame):
    raise TimeoutError("run exceeded %d s" % RUN_DEADLINE_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-inputs", metavar="DIR",
                        help="write the workload's FASTA, request payloads, arrival "
                             "schedule and expected SAM digests here")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "app"))):
        sys.stderr.write("perfbench: run from the root of a BWaveR checkout "
                         "(no CMakeLists.txt / src/app here)\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    try:
        binary = build(root, nproc)
    except procs.ProcError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    tag = "%s-s%d" % (args.workload, args.seed)
    remove_stale_work(os.path.join(root, WORK_DIR))
    work = os.path.join(root, WORK_DIR, "%s-%d" % (tag, os.getpid()))
    os.makedirs(os.path.join(work, "logs"))
    dump_dir = os.path.abspath(args.dump_inputs) if args.dump_inputs else None
    recorder = spans.Recorder(enabled=bool(args.trace))
    ctx = common.Ctx(binary, work, args.seed, args.seconds, nproc, recorder, dump_dir)
    module = WORKLOADS[args.workload]
    try:
        if args.trace:
            state = module.prepare(ctx, setup_reps=1)
            quiesce()
            base = module.phase(ctx, state, args.seconds / 2, traced=False)
            quiesce()
            traced = module.phase(ctx, state, args.seconds / 2, traced=True)
            probe = module.probe(ctx, state)
            metrics = report.per_layer(args.workload, state, base, traced, probe)
            out_dir = os.path.join(root, OUT_DIR)
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, tag + "-trace.json"), "w") as handle:
                handle.write(recorder.chrome())
            common.write_json(os.path.join(out_dir, tag + "-layers.json"), metrics)
            result = {k: base[k] + traced[k] for k in ("attempted", "failed")}
        else:
            state = module.prepare(ctx, setup_reps=SETUP_REPS)
            quiesce()
            result = module.phase(ctx, state, args.seconds, traced=False)
            metrics = report.end_to_end(state, result)
    except (procs.ProcError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("perfbench: %s failed: %s\n" % (args.workload, exc))
        return 1
    finally:
        signal.alarm(0)
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    report.print_table(args.workload, metrics)
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": report.contract(metrics, bool(args.trace))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
