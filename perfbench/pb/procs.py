"""Child processes of the benchmark: timed CLI invocations and long-running
servers, each reaped with wait4 so its rusage (peak RSS, CPU, faults) is
known. Every process started here is tracked and stopped on exit."""
import atexit
import os
import re
import signal
import subprocess
import time

_LIVE = {}


def stop_all():
    for proc in list(_LIVE.values()):
        proc.stop()


atexit.register(stop_all)


def _on_signal(signum, _frame):
    stop_all()
    raise SystemExit(128 + signum)


signal.signal(signal.SIGTERM, _on_signal)


class Usage:
    """The slice of struct rusage the benchmark reports."""

    def __init__(self, ru=None):
        self.maxrss_mb = ru.ru_maxrss / 1024.0 if ru else 0.0
        self.cpu_s = (ru.ru_utime + ru.ru_stime) if ru else 0.0
        self.minflt = ru.ru_minflt if ru else 0
        self.majflt = ru.ru_majflt if ru else 0


class Result:
    def __init__(self, code, wall_s, usage, out, sid=0):
        self.sid = sid
        self.code = code
        self.wall_s = wall_s
        self.usage = usage
        self.out = out


class ProcError(RuntimeError):
    pass


def _reap(pid):
    _, status, ru = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), Usage(ru)


def run(argv, log_path, check=True, recorder=None, layer="proc", name=None):
    """Runs argv to completion with stdout+stderr in log_path. Returns a
    Result; raises ProcError on a non-zero exit when check is set."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        popen = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL)
        tracked = _Tracked(popen)
        _LIVE[popen.pid] = tracked
        try:
            code, usage = _reap(popen.pid)
        finally:
            tracked.reaped = True
            _LIVE.pop(popen.pid, None)
    end = time.perf_counter()
    with open(log_path, "r", errors="replace") as log:
        out = log.read()
    sid = 0
    if recorder is not None:
        sid = recorder.add(name or "cli:" + os.path.basename(argv[0]), layer,
                           recorder.ms_of(start), (end - start) * 1e3,
                           args={"cpu_s": usage.cpu_s, "maxrss_mb": usage.maxrss_mb})
    if check and code != 0:
        raise ProcError("%s exited %d: %s" % (" ".join(argv), code, out[-2000:]))
    return Result(code, end - start, usage, out, sid)


class _Tracked:
    def __init__(self, popen):
        self.popen = popen
        self.reaped = False
        self.code = None
        self.usage = Usage()

    def stop(self):
        if self.reaped:
            return
        try:
            self.popen.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.time() + 10
        while time.time() < deadline:
            pid, status, ru = os.wait4(self.popen.pid, os.WNOHANG)
            if pid:
                self.code, self.usage = os.waitstatus_to_exitcode(status), Usage(ru)
                self.reaped = True
                break
            time.sleep(0.02)
        else:
            self.popen.kill()
            self.code, self.usage = _reap(self.popen.pid)
            self.reaped = True
        _LIVE.pop(self.popen.pid, None)


class Server:
    """A long-running bwaver serve/router process bound to an ephemeral port
    (parsed from its banner line)."""

    PORT_RE = re.compile(r"http://127\.0\.0\.1:(\d+)/")

    def __init__(self, argv, log_path, ready_timeout=60.0):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        popen = subprocess.Popen(argv, stdout=self._log, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL)
        self._tracked = _Tracked(popen)
        _LIVE[popen.pid] = self._tracked
        self.pid = popen.pid
        self.port = self._wait_port(ready_timeout)

    def _wait_port(self, timeout):
        deadline = time.time() + timeout
        while time.time() < deadline:
            with open(self.log_path, "r", errors="replace") as log:
                match = self.PORT_RE.search(log.read())
            if match:
                return int(match.group(1))
            if self._tracked.popen.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        with open(self.log_path, "r", errors="replace") as log:
            raise ProcError("server did not start: " + log.read()[-2000:])

    def stop(self):
        """Stops the process; returns its rusage."""
        self._tracked.stop()
        self._log.close()
        return self._tracked.usage
