"""Load generators.

Open loop: requests are due on a fixed schedule whatever the system does,
so a stall makes later requests wait. Each request's latency is measured
from the time it was *due*, not the time a sender got to it, and the
generator's own lateness (sent - due) is reported so a run whose generator
fell behind can be recognised.

Closed loop: each client sends its next request when the previous reply
arrives.
"""
import queue
import threading
import time


class Outcome:
    __slots__ = ("index", "due", "sent", "done", "ok", "status", "detail", "req_id")

    def __init__(self, index, due, sent, done, ok, status, detail="", req_id=""):
        self.index = index
        self.due = due
        self.sent = sent
        self.done = done
        self.ok = ok
        self.status = status
        self.detail = detail
        self.req_id = req_id

    @property
    def latency_ms(self):
        """Due-to-done: includes any time the request waited for a sender."""
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self):
        return (self.sent - self.due) * 1e3


def open_loop(offsets, send, senders, clock=time.perf_counter, sleep=time.sleep):
    """Runs send(index) for each schedule entry at start + offsets[index].

    send returns (ok, status, detail, req_id). Returns Outcomes in schedule
    order. `senders` threads share the due queue, so at most that many
    requests are in flight."""
    due_queue = queue.Queue()
    outcomes = [None] * len(offsets)

    def worker():
        while True:
            item = due_queue.get()
            if item is None:
                return
            index, due = item
            sent = clock()
            try:
                ok, status, detail, req_id = send(index)
            except Exception as exc:  # a transport failure is a failed request
                ok, status, detail, req_id = False, 0, repr(exc), ""
            outcomes[index] = Outcome(index, due, sent, clock(), ok, status, detail, req_id)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    start = clock()
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        due_queue.put((index, due))
    for _ in threads:
        due_queue.put(None)
    for thread in threads:
        thread.join()
    return outcomes


def closed_loop(clients, seconds, send, clock=time.perf_counter):
    """Each of `clients` threads calls send(client, seq) back to back until
    `seconds` have passed. Returns Outcomes (due == sent)."""
    outcomes = []
    lock = threading.Lock()
    stop_at = clock() + seconds

    def client(cid):
        seq = 0
        while clock() < stop_at:
            sent = clock()
            try:
                ok, status, detail, req_id = send(cid, seq)
            except Exception as exc:
                ok, status, detail, req_id = False, 0, repr(exc), ""
            with lock:
                outcomes.append(Outcome(len(outcomes), sent, sent, clock(), ok, status,
                                        detail, req_id))
            seq += 1

    threads = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
