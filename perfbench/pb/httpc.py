"""Minimal HTTP/1.1 client: one connection per request, Content-Length
bodies, and never an `Expect: 100-continue` header (the server does not
answer it, so a client that sends it stalls for a second on large bodies)."""
import json
import socket
import time


class HttpError(IOError):
    pass


def request(port, method, path, body=b"", headers=None, timeout=120.0,
            host="127.0.0.1"):
    """Returns (status, headers with lower-case names, body bytes)."""
    lines = ["%s %s HTTP/1.1" % (method, path), "Host: %s:%d" % (host, port),
             "Connection: close", "Content-Length: %d" % len(body)]
    for key, value in (headers or {}).items():
        lines.append("%s: %s" % (key, value))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode()
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body if len(body) < 65536 else head)
        if len(body) >= 65536:
            sock.sendall(body)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    split = raw.find(b"\r\n\r\n")
    if split < 0:
        raise HttpError("truncated response head")
    head_lines = raw[:split].decode("latin-1").split("\r\n")
    parts = head_lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError("bad status line: %r" % head_lines[0])
    resp_headers = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(":")
        resp_headers[key.strip().lower()] = value.strip()
    payload = raw[split + 4:]
    length = resp_headers.get("content-length")
    if length is not None and len(payload) != int(length):
        raise HttpError("body %d bytes, Content-Length %s" % (len(payload), length))
    return int(parts[1]), resp_headers, payload


def get_json(port, path):
    status, _, body = request(port, "GET", path)
    if status != 200:
        raise HttpError("GET %s -> %d" % (path, status))
    return json.loads(body)


def wait_ready(port, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            if request(port, "GET", "/healthz", timeout=2.0)[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.02)
    raise HttpError("port %d never became healthy" % port)
