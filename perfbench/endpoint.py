"""Mock chat-completions endpoint, run as its own process.

It models an LLM that answers after a fixed service time with the gold
target of the sentence quoted in the last user message, so a correct client
scores F0.5 = 1.0. It speaks HTTP/1.1 and keeps connections open, and counts
requests and accepted TCP connections so the benchmark can report requests
per connection. The parent talks to it over a pipe: it receives the bound
port, asks for counters, and stops it.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict

OPEN_ERR = "<erroneous sentence>"
CLOSE_ERR = "</erroneous sentence>"

STOP_TIMEOUT_S = 10.0


class _Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.errors = 0
        self.service_s = 0.0

    def snapshot(self) -> Dict[str, float]:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "errors": self.errors,
                "service_s": self.service_s,
            }


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies: Dict[str, str], service_s: float, corrupt_every: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies = replies
        self.service_s = service_s
        self.corrupt_every = corrupt_every
        self.stats = _Stats()

    def process_request(self, request, client_address):
        with self.stats.lock:
            self.stats.connections += 1
        super().process_request(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless the client asks to close
    server: _Server

    def do_POST(self):  # noqa: N802 - http.server API
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length))
            last_user = [m for m in body["messages"] if m["role"] == "user"][-1]["content"]
            start = last_user.rindex(OPEN_ERR) + len(OPEN_ERR)
            source = last_user[start:last_user.rindex(CLOSE_ERR)].strip()
            target = server.replies[source]
        except (ValueError, KeyError, IndexError, TypeError):
            with server.stats.lock:
                server.stats.requests += 1
                server.stats.errors += 1
            self._send(400, b'{"error": "unknown request"}')
            return
        with server.stats.lock:
            server.stats.requests += 1
            n = server.stats.requests
        if server.corrupt_every and n % server.corrupt_every == 0:
            target = target + " wrong"
        began = time.perf_counter()
        time.sleep(server.service_s)
        waited = time.perf_counter() - began
        with server.stats.lock:
            server.stats.service_s += waited
        content = f"<corrected sentence> {target} </corrected sentence>"
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": content}}]}
        ).encode("utf-8")
        self._send(200, payload)

    def _send(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _serve(conn, replies_path: str, service_s: float, corrupt_every: int) -> None:
    """Child process body: serve until the parent sends "stop" or closes the pipe."""
    with open(replies_path, encoding="utf-8") as f:
        replies = json.load(f)
    server = _Server(replies, service_s, corrupt_every)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn.send(server.server_address[1])
    try:
        while True:
            try:
                command = conn.recv()
            except EOFError:
                break
            if command == "stats":
                conn.send(server.stats.snapshot())
            elif command == "stop":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(STOP_TIMEOUT_S)
        try:
            conn.send(server.stats.snapshot())
        except (BrokenPipeError, OSError):
            pass
        conn.close()


class MockEndpoint:
    """Handle on the endpoint process; use as a context manager.

    `corrupt_every=k` makes every k-th reply wrong (for testing the
    benchmark's checks); 0 keeps every reply correct.
    """

    def __init__(self, replies_path: str, service_ms: float, corrupt_every: int = 0):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_serve, args=(child, replies_path, service_ms / 1000.0, corrupt_every),
            daemon=True,
        )
        self._proc.start()
        child.close()
        try:
            if not self._conn.poll(STOP_TIMEOUT_S * 3):
                raise RuntimeError("mock endpoint did not start")
            self.port = self._conn.recv()
        except BaseException:
            self.close()
            raise

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> Dict[str, float]:
        self._conn.send("stats")
        if not self._conn.poll(STOP_TIMEOUT_S):
            raise RuntimeError("mock endpoint did not answer")
        return self._conn.recv()

    def close(self) -> None:
        """Stop the process, draining its last message; escalate if it hangs."""
        if self._proc is None:
            return
        try:
            self._conn.send("stop")
            if self._conn.poll(STOP_TIMEOUT_S):
                self._conn.recv()  # the final counters; drained before join
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._conn.close()
        self._proc.join(STOP_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(STOP_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._proc = None

    def __enter__(self) -> "MockEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
