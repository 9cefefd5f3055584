"""Single-threaded HTTP model server on 127.0.0.1 for the remote workload.

It speaks the program's remote model protocol (POST {"prompt_tokens",
"prefix_tokens"}, reply {"logprobs"}) from a fixed table of rows keyed by
the generated prefix, and sleeps a fixed service delay per request in place
of a forward pass. It counts requests, service time and body bytes so the
benchmark can split a round trip into server time and wire time.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


class LoopbackModelServer:
    def __init__(self, rows: dict, default: list, delay_s: float):
        def body(probs) -> bytes:
            logprobs = [math.log(p) if p > 0.0 else None for p in probs]
            return json.dumps({"logprobs": logprobs}).encode("utf-8")

        bodies = {tuple(prefix): body(probs) for prefix, probs in rows.items()}
        default_body = body(default)
        # Written only by the server thread, before the reply that lets the
        # client go on, so the client reads them after they are final.
        self.requests = 0
        self.service_ns = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                start = time.perf_counter_ns()
                request = self.rfile.read(int(self.headers["Content-Length"]))
                prefix = tuple(json.loads(request)["prefix_tokens"])
                reply = bodies.get(prefix, default_body)
                time.sleep(delay_s)
                server.requests += 1
                server.bytes_received += len(request)
                server.bytes_sent += len(reply)
                server.service_ns += time.perf_counter_ns() - start
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, format, *args):
                pass

        self._httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/"

    def close(self) -> None:
        self._httpd.shutdown()
        self._thread.join(timeout=10)
        self._httpd.server_close()
        if self._thread.is_alive():
            raise RuntimeError("loopback server thread did not stop")
