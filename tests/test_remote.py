"""Remote model/judge clients against a live in-process HTTP server."""

from __future__ import annotations

import json
import math
import socketserver
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from conftest import row_probs, run_seeded

from multipath.cli import main
from multipath.correction import GroundTruthProvider
from multipath.decoding import MultipathConfig, SamplerConfig, greedy_decode
from multipath.errors import ProtocolError, TransportError
from multipath.models import Vocabulary, greedy_trap_lm
from multipath.remote import HttpModelClient, JudgeClient, _parse_distribution

ABC = Vocabulary(tokens=("a", "b", "$"), eos_id=2)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append((self.path, payload))
        status, body = self.server.respond(self.path, payload)
        raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.requests = []
        self.respond = lambda path, payload: (404, {})

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def server():
    srv = _Server()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


class _RawHandler(socketserver.StreamRequestHandler):
    def handle(self):
        self.server.connections += 1
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        self.wfile.write(self.server.reply)


class _RawServer(socketserver.TCPServer):
    """Reads each request, answers it with the bytes of ``reply`` whatever
    they are, and closes the connection; counts the connections."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _RawHandler)
        self.connections = 0
        self.reply = b""

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def raw_server():
    srv = _RawServer()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def responder(model):
    """Answers each model request with ``model``'s row for its context."""

    def respond(path, payload):
        dist = model.next_distribution(payload["prompt_tokens"], payload["prefix_tokens"])
        return 200, {"logprobs": [math.log(p) if p > 0.0 else None for p in row_probs(dist)]}

    return respond


trap_responder = responder(greedy_trap_lm())


# ---------------------------------------------------------------------------
# payload parsing


def test_parse_distribution_accepts_nulls_as_zero():
    probs = row_probs(_parse_distribution({"logprobs": [math.log(0.5), math.log(0.5), None]}, 3, "x"))
    assert probs[2] == 0.0
    assert probs[0] == pytest.approx(0.5)


def test_parse_distribution_rejects_shape_errors():
    with pytest.raises(ProtocolError, match="object with 'logprobs'"):
        _parse_distribution(["nope"], 3, "x")
    with pytest.raises(ProtocolError, match="length 3"):
        _parse_distribution({"logprobs": [0.0, 0.0]}, 3, "x")
    with pytest.raises(ProtocolError, match="not a number"):
        _parse_distribution({"logprobs": [0.0, "x", None]}, 3, "x")


def test_parse_distribution_rejects_unnormalized_rows():
    half = math.log(0.5)
    with pytest.raises(ProtocolError, match="not normalized"):
        _parse_distribution({"logprobs": [half, half, half]}, 3, "x")


def test_parse_distribution_rejects_nan_logprob():
    # fsum of a row holding NaN is NaN, which no sum check rejects; the
    # per-entry range check must
    with pytest.raises(ProtocolError, match="x: .*nan"):
        _parse_distribution({"logprobs": [math.nan, 0.0, None]}, 3, "x")


def test_parse_distribution_rejects_positive_logprob():
    # exp(1e-12) exceeds 1 by less than the normalization tolerance, so
    # only the range check catches it
    with pytest.raises(ProtocolError, match="x: .*outside"):
        _parse_distribution({"logprobs": [1e-12, None, None]}, 3, "x")


@pytest.mark.parametrize("reply, index", [('[false, null, null]', 0), ('[null, true, null]', 1)])
def test_parse_distribution_rejects_boolean_logprob(reply, index):
    # A JSON boolean loads as a Python bool, which is an int: false would
    # read as logprob 0 (probability 1) and true as logprob 1.
    with pytest.raises(ProtocolError, match=f"x: logprob {index} is not a number"):
        _parse_distribution({"logprobs": json.loads(reply)}, 3, "x")


def test_parse_distribution_rejects_logprob_whose_exp_overflows():
    with pytest.raises(ProtocolError, match="x: logprob 0 is 1000.0"):
        _parse_distribution({"logprobs": [1000.0, None, None]}, 3, "x")


# ---------------------------------------------------------------------------
# HTTP model client


def test_http_client_decodes_like_local_model(server, trap_model):
    server.respond = trap_responder
    client = HttpModelClient(ABC, server.url, retries=0)
    remote = greedy_decode(client, ())
    local = greedy_decode(trap_model, ())
    assert remote.chosen.tokens == local.chosen.tokens
    assert remote.chosen.cum_logprob == local.chosen.cum_logprob


def test_http_client_caches_repeat_contexts(server):
    server.respond = trap_responder
    client = HttpModelClient(ABC, server.url, retries=0)
    client.next_distribution((), ())
    client.next_distribution((), ())
    assert len(server.requests) == 1
    client.next_distribution((), (0,))
    assert len(server.requests) == 2


def test_http_client_keeps_only_the_current_prompts_rows(server):
    server.respond = trap_responder
    client = HttpModelClient(ABC, server.url, retries=0)
    prompts = [(i % 2,) * (i + 1) for i in range(20)]
    for prompt in prompts:
        for prefix in ((), (0,), ()):
            client.next_distribution(prompt, prefix)
    assert len(server.requests) == 2 * len(prompts)
    assert (client._cache.prompt, set(client._cache.rows)) == (prompts[-1], {(), (0,)})
    # an earlier prompt's rows are gone, so its context is asked for again
    client.next_distribution(prompts[0], ())
    assert len(server.requests) == 2 * len(prompts) + 1


def test_http_client_workers_keep_their_own_prompts_rows(server):
    # Two threads alternate their prompts call by call; each keeps its own
    # rows, so each context is asked for once.
    server.respond = trap_responder
    client = HttpModelClient(ABC, server.url, retries=0)
    turns = [threading.Semaphore(1), threading.Semaphore(0)]

    def worker(me, prompt):
        for prefix in ((), (0,), (), (0,)):
            turns[me].acquire()
            client.next_distribution(prompt, prefix)
            turns[1 - me].release()

    threads = [threading.Thread(target=worker, args=(me, (me,)), daemon=True) for me in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted((tuple(p["prompt_tokens"]), tuple(p["prefix_tokens"])) for _, p in server.requests) == [
        ((0,), ()), ((0,), (0,)), ((1,), ()), ((1,), (0,)),
    ]


def test_http_client_request_shape(server):
    server.respond = trap_responder
    client = HttpModelClient(ABC, server.url, retries=0)
    client.next_distribution((0, 1), (1,))
    path, payload = server.requests[0]
    assert payload == {"prompt_tokens": [0, 1], "prefix_tokens": [1]}


def test_http_client_4xx_is_protocol_error(server):
    server.respond = lambda path, payload: (400, {"error": "bad"})
    client = HttpModelClient(ABC, server.url, retries=2)
    with pytest.raises(ProtocolError, match="rejected"):
        client.next_distribution((), ())
    # 4xx must not be retried
    assert len(server.requests) == 1


def test_http_client_5xx_is_retried_then_raises(server):
    server.respond = lambda path, payload: (503, {})
    client = HttpModelClient(ABC, server.url, retries=2)
    with pytest.raises(TransportError, match="server error 503"):
        client.next_distribution((), ())
    assert len(server.requests) == 3


def test_http_client_retry_recovers(server):
    calls = {"n": 0}

    def flaky(path, payload):
        calls["n"] += 1
        if calls["n"] == 1:
            return 500, {}
        return trap_responder(path, payload)

    server.respond = flaky
    client = HttpModelClient(ABC, server.url, retries=1)
    dist = client.next_distribution((), ())
    assert row_probs(dist) == (0.45, 0.55, 0.0)
    assert calls["n"] == 2


def test_http_client_unreachable_is_transport_error():
    client = HttpModelClient(ABC, "http://127.0.0.1:9", timeout=0.5, retries=0)
    with pytest.raises(TransportError):
        client.next_distribution((), ())


def test_http_client_bad_json_is_protocol_error(server):
    server.respond = lambda path, payload: (200, b"{not json")
    client = HttpModelClient(ABC, server.url, retries=0)
    with pytest.raises(ProtocolError, match="not valid JSON"):
        client.next_distribution((), ())


def test_http_client_unnormalized_row_is_protocol_error(server):
    server.respond = lambda path, payload: (200, {"logprobs": [0.0, 0.0, 0.0]})
    client = HttpModelClient(ABC, server.url, retries=0)
    with pytest.raises(ProtocolError, match="not normalized"):
        client.next_distribution((), ())


# http.client raises these outside urllib's OSError family: BadStatusLine
# for the first reply, IncompleteRead for the second (a body shorter than
# its Content-Length).
BAD_STATUS_LINE = b"garbage\r\n\r\n"
SHORT_BODY = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{"logprobs"'


@pytest.mark.parametrize("reply, error, connections", [
    (BAD_STATUS_LINE, ProtocolError, 1),
    (SHORT_BODY, TransportError, 3),
], ids=["bad-status-line", "short-body"])
@pytest.mark.parametrize("call", [
    lambda url: HttpModelClient(ABC, url, retries=2).next_distribution((), ()),
    lambda url: JudgeClient(url, retries=2).judge("t1", "p", "r"),
], ids=["HttpModelClient", "JudgeClient"])
def test_a_malformed_http_reply_is_a_wire_error(raw_server, call, reply, error, connections):
    # A malformed reply is not retried; a body cut short is, like a dropped
    # connection.
    raw_server.reply = reply
    with pytest.raises(error, match=f"POST {raw_server.url}"):
        call(raw_server.url)
    assert raw_server.connections == connections


@pytest.mark.parametrize("reply, connections", [(BAD_STATUS_LINE, 1), (SHORT_BODY, 2)],
                         ids=["bad-status-line", "short-body"])
def test_decode_on_a_malformed_http_reply_exits_1(capsys, tmp_path, raw_server, reply, connections):
    raw_server.reply = reply
    spec = tmp_path / "remote.json"
    spec.write_text(json.dumps({"kind": "remote", "url": raw_server.url, "vocab": ["a", "b", "$"], "eos": "$",
                                "retries": 1}), encoding="utf-8")
    assert main(["decode", "--model", str(spec)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: POST {raw_server.url}")
    assert raw_server.connections == connections


def test_http_client_rejects_negative_retries():
    with pytest.raises(ValueError, match="retries"):
        HttpModelClient(ABC, "http://x", retries=-1)


@pytest.mark.parametrize("key, value", [
    ("timeout", 0), ("timeout", -1), ("timeout", math.nan), ("timeout", math.inf), ("retries", -1),
    ("timeout", 1e300),  # finite, but longer than a socket can wait
])
@pytest.mark.parametrize("make", [
    lambda url, **settings: HttpModelClient(ABC, url, **settings),
    lambda url, **settings: JudgeClient(url, **settings),
], ids=["HttpModelClient", "JudgeClient"])
def test_clients_check_their_settings_at_construction(server, make, key, value):
    # A library caller gets the error here, not a retried TransportError (or a
    # bare ValueError or OverflowError from the socket) at the first request.
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        make(server.url, **{key: value})
    assert server.requests == []


@pytest.mark.parametrize("url", ["file:///tmp/reply.json", "ftp://127.0.0.1/model", "127.0.0.1:8000/model", ""])
@pytest.mark.parametrize("make", [
    lambda url: HttpModelClient(ABC, url),
    lambda url: JudgeClient(url),
], ids=["HttpModelClient", "JudgeClient"])
def test_clients_accept_only_http_urls(make, url):
    # urllib opens a file: URL too, and would read that file as every reply.
    with pytest.raises(ValueError, match="must be http:// or https://"):
        make(url)


@pytest.mark.parametrize("url, match", [
    ("http://", "names no host"),
    ("http://127.0.0.1:notaport", "port is invalid"),
    ("http://127.0.0.1:99999", "port is invalid"),
], ids=["no-host", "port-not-a-number", "port-out-of-range"])
@pytest.mark.parametrize("make", [
    lambda url: HttpModelClient(ABC, url),
    lambda url: JudgeClient(url),
], ids=["HttpModelClient", "JudgeClient"])
def test_clients_check_the_url_at_construction(make, url, match):
    # Not an http.client.InvalidURL traceback, or a TransportError, at the
    # first request.
    with pytest.raises(ValueError, match=match):
        make(url)


def test_http_client_is_safe_to_share_between_protocol_workers(server, small_digit_model, small_digit_dataset):
    # run_protocol(workers > 1) hands one client to every worker thread; a
    # reply cached under the wrong context, or lost, changes the attempts.
    server.respond = responder(small_digit_model)
    mpcfg = MultipathConfig(mass_fraction=0.9, max_width=7, max_len=8)
    sampler = SamplerConfig(top_p=0.95, top_k=15, max_len=8)

    def run(workers):
        client = HttpModelClient(small_digit_model.vocabulary, server.url, timeout=10.0, retries=0)
        return run_seeded(
            client, small_digit_dataset, "ftr_indicator", GroundTruthProvider(), sampler, mpcfg,
            workers=workers, seed=42,
        )

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = run(4)
    finally:
        sys.setswitchinterval(interval)
    assert serial.errors == () and shared.errors == ()
    assert shared.to_json_lines() == serial.to_json_lines()


# ---------------------------------------------------------------------------
# judge client


def test_judge_url_join(server):
    server.respond = lambda path, payload: (200, {"verdict": "correct"})
    JudgeClient(server.url + "/", retries=0).judge("t1", "p", "r")
    assert [path for path, _ in server.requests] == ["/judge"]


def test_judge_happy_path(server):
    server.respond = lambda path, payload: (200, {"verdict": "correct", "category": "arith"})
    client = JudgeClient(server.url, retries=0)
    assert client.judge("t1", "prompt", "response") == ("correct", "arith")
    path, payload = server.requests[0]
    assert path == "/judge"
    assert payload == {"task_id": "t1", "prompt": "prompt", "response": "response"}


def test_judge_category_is_optional(server):
    server.respond = lambda path, payload: (200, {"verdict": "incorrect"})
    client = JudgeClient(server.url, retries=0)
    assert client.judge("t1", "p", "r") == ("incorrect", None)


def test_judge_rejects_unknown_verdict(server):
    server.respond = lambda path, payload: (200, {"verdict": "maybe"})
    client = JudgeClient(server.url, retries=0)
    with pytest.raises(ProtocolError, match="unknown verdict 'maybe'"):
        client.judge("t1", "p", "r")


def test_judge_rejects_missing_verdict(server):
    server.respond = lambda path, payload: (200, {"category": "x"})
    client = JudgeClient(server.url, retries=0)
    with pytest.raises(ProtocolError, match="object with 'verdict'"):
        client.judge("t1", "p", "r")


def test_judge_rejects_non_string_category(server):
    server.respond = lambda path, payload: (200, {"verdict": "correct", "category": 3})
    client = JudgeClient(server.url, retries=0)
    with pytest.raises(ProtocolError, match="'category' must be a string"):
        client.judge("t1", "p", "r")


def test_judge_unreachable_is_transport_error_not_verdict():
    client = JudgeClient("http://127.0.0.1:9", timeout=0.5, retries=0)
    with pytest.raises(TransportError):
        client.judge("t1", "p", "r")
