"""Wire adapters: remote model servers and the judge service.

Model protocol: request {"prompt_tokens": [ints], "prefix_tokens": [ints]}
answered by {"logprobs": [numbers, length V]}, carried over HTTP POST.
Each reply row is validated once on receipt, for shape, range and
normalization; a null entry stands for probability zero (JSON has no -inf).

Judge protocol: HTTP POST <base>/judge with {"task_id", "prompt",
"response"}, answered by {"verdict": "correct"|"incorrect", "category"?}.

Transport failures (unreachable, timeout, 5xx, a body cut short) raise
TransportError and are retried; malformed replies (a bad status line or
headers, bad JSON, wrong length, unnormalized rows, 4xx) raise ProtocolError
immediately. Neither is ever mapped to a verdict. A URL without a host or
with a bad port is refused when the client is built.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import urllib.error
import urllib.parse
import urllib.request

from .errors import ProtocolError, TransportError
from .models import ModelInterface, StepDistribution, Vocabulary, check_timeout, is_number


def _parse_distribution(payload: object, vocab_size: int, origin: str) -> StepDistribution:
    if not isinstance(payload, dict) or "logprobs" not in payload:
        raise ProtocolError(f"{origin}: response must be an object with 'logprobs'")
    raw = payload["logprobs"]
    if not isinstance(raw, list) or len(raw) != vocab_size:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ProtocolError(f"{origin}: 'logprobs' must be a list of length {vocab_size}, got {got}")
    probs = []
    for i, lp in enumerate(raw):
        if lp is None:
            probs.append(0.0)
            continue
        if not is_number(lp):
            raise ProtocolError(f"{origin}: logprob {i} is not a number")
        try:
            probs.append(math.exp(lp))
        except OverflowError:
            raise ProtocolError(f"{origin}: logprob {i} is {lp!r}, far above 0") from None
    # exp maps a positive logprob above 1 and keeps NaN, so the range check
    # rejects both.
    try:
        return StepDistribution(probs=probs)
    except ValueError as exc:
        raise ProtocolError(f"{origin}: {exc}") from exc


def _http_post_json(url: str, payload: dict, timeout: float) -> object:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        if 400 <= exc.code < 500:
            raise ProtocolError(f"POST {url}: server rejected request ({exc.code})") from exc
        raise TransportError(f"POST {url}: server error {exc.code}") from exc
    except OSError as exc:  # URLError, a timeout, a refused or dropped connection
        # Before HTTPException: RemoteDisconnected is also a BadStatusLine.
        raise TransportError(f"POST {url}: {exc}") from exc
    except http.client.IncompleteRead as exc:  # the body ended before its Content-Length
        raise TransportError(f"POST {url}: {exc!r}") from exc
    except http.client.HTTPException as exc:  # a malformed status line or headers
        raise ProtocolError(f"POST {url}: malformed HTTP response: {exc!r}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, an integer beyond int()'s digit limit
        raise ProtocolError(f"POST {url}: response is not valid JSON: {exc}") from exc


def _check_settings(url: str, timeout: float, retries: int) -> None:
    """Raise ValueError unless ``url`` is http(s) (urllib would also open a
    file: URL) with a host and a valid port if any, ``timeout`` passes
    check_timeout and ``retries`` >= 0."""
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"the URL must be http:// or https://, got {url!r}")
    if not parts.hostname:
        raise ValueError(f"the URL names no host, got {url!r}")
    try:
        parts.port  # raises ValueError for a port that is not a number in 0-65535
    except ValueError as exc:
        raise ValueError(f"the URL's port is invalid, got {url!r}: {exc}") from None
    check_timeout(timeout)
    if retries < 0:
        raise ValueError(f"'retries' must be >= 0, got {retries!r}")


def _with_retries(call, retries: int):
    """``call()``, made up to ``retries`` + 1 times; only TransportError is retried."""
    for _ in range(retries):
        try:
            return call()
        except TransportError:
            pass
    return call()


class HttpModelClient(ModelInterface):
    """Remote model over HTTP POST. Responses are cached per context, so a
    deterministic server yields a deterministic (and cheaper) client.

    The cache holds one prompt's rows per thread: a call under another
    prompt than the same thread's last call empties that thread's rows.
    Contexts repeat under one prompt (the paths of a decode, and
    ftr_indicator's stage 2, which decodes stage 1's prompt again in the
    same protocol worker), so memory stays bounded by one prompt's rows per
    thread, and workers sharing a client neither empty nor read each
    other's rows.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        url: str,
        timeout: float = 10.0,
        retries: int = 2,
    ):
        super().__init__(vocabulary)
        _check_settings(url, timeout, retries)
        self._url = url
        self._timeout = timeout
        self._retries = retries
        # Per thread: "prompt", the last prompt asked for, and "rows", its
        # rows keyed by prefix.
        self._cache = threading.local()

    def _distribution(self, prompt, prefix):
        cache = self._cache
        if getattr(cache, "prompt", None) != prompt:
            cache.prompt, cache.rows = prompt, {}
        hit = cache.rows.get(prefix)
        if hit is not None:
            return hit
        payload = {"prompt_tokens": list(prompt), "prefix_tokens": list(prefix)}
        reply = _with_retries(lambda: _http_post_json(self._url, payload, self._timeout), self._retries)
        dist = _parse_distribution(reply, self._vocabulary.size, f"model at {self._url}")
        cache.rows[prefix] = dist
        return dist


class JudgeClient:
    """Client for the judge service; returns verdicts, never guesses them."""

    def __init__(self, base_url: str, timeout: float = 10.0, retries: int = 2):
        _check_settings(base_url, timeout, retries)
        self._url = base_url.rstrip("/") + "/judge"
        self._timeout = timeout
        self._retries = retries

    def judge(self, task_id: str, prompt: str, response: str) -> tuple[str, str | None]:
        """Returns (verdict, category); verdict is "correct" or "incorrect"."""
        payload = {"task_id": task_id, "prompt": prompt, "response": response}
        reply = _with_retries(lambda: _http_post_json(self._url, payload, self._timeout), self._retries)
        if not isinstance(reply, dict) or "verdict" not in reply:
            raise ProtocolError(f"judge at {self._url}: response must be an object with 'verdict'")
        verdict = reply["verdict"]
        if verdict not in ("correct", "incorrect"):
            raise ProtocolError(f"judge at {self._url}: unknown verdict {verdict!r}")
        category = reply.get("category")
        if category is not None and not isinstance(category, str):
            raise ProtocolError(f"judge at {self._url}: 'category' must be a string")
        return verdict, category
