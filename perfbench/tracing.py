"""Per-layer spans, recorded from outside the program.

The tracer patches public functions of the program's modules with wrappers
that time each call as a span. A span's self time is its duration minus the
durations of the spans it directly contains; times are integer nanoseconds,
so self times are never negative and the self times of one op add up to
exactly its duration. ``instrument`` maps the program's modules to layers.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

KERNELS = ("prune_prefix", "topk_indices", "nucleus_prefix", "log_sum_exp")


class Tracer:
    def __init__(self):
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.items = Counter()
        self.counts = Counter()
        self._open = []  # nanoseconds spent in the children of each open span
        self._patches = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        self._open.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            children = self._open.pop()
            if self._open:
                self._open[-1] += elapsed
            self.busy_ns[name] += elapsed
            self.self_ns[name] += elapsed - children
            self.calls[name] += 1

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, items=None, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``items(args)`` adds to the span's item count; ``after(args, result)``
        runs outside the span once the call returns.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if items is not None:
                self.items[name] += items(args)
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the imported program."""
    module = lambda name: importlib.import_module(f"multipath.{name}")  # noqa: E731
    models, decoding, kernels = module("models"), module("decoding"), module("kernels")
    correction, evaluation, cli, remote = module("correction"), module("evaluation"), module("cli"), module("remote")
    counts = tracer.counts

    # models: the row, its validation and its conversion to logprobs, which
    # every decoder reads right after the call.
    next_distribution = models.ModelInterface.next_distribution

    def with_logprobs(model, prompt, prefix):
        dist = next_distribution(model, prompt, prefix)
        dist.logprobs
        return dist

    tracer.patch(models.ModelInterface, "next_distribution",
                 lambda model, prompt, prefix: tracer.span("models", with_logprobs, model, prompt, prefix))

    # decoding
    def decoded(args, result):
        counts["decoding.steps"] += result.steps
        counts["decoding.tokens"] += result.tokens_generated

    def multipath_decoded(args, result):
        decoded(args, result)
        counts["decoding.retained"] += sum(result.k_trace)

    tracer.wrap(decoding, "multipath_decode", "decoding", after=multipath_decoded)
    tracer.wrap(correction, "multipath_decode", "decoding", after=multipath_decoded)
    tracer.wrap(correction, "nucleus_sample", "decoding", after=decoded)
    tracer.wrap(decoding, "select_min_ppl", "decoding.select")
    for name in KERNELS:
        tracer.wrap(kernels, name, f"kernels.{name}", items=lambda args: len(args[0]))

    # correction, tasks, evaluation, cli
    def stage2_done(args, result):
        counts["correction.regenerated"] += result is not args[2]

    tracer.wrap(correction, "run_stage1", "correction.stage1")
    tracer.wrap(correction, "collect_feedback", "correction.feedback")
    tracer.wrap(correction, "indicator_correct", "correction.stage2", after=stage2_done)
    tracer.wrap(correction, "prompt_correct", "correction.stage2", after=stage2_done)
    tracer.wrap(correction, "verify", "tasks.verify")
    tracer.wrap(evaluation, "verify", "tasks.verify")
    tracer.wrap(cli, "load_tasks", "tasks.load")
    tracer.wrap(cli, "score_run", "evaluation.score")
    tracer.wrap(cli, "load_model", "cli.load_model")
    tracer.wrap(cli, "main", "cli")

    # remote: one span per request attempt; a client lookup that made no
    # request was answered from the client's cache.
    post = remote._http_post_json

    def counted_post(*args, **kwargs):
        try:
            return tracer.span("remote.call", post, *args, **kwargs)
        except remote.TransportError:
            counts["remote.transport_errors"] += 1
            raise

    client_distribution = remote.HttpModelClient._distribution

    def counted_distribution(client, prompt, prefix):
        before = tracer.calls["remote.call"]
        dist = client_distribution(client, prompt, prefix)
        counts["remote.cache_hits"] += tracer.calls["remote.call"] == before
        return dist

    tracer.patch(remote, "_http_post_json", counted_post)
    tracer.patch(remote.HttpModelClient, "_distribution", counted_distribution)


def layer_metrics(tracer: Tracer, ops: int, server: dict, bytes_written: int) -> dict:
    """Per-op layer metrics of ``ops`` traced operations, as name -> (value, unit).

    ``server`` holds the loopback server's counter deltas over those ops.
    """
    busy = lambda name: tracer.busy_ns[name] / 1e9 / ops  # noqa: E731
    own = lambda name: tracer.self_ns[name] / 1e9 / ops  # noqa: E731
    per_op = lambda count: count / ops  # noqa: E731
    counts = tracer.counts
    candidates = tracer.items["kernels.prune_prefix"]
    metrics = {
        "models.calls": (per_op(tracer.calls["models"]), "count/op"),
        "models.busy_s": (busy("models"), "s/op"),
        "decoding.busy_s": (busy("decoding"), "s/op"),
        "decoding.expand_self_s": (own("decoding"), "s/op"),
        "decoding.select_s": (busy("decoding.select"), "s/op"),
        "decoding.steps": (per_op(counts["decoding.steps"]), "count/op"),
        "decoding.mean_width": (
            counts["decoding.tokens"] / counts["decoding.steps"] if counts["decoding.steps"] else 0.0, "paths"),
        "decoding.candidates": (per_op(candidates), "count/op"),
        "decoding.retained_ratio": (counts["decoding.retained"] / candidates if candidates else 0.0, "ratio"),
    }
    for name in KERNELS:
        span = f"kernels.{name}"
        metrics[f"{span}.calls"] = (per_op(tracer.calls[span]), "count/op")
        metrics[f"{span}.busy_s"] = (busy(span), "s/op")
        metrics[f"{span}.items"] = (per_op(tracer.items[span]), "count/op")
    metrics.update({
        "correction.stage1_s": (busy("correction.stage1"), "s/op"),
        "correction.feedback_s": (busy("correction.feedback"), "s/op"),
        "correction.stage2_s": (busy("correction.stage2"), "s/op"),
        "correction.regenerated": (per_op(counts["correction.regenerated"]), "count/op"),
        "tasks.verify_calls": (per_op(tracer.calls["tasks.verify"]), "count/op"),
        "tasks.verify_s": (busy("tasks.verify"), "s/op"),
        "tasks.load_s": (busy("tasks.load"), "s/op"),
        "evaluation.score_self_s": (own("evaluation.score"), "s/op"),
        "cli.load_model_s": (busy("cli.load_model"), "s/op"),
        "cli.io_self_s": (own("cli"), "s/op"),
        "cli.bytes_written": (per_op(bytes_written), "bytes/op"),
        "remote.round_trips": (per_op(tracer.calls["remote.call"]), "count/op"),
        "remote.cache_hits": (per_op(counts["remote.cache_hits"]), "count/op"),
        "remote.server_s": (server["service_ns"] / 1e9 / ops, "s/op"),
        "remote.wire_s": ((tracer.busy_ns["remote.call"] - server["service_ns"]) / 1e9 / ops, "s/op"),
        "remote.bytes_in": (per_op(server["bytes_sent"]), "bytes/op"),
        "remote.bytes_out": (per_op(server["bytes_received"]), "bytes/op"),
        "remote.transport_errors": (per_op(counts["remote.transport_errors"]), "count/op"),
    })
    return metrics
