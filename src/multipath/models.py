"""Autoregressive model contract and reference models.

Models map (prompt token ids, generated prefix token ids) to a probability
distribution over the next token. Everything downstream (decoders, the
correction protocol, the evaluation harness) only relies on this contract
plus determinism: the same context must always produce the identical
distribution, which is what makes exhaustive oracle testing exact.

Probability arithmetic is carried in the natural-log domain; linear-domain
sums use log-sum-exp (see kernels).
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import kernels
from .errors import LoadError, TrainingError

# Tolerance for "entries sum to 1" on any next-token distribution.
DISTRIBUTION_SUM_TOL = 1e-9

TokenIds = tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token inventory with a designated end-of-sequence token."""

    tokens: tuple[str, ...]
    eos_id: int

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise ValueError(f"vocabulary needs at least 2 tokens, got {len(self.tokens)}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        if not 0 <= self.eos_id < len(self.tokens):
            raise ValueError(f"eos_id {self.eos_id} out of range for size {len(self.tokens)}")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def eos_token(self) -> str:
        return self.tokens[self.eos_id]

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def encode(self, text: str) -> TokenIds:
        """Whitespace-tokenize ``text`` into ids. Unknown tokens are an error."""
        words = text.split()
        ids = tuple(map(self._ids.get, words))
        if None in ids:
            raise ValueError(f"token {words[ids.index(None)]!r} not in vocabulary")
        return ids

    def check_ids(self, ids: Iterable[int], what: str) -> TokenIds:
        """``ids`` as a tuple, after checking each lies in [0, V)."""
        ids = tuple(ids)
        size = len(self.tokens)
        for tid in ids:
            if not 0 <= tid < size:
                raise ValueError(f"{what} token id {tid} out of range (V={size})")
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Space-join token strings, end-of-sequence token included."""
        return " ".join(self.tokens[i] for i in ids)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], eos_token: str) -> "Vocabulary":
        toks = tuple(tokens)
        if eos_token not in toks:
            raise ValueError(f"eos token {eos_token!r} not among tokens")
        return cls(tokens=toks, eos_id=toks.index(eos_token))


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


class StepDistribution:
    """Next-token distribution for one decoding step.

    A row has one form, sparse: every token has probability ``floor``
    except the tokens in ``entries`` (token -> probability). A table row has
    floor 0 and lists its positive entries; an add-k n-gram row has floor
    add_k/denom and lists its seen successors. A row is read through
    ``logprob(t)``, ``children(k)`` (the multipath decoder) and ``ranked(k)``
    (the single-path decoders); ``ranked(len(row))`` is the whole row.
    Rows compare by identity.

    ``StepDistribution(probs=...)`` validates the row: every entry must lie
    in [0, 1] and the entries must sum to 1 within DISTRIBUTION_SUM_TOL.
    Models that build valid rows by construction use the unchecked
    ``_trusted`` constructor instead.

    A row is immutable, so it remembers its ``children(k)`` and ``ranked(k)``
    answers per ``k``; models hand out one row object per context, so each
    is computed once.
    """

    def __init__(self, probs: Iterable[float]):
        probs = tuple(float(p) for p in probs)
        # The range check runs first: the fsum of a row holding NaN is NaN,
        # which no tolerance comparison rejects.
        for i, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} at index {i} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(
                f"not normalized: row sum {total!r} != 1 (entries must sum to 1 within {DISTRIBUTION_SUM_TOL})"
            )
        self._hold(len(probs), 0.0, {t: p for t, p in enumerate(probs) if p > 0.0})

    @classmethod
    def _trusted(cls, size: int, floor: float, entries: dict[int, float]) -> "StepDistribution":
        """Unchecked sparse row; the caller guarantees it is a probability vector."""
        row = cls.__new__(cls)
        row._hold(size, floor, entries)
        return row

    def _hold(self, size: int, floor: float, entries: dict[int, float]) -> None:
        self._size = size
        self._floor = floor
        self._entries = entries
        # children(k) and ranked(k) per k. Concurrent callers at worst
        # compute an equal answer twice.
        self._children: dict[int, tuple[tuple[int, float], ...]] = {}
        self._ranked: dict[int, tuple[tuple[int, float], ...]] = {}

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"StepDistribution(size={len(self)}, floor={self._floor!r}, entries={self._entries!r})"

    @cached_property
    def logprobs(self) -> tuple[float, ...]:
        """The row as a dense tuple of natural-log probabilities (-inf for 0),
        built on first read and kept. No code of this package reads it; it
        stays for the benchmark's tracer. The floor's log is taken once, not
        once per floor token as ``logprob(t)`` per token would."""
        row = [_log(self._floor)] * self._size
        for t, p in self._entries.items():
            row[t] = _log(p)
        return tuple(row)

    def logprob(self, token: int) -> float:
        """Natural-log probability of ``token`` (-inf for 0)."""
        return _log(self._entries.get(token, self._floor))

    def _candidates(self, k: int) -> list[tuple[int, float]]:
        """(token, probability) of the entries and the ``k`` lowest-id floor
        tokens: any other token has ``k`` floor tokens of equal probability
        and lower id ahead of it in every ranking, so it is never in a top
        ``k``. The cost is O(entries + k), not O(V)."""
        entries = self._entries
        # At most len(entries) of the first k + len(entries) ids are
        # entries, so the k lowest floor tokens lie among them.
        scan = range(min(self._size, k + len(entries)))
        floor = self._floor
        return [*entries.items(), *[(t, floor) for t in scan if t not in entries][:k]]

    def children(self, k: int) -> tuple[tuple[int, float], ...]:
        """The ``k`` most probable positive-probability tokens as (token,
        logprob) pairs in ascending token id; ties go to the lower token id.

        Read from ``_candidates(k)`` once per ``k``; no dense row is built.
        """
        known = self._children.get(k)
        if known is None:
            known = self._children[k] = self._top_children(k)
        return known

    def _top_children(self, k: int) -> tuple[tuple[int, float], ...]:
        candidates = sorted((t, _log(p)) for t, p in self._candidates(k) if p > 0.0)
        if len(candidates) <= k:
            return tuple(candidates)
        keep = kernels.topk_indices([v for _, v in candidates], k)
        return tuple(candidates[i] for i in sorted(keep))

    def ranked(self, k: int) -> tuple[tuple[int, float], ...]:
        """The first ``k`` tokens of the dense ranking as (token, probability)
        pairs: descending probability, ties to the lower token id, zero-
        probability tokens included, exactly as ``kernels.topk_indices(probs,
        k)`` orders them.

        Read from ``_candidates(k)`` once per ``k``; no dense row is built.
        It ranks by linear probability, never by logprob: two different
        probabilities can share a log, which would change the tie order.
        """
        known = self._ranked.get(k)
        if known is None:
            candidates = sorted(self._candidates(k), key=lambda c: (-c[1], c[0]))
            known = self._ranked[k] = tuple(candidates[:k])
        return known

    def entropy(self) -> float:
        """Shannon entropy in nats (0 * log 0 taken as 0).

        The floor term is repeated once per floor token, not multiplied by
        their count: fsum rounds the exact sum of its terms once, whatever
        their order, so this equals the sum over the dense row bit for bit.
        """
        terms = (p * math.log(p) for p in self._entries.values() if p > 0.0)
        floor = self._floor
        if floor > 0.0:
            terms = chain(terms, repeat(floor * math.log(floor), self._size - len(self._entries)))
        return -math.fsum(terms)

    @classmethod
    def uniform(cls, size: int) -> "StepDistribution":
        return cls(probs=(1.0 / size,) * size)


@dataclass
class SequencePath:
    """A partial or finished decode: token ids, their summed log-probability,
    and whether the last token is the end token."""

    tokens: TokenIds
    cum_logprob: float
    finished: bool

    @classmethod
    def empty(cls) -> "SequencePath":
        return cls(tokens=(), cum_logprob=0.0, finished=False)

    def extended(self, token: int, logprob: float, eos_id: int) -> "SequencePath":
        """New path with one more token; marks finished on the EOS token."""
        return SequencePath(
            tokens=self.tokens + (token,),
            cum_logprob=self.cum_logprob + logprob,
            finished=token == eos_id,
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def ppl(self) -> float:
        return perplexity(self.cum_logprob, len(self.tokens))


class ModelInterface(ABC):
    """Deterministic autoregressive model over a fixed vocabulary."""

    def __init__(self, vocabulary: Vocabulary):
        self._vocabulary = vocabulary

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def next_distribution(self, prompt: Sequence[int], prefix: Sequence[int]) -> StepDistribution:
        """Distribution over the next token given prompt and generated prefix.

        Pure: identical arguments always return the identical vector.
        Callers pass ids of this model's vocabulary; nothing is range-checked
        here. The decoders check a caller's prompt once, where it enters
        (``Vocabulary.check_ids``), and extend it only with ids read from a
        row.
        """
        return self._distribution(tuple(prompt), tuple(prefix))

    @abstractmethod
    def _distribution(self, prompt: TokenIds, prefix: TokenIds) -> StepDistribution:
        ...


class TableLM(ModelInterface):
    """Model backed by an explicit context -> distribution table.

    Rows are keyed by the generated prefix; a row may additionally be pinned
    to one exact prompt (programmatic fixtures such as the digit model). Lookup
    order: (prompt, prefix) row, then prompt-agnostic (prefix) row, then the
    default row.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        rows: Mapping[TokenIds, StepDistribution] | None = None,
        default: StepDistribution | None = None,
        prompt_rows: Mapping[tuple[TokenIds, TokenIds], StepDistribution] | None = None,
    ):
        super().__init__(vocabulary)
        self._rows = dict(rows or {})
        self._prompt_rows = dict(prompt_rows or {})
        self._default = default
        for key, dist in self._rows.items():
            self._check_row(dist, f"context {list(key)}")
        for (pk, ck), dist in self._prompt_rows.items():
            self._check_row(dist, f"prompt {list(pk)} context {list(ck)}")
        if default is not None:
            self._check_row(default, "default")

    def _check_row(self, dist: StepDistribution, what: str) -> None:
        if len(dist) != self._vocabulary.size:
            raise ValueError(f"{what}: row length {len(dist)} != vocabulary size {self._vocabulary.size}")

    def _distribution(self, prompt: TokenIds, prefix: TokenIds) -> StepDistribution:
        dist = self._prompt_rows.get((prompt, prefix))
        if dist is None:
            dist = self._rows.get(prefix)
        if dist is None:
            dist = self._default
        if dist is None:
            raise ValueError(f"no table row for prefix {list(prefix)} and no default row")
        return dist


class NGramLM(ModelInterface):
    """Add-k smoothed n-gram model over whitespace tokens.

    ``order`` is the context length. Conditionals are
    (count(context, tok) + add_k) / (count(context) + add_k * V), which sum
    to one by construction, so rows are built unchecked: a row is the floor
    add_k / denom plus one entry per seen successor. The counts are checked
    once, here.

    Rows are memoized by context, so every call with one context returns
    the identical row object. All contexts absent from the counts share one
    floor-only row, so the memo never holds more than ``len(counts) + 1``
    rows: it is bounded by the model itself.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        add_k: float,
        counts: Mapping[TokenIds, Mapping[int, int]],
    ):
        super().__init__(vocabulary)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if add_k <= 0:
            raise ValueError(f"add_k must be > 0, got {add_k}")
        size = vocabulary.size
        for ctx, nexts in counts.items():
            for tok, count in nexts.items():
                if not 0 <= tok < size or count < 0:
                    raise ValueError(f"context {list(ctx)}: bad count {count!r} for token {tok!r} (V={size})")
        self.order = order
        self.add_k = add_k
        self._counts = {ctx: dict(nexts) for ctx, nexts in counts.items()}
        self._rows: dict[TokenIds, StepDistribution] = {}
        self._unseen = self._row({})

    def _row(self, nexts: dict[int, int]) -> StepDistribution:
        add_k = self.add_k
        denom = sum(nexts.values()) + add_k * self._vocabulary.size
        entries = {t: (count + add_k) / denom for t, count in nexts.items()}
        return StepDistribution._trusted(self._vocabulary.size, add_k / denom, entries)

    def _distribution(self, prompt: TokenIds, prefix: TokenIds) -> StepDistribution:
        ctx = (prefix if len(prefix) >= self.order else prompt + prefix)[-self.order:]
        row = self._rows.get(ctx)
        if row is None:
            nexts = self._counts.get(ctx)
            if nexts is None:
                return self._unseen
            # setdefault: threads that build one context's row at once all
            # return the row stored first.
            row = self._rows.setdefault(ctx, self._row(nexts))
        return row


class _FirstSeen(dict):
    """Word -> provisional id: the word's rank of first appearance."""

    def __missing__(self, word: str) -> int:
        self[word] = rank = len(self)
        return rank


# Provisional id of the end-of-sequence token while training.
_EOS = -1


def train_ngram(
    corpus: str,
    order: int,
    add_k: float,
    eos_token: str = "</s>",
) -> NGramLM:
    """Train an add-k n-gram model on a newline-separated corpus.

    Each nonempty line is one token sequence; every position contributes a
    transition from the preceding min(order, position) tokens, and each line
    ends with a transition to the end-of-sequence token. The vocabulary is
    the corpus tokens (sorted) plus ``eos_token``.

    Training is one pass over the lines: each word gets a provisional id, its
    rank of first appearance, and each line's n-grams are counted as flat
    (context..., next) tuples. Only the distinct n-grams are then mapped to
    the final ids, so training holds the corpus text and the distinct
    n-grams, never a list of the corpus's words.
    """
    first_seen = _FirstSeen()
    grams: Counter[TokenIds] = Counter()
    for line in corpus.splitlines():
        ids = list(map(first_seen.__getitem__, line.split()))
        if not ids:
            continue
        ids.append(_EOS)
        # The first ``order`` positions have the shorter contexts.
        grams.update(tuple(ids[:pos + 1]) for pos in range(min(order, len(ids))))
        grams.update(zip(*(ids[shift:] for shift in range(order + 1))))
    if not first_seen:
        raise TrainingError("corpus is empty")
    if eos_token in first_seen:
        raise TrainingError(f"eos token {eos_token!r} occurs in the corpus")

    words = sorted(first_seen)
    vocabulary = Vocabulary.from_tokens(words + [eos_token], eos_token)
    final = {first_seen[word]: tid for tid, word in enumerate(words)}
    final[_EOS] = vocabulary.eos_id
    # Counter keeps first-seen order, so contexts and their successors are
    # inserted in corpus order.
    counts: dict[TokenIds, dict[int, int]] = {}
    for gram, count in grams.items():
        *ctx, nxt = map(final.__getitem__, gram)
        counts.setdefault(tuple(ctx), {})[nxt] = count
    return NGramLM(vocabulary=vocabulary, order=order, add_k=add_k, counts=counts)


def sequence_logprob(model: ModelInterface, prompt: Sequence[int], continuation: Sequence[int]) -> float:
    """Natural-log probability of ``continuation`` given ``prompt``.

    Sum of per-step conditional log-probabilities; -inf if any step assigns
    the next token zero probability.
    """
    vocab = model.vocabulary
    prompt = vocab.check_ids(prompt, "prompt")
    continuation = vocab.check_ids(continuation, "continuation")
    if not continuation:
        raise ValueError("continuation must be non-empty")
    total = 0.0
    for i, token in enumerate(continuation):
        dist = model.next_distribution(prompt, continuation[:i])
        total += dist.logprob(token)
    return total


def perplexity(cum_logprob: float, num_tokens: int) -> float:
    """Inverse geometric mean of token probabilities: exp(-cum/num_tokens).

    Lower is better; 1.0 means every token had probability one. A
    zero-probability sequence (cum_logprob = -inf) has infinite perplexity.
    """
    if num_tokens < 1:
        raise ValueError(f"num_tokens must be >= 1, got {num_tokens}")
    if cum_logprob > 0.0:
        raise ValueError(f"cum_logprob must be <= 0, got {cum_logprob}")
    if cum_logprob == -math.inf:
        return math.inf
    return math.exp(-cum_logprob / num_tokens)


# ---------------------------------------------------------------------------
# Table-model file format


def vocabulary_from_spec(data: dict, path: Path) -> Vocabulary:
    """The vocabulary named by a model file's "vocab" and "eos" keys."""
    if not is_str_list(data["vocab"]):
        raise LoadError(f"model file {path}: 'vocab' must be a list of strings")
    if not isinstance(data["eos"], str):
        raise LoadError(f"model file {path}: 'eos' must be a string")
    try:
        return Vocabulary.from_tokens(data["vocab"], data["eos"])
    except ValueError as exc:
        raise LoadError(f"model file {path}: {exc}") from exc


def read_json_object(path: Path, what: str, error: type[Exception]) -> dict:
    """The JSON object in ``path``. Raises ``error``, naming ``what`` and the
    file, when the file cannot be read, is not JSON or is not an object."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path}: top level must be an object")
    return data


def is_number(value: object) -> bool:
    """Whether a JSON value is a number: an int or a float, never a bool,
    which JSON loads as a Python bool and Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_str_list(value: object) -> bool:
    """Whether a JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def table_lm_from_spec(data: dict, path: Path) -> TableLM:
    """The table model described by ``data``, parsed from the file ``path``,
    validating every row.

    Schema: {"vocab": [str], "eos": str, "rows": [{"context": [str],
    "probs": [num]}], "default": [num] (optional)}. Contexts are generated-
    prefix token lists; the empty context is the step-0 row.
    """
    for key in ("vocab", "eos", "rows"):
        if key not in data:
            raise LoadError(f"model file {path}: missing key {key!r}")
    vocabulary = vocabulary_from_spec(data, path)
    if not isinstance(data["rows"], list):
        raise LoadError(f"model file {path}: 'rows' must be a list")

    def parse_row(probs: list, what: str) -> StepDistribution:
        if not isinstance(probs, list) or len(probs) != vocabulary.size:
            raise LoadError(f"model file {path}: {what}: probs must be a list of length {vocabulary.size}")
        if not all(map(is_number, probs)):
            raise LoadError(f"model file {path}: {what}: 'probs' must be numbers")
        try:
            return StepDistribution(probs=probs)
        except (ValueError, OverflowError) as exc:
            raise LoadError(f"model file {path}: {what}: {exc}") from exc

    rows: dict[TokenIds, StepDistribution] = {}
    for idx, row in enumerate(data["rows"]):
        what = f"row {idx}"
        if not isinstance(row, dict) or "context" not in row or "probs" not in row:
            raise LoadError(f"model file {path}: {what}: needs 'context' and 'probs'")
        if not is_str_list(row["context"]):
            raise LoadError(f"model file {path}: {what}: 'context' must be a list of strings")
        try:
            ctx = vocabulary.encode(" ".join(row["context"]))
        except ValueError as exc:
            raise LoadError(f"model file {path}: {what}: {exc}") from exc
        if ctx in rows:
            raise LoadError(f"model file {path}: {what}: duplicate context {row['context']}")
        rows[ctx] = parse_row(row["probs"], f"{what} (context {row['context']})")

    default = parse_row(data["default"], "default row") if "default" in data else None
    return TableLM(vocabulary=vocabulary, rows=rows, default=default)


def greedy_trap_lm() -> TableLM:
    """Canonical three-token demo model where the greedy first step backfires.

    Step 0 slightly favors "b", but the continuation after "a" is far more
    certain, so the best full sequence starts with the locally weaker token.
    Used across the test suite; data/greedy_trap.json holds the same model.
    """
    vocab = Vocabulary(tokens=("a", "b", "$"), eos_id=2)
    rows = {
        (): StepDistribution(probs=(0.45, 0.55, 0.0)),
        (0,): StepDistribution(probs=(0.05, 0.05, 0.9)),
        (1,): StepDistribution(probs=(0.25, 0.25, 0.5)),
    }
    return TableLM(vocabulary=vocab, rows=rows, default=StepDistribution.uniform(3))

