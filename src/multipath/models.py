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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
        ids = []
        for word in text.split():
            tid = self._ids.get(word)
            if tid is None:
                raise ValueError(f"token {word!r} not in vocabulary")
            ids.append(tid)
        return tuple(ids)

    def decode(self, ids: Sequence[int]) -> str:
        """Space-join token strings, end-of-sequence token included."""
        return " ".join(self.tokens[i] for i in ids)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], eos_token: str) -> "Vocabulary":
        toks = tuple(tokens)
        if eos_token not in toks:
            raise ValueError(f"eos token {eos_token!r} not among tokens")
        return cls(tokens=toks, eos_id=toks.index(eos_token))


@dataclass
class StepDistribution:
    """Next-token probability vector for one decoding step (linear domain)."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        self.probs = tuple(float(p) for p in self.probs)
        for i, p in enumerate(self.probs):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} at index {i} outside [0, 1]")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {DISTRIBUTION_SUM_TOL}")

    def __len__(self) -> int:
        return len(self.probs)

    @cached_property
    def logprobs(self) -> tuple[float, ...]:
        """Natural-log probabilities; zero entries map to -inf."""
        return tuple(math.log(p) if p > 0.0 else -math.inf for p in self.probs)

    def entropy(self) -> float:
        """Shannon entropy in nats (0 * log 0 taken as 0)."""
        return -math.fsum(p * math.log(p) for p in self.probs if p > 0.0)

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
        """
        size = self._vocabulary.size
        for tid in prompt:
            if not 0 <= tid < size:
                raise ValueError(f"prompt token id {tid} out of range (V={size})")
        for tid in prefix:
            if not 0 <= tid < size:
                raise ValueError(f"prefix token id {tid} out of range (V={size})")
        return self._distribution(tuple(prompt), tuple(prefix))

    @abstractmethod
    def _distribution(self, prompt: TokenIds, prefix: TokenIds) -> StepDistribution:
        ...


class TableLM(ModelInterface):
    """Model backed by an explicit context -> distribution table.

    Rows are keyed by the generated prefix; a row may additionally be pinned
    to one exact prompt (programmatic fixtures, scripted responders). Lookup
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

    @property
    def rows(self) -> dict[TokenIds, StepDistribution]:
        return dict(self._rows)

    @property
    def default(self) -> StepDistribution | None:
        return self._default

    @property
    def has_prompt_rows(self) -> bool:
        return bool(self._prompt_rows)

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
    to one by construction.
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
        self.order = order
        self.add_k = add_k
        self._counts = {ctx: dict(nexts) for ctx, nexts in counts.items()}
        self._totals = {ctx: sum(nexts.values()) for ctx, nexts in self._counts.items()}

    def _distribution(self, prompt: TokenIds, prefix: TokenIds) -> StepDistribution:
        stream = prompt + prefix
        ctx = stream[max(0, len(stream) - self.order):]
        nexts = self._counts.get(ctx, {})
        total = self._totals.get(ctx, 0)
        denom = total + self.add_k * self._vocabulary.size
        probs = tuple((nexts.get(t, 0) + self.add_k) / denom for t in range(self._vocabulary.size))
        return StepDistribution(probs=probs)


def train_ngram(
    corpus: str,
    order: int,
    add_k: float,
    vocabulary: Vocabulary | None = None,
    eos_token: str = "</s>",
) -> NGramLM:
    """Train an add-k n-gram model on a newline-separated corpus.

    Each nonempty line is one token sequence; every position contributes a
    transition from the preceding min(order, position) tokens, and each line
    ends with a transition to the end-of-sequence token. When ``vocabulary``
    is omitted it is built from the corpus tokens (sorted) plus ``eos_token``.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if add_k <= 0:
        raise ValueError(f"add_k must be > 0, got {add_k}")
    lines = [line.split() for line in corpus.splitlines() if line.split()]
    if not lines:
        raise TrainingError("corpus is empty")

    if vocabulary is None:
        seen = sorted({tok for line in lines for tok in line})
        if eos_token in seen:
            raise TrainingError(f"eos token {eos_token!r} occurs in the corpus")
        vocabulary = Vocabulary.from_tokens(seen + [eos_token], eos_token)
    else:
        for line in lines:
            for tok in line:
                if tok not in vocabulary.tokens:
                    raise TrainingError(f"corpus token {tok!r} not in the given vocabulary")
                if tok == vocabulary.eos_token:
                    raise TrainingError("corpus must not contain the eos token")

    counts: dict[TokenIds, dict[int, int]] = {}
    for line in lines:
        ids = [vocabulary.encode(tok)[0] for tok in line]
        for pos in range(len(ids) + 1):
            ctx = tuple(ids[max(0, pos - order):pos])
            nxt = ids[pos] if pos < len(ids) else vocabulary.eos_id
            counts.setdefault(ctx, {})
            counts[ctx][nxt] = counts[ctx].get(nxt, 0) + 1
    return NGramLM(vocabulary=vocabulary, order=order, add_k=add_k, counts=counts)


def sequence_logprob(model: ModelInterface, prompt: Sequence[int], continuation: Sequence[int]) -> float:
    """Natural-log probability of ``continuation`` given ``prompt``.

    Sum of per-step conditional log-probabilities; -inf if any step assigns
    the next token zero probability.
    """
    continuation = tuple(continuation)
    if not continuation:
        raise ValueError("continuation must be non-empty")
    total = 0.0
    for i, token in enumerate(continuation):
        dist = model.next_distribution(prompt, continuation[:i])
        total += dist.logprobs[token]
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


def _table_payload(model: TableLM) -> dict:
    vocab = model.vocabulary
    rows = []
    for ctx_ids in sorted(model.rows):
        rows.append({
            "context": [vocab.tokens[i] for i in ctx_ids],
            "probs": list(model.rows[ctx_ids].probs),
        })
    payload: dict = {"vocab": list(vocab.tokens), "eos": vocab.eos_token, "rows": rows}
    if model.default is not None:
        payload["default"] = list(model.default.probs)
    return payload


def table_lm_to_json(model: TableLM) -> str:
    """Canonical JSON text for a table model (stable bytes for round-trips)."""
    if model.has_prompt_rows:
        raise ValueError("prompt-keyed rows are not representable in the table file format")
    return json.dumps(_table_payload(model), sort_keys=True, separators=(",", ":")) + "\n"


def dump_table_lm(model: TableLM, path: str | Path) -> None:
    Path(path).write_text(table_lm_to_json(model), encoding="utf-8")


def load_table_lm(path: str | Path) -> TableLM:
    """Load a table model file, validating every row.

    Schema: {"vocab": [str], "eos": str, "rows": [{"context": [str],
    "probs": [num]}], "default": [num] (optional)}. Contexts are generated-
    prefix token lists; the empty context is the step-0 row.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise LoadError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise LoadError(f"model file {path}: top level must be an object")
    for key in ("vocab", "eos", "rows"):
        if key not in data:
            raise LoadError(f"model file {path}: missing key {key!r}")

    try:
        vocabulary = Vocabulary.from_tokens(data["vocab"], data["eos"])
    except ValueError as exc:
        raise LoadError(f"model file {path}: {exc}") from exc

    def parse_row(probs: list, what: str) -> StepDistribution:
        if not isinstance(probs, list) or len(probs) != vocabulary.size:
            raise LoadError(f"model file {path}: {what}: probs must be a list of length {vocabulary.size}")
        total = math.fsum(float(p) for p in probs)
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise LoadError(f"model file {path}: {what}: row sum {total:g} != 1")
        try:
            return StepDistribution(probs=tuple(float(p) for p in probs))
        except ValueError as exc:
            raise LoadError(f"model file {path}: {what}: {exc}") from exc

    rows: dict[TokenIds, StepDistribution] = {}
    for idx, row in enumerate(data["rows"]):
        what = f"row {idx}"
        if not isinstance(row, dict) or "context" not in row or "probs" not in row:
            raise LoadError(f"model file {path}: {what}: needs 'context' and 'probs'")
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
    Used across the test suite and the bundled demo data.
    """
    vocab = Vocabulary(tokens=("a", "b", "$"), eos_id=2)
    rows = {
        (): StepDistribution(probs=(0.45, 0.55, 0.0)),
        (0,): StepDistribution(probs=(0.05, 0.05, 0.9)),
        (1,): StepDistribution(probs=(0.25, 0.25, 0.5)),
    }
    return TableLM(vocabulary=vocab, rows=rows, default=StepDistribution.uniform(3))


def scripted_lm(
    vocabulary: Vocabulary,
    responses: Mapping[str, str],
    default: StepDistribution | None = None,
) -> TableLM:
    """Table model that deterministically emits a fixed response per prompt.

    ``responses`` maps prompt text to continuation text; the continuation is
    emitted one-hot, followed by the end-of-sequence token.
    """
    prompt_rows: dict[tuple[TokenIds, TokenIds], StepDistribution] = {}
    for prompt_text, reply_text in responses.items():
        prompt_ids = vocabulary.encode(prompt_text)
        reply_ids = vocabulary.encode(reply_text) + (vocabulary.eos_id,)
        for i, token in enumerate(reply_ids):
            probs = [0.0] * vocabulary.size
            probs[token] = 1.0
            prompt_rows[(prompt_ids, reply_ids[:i])] = StepDistribution(probs=tuple(probs))
    return TableLM(vocabulary=vocabulary, prompt_rows=prompt_rows, default=default)
