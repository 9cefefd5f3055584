"""Two-stage self-correction protocols and feedback providers.

Stage 1 samples an initial response. run_protocol alone decides whether
stage 2 runs: never for none; for ftr_indicator and feedback_as_prompt only
on negative feedback, so positive feedback keeps the initial attempt
untouched (zero extra tokens); always for the other prompt strategies. The
stage-2 functions only regenerate:

- ftr_indicator: rerun the multipath decoder on the original prompt, byte
  for byte, with no appended instructions.
- feedback_as_prompt: the feedback is written INTO the prompt (the packaged
  template) and the stage-1 sampler decodes the combined input.
- critic_prompt / ioe_prompt: the packaged critique template is appended
  (these strategies get no feedback signal at all).

Feedback providers answer with a bool, True for positive feedback: ground
truth (verify the attempt), a remote judge service, and a scripted judge
that flips the true verdict with configured false-negative/false-positive
rates. The scripted judge draws from a stream seeded per (seed, task id), so
its verdict for a task does not depend on how many other tasks ran before
it.
"""

from __future__ import annotations

import hashlib
import json
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

from .decoding import DecodeResult, MultipathConfig, SamplerConfig, multipath_decode, nucleus_sample
from .errors import ConfigError, LoadError, MultipathError
from .models import ModelInterface
from .remote import JudgeClient
from .tasks import Dataset, Task, extract_bracket_answer, verify
from .templates import CRITIC, FEEDBACK_CODE, FEEDBACK_MATH, IOE, load_prompt

STRATEGY_KINDS = ("none", "ftr_indicator", "feedback_as_prompt", "critic_prompt", "ioe_prompt")
# The strategies whose stage 2 runs only on negative feedback.
FEEDBACK_GATED = ("ftr_indicator", "feedback_as_prompt")

INITIAL = "initial"
CORRECTED = "corrected"

# The JSON types of each Attempt field, compared exactly (a JSON bool is not
# an int), in serialization order.
_ATTEMPT_FIELDS = {
    "task_id": (str,),
    "stage": (str,),
    "strategy": (str,),
    "decoder_input": (str,),
    "text": (str,),
    "answer": (int, float, type(None)),
    "tokens_generated": (int,),
    "steps": (int,),
    "verdict": (bool, type(None)),
}
_PAIR_FIELDS = {"task_id", "initial", "final"}


def derive_seed(base_seed: int, task_id: str, stage: int) -> int:
    """Per-(seed, task, stage) sampling seed; stable across runs and
    independent of task order."""
    digest = hashlib.sha256(f"{base_seed}:{stage}:{task_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Attempt:
    """One model response with its provenance and token accounting."""

    task_id: str
    stage: str  # "initial" | "corrected"
    strategy: str
    decoder_input: str  # exact text the decoder conditioned on
    text: str
    answer: int | float | None
    tokens_generated: int
    steps: int
    verdict: bool | None = None

    def __post_init__(self) -> None:
        if self.stage not in (INITIAL, CORRECTED):
            raise ValueError(f"stage must be 'initial' or 'corrected', got {self.stage!r}")
        if not 1 <= self.steps <= self.tokens_generated:
            raise ValueError(
                "token counters must satisfy 1 <= steps <= tokens_generated, "
                f"got steps={self.steps!r}, tokens_generated={self.tokens_generated!r}"
            )

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in _ATTEMPT_FIELDS}

    @classmethod
    def from_json_dict(cls, data: object) -> "Attempt":
        """Inverse of to_json_dict. ValueError unless ``data`` is an object
        with exactly the attempt fields, each of its JSON type."""
        if not isinstance(data, dict) or data.keys() != _ATTEMPT_FIELDS.keys():
            raise ValueError(f"an attempt must be an object with exactly the fields {list(_ATTEMPT_FIELDS)}")
        for key, types in _ATTEMPT_FIELDS.items():
            if type(data[key]) not in types:
                raise ValueError(f"attempt field {key!r} has the wrong type: {data[key]!r}")
        return cls(**data)


# ---------------------------------------------------------------------------
# Feedback providers


class FeedbackProvider(ABC):
    @abstractmethod
    def feedback(self, task: Task, attempt: Attempt) -> bool:
        """Whether the feedback on ``attempt`` is positive."""


class GroundTruthProvider(FeedbackProvider):
    """Noiseless oracle: positive iff the attempt verifies."""

    def __init__(self, timeout: float = 30.0):
        self._timeout = timeout

    def feedback(self, task: Task, attempt: Attempt) -> bool:
        return verify(task, attempt.text, timeout=self._timeout)


class ScriptedJudgeProvider(FeedbackProvider):
    """Ground truth distorted by configured error rates.

    A truly correct attempt is reported negative with probability fn_rate; a
    truly incorrect one positive with probability fp_rate.
    """

    def __init__(self, fn_rate: float, fp_rate: float, seed: int, timeout: float = 30.0):
        if not 0.0 <= fn_rate <= 1.0:
            raise ValueError(f"fn_rate must be in [0, 1], got {fn_rate}")
        if not 0.0 <= fp_rate <= 1.0:
            raise ValueError(f"fp_rate must be in [0, 1], got {fp_rate}")
        self.fn_rate = fn_rate
        self.fp_rate = fp_rate
        self.seed = seed
        self._timeout = timeout

    def feedback(self, task: Task, attempt: Attempt) -> bool:
        truth = verify(task, attempt.text, timeout=self._timeout)
        r = Random(derive_seed(self.seed, task.id, stage=0)).random()
        return r >= self.fn_rate if truth else r < self.fp_rate


class JudgeServiceProvider(FeedbackProvider):
    """Remote judge; transport failures propagate, they are not verdicts."""

    def __init__(self, client: JudgeClient):
        self._client = client

    def feedback(self, task: Task, attempt: Attempt) -> bool:
        verdict, _category = self._client.judge(task.id, task.prompt, attempt.text)
        return verdict == "correct"


# ---------------------------------------------------------------------------
# Stages


def _attempt_from(result: DecodeResult, task: Task, stage: str, strategy: str, decoder_input: str) -> Attempt:
    text = result.vocabulary.decode(result.chosen.tokens)
    return Attempt(
        task_id=task.id,
        stage=stage,
        strategy=strategy,
        decoder_input=decoder_input,
        text=text,
        answer=extract_bracket_answer(text),
        tokens_generated=result.tokens_generated,
        steps=result.steps,
    )


def run_stage1(model: ModelInterface, task: Task, sampler_cfg: SamplerConfig, strategy: str = "none") -> Attempt:
    """Sample the initial response (per-task seed derived from the config seed)."""
    seed = derive_seed(sampler_cfg.seed, task.id, stage=1)
    cfg = replace(sampler_cfg, seed=seed)
    result = nucleus_sample(model, model.vocabulary.encode(task.prompt), cfg)
    return _attempt_from(result, task, INITIAL, strategy, task.prompt)


def collect_feedback(provider: FeedbackProvider, task: Task, attempt: Attempt) -> bool:
    return provider.feedback(task, attempt)


def indicator_correct(model: ModelInterface, task: Task, attempt: Attempt, multipath_cfg: MultipathConfig) -> Attempt:
    """Stage 2 of the indicator strategy, run after negative feedback.

    Regenerates with the multipath decoder on the original prompt,
    unmodified; the feedback text never reaches the model.
    """
    result = multipath_decode(model, model.vocabulary.encode(task.prompt), multipath_cfg)
    return _attempt_from(result, task, CORRECTED, attempt.strategy, task.prompt)


def prompt_correct(
    model: ModelInterface,
    task: Task,
    attempt: Attempt,
    kind: str,
    sampler_cfg: SamplerConfig,
) -> Attempt:
    """Stage 2 of the prompt-based strategies.

    The stage-2 input is prompt, initial response, and correction prompt
    joined by newlines, decoded by the stage-1 sampler under a stage-2 seed.
    feedback_as_prompt, run after negative feedback, picks its template by
    task domain.
    """
    if kind == "feedback_as_prompt":
        p_cor = load_prompt(FEEDBACK_MATH if task.domain == "math" else FEEDBACK_CODE)
    elif kind == "critic_prompt":
        p_cor = load_prompt(CRITIC)
    elif kind == "ioe_prompt":
        p_cor = load_prompt(IOE)
    else:
        raise ConfigError(f"{kind!r} is not a prompt strategy")

    stage2_input = f"{task.prompt}\n{attempt.text}\n{p_cor}"
    seed = derive_seed(sampler_cfg.seed, task.id, stage=2)
    cfg = replace(sampler_cfg, seed=seed)
    result = nucleus_sample(model, model.vocabulary.encode(stage2_input), cfg)
    return _attempt_from(result, task, CORRECTED, attempt.strategy, stage2_input)


# ---------------------------------------------------------------------------
# Protocol runner


@dataclass(frozen=True)
class ProtocolRun:
    """All (initial, final) pairs in dataset order, plus per-task failures."""

    pairs: tuple[tuple[Attempt, Attempt], ...]
    errors: tuple[tuple[str, str], ...] = ()

    def to_json_lines(self) -> str:
        return "".join(_pair_line(initial, final) for initial, final in self.pairs)


def _pair_line(initial: Attempt, final: Attempt) -> str:
    """One attempts-log record: canonical JSON plus the terminating newline."""
    record = {
        "task_id": initial.task_id,
        "initial": initial.to_json_dict(),
        "final": final.to_json_dict(),
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _load_resume(path: Path, strategy_kind: str) -> dict[str, tuple[Attempt, Attempt]]:
    """Completed pairs of ``strategy_kind`` from the attempts log.

    A run killed mid-write leaves an unterminated last line; it is dropped
    and the file truncated to its last newline, so appends start on a clean
    line. Any other malformed line raises LoadError naming the file and the
    line.
    """
    done: dict[str, tuple[Attempt, Attempt]] = {}
    if not path.exists():
        return done
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        os.truncate(path, complete)
    for number, line in enumerate(data[:complete].split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or record.keys() != _PAIR_FIELDS:
                raise ValueError(f"a record must be an object with exactly the fields {sorted(_PAIR_FIELDS)}")
            initial = Attempt.from_json_dict(record["initial"])
            final = Attempt.from_json_dict(record["final"])
            if not record["task_id"] == initial.task_id == final.task_id:
                raise ValueError(f"task ids differ: {record['task_id']!r}, {initial.task_id!r}, {final.task_id!r}")
        except ValueError as exc:
            raise LoadError(f"attempts log {path}, line {number}: {exc}") from exc
        if initial.strategy == strategy_kind:
            done[initial.task_id] = (initial, final)
    return done


def run_protocol(
    model: ModelInterface,
    dataset: Dataset,
    kind: str,
    provider: FeedbackProvider | None,
    sampler_cfg: SamplerConfig,
    multipath_cfg: MultipathConfig = MultipathConfig(),
    workers: int = 1,
    resume_path: str | Path | None = None,
) -> ProtocolRun:
    """Run stage 1 and stage 2 of the strategy ``kind`` over the whole dataset.

    Stage 2 of ftr_indicator decodes with ``multipath_cfg``; the prompt
    strategies reuse ``sampler_cfg``.

    Tasks run in parallel up to ``workers``; results are ordered by dataset
    position regardless, and per-task seeds make the output independent of
    scheduling. A task that raises a MultipathError (a transport, protocol
    or verification failure, which a rerun may not meet again) is recorded
    under errors and the run continues; any other error, such as a prompt
    the vocabulary cannot encode, ends the run. With ``resume_path``,
    previously completed tasks (matching strategy) are reused and each new
    completion is appended and flushed as it arrives, so a killed run keeps
    every pair it finished.
    """
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}")
    if kind in FEEDBACK_GATED and provider is None:
        raise ConfigError(f"strategy {kind!r} requires a feedback provider")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    resume: dict[str, tuple[Attempt, Attempt]] = {}
    log_file = None
    if resume_path is not None:
        resume_path = Path(resume_path)
        resume = _load_resume(resume_path, kind)
        resume_path.parent.mkdir(parents=True, exist_ok=True)
        log_file = resume_path.open("a", encoding="utf-8")

    def one(task: Task) -> tuple[Attempt, Attempt]:
        initial = run_stage1(model, task, sampler_cfg, strategy=kind)
        if kind == "none":
            return initial, initial
        # The feedback gate: stage 2 runs only on negative feedback.
        if kind in FEEDBACK_GATED and collect_feedback(provider, task, initial):
            return initial, initial
        if kind == "ftr_indicator":
            return initial, indicator_correct(model, task, initial, multipath_cfg)
        return initial, prompt_correct(model, task, initial, kind, sampler_cfg)

    pending = [t for t in dataset.tasks if t.id not in resume]
    results: dict[str, tuple[Attempt, Attempt]] = dict(resume)
    errors: list[tuple[str, str]] = []

    def run_one(task: Task):
        try:
            return task.id, one(task), None
        except MultipathError as exc:
            return task.id, None, f"{type(exc).__name__}: {exc}"

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        outcomes = map(run_one, pending) if pool is None else pool.map(run_one, pending)
        for task_id, pair, error in outcomes:
            if error is not None:
                errors.append((task_id, error))
                continue
            results[task_id] = pair
            if log_file is not None:
                log_file.write(_pair_line(*pair))
                log_file.flush()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if log_file is not None:
            log_file.close()

    ordered = tuple(results[t.id] for t in dataset.tasks if t.id in results)
    errors.sort(key=lambda e: e[0])
    return ProtocolRun(pairs=ordered, errors=tuple(errors))
