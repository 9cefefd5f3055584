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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Callable, Iterator

from .decoding import DecodeResult, MultipathConfig, SamplerConfig, multipath_decode, nucleus_sample
from .errors import ConfigError, LoadError, MultipathError
from .models import ModelInterface, check_timeout
from .tasks import Dataset, Task, answer_matches, extract_bracket_answer, verify
from .templates import CRITIC, FEEDBACK_CODE, FEEDBACK_MATH, IOE, load_prompt

if TYPE_CHECKING:  # an annotation only; importing remote here would load urllib for every run
    from .remote import JudgeClient

STRATEGY_KINDS = ("none", "ftr_indicator", "feedback_as_prompt", "critic_prompt", "ioe_prompt")
# The strategies whose stage 2 runs only on negative feedback.
FEEDBACK_GATED = ("ftr_indicator", "feedback_as_prompt")

INITIAL = "initial"
CORRECTED = "corrected"

# The JSON types of each field of an attempts-log record (format v1),
# compared exactly (a JSON bool is not an int). "answer" is the one its
# "text" gives, and "verdict" is a slot that is always null.
_ATTEMPT_FIELDS = {
    "task_id": (str,),
    "stage": (str,),
    "strategy": (str,),
    "decoder_input": (str,),
    "text": (str,),
    "answer": (int, float, type(None)),
    "tokens_generated": (int,),
    "steps": (int,),
    "verdict": (type(None),),
}
_PAIR_FIELDS = {"task_id", "initial", "final"}


def derive_seed(base_seed: int, task_id: str, stage: int) -> int:
    """Per-(seed, task, stage) sampling seed; stable across runs and
    independent of task order."""
    digest = hashlib.sha256(f"{base_seed}:{stage}:{task_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Attempt:
    """One model response with its provenance and token accounting.

    ``answer`` is not an argument: it is the number ``text`` gives
    (extract_bracket_answer), so no attempt carries another.
    """

    task_id: str
    stage: str  # "initial" | "corrected"
    strategy: str
    decoder_input: str  # exact text the decoder conditioned on
    text: str
    tokens_generated: int
    steps: int
    answer: int | float | None = field(init=False)

    def __post_init__(self) -> None:
        if self.stage not in (INITIAL, CORRECTED):
            raise ValueError(f"stage must be 'initial' or 'corrected', got {self.stage!r}")
        if not 1 <= self.steps <= self.tokens_generated:
            raise ValueError(
                "token counters must satisfy 1 <= steps <= tokens_generated, "
                f"got steps={self.steps!r}, tokens_generated={self.tokens_generated!r}"
            )
        object.__setattr__(self, "answer", extract_bracket_answer(self.text))

    def to_json_dict(self) -> dict:
        # "verdict" is the one record field that is no attribute: it is null.
        return {key: getattr(self, key, None) for key in _ATTEMPT_FIELDS}

    @classmethod
    def from_json_dict(cls, data: object) -> "Attempt":
        """Inverse of to_json_dict. ValueError unless ``data`` is an object
        with exactly the attempt fields, each of its JSON type, whose
        ``answer`` is the one its text gives and whose ``verdict`` is null."""
        if not isinstance(data, dict) or data.keys() != _ATTEMPT_FIELDS.keys():
            raise ValueError(f"an attempt must be an object with exactly the fields {list(_ATTEMPT_FIELDS)}")
        for key, types in _ATTEMPT_FIELDS.items():
            if type(data[key]) not in types:
                raise ValueError(f"attempt field {key!r} has the wrong type: {data[key]!r}")
        attempt = cls(**{key: data[key] for key in _ATTEMPT_FIELDS if key not in ("answer", "verdict")})
        if type(data["answer"]) is not type(attempt.answer) or data["answer"] != attempt.answer:
            raise ValueError(f"answer {data['answer']!r} is not {attempt.answer!r}, the answer its text gives")
        return attempt


# ---------------------------------------------------------------------------
# Feedback providers


class FeedbackProvider(ABC):
    @abstractmethod
    def feedback(self, task: Task, attempt: Attempt) -> bool:
        """Whether the feedback on ``attempt`` is positive."""


def true_verdict(task: Task, attempt: Attempt, timeout: float) -> bool:
    """Whether ``attempt`` answers ``task``, by the rule verify applies to its
    text: a math attempt already holds its extracted answer, so only a code
    attempt runs the verifier. The ground-truth and scripted providers and
    evaluation.score_run all judge by it."""
    if task.domain == "math":
        return answer_matches(task, attempt.answer)
    return verify(task, attempt.text, timeout=timeout)


class GroundTruthProvider(FeedbackProvider):
    """Noiseless oracle: positive iff the attempt verifies."""

    def __init__(self, timeout: float = 30.0):
        check_timeout(timeout)
        self._timeout = timeout

    def feedback(self, task: Task, attempt: Attempt) -> bool:
        return true_verdict(task, attempt, self._timeout)


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
        check_timeout(timeout)
        self.fn_rate = fn_rate
        self.fp_rate = fp_rate
        self.seed = seed
        self._timeout = timeout

    def feedback(self, task: Task, attempt: Attempt) -> bool:
        truth = true_verdict(task, attempt, self._timeout)
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
    return Attempt(
        task_id=task.id,
        stage=stage,
        strategy=strategy,
        decoder_input=decoder_input,
        text=result.vocabulary.decode(result.chosen.tokens),
        tokens_generated=result.tokens_generated,
        steps=result.steps,
    )


def _stage_sampler(sampler_cfg: SamplerConfig, task: Task, stage: int) -> SamplerConfig:
    """``sampler_cfg`` under the task's seed for ``stage``. Built by keyword:
    ``dataclasses.replace`` spends more on generic field handling than a
    two-token decode spends sampling. A new SamplerConfig field must be
    copied here."""
    return SamplerConfig(
        top_p=sampler_cfg.top_p,
        top_k=sampler_cfg.top_k,
        seed=derive_seed(sampler_cfg.seed, task.id, stage=stage),
        max_len=sampler_cfg.max_len,
    )


def run_stage1(model: ModelInterface, task: Task, sampler_cfg: SamplerConfig, strategy: str = "none") -> Attempt:
    """Sample the initial response (per-task seed derived from the config seed)."""
    cfg = _stage_sampler(sampler_cfg, task, stage=1)
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
    cfg = _stage_sampler(sampler_cfg, task, stage=2)
    result = nucleus_sample(model, model.vocabulary.encode(stage2_input), cfg)
    return _attempt_from(result, task, CORRECTED, attempt.strategy, stage2_input)


# ---------------------------------------------------------------------------
# Protocol runner


@contextmanager
def fan_out(workers: int) -> Iterator[Callable]:
    """The ``map`` that runs a run's independent calls: the builtin for
    ``workers`` <= 1, else a pool of that many threads, which on exit cancels
    the calls that have not started. run_protocol and evaluation.score_run
    both fan out through it."""
    if workers <= 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor  # only for parallel runs

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class ProtocolRun:
    """All (initial, final) pairs in dataset order, plus per-task failures."""

    pairs: tuple[tuple[Attempt, Attempt], ...]
    errors: tuple[tuple[str, str], ...] = ()

    def to_json_lines(self) -> str:
        return "".join(_pair_line(initial, final) for initial, final in self.pairs)


# The canonical JSON of the attempts log: json.dumps(..., sort_keys=True,
# separators=(",", ":")), with one encoder built once, not one per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _pair_line(initial: Attempt, final: Attempt) -> str:
    """One attempts-log record: canonical JSON plus the terminating newline.

    Each attempt is encoded once, and once for both when ``final`` is the
    initial attempt; the record's keys are spliced in sorted order.
    """
    first = _encode(initial.to_json_dict())
    last = first if final is initial else _encode(final.to_json_dict())
    return f'{{"final":{last},"initial":{first},"task_id":{_encode(initial.task_id)}}}\n'


def _load_resume(path: Path, strategy_kind: str) -> dict[str, tuple[Attempt, Attempt]]:
    """Completed pairs of ``strategy_kind`` from the attempts log.

    A run killed mid-write leaves an unterminated last line; it is dropped
    and the file truncated to its last newline, so appends start on a clean
    line. Any other malformed line, including a pair no run writes (such as
    an answer its text does not give), raises LoadError naming the file and
    the line.
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
            if initial.stage != INITIAL:
                raise ValueError(f"the initial attempt has stage {initial.stage!r}")
            if final.strategy != initial.strategy:
                raise ValueError(f"strategies differ: {initial.strategy!r}, {final.strategy!r}")
            if final.stage == INITIAL and final != initial:
                raise ValueError("a final attempt of stage 'initial' must equal the initial attempt")
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
    log = nullcontext()
    if resume_path is not None:
        resume_path = Path(resume_path)
        resume = _load_resume(resume_path, kind)
        resume_path.parent.mkdir(parents=True, exist_ok=True)
        log = resume_path.open("a", encoding="utf-8")

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

    with log as log_file, fan_out(workers) as each:
        for task_id, pair, error in each(run_one, pending):
            if error is not None:
                errors.append((task_id, error))
                continue
            results[task_id] = pair
            if log_file is not None:
                log_file.write(_pair_line(*pair))
                log_file.flush()

    ordered = tuple(results[t.id] for t in dataset.tasks if t.id in results)
    errors.sort(key=lambda e: e[0])
    return ProtocolRun(pairs=ordered, errors=tuple(errors))
