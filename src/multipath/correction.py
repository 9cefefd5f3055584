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
truth (the true verdict, flipped at optional false-negative/false-positive
rates) and a remote judge service. Ground truth draws from a stream seeded
per (seed, task id), so its verdict for a task does not depend on how many
other tasks ran before it; at rate 0 it draws nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
from abc import ABC, abstractmethod
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from .decoding import DecodeResult, MultipathConfig, SamplerConfig, multipath_decode, nucleus_sample
from .errors import ConfigError, LoadError, MultipathError
from .models import ModelInterface, TokenIds, Vocabulary, check_timeout
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

    @classmethod
    def from_json_dict(cls, data: object) -> "Attempt":
        """The attempt an attempts-log record holds, the inverse of
        _attempt_json. ValueError unless ``data`` is an object with exactly
        the attempt fields, each of its JSON type, whose ``answer`` is the one
        its text gives and whose ``verdict`` is null."""
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
    attempt runs the verifier. The ground-truth provider and
    evaluation.score_run both judge by it."""
    if task.domain == "math":
        return answer_matches(task, attempt.answer)
    return verify(task, attempt.text, timeout=timeout)


class GroundTruthProvider(FeedbackProvider):
    """The true verdict, flipped at configured error rates: a truly correct
    attempt is reported negative with probability fn_rate, a truly incorrect
    one positive with probability fp_rate. A draw is made only when the rate
    that applies is above 0, so noiseless ground truth seeds nothing."""

    def __init__(self, timeout: float = 30.0, fn_rate: float = 0.0, fp_rate: float = 0.0, seed: int = 0):
        for name, rate in (("fn_rate", fn_rate), ("fp_rate", fp_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        check_timeout(timeout)
        self._timeout = timeout
        self.fn_rate = fn_rate
        self.fp_rate = fp_rate
        self.seed = seed

    def feedback(self, task: Task, attempt: Attempt) -> bool:
        truth = true_verdict(task, attempt, self._timeout)
        rate = self.fn_rate if truth else self.fp_rate
        return truth != (rate > 0 and Random(derive_seed(self.seed, task.id, stage=0)).random() < rate)


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


class StageInputs(NamedTuple):
    """What a task's stages decode from, the same for every strategy of a
    run: the prompt's ids and the task's stage-1 and stage-2 sampling seeds
    (derive_seed of the run's seed)."""

    prompt_ids: TokenIds
    stage1_seed: int
    stage2_seed: int


def stage_inputs(vocabulary: Vocabulary, tasks: Iterable[Task], seed: int) -> dict[str, StageInputs]:
    """Each task's StageInputs by task id, for a run of base seed ``seed``.
    Every prompt is encoded here, so a prompt outside the vocabulary raises
    ValueError before any task runs."""
    encode = vocabulary.encode
    return {t.id: StageInputs(encode(t.prompt), derive_seed(seed, t.id, 1), derive_seed(seed, t.id, 2)) for t in tasks}


def run_stage1(
    model: ModelInterface, task: Task, sampler_cfg: SamplerConfig, inputs: StageInputs, strategy: str
) -> Attempt:
    """Sample the initial response from the task's prompt ids, under its
    stage-1 seed."""
    result = nucleus_sample(model, inputs.prompt_ids, sampler_cfg, inputs.stage1_seed)
    return _attempt_from(result, task, INITIAL, strategy, task.prompt)


def collect_feedback(provider: FeedbackProvider, task: Task, attempt: Attempt) -> bool:
    return provider.feedback(task, attempt)


def indicator_correct(
    model: ModelInterface, task: Task, attempt: Attempt, multipath_cfg: MultipathConfig, inputs: StageInputs
) -> Attempt:
    """Stage 2 of the indicator strategy, run after negative feedback.

    Regenerates with the multipath decoder on the original prompt's ids,
    unmodified; the feedback text never reaches the model.
    """
    result = multipath_decode(model, inputs.prompt_ids, multipath_cfg)
    return _attempt_from(result, task, CORRECTED, attempt.strategy, task.prompt)


def prompt_correct(
    model: ModelInterface,
    task: Task,
    attempt: Attempt,
    kind: str,
    sampler_cfg: SamplerConfig,
    inputs: StageInputs,
) -> Attempt:
    """Stage 2 of the prompt-based strategies.

    The stage-2 input is prompt, initial response, and correction prompt
    joined by newlines, decoded by the stage-1 sampler under the task's
    stage-2 seed.
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
    result = nucleus_sample(model, model.vocabulary.encode(stage2_input), sampler_cfg, inputs.stage2_seed)
    return _attempt_from(result, task, CORRECTED, attempt.strategy, stage2_input)


# ---------------------------------------------------------------------------
# Protocol runner


@contextmanager
def fan_out(workers: int) -> Iterator[Callable]:
    """The ``map`` that runs a run's independent calls: the builtin for
    ``workers`` == 1, else a pool of that many threads, which on exit cancels
    the calls that have not started. run_protocol and evaluation.score_run
    both fan out through it. ConfigError for ``workers`` < 1."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1:
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


# The attempts log is canonical JSON: the bytes of json.dumps(record,
# sort_keys=True, separators=(",", ":")), written by hand. Strings go through
# _json_str, the escaper json.dumps itself uses under ensure_ascii, and
# numbers through int and float repr.


def _attempt_json(a: Attempt) -> str:
    """One attempt's record, keys in sorted order; ``verdict`` is null."""
    answer = "null" if a.answer is None else repr(a.answer)
    return (
        f'{{"answer":{answer},"decoder_input":{_json_str(a.decoder_input)},"stage":{_json_str(a.stage)},'
        f'"steps":{a.steps!r},"strategy":{_json_str(a.strategy)},"task_id":{_json_str(a.task_id)},'
        f'"text":{_json_str(a.text)},"tokens_generated":{a.tokens_generated!r},"verdict":null}}'
    )


def _pair_line(initial: Attempt, final: Attempt) -> str:
    """One attempts-log record plus the terminating newline. Each attempt is
    written once, and once for both when ``final`` is the initial attempt."""
    first = _attempt_json(initial)
    last = first if final is initial else _attempt_json(final)
    return f'{{"final":{last},"initial":{first},"task_id":{_json_str(initial.task_id)}}}\n'


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
    inputs: Mapping[str, StageInputs],
    multipath_cfg: MultipathConfig = MultipathConfig(),
    workers: int = 1,
    resume_path: str | Path | None = None,
) -> ProtocolRun:
    """Run stage 1 and stage 2 of the strategy ``kind`` over the whole dataset.

    Stage 2 of ftr_indicator decodes with ``multipath_cfg``; the prompt
    strategies reuse ``sampler_cfg``. ``inputs`` holds each task's
    StageInputs, ``stage_inputs(model.vocabulary, dataset.tasks, seed)`` for
    the run's base seed; a caller that runs several strategies builds it
    once and passes it to each.

    Tasks run in parallel up to ``workers``; results are ordered by dataset
    position regardless, and per-task seeds make the output independent of
    scheduling. A task that raises a MultipathError (a transport, protocol
    or verification failure, which a rerun may not meet again) is recorded
    under errors and the run continues; any other error ends the run. With
    ``resume_path``, previously completed tasks (matching strategy) are
    reused and each new completion is appended and flushed as it arrives, so
    a killed run keeps every pair it finished.
    """
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}")
    if kind in FEEDBACK_GATED and provider is None:
        raise ConfigError(f"strategy {kind!r} requires a feedback provider")

    def one(task: Task) -> tuple[Attempt, Attempt]:
        own = inputs[task.id]
        initial = run_stage1(model, task, sampler_cfg, own, strategy=kind)
        if kind == "none":
            return initial, initial
        # The feedback gate: stage 2 runs only on negative feedback.
        if kind in FEEDBACK_GATED and collect_feedback(provider, task, initial):
            return initial, initial
        if kind == "ftr_indicator":
            return initial, indicator_correct(model, task, initial, multipath_cfg, own)
        return initial, prompt_correct(model, task, initial, kind, sampler_cfg, own)

    def run_one(task: Task):
        try:
            return task.id, one(task), None
        except MultipathError as exc:
            return task.id, None, f"{type(exc).__name__}: {exc}"

    results: dict[str, tuple[Attempt, Attempt]] = {}
    errors: list[tuple[str, str]] = []
    # fan_out refuses a bad worker count before the resume log is read.
    with fan_out(workers) as each:
        log = nullcontext()
        if resume_path is not None:
            resume_path = Path(resume_path)
            results = _load_resume(resume_path, kind)
            resume_path.parent.mkdir(parents=True, exist_ok=True)
            log = resume_path.open("a", encoding="utf-8")
        pending = [t for t in dataset.tasks if t.id not in results]
        with log as log_file:
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
