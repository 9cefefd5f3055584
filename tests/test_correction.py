"""Two-stage correction protocol, feedback providers, resume/parallel runs."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import sys
import time
from random import Random

import pytest
from conftest import run_seeded
from hypothesis import given, strategies as st

from multipath import correction, kernels
from multipath.correction import (
    CORRECTED,
    INITIAL,
    FEEDBACK_GATED,
    Attempt,
    FeedbackProvider,
    GroundTruthProvider,
    JudgeServiceProvider,
    ProtocolRun,
    collect_feedback,
    derive_seed,
    fan_out,
    indicator_correct,
    prompt_correct,
    run_stage1,
    stage_inputs,
)
from multipath.decoding import MultipathConfig, SamplerConfig, multipath_decode, nucleus_sample
from multipath.errors import ConfigError, LoadError
from multipath.models import ModelInterface, train_ngram
from multipath.tasks import Dataset, Task
from multipath.templates import CRITIC, FEEDBACK_CODE, FEEDBACK_MATH, IOE, load_prompt
from multipath.toydata import make_digit_dataset, make_digit_model

MPCFG = MultipathConfig(mass_fraction=0.9, max_width=7, max_len=8)
SAMPLER = SamplerConfig(top_p=0.95, top_k=15, max_len=8)


def inputs_of(model, task, seed=0):
    """The stage inputs a run of base seed ``seed`` gives ``task``."""
    return stage_inputs(model.vocabulary, [task], seed)[task.id]


def make_attempt(task_id="t000", text="[3] $", stage=INITIAL, strategy="none", decoder_input="p"):
    return Attempt(
        task_id=task_id,
        stage=stage,
        strategy=strategy,
        decoder_input=decoder_input,
        text=text,
        tokens_generated=2,
        steps=2,
    )


class CountingModel(ModelInterface):
    """Delegating wrapper that counts model calls."""

    def __init__(self, inner):
        super().__init__(inner.vocabulary)
        self._inner = inner
        self.calls = 0

    def _distribution(self, prompt, prefix):
        self.calls += 1
        return self._inner.next_distribution(prompt, prefix)


class FixedFeedback(FeedbackProvider):
    """Stub provider that gives every task the same feedback."""

    def __init__(self, positive):
        self.positive = positive
        self.asked = []

    def feedback(self, task, attempt):
        self.asked.append(task.id)
        return self.positive


def refuse_stage2(*args, **kwargs):
    raise AssertionError("stage 2 ran on positive feedback")


class StubJudgeClient:
    def __init__(self, verdict, category=None):
        self.verdict = verdict
        self.category = category
        self.seen = []

    def judge(self, task_id, prompt, response):
        self.seen.append((task_id, prompt, response))
        return self.verdict, self.category


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_matches_its_contract():
    digest = hashlib.sha256(b"5:1:t042").digest()
    assert derive_seed(5, "t042", 1) == int.from_bytes(digest[:8], "big")


def test_derive_seed_separates_stages_and_tasks():
    base = derive_seed(0, "t000", 1)
    assert derive_seed(0, "t000", 2) != base
    assert derive_seed(0, "t001", 1) != base
    assert derive_seed(1, "t000", 1) != base
    assert derive_seed(0, "t000", 1) == base


# ---------------------------------------------------------------------------
# data types


def test_attempt_round_trips_through_json():
    attempt = make_attempt()
    record = json.loads(correction._pair_line(attempt, attempt))["initial"]
    assert record["answer"] == 3 and record["verdict"] is None
    assert Attempt.from_json_dict(record) == attempt
    # A record no run writes: a verdict, or an answer its text does not give.
    with pytest.raises(ValueError, match="'verdict' has the wrong type: True"):
        Attempt.from_json_dict({**record, "verdict": True})
    with pytest.raises(ValueError, match="answer 4 is not 3, the answer its text gives"):
        Attempt.from_json_dict({**record, "answer": 4})


def test_attempt_validation():
    with pytest.raises(ValueError, match="stage"):
        make_attempt(stage="final")
    for tokens, steps in ((-1, 0), (0, 0), (2, 0), (2, 3)):
        with pytest.raises(ValueError, match="counters"):
            Attempt(
                task_id="t", stage=INITIAL, strategy="none", decoder_input="p",
                text="x", tokens_generated=tokens, steps=steps,
            )
    # The answer is the one the text gives; it is not an argument.
    with pytest.raises(TypeError, match="answer"):
        Attempt(
            task_id="t", stage=INITIAL, strategy="none", decoder_input="p",
            text="[3]", answer=3, tokens_generated=2, steps=2,
        )
    assert make_attempt(text="[1] then [2,500]").answer == 2500
    assert make_attempt(text="no number").answer is None
    assert "verdict" not in {f.name for f in dataclasses.fields(Attempt)}


def test_strategy_validation(small_digit_model, small_digit_dataset):
    with pytest.raises(ConfigError, match="unknown strategy"):
        run_seeded(small_digit_model, small_digit_dataset, "rewrite", None, SAMPLER)
    assert FEEDBACK_GATED == ("ftr_indicator", "feedback_as_prompt")


# ---------------------------------------------------------------------------
# providers


def test_ground_truth_provider_polarity():
    provider = GroundTruthProvider()
    task = Task(id="t", prompt="q", domain="math", answer=3)
    assert provider.feedback(task, make_attempt(text="[3]")) is True
    assert provider.feedback(task, make_attempt(text="[4]")) is False


RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@given(truth=st.booleans(), fn_rate=RATES, fp_rate=RATES, seed=st.integers(-(2**70), 2**70),
       task_id=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
def test_ground_truth_with_error_rates_gives_the_scripted_rule(truth, fn_rate, fp_rate, seed, task_id):
    # The rule of the scripted judge that ground truth replaced: one draw per
    # (seed, task id); a correct attempt is positive unless the draw is below
    # fn_rate, an incorrect one negative unless it is below fp_rate.
    digest = hashlib.sha256(f"{seed}:0:{task_id}".encode("utf-8")).digest()
    r = Random(int.from_bytes(digest[:8], "big")).random()
    expected = r >= fn_rate if truth else r < fp_rate
    task = Task(id=task_id, prompt="q", domain="math", answer=3)
    provider = GroundTruthProvider(fn_rate=fn_rate, fp_rate=fp_rate, seed=seed)
    assert provider.feedback(task, make_attempt(task_id=task_id, text="[3]" if truth else "[4]")) is expected


def test_ground_truth_draws_only_at_a_rate_above_zero(monkeypatch):
    derived = []
    monkeypatch.setattr(correction, "derive_seed", lambda *args, **kwargs: derived.append(args) or 0)
    noiseless = GroundTruthProvider()
    for i, text in enumerate(("[3]", "[4]", "nothing")):
        noiseless.feedback(Task(id=f"t{i}", prompt="q", domain="math", answer=3), make_attempt(text=text))
    assert derived == []
    # Only the rate of the true verdict applies: fn_rate to a correct attempt.
    task = Task(id="t9", prompt="q", domain="math", answer=3)
    false_negatives = GroundTruthProvider(fn_rate=0.5, seed=4)
    false_negatives.feedback(task, make_attempt(text="[4]"))
    assert derived == []
    false_negatives.feedback(task, make_attempt(text="[3]"))
    assert derived == [(4, "t9")]


def test_scripted_judge_extreme_rates_always_flip():
    task = Task(id="t9", prompt="q", domain="math", answer=3)
    always_fn = GroundTruthProvider(fn_rate=1.0, fp_rate=0.0, seed=0)
    assert always_fn.feedback(task, make_attempt(text="[3]")) is False
    always_fp = GroundTruthProvider(fn_rate=0.0, fp_rate=1.0, seed=0)
    assert always_fp.feedback(task, make_attempt(text="[4]")) is True


def test_scripted_judge_rate_validation():
    with pytest.raises(ValueError, match="fn_rate"):
        GroundTruthProvider(fn_rate=1.5, fp_rate=0.0, seed=0)
    with pytest.raises(ValueError, match="fp_rate"):
        GroundTruthProvider(fn_rate=0.0, fp_rate=-0.1, seed=0)


def test_scripted_judge_is_order_independent():
    tasks = [Task(id=f"t{i}", prompt="q", domain="math", answer=3) for i in range(20)]
    attempt_for = {t.id: make_attempt(task_id=t.id, text="[3]") for t in tasks}
    forward = GroundTruthProvider(fn_rate=0.5, fp_rate=0.0, seed=7)
    backward = GroundTruthProvider(fn_rate=0.5, fp_rate=0.0, seed=7)
    got_forward = {t.id: forward.feedback(t, attempt_for[t.id]) for t in tasks}
    got_backward = {t.id: backward.feedback(t, attempt_for[t.id]) for t in reversed(tasks)}
    assert got_forward == got_backward
    assert len(set(got_forward.values())) == 2  # the rate actually fires


def test_judge_service_provider_maps_verdicts():
    task = Task(id="t", prompt="q", domain="math", answer=3)
    positive = JudgeServiceProvider(StubJudgeClient("correct", "arith"))
    assert positive.feedback(task, make_attempt()) is True
    negative = JudgeServiceProvider(StubJudgeClient("incorrect"))
    assert negative.feedback(task, make_attempt()) is False


def test_judge_service_provider_sends_task_fields():
    client = StubJudgeClient("correct")
    provider = JudgeServiceProvider(client)
    task = Task(id="t7", prompt="the question", domain="math", answer=3)
    provider.feedback(task, make_attempt(text="[3] $"))
    assert client.seen == [("t7", "the question", "[3] $")]


# ---------------------------------------------------------------------------
# stages


def test_run_stage1_conditions_on_the_raw_prompt(small_digit_model, small_digit_dataset):
    task = small_digit_dataset.tasks[0]
    attempt = run_stage1(small_digit_model, task, SAMPLER, inputs_of(small_digit_model, task), "none")
    assert attempt.stage == INITIAL
    assert attempt.decoder_input == task.prompt
    assert attempt.task_id == task.id
    assert attempt.tokens_generated == 2
    assert attempt.text.endswith("$")
    again = run_stage1(small_digit_model, task, SAMPLER, inputs_of(small_digit_model, task), "none")
    assert again == attempt


def test_stage_decodes_take_the_run_config_and_the_task_stage_seeds(
    monkeypatch, small_digit_model, small_digit_dataset
):
    # Each stage decode samples under the run's own config object and the
    # seed its task's StageInputs hold for that stage; no stage builds a
    # config of its own. A serial critic_prompt run decodes stage 1, then
    # stage 2, of each task in dataset order.
    calls = []

    def recording_sample(model, prompt, cfg, seed):
        calls.append((cfg, seed))
        return nucleus_sample(model, prompt, cfg, seed)

    monkeypatch.setattr(correction, "nucleus_sample", recording_sample)
    sampler = SamplerConfig(top_p=0.5, top_k=3, max_len=4)
    run = run_seeded(small_digit_model, small_digit_dataset, "critic_prompt", None, sampler, seed=11)
    assert run.errors == ()
    inputs = stage_inputs(small_digit_model.vocabulary, small_digit_dataset.tasks, 11)
    tasks = small_digit_dataset.tasks
    assert [seed for _, seed in calls] == [
        seed for t in tasks for seed in (inputs[t.id].stage1_seed, inputs[t.id].stage2_seed)
    ]
    assert all(cfg is sampler for cfg, _ in calls)


def test_run_stage1_seed_is_per_task(small_digit_model, small_digit_dataset):
    texts = {
        task.id: run_stage1(small_digit_model, task, SAMPLER, inputs_of(small_digit_model, task), "none").text
        for task in small_digit_dataset.tasks
    }
    # ten tasks with distinct best digits cannot all sample the same token
    assert len(set(texts.values())) > 1


def test_indicator_negative_feedback_regenerates_on_original_prompt(
    small_digit_model, small_digit_dataset
):
    task = small_digit_dataset.tasks[0]
    inputs = inputs_of(small_digit_model, task)
    attempt = run_stage1(small_digit_model, task, SAMPLER, inputs, strategy="ftr_indicator")
    corrected = indicator_correct(small_digit_model, task, attempt, MPCFG, inputs)
    assert corrected.stage == CORRECTED
    assert corrected.decoder_input == task.prompt

    standalone = multipath_decode(
        small_digit_model, small_digit_model.vocabulary.encode(task.prompt), MPCFG
    )
    assert corrected.text == small_digit_model.vocabulary.decode(standalone.chosen.tokens)
    assert corrected.tokens_generated == standalone.tokens_generated
    assert corrected.steps == standalone.steps


def test_prompt_correct_concatenates_prompt_response_template(
    small_digit_model, small_digit_dataset
):
    task = small_digit_dataset.tasks[0]
    inputs = inputs_of(small_digit_model, task)
    attempt = run_stage1(small_digit_model, task, SAMPLER, inputs, strategy="critic_prompt")
    corrected = prompt_correct(small_digit_model, task, attempt, "critic_prompt", SAMPLER, inputs)
    assert corrected.stage == CORRECTED
    assert corrected.decoder_input == f"{task.prompt}\n{attempt.text}\n{load_prompt(CRITIC)}"


def test_prompt_correct_ioe_uses_its_own_template(small_digit_model, small_digit_dataset):
    task = small_digit_dataset.tasks[0]
    inputs = inputs_of(small_digit_model, task)
    attempt = run_stage1(small_digit_model, task, SAMPLER, inputs, strategy="ioe_prompt")
    corrected = prompt_correct(small_digit_model, task, attempt, "ioe_prompt", SAMPLER, inputs)
    assert corrected.decoder_input.endswith("\n" + load_prompt(IOE))
    assert load_prompt(IOE) != load_prompt(CRITIC)


def test_feedback_as_prompt_picks_template_by_domain(small_digit_model, small_digit_dataset):
    strategy = "feedback_as_prompt"

    math_task = small_digit_dataset.tasks[0]
    attempt = make_attempt(task_id=math_task.id, strategy="feedback_as_prompt")
    inputs = inputs_of(small_digit_model, math_task)
    out = prompt_correct(small_digit_model, math_task, attempt, strategy, SAMPLER, inputs)
    assert out.decoder_input.endswith("\n" + load_prompt(FEEDBACK_MATH))

    code_task = Task(id="c1", prompt="solve item 5", domain="code", verify_cmd=("true",))
    attempt = make_attempt(task_id="c1", strategy="feedback_as_prompt")
    inputs = inputs_of(small_digit_model, code_task)
    out = prompt_correct(small_digit_model, code_task, attempt, strategy, SAMPLER, inputs)
    assert out.decoder_input.endswith("\n" + load_prompt(FEEDBACK_CODE))
    assert load_prompt(FEEDBACK_CODE) != load_prompt(FEEDBACK_MATH)


def test_prompt_correct_rejects_non_prompt_strategies(small_digit_model, small_digit_dataset):
    task = small_digit_dataset.tasks[0]
    attempt = make_attempt(task_id=task.id)
    with pytest.raises(ConfigError, match="not a prompt strategy"):
        prompt_correct(small_digit_model, task, attempt, "ftr_indicator", SAMPLER, inputs_of(small_digit_model, task))


def test_collect_feedback_delegates(small_digit_dataset):
    task = small_digit_dataset.tasks[0]
    provider = GroundTruthProvider()
    direct = provider.feedback(task, make_attempt(task_id=task.id, text="[9]"))
    routed = collect_feedback(provider, task, make_attempt(task_id=task.id, text="[9]"))
    assert routed == direct


# ---------------------------------------------------------------------------
# run_protocol


def test_protocol_none_keeps_initial_as_final(small_digit_model, small_digit_dataset):
    run = run_seeded(
        small_digit_model, small_digit_dataset, "none", None, SAMPLER
    )
    assert len(run.pairs) == len(small_digit_dataset.tasks)
    assert run.errors == ()
    for initial, final in run.pairs:
        assert final is initial
    assert [p[0].task_id for p in run.pairs] == [t.id for t in small_digit_dataset.tasks]


def check_positive_feedback_keeps_initial(monkeypatch, model, dataset, strategy, stage2_name):
    monkeypatch.setattr(correction, stage2_name, refuse_stage2)
    provider = FixedFeedback(True)
    run = run_seeded(model, dataset, strategy, provider, SAMPLER, MPCFG)
    assert provider.asked == [t.id for t in dataset.tasks]
    assert run.errors == ()
    assert len(run.pairs) == len(dataset.tasks)
    for initial, final in run.pairs:
        assert final is initial


def test_indicator_positive_feedback_is_identity(monkeypatch, small_digit_model, small_digit_dataset):
    check_positive_feedback_keeps_initial(
        monkeypatch, small_digit_model, small_digit_dataset, "ftr_indicator", "indicator_correct"
    )


def test_feedback_as_prompt_positive_is_identity(monkeypatch, small_digit_model, small_digit_dataset):
    check_positive_feedback_keeps_initial(
        monkeypatch, small_digit_model, small_digit_dataset, "feedback_as_prompt", "prompt_correct"
    )


@pytest.mark.parametrize("strategy", FEEDBACK_GATED)
def test_protocol_negative_feedback_always_regenerates(small_digit_model, small_digit_dataset, strategy):
    run = run_seeded(small_digit_model, small_digit_dataset, strategy, FixedFeedback(False), SAMPLER, MPCFG)
    assert run.errors == ()
    assert len(run.pairs) == len(small_digit_dataset.tasks)
    for initial, final in run.pairs:
        assert initial.stage == INITIAL
        assert final.stage == CORRECTED


def test_protocol_requires_provider_when_feedback_gated(small_digit_model, small_digit_dataset):
    strategy = "ftr_indicator"
    with pytest.raises(ConfigError, match="requires a feedback provider"):
        run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER)


def test_protocol_rejects_bad_worker_count(tmp_path, small_digit_model, small_digit_dataset):
    # Before the resume log is read, truncated or opened.
    log = tmp_path / "attempts.jsonl"
    log.write_bytes(b'{"unterminated')
    with pytest.raises(ConfigError, match="workers"):
        run_seeded(
            small_digit_model, small_digit_dataset,
            "none", None, SAMPLER, workers=0, resume_path=log,
        )
    assert log.read_bytes() == b'{"unterminated'


def test_fan_out_is_map_when_serial_and_cancels_unstarted_calls_after_an_error():
    with fan_out(1) as each:
        assert each is map
    for workers in (0, -1):
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            with fan_out(workers):
                pass
    started = []

    def call(i):
        started.append(i)
        if i == 0:
            raise RuntimeError("first")
        time.sleep(0.01)
        return i

    with pytest.raises(RuntimeError, match="first"):
        with fan_out(2) as each:
            list(each(call, range(100)))
    # Without the cancel, every call would run before the error surfaced.
    assert len(started) < 100


def unverifiable_task(prompt: str) -> Task:
    """A code task whose verifier cannot be spawned: feedback on it raises
    VerificationError, a failure a rerun may not meet again."""
    return Task(id="zz-bad", prompt=prompt, domain="code", verify_cmd=("/nonexistent/verifier",))


def test_protocol_records_task_errors_and_continues(small_digit_model, small_digit_dataset):
    good = small_digit_dataset.tasks[:2]
    dataset = Dataset(name="mixed", tasks=(good[0], unverifiable_task(good[0].prompt), good[1]))
    strategy = "ftr_indicator"
    run = run_seeded(small_digit_model, dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG)
    assert [p[0].task_id for p in run.pairs] == [good[0].id, good[1].id]
    assert len(run.errors) == 1
    task_id, message = run.errors[0]
    assert task_id == "zz-bad"
    assert "VerificationError" in message


def test_protocol_worker_count_does_not_change_results(small_digit_model, small_digit_dataset):
    strategy = "ftr_indicator"
    serial = run_seeded(
        small_digit_model, small_digit_dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG, workers=1
    )
    parallel = run_seeded(
        small_digit_model, small_digit_dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG, workers=4
    )
    assert serial.pairs == parallel.pairs
    assert serial.errors == parallel.errors


def test_protocol_workers_share_one_ngram_model_safely(monkeypatch, digit_dataset):
    # Every task regenerates with multipath on one shared bigram model, so
    # worker threads meet on rows whose children are not computed yet. A
    # slow ranking kernel and a 1 us switch interval make them interleave
    # inside that computation.
    corpus = "\n".join(f"{task.prompt} [{task.answer}]" for task in digit_dataset.tasks)
    strategy = "ftr_indicator"

    def run(workers):
        model = train_ngram(corpus, order=1, add_k=0.5)
        return run_seeded(model, digit_dataset, strategy, FixedFeedback(False), SAMPLER, MPCFG, workers=workers)

    serial = run(1)
    topk = kernels.topk_indices

    def slow_topk(values, k):
        time.sleep(0.001)
        return topk(values, k)

    monkeypatch.setattr(kernels, "topk_indices", slow_topk)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(4)
    finally:
        sys.setswitchinterval(interval)
    assert not serial.errors
    assert parallel.to_json_lines() == serial.to_json_lines()


def test_protocol_resume_reuses_completed_tasks(tmp_path, small_digit_dataset):
    log = tmp_path / "attempts.jsonl"
    model = make_digit_model(10)
    first = run_seeded(
        model, small_digit_dataset, "none", None, SAMPLER,
        resume_path=log,
    )
    assert log.exists()

    counting = CountingModel(make_digit_model(10))
    second = run_seeded(
        counting, small_digit_dataset, "none", None, SAMPLER,
        resume_path=log,
    )
    assert counting.calls == 0
    assert second.pairs == first.pairs


def test_protocol_resume_ignores_other_strategies(tmp_path, small_digit_dataset):
    log = tmp_path / "attempts.jsonl"
    model = make_digit_model(10)
    run_seeded(
        model, small_digit_dataset, "none", None, SAMPLER,
        resume_path=log,
    )
    counting = CountingModel(make_digit_model(10))
    strategy = "ftr_indicator"
    run_seeded(
        counting, small_digit_dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG,
        resume_path=log,
    )
    assert counting.calls > 0


def test_protocol_resume_completes_after_partial_failure(tmp_path, small_digit_model):
    dataset = make_digit_dataset(10)
    broken = Dataset(name=dataset.name, tasks=dataset.tasks + (unverifiable_task(dataset.tasks[0].prompt),))
    strategy = "ftr_indicator"
    log = tmp_path / "attempts.jsonl"
    first = run_seeded(small_digit_model, broken, strategy, GroundTruthProvider(), SAMPLER, MPCFG, resume_path=log)
    assert first.errors and len(first.pairs) == 10

    second = run_seeded(small_digit_model, dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG, resume_path=log)
    assert second.errors == ()
    assert second.pairs == first.pairs


class Killed(BaseException):
    """Stands in for a signal that ends the process in the middle of a task."""


class KilledOnTask(FeedbackProvider):
    """Ground-truth feedback that dies when it reaches one task."""

    def __init__(self, task_id: str):
        self._task_id = task_id
        self._inner = GroundTruthProvider()

    def feedback(self, task, attempt):
        if task.id == self._task_id:
            raise Killed()
        return self._inner.feedback(task, attempt)


@pytest.mark.parametrize("workers", [1, 2])
def test_protocol_killed_run_keeps_finished_pairs_and_resumes_to_fresh_bytes(
    tmp_path, small_digit_model, small_digit_dataset, workers
):
    strategy = "ftr_indicator"
    fresh = run_seeded(small_digit_model, small_digit_dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG)
    fresh_lines = fresh.to_json_lines().splitlines(keepends=True)
    log = tmp_path / "attempts.jsonl"
    with pytest.raises(Killed):
        run_seeded(
            small_digit_model, small_digit_dataset, strategy,
            KilledOnTask(small_digit_dataset.tasks[3].id), SAMPLER, MPCFG, workers=workers, resume_path=log,
        )
    assert log.read_text(encoding="utf-8") == "".join(fresh_lines[:3])

    resumed = run_seeded(
        small_digit_model, small_digit_dataset, strategy, GroundTruthProvider(), SAMPLER, MPCFG,
        workers=workers, resume_path=log,
    )
    assert resumed.to_json_lines().encode("utf-8") == fresh.to_json_lines().encode("utf-8")


def test_protocol_resume_drops_a_torn_last_line(tmp_path, small_digit_model, small_digit_dataset):
    strategy = "none"
    fresh = run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER)
    lines = fresh.to_json_lines().splitlines(keepends=True)
    log = tmp_path / "attempts.jsonl"
    log.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2], encoding="utf-8")

    resumed = run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER, resume_path=log)
    assert resumed.to_json_lines() == fresh.to_json_lines()
    finished = log.read_text(encoding="utf-8")
    assert finished.endswith("\n")
    records = [json.loads(line) for line in finished.splitlines()]
    assert sorted(r["task_id"] for r in records) == sorted(t.id for t in small_digit_dataset.tasks)


def test_protocol_resume_rejects_a_malformed_complete_line(tmp_path, small_digit_model, small_digit_dataset):
    strategy = "none"
    fresh = run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER)
    log = tmp_path / "attempts.jsonl"
    log.write_text("{torn\n" + fresh.to_json_lines(), encoding="utf-8")
    with pytest.raises(LoadError, match="line 1:"):
        run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER, resume_path=log)


def without_initial_stage(record):
    del record["initial"]["stage"]
    return record


def with_text_token_count(record):
    record["final"]["tokens_generated"] = "2"
    return record


def with_bool_step_count(record):
    record["final"]["steps"] = True
    return record


def with_other_task_id(record):
    record["final"]["task_id"] = "t999"
    return record


def with_zero_steps(record):
    record["final"]["steps"] = 0
    return record


def with_more_steps_than_tokens(record):
    record["final"]["steps"] = record["final"]["tokens_generated"] + 1
    return record


def with_corrected_initial(record):
    record["initial"]["stage"] = "corrected"
    return record


def with_other_final_strategy(record):
    record["final"]["strategy"] = "ftr_indicator"
    return record


def with_uncorrected_final_of_other_text(record):
    assert record["final"]["stage"] == "initial"
    record["final"]["text"] += " [7]"
    return record


def with_answer_its_text_does_not_give(record):
    # a stage-1 line of the none strategy: both attempts are the same one
    for attempt in (record["initial"], record["final"]):
        attempt["answer"] = 7 if attempt["answer"] != 7 else 8
    return record


def with_answer_of_another_json_type(record):
    for attempt in (record["initial"], record["final"]):
        assert isinstance(attempt["answer"], int)
        attempt["answer"] = float(attempt["answer"])
    return record


def with_a_verdict(record):
    record["final"]["verdict"] = True
    return record


def with_an_infinite_answer(record):
    # Strict JSON has no Infinity, and no finite-float text gives one.
    for attempt in (record["initial"], record["final"]):
        attempt["text"] = "[" + "9" * 400 + ".5]"
        attempt["answer"] = float("inf")
    return record


@pytest.mark.parametrize("malform", [
    lambda record: {"task_id": record["task_id"]},
    lambda record: [1, 2],
    without_initial_stage,
    with_text_token_count,
    with_bool_step_count,
    with_other_task_id,
    with_zero_steps,
    with_more_steps_than_tokens,
    with_corrected_initial,
    with_other_final_strategy,
    with_uncorrected_final_of_other_text,
    with_answer_its_text_does_not_give,
    with_answer_of_another_json_type,
    with_an_infinite_answer,
    with_a_verdict,
], ids=[
    "no-attempts", "not-an-object", "attempt-without-stage", "token-count-as-text",
    "step-count-as-bool", "task-ids-differ", "zero-steps", "more-steps-than-tokens",
    "initial-not-initial", "strategies-differ", "uncorrected-final-differs",
    "answer-not-from-text", "answer-of-another-type", "infinite-answer", "verdict-set",
])
def test_protocol_resume_names_the_file_and_line_of_a_malformed_record(
    tmp_path, small_digit_model, small_digit_dataset, malform
):
    strategy = "none"
    lines = run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER).to_json_lines().splitlines()
    lines[2] = json.dumps(malform(json.loads(lines[2])))
    log = tmp_path / "attempts.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(LoadError, match=re.escape(f"attempts log {log}, line 3: ")):
        run_seeded(small_digit_model, small_digit_dataset, strategy, None, SAMPLER, resume_path=log)


def test_protocol_json_lines_are_canonical(small_digit_model, small_digit_dataset):
    run = run_seeded(
        small_digit_model, small_digit_dataset, "none", None, SAMPLER
    )
    text = run.to_json_lines()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(small_digit_dataset.tasks)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"task_id", "initial", "final"}
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


# Text that JSON must escape or that is not ASCII: quotes, backslashes,
# newlines and other control characters, accents, CJK, astral-plane
# characters (written as surrogate pairs) and lone surrogates.
escaped_text = st.text(
    alphabet=st.sampled_from('"\\\n\r\t\x00\x1f\x7f/é中😀 ab[]\ud800\udc80\udfff') | st.characters(),
    max_size=30,
)
# A bracketed answer gives an int or a float: any int, any finite float, a
# 4,000-digit int and a float near the top of its range. None, a malformed
# one and a decimal beyond float range give None.
answer_text = (
    st.sampled_from(["", "[3]", "[-12]", "[1,234]", "[2.5]", "[.75]", "[-0.0]", "[x]",
                     "[" + "9" * 4000 + "]", "[179" + "0" * 306 + ".5]", "[" + "9" * 400 + ".5]"])
    | st.integers().map("[{}]".format)
    | st.floats(allow_nan=False, allow_infinity=False).map("[{:f}]".format)
)


@st.composite
def attempts(draw, task_id):
    attempt = Attempt(
        task_id=task_id,
        stage=INITIAL,
        strategy=draw(escaped_text),
        decoder_input=draw(escaped_text),
        text=draw(escaped_text) + draw(answer_text),
        tokens_generated=draw(st.integers(min_value=5, max_value=10**6)),
        steps=draw(st.integers(min_value=1, max_value=5)),
    )
    # Construction allows two stages only; the writer must escape any text
    # in that field all the same.
    object.__setattr__(attempt, "stage", draw(st.sampled_from([INITIAL, CORRECTED]) | escaped_text))
    return attempt


def record_of(attempt):
    """The attempts-log record of ``attempt``, built field by field."""
    return {
        "task_id": attempt.task_id,
        "stage": attempt.stage,
        "strategy": attempt.strategy,
        "decoder_input": attempt.decoder_input,
        "text": attempt.text,
        "answer": attempt.answer,
        "tokens_generated": attempt.tokens_generated,
        "steps": attempt.steps,
        "verdict": None,
    }


@given(data=st.data(), task_id=escaped_text, same=st.booleans())
def test_a_pair_line_is_the_canonical_json_of_its_record(data, task_id, same):
    initial = data.draw(attempts(task_id))
    final = initial if same else data.draw(attempts(task_id))
    record = {"task_id": initial.task_id, "initial": record_of(initial), "final": record_of(final)}
    want = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    assert correction._pair_line(initial, final) == want
    assert ProtocolRun(pairs=((initial, final),)).to_json_lines() == want


def test_a_pair_line_writes_its_keys_in_sorted_order():
    initial = make_attempt()
    final = make_attempt(stage=CORRECTED, text="[4] $")
    record = json.loads(correction._pair_line(initial, final))
    assert list(record) == sorted(correction._PAIR_FIELDS)
    for attempt in (record["initial"], record["final"]):
        assert list(attempt) == sorted(correction._ATTEMPT_FIELDS)


def test_an_answer_beyond_float_range_is_logged_as_strict_json():
    attempt = make_attempt(text="[" + "9" * 400 + ".5]")

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    [line] = ProtocolRun(pairs=((attempt, attempt),)).to_json_lines().splitlines()
    record = json.loads(line, parse_constant=reject)
    assert record["initial"]["answer"] is None


def test_protocol_run_round_trips_attempts(small_digit_model, small_digit_dataset):
    run = run_seeded(
        small_digit_model, small_digit_dataset,
        "ftr_indicator",
        GroundTruthProvider(), SAMPLER, MPCFG,
    )
    for line in run.to_json_lines().splitlines():
        record = json.loads(line)
        initial = Attempt.from_json_dict(record["initial"])
        final = Attempt.from_json_dict(record["final"])
        assert initial.task_id == final.task_id == record["task_id"]
        assert initial.stage == INITIAL
        assert final.stage in (INITIAL, CORRECTED)


def test_empty_protocol_run_serializes_to_empty_string():
    assert ProtocolRun(pairs=()).to_json_lines() == ""
