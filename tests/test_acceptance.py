"""End-to-end acceptance suite.

Each test pins one externally visible guarantee of the package: decoder
exactness against brute force, reductions to classical decoders, pruning
minimality at scale, the trap-recovery phenomenon, protocol safety on
verified answers, byte purity of regeneration inputs, cost-model fidelity,
scripted-judge error rates, sampler support containment, multipath step
pools, bit-for-bit reproducibility of the benchmark pipeline, and the README
quick start.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import row_probs

import multipath
from multipath.cli import load_model, main
from multipath.correction import (
    CORRECTED,
    INITIAL,
    Attempt,
    GroundTruthProvider,
    ScriptedJudgeProvider,
    run_protocol,
)
from multipath.decoding import (
    BeamConfig,
    MultipathConfig,
    SamplerConfig,
    beam_search,
    greedy_decode,
    multipath_decode,
    nucleus_sample,
)
from multipath.evaluation import ChangeMatrix, breakeven_regen_fraction, cost_ratio, score_run
from multipath.models import StepDistribution, TableLM, Vocabulary, greedy_trap_lm
from multipath.oracle import check_exactness, check_pruning, check_reductions, check_samplers, check_steps
from multipath.tasks import Task, load_tasks, verify
from multipath.templates import CRITIC, FEEDBACK_CODE, FEEDBACK_MATH, IOE, load_prompt
from multipath.toydata import DIGITS, make_digit_dataset, make_digit_model, task_prompt

SEED = 42
SAMPLER = SamplerConfig(top_p=0.95, top_k=15, seed=SEED, max_len=8)
MPCFG = MultipathConfig(mass_fraction=0.9, max_width=7, max_len=8)


@pytest.fixture(scope="module")
def ftr_run(digit_model, digit_dataset):
    return run_protocol(digit_model, digit_dataset, "ftr_indicator", GroundTruthProvider(), SAMPLER, MPCFG)


# ---------------------------------------------------------------------------
# 1. the decoder finds the true minimum-perplexity sequence


def test_exact_decoding_on_random_models():
    start = time.perf_counter()
    failures = check_exactness(200, seed=0)
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. limiting configurations reduce to greedy and beam search


def test_decoder_reductions_to_greedy_and_beam():
    assert check_reductions(50, seed=0) == []


# ---------------------------------------------------------------------------
# 3. pruning retains the minimal mass-covering prefix at scale


def test_prune_minimality_on_ten_thousand_pools():
    assert check_pruning(10000, seed=0) == []


# ---------------------------------------------------------------------------
# 4. the canonical trap: greedy fails, width lets the decoder recover


def test_greedy_trap_recovery(trap_model):
    vocab = trap_model.vocabulary
    greedy = greedy_decode(trap_model, ())
    assert vocab.decode(greedy.chosen.tokens) == "b $"
    assert math.exp(greedy.chosen.cum_logprob) == pytest.approx(0.275)

    multi = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=2))
    assert vocab.decode(multi.chosen.tokens) == "a $"
    assert math.exp(multi.chosen.cum_logprob) == pytest.approx(0.405)
    assert multi.chosen.ppl() == math.exp(-(math.log(0.45) + math.log(0.9)) / 2)
    assert multi.chosen.ppl() < greedy.chosen.ppl()

    beam = beam_search(trap_model, (), BeamConfig(width=2, max_len=2))
    assert vocab.decode(beam.chosen.tokens) == "a $"


# ---------------------------------------------------------------------------
# 5. verified answers are never regenerated into wrong ones


def test_correction_never_corrupts_verified_answers(ftr_run, digit_dataset):
    report = score_run(ftr_run.pairs, digit_dataset, "ftr_indicator")
    matrix = report.matrix
    assert matrix.total == 100
    assert matrix.ci == 0
    assert matrix.ic > 0
    assert matrix.accuracy_after() > (matrix.cc + matrix.ci) / matrix.total
    # positive feedback means the initial attempt is the final one
    for initial, final in ftr_run.pairs:
        if final.stage != CORRECTED:
            assert final is initial


# ---------------------------------------------------------------------------
# 6. regeneration inputs are byte-identical to the original prompt; prompt
#    strategies embed the exact packaged template text


def test_regeneration_prompt_purity(ftr_run, digit_model, digit_dataset):
    templates = [load_prompt(n) for n in (CRITIC, IOE, FEEDBACK_MATH, FEEDBACK_CODE)]
    by_id = {t.id: t for t in digit_dataset.tasks}
    regenerated = 0
    for initial, final in ftr_run.pairs:
        task = by_id[initial.task_id]
        assert initial.decoder_input == task.prompt
        if final.stage == CORRECTED:
            regenerated += 1
            assert final.decoder_input == task.prompt
            for template in templates:
                assert template not in final.decoder_input
    assert regenerated > 0


def test_prompt_strategies_embed_exact_template_bytes(digit_model, digit_dataset):
    for kind, name in (("critic_prompt", CRITIC), ("ioe_prompt", IOE)):
        run = run_protocol(digit_model, digit_dataset, kind, None, SAMPLER)
        template = load_prompt(name)
        by_id = {t.id: t for t in digit_dataset.tasks}
        for initial, final in run.pairs:
            assert final.stage == CORRECTED
            task = by_id[initial.task_id]
            assert final.decoder_input == f"{task.prompt}\n{initial.text}\n{template}"


# ---------------------------------------------------------------------------
# 7. the closed-form cost estimate tracks measured token cost


def test_cost_model_tracks_measured_cost(ftr_run, digit_dataset):
    report = score_run(ftr_run.pairs, digit_dataset, "ftr_indicator")
    assert report.est_cost_ratio > 1.0
    rel_err = abs(report.measured_cost_ratio - report.est_cost_ratio) / report.est_cost_ratio
    assert rel_err <= 0.02
    # on this corpus every decode has the same shape, so the match is exact
    assert report.est_cost_ratio == pytest.approx(report.measured_cost_ratio, rel=1e-12)


def test_cost_breakeven_identities():
    # regenerating a p-fraction at width n costs (1 + p*n) single passes:
    # p*n = 1 lands exactly on the two-pass cost
    for n in (1.0, 1.85, 2.5, 7.0):
        p = breakeven_regen_fraction(n)
        assert cost_ratio("ftr_indicator", p, n) == pytest.approx(cost_ratio("critic_prompt", p, n))


def test_cost_threshold_at_observed_parallel_width():
    # at a mean regeneration width of 1.85, regeneration beats a second full
    # pass exactly while fewer than 1/1.85 (roughly 54%) of tasks regenerate
    n = 1.85
    two_pass = cost_ratio("critic_prompt", 0.0, n)
    assert cost_ratio("ftr_indicator", 0.54, n) < two_pass
    assert cost_ratio("ftr_indicator", 0.55, n) > two_pass
    assert 0.54 < breakeven_regen_fraction(n) < 0.55


# ---------------------------------------------------------------------------
# 8. the scripted judge hits its configured error rates


def test_scripted_judge_hits_configured_error_rates():
    fn_rate, fp_rate = 0.3493, 0.0840
    trials = 20000
    provider = ScriptedJudgeProvider(fn_rate=fn_rate, fp_rate=fp_rate, seed=SEED)

    def rate(prefix, text, count_negative):
        hits = 0
        for i in range(trials):
            task = Task(id=f"{prefix}{i}", prompt="q", domain="math", answer=3)
            attempt = Attempt(
                task_id=task.id, stage=INITIAL, strategy="none",
                decoder_input="q", text=text,
                tokens_generated=1, steps=1,
            )
            positive = provider.feedback(task, attempt)
            hits += (not positive) if count_negative else positive
        return hits / trials

    observed_fn = rate("fn", "[3]", count_negative=True)
    margin = 3 * math.sqrt(fn_rate * (1 - fn_rate) / trials)
    assert abs(observed_fn - fn_rate) <= margin

    observed_fp = rate("fp", "[4]", count_negative=False)
    margin = 3 * math.sqrt(fp_rate * (1 - fp_rate) / trials)
    assert abs(observed_fp - fp_rate) <= margin


# ---------------------------------------------------------------------------
# 9. sampled tokens always come from the declared top-k / top-p support


def test_nucleus_support_containment():
    rng = random.Random(9)
    vocabs = {}
    for _ in range(10000):
        size = rng.randint(3, 8)
        if size not in vocabs:
            vocabs[size] = Vocabulary(
                tokens=tuple(f"t{i}" for i in range(size - 1)) + ("$",), eos_id=size - 1
            )
        vocab = vocabs[size]
        weights = [rng.randint(1, 30) for _ in range(size)]
        total = sum(weights)
        probs = tuple(w / total for w in weights)
        model = TableLM(vocabulary=vocab, rows={(): StepDistribution(probs=probs)},
                        default=StepDistribution(probs=probs))
        top_p = round(rng.uniform(0.3, 1.0), 3)
        top_k = rng.randint(1, size)
        cfg = SamplerConfig(top_p=top_p, top_k=top_k, seed=rng.randint(0, 2**31), max_len=1)
        out = nucleus_sample(model, (), cfg)
        token = out.chosen.tokens[0]

        # independent reference: minimal top_p prefix intersected with top_k
        order = sorted(range(size), key=lambda i: (-probs[i], i))
        mass_count = size
        for rank in range(size):
            if math.fsum(probs[i] for i in order[: rank + 1]) >= top_p - 1e-12:
                mass_count = rank + 1
                break
        support = set(order[: min(mass_count, top_k)])
        assert token in support


def test_samplers_draw_what_a_dense_replay_draws():
    # Token for token, with the sampler's own seed: greedy, nucleus and
    # adaptive sampling against a full sort of each dense row.
    assert check_samplers(200, seed=0) == []


def test_multipath_steps_keep_what_the_untrimmed_pool_keeps():
    # Step for step at widths 1-3: the decode's kept paths against a linear
    # scan over every child of every active path, read from the dense rows.
    assert check_steps(200, seed=0) == []


# ---------------------------------------------------------------------------
# 10. the benchmark pipeline is reproducible byte for byte


def test_bench_outputs_reproducible(tmp_path, data_dir):
    snapshots = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main([
            "bench",
            "--model", str(data_dir / "toy_table_lm.json"),
            "--dataset", str(data_dir / "toy_math.jsonl"),
            "--strategy", "ftr_indicator",
            "--out", str(out),
            "--seed", str(SEED),
        ])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["attempts_ftr_indicator.jsonl", "report.csv", "report_ftr_indicator.json"]
        snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert snapshots[0] == snapshots[1]

    # the attempts log is replayable and internally consistent
    report = json.loads(snapshots[0]["report_ftr_indicator.json"])
    lines = snapshots[0]["attempts_ftr_indicator.jsonl"].decode("utf-8").splitlines()
    assert len(lines) == report["size"] == 100
    regenerated = sum(
        1 for line in lines if json.loads(line)["final"]["stage"] == "corrected"
    )
    assert regenerated == report["regenerated"]


# Runs the CLI with every task's stage 1 slowed down, so the test can kill it
# while the run is still writing its attempts log.
SLOW_CLI = """
import sys, time
import multipath.cli, multipath.correction
stage1 = multipath.correction.run_stage1
def slow_stage1(*args, **kwargs):
    time.sleep(0.03)
    return stage1(*args, **kwargs)
multipath.correction.run_stage1 = slow_stage1
sys.exit(multipath.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("kill_after", [1, 40])
def test_bench_killed_by_sigkill_resumes_to_fresh_bytes(tmp_path, data_dir, kill_after):
    bench = [
        "bench",
        "--model", str(data_dir / "toy_table_lm.json"),
        "--dataset", str(data_dir / "toy_math.jsonl"),
        "--strategy", "ftr_indicator",
        "--seed", str(SEED),
    ]
    fresh, killed = tmp_path / "fresh", tmp_path / "killed"
    assert main(bench + ["--out", str(fresh)]) == 0

    env = dict(os.environ, PYTHONPATH=str(Path(multipath.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-c", SLOW_CLI, *bench, "--out", str(killed), "--resume"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    log = killed / "attempts_ftr_indicator.jsonl"
    try:
        deadline = time.monotonic() + 60.0
        while not (log.exists() and log.read_bytes().count(b"\n") >= kill_after):
            assert proc.poll() is None, "the run ended before it could be killed"
            assert time.monotonic() < deadline, "the run wrote no attempts"
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert sorted(p.name for p in killed.iterdir()) == ["attempts_ftr_indicator.jsonl"]
    assert kill_after <= log.read_bytes().count(b"\n") < 100

    assert main(bench + ["--out", str(killed), "--resume"]) == 0
    names = ["attempts_ftr_indicator.jsonl", "report.csv", "report_ftr_indicator.json"]
    assert sorted(p.name for p in killed.iterdir()) == names
    for name in names:
        assert (killed / name).read_bytes() == (fresh / name).read_bytes(), name


def test_attempts_log_cut_at_any_byte_resumes_to_fresh_bytes(tmp_path):
    # A kill can land between any two bytes of the attempts log. Whatever
    # prefix survives, resuming must end in the bytes a fresh run writes.
    model, dataset = make_digit_model(3), make_digit_dataset(3)

    def run(log):
        result = run_protocol(model, dataset, "ftr_indicator", GroundTruthProvider(), SAMPLER, MPCFG, resume_path=log)
        report = score_run(result.pairs, dataset, "ftr_indicator").to_json()
        return log.read_bytes(), result.to_json_lines(), report

    fresh = run(tmp_path / "fresh.jsonl")
    full = fresh[0]
    assert full.decode("utf-8") == fresh[1] and full.count(b'"stage":"corrected"') > 0
    log = tmp_path / "attempts.jsonl"
    for cut in range(len(full) + 1):
        log.write_bytes(full[:cut])
        assert run(log) == fresh, cut


def test_checked_in_data_is_the_fixtures(data_dir):
    # The benchmark, the CLI tests and the README read data/, the library
    # tests the fixtures; each file must mean what its fixture means.
    assert load_tasks(data_dir / "toy_math.jsonl") == make_digit_dataset(100)

    trap, want = load_model(data_dir / "greedy_trap.json"), greedy_trap_lm()
    assert trap.vocabulary == want.vocabulary

    def rows_of(model):
        return {ctx: row_probs(row) for ctx, row in model._rows.items()}, row_probs(model._default)

    assert rows_of(trap) == rows_of(want)

    # The table file holds task 3's step-0 row for every prompt.
    table, digits = load_model(data_dir / "toy_table_lm.json"), make_digit_model(100)
    vocab = digits.vocabulary
    assert table.vocabulary == vocab
    prompt = vocab.encode(task_prompt(3))
    for prefix in [()] + [(d,) for d in range(DIGITS)]:
        row, digit_row = table.next_distribution(prompt, prefix), digits.next_distribution(prompt, prefix)
        assert row_probs(row) == row_probs(digit_row), prefix
    assert table.next_distribution(vocab.encode(task_prompt(4)), ()) is table.next_distribution(prompt, ())
    end_row = tuple(float(t == vocab.eos_id) for t in range(vocab.size))
    assert row_probs(table.next_distribution(prompt, (0, 0))) == end_row


# ---------------------------------------------------------------------------
# 11. the README quick start runs as written and prints what it claims


def test_readme_quick_start_runs_as_written(capsys):
    # Executed from the README itself, so the call form and the numbers it
    # shows cannot drift from the code.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    report = namespace["report"]
    assert report.matrix == ChangeMatrix(cc=35, ci=0, ic=18, ii=47)
    assert report.est_cost_ratio == report.measured_cost_ratio == 2.625
    assert capsys.readouterr().out.splitlines() == ["ChangeMatrix(cc=35, ci=0, ic=18, ii=47)", "2.625"]


# ---------------------------------------------------------------------------
# scoring sanity shared by several criteria: the ground-truth verifier and
# the digit fixture agree on what "correct" means


def test_digit_fixture_answers_verify(digit_dataset):
    from multipath.toydata import true_digit

    for i, task in enumerate(digit_dataset.tasks):
        assert verify(task, f"[{true_digit(i)}] $")
        assert not verify(task, f"[{(true_digit(i) + 5) % 10}] $")
