"""Task loading, bracket-answer extraction, verification."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import multipath
from multipath.correction import CORRECTED, INITIAL, Attempt, GroundTruthProvider
from multipath.errors import LoadError, VerificationError
from multipath.evaluation import ChangeMatrix, score_run
from multipath.tasks import (
    Dataset,
    Task,
    extract_bracket_answer,
    load_tasks,
    numbers_match,
    verify,
)
from multipath.templates import MATH_TEMPLATE, load_prompt


def math_task(task_id="m1", answer=7):
    return Task(id=task_id, prompt=f"question {task_id}", domain="math", answer=answer)


def code_task(cmd, task_id="c1"):
    return Task(id=task_id, prompt=f"write {task_id}", domain="code", verify_cmd=tuple(cmd))


def attempt_of(task, text, stage=INITIAL):
    return Attempt(
        task_id=task.id, stage=stage, strategy="ftr_indicator", decoder_input="p", text=text,
        tokens_generated=1, steps=1,
    )


# ---------------------------------------------------------------------------
# Task / Dataset validation


def test_task_requires_exactly_one_verification_source():
    # With neither, the domain's own field is named.
    with pytest.raises(ValueError, match="math tasks verify against a numeric answer"):
        Task(id="x", prompt="p", domain="math")
    with pytest.raises(ValueError, match="code tasks verify via an external command"):
        Task(id="x", prompt="p", domain="code")
    with pytest.raises(ValueError, match="exactly one"):
        Task(id="x", prompt="p", domain="math", answer=1, verify_cmd=("true",))


def test_task_domain_consistency():
    with pytest.raises(ValueError, match="domain"):
        Task(id="x", prompt="p", domain="poetry", answer=1)
    with pytest.raises(ValueError, match="numeric answer"):
        Task(id="x", prompt="p", domain="math", verify_cmd=("true",))
    with pytest.raises(ValueError, match="external command"):
        Task(id="x", prompt="p", domain="code", answer=1)


def test_task_rejects_empty_verify_cmd():
    with pytest.raises(ValueError, match="'verify_cmd' must be a non-empty list of strings"):
        Task(id="x", prompt="p", domain="code", verify_cmd=())


@pytest.mark.parametrize("answer", [math.nan, math.inf, -math.inf])
def test_task_rejects_a_non_finite_answer(answer):
    with pytest.raises(ValueError, match="'answer' must be finite"):
        Task(id="x", prompt="p", domain="math", answer=answer)


def test_dataset_rejects_empty_and_duplicates():
    with pytest.raises(ValueError, match="empty"):
        Dataset(name="d", tasks=())
    with pytest.raises(ValueError, match="duplicate task id"):
        Dataset(name="d", tasks=(math_task("a"), math_task("a")))


def test_dataset_iterates_in_order():
    ds = Dataset(name="d", tasks=(math_task("a"), math_task("b")))
    assert [t.id for t in ds.tasks] == ["a", "b"]


# ---------------------------------------------------------------------------
# load_tasks


def write_jsonl(tmp_path, lines, name="tasks.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_tasks_math_gets_template_prepended(tmp_path):
    path = write_jsonl(tmp_path, [json.dumps({"id": "t1", "prompt": "2+2?", "domain": "math", "answer": 4})])
    ds = load_tasks(path)
    template = load_prompt(MATH_TEMPLATE)
    assert "square brackets" in template
    task = ds.tasks[0]
    assert task.prompt == template + " " + "2+2?"
    assert task.answer == 4
    assert ds.name == "tasks"


def test_load_tasks_code_prompt_is_verbatim(tmp_path):
    path = write_jsonl(
        tmp_path,
        [json.dumps({"id": "c1", "prompt": "emit pass", "domain": "code", "verify_cmd": ["true"]})],
    )
    task = load_tasks(path).tasks[0]
    assert task.prompt == "emit pass"
    assert task.verify_cmd == ("true",)
    assert task.answer is None


def test_load_tasks_skips_blank_lines(tmp_path):
    path = write_jsonl(
        tmp_path,
        [
            json.dumps({"id": "t1", "prompt": "q", "domain": "math", "answer": 1}),
            "",
            json.dumps({"id": "t2", "prompt": "q", "domain": "math", "answer": 2}),
        ],
    )
    assert [t.id for t in load_tasks(path).tasks] == ["t1", "t2"]


def test_load_tasks_errors_name_the_line(tmp_path):
    good = json.dumps({"id": "t1", "prompt": "q", "domain": "math", "answer": 1})
    path = write_jsonl(tmp_path, [good, '{"id": "t2"}'])
    with pytest.raises(LoadError, match=r"line 2: missing field 'prompt'"):
        load_tasks(path)
    path = write_jsonl(tmp_path, [good, "{broken"])
    with pytest.raises(LoadError, match="line 2: invalid JSON"):
        load_tasks(path)


@pytest.mark.parametrize("line, match", [
    ('["t2", "q", "math", 1]', "expected an object"),
    ('{"id": 2, "prompt": "q", "domain": "math", "answer": 1}', "'id' and 'prompt' must be strings"),
    # Only the domain's own field is read, so the other one does not stand in for it.
    ('{"id": "t2", "prompt": "q", "domain": "math", "verify_cmd": ["true"]}',
     "math tasks verify against a numeric answer"),
    ('{"id": "t2", "prompt": "q", "domain": "code", "answer": 1}', "code tasks verify via an external command"),
    # Python's json module reads these non-standard literals as floats.
    ('{"id": "t2", "prompt": "q", "domain": "math", "answer": NaN}', "'answer' must be finite, got nan"),
    ('{"id": "t2", "prompt": "q", "domain": "math", "answer": -Infinity}', "'answer' must be finite, got -inf"),
], ids=["not-an-object", "non-string-id", "math-without-answer", "code-without-verify_cmd", "nan-answer",
        "infinite-answer"])
def test_load_tasks_rejects_malformed_line_naming_it(tmp_path, line, match):
    good = json.dumps({"id": "t1", "prompt": "q", "domain": "math", "answer": 1})
    path = write_jsonl(tmp_path, [good, line])
    with pytest.raises(LoadError, match=match) as exc:
        load_tasks(path)
    assert f"dataset {path} line 2: " in str(exc.value)


def test_load_tasks_rejects_duplicate_ids(tmp_path):
    line = json.dumps({"id": "t1", "prompt": "q", "domain": "math", "answer": 1})
    path = write_jsonl(tmp_path, [line, line])
    with pytest.raises(LoadError, match="duplicate task id 't1'"):
        load_tasks(path)


def test_load_tasks_rejects_non_numeric_answer(tmp_path):
    bad = json.dumps({"id": "t1", "prompt": "q", "domain": "math", "answer": "four"})
    with pytest.raises(LoadError, match="'answer' must be a number"):
        load_tasks(write_jsonl(tmp_path, [bad]))
    bad = json.dumps({"id": "t1", "prompt": "q", "domain": "math", "answer": True})
    with pytest.raises(LoadError, match="'answer' must be a number"):
        load_tasks(write_jsonl(tmp_path, [bad]))


def test_load_tasks_rejects_bad_verify_cmd(tmp_path):
    bad = json.dumps({"id": "c1", "prompt": "q", "domain": "code", "verify_cmd": "true"})
    with pytest.raises(LoadError, match="non-empty list of strings"):
        load_tasks(write_jsonl(tmp_path, [bad]))
    bad = json.dumps({"id": "c1", "prompt": "q", "domain": "code", "verify_cmd": []})
    with pytest.raises(LoadError, match="non-empty list of strings"):
        load_tasks(write_jsonl(tmp_path, [bad]))


def test_load_tasks_rejects_unknown_domain(tmp_path):
    bad = json.dumps({"id": "t1", "prompt": "q", "domain": "trivia", "answer": 1})
    with pytest.raises(LoadError, match="domain must be one of"):
        load_tasks(write_jsonl(tmp_path, [bad]))


def test_load_tasks_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(LoadError, match="no tasks"):
        load_tasks(path)


def test_load_tasks_missing_file(tmp_path):
    with pytest.raises(LoadError, match="cannot read dataset"):
        load_tasks(tmp_path / "absent.jsonl")


# ---------------------------------------------------------------------------
# extract_bracket_answer


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("the result is [42]", 42),
        ("[3.5] no wait [7]", 7),
        ("[1,234]", 1234),
        ("[12,345]", 12345),
        ("[1,234,567]", 1234567),
        ("[-1,000.5]", -1000.5),
        ("[+999,999.]", 999999.0),
        ("[1,2,3]", None),
        ("[1,23]", None),
        ("[1234,567]", None),
        ("[,5]", None),
        ("[5,]", None),
        ("[1,,234]", None),
        ("[1.234,567]", None),
        ("[,]", None),
        ("[7] then [1,2,3]", 7),
        ("[-5]", -5),
        ("[+2.5]", 2.5),
        ("[ 12 ]", 12),
        ("[.5]", 0.5),
        ("[3.]", 3.0),
        ("[[5]]", 5),
        ("[abc] then [9]", 9),
        ("[9] then [abc]", 9),
        ("no brackets", None),
        ("[]", None),
        ("[twelve]", None),
        ("[1 2]", None),
        ("[2+2]", None),
        ("", None),
    ],
)
def test_extract_bracket_answer(text, expected):
    got = extract_bracket_answer(text)
    assert got == expected
    if expected is not None:
        assert isinstance(got, type(expected))


def test_a_bracketed_decimal_beyond_float_range_is_no_answer():
    huge = "9" * 400 + ".5"
    assert extract_bracket_answer(f"[{huge}]") is None
    assert extract_bracket_answer(f"[3] then [-{huge}]") is None


def test_a_bracketed_answer_takes_ascii_digits_only():
    # Arabic-Indic and fullwidth digits are Unicode decimals that int() reads.
    assert extract_bracket_answer("[١٢٣]") is None
    assert extract_bracket_answer("[１２]") is None
    assert extract_bracket_answer("[1,234]") == 1234
    assert extract_bracket_answer("[-3.5]") == -3.5


def test_a_bracketed_integer_too_long_to_convert_is_no_answer():
    # Model output, not an input error: the last numeric pair still shadows
    # the earlier ones, and it gives no answer.
    huge = "9" * 5000
    assert extract_bracket_answer(f"[{huge}]") is None
    assert extract_bracket_answer(f"[3] then [{huge}]") is None
    assert not verify(math_task(answer=3), f"[3] then [{huge}]")


# ---------------------------------------------------------------------------
# numbers_match / verify


def test_numbers_match_integers_exactly():
    assert numbers_match(7, 7.0)
    assert not numbers_match(7, 8)
    assert not numbers_match(10**15 + 1, 10**15)


def test_numbers_match_floats_with_relative_tolerance():
    assert numbers_match(3.14159265, 3.14159265 * (1 + 1e-9))
    assert not numbers_match(3.14159265, 3.1415)
    assert not numbers_match(0.5, 0.5000006)


def test_numbers_beyond_float_range_give_a_verdict():
    big = int("9" * 400)
    assert not numbers_match(big, 3)
    assert not numbers_match(big, 3.5)
    assert not numbers_match(3, big)
    assert not numbers_match(big, big + 1)
    assert numbers_match(big, big)
    assert not verify(math_task(answer=3), f"[{big}]")
    assert verify(math_task(answer=big), f"[{big}]")


def test_verify_math():
    task = math_task(answer=7)
    assert verify(task, "final answer: [7]")
    assert not verify(task, "final answer: [8]")
    assert not verify(task, "no answer given")
    assert not verify(math_task(answer=123), "the list is [1,2,3]")


def test_verify_code_uses_exit_status():
    passing = code_task(["sh", "-c", "grep -q pass"])
    assert verify(passing, "this should pass")
    assert not verify(passing, "this should not")


def test_verify_code_receives_response_on_stdin():
    echoer = code_task(["sh", "-c", 'test "$(cat)" = "exact text"'])
    assert verify(echoer, "exact text")
    assert not verify(echoer, "other text")


def test_verify_sends_the_text_as_utf8_whatever_the_locale():
    # Under the C locale a text-mode pipe encodes as ASCII, and "café"
    # raised UnicodeEncodeError, which ended the run as a bad configuration.
    check = r"import sys; sys.exit(sys.stdin.buffer.read() != b'caf\xc3\xa9')"
    script = (
        "from multipath.tasks import Task, verify\n"
        f"task = Task(id='c1', prompt='p', domain='code', verify_cmd=({sys.executable!r}, '-c', {check!r}))\n"
        "print(verify(task, 'caf\\u00e9'), verify(task, 'cafe'))\n"
    )
    src = str(Path(multipath.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True False\n", "")


def test_verify_refuses_a_text_with_no_utf8_form_naming_the_task(tmp_path):
    # A lone surrogate has no UTF-8 form: a VerificationError, so the run
    # records a task failure, and the verifier never runs.
    spawns = tmp_path / "spawns.log"
    task = code_task(["sh", "-c", 'echo ran >> "$0"', str(spawns)], task_id="c7")
    with pytest.raises(VerificationError, match="task 'c7': the text has no UTF-8 form"):
        verify(task, "a\ud800b")
    assert not spawns.exists()


def test_verify_code_timeout_is_infrastructure_failure():
    slow = code_task(["sleep", "5"])
    with pytest.raises(VerificationError, match="timed out"):
        verify(slow, "x", timeout=0.2)


def test_verify_code_missing_binary_is_infrastructure_failure():
    broken = code_task(["definitely-not-a-real-binary-9f2"])
    with pytest.raises(VerificationError, match="cannot run verifier"):
        verify(broken, "x")


def test_verify_code_discards_a_long_output_unread():
    loud = code_task(["sh", "-c", "head -c 30000000 /dev/zero"])
    tracemalloc.start()
    try:
        assert verify(loud, "x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_verify_code_output_that_is_no_text_is_no_error():
    assert verify(code_task(["sh", "-c", r"printf '\377'"]), "x")
    assert not verify(code_task(["sh", "-c", r"printf '\377'; exit 1"]), "x")


@pytest.mark.parametrize("timeout", [1e300, -1.0, 0.0, math.nan], ids=["1e300", "-1.0", "0.0", "nan"])
@pytest.mark.parametrize("entry", ["verify", "ground_truth", "scripted", "score_run", "score_run_math"])
def test_a_timeout_the_os_cannot_take_is_refused_before_the_verifier_runs(tmp_path, entry, timeout):
    spawns = tmp_path / "spawns.log"
    task = code_task(["sh", "-c", 'echo ran >> "$0"', str(spawns)])
    attempt = Attempt(
        task_id=task.id, stage=INITIAL, strategy="none", decoder_input="p", text="x", tokens_generated=1, steps=1,
    )
    calls = {
        "verify": lambda: verify(task, "x", timeout=timeout),
        "ground_truth": lambda: GroundTruthProvider(timeout=timeout),
        "scripted": lambda: GroundTruthProvider(timeout=timeout, fn_rate=0.5, fp_rate=0.5, seed=0),
        "score_run": lambda: score_run([(attempt, attempt)], Dataset(name="d", tasks=(task,)), "none", timeout=timeout),
        # A math verdict runs no verifier, so score_run checks on entry.
        "score_run_math": lambda: score_run(
            [(attempt_of(math_task(), "[7]"),) * 2], Dataset(name="d", tasks=(math_task(),)), "none", timeout=timeout,
        ),
    }
    with pytest.raises(ValueError, match="'timeout' must be > 0 seconds and at most"):
        calls[entry]()
    assert not spawns.exists()
    # the command itself runs, and appends its line, under a timeout the OS takes
    assert verify(task, "x", timeout=5.0)
    assert spawns.read_text() == "ran\n"



# ---------------------------------------------------------------------------
# verdicts on attempts: the providers and score_run apply verify's rule

# References that some bracket bodies below give, and others miss narrowly;
# 0 tells "no answer" apart from a zero.
REFERENCES = (0, 7, -7, 1234, 0.5, 1234567.5, 10**400)
NO_BRACKETS = st.text(alphabet=st.characters(blacklist_characters="[]"), max_size=6)
BODIES = st.one_of(
    # the references, spelt in several ways
    st.sampled_from(["0", "-0", "0.0", "7", "+7", "-7", " 7 ", "7.", "-7.0", ".5", "0.50", "1,234", "1234",
                     "1,234,567.5", "1" + "0" * 400]),
    # numbers within and just beyond the 1e-6 relative tolerance of one
    st.sampled_from(["7.0000001", "6.9999999", "7.00001", "-7.000001", "0.5000001", "0.500001", "1234.0001",
                     "1234.01", "1,234,567.5000001", "1" + "0" * 399 + "1"]),
    # no answers
    st.sampled_from(["1,2,3", "12,34", "1234,567", "١٢٣٤", "１２３４", "9" * 400 + ".5", "seven", "", "2+5", "1e3",
                     "--7", "7-"]),
    st.integers(min_value=-(10**401), max_value=10**401).map(str),
    st.integers(min_value=0, max_value=10**7).map("{:,}".format),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    NO_BRACKETS,
)
# Texts with 0-3 bracket pairs around and between text without brackets.
TEXTS = st.builds(
    lambda pairs, tail: "".join(f"{head}[{body}]" for head, body in pairs) + tail,
    st.lists(st.tuples(NO_BRACKETS, BODIES), max_size=3),
    NO_BRACKETS,
)


@given(initial=TEXTS, final=TEXTS)
def test_math_verdicts_on_attempts_are_verify_on_their_text(initial, final):
    tasks = tuple(math_task(f"m{i}", answer) for i, answer in enumerate(REFERENCES))
    ground_truth = GroundTruthProvider()
    expected = []
    for task in tasks:
        truth = verify(task, initial)
        assert ground_truth.feedback(task, attempt_of(task, initial)) == truth
        expected.append((truth, verify(task, final)))
    pairs = [(attempt_of(task, initial), attempt_of(task, final, CORRECTED)) for task in tasks]
    report = score_run(pairs, Dataset(name="d", tasks=tasks), "ftr_indicator")
    assert report.matrix == ChangeMatrix.from_verdicts(expected)


def test_a_code_verifier_runs_once_per_verdict(tmp_path):
    spawns = tmp_path / "spawns.log"
    task = code_task(["sh", "-c", 'echo ran >> "$0"; grep -q pass', str(spawns)])
    spawned = lambda: len(spawns.read_text().splitlines())  # noqa: E731
    passing, failing = attempt_of(task, "pass"), attempt_of(task, "fail", CORRECTED)
    assert GroundTruthProvider().feedback(task, passing)
    assert spawned() == 1
    assert not GroundTruthProvider().feedback(task, failing)
    assert spawned() == 2
    dataset = Dataset(name="d", tasks=(task,))
    # An identity stage 2 is verified once, a regenerated one twice.
    assert score_run([(passing, passing)], dataset, "none").matrix == ChangeMatrix(cc=1, ci=0, ic=0, ii=0)
    assert spawned() == 3
    report = score_run([(passing, failing)], dataset, "ftr_indicator", workers=2)
    assert report.matrix == ChangeMatrix(cc=0, ci=1, ic=0, ii=0)
    assert spawned() == 5
