"""Benchmark tasks: loading, answer extraction, verification.

Math tasks carry one reference number and are verified by extracting the
last bracketed number from the response; code tasks carry an external
command that receives the response on stdin and signals pass/fail via its
exit code alone; its output is discarded. Infrastructure failures of the
command (timeout, cannot spawn) raise VerificationError instead of counting
as "fail".
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import LoadError, VerificationError
from .models import check_timeout, is_number, is_str_list
from .templates import MATH_TEMPLATE, load_prompt

DOMAINS = ("math", "code")
NUMERIC_TOL = 1e-6

# A bracketed numeric literal: optional sign, ASCII digits, optional decimal
# part. The integer part may group its digits in threes with commas after a
# 1-3 digit head ("12,345"); any other comma, any other digit, or anything
# else inside brackets, makes the content no answer.
_BRACKET = re.compile(r"\[([^\[\]]*)\]")
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]{1,3}(?:,[0-9]{3})+|[0-9]+)(?:\.[0-9]*)?|\.[0-9]+)")


@dataclass(frozen=True)
class Task:
    id: str
    prompt: str
    domain: str
    answer: int | float | None = None
    verify_cmd: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if self.domain == "math" and self.answer is None:
            raise ValueError(f"task {self.id!r}: math tasks verify against a numeric answer")
        if self.domain == "code" and self.verify_cmd is None:
            raise ValueError(f"task {self.id!r}: code tasks verify via an external command")
        if self.answer is not None and self.verify_cmd is not None:
            raise ValueError(f"task {self.id!r}: exactly one of answer/verify_cmd required")
        if isinstance(self.answer, float) and not math.isfinite(self.answer):
            raise ValueError(f"task {self.id!r}: 'answer' must be finite, got {self.answer!r}")
        if self.verify_cmd is not None and not self.verify_cmd:
            raise ValueError(f"task {self.id!r}: 'verify_cmd' must be a non-empty list of strings")


@dataclass(frozen=True)
class Dataset:
    name: str
    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("dataset is empty: no tasks")
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate task id {dup!r}")


def load_tasks(path: str | Path) -> Dataset:
    """Load a JSONL dataset.

    Line schema: {"id": str, "prompt": str, "domain": "math"|"code",
    "answer": number} for math, {"id", "prompt", "domain", "verify_cmd":
    [str]} for code; only the domain's own field is read. Math prompts get
    the bracket-answer instruction template prepended. This reader checks the
    JSON shape; the domain rules are Task's and Dataset's. Errors name the
    offending 1-based line.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read dataset {path}: {exc}") from exc

    template = load_prompt(MATH_TEMPLATE)
    tasks: list[Task] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"dataset {path} line {lineno}"
        try:
            item = json.loads(line)
        except ValueError as exc:  # also an integer beyond int()'s digit limit
            raise LoadError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(item, dict):
            raise LoadError(f"{where}: expected an object")
        for key in ("id", "prompt", "domain"):
            if key not in item:
                raise LoadError(f"{where}: missing field {key!r}")
        task_id, prompt, domain = item["id"], item["prompt"], item["domain"]
        if not isinstance(task_id, str) or not isinstance(prompt, str):
            raise LoadError(f"{where}: 'id' and 'prompt' must be strings")
        source = {}
        if domain == "math" and "answer" in item:
            if not is_number(item["answer"]):
                raise LoadError(f"{where}: 'answer' must be a number, got {item['answer']!r}")
            source["answer"] = item["answer"]
            prompt = template + " " + prompt
        elif domain == "code" and "verify_cmd" in item:
            if not is_str_list(item["verify_cmd"]):
                raise LoadError(f"{where}: 'verify_cmd' must be a non-empty list of strings")
            source["verify_cmd"] = tuple(item["verify_cmd"])
        try:
            tasks.append(Task(id=task_id, prompt=prompt, domain=domain, **source))
        except ValueError as exc:
            raise LoadError(f"{where}: {exc}") from exc
    try:
        return Dataset(name=path.stem, tasks=tuple(tasks))
    except ValueError as exc:
        raise LoadError(f"dataset {path}: {exc}") from exc


def extract_bracket_answer(text: str) -> int | float | None:
    """Number inside the last well-formed bracket pair, or None.

    The content must be a bare numeric literal, commas only as thousands
    separators ("[1,234]" is 1234, "[1,2,3]" is no answer) and ASCII digits
    only ("[١٢٣]" is no answer); later pairs shadow earlier ones, since
    generated text that violates the one-pair instruction usually ends with
    its conclusion. An integer with more digits than int() converts, or a
    decimal beyond float range, gives None.
    """
    best: int | float | None = None
    for match in _BRACKET.finditer(text):
        body = match.group(1).strip()
        if _NUMBER.fullmatch(body):
            body = body.replace(",", "")
            try:
                best = float(body) if "." in body else int(body)
            except ValueError:
                best = None
            if isinstance(best, float) and math.isinf(best):
                best = None
    return best


def numbers_match(got: int | float, want: int | float) -> bool:
    """Reference comparison: exact on integer values, else 1e-6 relative."""
    try:
        if float(got).is_integer() and float(want).is_integer():
            return float(got) == float(want)
        return math.isclose(got, want, rel_tol=NUMERIC_TOL, abs_tol=0.0)
    except OverflowError:  # an int beyond float range equals only itself
        return got == want


def answer_matches(task: Task, answer: int | float | None) -> bool:
    """The verdict on a math task for a response whose extracted answer is
    ``answer`` (None for no answer): its reference must match."""
    return answer is not None and numbers_match(answer, task.answer)


def verify(task: Task, text: str, timeout: float = 30.0) -> bool:
    """True when ``text`` answers the task.

    Math: the last bracketed number must match the reference
    (answer_matches of extract_bracket_answer). Code: the
    task's command runs with ``text`` on stdin as UTF-8, whatever the locale;
    exit 0 is a pass, any other exit a fail, and a text with no UTF-8 form
    (a lone surrogate) or a timeout/spawn failure raises VerificationError.
    The command's output is discarded unread. ValueError for a timeout that
    check_timeout refuses.
    """
    check_timeout(timeout)
    if task.domain == "math":
        return answer_matches(task, extract_bracket_answer(text))
    import subprocess  # only code tasks spawn a process

    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise VerificationError(f"task {task.id!r}: the text has no UTF-8 form: {exc}") from exc
    try:
        proc = subprocess.run(
            list(task.verify_cmd),
            input=data,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise VerificationError(f"task {task.id!r}: verifier timed out after {timeout}s") from exc
    except OSError as exc:
        raise VerificationError(f"task {task.id!r}: cannot run verifier {task.verify_cmd}: {exc}") from exc
    return proc.returncode == 0

