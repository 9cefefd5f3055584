"""Deterministic toy fixtures for demos and tests.

The digit world: answers are single bracket tokens "[0]".."[9]" followed by
the end token, so every decode is exactly two tokens long and answer
extraction is trivial. Each task's step-0 distribution puts 0.6 on one
"best" digit and 0.1 on the four following it; ground truth equals the best
digit on even-indexed tasks and the next digit on odd ones. A sampler
therefore gets some tasks wrong that regeneration (which always lands on
the best digit, the min-perplexity answer) can fix, while odd tasks stay
hard, which exercises every cell of the change matrix except
correct-to-incorrect.

Equal two-token answers also make the cost identity exact: the measured
stage-2/stage-1 token ratio equals regen_fraction * mean_width with no
rounding, which the cost-model tests rely on.

The checked-in files in data/ mean the same: toy_math.jsonl is
make_digit_dataset(100), and toy_table_lm.json gives every prompt task 3's
step-0 row of make_digit_model(100).
"""

from __future__ import annotations

from .models import StepDistribution, TableLM, Vocabulary
from .tasks import Dataset, Task
from .templates import CRITIC, FEEDBACK_CODE, FEEDBACK_MATH, IOE, MATH_TEMPLATE, load_prompt

DIGITS = 10
SPREAD = 4  # weaker digits per task, 0.1 mass each


def best_digit(index: int) -> int:
    return index % DIGITS

def true_digit(index: int) -> int:
    """Ground truth: the model's best digit on even tasks, its first
    alternative on odd ones."""
    return best_digit(index) if index % 2 == 0 else (best_digit(index) + 1) % DIGITS


def digit_vocabulary(num_tasks: int = 100) -> Vocabulary:
    """Digit answer tokens, the end token, and every word the prompts can use
    (task text, the math template, and all correction templates)."""
    words: set[str] = {"solve", "item"}
    for name in (CRITIC, IOE, FEEDBACK_MATH, FEEDBACK_CODE, MATH_TEMPLATE):
        words.update(load_prompt(name).split())
    words.update(str(i) for i in range(num_tasks))
    tokens = tuple(f"[{d}]" for d in range(DIGITS)) + tuple(sorted(words)) + ("$",)
    return Vocabulary(tokens=tokens, eos_id=len(tokens) - 1)


def task_prompt(index: int) -> str:
    return load_prompt(MATH_TEMPLATE) + " " + f"solve item {index}"


def _step0_probs(vocab: Vocabulary, index: int) -> tuple[float, ...]:
    best = best_digit(index)
    probs = [0.0] * vocab.size
    probs[best] = 0.6
    for off in range(1, SPREAD + 1):
        probs[(best + off) % DIGITS] = 0.1
    return tuple(probs)


class _DigitLM(TableLM):
    """A table model whose step-0 row is pinned per task prompt: the step-0
    row of a prompt in ``step0`` is that entry, not the table's."""

    def __init__(self, vocabulary: Vocabulary, rows: dict, step0: dict):
        super().__init__(vocabulary, rows)
        self._step0 = step0

    def _distribution(self, prompt, prefix):
        dist = None if prefix else self._step0.get(prompt)
        return super()._distribution(prompt, prefix) if dist is None else dist


def make_digit_model(num_tasks: int = 100) -> TableLM:
    """Per-task step-0 rows keyed by the full task prompt; any stage-2 input
    that differs from a task prompt falls back to a uniform digit row."""
    vocab = digit_vocabulary(num_tasks)
    eos_onehot = tuple(1.0 if t == vocab.eos_id else 0.0 for t in range(vocab.size))
    rows = {(d,): StepDistribution(probs=eos_onehot) for d in range(DIGITS)}
    uniform_digits = [0.0] * vocab.size
    for d in range(DIGITS):
        uniform_digits[d] = 1.0 / DIGITS
    rows[()] = StepDistribution(probs=tuple(uniform_digits))
    step0 = {vocab.encode(task_prompt(i)): StepDistribution(probs=_step0_probs(vocab, i)) for i in range(num_tasks)}
    return _DigitLM(vocab, rows, step0)


def make_digit_dataset(num_tasks: int = 100) -> Dataset:
    tasks = tuple(
        Task(
            id=f"t{i:03d}",
            prompt=task_prompt(i),
            domain="math",
            answer=true_digit(i),
        )
        for i in range(num_tasks)
    )
    return Dataset(name="toy_math", tasks=tasks)

