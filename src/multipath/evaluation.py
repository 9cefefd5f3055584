"""Metrics and the inference-cost model.

Cost accounting uses generated-token counts as the proxy for per-sample
inference time: t is the mean stage-1 tokens per task, p the fraction of
tasks regenerated in stage 2, n the mean ratio of tokens generated to steps
taken by the regenerating decoder (its average width). Estimated totals
follow the closed forms: single pass N*t, prompt-based two-pass 2*N*t,
regenerate-on-negative N*t*(1 + p*n). cost_ratio gives them in units of
N*t, so neither N nor t enters it; the break-even point is p*n = 1.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .correction import CORRECTED, STRATEGY_KINDS, Attempt, fan_out, true_verdict
from .models import check_timeout
from .tasks import Dataset, Task, verify  # verify: not called here; perfbench/tracing.py wraps it by name

CSV_COLUMNS = (
    "strategy", "dataset", "N", "acc", "cc", "ci", "ic", "ii",
    "tokens_stage1", "tokens_stage2", "est_cost_ratio", "measured_cost_ratio",
)


@dataclass(frozen=True)
class ChangeMatrix:
    """Four-way verdict tally between the initial and final attempt."""

    cc: int  # correct -> correct
    ci: int  # correct -> incorrect
    ic: int  # incorrect -> correct
    ii: int  # incorrect -> incorrect

    def __post_init__(self) -> None:
        if min(self.cc, self.ci, self.ic, self.ii) < 0:
            raise ValueError("counts must be >= 0")

    @classmethod
    def from_verdicts(cls, verdicts: Iterable[tuple[bool, bool]]) -> "ChangeMatrix":
        """Tally (initial, final) verdict pairs."""
        n = Counter(verdicts)
        return cls(cc=n[True, True], ci=n[True, False], ic=n[False, True], ii=n[False, False])

    @property
    def total(self) -> int:
        return self.cc + self.ci + self.ic + self.ii

    def accuracy_after(self) -> float:
        return (self.cc + self.ic) / self.total


def cost_ratio(strategy_kind: str, regen_fraction: float, mean_width: float) -> float:
    """Estimated cost of a strategy's run in single passes (units of N*t):
    1 for none, 2 for a prompt-based second pass, 1 + p*n for
    regenerate-on-negative."""
    if strategy_kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy kind {strategy_kind!r}; expected one of {STRATEGY_KINDS}")
    if not 0.0 <= regen_fraction <= 1.0:
        raise ValueError(f"regen_fraction must be in [0, 1], got {regen_fraction}")
    if mean_width < 1.0:
        raise ValueError(f"mean_width must be >= 1, got {mean_width}")
    if strategy_kind == "none":
        return 1.0
    if strategy_kind == "ftr_indicator":
        return 1.0 + regen_fraction * mean_width
    return 2.0


def breakeven_regen_fraction(mean_width: float) -> float:
    """Regenerated fraction at which regeneration costs exactly as much as a
    full second pass: p such that p * n = 1."""
    if mean_width < 1.0:
        raise ValueError(f"mean_width must be >= 1, got {mean_width}")
    return 1.0 / mean_width


@dataclass(frozen=True)
class RunReport:
    """Per-strategy metrics over one dataset run."""

    strategy: str
    dataset: str
    size: int
    accuracy: float
    matrix: ChangeMatrix
    tokens_stage1: int
    tokens_stage2: int
    regenerated: int
    unit_tokens: float
    regen_fraction: float
    mean_width: float
    est_cost_ratio: float
    measured_cost_ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def csv_row(self) -> str:
        m = self.matrix
        cells = (
            self.strategy, self.dataset, self.size, self.accuracy,
            m.cc, m.ci, m.ic, m.ii,
            self.tokens_stage1, self.tokens_stage2,
            self.est_cost_ratio, self.measured_cost_ratio,
        )
        return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells)


def reports_to_csv(reports: Sequence[RunReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def score_run(
    pairs: Sequence[tuple[Attempt, Attempt]],
    dataset: Dataset,
    strategy_kind: str,
    timeout: float = 30.0,
    workers: int = 1,
) -> RunReport:
    """Verify all attempts against ground truth and aggregate the metrics.

    Verdicts come from correction.true_verdict, verify()'s rule, whichever
    provider gated stage 2 during the run: a math attempt's derived answer
    must match the task's, a code attempt runs the task's verifier. They fan
    out over ``workers`` threads through correction.fan_out. Requires
    exactly one pair per dataset task, and a timeout that check_timeout
    accepts.
    """
    check_timeout(timeout)
    by_task: dict[str, Task] = {t.id: t for t in dataset.tasks}
    seen = set()
    for initial, final in pairs:
        if initial.task_id not in by_task:
            raise ValueError(f"pair for unknown task {initial.task_id!r}")
        if initial.task_id != final.task_id:
            raise ValueError(f"mismatched pair: {initial.task_id!r} vs {final.task_id!r}")
        if initial.task_id in seen:
            raise ValueError(f"more than one pair for task {initial.task_id!r}")
        seen.add(initial.task_id)
    missing = [t.id for t in dataset.tasks if t.id not in seen]
    if missing:
        raise ValueError(f"no attempt pair for tasks: {missing}")

    # The cost comes from the pairs alone, so it is priced before verifying.
    size = len(pairs)
    tokens_stage1 = sum(initial.tokens_generated for initial, _ in pairs)
    corrected = [final for _, final in pairs if final.stage == CORRECTED]
    tokens_stage2 = sum(a.tokens_generated for a in corrected)
    regenerated = len(corrected)
    unit_tokens = tokens_stage1 / size
    regen_fraction = regenerated / size
    # A plain left-to-right loop, not sum(): from Python 3.12 sum() of floats
    # is compensated, and the report bytes must not depend on the version.
    width_total = 0.0
    for a in corrected:
        width_total += a.tokens_generated / a.steps
    mean_width = width_total / regenerated if regenerated else 1.0
    est_cost_ratio = cost_ratio(strategy_kind, regen_fraction, mean_width)
    measured_cost_ratio = (tokens_stage1 + tokens_stage2) / tokens_stage1

    def verdicts(pair: tuple[Attempt, Attempt]) -> tuple[bool, bool]:
        initial, final = pair
        task = by_task[initial.task_id]
        before = true_verdict(task, initial, timeout)
        # An identity stage 2 cannot change the verdict; skip re-verifying.
        after = before if final.stage != CORRECTED else true_verdict(task, final, timeout)
        return before, after

    with fan_out(workers) as each:
        matrix = ChangeMatrix.from_verdicts(each(verdicts, pairs))

    return RunReport(
        strategy=strategy_kind,
        dataset=dataset.name,
        size=size,
        accuracy=matrix.accuracy_after(),
        matrix=matrix,
        tokens_stage1=tokens_stage1,
        tokens_stage2=tokens_stage2,
        regenerated=regenerated,
        unit_tokens=unit_tokens,
        regen_fraction=regen_fraction,
        mean_width=mean_width,
        est_cost_ratio=est_cost_ratio,
        measured_cost_ratio=measured_cost_ratio,
    )
