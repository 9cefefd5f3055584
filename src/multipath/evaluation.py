"""Metrics and the inference-cost model.

Cost accounting uses generated-token counts as the proxy for per-sample
inference time: t is the mean stage-1 tokens per task, p the fraction of
tasks regenerated in stage 2, n the mean ratio of tokens generated to steps
taken by the regenerating decoder (its average width). Estimated totals
follow the closed forms: single pass N*t, prompt-based two-pass 2*N*t,
regenerate-on-negative N*t*(1 + p*n); the break-even point is p*n = 1.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

from .correction import CORRECTED, Attempt
from .tasks import Dataset, Task, verify

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
    def from_verdicts(cls, initial: Sequence[bool], final: Sequence[bool]) -> "ChangeMatrix":
        if len(initial) != len(final):
            raise ValueError(f"{len(initial)} initial verdicts but {len(final)} final")
        cc = ci = ic = ii = 0
        for before, after in zip(initial, final):
            if before and after:
                cc += 1
            elif before:
                ci += 1
            elif after:
                ic += 1
            else:
                ii += 1
        return cls(cc=cc, ci=ci, ic=ic, ii=ii)

    @property
    def total(self) -> int:
        return self.cc + self.ci + self.ic + self.ii

    def accuracy_after(self) -> float:
        return (self.cc + self.ic) / self.total


@dataclass(frozen=True)
class CostModel:
    """Closed-form cost inputs: N samples, unit time t, regenerated fraction
    p, mean decoder width n."""

    samples: int
    unit_time: float
    regen_fraction: float
    mean_width: float

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.unit_time <= 0.0:
            raise ValueError(f"unit_time must be > 0, got {self.unit_time}")
        if not 0.0 <= self.regen_fraction <= 1.0:
            raise ValueError(f"regen_fraction must be in [0, 1], got {self.regen_fraction}")
        if self.mean_width < 1.0:
            raise ValueError(f"mean_width must be >= 1, got {self.mean_width}")


def cost_estimate(cost: CostModel, strategy_kind: str) -> float:
    """Estimated total inference time for a strategy over the dataset."""
    base = cost.samples * cost.unit_time
    if strategy_kind == "none":
        return base
    if strategy_kind in ("feedback_as_prompt", "critic_prompt", "ioe_prompt"):
        return 2.0 * base
    if strategy_kind == "ftr_indicator":
        return base * (1.0 + cost.regen_fraction * cost.mean_width)
    raise ValueError(f"unknown strategy kind {strategy_kind!r}")


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

    Verdicts always come from verify(), regardless of which provider gated
    stage 2 during the run. Requires exactly one pair per dataset task.
    """
    by_task: dict[str, Task] = {t.id: t for t in dataset.tasks}
    seen = set()
    for initial, final in pairs:
        if initial.task_id not in by_task:
            raise ValueError(f"pair for unknown task {initial.task_id!r}")
        if initial.task_id != final.task_id:
            raise ValueError(f"mismatched pair: {initial.task_id!r} vs {final.task_id!r}")
        seen.add(initial.task_id)
    missing = [t.id for t in dataset.tasks if t.id not in seen]
    if missing:
        raise ValueError(f"no attempt pair for tasks: {missing}")

    def verdicts(pair: tuple[Attempt, Attempt]) -> tuple[bool, bool]:
        initial, final = pair
        task = by_task[initial.task_id]
        before = verify(task, initial.text, timeout=timeout)
        # An identity stage 2 cannot change the verdict; skip re-verifying.
        after = before if final.stage != CORRECTED else verify(task, final.text, timeout=timeout)
        return before, after

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            verdict_pairs = list(pool.map(verdicts, pairs))
    else:
        verdict_pairs = [verdicts(p) for p in pairs]

    matrix = ChangeMatrix.from_verdicts([v[0] for v in verdict_pairs], [v[1] for v in verdict_pairs])
    size = len(pairs)
    tokens_stage1 = sum(initial.tokens_generated for initial, _ in pairs)
    corrected = [final for _, final in pairs if final.stage == CORRECTED]
    tokens_stage2 = sum(a.tokens_generated for a in corrected)
    regenerated = len(corrected)
    unit_tokens = tokens_stage1 / size
    regen_fraction = regenerated / size
    mean_width = (
        sum(a.tokens_generated / a.steps for a in corrected) / regenerated
        if regenerated else 1.0
    )
    cost = CostModel(
        samples=size,
        unit_time=unit_tokens,
        regen_fraction=regen_fraction,
        mean_width=mean_width,
    )
    est_cost_ratio = cost_estimate(cost, strategy_kind) / (size * unit_tokens)
    measured_cost_ratio = (tokens_stage1 + tokens_stage2) / tokens_stage1

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
