"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports the program. The decoder is mass-threshold multipath
decoding written from its definition; the report check recomputes each
``compare`` report from the attempts file it summarizes and from the dataset
answers.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's expectation."""


def multipath(row, p_star: float, k_star: int, max_len: int, eos: int):
    """Mass-threshold multipath decode of one prompt.

    ``row(prefix)`` is the next-token distribution after the generated
    ``prefix``, a list indexed by token id. Each step every live path is
    extended by each token of nonzero probability; the extensions are ranked
    by cumulative log-probability, ties to the lexicographically smaller
    token path, and the shortest prefix of the ranking whose share of the
    pool's mass reaches ``p_star`` is kept, at most ``k_star`` paths.
    Finished paths leave the live set. The answer is the finished path of
    least perplexity (ties to the shorter, then the lexicographically
    smaller), or the least-perplexity live path if none finished.

    Returns a dict with the chosen path, the finished paths in that order,
    the kept count per step and the number of model calls (live paths summed
    over steps). Paths are (token tuple, cumulative log-probability).
    """
    live = [((), 0.0)]
    finished = []
    k_trace = []
    calls = 0
    for _ in range(max_len):
        if not live:
            break
        calls += len(live)
        mass_terms = []
        pool = []
        for order, (tokens, cum) in enumerate(live):
            probs = row(tokens)
            mass_terms.append(math.exp(cum) * math.fsum(probs))
            # A child outside its parent's k_star most probable ones has
            # k_star siblings ranked above it, so it can never be kept.
            top = heapq.nlargest(k_star, range(len(probs)), key=probs.__getitem__)
            for t in top:
                if probs[t] > 0.0:
                    pool.append((-(cum + math.log(probs[t])), order, t))
        mass = math.fsum(mass_terms)
        kept = []
        for neg_cum, order, t in heapq.nsmallest(k_star, pool):
            kept.append((live[order][0] + (t,), -neg_cum))
            if math.fsum(math.exp(c) for _, c in kept) / mass >= p_star - 1e-12:
                break
        k_trace.append(len(kept))
        finished.extend(p for p in kept if p[0][-1] == eos)
        live = sorted(p for p in kept if p[0][-1] != eos)

    def rank(path):
        tokens, cum = path
        return (math.exp(-cum / len(tokens)), len(tokens), -cum, tokens)

    ranked = sorted(finished, key=rank)
    return {
        "chosen": min(finished or live, key=rank),
        "finished": ranked,
        "k_trace": tuple(k_trace),
        "calls": calls,
    }


def check_decode(label: str, result, expected: dict) -> None:
    """Compare a program DecodeResult with the reference decode ``expected``."""
    got_finished = [p.tokens for p in result.ranked_finished()]
    want_finished = [tokens for tokens, _ in expected["finished"]]
    want_tokens, want_cum = expected["chosen"]
    problems = []
    if result.chosen.tokens != want_tokens:
        problems.append(f"chosen {result.chosen.tokens} != {want_tokens}")
    if not math.isclose(result.chosen.cum_logprob, want_cum, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"chosen cum_logprob {result.chosen.cum_logprob!r} != {want_cum!r}")
    if got_finished != want_finished:
        problems.append(f"finished paths {got_finished} != {want_finished}")
    if tuple(result.k_trace) != expected["k_trace"]:
        problems.append(f"k_trace {tuple(result.k_trace)} != {expected['k_trace']}")
    if result.tokens_generated != expected["calls"]:
        problems.append(f"tokens_generated {result.tokens_generated} != {expected['calls']}")
    if problems:
        raise CheckFailed(f"{label}: " + "; ".join(problems))


def check_compare_outputs(out_dir: Path, dataset: Path, strategies) -> None:
    """Recompute every ``compare`` report and CSV row from its attempts file.

    Ground truth is the dataset's numeric answer; an attempt is correct when
    its extracted answer equals it. Tokens, regeneration counts, accuracy and
    the change matrix must match what the program reported.
    """
    answers = {}
    for line in dataset.read_text(encoding="utf-8").splitlines():
        if line.strip():
            item = json.loads(line)
            answers[item["id"]] = item["answer"]

    def correct(attempt: dict) -> bool:
        return attempt["answer"] is not None and float(attempt["answer"]) == float(answers[attempt["task_id"]])

    csv_lines = (out_dir / "compare.csv").read_text(encoding="utf-8").splitlines()
    if len(csv_lines) != 1 + len(strategies):
        raise CheckFailed(f"compare.csv has {len(csv_lines)} lines, expected {1 + len(strategies)}")
    for strategy, csv_line in zip(strategies, csv_lines[1:]):
        lines = (out_dir / f"attempts_{strategy}.jsonl").read_text(encoding="utf-8").splitlines()
        pairs = [json.loads(line) for line in lines]
        if [p["task_id"] for p in pairs] != list(answers):
            raise CheckFailed(f"{strategy}: attempts do not cover the dataset in order")
        cells = {"cc": 0, "ci": 0, "ic": 0, "ii": 0}
        stage1 = stage2 = regenerated = 0
        for pair in pairs:
            initial, final = pair["initial"], pair["final"]
            if strategy == "none" and final != initial:
                raise CheckFailed(f"{strategy}: task {pair['task_id']} has a second stage")
            if strategy == "ftr_indicator" and (final["stage"] == "corrected") == correct(initial):
                raise CheckFailed(f"{strategy}: task {pair['task_id']} regenerated against the feedback")
            before = "c" if correct(initial) else "i"
            after = "c" if correct(final) else "i"
            cells[before + after] += 1
            stage1 += initial["tokens_generated"]
            if final["stage"] == "corrected":
                stage2 += final["tokens_generated"]
                regenerated += 1
        want = {
            "strategy": strategy,
            "size": len(pairs),
            "accuracy": (cells["cc"] + cells["ic"]) / len(pairs),
            "matrix": cells,
            "tokens_stage1": stage1,
            "tokens_stage2": stage2,
            "regenerated": regenerated,
        }
        report = json.loads((out_dir / f"report_{strategy}.json").read_text(encoding="utf-8"))
        got = {key: report[key] for key in want}
        if got != want:
            raise CheckFailed(f"{strategy}: report {got} != recomputed {want}")
        row = csv_line.split(",")
        want_row = [strategy, str(len(pairs)), repr(want["accuracy"])] + [
            str(cells[c]) for c in ("cc", "ci", "ic", "ii")] + [str(stage1), str(stage2)]
        if [row[0], row[2], row[3]] + row[4:10] != want_row:
            raise CheckFailed(f"{strategy}: CSV row {csv_line!r} disagrees with the attempts")
