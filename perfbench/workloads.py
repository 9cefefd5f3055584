"""The benchmark's workloads.

Each workload makes its inputs from the seed (untimed), then sets the
program up (timed as ``setup_s``: importing it, building or training the
model, encoding the prompts, starting the server) and hands the runner one
operation per input. The workloads differ in vocabulary size, path width,
decode length and where the model runs, so each stresses another layer.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import math
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
from loopback import LoopbackModelServer

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@dataclass
class Program:
    """The program set up for one workload.

    ``ops`` holds one zero-argument call per input; each runs one operation
    and returns its raw output. The other fields read an output after the
    timed region: its sha256, the tokens it generated, the bytes it wrote,
    and ``check``, which compares one pass of outputs with the reference.
    """

    ops: list
    digest: Callable[[object], str]
    tokens: Callable[[object], int]
    check: Callable[[list], None]
    bytes_written: Callable[[object], int] = lambda output: 0
    release: Callable[[object], None] = lambda output: None
    close: Callable[[], None] = lambda: None
    server: LoopbackModelServer | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Path], object]
    setup: Callable[[object, Path], Program]


def _decode_program(new_model, prompts, settings, rows_for, eos: int, decoding) -> Program:
    """One multipath decode per prompt on the model ``new_model()`` returns;
    ``rows_for(prompt)`` gives the reference's row function for that prompt."""
    p_star, k_star, max_len = settings
    cfg = decoding.MultipathConfig(mass_fraction=p_star, max_width=k_star, max_len=max_len)

    def op_for(prompt):
        # Looked up at call time, so the traced run sees the wrapped decoder.
        return lambda: decoding.multipath_decode(new_model(), prompt, cfg)

    def check(results):
        for index, (prompt, result) in enumerate(zip(prompts, results)):
            expected = reference.multipath(rows_for(prompt), p_star, k_star, max_len, eos)
            reference.check_decode(f"input {index}", result, expected)

    return Program(
        ops=[op_for(prompt) for prompt in prompts],
        digest=lambda result: hashlib.sha256(
            json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest(),
        tokens=lambda result: result.tokens_generated,
        check=check,
    )


# ---------------------------------------------------------------------------
# trap_decode and remote_trap_decode: the three-token greedy-trap model


TRAP_SETTINGS = (0.95, 7, 24)
REMOTE_SETTINGS = (0.95, 7, 12)
SERVICE_DELAY_S = 0.001
# The rows of the program's greedy_trap_lm(), restated for the reference
# and the loopback server.
TRAP_ROWS = {(): [0.45, 0.55, 0.0], (0,): [0.05, 0.05, 0.9], (1,): [0.25, 0.25, 0.5]}
TRAP_DEFAULT = [1.0 / 3] * 3
TRAP_EOS = 2


def _trap_prompts(seed: int, _work: Path) -> list:
    rng = random.Random(seed)
    return [tuple(rng.randrange(3) for _ in range(rng.randint(1, 8))) for _ in range(16)]


def _trap_rows(rows: dict, default: list):
    return lambda prompt: (lambda prefix: rows.get(prefix, default))


def _setup_trap(prompts, _work: Path) -> Program:
    decoding = importlib.import_module("multipath.decoding")
    model = importlib.import_module("multipath.models").greedy_trap_lm()
    rows_for = _trap_rows(TRAP_ROWS, TRAP_DEFAULT)
    return _decode_program(lambda: model, prompts, TRAP_SETTINGS, rows_for, TRAP_EOS, decoding)


def _setup_remote(prompts, _work: Path) -> Program:
    decoding = importlib.import_module("multipath.decoding")
    models = importlib.import_module("multipath.models")
    remote = importlib.import_module("multipath.remote")
    vocabulary = models.Vocabulary(tokens=("a", "b", "$"), eos_id=TRAP_EOS)
    server = LoopbackModelServer(TRAP_ROWS, TRAP_DEFAULT, SERVICE_DELAY_S)
    url = server.url

    def wire(probs):
        # The client sees each probability as exp(log p) after the wire.
        return [math.exp(math.log(p)) if p > 0.0 else 0.0 for p in probs]

    rows = {prefix: wire(probs) for prefix, probs in TRAP_ROWS.items()}
    program = _decode_program(
        lambda: remote.HttpModelClient(vocabulary, url),
        prompts[:8],
        REMOTE_SETTINGS,
        _trap_rows(rows, wire(TRAP_DEFAULT)),
        TRAP_EOS,
        decoding,
    )
    program.server = server
    program.close = server.close
    return program


# ---------------------------------------------------------------------------
# ngram_v2000_decode: a bigram model over 2000 tokens trained in the script


NGRAM_SETTINGS = (0.9, 7, 32)
NGRAM_WORDS = 1999  # plus the end token
NGRAM_ADD_K = 0.0005
# Word i is followed by word i+1 28 times and by word i+2 twice (indices mod
# NGRAM_WORDS), and ends a line once. Every row then holds the same
# probabilities, so every prompt costs the same number of model calls on
# every seed, while the seed decides which words those are.
NGRAM_SUCCESSORS = ((1, 28), (2, 2))
NGRAM_LINE_BREAK = 7


def _ngram_inputs(seed: int, _work: Path) -> dict:
    rng = random.Random(seed)
    words = ["".join(chr(97 + code // 26**i % 26) for i in range(4)) for code in rng.sample(range(26**4), NGRAM_WORDS)]
    pattern = [offset for offset, count in NGRAM_SUCCESSORS for _ in range(count)] + [NGRAM_LINE_BREAK]
    # Applying the pattern NGRAM_WORDS times from any word visits each word
    # once per pattern position (the pattern's total offset is coprime to the
    # prime word count), so each word gets exactly the counts above.
    node = rng.randrange(NGRAM_WORDS)
    lines, line = [], [words[node]]
    for _ in range(NGRAM_WORDS):
        for offset in pattern:
            node = (node + offset) % NGRAM_WORDS
            if offset == NGRAM_LINE_BREAK:
                lines.append(" ".join(line))
                line = []
            line.append(words[node])
    prompts = [" ".join(rng.sample(words, rng.randint(1, 4))) for _ in range(4)]
    return {"corpus": "\n".join(lines) + "\n", "prompts": prompts, "words": words}


def _ngram_rows(words: list):
    """Reference rows: add-k estimates from the counts the corpus was built with."""
    vocab = sorted(words) + ["</s>"]
    ids = {token: i for i, token in enumerate(vocab)}
    size = len(vocab)
    successors = {}
    for i, word in enumerate(words):
        counts = {ids[words[(i + offset) % NGRAM_WORDS]]: count for offset, count in NGRAM_SUCCESSORS}
        counts[size - 1] = 1
        successors[ids[word]] = counts
    total = sum(count for _, count in NGRAM_SUCCESSORS) + 1
    denom = total + NGRAM_ADD_K * size

    def row(context: int) -> list:
        counts = successors[context]
        return [(counts.get(t, 0) + NGRAM_ADD_K) / denom for t in range(size)]

    return vocab, lambda prompt: (lambda prefix: row((prompt + prefix)[-1]))


def _setup_ngram(inputs: dict, _work: Path) -> Program:
    decoding = importlib.import_module("multipath.decoding")
    model = importlib.import_module("multipath.models").train_ngram(inputs["corpus"], order=1, add_k=NGRAM_ADD_K)
    prompts = [model.vocabulary.encode(text) for text in inputs["prompts"]]
    vocab, rows_for = _ngram_rows(inputs["words"])
    program = _decode_program(lambda: model, prompts, NGRAM_SETTINGS, rows_for, len(vocab) - 1, decoding)
    decode_check = program.check

    def check(results):
        if list(model.vocabulary.tokens) != vocab:
            raise reference.CheckFailed("the trained vocabulary is not the corpus words plus </s>")
        decode_check(results)

    program.check = check
    return program


# ---------------------------------------------------------------------------
# digits_compare: the CLI's compare command on the 100-task digit corpus


STRATEGIES = ("none", "ftr_indicator", "feedback_as_prompt", "critic_prompt", "ioe_prompt")
DIGIT_MODEL = DATA / "toy_table_lm.json"
DIGIT_TASKS = DATA / "toy_math.jsonl"


def _compare_inputs(seed: int, work: Path) -> dict:
    # The seed shuffles the tasks. Sampling seeds derive from the task id,
    # so every order costs the same work while the output bytes differ.
    lines = [line for line in DIGIT_TASKS.read_text(encoding="utf-8").splitlines() if line.strip()]
    random.Random(seed).shuffle(lines)
    tasks = work / DIGIT_TASKS.name
    tasks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["compare", "--model", str(DIGIT_MODEL), "--dataset", str(tasks)]
    for strategy in STRATEGIES:
        args += ["--strategy", strategy]
    return {"args": args + ["--seed", "42", "--max-len", "8"], "tasks": tasks}


def _files(out: Path) -> list:
    return sorted(p for p in out.iterdir() if p.is_file())


def _compare_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in _files(out):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _compare_tokens(out: Path) -> int:
    total = 0
    for strategy in STRATEGIES:
        report = json.loads((out / f"report_{strategy}.json").read_text(encoding="utf-8"))
        total += report["tokens_stage1"] + report["tokens_stage2"]
    return total


def _setup_compare(inputs: dict, work: Path) -> Program:
    cli = importlib.import_module("multipath.cli")
    counter = itertools.count()

    def op():
        out = work / f"compare-{next(counter)}"
        with redirect_stdout(io.StringIO()):
            code = cli.main(inputs["args"] + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"compare exited with code {code}")
        return out

    return Program(
        ops=[op],
        digest=_compare_digest,
        tokens=_compare_tokens,
        check=lambda outs: reference.check_compare_outputs(outs[0], inputs["tasks"], STRATEGIES),
        bytes_written=lambda out: sum(p.stat().st_size for p in _files(out)),
        release=shutil.rmtree,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trap_decode",
            "V=3 greedy-trap model, 109 model calls per op: time goes to path expansion, the retention kernel and selection",
            _trap_prompts,
            _setup_trap,
        ),
        Workload(
            "ngram_v2000_decode",
            "seeded bigram model with V=2000, width 7 for most of 32 steps: time goes to building dense O(V) rows",
            _ngram_inputs,
            _setup_ngram,
        ),
        Workload(
            "digits_compare",
            "CLI compare, five strategies on the 100-task digit corpus in seeded order: loaders, feedback, verification, scoring, artifact writes",
            _compare_inputs,
            _setup_compare,
        ),
        Workload(
            "remote_trap_decode",
            "trap model behind a loopback HTTP server with 1 ms service delay: 49 round trips per op, no cache hits",
            _trap_prompts,
            _setup_remote,
        ),
    )
}
