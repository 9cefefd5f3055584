"""Print one sha256 over outputs that must be the same on every Python the
package accepts (3.10 and later).

    python3 tests/interpreter_digest.py

The script needs only the standard library and the package source beside
it, so it runs on an interpreter without pytest. The digest covers:

- every file and the stdout of a ``compare`` of all five strategies on a
  small add-k n-gram model, whose regenerated tasks have varied widths and
  whose prompt strategies decode stage 2 under each task's stage-2 seed;
- the ``decode`` stdout of each decoder on that n-gram model and on
  ``data/greedy_trap.json``;
- the resolved settings of a fixed set of argv and config combinations,
  and the message of each one the CLI refuses;
- the exit code and messages of each ``compare`` in a fixed set that
  refuses its feedback settings before it reads a file.

``tests/test_package.py`` runs it under each interpreter it finds and
requires one digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multipath import cli  # noqa: E402
from multipath.correction import STRATEGY_KINDS  # noqa: E402
from multipath.errors import ConfigError  # noqa: E402
from multipath.templates import CRITIC, FEEDBACK_MATH, IOE, MATH_TEMPLATE, load_prompt  # noqa: E402

WORDS = ["solve", "item", "gives", "or", "so"] + [f"[{d}]" for d in range(10)] + [str(d) for d in range(10)]

# (argv, config or None). Paths are relative to the working directory.
SETTINGS_CASES = [
    (["decode"], None),
    (["decode", "7", "--decoder", "beam", "--beam", "2"], None),
    (["decode", "--config", "cfg.json"], {"prompt": "7", "k_star": 3, "resume": True, "models": 1}),
    (["compare"], None),
    (["compare", "--resume", "--strategy", "none", "--fn-rate", "0.0"], None),
    (["compare", "--config", "cfg.json"], {"strategy": "none", "provider": "ground_truth", "judge_url": None}),
    (["compare", "--config", "cfg.json"], {"strategy": "ftr_indicator", "fn_rate": 0.5, "judge_url": None}),
    (["compare", "--config", "cfg.json", "--strategy", "ioe_prompt"], {"strategy": ["none", "critic_prompt"]}),
    (["compare", "--config", "cfg.json"], {"top_p": 1, "timeout": 2.5, "decoder": "beam", "resume": False}),
    (["oracle-check", "--mutate", "prune-off-by-one"], None),
    (["oracle-check", "--config", "cfg.json", "--seed", "3"], {"models": 5, "seed": 9}),
    (["decode", "--config", "cfg.json"], {"kstar": 1}),
    (["decode", "--config", "cfg.json"], {"p_star": True}),
    (["compare", "--config", "cfg.json"], {"strategy": []}),
    (["compare", "--timeout", "0"], None),
]

# compare argv refused before any file is read or written.
REFUSAL_CASES = [
    ["compare", "--judge-url", "http://127.0.0.1:9", "--fn-rate", "0.5", "--out", "refused"],
    ["compare", "--strategy", "none", "--judge-url", "http://127.0.0.1:9", "--out", "refused"],
    ["compare", "--strategy", "critic_prompt", "--fp-rate", "0.0", "--out", "refused"],
]


def ngram_compare(work: Path) -> list[bytes]:
    """The stdout and every output file of a compare of every strategy."""
    # The first lines put in the vocabulary every word of the task prompts
    # and of the templates that math tasks decode; the rest vary the rows,
    # so regenerated attempts have varied widths.
    lines = [load_prompt(name) for name in (MATH_TEMPLATE, CRITIC, IOE, FEEDBACK_MATH)] + [" ".join(WORDS)]
    lines += [" ".join(WORDS[(i * 7 + j * j * 3 + j) % len(WORDS)] for j in range(3 + i % 6)) for i in range(30)]
    corpus = "\n".join(lines) + "\n"
    spec = {"kind": "ngram", "corpus": corpus, "order": 1, "add_k": 0.5}
    (work / "ngram.json").write_text(json.dumps(spec), encoding="utf-8")
    tasks = [{"id": f"t{i:03d}", "prompt": f"solve item {i % 10}", "domain": "math", "answer": i * 7 % 10}
             for i in range(60)]
    (work / "tasks.jsonl").write_text("".join(json.dumps(task) + "\n" for task in tasks), encoding="utf-8")
    strategies = [flag for kind in STRATEGY_KINDS for flag in ("--strategy", kind)]
    code, stdout = run(["compare", "--model", "ngram.json", "--dataset", "tasks.jsonl", *strategies,
                        "--out", "out", "--max-len", "10", "--seed", "5"])
    if code != b"0":
        sys.exit(f"the n-gram compare exited {code.decode()}")
    files = sorted((work / "out").iterdir())
    return [code, stdout] + [path.name.encode() + b"\0" + path.read_bytes() for path in files]


def decodes(model: str, *flags: str) -> list[bytes]:
    """The exit code and stdout of ``decode`` with each decoder."""
    return [b"".join(run(["decode", "--model", model, "--decoder", decoder, *flags])) for decoder in cli.DECODERS]


def resolved_settings(work: Path) -> list[bytes]:
    outputs = []
    for argv, config in SETTINGS_CASES:
        if config is not None:
            (work / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        try:
            settings = vars(cli.parse_args(argv))
        except ConfigError as exc:
            outputs.append(f"error: {exc}".encode())
            continue
        settings["given"] = sorted(settings["given"])
        outputs.append(json.dumps(settings, sort_keys=True).encode())
    return outputs


def refusals() -> list[bytes]:
    """The exit code, stdout and stderr of each refused compare."""
    outputs = []
    for argv in REFUSAL_CASES:
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            code, stdout = run(argv)
        outputs.append(b"\0".join([code, stdout, stderr.getvalue().encode()]))
    return outputs


def run(argv: list[str]) -> tuple[bytes, bytes]:
    """The exit code and stdout of ``multipath`` with ``argv``."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(argv)
    return str(code).encode(), stdout.getvalue().encode()


def main() -> None:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        outputs = ngram_compare(Path(tmp))
        outputs += decodes("ngram.json", "solve item 3", "--max-len", "12", "--seed", "5")
        outputs += decodes(str(ROOT / "data" / "greedy_trap.json"))
        for output in outputs + resolved_settings(Path(tmp)) + refusals():
            digest.update(len(output).to_bytes(8, "big") + output)
        os.chdir(ROOT)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
