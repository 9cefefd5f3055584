"""Command-line entry point.

Commands:
  decode        run one decoder on one prompt, print the result JSON
  bench         run a correction strategy over a dataset, write reports
  compare       run several strategies, write one joined CSV
  oracle-check  cross-check the decoders against brute-force oracles

A JSON config file (--config) can supply any flag value under its long name
with dashes as underscores; explicit flags win. A key that names no option
of any command is an error; one that names another command's option is
ignored, so commands can share a config file. All outputs are
deterministic given config and seed: reports carry no timestamps, floats are
shortest-round-trip, and rows follow dataset order.

Exit codes: 0 success, 1 failed property or verification, 2 bad
configuration or I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .correction import (
    FEEDBACK_GATED,
    STRATEGY_KINDS,
    FeedbackProvider,
    GroundTruthProvider,
    JudgeServiceProvider,
    ScriptedJudgeProvider,
    run_protocol,
)
from .decoding import (
    AdaptiveConfig,
    BeamConfig,
    MultipathConfig,
    SamplerConfig,
    beam_search,
    greedy_decode,
    multipath_decode,
    nucleus_sample,
    adaptive_decode,
)
from .errors import ConfigError, LoadError, ProtocolError, TrainingError, TransportError, VerificationError
from .evaluation import reports_to_csv, score_run
from .models import (
    ModelInterface,
    NGramLM,
    StepDistribution,
    TableLM,
    Vocabulary,
    check_timeout,
    is_number,
    is_str_list,
    train_ngram,
)
from .tasks import load_tasks

DECODERS = ("greedy", "multipath", "beam", "nucleus", "adaptive")
PROVIDERS = ("ground_truth", "scripted", "judge")
# The names of oracle.MUTATIONS, written out so that only oracle-check
# imports the oracle; a test holds the two equal.
MUTATION_NAMES = ["prune-off-by-one", "sampling-table-short", "selection-max-prob"]

DEFAULT_STRATEGY = "ftr_indicator"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying defaults for any flag")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")


def _add_decoder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-star", dest="p_star", type=float, default=MultipathConfig.mass_fraction,
                        help="multipath retained mass fraction (default %(default)s)")
    parser.add_argument("--k-star", dest="k_star", type=int, default=MultipathConfig.max_width,
                        help="multipath width cap (default %(default)s)")
    parser.add_argument("--top-p", dest="top_p", type=float, default=SamplerConfig.top_p,
                        help="sampler nucleus mass (default %(default)s)")
    parser.add_argument("--top-k", dest="top_k", type=int, default=SamplerConfig.top_k,
                        help="sampler candidate cap (default %(default)s)")
    parser.add_argument("--max-len", dest="max_len", type=int, default=MultipathConfig.max_len,
                        help="maximum generated tokens (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multipath", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode one prompt, print result JSON")
    p_decode.add_argument("--model", help="model spec file (table JSON, ngram spec, or remote spec)")
    p_decode.add_argument("prompt", nargs="?", default="", help="prompt text (default empty)")
    p_decode.add_argument("--decoder", choices=DECODERS, default="multipath", help="decoder (default %(default)s)")
    p_decode.add_argument("--beam", type=int, default=BeamConfig.width, help="beam width (default %(default)s)")
    _add_decoder_flags(p_decode)
    _add_common(p_decode)

    for name, helptext in (
        ("bench", "run one strategy over a dataset, write report files"),
        ("compare", "run several strategies, write a joined CSV"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--model", help="model spec file")
        p.add_argument("--dataset", help="dataset JSONL file")
        p.add_argument("--strategy", action="append", choices=STRATEGY_KINDS,
                       help=f"strategy kind (repeatable for compare; default {DEFAULT_STRATEGY})")
        p.add_argument("--provider", choices=PROVIDERS, default="ground_truth",
                       help="feedback provider (default %(default)s)")
        p.add_argument("--judge-url", dest="judge_url", help="judge service base URL")
        p.add_argument("--fn-rate", dest="fn_rate", type=float, default=0.0,
                       help="scripted judge false-negative rate (default %(default)s)")
        p.add_argument("--fp-rate", dest="fp_rate", type=float, default=0.0,
                       help="scripted judge false-positive rate (default %(default)s)")
        p.add_argument("--out", help="output directory (required)")
        p.add_argument("--workers", type=int, default=1, help="parallel task workers (default %(default)s)")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="verifier/judge timeout in seconds (default %(default)s)")
        p.add_argument("--resume", action="store_true", help="reuse completed tasks from the attempts log")
        _add_decoder_flags(p)
        _add_common(p)

    p_oracle = sub.add_parser("oracle-check", help="cross-check decoders against brute-force oracles")
    p_oracle.add_argument("--models", type=int, default=200,
                          help="random models per decoder check (default %(default)s)")
    p_oracle.add_argument("--trials", type=int, default=10000, help="random pruning pools (default %(default)s)")
    p_oracle.add_argument("--mutate", choices=MUTATION_NAMES,
                          help="inject a deliberate defect; the checks must then fail")
    _add_common(p_oracle)
    return parser


def _is_a(value: object, kind: type) -> bool:
    """Whether a JSON value has type ``kind``: a float may also be an int,
    and a bool is never a number (see ``is_number``)."""
    return isinstance(value, str) if kind is str else is_number(value) and (kind is float or isinstance(value, int))


def _check_config_value(action: argparse.Action, value: object, path: Path) -> None:
    """Raise ConfigError unless ``value`` is one the flag of ``action`` could
    produce: of its type and among its choices, or, for a repeatable flag, a
    string or a nonempty list of them."""
    kind = action.type or str
    repeats = isinstance(action, argparse._AppendAction)
    items = value if repeats and isinstance(value, list) and value else [value]
    if not all(_is_a(item, kind) for item in items):
        expected = f"a {kind.__name__} or a nonempty list of them" if repeats else f"a {kind.__name__}"
        raise ConfigError(f"config {path}: {action.dest!r} must be {expected}, got {value!r}")
    if action.choices is not None and not all(item in action.choices for item in items):
        raise ConfigError(f"config {path}: {action.dest!r} must be one of {list(action.choices)}, got {value!r}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``, taking each setting from its flag, else from the
    --config file, else from the flag's default.

    Config keys are flag names with dashes as underscores. A key that names
    no option of any command is rejected as misspelt; one that names no
    value-taking flag of this command is ignored.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        config = {}
    else:
        path = Path(args.config)
        config = _read_json_object(path, "config", ConfigError)
        [commands] = [action.choices for action in parser._actions if isinstance(action.choices, dict)]
        known = {action.dest for sub in commands.values() for action in sub._actions}
        unknown = sorted(set(config) - known)
        if unknown:
            raise ConfigError(
                f"config {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                "keys are long flag names with dashes as underscores"
            )
        command = commands[args.command]
        flags = {action.dest: action for action in command._actions if action.nargs != 0}
        config = {key: value for key, value in config.items() if key in flags and value is not None}
        for key, value in config.items():
            _check_config_value(flags[key], value, path)
        # An append flag extends its default, so the config's strategy list
        # is applied after parsing: an explicit --strategy replaces it.
        command.set_defaults(**{k: v for k, v in config.items() if k != "strategy"})
        args = parser.parse_args(argv)
    if "strategy" in args and args.strategy is None:
        strategy = config.get("strategy", DEFAULT_STRATEGY)
        args.strategy = [strategy] if isinstance(strategy, str) else strategy
    if "timeout" in args:
        try:
            check_timeout(args.timeout, "--timeout (config key 'timeout')")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return args


def _required(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"missing required setting --{key.replace('_', '-')}")
    return value


def _read_json_object(path: Path, what: str, error: type[Exception]) -> dict:
    """The JSON object in ``path``. Raises ``error``, naming ``what`` and the
    file, when the file cannot be read as UTF-8, is not JSON or is not an
    object."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also an integer beyond int()'s digit limit
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path}: top level must be an object")
    return data


# ---------------------------------------------------------------------------
# Model spec files


# The keys each model-spec kind requires and those it may add; a table file
# has no "kind".
_SPEC_KEYS = {
    "table": ({"vocab", "eos", "rows"}, {"default"}),
    "ngram": ({"kind"}, {"corpus", "corpus_file", "order", "add_k", "eos"}),
    "remote": ({"kind", "url", "vocab", "eos"}, {"timeout", "retries"}),
}


def load_model(path: str | Path) -> ModelInterface:
    """Load a model spec file.

    Accepted shapes: a table-model file ({"vocab", "eos", "rows",
    "default"?}), an n-gram spec ({"kind": "ngram", exactly one of "corpus"
    and "corpus_file", "order"?, "add_k"?, "eos"?}), or a remote endpoint
    ({"kind": "remote", "url", "vocab", "eos", "timeout"?, "retries"?}). A
    key its kind never reads is rejected, so a misspelt optional key cannot
    fall back to its default. Every fault raises LoadError naming the file.
    """
    path = Path(path)
    data = _read_json_object(path, "model file", LoadError)
    kind = data["kind"] if "kind" in data else "table" if "rows" in data else None
    try:
        # A tuple, not the dict: an unhashable "kind" such as [] is no kind.
        if kind not in ("table", "ngram", "remote"):
            raise ValueError("unrecognized spec (no 'rows' and no known 'kind')")
        required, optional = _SPEC_KEYS[kind]
        unknown = sorted(data.keys() - required - optional)
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}; "
                             f"{kind} specs read only {', '.join(map(repr, sorted(required | optional)))}")
        missing = sorted(required - data.keys())
        if missing:
            raise ValueError(f"{kind} spec missing key {', '.join(map(repr, missing))}")
        if kind == "table":
            return _table_lm(data)
        if kind == "ngram":
            return _ngram_lm(data, path.parent)
        from .remote import HttpModelClient  # loads urllib and http, so only here

        timeout = float(_spec_value(data, "timeout", float, 10.0))
        retries = _spec_value(data, "retries", int, 2)
        return HttpModelClient(_vocabulary(data), _spec_value(data, "url", str), timeout=timeout, retries=retries)
    except (ValueError, OverflowError, TrainingError) as exc:
        raise LoadError(f"model file {path}: {exc}") from exc


def _spec_value(data: dict, key: str, kind: type, default: object = None):
    """``data[key]``, else ``default``, checked to be a ``kind`` (see
    ``_is_a``); a float must be finite."""
    value = data.get(key, default)
    if not _is_a(value, kind) or (isinstance(value, float) and not math.isfinite(value)):
        expected = "string" if kind is str else f"finite {kind.__name__}"
        raise ValueError(f"{key!r} must be a {expected}, got {value!r}")
    return value


def _vocabulary(data: dict) -> Vocabulary:
    """The vocabulary named by a spec's "vocab" and "eos" keys."""
    if not is_str_list(data["vocab"]):
        raise ValueError("'vocab' must be a list of strings")
    return Vocabulary.from_tokens(data["vocab"], _spec_value(data, "eos", str))


def _table_lm(data: dict) -> TableLM:
    """The table model of a table spec, validating every row.

    Schema: {"vocab": [str], "eos": str, "rows": [{"context": [str],
    "probs": [num]}], "default": [num] (optional)}. Contexts are generated-
    prefix token lists, each entry one vocabulary token; the empty context is
    the step-0 row.
    """
    vocabulary = _vocabulary(data)
    if not isinstance(data["rows"], list):
        raise ValueError("'rows' must be a list")

    def parse_row(probs: list, what: str) -> StepDistribution:
        if not isinstance(probs, list) or len(probs) != vocabulary.size:
            raise ValueError(f"{what}: probs must be a list of length {vocabulary.size}")
        if not all(map(is_number, probs)):
            raise ValueError(f"{what}: 'probs' must be numbers")
        try:
            return StepDistribution(probs=probs)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{what}: {exc}") from exc

    rows = {}
    for idx, row in enumerate(data["rows"]):
        what = f"row {idx}"
        if not isinstance(row, dict) or "context" not in row or "probs" not in row:
            raise ValueError(f"{what}: needs 'context' and 'probs'")
        if not is_str_list(row["context"]):
            raise ValueError(f"{what}: 'context' must be a list of strings")
        try:
            ctx = vocabulary._lookup(row["context"])
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc
        if ctx in rows:
            raise ValueError(f"{what}: duplicate context {row['context']}")
        rows[ctx] = parse_row(row["probs"], f"{what} (context {row['context']})")

    default = parse_row(data["default"], "default row") if "default" in data else None
    return TableLM(vocabulary=vocabulary, rows=rows, default=default)


def _ngram_lm(data: dict, folder: Path) -> NGramLM:
    """The n-gram model trained as an n-gram spec says; a relative
    "corpus_file" is read from ``folder``, the spec's own."""
    if ("corpus" in data) == ("corpus_file" in data):
        raise ValueError("ngram spec needs 'corpus' text or 'corpus_file', exactly one of the two")
    if "corpus" in data:
        corpus = _spec_value(data, "corpus", str)
    else:
        corpus_path = folder / _spec_value(data, "corpus_file", str)
        try:
            corpus = corpus_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read 'corpus_file' {corpus_path}: {exc}") from exc
    eos = _spec_value(data, "eos", str, "</s>")
    order = _spec_value(data, "order", int, 2)
    add_k = float(_spec_value(data, "add_k", float, 1.0))
    return train_ngram(corpus, order=order, add_k=add_k, eos_token=eos)


def _multipath_config(args: argparse.Namespace) -> MultipathConfig:
    return MultipathConfig(mass_fraction=args.p_star, max_width=args.k_star, max_len=args.max_len)


def _sampler_config(args: argparse.Namespace) -> SamplerConfig:
    return SamplerConfig(top_p=args.top_p, top_k=args.top_k, seed=args.seed, max_len=args.max_len)


def _run_decoder(model: ModelInterface, prompt_ids, args: argparse.Namespace):
    if args.decoder == "greedy":
        return greedy_decode(model, prompt_ids, max_len=args.max_len)
    if args.decoder == "multipath":
        return multipath_decode(model, prompt_ids, _multipath_config(args))
    if args.decoder == "beam":
        return beam_search(model, prompt_ids, BeamConfig(width=args.beam, max_len=args.max_len))
    if args.decoder == "nucleus":
        return nucleus_sample(model, prompt_ids, _sampler_config(args))
    return adaptive_decode(model, prompt_ids, AdaptiveConfig(base_k=args.k_star, seed=args.seed, max_len=args.max_len))


def cmd_decode(args: argparse.Namespace) -> int:
    model = load_model(_required(args, "model"))
    prompt_ids = model.vocabulary.encode(args.prompt)
    result = _run_decoder(model, prompt_ids, args)
    print(json.dumps(result.to_json_dict(), sort_keys=True))
    return 0


def _build_provider(args: argparse.Namespace) -> FeedbackProvider:
    if args.provider == "ground_truth":
        return GroundTruthProvider(timeout=args.timeout)
    if args.provider == "scripted":
        return ScriptedJudgeProvider(fn_rate=args.fn_rate, fp_rate=args.fp_rate, seed=args.seed, timeout=args.timeout)
    from .remote import JudgeClient  # loads urllib and http, so only here

    return JudgeServiceProvider(JudgeClient(_required(args, "judge_url"), timeout=args.timeout))


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via ``<name>.tmp`` and a rename, so a killed
    run leaves the old file or the new one, never part of one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def cmd_bench(args: argparse.Namespace) -> int:
    kinds = args.strategy
    if args.command == "bench" and len(kinds) != 1:
        raise ConfigError("bench takes exactly one --strategy; use compare for several")
    repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise ConfigError(f"--strategy (config key 'strategy') names {', '.join(map(repr, repeated))} more than once")
    # A provider setting that the run would go on without reading: no chosen
    # strategy asks a provider, or another provider is chosen.
    gated = any(kind in FEEDBACK_GATED for kind in kinds)
    for key, reader, unset in (("provider", None, "ground_truth"), ("fn_rate", "scripted", 0.0),
                               ("fp_rate", "scripted", 0.0), ("judge_url", "judge", None)):
        if getattr(args, key) == unset:
            continue
        flag = f"--{key.replace('_', '-')} (config key {key!r})"
        if not gated:
            raise ConfigError(f"{flag} is read only by --strategy {' or '.join(FEEDBACK_GATED)}, "
                              f"not by {', '.join(kinds)}")
        if reader is not None and args.provider != reader:
            raise ConfigError(f"{flag} is read only by --provider {reader}, not by {args.provider}")
    sampler_cfg = _sampler_config(args)
    multipath_cfg = _multipath_config(args)
    provider = _build_provider(args) if gated else None
    model = load_model(_required(args, "model"))
    dataset = load_tasks(_required(args, "dataset"))
    out_dir = Path(_required(args, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    failed_tasks: list[tuple[str, str, str]] = []
    for kind in kinds:
        attempts_path = out_dir / f"attempts_{kind}.jsonl"
        run = run_protocol(
            model, dataset, kind, provider, sampler_cfg, multipath_cfg,
            workers=args.workers,
            resume_path=attempts_path if args.resume else None,
        )
        # Rewrite the attempts log in dataset order so the artifact does not
        # depend on worker scheduling or on how many runs it took.
        _write_atomic(attempts_path, run.to_json_lines())
        for task_id, message in run.errors:
            failed_tasks.append((kind, task_id, message))
        if run.errors:
            continue
        report = score_run(run.pairs, dataset, kind, timeout=args.timeout, workers=args.workers)
        reports.append(report)
        _write_atomic(out_dir / f"report_{kind}.json", report.to_json())

    csv_text = reports_to_csv(reports)
    _write_atomic(out_dir / ("compare.csv" if args.command == "compare" else "report.csv"), csv_text)

    if failed_tasks:
        for kind, task_id, message in failed_tasks:
            print(f"error: {kind}: task {task_id}: {message}", file=sys.stderr)
        print(f"{len(failed_tasks)} task(s) failed; rerun with --resume to retry them", file=sys.stderr)
        return 1
    for line in csv_text.splitlines():
        print(line)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from .oracle import check_exactness, check_pruning, check_reductions, check_samplers, mutated

    for key in ("models", "trials"):
        if getattr(args, key) < 0:
            raise ConfigError(f"--{key} (config key {key!r}) must be >= 0, got {getattr(args, key)!r}")
    with mutated(args.mutate) if args.mutate is not None else nullcontext():
        suites = (
            ("decode-exactness", check_exactness(args.models, args.seed)),
            ("prune-minimality", check_pruning(args.trials, args.seed)),
            ("reductions", check_reductions(max(1, args.models // 4), args.seed)),
            ("samplers", check_samplers(args.models, args.seed)),
        )
    failed = 0
    for name, failures in suites:
        status = "ok" if not failures else f"{len(failures)} failure(s)"
        print(f"{name}: {status}")
        for failure in failures[:10]:
            print(f"  counterexample: {failure}", file=sys.stderr)
        failed += len(failures)
    if args.mutate is not None and failed == 0:
        print(f"mutation {args.mutate!r} was not detected by any check", file=sys.stderr)
        return 1
    return 1 if failed else 0


COMMANDS = {"decode": cmd_decode, "bench": cmd_bench, "compare": cmd_bench, "oracle-check": cmd_oracle_check}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return COMMANDS[args.command](args)
    except (VerificationError, TransportError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, LoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
