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
from collections import namedtuple
from contextlib import nullcontext
from functools import cache
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

_RUNS = ("bench", "compare")
_DECODING = ("decode", *_RUNS)
_EVERY = (*_DECODING, "oracle-check")
COMMAND_HELP = {
    "decode": "decode one prompt, print result JSON",
    "bench": "run one strategy over a dataset, write report files",
    "compare": "run several strategies, write a joined CSV",
    "oracle-check": "cross-check decoders against brute-force oracles",
}

# One CLI setting: its config key (the long flag, underscores for dashes),
# the commands that take it, its help (which may name %(default)s), type,
# default and choices. Its ``form`` is "value", "append" (repeatable, resolves
# to a list), "positional" (optional) or "switch" (on/off, from argv only).
Setting = namedtuple("Setting", "key commands help type default choices form", defaults=(str, None, None, "value"))

# In --help order. decode's --model help names the spec kinds, so --model
# has one row per help text.
SETTINGS = (
    Setting("model", ("decode",), "model spec file (table JSON, ngram spec, or remote spec)"),
    Setting("model", _RUNS, "model spec file"),
    Setting("prompt", ("decode",), "prompt text (default empty)", default="", form="positional"),
    Setting("decoder", ("decode",), "decoder (default %(default)s)", default="multipath", choices=DECODERS),
    Setting("beam", ("decode",), "beam width (default %(default)s)", int, BeamConfig.width),
    Setting("dataset", _RUNS, "dataset JSONL file"),
    Setting("strategy", _RUNS, "strategy kind (repeatable for compare; default %(default)s)",
            default="ftr_indicator", choices=STRATEGY_KINDS, form="append"),
    Setting("provider", _RUNS, "feedback provider (default %(default)s)", default="ground_truth", choices=PROVIDERS),
    Setting("judge_url", _RUNS, "judge service base URL"),
    Setting("fn_rate", _RUNS, "scripted judge false-negative rate (default %(default)s)", float, 0.0),
    Setting("fp_rate", _RUNS, "scripted judge false-positive rate (default %(default)s)", float, 0.0),
    Setting("out", _RUNS, "output directory (required)"),
    Setting("workers", _RUNS, "parallel task workers (default %(default)s)", int, 1),
    Setting("timeout", _RUNS, "verifier/judge timeout in seconds (default %(default)s)", float, 30.0),
    Setting("resume", _RUNS, "reuse completed tasks from the attempts log", bool, False, form="switch"),
    Setting("p_star", _DECODING, "multipath retained mass fraction (default %(default)s)",
            float, MultipathConfig.mass_fraction),
    Setting("k_star", _DECODING, "multipath width cap, also the adaptive sampler's base_k (default %(default)s)",
            int, MultipathConfig.max_width),
    Setting("top_p", _DECODING, "sampler nucleus mass (default %(default)s)", float, SamplerConfig.top_p),
    Setting("top_k", _DECODING, "sampler candidate cap (default %(default)s)", int, SamplerConfig.top_k),
    Setting("max_len", _DECODING, "maximum generated tokens (default %(default)s)", int, MultipathConfig.max_len),
    Setting("models", ("oracle-check",), "random models per decoder check (default %(default)s)", int, 200),
    Setting("trials", ("oracle-check",), "random pruning pools (default %(default)s)", int, 10000),
    Setting("mutate", ("oracle-check",), "inject a deliberate defect, a name in oracle.MUTATIONS (listed in the "
            "README); the checks must then fail"),
    Setting("config", _EVERY, "JSON file supplying defaults for any flag"),
    Setting("seed", _EVERY, "base seed (default %(default)s)", int, 0),
)


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, built from ``SETTINGS`` on first use.
    Each argument defaults to ``argparse.SUPPRESS``, so a parse holds only
    what argv gave."""
    parser = argparse.ArgumentParser(prog="multipath", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, helptext in COMMAND_HELP.items():
        p = sub.add_parser(command, help=helptext, argument_default=argparse.SUPPRESS)
        for s in [s for s in SETTINGS if command in s.commands]:
            flag = s.key if s.form == "positional" else f"--{s.key.replace('_', '-')}"
            text = s.help % {"default": s.default}
            if s.form == "switch":
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=s.type, choices=s.choices, nargs="?" if s.form == "positional" else None,
                               action="append" if s.form == "append" else "store", help=text)
    return parser


def _is_a(value: object, kind: type) -> bool:
    """Whether a JSON value has type ``kind``: a float may also be an int,
    and a bool is never a number (see ``is_number``)."""
    return isinstance(value, str) if kind is str else is_number(value) and (kind is float or isinstance(value, int))


def _check_config_value(setting: Setting, value: object, path: Path) -> None:
    """Raise ConfigError unless ``value`` is one the flag of ``setting``
    could produce: of its type and among its choices, or, for a repeatable
    flag, a string or a nonempty list of them."""
    kind = setting.type
    repeats = setting.form == "append"
    items = value if repeats and isinstance(value, list) and value else [value]
    if not all(_is_a(item, kind) for item in items):
        expected = f"a {kind.__name__} or a nonempty list of them" if repeats else f"a {kind.__name__}"
        raise ConfigError(f"config {path}: {setting.key!r} must be {expected}, got {value!r}")
    if setting.choices is not None and not all(item in setting.choices for item in items):
        raise ConfigError(f"config {path}: {setting.key!r} must be one of {list(setting.choices)}, got {value!r}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv`` once, taking each setting from its flag, else from the
    --config file, else from ``SETTINGS``.

    The namespace holds ``command``, every setting of that command, and
    ``given``: the keys that argv or the config file supplied, whatever
    their values. A null config value supplies nothing.
    """
    given = vars(_parser().parse_args(argv))
    command = given.pop("command")
    settings = {s.key: s for s in SETTINGS if command in s.commands}
    if "config" in given:
        path = Path(given["config"])
        config = _read_json_object(path, "config", ConfigError)
        unknown = sorted(config.keys() - {s.key for s in SETTINGS})
        if unknown:
            raise ConfigError(
                f"config {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                "keys are long flag names with dashes as underscores"
            )
        config = {key: value for key, value in config.items()
                  if key in settings and settings[key].form != "switch" and value is not None}
        for key, value in config.items():
            _check_config_value(settings[key], value, path)
        # Merged whole, so an explicit --strategy list replaces the config's.
        given = config | given
    values = {key: s.default for key, s in settings.items()} | given
    if isinstance(values.get("strategy"), str):  # the default, or one config strategy
        values["strategy"] = [values["strategy"]]
    if "timeout" in values:
        try:
            check_timeout(values["timeout"], "--timeout (config key 'timeout')")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return argparse.Namespace(command=command, given=frozenset(given), **values)


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
    for key, reader in (("provider", None), ("fn_rate", "scripted"), ("fp_rate", "scripted"), ("judge_url", "judge")):
        if key not in args.given:
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
    from . import oracle

    for key in ("models", "trials"):
        if getattr(args, key) < 0:
            raise ConfigError(f"--{key} (config key {key!r}) must be >= 0, got {getattr(args, key)!r}")
    if args.mutate is not None and args.mutate not in oracle.MUTATIONS:
        raise ConfigError(f"--mutate (config key 'mutate') {args.mutate!r} is none of {sorted(oracle.MUTATIONS)}")
    with oracle.mutated(args.mutate) if args.mutate is not None else nullcontext():
        suites = (
            ("decode-exactness", oracle.check_exactness(args.models, args.seed)),
            ("prune-minimality", oracle.check_pruning(args.trials, args.seed)),
            ("reductions", oracle.check_reductions(max(1, args.models // 4), args.seed)),
            ("samplers", oracle.check_samplers(args.models, args.seed)),
            ("step-pools", oracle.check_steps(args.models, args.seed)),
            ("wire-rows", oracle.check_wire_rows(args.models, args.seed)),
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
