"""Command-line entry point.

Commands:
  decode        run one decoder on one prompt, print the result JSON
  bench         run a correction strategy over a dataset, write reports
  compare       run several strategies, write one joined CSV
  oracle-check  cross-check the decoders against brute-force oracles

A JSON config file (--config) can supply any flag value under its long name
with dashes as underscores; explicit flags win. All outputs are
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
from pathlib import Path

from .correction import (
    CorrectionStrategy,
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
from .errors import ConfigError, LoadError, MultipathError, ProtocolError, TransportError, VerificationError
from .evaluation import reports_to_csv, score_run
from .models import ModelInterface, load_table_lm, train_ngram, vocabulary_from_spec
from .oracle import check_exactness, check_pruning, check_reductions
from .remote import HttpModelClient, JudgeClient
from .tasks import load_tasks

DECODERS = ("greedy", "multipath", "beam", "nucleus", "adaptive")
PROVIDERS = ("ground_truth", "scripted", "judge")

DEFAULTS = {
    "decoder": "multipath",
    "strategy": ["ftr_indicator"],
    "provider": "ground_truth",
    "p_star": 0.9,
    "k_star": 7,
    "top_p": 0.95,
    "top_k": 15,
    "beam": 4,
    "seed": 0,
    "max_len": 128,
    "fn_rate": 0.0,
    "fp_rate": 0.0,
    "workers": 1,
    "timeout": 30.0,
    "models": 200,
    "trials": 10000,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying defaults for any flag")
    parser.add_argument("--seed", type=int, help="base seed (default 0)")


def _add_decoder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--decoder", choices=DECODERS, help="decoder for the decode command (default multipath)")
    parser.add_argument("--p-star", dest="p_star", type=float, help="multipath retained mass fraction (default 0.9)")
    parser.add_argument("--k-star", dest="k_star", type=int, help="multipath width cap (default 7)")
    parser.add_argument("--top-p", dest="top_p", type=float, help="sampler nucleus mass (default 0.95)")
    parser.add_argument("--top-k", dest="top_k", type=int, help="sampler candidate cap (default 15)")
    parser.add_argument("--beam", type=int, help="beam width (default 4)")
    parser.add_argument("--max-len", dest="max_len", type=int, help="maximum generated tokens (default 128)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multipath", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode one prompt, print result JSON")
    p_decode.add_argument("--model", help="model spec file (table JSON, ngram spec, or remote spec)")
    p_decode.add_argument("prompt", nargs="?", default="", help="prompt text (default empty)")
    _add_decoder_flags(p_decode)
    _add_common(p_decode)

    for name, helptext in (
        ("bench", "run one strategy over a dataset, write report files"),
        ("compare", "run several strategies, write a joined CSV"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--model", help="model spec file")
        p.add_argument("--dataset", help="dataset JSONL file")
        p.add_argument("--strategy", action="append",
                       help="strategy kind (repeatable for compare)")
        p.add_argument("--provider", choices=PROVIDERS, help="feedback provider (default ground_truth)")
        p.add_argument("--judge-url", dest="judge_url", help="judge service base URL")
        p.add_argument("--fn-rate", dest="fn_rate", type=float, help="scripted judge false-negative rate")
        p.add_argument("--fp-rate", dest="fp_rate", type=float, help="scripted judge false-positive rate")
        p.add_argument("--out", help="output directory (required)")
        p.add_argument("--workers", type=int, help="parallel task workers (default 1)")
        p.add_argument("--timeout", type=float, help="verifier/judge timeout in seconds (default 30)")
        p.add_argument("--resume", action="store_true", help="reuse completed tasks from the attempts log")
        _add_decoder_flags(p)
        _add_common(p)

    p_oracle = sub.add_parser("oracle-check", help="cross-check decoders against brute-force oracles")
    p_oracle.add_argument("--models", type=int, help="random models per decoder check (default 200)")
    p_oracle.add_argument("--trials", type=int, help="random pruning pools (default 10000)")
    p_oracle.add_argument("--mutate", choices=("prune-off-by-one", "selection-max-prob"),
                          help="inject a deliberate defect; the check must then fail")
    _add_common(p_oracle)
    return parser


def _flag_types() -> dict[str, tuple[type, bool]]:
    """Config-file key -> (the type argparse converts that flag's value to,
    whether the flag repeats), over the value-taking flags of every command."""
    [commands] = [action.choices for action in build_parser()._actions if isinstance(action.choices, dict)]
    return {
        action.dest: (action.type or str, isinstance(action, argparse._AppendAction))
        for command in commands.values() for action in command._actions if action.nargs != 0
    }


def _is_a(value: object, kind: type) -> bool:
    """Whether a JSON value has type ``kind``: a float may also be an int,
    and a bool is never a number."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _check_config_types(config: dict, path: Path) -> None:
    types = _flag_types()
    for key, value in config.items():
        if key not in types or value is None:
            continue
        kind, repeats = types[key]
        if _is_a(value, kind) or (repeats and isinstance(value, list) and all(_is_a(v, kind) for v in value)):
            continue
        expected = f"a {kind.__name__} or a list of them" if repeats else f"a {kind.__name__}"
        raise ConfigError(f"config {path}: {key!r} must be {expected}, got {value!r}")


class Settings:
    """Flag value, else config-file value, else built-in default."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config: dict = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            try:
                self._config = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
            if not isinstance(self._config, dict):
                raise ConfigError(f"config {path}: top level must be an object")
            _check_config_types(self._config, path)

    def get(self, key: str, required: bool = False):
        value = getattr(self._args, key, None)
        if value is None:
            value = self._config.get(key)
        if value is None:
            value = DEFAULTS.get(key)
        if value is None and required:
            raise ConfigError(f"missing required setting --{key.replace('_', '-')}")
        return value


def _spec_number(data: dict, key: str, default: float, path: Path, kind: type = float):
    """``data[key]``, else ``default``, checked to be a finite ``kind`` (see ``_is_a``)."""
    value = data.get(key, default)
    if not _is_a(value, kind) or (isinstance(value, float) and not math.isfinite(value)):
        raise LoadError(f"model file {path}: {key!r} must be a finite {kind.__name__}, got {value!r}")
    return value


def load_model(path: str | Path) -> ModelInterface:
    """Load a model spec file.

    Accepted shapes: a table-model file ({"vocab", "eos", "rows", ...}), an
    n-gram spec ({"kind": "ngram", "corpus"|"corpus_file", "order",
    "add_k", "eos"?}), or a remote endpoint ({"kind": "remote", "url",
    "vocab", "eos", "timeout"?, "retries"?}).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise LoadError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise LoadError(f"model file {path}: top level must be an object")

    kind = data.get("kind")
    if kind is None and "rows" in data:
        return load_table_lm(path)
    if kind == "ngram":
        corpus = data.get("corpus")
        if corpus is None and "corpus_file" in data:
            if not isinstance(data["corpus_file"], str):
                raise LoadError(f"model file {path}: 'corpus_file' must be a string")
            corpus_path = Path(data["corpus_file"])
            if not corpus_path.is_absolute():
                corpus_path = path.parent / corpus_path
            try:
                corpus = corpus_path.read_text(encoding="utf-8")
            except OSError as exc:
                raise LoadError(f"cannot read corpus {corpus_path}: {exc}") from exc
        if not isinstance(corpus, str):
            raise LoadError(f"model file {path}: ngram spec needs 'corpus' text or 'corpus_file'")
        eos = data.get("eos", "</s>")
        if not isinstance(eos, str):
            raise LoadError(f"model file {path}: 'eos' must be a string")
        order = _spec_number(data, "order", 2, path, int)
        add_k = float(_spec_number(data, "add_k", 1.0, path))
        try:
            return train_ngram(corpus, order=order, add_k=add_k, eos_token=eos)
        except (ValueError, MultipathError) as exc:
            raise LoadError(f"model file {path}: {exc}") from exc
    if kind == "remote":
        for key in ("url", "vocab", "eos"):
            if key not in data:
                raise LoadError(f"model file {path}: remote spec missing {key!r}")
        if not isinstance(data["url"], str):
            raise LoadError(f"model file {path}: 'url' must be a string")
        return HttpModelClient(
            vocabulary_from_spec(data, path),
            data["url"],
            timeout=float(_spec_number(data, "timeout", 10.0, path)),
            retries=_spec_number(data, "retries", 2, path, int),
        )
    raise LoadError(f"model file {path}: unrecognized spec (no 'rows' and no known 'kind')")


def _multipath_config(settings: Settings) -> MultipathConfig:
    return MultipathConfig(
        mass_fraction=settings.get("p_star"),
        max_width=settings.get("k_star"),
        max_len=settings.get("max_len"),
    )


def _sampler_config(settings: Settings) -> SamplerConfig:
    return SamplerConfig(
        top_p=settings.get("top_p"), top_k=settings.get("top_k"),
        seed=settings.get("seed"), max_len=settings.get("max_len"),
    )


def _run_decoder(model: ModelInterface, prompt_ids, settings: Settings):
    decoder = settings.get("decoder")
    max_len = settings.get("max_len")
    if decoder == "greedy":
        return greedy_decode(model, prompt_ids, max_len=max_len)
    if decoder == "multipath":
        return multipath_decode(model, prompt_ids, _multipath_config(settings))
    if decoder == "beam":
        return beam_search(model, prompt_ids, BeamConfig(width=settings.get("beam"), max_len=max_len))
    if decoder == "nucleus":
        return nucleus_sample(model, prompt_ids, _sampler_config(settings))
    if decoder == "adaptive":
        cfg = AdaptiveConfig(base_k=settings.get("k_star"), seed=settings.get("seed"), max_len=max_len)
        return adaptive_decode(model, prompt_ids, cfg)
    raise ConfigError(f"unknown decoder {decoder!r}")


def cmd_decode(settings: Settings) -> int:
    model = load_model(settings.get("model", required=True))
    prompt_text = settings.get("prompt") or ""
    prompt_ids = model.vocabulary.encode(prompt_text)
    result = _run_decoder(model, prompt_ids, settings)
    print(json.dumps(result.to_json_dict(), sort_keys=True))
    return 0


def _build_provider(settings: Settings) -> FeedbackProvider:
    provider = settings.get("provider")
    timeout = settings.get("timeout")
    if provider == "ground_truth":
        return GroundTruthProvider(timeout=timeout)
    if provider == "scripted":
        return ScriptedJudgeProvider(
            fn_rate=settings.get("fn_rate"),
            fp_rate=settings.get("fp_rate"),
            seed=settings.get("seed"),
            timeout=timeout,
        )
    if provider == "judge":
        url = settings.get("judge_url", required=True)
        return JudgeServiceProvider(JudgeClient(url, timeout=timeout))
    raise ConfigError(f"unknown provider {provider!r}")


def _run_one_strategy(model, dataset, kind: str, settings: Settings, out_dir: Path, resume: bool):
    if kind == "ftr_indicator":
        strategy = CorrectionStrategy(kind=kind, multipath_cfg=_multipath_config(settings))
    else:
        strategy = CorrectionStrategy(kind=kind)
    provider = _build_provider(settings) if strategy.needs_feedback else None
    attempts_path = out_dir / f"attempts_{kind}.jsonl"
    run = run_protocol(
        model, dataset, strategy, provider, _sampler_config(settings),
        workers=settings.get("workers"),
        resume_path=attempts_path if resume else None,
    )
    # Rewrite the attempts log in dataset order so the artifact does not
    # depend on worker scheduling or on how many runs it took.
    _write_atomic(attempts_path, run.to_json_lines())
    return run, strategy


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


def cmd_bench(settings: Settings, kinds: list[str], resume: bool) -> int:
    model = load_model(settings.get("model", required=True))
    dataset = load_tasks(settings.get("dataset", required=True))
    out_dir = Path(settings.get("out", required=True))
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    failed_tasks: list[tuple[str, str, str]] = []
    for kind in kinds:
        run, strategy = _run_one_strategy(model, dataset, kind, settings, out_dir, resume)
        for task_id, message in run.errors:
            failed_tasks.append((kind, task_id, message))
        if run.errors:
            continue
        report = score_run(
            run.pairs, dataset, strategy.kind,
            timeout=settings.get("timeout"), workers=settings.get("workers"),
        )
        reports.append(report)
        _write_atomic(out_dir / f"report_{kind}.json", report.to_json())

    csv_text = reports_to_csv(reports)
    _write_atomic(out_dir / ("compare.csv" if len(kinds) > 1 else "report.csv"), csv_text)

    if failed_tasks:
        for kind, task_id, message in failed_tasks:
            print(f"error: {kind}: task {task_id}: {message}", file=sys.stderr)
        print(f"{len(failed_tasks)} task(s) failed; rerun with --resume to retry them", file=sys.stderr)
        return 1
    for line in csv_text.splitlines():
        print(line)
    return 0


def cmd_oracle_check(settings: Settings, mutate: str | None) -> int:
    models = settings.get("models")
    trials = settings.get("trials")
    seed = settings.get("seed")
    suites = (
        ("decode-exactness", check_exactness(models, seed, mutate=mutate if mutate == "selection-max-prob" else None)),
        ("prune-minimality", check_pruning(trials, seed, mutate=mutate if mutate == "prune-off-by-one" else None)),
        ("reductions", check_reductions(max(1, models // 4), seed)),
    )
    failed = 0
    for name, failures in suites:
        status = "ok" if not failures else f"{len(failures)} failure(s)"
        print(f"{name}: {status}")
        for failure in failures[:10]:
            print(f"  counterexample: {failure}", file=sys.stderr)
        failed += len(failures)
    if mutate is not None and failed == 0:
        print(f"mutation {mutate!r} was not detected by any check", file=sys.stderr)
        return 1
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = Settings(args)
        if args.command == "decode":
            return cmd_decode(settings)
        if args.command in ("bench", "compare"):
            kinds = settings.get("strategy")
            if isinstance(kinds, str):
                kinds = [kinds]
            if args.command == "bench" and len(kinds) != 1:
                raise ConfigError("bench takes exactly one --strategy; use compare for several")
            return cmd_bench(settings, kinds, resume=bool(getattr(args, "resume", False)))
        if args.command == "oracle-check":
            return cmd_oracle_check(settings, args.mutate)
        raise ConfigError(f"unknown command {args.command!r}")
    except (VerificationError, TransportError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, LoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
