"""Command-line interface: decode/compare/oracle-check, model sniffing."""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import urllib.request

import pytest
from conftest import run_seeded

from multipath import cli, correction, oracle
from multipath.cli import load_model, main, parse_args
from multipath.correction import GroundTruthProvider
from multipath.decoding import (
    AdaptiveConfig,
    BeamConfig,
    MultipathConfig,
    SamplerConfig,
    adaptive_decode,
    nucleus_sample,
)
from multipath.errors import LoadError
from multipath.models import NGramLM, TableLM, Vocabulary
from multipath.oracle import MUTATIONS, random_model
from multipath.remote import HttpModelClient
from multipath.tasks import load_tasks


@pytest.fixture
def trap_path(data_dir):
    return str(data_dir / "greedy_trap.json")


@pytest.fixture
def toy_model_path(data_dir):
    return str(data_dir / "toy_table_lm.json")


@pytest.fixture
def toy_dataset_path(data_dir):
    return str(data_dir / "toy_math.jsonl")


# ---------------------------------------------------------------------------
# settings


def test_settings_precedence_flag_config_default(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"top_k": 3, "top_p": 0.5, "strategy": ["none", "critic_prompt"]}), encoding="utf-8")
    args = parse_args(["compare", "--config", str(config), "--top-k", "9"])
    assert args.top_k == 9  # flag wins
    assert args.top_p == 0.5  # config beats default
    assert args.max_len == MultipathConfig.max_len  # default fallback
    assert args.strategy == ["none", "critic_prompt"]
    # an explicit --strategy replaces the config list rather than extending it
    assert parse_args(["compare", "--config", str(config), "--strategy", "ioe_prompt"]).strategy == ["ioe_prompt"]
    assert parse_args(["compare"]).strategy == ["ftr_indicator"]
    # given: what argv or the config named, never a default
    assert args.given == {"config", "top_k", "top_p", "strategy"}
    assert parse_args(["compare"]).given == parse_args(["decode"]).given == frozenset()
    assert parse_args(["compare", "--resume", "--strategy", "none"]).given == {"resume", "strategy"}
    assert parse_args(["decode", "", "--seed", "0"]).given == {"prompt", "seed"}


def test_the_parser_is_built_once_and_argv_is_parsed_once_per_call(monkeypatch, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"top_k": 3}), encoding="utf-8")
    cli._parser.cache_clear()
    built, parsed = [], []
    init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_known_args

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_parse(self, *args, **kwargs):
        parsed.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted_parse)
    for argv in (["decode"], ["compare", "--config", str(config)], ["oracle-check", "--seed", "2"]):
        parse_args(argv)
    assert len(built) == 1 + len(cli.COMMANDS)  # the top level and one per command
    assert parsed.count(cli._parser()) == 3


def test_settings_bad_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{broken", encoding="utf-8")
    rc = main(["decode", "--config", str(config), "--model", "x.json"])
    assert rc == 2


@pytest.mark.parametrize("command, values, key", [
    ("decode", {"k_star": "7"}, "k_star"),
    ("compare", {"workers": "2"}, "workers"),
    ("decode", {"p_star": True}, "p_star"),
    ("decode", {"max_len": 2.0}, "max_len"),
    ("compare", {"strategy": ["none", 3]}, "strategy"),
    ("decode", {"decoder": 1}, "decoder"),
    ("decode", {"decoder": "foo"}, "decoder"),
    ("compare", {"provider": "foo"}, "provider"),
    ("compare", {"strategy": []}, "strategy"),
    ("compare", {"strategy": ["none", "bogus"]}, "strategy"),
])
def test_config_value_of_the_wrong_type_exits_2(capsys, tmp_path, trap_path, toy_dataset_path, command, values, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    argv = [command, "--model", trap_path, "--config", str(config)]
    if command != "decode":
        argv += ["--dataset", toy_dataset_path, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and str(config) in err


def test_config_values_of_the_flag_types_are_accepted(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p_star": 1, "k_star": 3, "strategy": ["none"], "resume": True}), encoding="utf-8")
    args = parse_args(["compare", "--config", str(config)])
    # store-true flags are not read from the config
    assert (args.p_star, args.k_star, args.strategy, args.resume) == (1, 3, ["none"], False)


def test_misspelt_config_key_exits_2(capsys, tmp_path, trap_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kstar": 1, "k-star": 1}), encoding="utf-8")
    assert main(["decode", "--model", trap_path, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "'kstar'" in err and "'k-star'" in err and str(config) in err


def test_config_key_of_another_command_is_ignored(capsys, tmp_path, trap_path):
    # one config file can serve every command
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k_star": 1, "timeout": 5.0, "models": 3, "resume": True}), encoding="utf-8")
    assert main(["decode", "--model", trap_path, "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["k_trace"] == [1, 1]


def code_task_dataset(tmp_path):
    dataset = tmp_path / "code.jsonl"
    task = {"id": "c1", "prompt": "solve item 1", "verify_cmd": ["true"], "domain": "code"}
    dataset.write_text(json.dumps(task) + "\n", encoding="utf-8")
    return str(dataset)


# 1e300 is finite, but a socket or subprocess wait that long raises OverflowError.
@pytest.mark.parametrize("timeout", [-1, 0, "nan", "inf", "1e300"])
def test_bench_timeout_flag_must_be_positive(capsys, tmp_path, toy_model_path, timeout):
    argv = ["compare", "--model", toy_model_path, "--dataset", code_task_dataset(tmp_path), "--strategy", "ftr_indicator",
            "--out", str(tmp_path / "out"), "--timeout", str(timeout)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "(config key 'timeout') must be > 0" in err and "--resume" not in err
    assert not (tmp_path / "out").exists()


def test_bench_timeout_config_must_be_positive(capsys, tmp_path, toy_model_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"timeout": -1}), encoding="utf-8")
    argv = ["compare", "--model", toy_model_path, "--dataset", code_task_dataset(tmp_path), "--strategy", "ftr_indicator",
            "--out", str(tmp_path / "out"), "--config", str(config)]
    assert main(argv) == 2
    assert "(config key 'timeout') must be > 0" in capsys.readouterr().err
    # a valid flag wins over the bad config value
    assert main(argv + ["--timeout", "5"]) == 0


@pytest.mark.parametrize("flags, config", [
    (["--workers", "0"], None),
    (["--workers", "-1"], None),
    ([], {"workers": 0}),
], ids=["flag-0", "flag-negative", "config-0"])
def test_workers_below_one_exits_2_before_anything_is_written(capsys, tmp_path, toy_model_path, toy_dataset_path,
                                                              flags, config):
    out = tmp_path / "out"
    argv = ["compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
            "--strategy", "none", "--out", str(out), *flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert "--workers (config key 'workers') must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_prompt_is_decoded(capsys, tmp_path, trap_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"prompt": "zebra"}), encoding="utf-8")
    assert main(["decode", "--model", trap_path, "--config", str(config)]) == 2
    assert "'zebra' not in vocabulary" in capsys.readouterr().err


def test_decode_defaults_are_the_decoder_config_defaults(capsys):
    defaults = {
        "p_star": MultipathConfig.mass_fraction, "k_star": MultipathConfig.max_width,
        "top_p": SamplerConfig.top_p, "top_k": SamplerConfig.top_k,
        "beam": BeamConfig.width, "max_len": MultipathConfig.max_len,
    }
    args = parse_args(["decode"])
    assert {key: getattr(args, key) for key in defaults} == defaults
    with pytest.raises(SystemExit):
        main(["decode", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key, value in defaults.items():
        flag = f"--{key.replace('_', '-')} {key.upper()}"
        assert re.search(rf"{flag} [^()]*\(default {re.escape(str(value))}\)", text), flag


# ---------------------------------------------------------------------------
# decode


def test_decode_default_multipath_beats_the_trap(capsys, trap_path):
    rc = main(["decode", "--model", trap_path])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["text"] == "a $"
    assert set(data) == {
        "tokens", "text", "cum_logprob", "ppl", "k_trace", "tokens_generated", "candidates",
    }


def test_decode_greedy_falls_into_the_trap(capsys, trap_path):
    rc = main(["decode", "--model", trap_path, "--decoder", "greedy"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["text"] == "b $"


def test_decode_beam_two(capsys, trap_path):
    rc = main(["decode", "--model", trap_path, "--decoder", "beam", "--beam", "2", "--max-len", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["text"] == "a $"


def test_decode_respects_max_len_and_width(capsys, trap_path):
    rc = main(["decode", "--model", trap_path, "--p-star", "0.9", "--k-star", "7", "--max-len", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k_trace"] == [2, 4]
    assert data["tokens_generated"] == 3


# On the trap model these flags give a result that differs from the one
# each decoder gives at its defaults.
@pytest.mark.parametrize("decoder, flags, decode", [
    ("nucleus", ["--top-p", "0.8", "--top-k", "2", "--seed", "1", "--max-len", "6"],
     lambda model: nucleus_sample(model, (), SamplerConfig(top_p=0.8, top_k=2, max_len=6), 1)),
    ("adaptive", ["--k-star", "2", "--seed", "1", "--max-len", "6"],
     lambda model: adaptive_decode(model, (), AdaptiveConfig(base_k=2, max_len=6), 1)),
])
def test_decode_samplers_print_the_library_result(capsys, trap_path, decoder, flags, decode):
    assert main(["decode", "--model", trap_path, "--decoder", decoder, *flags]) == 0
    expected = decode(load_model(trap_path)).to_json_dict()
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


def test_decode_unreachable_remote_model_exits_1(capsys, tmp_path):
    spec = tmp_path / "remote.json"
    spec.write_text(json.dumps(dict(REMOTE_SPEC, url="http://127.0.0.1:9/model", timeout=0.5, retries=0)))
    assert main(["decode", "--model", str(spec)]) == 1
    assert capsys.readouterr().err.startswith("error: POST http://127.0.0.1:9/model")


def test_decode_with_prompt_argument(capsys, toy_model_path):
    rc = main(["decode", "--model", toy_model_path, "--decoder", "greedy", "solve item 3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["text"] == "[3] $"


# The n-gram model is trained from the corpus file at load time, so these
# bytes pin the trained vocabulary order (the log/mat tie goes to the lower
# id) and the rows the decoder reads.
NGRAM_DECODE_OUT = (
    '{"candidates": ['
    '{"cum_logprob": -7.393263094763838, "ppl": 4.387030694931628, "text": "sat on the log </s>", '
    '"tokens": ["sat", "on", "the", "log", "</s>"]}, '
    '{"cum_logprob": -7.393263094763838, "ppl": 4.387030694931628, "text": "sat on the mat </s>", '
    '"tokens": ["sat", "on", "the", "mat", "</s>"]}, '
    '{"cum_logprob": -6.1515499624550545, "ppl": 4.654746681256313, "text": "saw the dog </s>", '
    '"tokens": ["saw", "the", "dog", "</s>"]}, '
    '{"cum_logprob": -3.2188758248682006, "ppl": 4.999999999999999, "text": "sat </s>", '
    '"tokens": ["sat", "</s>"]}], '
    '"cum_logprob": -7.393263094763838, "k_trace": [5, 5, 5, 5, 5, 5], '
    '"ppl": 4.387030694931628, "text": "sat on the log </s>", "tokens": ["sat", "on", "the", "log", "</s>"], '
    '"tokens_generated": 22}\n'
)


def test_decode_ngram_corpus_file_prints_pinned_bytes(capsys, tmp_path):
    corpus = b"the cat sat on the mat\n\nthe dog sat on the log\n   \nthe cat saw the dog\r\na dog and a cat sat\n\n"
    (tmp_path / "corpus.txt").write_bytes(corpus)
    spec = tmp_path / "ngram.json"
    spec.write_text(json.dumps({"kind": "ngram", "corpus_file": "corpus.txt", "order": 2, "add_k": 0.5}))
    rc = main(["decode", "--model", str(spec), "--p-star", "0.9", "--k-star", "5", "--max-len", "6", "the cat"])
    assert rc == 0
    assert capsys.readouterr().out == NGRAM_DECODE_OUT


def test_decode_missing_model_file_exits_2(capsys):
    rc = main(["decode", "--model", "/nonexistent/model.json"])
    assert rc == 2
    assert "model.json" in capsys.readouterr().err


def test_decode_unencodable_prompt_exits_2(capsys, trap_path):
    rc = main(["decode", "--model", trap_path, "zebra"])
    assert rc == 2
    assert "not in vocabulary" in capsys.readouterr().err


def test_missing_required_model_flag_exits_2(capsys):
    rc = main(["decode"])
    assert rc == 2
    assert "--model" in capsys.readouterr().err


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_decoder_choice_exits_2(trap_path):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--model", trap_path, "--decoder", "magic"])
    assert exc.value.code == 2


def test_config_file_supplies_decoder(capsys, tmp_path, trap_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"decoder": "greedy"}), encoding="utf-8")
    rc = main(["decode", "--model", trap_path, "--config", str(config)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["text"] == "b $"
    # explicit flag overrides the config file
    rc = main(["decode", "--model", trap_path, "--config", str(config), "--decoder", "multipath"])
    assert json.loads(capsys.readouterr().out)["text"] == "a $"


# ---------------------------------------------------------------------------
# model sniffing


def test_load_model_table(trap_path):
    model = load_model(trap_path)
    assert isinstance(model, TableLM)
    assert model.vocabulary.tokens == ("a", "b", "$")


def test_load_model_ngram_inline(tmp_path):
    spec = tmp_path / "ngram.json"
    spec.write_text(json.dumps({"kind": "ngram", "corpus": "a b a b", "order": 1, "add_k": 1.0}))
    model = load_model(spec)
    assert isinstance(model, NGramLM)
    assert model.order == 1


def test_load_model_ngram_corpus_file_is_relative_to_spec(tmp_path):
    (tmp_path / "corpus.txt").write_text("a b\nb a\n", encoding="utf-8")
    spec = tmp_path / "ngram.json"
    spec.write_text(json.dumps({"kind": "ngram", "corpus_file": "corpus.txt", "order": 2}))
    model = load_model(spec)
    assert isinstance(model, NGramLM)
    assert model.order == 2


def test_load_model_ngram_missing_corpus(tmp_path):
    spec = tmp_path / "ngram.json"
    spec.write_text(json.dumps({"kind": "ngram", "order": 1}))
    with pytest.raises(LoadError, match="needs 'corpus'"):
        load_model(spec)


def test_load_model_remote_spec(tmp_path):
    spec = tmp_path / "remote.json"
    spec.write_text(json.dumps({
        "kind": "remote", "url": "http://127.0.0.1:1/model",
        "vocab": ["a", "b", "$"], "eos": "$",
    }))
    model = load_model(spec)
    assert isinstance(model, HttpModelClient)
    assert model.vocabulary.eos_token == "$"


def test_load_model_remote_spec_missing_field(tmp_path):
    spec = tmp_path / "remote.json"
    spec.write_text(json.dumps({"kind": "remote", "url": "http://x"}))
    with pytest.raises(LoadError, match="remote spec missing key 'eos', 'vocab'"):
        load_model(spec)


REMOTE_SPEC = {"kind": "remote", "url": "http://127.0.0.1:1/model", "vocab": ["a", "b", "$"], "eos": "$"}
NGRAM_SPEC = {"kind": "ngram", "corpus": "a b a b"}
TABLE_SPEC = {"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": [0.5, 0.5]}]}


@pytest.mark.parametrize("spec, key", [
    (dict(REMOTE_SPEC, timeout=None), "timeout"),
    (dict(REMOTE_SPEC, timeout=True), "timeout"),
    (dict(REMOTE_SPEC, retries=[1]), "retries"),
    (dict(REMOTE_SPEC, retries=1.5), "retries"),
    (dict(REMOTE_SPEC, vocab="ab$"), "vocab"),
    (dict(REMOTE_SPEC, eos=["$"]), "eos"),
    (dict(REMOTE_SPEC, url=80), "url"),
    (dict(NGRAM_SPEC, order=None), "order"),
    (dict(NGRAM_SPEC, order="2"), "order"),
    (dict(NGRAM_SPEC, add_k=None), "add_k"),
    (dict(NGRAM_SPEC, add_k=float("nan")), "add_k"),
    (dict(NGRAM_SPEC, eos=0), "eos"),
    ({"kind": "ngram", "corpus_file": 1}, "corpus_file"),
    (dict(TABLE_SPEC, vocab="a$"), "vocab"),
    (dict(TABLE_SPEC, vocab=["a", 1, "$"]), "vocab"),
    (dict(TABLE_SPEC, rows={}), "rows"),
    (dict(TABLE_SPEC, rows=[{"context": "a", "probs": [0.5, 0.5]}]), "context"),
    (dict(TABLE_SPEC, rows=[{"context": [], "probs": ["0.5", 0.5]}]), "probs"),
    (dict(TABLE_SPEC, rows=[{"context": [], "probs": [True, False]}]), "probs"),
    (dict(REMOTE_SPEC, timeout=-1), "timeout"),
    (dict(REMOTE_SPEC, retries=-1), "retries"),
    (dict(TABLE_SPEC, rows=[["a"]]), "context"),
    ({"kind": "ngram", "corpus_file": "absent.txt"}, "corpus_file"),
    ({"kind": "ngram", "corpus": 1}, "corpus"),
    (dict(REMOTE_SPEC, timeout=1e300), "timeout"),
])
def test_load_model_rejects_wrong_json_types_with_exit_2(capsys, tmp_path, spec, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["decode", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and str(path) in err


@pytest.mark.parametrize("spec, match", [
    ([REMOTE_SPEC], "top level must be an object"),
    (dict(TABLE_SPEC, vocab=["a", "a", "$"]), "vocabulary tokens must be unique"),
    (dict(NGRAM_SPEC, corpus=""), "corpus is empty"),
    # A key the spec's kind never reads is a misspelling, not a default.
    (dict(NGRAM_SPEC, addk=0.5), "unknown key(s) 'addk'; ngram specs read only 'add_k', 'corpus'"),
    (dict(REMOTE_SPEC, timout=1, retry=0), "unknown key(s) 'retry', 'timout'; remote specs read only"),
    (dict(TABLE_SPEC, kind="table"), "unknown key(s) 'kind'; table specs read only 'default', 'eos', 'rows'"),
    (dict(TABLE_SPEC, defualt=[0.5, 0.5]), "unknown key(s) 'defualt'"),
    # corpus_file would be ignored, even though it is not a string
    (dict(NGRAM_SPEC, corpus="a b c\nb c a", corpus_file=5, order=1),
     "ngram spec needs 'corpus' text or 'corpus_file', exactly one of the two"),
    (dict(REMOTE_SPEC, url="file:///tmp/reply.json"), "the URL must be http:// or https://, got 'file:///tmp/reply.json'"),
    # An unhashable kind is no kind, not a TypeError.
    ({"kind": []}, "unrecognized spec"),
    ({"kind": 3}, "unrecognized spec"),
    # Refused when the spec is read, not at the first request.
    (dict(REMOTE_SPEC, url="http://"), "the URL names no host, got 'http://'"),
    (dict(REMOTE_SPEC, url="http://127.0.0.1:notaport"), "the URL's port is invalid"),
    (dict(REMOTE_SPEC, url="http://127.0.0.1:99999"), "the URL's port is invalid"),
])
def test_load_model_rejects_bad_values_with_exit_2(capsys, tmp_path, spec, match):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["decode", "--model", str(path)]) == 2
    assert f"error: model file {path}: {match}" in capsys.readouterr().err


# 5,001 digits: json.loads raises a plain ValueError for an integer past
# CPython's int-string limit of 4,300 digits, not a JSONDecodeError.
OVERLONG_INT = "1" + "0" * 5000


@pytest.mark.parametrize("where, rc, message", [
    ("dataset", 2, "error: dataset {path} line 1: invalid JSON: Exceeds the limit"),
    ("spec", 2, "error: model file {path} is not valid JSON: Exceeds the limit"),
    ("config", 2, "error: config {path} is not valid JSON: Exceeds the limit"),
    # a malformed reply is a protocol error against the task, not the end of the run
    ("wire", 1, "error: none: task t1: ProtocolError: POST {url}: response is not valid JSON: Exceeds the limit"),
], ids=["dataset", "spec", "config", "wire"])
def test_an_integer_past_the_digit_limit_is_malformed_input(
    capsys, monkeypatch, tmp_path, trap_path, where, rc, message
):
    path = tmp_path / where
    model, dataset, config = trap_path, tmp_path / "tasks.jsonl", []
    dataset.write_text(json.dumps({"id": "t1", "prompt": "a", "domain": "code", "verify_cmd": ["true"]}) + "\n")
    if where == "dataset":
        path.write_text(f'{{"id": "t1", "prompt": "a", "domain": "math", "answer": {OVERLONG_INT}}}\n')
        dataset = path
    elif where == "spec":
        path.write_text(f'{{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [{OVERLONG_INT}, 0]}}')
        model = path
    elif where == "config":
        path.write_text(f'{{"max_len": {OVERLONG_INT}}}')
        config = ["--config", str(path)]
    else:
        path.write_text(json.dumps(dict(REMOTE_SPEC, retries=0)))
        model = path
        reply = f'{{"logprobs": [{OVERLONG_INT}, 0, 0]}}'.encode()
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(reply))
    out = tmp_path / "out"
    argv = ["compare", "--model", str(model), "--dataset", str(dataset), "--strategy", "none", "--out", str(out)]
    assert main(argv + config) == rc
    assert message.format(path=path, url=REMOTE_SPEC["url"]) in capsys.readouterr().err


def test_load_model_unrecognized_spec(tmp_path):
    spec = tmp_path / "odd.json"
    spec.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(LoadError, match="unrecognized spec"):
        load_model(spec)


@pytest.mark.parametrize("bad", ["model", "config", "corpus_file", "dataset"])
def test_an_input_file_that_is_not_utf8_exits_2_naming_itself(capsys, tmp_path, toy_model_path, toy_dataset_path,
                                                               bad):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "\xff"}')  # 0xff starts no UTF-8 sequence
    model, dataset, extra = toy_model_path, toy_dataset_path, []
    if bad == "model":
        model = str(path)
    elif bad == "config":
        extra = ["--config", str(path)]
    elif bad == "corpus_file":
        model = str(tmp_path / "ngram.json")
        (tmp_path / "ngram.json").write_text(json.dumps({"kind": "ngram", "corpus_file": "bad.json"}), encoding="utf-8")
    else:
        dataset = str(path)
    argv = ["compare", "--model", model, "--dataset", dataset, "--strategy", "none", "--out", str(tmp_path / "out")]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# compare


def test_bench_none_strategy_writes_reports(capsys, tmp_path, toy_model_path, toy_dataset_path):
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    assert (out / "report_none.json").exists()
    assert (out / "attempts_none.jsonl").exists()
    csv_text = (out / "compare.csv").read_text(encoding="utf-8")
    lines = csv_text.splitlines()
    assert lines[0].startswith("strategy,dataset,N,acc,")
    assert lines[1].startswith("none,toy_math,100,")
    assert capsys.readouterr().out.strip() == csv_text.strip()

    report = json.loads((out / "report_none.json").read_text(encoding="utf-8"))
    assert report["size"] == 100
    assert report["est_cost_ratio"] == 1.0
    assert report["measured_cost_ratio"] == 1.0


def test_bench_indicator_strategy_costs_match(tmp_path, toy_model_path, toy_dataset_path):
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "ftr_indicator", "--out", str(out), "--seed", "5",
    ])
    assert rc == 0
    report = json.loads((out / "report_ftr_indicator.json").read_text(encoding="utf-8"))
    assert report["est_cost_ratio"] == pytest.approx(report["measured_cost_ratio"])
    attempts = (out / "attempts_ftr_indicator.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(attempts) == 100


def test_bench_scripted_provider_runs_the_library_protocol(capsys, tmp_path, toy_model_path, toy_dataset_path):
    # The error rates go to ground truth, with the run's seed.
    flags = ["--fn-rate", "0.5", "--fp-rate", "0.25", "--seed", "5"]
    rc = main(["compare", "--model", toy_model_path, "--dataset", toy_dataset_path, "--out", str(tmp_path), *flags])
    assert rc == 0
    provider = GroundTruthProvider(fn_rate=0.5, fp_rate=0.25, seed=5)
    run = run_seeded(
        load_model(toy_model_path), load_tasks(toy_dataset_path), "ftr_indicator", provider, SamplerConfig(), seed=5
    )
    assert (tmp_path / "attempts_ftr_indicator.jsonl").read_text(encoding="utf-8") == run.to_json_lines()


def test_bench_task_failures_exit_1_and_suggest_resume(capsys, tmp_path, toy_model_path):
    dataset = tmp_path / "broken.jsonl"
    dataset.write_text(
        json.dumps({"id": "t0", "prompt": "solve item 0", "answer": 0, "domain": "math"})
        + "\n"
        + json.dumps({"id": "t1", "prompt": "solve item 1", "verify_cmd": ["/nonexistent/verifier"], "domain": "code"})
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", str(dataset),
        "--strategy", "ftr_indicator", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "task t1" in err
    assert "--resume" in err


def unspawnable_dataset(tmp_path):
    """One code task whose verifier cannot be spawned."""
    dataset = tmp_path / "unspawnable.jsonl"
    task = {"id": "c0", "prompt": "solve item 0", "verify_cmd": ["/nonexistent/verifier"], "domain": "code"}
    dataset.write_text(json.dumps(task) + "\n", encoding="utf-8")
    return str(dataset)


def test_bench_with_task_errors_leaves_no_earlier_report(capsys, tmp_path, toy_model_path, toy_dataset_path):
    # The feedback of ftr_indicator asks the verifier, so the task is
    # recorded as an error and the strategy writes no report of its own.
    out = tmp_path / "out"
    argv = ["compare", "--model", toy_model_path, "--strategy", "ftr_indicator", "--out", str(out)]
    assert main(argv + ["--dataset", toy_dataset_path]) == 0
    assert (out / "report_ftr_indicator.json").exists()
    assert main(argv + ["--dataset", unspawnable_dataset(tmp_path)]) == 1
    assert "task c0" in capsys.readouterr().err
    assert not (out / "report_ftr_indicator.json").exists()
    assert (out / "attempts_ftr_indicator.jsonl").read_bytes() == b""


def test_bench_whose_scoring_fails_leaves_no_earlier_report(capsys, tmp_path, toy_model_path, toy_dataset_path):
    # none asks for no feedback, so the verifier first runs in scoring,
    # whose failure ends the command.
    out = tmp_path / "out"
    argv = ["compare", "--model", toy_model_path, "--strategy", "none", "--out", str(out)]
    assert main(argv + ["--dataset", toy_dataset_path]) == 0
    assert (out / "report_none.json").exists() and (out / "compare.csv").exists()
    assert main(argv + ["--dataset", unspawnable_dataset(tmp_path)]) == 1
    assert "/nonexistent/verifier" in capsys.readouterr().err
    assert not (out / "report_none.json").exists()
    assert not (out / "compare.csv").exists()


def test_bench_prompt_outside_the_vocabulary_exits_2(capsys, tmp_path, toy_model_path):
    dataset = tmp_path / "zebra.jsonl"
    task = {"id": "t0", "prompt": "zebra", "answer": 0, "domain": "math"}
    dataset.write_text(json.dumps(task) + "\n", encoding="utf-8")
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", str(dataset),
        "--strategy", "none", "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'zebra' not in vocabulary" in err
    assert "--resume" not in err


def test_compare_checks_every_prompt_before_any_task_runs(capsys, tmp_path, toy_model_path, toy_dataset_path):
    # The first task is fine; with --resume it would be logged as it
    # completes, were the second prompt not checked before it runs.
    first = json.loads(open(toy_dataset_path, encoding="utf-8").readline())
    dataset = tmp_path / "zebra.jsonl"
    bad = {"id": "t-zebra", "prompt": "zebra", "answer": 0, "domain": "math"}
    dataset.write_text(json.dumps(first) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", str(dataset),
        "--strategy", "none", "--strategy", "critic_prompt", "--out", str(out), "--resume",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'zebra' not in vocabulary" in err
    assert "--resume" not in err
    assert [path.read_text(encoding="utf-8") for path in out.glob("attempts_*.jsonl")] == []


def test_compare_encodes_each_prompt_once_and_derives_each_stage_seed_once(monkeypatch, tmp_path, toy_model_path,
                                                                             toy_dataset_path):
    encoded, derived = [], []
    encode, derive_seed = Vocabulary.encode, correction.derive_seed

    def counted_encode(self, text):
        encoded.append(text)
        return encode(self, text)

    def counted_derive_seed(base_seed, task_id, stage):
        derived.append((base_seed, task_id, stage))
        return derive_seed(base_seed, task_id, stage)

    monkeypatch.setattr(Vocabulary, "encode", counted_encode)
    monkeypatch.setattr(correction, "derive_seed", counted_derive_seed)
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path, "--out", str(tmp_path / "out"),
        *(arg for kind in correction.STRATEGY_KINDS for arg in ("--strategy", kind)), "--seed", "5",
    ])
    assert rc == 0
    tasks = load_tasks(toy_dataset_path).tasks
    prompts = [task.prompt for task in tasks]
    assert len(set(prompts)) == len(prompts)
    assert sorted(text for text in encoded if text in prompts) == sorted(prompts)
    assert sorted(derived) == sorted((5, task.id, stage) for task in tasks for stage in (1, 2))


def test_compare_joins_strategies(capsys, tmp_path, toy_model_path, toy_dataset_path):
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--strategy", "critic_prompt",
        "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("none,")
    assert lines[2].startswith("critic_prompt,")
    assert (out / "report_none.json").exists()
    assert (out / "report_critic_prompt.json").exists()


def test_compare_of_one_strategy_writes_compare_csv(tmp_path, toy_model_path, toy_dataset_path):
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["attempts_none.jsonl", "compare.csv", "report_none.json"]
    assert (out / "compare.csv").read_text(encoding="utf-8").splitlines()[1].startswith("none,")


@pytest.mark.parametrize("flags", [
    ["--strategy", "bogus"],
    ["--p-star", "1.5"],
    ["--strategy", "ftr_indicator", "--judge-url", ""],
    ["--strategy", "ftr_indicator", "--judge-url", "file:///tmp"],
    ["--strategy", "ftr_indicator", "--judge-url", "http://"],
    ["--strategy", "ftr_indicator", "--judge-url", "http://127.0.0.1:notaport"],
    ["--strategy", "ftr_indicator", "--judge-url", "http://127.0.0.1:99999"],
], ids=["unknown-strategy", "bad-p-star", "judge-without-url", "judge-file-url", "judge-url-no-host",
        "judge-url-port-not-a-number", "judge-url-port-out-of-range"])
def test_compare_rejects_bad_input_before_any_strategy_runs(tmp_path, toy_model_path, toy_dataset_path, flags):
    out = tmp_path / "out"
    argv = [
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--strategy", "critic_prompt", "--out", str(out),
    ] + flags
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    (["--strategy", "none", "--strategy", "none"], None),
    ([], {"strategy": ["none", "critic_prompt", "none"]}),
], ids=["flags", "config"])
def test_compare_rejects_a_repeated_strategy_before_writing(capsys, tmp_path, toy_model_path, toy_dataset_path,
                                                             flags, config):
    # Running a strategy twice would overwrite its report and attempts log
    # and write two identical rows to compare.csv.
    out = tmp_path / "out"
    argv = ["compare", "--model", toy_model_path, "--dataset", toy_dataset_path, "--out", str(out)] + flags
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert "error: --strategy (config key 'strategy') names 'none' more than once" in capsys.readouterr().err
    assert not out.exists()


def read_only(key: str, rule: str) -> str:
    return f"error: --{key.replace('_', '-')} (config key '{key}') is read only {rule}"


URL = "http://127.0.0.1:9"
NO_JUDGE, GATED = "without --judge-url", "by --strategy ftr_indicator or feedback_as_prompt"
PROVIDER_FLAG, PROVIDER_KEY = "unrecognized arguments: --provider", "unknown key(s) 'provider'"


@pytest.mark.parametrize("flags, config, message", [
    (["--fn-rate", "0.9", "--judge-url", URL], None, read_only("fn_rate", NO_JUDGE)),
    (["--fp-rate", "0.1", "--judge-url", URL], None, read_only("fp_rate", NO_JUDGE)),
    (["--judge-url", URL], {"fn_rate": 0.9}, read_only("fn_rate", NO_JUDGE)),
    (["--judge-url", URL, "--provider", "scripted"], None, PROVIDER_FLAG),
    ([], {"fn_rate": 0.9, "judge_url": URL}, read_only("fn_rate", NO_JUDGE)),
    ([], {"fp_rate": 0.5, "judge_url": URL}, read_only("fp_rate", NO_JUDGE)),
    ([], {"judge_url": URL, "provider": "scripted"}, PROVIDER_KEY),
    (["--strategy", "none", "--provider", "scripted", "--fn-rate", "0.9"], None, PROVIDER_FLAG),
    (["--strategy", "none", "--fn-rate", "0.9"], None, read_only("fn_rate", GATED)),
    (["--strategy", "critic_prompt", "--fp-rate", "0.1"], None, read_only("fp_rate", GATED)),
    (["--strategy", "ioe_prompt", "--judge-url", URL], None, read_only("judge_url", GATED)),
    ([], {"strategy": "none", "provider": "judge"}, PROVIDER_KEY),
    ([], {"strategy": "critic_prompt", "fn_rate": 0.5}, read_only("fn_rate", GATED)),
    # A setting is given by naming it, whatever its value: the default too.
    (["--strategy", "none", "--fn-rate", "0.0"], None, read_only("fn_rate", GATED)),
    (["--strategy", "none", "--provider", "ground_truth"], None, PROVIDER_FLAG),
    ([], {"strategy": "none", "fn_rate": 0.0}, read_only("fn_rate", GATED)),
    ([], {"strategy": "none", "provider": "ground_truth"}, PROVIDER_KEY),
    (["--fp-rate", "0.0", "--judge-url", URL], None, read_only("fp_rate", NO_JUDGE)),
], ids=["fn-rate-flag", "fp-rate-flag", "judge-url-flag", "judge-url-flag-scripted",
        "fn-rate-config", "fp-rate-config", "judge-url-config",
        "provider-flag-ungated", "fn-rate-flag-ungated", "fp-rate-flag-ungated", "judge-url-flag-ungated",
        "provider-config-ungated", "fn-rate-config-ungated",
        "default-fn-rate-flag-ungated", "default-provider-flag-ungated",
        "default-fn-rate-config-ungated", "default-provider-config-ungated", "default-fp-rate-flag-judge"])
def test_bench_rejects_a_provider_setting_its_provider_never_reads(capsys, tmp_path, toy_model_path,
                                                                   toy_dataset_path, flags, config, message):
    # Ignored, the setting would print the same row as a run without it:
    # only a feedback-gated strategy asks for feedback, a rate is read only
    # by ground truth, which a judge URL replaces, and no setting picks the
    # provider.
    out = tmp_path / "out"
    argv = ["compare", "--model", toy_model_path, "--dataset", toy_dataset_path, "--out", str(out)] + flags
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag itself
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compare_takes_provider_settings_when_one_strategy_reads_them(capsys, tmp_path, toy_model_path,
                                                                      toy_dataset_path):
    argv = ["compare", "--model", toy_model_path, "--dataset", toy_dataset_path, "--out", str(tmp_path / "out"),
            "--strategy", "none", "--strategy", "ftr_indicator", "--fn-rate", "0.5"]
    assert main(argv) == 0
    assert (tmp_path / "out" / "compare.csv").exists()


@pytest.mark.parametrize("flags", [["--decoder", "beam"], ["--beam", "99"]])
def test_bench_and_compare_take_no_decode_only_flag(capsys, tmp_path, toy_model_path, toy_dataset_path, flags):
    # --decoder and --beam choose decode's decoder; compare always runs the
    # strategy's own decoders.
    argv = ["compare", "--model", toy_model_path, "--dataset", toy_dataset_path, "--strategy", "none",
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_ignores_a_config_decoder(tmp_path):
    # decode's keys are another command's keys for compare
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"decoder": "beam", "beam": 99}), encoding="utf-8")
    args = parse_args(["compare", "--config", str(config)])
    assert "decoder" not in args and "beam" not in args


def test_bench_reruns_are_byte_identical(tmp_path, toy_model_path, toy_dataset_path):
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = main([
            "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
            "--strategy", "ftr_indicator", "--out", str(out), "--seed", "11",
        ])
        assert rc == 0
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert outputs[0] == outputs[1]


def test_bench_resume_skips_completed_tasks(tmp_path, toy_model_path, toy_dataset_path, capsys):
    out = tmp_path / "out"
    argv = [
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--out", str(out), "--seed", "3",
    ]
    assert main(argv) == 0
    first = (out / "attempts_none.jsonl").read_bytes()
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    assert (out / "attempts_none.jsonl").read_bytes() == first


def test_bench_resume_from_a_malformed_log_exits_2(tmp_path, toy_model_path, toy_dataset_path, capsys):
    out = tmp_path / "out"
    argv = [
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--out", str(out), "--seed", "3", "--resume",
    ]
    assert main(argv) == 0
    log = out / "attempts_none.jsonl"
    log.write_text('{"task_id":"t000"}\n' + log.read_text(encoding="utf-8"), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"attempts log {log}, line 1:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, match", [
    ("verdict", True, "attempt field 'verdict' has the wrong type: True"),
    ("answer", 7.5, "answer 7.5 is not "),
], ids=["verdict-set", "answer-not-from-text"])
def test_bench_resume_from_a_record_no_run_writes_exits_2(
    tmp_path, toy_model_path, toy_dataset_path, capsys, field, value, match
):
    out = tmp_path / "out"
    argv = [
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "none", "--out", str(out), "--seed", "3", "--resume",
    ]
    assert main(argv) == 0
    log = out / "attempts_none.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    record["final"][field] = value
    lines[1] = json.dumps(record) + "\n"
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"attempts log {log}, line 2: {match}" in err
    assert "Traceback" not in err


def test_bench_leaves_no_temp_files(tmp_path, toy_model_path, toy_dataset_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
        "--strategy", "ftr_indicator", "--out", str(out),
    ])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "attempts_ftr_indicator.jsonl", "compare.csv", "report_ftr_indicator.json",
    ]


def test_bench_failed_rename_exits_2_and_keeps_previous_attempts(
    tmp_path, toy_model_path, toy_dataset_path, capsys, monkeypatch
):
    out = tmp_path / "out"

    def compare(seed):
        return main([
            "compare", "--model", toy_model_path, "--dataset", toy_dataset_path,
            "--strategy", "none", "--out", str(out), "--seed", seed,
        ])

    assert compare("3") == 0
    before = (out / "attempts_none.jsonl").read_bytes()

    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    assert compare("4") == 2
    assert "cannot rename" in capsys.readouterr().err
    assert (out / "attempts_none.jsonl").read_bytes() == before
    assert not list(out.glob("*.tmp"))


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes(capsys):
    rc = main(["oracle-check", "--models", "20", "--trials", "200", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "decode-exactness: ok", "prune-minimality: ok", "reductions: ok", "samplers: ok", "step-pools: ok",
        "wire-rows: ok",
    ]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_oracle_check_detects_each_mutation(capsys, name):
    rc = main(["oracle-check", "--models", "40", "--trials", "200", "--seed", "1", "--mutate", name])
    assert rc == 1
    captured = capsys.readouterr()
    assert re.search(r"^[a-z-]+: \d+ failure\(s\)$", captured.out, re.MULTILINE), captured.out
    assert "counterexample" in captured.err
    assert "not detected" not in captured.err


@pytest.mark.parametrize("flags, config", [
    (["--mutate", "nope"], {}),
    ([], {"mutate": "nope"}),
], ids=["flag", "config"])
def test_oracle_check_refuses_an_unknown_mutation(capsys, tmp_path, flags, config):
    # oracle.MUTATIONS is the one list of defects; an unknown name exits 2
    # before any suite runs, naming every known defect.
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["oracle-check", "--config", str(tmp_path / "cfg.json")] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --mutate (config key 'mutate') 'nope' is none of" in captured.err
    assert all(repr(name) in captured.err for name in MUTATIONS)


@pytest.mark.parametrize("models, drawn", [(0, 0), (1, 5), (8, 34)])
def test_oracle_check_draws_models_in_proportion_to_models(monkeypatch, capsys, models, drawn):
    # Four suites draw --models random models and reductions a quarter of
    # them, at least one, so --models 0 draws none at all.
    calls = []

    def counting(rng, trial):
        calls.append(trial)
        return random_model(rng, trial)

    monkeypatch.setattr(oracle, "random_model", counting)
    assert main(["oracle-check", "--models", str(models), "--trials", "0", "--seed", "1"]) == 0
    assert len(calls) == drawn


def test_oracle_check_exits_1_when_a_mutation_goes_undetected(capsys):
    # With no models and no pruning trials, no random model runs, and the
    # samplers suite's one fixed model goes through single-path samplers,
    # which never read the selection.
    rc = main([
        "oracle-check", "--models", "0", "--trials", "0", "--seed", "1",
        "--mutate", "selection-max-prob",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "decode-exactness: ok" in captured.out
    assert "mutation 'selection-max-prob' was not detected by any check" in captured.err


@pytest.mark.parametrize("flags, config, key", [
    (["--models", "-3"], {}, "models"),
    (["--trials", "-1"], {}, "trials"),
    ([], {"models": -3, "trials": 5}, "models"),
    ([], {"trials": -1}, "trials"),
], ids=["models-flag", "trials-flag", "models-config", "trials-config"])
def test_oracle_check_rejects_a_negative_count(capsys, tmp_path, flags, config, key):
    # A negative count would run no check at all and still print "ok".
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["oracle-check", "--config", str(tmp_path / "cfg.json")] + flags) == 2
    captured = capsys.readouterr()
    assert f"error: --{key} (config key '{key}') must be >= 0, got -" in captured.err
    assert captured.out == ""
