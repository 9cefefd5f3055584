"""Model contract, table/n-gram models, serialization, scoring helpers."""

from __future__ import annotations

import math

import pytest

from multipath.errors import LoadError, TrainingError
from multipath.models import (
    NGramLM,
    SequencePath,
    StepDistribution,
    TableLM,
    Vocabulary,
    dump_table_lm,
    greedy_trap_lm,
    load_table_lm,
    perplexity,
    scripted_lm,
    sequence_logprob,
    table_lm_to_json,
    train_ngram,
)

ABC = Vocabulary(tokens=("a", "b", "c"), eos_id=2)


# ---------------------------------------------------------------------------
# Vocabulary


def test_vocabulary_encode_decode_round_trip():
    ids = ABC.encode("a c b a")
    assert ids == (0, 2, 1, 0)
    assert ABC.decode(ids) == "a c b a"


def test_vocabulary_rejects_unknown_token():
    with pytest.raises(ValueError, match="'z' not in vocabulary"):
        ABC.encode("a z")


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(tokens=("a", "a"), eos_id=0)


def test_vocabulary_rejects_bad_eos():
    with pytest.raises(ValueError, match="eos_id"):
        Vocabulary(tokens=("a", "b"), eos_id=2)


def test_vocabulary_needs_two_tokens():
    with pytest.raises(ValueError, match="at least 2"):
        Vocabulary(tokens=("a",), eos_id=0)


def test_vocabulary_from_tokens():
    vocab = Vocabulary.from_tokens(["x", "y", "</s>"], "</s>")
    assert vocab.eos_id == 2
    assert vocab.eos_token == "</s>"
    with pytest.raises(ValueError, match="eos token"):
        Vocabulary.from_tokens(["x", "y"], "</s>")


# ---------------------------------------------------------------------------
# StepDistribution


def test_distribution_accepts_ints_and_normalizes_types():
    dist = StepDistribution(probs=(1, 0))
    assert dist.probs == (1.0, 0.0)
    assert len(dist) == 2


def test_distribution_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        StepDistribution(probs=(1.2, -0.2))


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum to"):
        StepDistribution(probs=(0.5, 0.4))


def test_distribution_logprobs_map_zero_to_neg_inf():
    dist = StepDistribution(probs=(0.5, 0.5, 0.0))
    assert dist.logprobs == (math.log(0.5), math.log(0.5), -math.inf)


def test_distribution_entropy():
    assert StepDistribution.uniform(4).entropy() == pytest.approx(math.log(4.0))
    assert StepDistribution(probs=(1.0, 0.0)).entropy() == 0.0


# ---------------------------------------------------------------------------
# SequencePath


def test_path_extension_and_finish():
    path = SequencePath.empty().extended(0, math.log(0.5), eos_id=2)
    assert not path.finished
    done = path.extended(2, math.log(0.25), eos_id=2)
    assert done.finished
    assert done.tokens == (0, 2)
    assert done.cum_logprob == pytest.approx(math.log(0.125))
    assert len(done) == 2


def test_path_ppl_matches_definition():
    path = SequencePath.empty().extended(0, math.log(0.25), eos_id=2)
    assert path.ppl() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# model contract


def test_next_distribution_validates_token_ids(trap_model):
    with pytest.raises(ValueError, match="prompt token id"):
        trap_model.next_distribution((99,), ())
    with pytest.raises(ValueError, match="prefix token id"):
        trap_model.next_distribution((), (-1,))


def test_next_distribution_is_pure(trap_model):
    a = trap_model.next_distribution((), (0,))
    b = trap_model.next_distribution((), (0,))
    assert a.probs == b.probs


# ---------------------------------------------------------------------------
# TableLM


def test_table_lookup_order_prompt_then_prefix_then_default():
    row_prompt = StepDistribution(probs=(1.0, 0.0, 0.0))
    row_prefix = StepDistribution(probs=(0.0, 1.0, 0.0))
    row_default = StepDistribution(probs=(0.0, 0.0, 1.0))
    model = TableLM(
        vocabulary=ABC,
        rows={(0,): row_prefix},
        default=row_default,
        prompt_rows={((1,), (0,)): row_prompt},
    )
    assert model.next_distribution((1,), (0,)).probs == row_prompt.probs
    assert model.next_distribution((0,), (0,)).probs == row_prefix.probs
    assert model.next_distribution((0,), (1,)).probs == row_default.probs
    assert model.has_prompt_rows


def test_table_missing_row_and_no_default():
    model = TableLM(vocabulary=ABC, rows={})
    with pytest.raises(ValueError, match="no table row"):
        model.next_distribution((), (0,))


def test_table_rejects_wrong_row_length():
    with pytest.raises(ValueError, match="row length"):
        TableLM(vocabulary=ABC, rows={(): StepDistribution(probs=(0.5, 0.5))})
    with pytest.raises(ValueError, match="row length"):
        TableLM(vocabulary=ABC, default=StepDistribution(probs=(1.0, 0.0)))
    with pytest.raises(ValueError, match="row length"):
        TableLM(
            vocabulary=ABC,
            prompt_rows={((), ()): StepDistribution(probs=(1.0, 0.0))},
        )


def test_greedy_trap_rows():
    model = greedy_trap_lm()
    assert model.vocabulary.tokens == ("a", "b", "$")
    step0 = model.next_distribution((), ())
    assert step0.probs == (0.45, 0.55, 0.0)
    assert model.next_distribution((), (0,)).probs == (0.05, 0.05, 0.9)


def test_scripted_lm_replays_responses():
    from multipath.decoding import greedy_decode

    vocab = Vocabulary(tokens=("hi", "there", "friend", "$"), eos_id=3)
    model = scripted_lm(vocab, {"hi": "there friend", "there": "hi"})
    out = greedy_decode(model, vocab.encode("hi"))
    assert vocab.decode(out.chosen.tokens) == "there friend $"
    out = greedy_decode(model, vocab.encode("there"))
    assert vocab.decode(out.chosen.tokens) == "hi $"


# ---------------------------------------------------------------------------
# NGramLM


def test_ngram_conditional_counts():
    model = train_ngram("a b a b", order=1, add_k=1.0)
    assert model.vocabulary.tokens == ("a", "b", "</s>")
    a, b = model.vocabulary.encode("a b")
    dist = model.next_distribution((), (a,))
    # count(a -> b) = 2 out of 2, so (2+1)/(2+3)
    assert dist.probs[b] == pytest.approx(0.6)
    assert dist.probs[a] == pytest.approx(0.2)


def test_ngram_line_end_counts_as_eos_transition():
    model = train_ngram("a a b", order=1, add_k=1.0)
    a, b = model.vocabulary.encode("a b")
    dist = model.next_distribution((), (a,))
    assert dist.probs[a] == pytest.approx(0.4)
    assert dist.probs[b] == pytest.approx(0.4)
    assert dist.probs[model.vocabulary.eos_id] == pytest.approx(0.2)
    after_b = model.next_distribution((), (b,))
    # b is always line final: (1+1)/(1+3)
    assert after_b.probs[model.vocabulary.eos_id] == pytest.approx(0.5)


def test_ngram_context_includes_prompt():
    model = train_ngram("a b\nb a", order=2, add_k=0.5)
    a, b = model.vocabulary.encode("a b")
    from_prompt = model.next_distribution((a, b), ())
    from_prefix = model.next_distribution((), (a, b))
    assert from_prompt.probs == from_prefix.probs


def test_ngram_unseen_context_is_uniform():
    model = train_ngram("a b", order=3, add_k=1.0)
    a, b = model.vocabulary.encode("a b")
    dist = model.next_distribution((), (b, b, b))
    assert dist.probs == (pytest.approx(1 / 3),) * 3


def test_ngram_rejects_bad_params():
    with pytest.raises(ValueError, match="order"):
        train_ngram("a", order=0, add_k=1.0)
    with pytest.raises(ValueError, match="add_k"):
        train_ngram("a", order=1, add_k=0.0)
    with pytest.raises(ValueError, match="order"):
        NGramLM(vocabulary=ABC, order=0, add_k=1.0, counts={})


def test_train_ngram_rejects_bad_corpus():
    with pytest.raises(TrainingError, match="empty"):
        train_ngram("   \n  ", order=1, add_k=1.0)
    with pytest.raises(TrainingError, match="eos"):
        train_ngram("a </s> b", order=1, add_k=1.0)
    with pytest.raises(TrainingError, match="not in the given vocabulary"):
        train_ngram("a z", order=1, add_k=1.0, vocabulary=ABC)
    with pytest.raises(TrainingError, match="eos"):
        train_ngram("a c", order=1, add_k=1.0, vocabulary=ABC)


# ---------------------------------------------------------------------------
# scoring helpers


def test_sequence_logprob_on_trap_model(trap_model):
    got = sequence_logprob(trap_model, (), (0, 2))
    assert got == pytest.approx(math.log(0.45) + math.log(0.9))


def test_sequence_logprob_zero_probability_step(trap_model):
    assert sequence_logprob(trap_model, (), (2,)) == -math.inf


def test_sequence_logprob_rejects_empty(trap_model):
    with pytest.raises(ValueError, match="non-empty"):
        sequence_logprob(trap_model, (), ())


def test_perplexity_definition():
    assert perplexity(0.0, 5) == 1.0
    assert perplexity(math.log(0.25), 2) == pytest.approx(2.0)
    assert perplexity(-math.inf, 3) == math.inf


def test_perplexity_rejects_bad_inputs():
    with pytest.raises(ValueError, match="num_tokens"):
        perplexity(-1.0, 0)
    with pytest.raises(ValueError, match="cum_logprob"):
        perplexity(0.5, 1)


# ---------------------------------------------------------------------------
# table file format


def test_table_round_trip_is_byte_stable(tmp_path, trap_model):
    path = tmp_path / "model.json"
    dump_table_lm(trap_model, path)
    loaded = load_table_lm(path)
    assert table_lm_to_json(loaded) == table_lm_to_json(trap_model)
    assert loaded.vocabulary == trap_model.vocabulary
    assert loaded.next_distribution((), ()).probs == (0.45, 0.55, 0.0)


def test_table_json_rejects_prompt_rows():
    model = TableLM(
        vocabulary=ABC,
        prompt_rows={((0,), ()): StepDistribution(probs=(1.0, 0.0, 0.0))},
    )
    with pytest.raises(ValueError, match="prompt-keyed"):
        table_lm_to_json(model)


def write_model(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(LoadError, match="cannot read"):
        load_table_lm(tmp_path / "absent.json")


def test_load_rejects_invalid_json(tmp_path):
    with pytest.raises(LoadError, match="not valid JSON"):
        load_table_lm(write_model(tmp_path, "{nope"))


def test_load_rejects_missing_keys(tmp_path):
    with pytest.raises(LoadError, match="missing key 'rows'"):
        load_table_lm(write_model(tmp_path, '{"vocab": ["a", "$"], "eos": "$"}'))


def test_load_rejects_bad_row_sum(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": [0.5, 0.4]}]}'
    with pytest.raises(LoadError, match=r"row 0 .*row sum"):
        load_table_lm(write_model(tmp_path, text))


def test_load_rejects_wrong_row_length(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": [1.0]}]}'
    with pytest.raises(LoadError, match=r"row 0 .*length 2"):
        load_table_lm(write_model(tmp_path, text))


def test_load_rejects_duplicate_context(tmp_path):
    text = (
        '{"vocab": ["a", "$"], "eos": "$", "rows": ['
        '{"context": ["a"], "probs": [0.5, 0.5]},'
        '{"context": ["a"], "probs": [0.5, 0.5]}]}'
    )
    with pytest.raises(LoadError, match="row 1: duplicate context"):
        load_table_lm(write_model(tmp_path, text))


def test_load_rejects_unknown_context_token(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": ["z"], "probs": [0.5, 0.5]}]}'
    with pytest.raises(LoadError, match="row 0: token 'z'"):
        load_table_lm(write_model(tmp_path, text))


def test_load_rejects_bad_default_row(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [0.9, 0.2]}'
    with pytest.raises(LoadError, match="default row"):
        load_table_lm(write_model(tmp_path, text))


def test_load_accepts_default_row(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [0.25, 0.75]}'
    model = load_table_lm(write_model(tmp_path, text))
    assert model.next_distribution((), (0, 0)).probs == (0.25, 0.75)
