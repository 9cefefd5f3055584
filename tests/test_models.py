"""Model contract, table/n-gram models, serialization, scoring helpers."""

from __future__ import annotations

import math
import random

import pytest

from multipath import kernels
from multipath.cli import load_model
from multipath.decoding import (
    AdaptiveConfig,
    BeamConfig,
    MultipathConfig,
    SamplerConfig,
    adaptive_decode,
    beam_search,
    greedy_decode,
    multipath_decode,
    nucleus_sample,
)
from multipath.errors import LoadError, TrainingError
from multipath.models import (
    NGramLM,
    SequencePath,
    StepDistribution,
    TableLM,
    Vocabulary,
    dump_table_lm,
    greedy_trap_lm,
    perplexity,
    sequence_logprob,
    table_lm_to_json,
    train_ngram,
)
from multipath.oracle import enumerate_finished

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


def test_distribution_equality_compares_values():
    # A dense row and a floor-only row holding the same probabilities are equal.
    assert StepDistribution(probs=(0.25,) * 4) == StepDistribution.uniform(4)
    assert StepDistribution(probs=(0.5, 0.5, 0.0)) != StepDistribution(probs=(0.5, 0.0, 0.5))
    assert StepDistribution(probs=(1.0, 0.0)) != StepDistribution(probs=(1.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        hash(StepDistribution.uniform(2))


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


def test_token_ids_are_checked_where_they_enter(trap_model):
    entries = (
        lambda prompt: greedy_decode(trap_model, prompt),
        lambda prompt: nucleus_sample(trap_model, prompt, SamplerConfig()),
        lambda prompt: adaptive_decode(trap_model, prompt, AdaptiveConfig()),
        lambda prompt: multipath_decode(trap_model, prompt, MultipathConfig()),
        lambda prompt: beam_search(trap_model, prompt, BeamConfig()),
        lambda prompt: enumerate_finished(trap_model, prompt, 3),
        lambda prompt: sequence_logprob(trap_model, prompt, (0, 2)),
    )
    size = trap_model.vocabulary.size
    for enter in entries:
        enter((0, 1))
        for bad in (size, -1):
            with pytest.raises(ValueError, match=rf"prompt token id {bad} out of range \(V={size}\)"):
                enter((0, bad, 1))
    # Without its own check, -3 would wrap to token 0 and score (0, 0).
    for continuation in ((0, -3), (size, 2), (0, -1)):
        with pytest.raises(ValueError, match=r"continuation token id -?\d+ out of range"):
            sequence_logprob(trap_model, (), continuation)


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


def test_ngram_rejects_bad_counts():
    # rows are built unchecked, so the counts are checked when the model is made
    with pytest.raises(ValueError, match="token 3"):
        NGramLM(vocabulary=ABC, order=1, add_k=1.0, counts={(0,): {3: 1}})
    with pytest.raises(ValueError, match="bad count -1"):
        NGramLM(vocabulary=ABC, order=1, add_k=1.0, counts={(0,): {1: -1}})


def test_train_ngram_rejects_bad_corpus():
    with pytest.raises(TrainingError, match="empty"):
        train_ngram("   \n  ", order=1, add_k=1.0)
    with pytest.raises(TrainingError, match="eos"):
        train_ngram("a </s> b", order=1, add_k=1.0)


def random_corpus(rng):
    letters = "abcd"[: rng.randint(1, 4)]
    lines = [" ".join(rng.choice(letters) for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(1, 6))]
    return "\n".join(lines)


def dense_ngram_row(corpus, order, add_k, vocab, ctx):
    """The dense add-k row the n-gram model used to build token by token,
    with its counts taken from the corpus here."""
    counts = {}
    for line in corpus.splitlines():
        ids = list(vocab.encode(line))
        for pos in range(len(ids) + 1):
            if tuple(ids[max(0, pos - order):pos]) == ctx:
                nxt = ids[pos] if pos < len(ids) else vocab.eos_id
                counts[nxt] = counts.get(nxt, 0) + 1
    denom = sum(counts.values()) + add_k * vocab.size
    probs = tuple((counts.get(t, 0) + add_k) / denom for t in range(vocab.size))
    return probs, tuple(math.log(p) if p > 0.0 else -math.inf for p in probs)


def dense_children(logprobs, k):
    """Every positive child, trimmed to the top k by kernels.topk_indices."""
    positive = [t for t in range(len(logprobs)) if logprobs[t] != -math.inf]
    if len(positive) > k:
        keep = kernels.topk_indices([logprobs[t] for t in positive], k)
        positive = sorted(positive[i] for i in keep)
    return tuple((t, logprobs[t]) for t in positive)


def test_sparse_row_children_match_dense_trim():
    # Entries may lie above, below or on the floor, or be zero; small
    # integer weights make value ties common. Each k in 0..V+1 is asked
    # twice, in shuffled order, of one row: a row remembers its children per
    # k, and must never answer one k with another's.
    rng = random.Random(9)
    ask_rng = random.Random(10)
    for _ in range(2000):
        size = rng.randint(2, 12)
        tokens = rng.sample(range(size), rng.randint(0, size - 1))
        floor_weight = rng.randint(0, 4)
        weights = {t: rng.randint(0, 6) for t in tokens}
        total = sum(weights.values()) + floor_weight * (size - len(tokens))
        if total == 0:
            continue
        row = StepDistribution._trusted(size, floor_weight / total, {t: w / total for t, w in weights.items()})
        assert StepDistribution(probs=row.probs).logprobs == row.logprobs
        ks = list(range(size + 2)) * 2
        ask_rng.shuffle(ks)
        for k in ks:
            assert row.children(k) == dense_children(tuple(row.logprobs), k), (size, floor_weight, weights, k)


def test_ngram_hands_out_one_row_per_context():
    corpus = "a b c d\nb c a\nd d a b c\nc"
    for order in (1, 2, 3):
        model = train_ngram(corpus, order=order, add_k=0.5)
        vocab = model.vocabulary
        a, b, c, d = vocab.encode("a b c d")
        eos = vocab.eos_id
        # the same context, split differently between prompt and prefix
        assert model.next_distribution((a, b), (c,)) is model.next_distribution((), (d, a, b, c))
        assert model.next_distribution((d, a, b), ()) is model.next_distribution((c,), (d, a, b))
        # Contexts holding the end token never occur in training; they all
        # share one floor-only row.
        unseen = [(eos,), (a, eos), (eos, eos, eos), (eos, a, b)[-order:] + (eos,), (d, eos, eos)]
        rows = [model.next_distribution(prompt[:1], prompt[1:]) for prompt in unseen]
        assert all(row is rows[0] for row in rows)
        floor = rows[0].logprobs[0]
        assert rows[0].children(3) == tuple((t, floor) for t in range(3))
        seen = model.next_distribution((), (a,))
        assert seen is not rows[0] and seen.children(1) != rows[0].children(1)


def test_ngram_sparse_rows_match_dense_formula_bit_for_bit():
    rng = random.Random(5)
    unseen = tied = 0
    for _ in range(150):
        corpus = random_corpus(rng)
        order = rng.randint(1, 3)
        add_k = rng.choice([1, 0.5, 0.01, 2.5, 0.0005])
        model = train_ngram(corpus, order=order, add_k=add_k)
        vocab = model.vocabulary
        contexts = set()
        for line in corpus.splitlines():
            ids = vocab.encode(line)
            contexts.update(ids[max(0, pos - order):pos] for pos in range(len(ids) + 1))
        # no training context ends in the end token
        contexts.update({(vocab.eos_id,), (0, vocab.eos_id)})
        for ctx in sorted(contexts):
            dist = model.next_distribution((), ctx)
            probs, logprobs = dense_ngram_row(corpus, order, add_k, vocab, ctx[-order:])
            assert len(dist) == vocab.size
            assert [dist.logprobs[t] for t in range(vocab.size)] == list(logprobs)
            assert tuple(dist.logprobs) == logprobs
            assert [dist.probs[t] for t in range(vocab.size)] == list(probs)
            floor = min(logprobs)
            seen = [v for v in logprobs if v != floor]
            unseen += not seen
            tied += len(set(seen)) < len(seen)
            for k in range(1, vocab.size + 2):
                assert dist.children(k) == dense_children(logprobs, k), (corpus, order, add_k, ctx, k)
                if not seen:
                    assert dist.children(k) == tuple((t, floor) for t in range(min(k, vocab.size)))
    # both unseen contexts and successors with equal counts were exercised
    assert unseen and tied


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
# table file format, read through cli.load_model


def test_table_round_trip_is_byte_stable(tmp_path, trap_model):
    path = tmp_path / "model.json"
    dump_table_lm(trap_model, path)
    loaded = load_model(path)
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
        load_model(tmp_path / "absent.json")


def test_load_rejects_invalid_json(tmp_path):
    with pytest.raises(LoadError, match="not valid JSON"):
        load_model(write_model(tmp_path, "{nope"))


def test_load_rejects_missing_keys(tmp_path):
    with pytest.raises(LoadError, match="missing key 'vocab'"):
        load_model(write_model(tmp_path, '{"eos": "$", "rows": []}'))


def test_load_rejects_bad_row_sum(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": [0.5, 0.4]}]}'
    with pytest.raises(LoadError, match=r"row 0 .*row sum"):
        load_model(write_model(tmp_path, text))


def test_load_rejects_nan_probability(tmp_path):
    # Python's json module reads NaN; its row sum is NaN, which no sum check
    # rejects, so the per-entry range check must
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": [NaN, 1.0]}]}'
    with pytest.raises(LoadError, match=r"row 0 .*nan"):
        load_model(write_model(tmp_path, text))


def test_load_rejects_probability_float_cannot_read(tmp_path):
    # null is not a number, and float() overflows on a huge integer
    for probs in ('[null, 1.0]', '[1' + '0' * 400 + ', 1.0]'):
        text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": %s}]}' % probs
        with pytest.raises(LoadError, match=r"row 0 "):
            load_model(write_model(tmp_path, text))


def test_load_rejects_wrong_row_length(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": [], "probs": [1.0]}]}'
    with pytest.raises(LoadError, match=r"row 0 .*length 2"):
        load_model(write_model(tmp_path, text))


def test_load_rejects_duplicate_context(tmp_path):
    text = (
        '{"vocab": ["a", "$"], "eos": "$", "rows": ['
        '{"context": ["a"], "probs": [0.5, 0.5]},'
        '{"context": ["a"], "probs": [0.5, 0.5]}]}'
    )
    with pytest.raises(LoadError, match="row 1: duplicate context"):
        load_model(write_model(tmp_path, text))


def test_load_rejects_unknown_context_token(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [{"context": ["z"], "probs": [0.5, 0.5]}]}'
    with pytest.raises(LoadError, match="row 0: token 'z'"):
        load_model(write_model(tmp_path, text))


def test_load_rejects_bad_default_row(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [0.9, 0.2]}'
    with pytest.raises(LoadError, match="default row"):
        load_model(write_model(tmp_path, text))


def test_load_accepts_default_row(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [0.25, 0.75]}'
    model = load_model(write_model(tmp_path, text))
    assert model.next_distribution((), (0, 0)).probs == (0.25, 0.75)
