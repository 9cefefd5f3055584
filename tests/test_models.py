"""Model contract, table/n-gram models, serialization, scoring helpers."""

from __future__ import annotations

import json
import math
import random
import re
import tracemalloc

import pytest
from conftest import row_probs

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
    greedy_trap_lm,
    perplexity,
    sequence_logprob,
    train_ngram,
)
from multipath.oracle import enumerate_finished
from multipath.remote import _parse_distribution
from multipath.toydata import DIGITS, best_digit, task_prompt

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
    # the error names the first unknown token
    with pytest.raises(ValueError, match="'z' not in vocabulary"):
        ABC.encode("a z b y")


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(tokens=("a", "a"), eos_id=0)


def test_vocabulary_rejects_bad_eos():
    with pytest.raises(ValueError, match="eos_id"):
        Vocabulary(tokens=("a", "b"), eos_id=2)


def test_vocabulary_needs_two_tokens():
    with pytest.raises(ValueError, match="at least 2"):
        Vocabulary(tokens=("a",), eos_id=0)


@pytest.mark.parametrize("token", ["a b", "", " ", "a\tb", "a\u00a0b", "b\n"])
def test_vocabulary_token_is_nonempty_and_holds_no_whitespace(token):
    # encode splits text at whitespace, so such a token could never come
    # back from its own decoded text.
    with pytest.raises(ValueError, match=f"vocabulary token {re.escape(repr(token))} must be a nonempty string"):
        Vocabulary(tokens=(token, "c", "$"), eos_id=2)
    with pytest.raises(ValueError, match="must be a nonempty string"):
        Vocabulary(tokens=("c", token), eos_id=1)


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
    assert row_probs(dist) == (1.0, 0.0)
    assert all(type(p) is float for p in row_probs(dist))
    assert len(dist) == 2


def test_no_row_holds_a_dense_form():
    rows = {
        "validated": StepDistribution(probs=(1, 0)),
        "uniform": StepDistribution.uniform(3),
        "table": greedy_trap_lm().next_distribution((), ()),
        "ngram": train_ngram("a b a", order=1, add_k=0.5).next_distribution((), (0,)),
        "wire": _parse_distribution({"logprobs": [math.log(0.5), None, math.log(0.5)]}, 3, "x"),
    }
    for kind, row in rows.items():
        assert not hasattr(row, "probs"), kind
        assert "logprobs" not in vars(row), kind


def test_distribution_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        StepDistribution(probs=(1.2, -0.2))


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum to"):
        StepDistribution(probs=(0.5, 0.4))


def test_distribution_logprobs_map_zero_to_neg_inf():
    dist = StepDistribution(probs=(0.5, 0.5, 0.0))
    want = (math.log(0.5), math.log(0.5), -math.inf)
    assert tuple(map(dist.logprob, range(3))) == want
    assert dist.logprobs == want


def test_distribution_entropy():
    assert StepDistribution.uniform(4).entropy() == pytest.approx(math.log(4.0))
    assert StepDistribution(probs=(1.0, 0.0)).entropy() == 0.0


# ---------------------------------------------------------------------------
# SequencePath


def test_path_extension_and_finish():
    # A path has one constructor; an extension is a new path built with it.
    assert not hasattr(SequencePath, "empty") and not hasattr(SequencePath, "extended")
    path = SequencePath(tokens=(0,), cum_logprob=math.log(0.5), finished=False)
    done = SequencePath(tokens=path.tokens + (2,), cum_logprob=path.cum_logprob + math.log(0.25), finished=True)
    assert done.finished
    assert done.tokens == (0, 2)
    assert done.cum_logprob == pytest.approx(math.log(0.125))
    assert len(done) == 2


def test_path_ppl_matches_definition():
    path = SequencePath(tokens=(0,), cum_logprob=math.log(0.25), finished=False)
    assert path.ppl() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# model contract


def test_token_ids_are_checked_where_they_enter(trap_model):
    entries = (
        lambda prompt: greedy_decode(trap_model, prompt),
        lambda prompt: nucleus_sample(trap_model, prompt, SamplerConfig(), 0),
        lambda prompt: adaptive_decode(trap_model, prompt, AdaptiveConfig(), 0),
        lambda prompt: multipath_decode(trap_model, prompt, MultipathConfig()),
        lambda prompt: beam_search(trap_model, prompt, BeamConfig()),
        lambda prompt: enumerate_finished(trap_model, prompt, 3),
        lambda prompt: sequence_logprob(trap_model, prompt, (0, 2)),
    )
    size = trap_model.vocabulary.size
    for enter in entries:
        enter((0, 1))
        enter((False, True))  # a bool is an int
        for bad in (size, -1):
            with pytest.raises(ValueError, match=rf"prompt token id {bad} out of range \(V={size}\)"):
                enter((0, bad, 1))
        # Without the type check these prompts would decode: the table model
        # never reads them, and an n-gram model serves (0.5,) its unseen row.
        for bad in (1.5, 1.0, float("nan")):
            with pytest.raises(ValueError, match=rf"prompt token id {bad!r} is not an int"):
                enter((0, bad, 1))
    # Ids that a larger vocabulary's encode made are checked like any others.
    large = train_ngram(" ".join(f"w{i}" for i in range(1999)), order=1, add_k=1.0).vocabulary
    assert large.size == 2000
    foreign = large.encode("w1500")
    [bad] = foreign
    for enter in entries:
        with pytest.raises(ValueError, match=rf"prompt token id {bad} out of range \(V={size}\)"):
            enter(foreign)
    with pytest.raises(ValueError, match=rf"continuation token id {bad} out of range \(V={size}\)"):
        sequence_logprob(trap_model, (), foreign)
    # A slice, a concatenation or a list of this vocabulary's encoded ids is
    # checked again. Only a tuple of encode's own type shows that: build one
    # that holds an id out of range.
    marked = type(trap_model.vocabulary.encode("a"))((0, size))
    for derived in (marked[:], marked[1:], marked + (1,), (1,) + marked, list(marked)):
        for enter in entries:
            with pytest.raises(ValueError, match=rf"prompt token id {size} out of range"):
                enter(derived)
    ngram = train_ngram("a b a b", order=1, add_k=1.0)
    with pytest.raises(ValueError, match=r"prompt token id 0\.5 is not an int"):
        multipath_decode(ngram, (0.5,), MultipathConfig())
    # Without its own check, -3 would wrap to token 0 and score (0, 0).
    for continuation in ((0, -3), (size, 2), (0, -1)):
        with pytest.raises(ValueError, match=r"continuation token id -?\d+ out of range"):
            sequence_logprob(trap_model, (), continuation)


def test_encoded_ids_skip_the_check_only_in_the_vocabulary_that_made_them():
    vocab = Vocabulary(tokens=("a", "b", "$"), eos_id=2)
    twin = Vocabulary(tokens=("a", "b", "$"), eos_id=2)
    assert vocab == twin
    ids = vocab.encode("b a")
    checked = vocab.check_ids(ids, "prompt")
    # A plain tuple, so a model call's tuple(prompt) does not copy it again.
    assert checked == (1, 0) and type(checked) is tuple
    # Nothing the check would catch can come out of encode, so build a tuple
    # of encode's type that holds an id out of range: only ``vocab`` trusts it.
    marked = type(ids)((0, 7))
    assert vocab.check_ids(marked, "prompt") == (0, 7)
    with pytest.raises(ValueError, match=r"prompt token id 7 out of range \(V=3\)"):
        twin.check_ids(marked, "prompt")
    assert type(twin.encode("b a")) is not type(ids)
    assert type(vocab.encode("")) is type(vocab.encode("a")) is type(ids)


def test_next_distribution_is_pure(trap_model):
    a = trap_model.next_distribution((), (0,))
    b = trap_model.next_distribution((), (0,))
    assert row_probs(a) == row_probs(b)


# ---------------------------------------------------------------------------
# TableLM


def test_table_lookup_order_prefix_then_default():
    row_prefix = StepDistribution(probs=(0.0, 1.0, 0.0))
    row_default = StepDistribution(probs=(0.0, 0.0, 1.0))
    model = TableLM(vocabulary=ABC, rows={(0,): row_prefix}, default=row_default)
    # The prompt never picks the row.
    assert model.next_distribution((1,), (0,)) is row_prefix
    assert model.next_distribution((0,), (0,)) is row_prefix
    assert model.next_distribution((0,), (1,)) is row_default


def test_digit_model_pins_each_task_prompts_step0_row(small_digit_model):
    vocab = small_digit_model.vocabulary
    table_row = small_digit_model.next_distribution((), ())
    assert row_probs(table_row) == tuple(0.1 if t < DIGITS else 0.0 for t in range(vocab.size))
    prompts = [vocab.encode(task_prompt(i)) for i in range(10)]
    for i, prompt in enumerate(prompts):
        row = small_digit_model.next_distribution(prompt, ())
        assert row is not table_row and row.ranked(1) == ((best_digit(i), 0.6),)
    # Any other prompt gets the table's step-0 row, and a later step the
    # table's row for its prefix.
    for other in (vocab.encode("solve item 3"), prompts[0] + prompts[0], vocab.encode(task_prompt(3))[1:]):
        assert small_digit_model.next_distribution(other, ()) is table_row
    assert row_probs(small_digit_model.next_distribution(prompts[0], (0,))) == tuple(
        float(t == vocab.eos_id) for t in range(vocab.size))


def test_table_missing_row_and_no_default():
    model = TableLM(vocabulary=ABC, rows={})
    with pytest.raises(ValueError, match="no table row"):
        model.next_distribution((), (0,))


def test_table_rejects_wrong_row_length():
    with pytest.raises(ValueError, match="row length"):
        TableLM(vocabulary=ABC, rows={(): StepDistribution(probs=(0.5, 0.5))})
    with pytest.raises(ValueError, match="row length"):
        TableLM(vocabulary=ABC, default=StepDistribution(probs=(1.0, 0.0)))


def test_greedy_trap_rows():
    model = greedy_trap_lm()
    assert model.vocabulary.tokens == ("a", "b", "$")
    step0 = model.next_distribution((), ())
    assert row_probs(step0) == (0.45, 0.55, 0.0)
    assert row_probs(model.next_distribution((), (0,))) == (0.05, 0.05, 0.9)


# ---------------------------------------------------------------------------
# NGramLM


def test_ngram_conditional_counts():
    model = train_ngram("a b a b", order=1, add_k=1.0)
    assert model.vocabulary.tokens == ("a", "b", "</s>")
    a, b = model.vocabulary.encode("a b")
    probs = row_probs(model.next_distribution((), (a,)))
    # count(a -> b) = 2 out of 2, so (2+1)/(2+3)
    assert probs[b] == pytest.approx(0.6)
    assert probs[a] == pytest.approx(0.2)


def test_ngram_line_end_counts_as_eos_transition():
    model = train_ngram("a a b", order=1, add_k=1.0)
    a, b = model.vocabulary.encode("a b")
    probs = row_probs(model.next_distribution((), (a,)))
    assert probs[a] == pytest.approx(0.4)
    assert probs[b] == pytest.approx(0.4)
    assert probs[model.vocabulary.eos_id] == pytest.approx(0.2)
    after_b = row_probs(model.next_distribution((), (b,)))
    # b is always line final: (1+1)/(1+3)
    assert after_b[model.vocabulary.eos_id] == pytest.approx(0.5)


def test_ngram_context_includes_prompt():
    model = train_ngram("a b\nb a", order=2, add_k=0.5)
    a, b = model.vocabulary.encode("a b")
    from_prompt = model.next_distribution((a, b), ())
    from_prefix = model.next_distribution((), (a, b))
    assert row_probs(from_prompt) == row_probs(from_prefix)


def test_ngram_unseen_context_is_uniform():
    model = train_ngram("a b", order=3, add_k=1.0)
    a, b = model.vocabulary.encode("a b")
    dist = model.next_distribution((), (b, b, b))
    assert row_probs(dist) == (pytest.approx(1 / 3),) * 3


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


def per_position_ngram(corpus, order, add_k, eos_token="</s>"):
    """Reference trainer: counts one position at a time, over the sorted vocabulary's ids."""
    lines = [line.split() for line in corpus.splitlines() if line.split()]
    if not lines:
        raise TrainingError("corpus is empty")
    seen = sorted({tok for line in lines for tok in line})
    if eos_token in seen:
        raise TrainingError(f"eos token {eos_token!r} occurs in the corpus")
    vocabulary = Vocabulary.from_tokens(seen + [eos_token], eos_token)
    counts = {}
    for line in lines:
        ids = vocabulary.encode(" ".join(line))
        for pos in range(len(ids) + 1):
            ctx = tuple(ids[max(0, pos - order):pos])
            nxt = ids[pos] if pos < len(ids) else vocabulary.eos_id
            counts.setdefault(ctx, {})
            counts[ctx][nxt] = counts[ctx].get(nxt, 0) + 1
    return NGramLM(vocabulary=vocabulary, order=order, add_k=add_k, counts=counts)


def trained(train, corpus, order, add_k, eos_token):
    try:
        model = train(corpus, order, add_k, eos_token)
    except (TrainingError, ValueError) as exc:
        return type(exc), str(exc)
    counts = [(ctx, list(nexts.items())) for ctx, nexts in model._counts.items()]
    return model.vocabulary.tokens, model.vocabulary.eos_id, counts


def test_train_ngram_matches_the_per_position_loop():
    rng = random.Random(14)
    words = ["a", "b", "c", "dd", "é", "</s>", "$"]
    breaks = ["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", " "]
    gaps = [" ", " ", "  ", "\t", " \t "]
    outcomes = set()
    for _ in range(600):
        lines = []
        for _ in range(rng.randint(0, 6)):
            picks = rng.choices(words[: rng.randint(1, len(words))], k=rng.choice([0, 1, 2, 3, 5, 8]))
            line = "".join(rng.choice(gaps) + w for w in picks)
            lines.append(line + rng.choice(["", " ", "\t"]))
        corpus = "".join(line + rng.choice(breaks) for line in lines)
        order = rng.randint(1, 4)
        add_k = rng.choice([0.5, 1.0, 0.0])
        eos = rng.choice(["</s>", "</s>", "$"])
        new = trained(train_ngram, corpus, order, add_k, eos)
        assert new == trained(per_position_ngram, corpus, order, add_k, eos), (corpus, order, add_k, eos)
        outcomes.add(new[1].split()[0] if new[0] in (TrainingError, ValueError) else "model")
    # every outcome is reached: a model, each corpus error and the bad add_k
    assert outcomes == {"model", "corpus", "eos", "add_k"}


def test_train_ngram_costs_nothing_per_unit_of_order_beyond_the_longest_line():
    # An order far beyond every line length builds no (order + 1)-wide
    # windows: lines that short have no full-length n-gram.
    corpus = "a b\nc"
    tracemalloc.start()
    try:
        huge = train_ngram(corpus, order=10**6, add_k=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    longest = train_ngram(corpus, order=2, add_k=0.5)
    assert huge._counts == longest._counts
    assert huge.vocabulary == longest.vocabulary
    for context in [(), (0,), (2,), (0, 1), (1, 0)]:
        assert row_probs(huge.next_distribution((), context)) == row_probs(longest.next_distribution((), context))


def test_train_ngram_holds_no_list_of_the_corpus_words():
    # 2,000 lines of 31 words over V=2000, each word with three successors:
    # 62k tokens and about 8k distinct bigrams.
    rng = random.Random(3)
    words = [f"w{i:04d}" for i in range(2000)]
    successors = {word: rng.sample(words, 3) for word in words}
    lines = []
    for _ in range(2000):
        line = [rng.choice(words)]
        for _ in range(30):
            line.append(rng.choice(successors[line[-1]]))
        lines.append(" ".join(line))
    corpus = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        train_ngram(corpus, order=1, add_k=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One pass reads about 2.3 MB here, the model included; a list of the
    # corpus's 62k words alone would add about 3.5 MB.
    assert peak < 3.5e6


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


def random_sparse_row(rng, max_size):
    """A sparse row whose entries lie above, below or on the floor, or are
    zero; the floor is 0 for about one row in five. Small integer weights
    make value ties common. None when every weight came out 0."""
    size = rng.randint(2, max_size)
    tokens = rng.sample(range(size), rng.randint(0, size - 1))
    floor_weight = rng.randint(0, 4)
    weights = {t: rng.randint(0, 6) for t in tokens}
    total = sum(weights.values()) + floor_weight * (size - len(tokens))
    if total == 0:
        return None
    return StepDistribution._trusted(size, floor_weight / total, {t: w / total for t, w in weights.items()})


def test_sparse_row_children_match_dense_trim():
    # Each k in 0..V+1 is asked twice, in shuffled order, of one row: a row
    # remembers its children per k, and must never answer one k with
    # another's.
    rng = random.Random(9)
    ask_rng = random.Random(10)
    for _ in range(2000):
        row = random_sparse_row(rng, 12)
        if row is None:
            continue
        size = len(row)
        logprobs = tuple(map(row.logprob, range(size)))
        assert tuple(map(StepDistribution(probs=row_probs(row)).logprob, range(size))) == logprobs
        ks = list(range(size + 2)) * 2
        ask_rng.shuffle(ks)
        for k in ks:
            assert row.children(k) == dense_children(logprobs, k), (row, k)


def test_ranked_orders_by_probability_not_by_logprob():
    # Two adjacent floats that share one log: ranked by logprob they would
    # tie, and the tie would go to the lower id.
    low = 5 / 14
    high = math.nextafter(low, 1.0)
    assert math.log(low) == math.log(high)
    row = StepDistribution._trusted(3, 0.0, {0: low, 1: high, 2: 1.0 - low - high})
    assert row.ranked(2) == ((1, high), (0, low))


def test_sparse_row_entropy_matches_dense_formula_bit_for_bit():
    # adaptive_decode picks k by round(bits), so every bit counts. Rows up
    # to V=300 repeat the floor term hundreds of times, where multiplying it
    # by its count would round differently from summing it.
    rng = random.Random(12)
    floors = set()
    for _ in range(1000):
        row = random_sparse_row(rng, 300)
        if row is None:
            continue
        dense = -math.fsum(p * math.log(p) for p in row_probs(row) if p > 0.0)
        assert row.entropy().hex() == dense.hex(), row
        floors.add(row._floor > 0.0)
    assert floors == {False, True}


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
        floor = rows[0].logprob(0)
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
            assert tuple(map(dist.logprob, range(vocab.size))) == logprobs
            assert row_probs(dist) == probs
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


def test_sequence_logprob_builds_no_dense_row():
    # An add-k n-gram model's rows are sparse; reading a row's dense
    # logprobs would leave them cached on it.
    model = train_ngram("a b c d\nb c a\nd d a b\n", order=2, add_k=0.5)
    handed = []
    next_distribution = model.next_distribution

    def recording(prompt, prefix):
        handed.append(next_distribution(prompt, prefix))
        return handed[-1]

    model.next_distribution = recording
    ids = model.vocabulary.encode("a b c d") + (model.vocabulary.eos_id,)
    got = sequence_logprob(model, ids[:1], ids[1:])
    assert len(handed) == len(ids) - 1
    for row in handed:
        assert "logprobs" not in vars(row), row
    want = 0.0
    for row, token in zip(handed, ids[1:]):
        want += math.log(row_probs(row)[token])
    assert got == want


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
    # Each listed token is looked up on its own: "" is no token, and "a b"
    # is not the context ["a", "b"].
    for context, bad in ((["z"], "z"), (["a", ""], ""), (["a b"], "a b")):
        text = json.dumps({"vocab": ["a", "b", "$"], "eos": "$", "rows": [{"context": context, "probs": [0.5, 0.25, 0.25]}]})
        with pytest.raises(LoadError, match=f"row 0: token {re.escape(repr(bad))} not in vocabulary"):
            load_model(write_model(tmp_path, text))


@pytest.mark.parametrize("spec", [
    {"vocab": ["a b", "c", "$"], "eos": "$", "rows": []},
    {"kind": "remote", "url": "http://127.0.0.1:1/model", "vocab": ["a b", "c", "$"], "eos": "$"},
    {"kind": "ngram", "corpus": "a b a", "eos": "end of line"},
    {"kind": "ngram", "corpus": "a b a", "eos": ""},
], ids=["table", "remote", "ngram-eos", "ngram-empty-eos"])
def test_load_rejects_a_vocabulary_token_with_whitespace(tmp_path, spec):
    with pytest.raises(LoadError, match=r"model file .*vocabulary token .* must be a nonempty string without whitespace"):
        load_model(write_model(tmp_path, json.dumps(spec)))


def test_load_rejects_bad_default_row(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [0.9, 0.2]}'
    with pytest.raises(LoadError, match="default row"):
        load_model(write_model(tmp_path, text))


def test_load_accepts_default_row(tmp_path):
    text = '{"vocab": ["a", "$"], "eos": "$", "rows": [], "default": [0.25, 0.75]}'
    model = load_model(write_model(tmp_path, text))
    assert row_probs(model.next_distribution((), (0, 0))) == (0.25, 0.75)
