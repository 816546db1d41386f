import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from musicqa.assembly import write_items_jsonl
from musicqa.corpus import LabelFrequencyTable
from musicqa.errors import ParseError
from musicqa.llmgen import validate_qa_item
from musicqa.rulegen import (
    DistractorPool,
    EmptyPoolError,
    FormatPlan,
    GenerationReport,
    InsufficientPoolError,
    PlaceholderError,
    QAFormat,
    QuestionTemplate,
    RuleGenerator,
    _item_entropy,
    _seed_prefix,
    default_templates,
    generate_rule_dataset,
    load_templates,
    qa_item_id,
    sample_distractors,
)

from conftest import FIXTURE_LEAF_IDS, make_clip, wide_corpus, wide_freqs, wide_ontology


# ---------------------------------------------------------------------------
# Seeds and ids


def item_seed(global_seed, audio_id, counter):
    """The per-item seed for_clip stores on an item and seeds its stream with."""
    return _item_entropy(_seed_prefix(global_seed, audio_id), counter)[1]


def test_item_seed_deterministic():
    assert item_seed(7, "clipA", 0) == item_seed(7, "clipA", 0)


def test_item_seed_distinguishes_inputs():
    base = item_seed(7, "clipA", 0)
    assert base != item_seed(7, "clipA", 1)
    assert base != item_seed(8, "clipA", 0)
    assert base != item_seed(7, "clipB", 0)


def test_item_seed_no_collisions_over_10k_ids():
    seeds = {item_seed(7, f"audio-{i}", 0) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_qa_item_id_shape_and_stability():
    a = qa_item_id("clipA", QAFormat.OPEN, "open-1", 123)
    assert a == qa_item_id("clipA", "open", "open-1", 123)
    assert len(a) == 16 and int(a, 16) >= 0
    assert a != qa_item_id("clipA", "open", "open-1", 124)
    assert a != qa_item_id("clipA", "mcq", "open-1", 123)


# ---------------------------------------------------------------------------
# Templates


def T(tid, fmt, text, category="*"):
    return QuestionTemplate(template_id=tid, format=fmt, category=category, text=text)


def test_load_templates_happy():
    raw = json.dumps([
        {"template_id": "o1", "format": "open", "category": "*",
         "text": "What is the {category} here?"},
        {"template_id": "b1", "format": "binary", "category": "*",
         "text": "Is {label} present?"},
    ])
    ts = load_templates(raw)
    assert [t.template_id for t in ts] == ["o1", "b1"]
    assert ts[0].format is QAFormat.OPEN


@pytest.mark.parametrize("entry, msg", [
    ({"template_id": "x", "format": "open", "category": "*", "text": "No placeholder?"},
     "need {category}"),
    ({"template_id": "x", "format": "open", "category": "*", "text": "{category} and {label}?"},
     "cannot use {label}"),
    ({"template_id": "x", "format": "binary", "category": "*", "text": "Anything there?"},
     "need {label}"),
    ({"template_id": "x", "format": "binary", "category": "*", "text": "Is {label} a {category}?"},
     "cannot use {category}"),
    ({"template_id": "x", "format": "mcq", "category": "*", "text": "Pick one:"},
     "need {category}"),
    ({"template_id": "x", "format": "nope", "category": "*", "text": "?"},
     "unknown format"),
    ({"format": "open", "category": "*", "text": "{category}?"},
     "missing field"),
    ({"template_id": "x", "format": "open", "category": "*", "text": ""},
     "non-empty"),
])
def test_load_templates_rejects(entry, msg):
    with pytest.raises(ParseError) as err:
        load_templates(json.dumps([entry]))
    assert msg in str(err.value)


def test_load_templates_rejects_duplicate_ids():
    entry = {"template_id": "dup", "format": "open", "category": "*", "text": "{category}?"}
    with pytest.raises(ParseError):
        load_templates(json.dumps([entry, entry]))


def test_load_templates_rejects_non_array():
    with pytest.raises(ParseError):
        load_templates("{}")
    with pytest.raises(ParseError):
        load_templates("not json")


def test_default_templates_cover_all_formats():
    ts = default_templates()
    by_fmt = Counter(t.format for t in ts)
    assert by_fmt[QAFormat.OPEN] >= 2
    assert by_fmt[QAFormat.BINARY] >= 2
    assert by_fmt[QAFormat.MCQ] >= 2


def rule_gen(ontology, freqs, plan, seed=7, templates=None):
    return RuleGenerator(ontology, freqs, templates or default_templates(), plan, seed, "music")


def test_template_choice_singleton_and_missing(fixture_ontology, fixture_freqs):
    only = T("o1", QAFormat.OPEN, "What {category}?")
    report = GenerationReport()
    items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(3, 1, 0),
                     templates=[only]).for_clip(make_clip("c01", {"ag"}), report=report)
    assert [i.template_id for i in items] == ["o1"] * 3
    assert len(report.errors) == 1 and "binary: no template" in report.errors[0]


def test_template_choice_prefers_exact_category(fixture_ontology, fixture_freqs):
    wild = T("w", QAFormat.OPEN, "Wild {category}?")
    exact = T("e", QAFormat.OPEN, "Exact {category}?", category="Musical Instrument")
    clip = make_clip("c01", {"ag", "rock"})
    for seed in range(50):
        items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(2, 0, 0), seed,
                         templates=[wild, exact]).for_clip(clip)
        # other categories fall back to the wildcard
        assert {(i.category, i.template_id) for i in items} == {
            ("musical instrument", "e"), ("music genre", "w"),
        }


def test_template_choice_uniform():
    ts = [T(f"t{i}", QAFormat.OPEN, "Q {category}" + "?" * (i + 1)) for i in range(4)]
    items, _ = generate_rule_dataset(wide_corpus(6000), wide_ontology(), wide_freqs(), ts,
                                     FormatPlan(1, 0, 0), 5, music_root="music")
    assert len(items) >= 14_000
    counts = Counter(i.template_id for i in items)
    assert set(counts) == {"t0", "t1", "t2", "t3"}
    for tid in counts:
        assert abs(counts[tid] / len(items) - 0.25) < 0.015


# ---------------------------------------------------------------------------
# Distractor sampling


def pool_of(**weights):
    return DistractorPool(candidates=tuple(
        (name.lower(), name, w) for name, w in weights.items()
    ))


def ordered_tuple_probs(weights, k):
    """Brute-force sequential-without-replacement tuple probabilities."""
    out = {}

    def rec(prefix, remaining, p):
        if len(prefix) == k:
            out[tuple(prefix)] = p
            return
        total = sum(remaining.values())
        for name in remaining:
            rest = {n: w for n, w in remaining.items() if n != name}
            rec(prefix + [name], rest, p * remaining[name] / total)

    rec([], dict(weights), 1.0)
    return out


def test_sample_deterministic_and_distinct():
    pool = pool_of(A=1, B=2, C=3, D=4)
    draw = sample_distractors(pool, 3, seed=99)
    assert draw == sample_distractors(pool, 3, seed=99)
    assert len(set(draw)) == 3


def test_sample_exactly_k_items_returns_all():
    pool = pool_of(A=1, B=5)
    draw = sample_distractors(pool, 2, seed=5)
    assert sorted(draw) == ["A", "B"]
    # order fixed per seed
    assert draw == sample_distractors(pool, 2, seed=5)


def test_sample_zero_weight_never_chosen():
    pool = pool_of(A=0, B=1)
    for seed in range(200):
        assert sample_distractors(pool, 1, seed) == ["B"]


def test_sample_errors():
    with pytest.raises(EmptyPoolError):
        sample_distractors(pool_of(A=0), 1, seed=1)
    with pytest.raises(InsufficientPoolError):
        sample_distractors(pool_of(A=1, B=1), 3, seed=1)
    assert sample_distractors(pool_of(A=1), 0, seed=1) == []


def test_sample_duplicate_names_collapse():
    pool = DistractorPool(candidates=(("x1", "Drums", 5), ("x2", "drums", 5), ("x3", "Flute", 1)))
    draws = {tuple(sample_distractors(pool, 2, seed)) for seed in range(50)}
    for draw in draws:
        assert len({d.casefold() for d in draw}) == 2


def test_sample_marginal_frequency():
    # two labels, 90/10 weights: heavy one drawn 90% +- 2% over 10k trials
    pool = pool_of(Drums=90, Flute=10)
    hits = sum(sample_distractors(pool, 1, seed)[0] == "Drums" for seed in range(10_000))
    assert abs(hits / 10_000 - 0.9) < 0.02


def test_sample_permutation_distribution():
    # equal weights, k = n: all 6 orders equally likely
    pool = pool_of(A=1, B=1, C=1)
    counts = Counter(tuple(sample_distractors(pool, 3, seed)) for seed in range(30_000))
    assert len(counts) == 6
    for perm, n in counts.items():
        assert abs(n / 30_000 - 1 / 6) < 0.01, perm


def test_sample_matches_bruteforce_tuple_probs():
    weights = {"A": 5, "B": 4, "C": 3, "D": 2, "E": 1}
    expected = ordered_tuple_probs(weights, 2)
    n = 40_000
    counts = Counter(tuple(sample_distractors(pool_of(**weights), 2, seed)) for seed in range(n))
    from scipy.stats import chisquare
    keys = sorted(expected)
    stat = chisquare(
        [counts.get(k, 0) for k in keys],
        [expected[k] * n for k in keys],
    )
    assert stat.pvalue > 0.01


# ---------------------------------------------------------------------------
# Items from for_clip


def first_seed(audio_id, positive):
    """A global seed whose first item for audio_id flips the binary coin the given way."""
    return next(s for s in range(1000) if (not item_seed(s, audio_id, 0) >> 63) == positive)


def test_open_item_example(fixture_ontology, fixture_freqs):
    t = T("o1", QAFormat.OPEN, "What is the {category} in this music?")
    gen = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(1, 0, 0), 42, templates=[t])
    clip = make_clip("c01", {"ag"})
    [item] = gen.for_clip(clip)
    assert item.question == "What is the musical instrument in this music?"
    assert item.answer == "Acoustic guitar"
    assert item.category == "musical instrument"
    assert item.format is QAFormat.OPEN
    assert item.options == () and item.answer_index is None
    assert item.seed == item_seed(42, "c01", 0)
    assert item.qa_id == qa_item_id("c01", QAFormat.OPEN, "o1", item.seed)
    assert gen.for_clip(clip) == [item]


def test_render_unresolved_placeholder(fixture_ontology, fixture_freqs):
    t = T("o1", QAFormat.OPEN, "What is here, {label}?")
    with pytest.raises(PlaceholderError):
        rule_gen(fixture_ontology, fixture_freqs, FormatPlan(1, 0, 0), templates=[t])


BINARY_T = T("b1", QAFormat.BINARY, "Is {label} present in the music?")


def test_generate_binary_positive(fixture_ontology, fixture_freqs):
    # a clear top bit of the item seed picks the positive branch
    seed = first_seed("c01", positive=True)
    [item] = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(0, 1, 0), seed,
                      templates=[BINARY_T]).for_clip(make_clip("c01", {"ag"}))
    assert item.question == "Is acoustic guitar present in the music?"
    assert item.answer == "Yes"
    assert item.category == "musical instrument"


def test_generate_binary_negative_forced_choice(fixture_ontology, fixture_freqs):
    # a set top bit picks the negative branch; the clip carries three of the
    # four instruments, so Drum kit is the only label left to ask about
    seed = first_seed("c01", positive=False)
    items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(0, 1, 0), seed,
                     templates=[BINARY_T]).for_clip(make_clip("c01", {"ag", "eg", "piano"}))
    assert items[0].question == "Is drum kit present in the music?"
    assert items[0].answer == "No"


def test_generate_binary_empty_pool_falls_back_positive(fixture_ontology, fixture_freqs):
    # the clip carries every music leaf, so no negative label is left anywhere
    report = GenerationReport()
    items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(0, 2, 0),
                     templates=[BINARY_T]).for_clip(make_clip("c01", FIXTURE_LEAF_IDS), report=report)
    assert len(items) == 2 * len(FIXTURE_LEAF_IDS)
    assert {i.answer for i in items} == {"Yes"}
    assert report.binary_positive_fallbacks > 0
    assert report.binary_positive_fallbacks == sum(i.seed >> 63 for i in items)


def test_generate_binary_balance():
    items, report = generate_rule_dataset(wide_corpus(6000), wide_ontology(), wide_freqs(),
                                          default_templates(), FormatPlan(0, 1, 0), 5,
                                          music_root="music")
    assert len(items) >= 14_000
    assert report.binary_positive_fallbacks == 0
    yes = sum(i.answer == "Yes" for i in items)
    assert abs(yes / len(items) - 0.5) < 0.015


MCQ_T = T("m1", QAFormat.MCQ, "Select the {category} in this music:")


def test_mcq_item_invariants(fixture_ontology, fixture_freqs):
    gen = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(0, 0, 1), 9, templates=[MCQ_T])
    clip = make_clip("c01", {"ag"})
    [item] = gen.for_clip(clip)
    assert len(item.options) == 4
    assert len(set(item.options)) == 4
    assert item.options.count("Acoustic guitar") == 1
    assert item.options[item.answer_index] == item.answer == "Acoustic guitar"
    # lettered, space-separated rendering in option order
    expected = "Select the musical instrument in this music: " + " ".join(
        f"{chr(65 + i)}. {opt}" for i, opt in enumerate(item.options)
    )
    assert item.question == expected
    assert gen.for_clip(clip) == [item]


def test_mcq_insufficient_pool_reported(fixture_ontology, fixture_freqs):
    # six of the eight music leaves on the clip leave two distractors, even
    # after widening to the whole music pool
    clip = make_clip("c01", {"ag", "eg", "piano", "drums", "rock", "jazz"})
    report = GenerationReport()
    items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(0, 0, 1),
                     templates=[MCQ_T]).for_clip(clip, report=report)
    assert items == []
    assert len(report.errors) == 6
    assert all(" mcq: " in e and "need 3" in e for e in report.errors)


def test_mcq_answer_letter_uniform():
    items, _ = generate_rule_dataset(wide_corpus(3500), wide_ontology(), wide_freqs(),
                                     default_templates(), FormatPlan(0, 0, 1), 5,
                                     music_root="music")
    assert len(items) >= 8_000
    counts = Counter(i.answer_index for i in items)
    for idx in range(4):
        assert abs(counts[idx] / len(items) - 0.25) < 0.03


# ---------------------------------------------------------------------------
# Per-clip orchestration


def test_for_clip_counts(fixture_ontology, fixture_freqs):
    items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(open=1, binary=1, mcq=1)).for_clip(
        make_clip("c01", {"ag"})
    )
    assert len(items) == 3
    assert [i.format for i in items] == [QAFormat.OPEN, QAFormat.BINARY, QAFormat.MCQ]
    # category resolves to the ancestor directly under the music root,
    # not the nearer "Guitar" grouping
    assert all(i.category == "musical instrument" for i in items)
    assert all(i.audio_id == "c01" for i in items)


def test_for_clip_no_music_leaves(fixture_ontology, fixture_freqs):
    gen = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(1, 1, 1))
    assert gen.for_clip(make_clip("c04", {"sp1"})) == []


def test_for_clip_multi_leaf_plan(fixture_ontology, fixture_freqs):
    items = rule_gen(fixture_ontology, fixture_freqs, FormatPlan(open=2, binary=0, mcq=1)).for_clip(
        make_clip("c05", {"ag", "rock"})
    )
    assert len(items) == 6  # 2 leaves x (2 open + 1 mcq)
    cats = {i.category for i in items}
    assert cats == {"musical instrument", "music genre"}


def test_for_clip_distractors_never_overlap_clip_labels(fixture_ontology, fixture_freqs):
    clip = make_clip("c05", {"ag", "eg", "piano"})
    gen = RuleGenerator(fixture_ontology, fixture_freqs, default_templates(),
                        FormatPlan(0, 0, 3), 11, "music")
    clip_names = {"acoustic guitar", "electric guitar", "piano"}
    for item in gen.for_clip(clip):
        for opt in item.options:
            if opt != item.answer:
                assert opt.casefold() not in clip_names


def test_for_clip_widens_pool_when_category_too_small(fixture_ontology, fixture_freqs):
    # instrument category has 4 leaves; excluding 3 clip labels leaves 1,
    # so MCQ distractors must come from the whole music pool
    clip = make_clip("c05", {"ag", "eg", "piano"})
    gen = RuleGenerator(fixture_ontology, fixture_freqs, default_templates(),
                        FormatPlan(0, 0, 1), 11, "music")
    report = GenerationReport()
    items = gen.for_clip(clip, report=report)
    assert len(items) == 3 and report.errors == []
    genre_names = {"Rock music", "Jazz", "Pop music", "Folk music"}
    for item in items:
        assert any(opt in genre_names for opt in item.options)


def test_for_clip_reports_missing_template(fixture_ontology, fixture_freqs):
    only_open = [T("o1", QAFormat.OPEN, "What {category}?")]
    gen = RuleGenerator(fixture_ontology, fixture_freqs, only_open,
                        FormatPlan(1, 1, 1), 7, "music")
    report = GenerationReport()
    items = gen.for_clip(make_clip("c01", {"ag"}), report=report)
    assert len(items) == 1
    assert items[0].format is QAFormat.OPEN
    assert len(report.errors) == 2
    assert any("binary" in e for e in report.errors)
    assert any("mcq" in e for e in report.errors)


def test_generator_rejects_template_with_stray_placeholder(fixture_ontology, fixture_freqs):
    bad = [T("o1", QAFormat.OPEN, "What {category} of {label}?")]
    with pytest.raises(PlaceholderError):
        RuleGenerator(fixture_ontology, fixture_freqs, bad, FormatPlan(1, 0, 0), 7, "music")


def test_item_counter_advances_even_on_errors(fixture_ontology, fixture_freqs):
    # an unfillable format consumes counter positions, so the items around
    # it keep their identity when it starts working again
    full = default_templates()
    only_open = [t for t in full if t.format is QAFormat.OPEN]
    clip = make_clip("c01", {"ag"})
    a = RuleGenerator(fixture_ontology, fixture_freqs, only_open,
                      FormatPlan(1, 1, 1), 7, "music").for_clip(clip)
    b = RuleGenerator(fixture_ontology, fixture_freqs, full,
                      FormatPlan(1, 1, 1), 7, "music").for_clip(clip)
    assert a[0].qa_id == b[0].qa_id


# ---------------------------------------------------------------------------
# Batch drivers


def test_dataset_sorted_and_deterministic():
    o, clips, freqs = wide_ontology(3, 8), wide_corpus(60, 3, 8), wide_freqs(3, 8)
    ts = default_templates()
    items1, rep1 = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 5,
                                         music_root="music")
    items2, _ = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 5,
                                      music_root="music")
    assert items1 == items2
    assert [i.qa_id for i in items1] == sorted(i.qa_id for i in items1)
    assert rep1.clips == 60
    assert rep1.items == len(items1)


def test_dataset_order_independent():
    o, clips, freqs = wide_ontology(3, 8), wide_corpus(40, 3, 8), wide_freqs(3, 8)
    ts = default_templates()
    shuffled = list(clips)
    random.Random(1).shuffle(shuffled)
    a, _ = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 5, music_root="music")
    b, _ = generate_rule_dataset(shuffled, o, freqs, ts, FormatPlan(1, 1, 1), 5, music_root="music")
    assert a == b


def test_dataset_worker_independent():
    o, clips, freqs = wide_ontology(3, 8), wide_corpus(120, 3, 8), wide_freqs(3, 8)
    ts = default_templates()
    a, rep_a = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 5,
                                     music_root="music", workers=1)
    b, rep_b = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 5,
                                     music_root="music", workers=4)
    assert a == b
    assert rep_a.to_dict() == rep_b.to_dict()


def test_global_seed_changes_output():
    o, clips, freqs = wide_ontology(3, 8), wide_corpus(10, 3, 8), wide_freqs(3, 8)
    ts = default_templates()
    a, _ = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 5, music_root="music")
    b, _ = generate_rule_dataset(clips, o, freqs, ts, FormatPlan(1, 1, 1), 6, music_root="music")
    assert a != b


def test_batch_items_pass_validation():
    o, clips, freqs = wide_ontology(3, 8), wide_corpus(50, 3, 8), wide_freqs(3, 8)
    items, report = generate_rule_dataset(clips, o, freqs, default_templates(),
                                          FormatPlan(1, 1, 1), 5, music_root="music")
    assert report.errors == []
    for item in items:
        assert validate_qa_item(item) == [], item


# Templates that leave every format without a template for one category:
# open and MCQ cover only instruments, binary covers only genres.
PINNED_TEMPLATES = [
    T("o1", QAFormat.OPEN, "What is the {category} here?", "Musical instrument"),
    T("o2", QAFormat.OPEN, "Name the {category} you hear.", "Musical instrument"),
    T("b1", QAFormat.BINARY, "Is {label} present?", "Music genre"),
    T("b2", QAFormat.BINARY, "Does this sound like {label}?", "Music genre"),
    T("m1", QAFormat.MCQ, "Select the {category}:", "Musical instrument"),
    T("m2", QAFormat.MCQ, "Which {category} plays?", "Musical instrument"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_dataset_bytes_pinned(fixture_ontology, fixture_freqs, tmp_path, workers):
    # every branch of for_clip: items of each format, a missing template for
    # each format, binary positive fallbacks (the clip with every leaf) and
    # MCQs skipped for short pools (that clip and the six-leaf one)
    rng = random.Random(3)
    leaves = sorted(FIXTURE_LEAF_IDS)
    clips = [make_clip(f"p{n:02d}", rng.sample(leaves, rng.randint(1, 3))) for n in range(12)]
    clips += [
        make_clip("all", FIXTURE_LEAF_IDS),
        make_clip("six", {"ag", "eg", "piano", "drums", "rock", "jazz"}),
        make_clip("speech", {"sp1"}),
    ]
    items, report = generate_rule_dataset(clips, fixture_ontology, fixture_freqs, PINNED_TEMPLATES,
                                          FormatPlan(2, 2, 2), 11, music_root="music",
                                          workers=workers)
    assert Counter(i.format for i in items) == {QAFormat.OPEN: 38, QAFormat.BINARY: 38, QAFormat.MCQ: 22}
    assert report.binary_positive_fallbacks == 4
    kinds = Counter(" ".join(e.split()[2:4]) for e in report.errors)
    assert kinds == {"open: no": 38, "binary: no": 38, "mcq: no": 38, "mcq: pool": 16}
    path = tmp_path / "items.jsonl"
    write_items_jsonl(items, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7b8e2a04eac6ddc7b90709c235c955392486ffce2736c8d48bcd3613fcd44d69"
    )
    report_bytes = json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(report_bytes).hexdigest() == (
        "7607bdda107732edfca2684b51a6d25a4c8f2e09eed683e105e22443f663e87f"
    )


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.sampled_from(["ag", "eg", "piano", "drums", "rock", "jazz", "pop", "folk"]),
             min_size=1, max_size=4, unique=True),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_property_all_items_valid(seed, labels, n_open, n_binary, n_mcq):
    import conftest
    from musicqa.ontology import parse_ontology
    o = parse_ontology(json.dumps(conftest.FIXTURE_NODES))
    freqs = LabelFrequencyTable(
        counts={lid: 1 + hash(lid) % 7 for lid in labels}, total=10
    )
    clip = make_clip("clip-x", set(labels))
    report = GenerationReport()
    items = RuleGenerator(
        o, freqs, default_templates(), FormatPlan(open=n_open, binary=n_binary, mcq=n_mcq),
        seed, "music",
    ).for_clip(clip, report=report)
    expected_max = len(labels) * (n_open + n_binary + n_mcq)
    assert len(items) + len(report.errors) <= expected_max
    seen_ids = set()
    for item in items:
        assert validate_qa_item(item) == [], (item, validate_qa_item(item))
        assert item.qa_id not in seen_ids
        seen_ids.add(item.qa_id)
        if item.format is QAFormat.MCQ:
            clip_names = {o.nodes[l].name.casefold() for l in labels}
            for opt in item.options:
                if opt != item.answer:
                    assert opt.casefold() not in clip_names
