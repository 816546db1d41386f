import math
import random
import sys
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from musicqa import evalharness
from musicqa.errors import ParseError
from musicqa.evalharness import (
    DimMismatchError,
    EmbedderConfig,
    EmbedderError,
    EmbeddingVector,
    EvalReport,
    HttpEmbedder,
    MeteorBreakdown,
    ModelOutput,
    OverlapError,
    TaskScores,
    TrigramEmbedder,
    UnknownQaIdError,
    aggregate_report,
    extract_binary_answer,
    extract_mcq_answer,
    load_outputs_jsonl,
    meteor_exact,
    relative_percent,
    score_binary,
    score_captions,
    score_label_match,
    score_mcq,
)
from musicqa.rulegen import Method, QAFormat, QAItem

from conftest import MockEndpoint


def item(qa_id, fmt=QAFormat.MCQ, question="Pick one: A. Guitar B. Violin C. Ukulele D. Cello",
         options=("Guitar", "Violin", "Ukulele", "Cello"), answer="Guitar",
         answer_index=0, category="instrument"):
    if fmt is not QAFormat.MCQ:
        options, answer_index = (), None
    return QAItem(
        qa_id=qa_id, audio_id=f"clip-{qa_id}", source="FMA", format=fmt,
        question=question, options=options, answer=answer,
        answer_index=answer_index, category=category, method=Method.RULE,
        template_id=None, seed=0,
    )


# ---------------------------------------------------------------------------
# Answer extraction


@pytest.mark.parametrize("text, expected", [
    ("A", 0),
    ("b", 1),
    ("C.", 2),
    ("(D)", 3),
    ("The answer is B", 1),
    ("my pick would be C", 2),
    ("I'd say B", 1),  # the "d" of a contraction is not an option letter
    ("I\u2019d say B", 1),  # nor after a typographic apostrophe
    ("the answer is 'B'", 1),  # a quoted letter still counts
    ("it's A", 0),                      # stray standalone letters with no option skipped
    ("E or F, maybe D", 3),             # out-of-range letters skipped until a valid one
    ("guitar", 0),                      # falls back to option text
    ("Sounds like a violin to me", 1),  # "a" is a standalone letter naming option A... no:
])
def test_extract_mcq_letter_and_text(text, expected):
    options = ("Guitar", "Violin", "Ukulele", "Cello")
    if text == "Sounds like a violin to me":
        # the standalone article "a" maps to option A first: the letter rule
        # deliberately outranks text matching
        assert extract_mcq_answer(text, options) == 0
    else:
        assert extract_mcq_answer(text, options) == expected


def test_extract_mcq_no_letter_inside_words():
    # letters embedded in words never count
    assert extract_mcq_answer("Banana", ("x", "y")) is None
    assert extract_mcq_answer("cab", ("x", "y")) is None


def test_extract_mcq_longest_option_wins():
    options = ("Guitar", "Electric guitar")
    assert extract_mcq_answer("that is an electric guitar", options) == 1
    # equal lengths: earlier option wins
    options = ("cat", "dog")
    assert extract_mcq_answer("cat dog", options) == 0


def test_extract_mcq_none_and_empty_options():
    assert extract_mcq_answer("no clue", ("Guitar", "Violin")) is None
    with pytest.raises(ValueError):
        extract_mcq_answer("A", ())


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=60))
@example("Aß")  # upper case "ASS": no standalone letter in either case
def test_extract_mcq_case_and_whitespace_invariant(text):
    options = ("Guitar", "Violin", "Ukulele", "Cello")
    base = extract_mcq_answer(text, options)
    assert extract_mcq_answer(text.upper(), options) == base
    assert extract_mcq_answer(text + "   \n", options) == base


@pytest.mark.parametrize("text, expected", [
    ("Yes", "Yes"), ("yes, definitely", "Yes"), ("NO.", "No"),
    ("I think no", "No"), ("maybe yes or no", "Yes"),  # first token wins
    ("notable", None), ("yesterday", None), ("", None), ("unsure", None),
])
def test_extract_binary(text, expected):
    assert extract_binary_answer(text) == expected


def test_load_outputs_jsonl():
    raw = '{"qa_id": "q1", "text": "A"}\n\n{"qa_id": "q2", "text": "no"}'
    outs = load_outputs_jsonl(raw)
    assert outs == [ModelOutput("q1", "A"), ModelOutput("q2", "no")]
    with pytest.raises(ParseError) as err:
        load_outputs_jsonl('{"qa_id": "q1"}')
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("line, reason", [
    ('{"qa_id": "q2", "text": null}', "text must be a string"),  # not the word "None"
    ('{"qa_id": "q2", "text": ["B"]}', "text must be a string"),  # not option B
    ('{"qa_id": "q2", "text": 1}', "text must be a string"),
    ('{"qa_id": 2, "text": "A"}', "qa_id must be a string"),
    ('{"qa_id": null, "text": "A"}', "qa_id must be a string"),
])
def test_load_outputs_jsonl_rejects_non_string_fields(line, reason):
    with pytest.raises(ParseError) as err:
        load_outputs_jsonl('{"qa_id": "q1", "text": "A"}\n' + line)
    assert err.value.line_no == 2
    assert err.value.reason == reason


# ---------------------------------------------------------------------------
# Scorers


def test_score_mcq_hand_fixture():
    items = [
        item("q1", answer="Guitar", answer_index=0),
        item("q2", options=("Rock", "Jazz", "Pop", "Folk"), answer="Jazz", answer_index=1),
        item("q3", answer="Cello", answer_index=3),
        item("q4", answer="Violin", answer_index=1, category="strings"),
        item("q5", answer="Guitar", answer_index=0),
    ]
    outputs = [
        ModelOutput("q1", "A"),                 # correct
        ModelOutput("q2", "jazz, most likely"),  # correct via text match
        ModelOutput("q3", "B"),                 # wrong
        ModelOutput("q4", "hard to say"),       # unparseable -> wrong
        # q5 missing
    ]
    scores = score_mcq(items, outputs)
    assert scores.total == 5
    assert scores.score_sum == 2.0
    assert scores.mean == 0.4
    assert scores.missing == 1
    assert scores.unparseable == 1
    assert scores.per_category["instrument"].total == 4
    assert scores.per_category["strings"].mean == 0.0
    assert 0.0 <= scores.mean <= 1.0


def test_score_mcq_category_map_override():
    items = [item("q1"), item("q2")]
    outputs = [ModelOutput("q1", "A"), ModelOutput("q2", "A")]
    scores = score_mcq(items, outputs, category_map={"q1": "mapped"})
    assert set(scores.per_category) == {"mapped", "(uncategorized)"}


# each scorer, the format it accepts, a gold answer, and a right and a wrong output
SCORERS = {
    "mcq": (score_mcq, QAFormat.MCQ, "Guitar", "A", "B"),
    "binary": (score_binary, QAFormat.BINARY, "Yes", "yes", "no"),
    "label_match": (lambda items, outputs: score_label_match(
        items, outputs, TrigramEmbedder(), candidate_labels=["Guitar", "Drums"]),
        QAFormat.OPEN, "Guitar", "a guitar", "drums"),
    "caption": (score_captions, QAFormat.CAPTION, "a gentle piano melody",
                "a gentle piano melody", "loud drums"),
}


@pytest.mark.parametrize("task", SCORERS)
def test_scorer_rejects_wrong_format_and_unknown_ids(task):
    scorer, fmt, *_ = SCORERS[task]
    wrong = QAFormat.BINARY if fmt is QAFormat.MCQ else QAFormat.MCQ
    with pytest.raises(ValueError):
        scorer([item("q1", fmt=wrong)], [])
    with pytest.raises(UnknownQaIdError):
        scorer([item("q1", fmt=fmt)], [ModelOutput("ghost", "A")])


@pytest.mark.parametrize("task", SCORERS)
def test_scorer_later_output_overrides(task):
    scorer, fmt, answer, right, wrong = SCORERS[task]
    items = [item("q1", fmt=fmt, answer=answer)]
    only_right = scorer(items, [ModelOutput("q1", right)])
    assert (only_right.task, only_right.total, only_right.missing) == (task, 1, 0)
    assert only_right.mean > scorer(items, [ModelOutput("q1", wrong)]).mean
    assert scorer(items, [ModelOutput("q1", wrong), ModelOutput("q1", right)]) == only_right
    assert scorer(items, [ModelOutput("q1", right), ModelOutput("q1", wrong)]) != only_right


def test_score_binary_hand_fixture():
    items = [
        item("q1", fmt=QAFormat.BINARY, question="Is it loud?", answer="Yes"),
        item("q2", fmt=QAFormat.BINARY, question="Is it fast?", answer="No"),
        item("q3", fmt=QAFormat.BINARY, question="Any drums?", answer="Yes"),
    ]
    outputs = [
        ModelOutput("q1", "yes, clearly"),
        ModelOutput("q2", "Yes"),           # wrong
        ModelOutput("q3", "can't tell"),    # unparseable
    ]
    scores = score_binary(items, outputs)
    assert scores.total == 3
    assert scores.mean == pytest.approx(1 / 3)
    assert scores.unparseable == 1
    with pytest.raises(ValueError):
        score_binary([item("q9")], [])


def test_random_guess_converges_to_quarter():
    rng = random.Random(3)
    items = [item(f"q{i}") for i in range(10_000)]
    outputs = [ModelOutput(f"q{i}", rng.choice("ABCD")) for i in range(10_000)]
    mean = score_mcq(items, outputs).mean
    assert abs(mean - 0.25) < 0.03


# ---------------------------------------------------------------------------
# Embedding-based label match


def cosine_similarity(a, b):
    """Reference oracle: the textbook cosine over every entry."""
    if a.dim != b.dim:
        raise DimMismatchError(f"embedding dims differ: {a.dim} vs {b.dim}")
    dot = sum(x * y for x, y in zip(a.values, b.values))
    norm_a = math.sqrt(sum(x * x for x in a.values))
    norm_b = math.sqrt(sum(x * x for x in b.values))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def match_label_by_similarity(output_text, candidate_labels, embedder):
    """The label production's matcher picks for one output text."""
    return evalharness._match_labels([output_text], candidate_labels, embedder)[output_text]


def test_trigram_embedder_basics():
    emb = TrigramEmbedder(dim=128)
    v1, v2, v3 = emb.embed(["guitar", "guitar", "violin"])
    assert v1 == v2
    assert v1.dim == 128
    assert math.isclose(sum(x * x for x in v1.values), 1.0, rel_tol=1e-9)
    assert cosine_similarity(v1, v2) == pytest.approx(1.0)
    assert cosine_similarity(v1, v3) < 0.9


def test_trigram_embedder_rejects_bad_dim():
    with pytest.raises(ValueError):
        TrigramEmbedder(dim=0)


def test_cosine_similarity_edge_cases():
    with pytest.raises(DimMismatchError):
        cosine_similarity(EmbeddingVector((1.0, 0.0)), EmbeddingVector((1.0,)))
    zero = EmbeddingVector((0.0, 0.0))
    assert cosine_similarity(zero, EmbeddingVector((1.0, 0.0))) == 0.0
    with pytest.raises(ValueError):
        EmbeddingVector(())


def test_match_label_exact_string_wins():
    emb = TrigramEmbedder()
    labels = ["Rock music", "Jazz", "Classical music", "Pop music"]
    assert match_label_by_similarity("Jazz", labels, emb) == "Jazz"
    assert match_label_by_similarity("sounds like rock music", labels, emb) == "Rock music"
    with pytest.raises(ValueError):
        match_label_by_similarity("x", ["only-one"], emb)


def test_match_label_matches_bruteforce_argmax():
    emb = TrigramEmbedder()
    labels = ["acoustic guitar", "electric guitar", "grand piano", "drum kit"]
    for text in ["guitar", "piano!", "drums", "a gentle acoustic piece", "kit"]:
        vectors = emb.embed([text, *labels])
        sims = [cosine_similarity(vectors[0], v) for v in vectors[1:]]
        best = labels[max(range(len(labels)), key=lambda i: (sims[i], -i))]
        assert match_label_by_similarity(text, labels, emb) == best


def test_match_label_scaling_invariant():
    class Scaled:
        def __init__(self, inner, factor):
            self.inner, self.factor = inner, factor

        def embed(self, texts):
            return [
                EmbeddingVector(tuple(self.factor * x for x in v.values))
                for v in self.inner.embed(texts)
            ]

    labels = ["Rock music", "Jazz", "Pop music"]
    base = TrigramEmbedder()
    for text in ["rock", "jazzy", "pop song"]:
        expected = match_label_by_similarity(text, labels, base)
        assert match_label_by_similarity(text, labels, Scaled(base, 7.3)) == expected


def test_match_label_tie_keeps_earliest():
    class Constant:
        def embed(self, texts):
            return [EmbeddingVector((1.0, 0.0)) for _ in texts]

    assert match_label_by_similarity("x", ["first", "second"], Constant()) == "first"


def test_score_label_match():
    items = [
        item("q1", fmt=QAFormat.OPEN, question="What genre?", answer="Jazz",
             category="genre"),
        item("q2", fmt=QAFormat.OPEN, question="What genre?", answer="Rock music",
             category="genre"),
    ]
    outputs = [
        ModelOutput("q1", "this is jazz"),
        ModelOutput("q2", "some kind of classical music"),
    ]
    scores = score_label_match(items, outputs, TrigramEmbedder(),
                               candidate_labels=["Jazz", "Rock music", "Classical music"])
    assert scores.total == 2
    assert scores.mean == 0.5
    # default vocabulary: the distinct gold answers
    default_scores = score_label_match(items, outputs, TrigramEmbedder())
    assert default_scores.total == 2


class ConstantEmbedder:
    """Every text embeds to the same vector, so every similarity ties."""

    def embed(self, texts):
        return [EmbeddingVector((1.0, 0.0)) for _ in texts]


class CountingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.texts = Counter()

    def embed(self, texts):
        self.calls += 1
        self.texts.update(texts)
        return self.inner.embed(texts)


LABELS = ["acoustic guitar", "electric guitar", "grand piano", "drum kit", "Jazz"]


def label_items():
    answers = ["acoustic guitar", "grand piano", "Jazz", "drum kit", "electric guitar",
               "grand piano", "acoustic guitar", "Jazz"]
    return [
        item(f"q{n}", fmt=QAFormat.OPEN, question="What is playing?", answer=answer,
             category="instrument" if n % 2 else "genre")
        for n, answer in enumerate(answers)
    ]


# q2 and q6 are missing; "guitar" and "some jazz" are each given twice
LABEL_OUTPUTS = [
    ModelOutput("q0", "guitar"),
    ModelOutput("q1", "a grand piano"),
    ModelOutput("q3", "drums"),
    ModelOutput("q4", "guitar"),
    ModelOutput("q5", "some jazz"),
    ModelOutput("q7", "some jazz"),
]


@pytest.mark.parametrize("embedder", [TrigramEmbedder(), ConstantEmbedder()],
                         ids=["trigram", "constant-tie"])
def test_score_label_match_agrees_with_bruteforce_argmax(embedder):
    items = label_items()
    by_id = {output.qa_id: output for output in LABEL_OUTPUTS}
    expected = TaskScores(task="label_match")
    for it in items:
        output = by_id.get(it.qa_id)
        if output is None:
            expected.missing += 1
            expected.add(0.0, it.category)
            continue
        query, *vectors = embedder.embed([output.text, *LABELS])
        sims = [cosine_similarity(query, v) for v in vectors]
        best = LABELS[max(range(len(LABELS)), key=lambda i: (sims[i], -i))]
        expected.add(1.0 if best == it.answer else 0.0, it.category)
    scores = score_label_match(items, LABEL_OUTPUTS, embedder, candidate_labels=LABELS)
    assert scores == expected
    assert scores.missing == 2
    if isinstance(embedder, ConstantEmbedder):
        # every similarity ties, so the earliest label is chosen for every output
        assert scores.score_sum == 1.0  # only q0's gold is LABELS[0]


def test_score_label_match_embeds_each_distinct_text_once():
    embedder = CountingEmbedder(TrigramEmbedder())
    score_label_match(label_items(), LABEL_OUTPUTS, embedder, candidate_labels=LABELS)
    assert embedder.calls == 1
    assert set(embedder.texts) == set(LABELS) | {o.text for o in LABEL_OUTPUTS}
    assert set(embedder.texts.values()) == {1}


def test_score_label_match_all_missing_skips_embedder():
    class Refusing:
        def embed(self, texts):
            raise AssertionError("embedder called")

    items = label_items()
    # fewer than 2 labels is an error only once some output needs a label
    scores = score_label_match(items, [], Refusing(), candidate_labels=["only"])
    assert scores.total == scores.missing == len(items)
    assert scores.score_sum == 0.0
    with pytest.raises(ValueError):
        score_label_match(items, LABEL_OUTPUTS[:1], TrigramEmbedder(), candidate_labels=["only"])


def test_score_label_match_dim_mismatch():
    class Ragged:
        def embed(self, texts):
            return [EmbeddingVector((1.0,) * (3 if t in LABELS else 2)) for t in texts]

    with pytest.raises(DimMismatchError):
        score_label_match(label_items(), LABEL_OUTPUTS, Ragged(), candidate_labels=LABELS)


def test_http_embedder_sends_distinct_texts_in_one_request(mock_endpoint):
    vectors = {"Jazz": [1.0, 0.0], "Rock music": [0.0, 1.0], "cool jazz": [0.9, 0.1]}
    mock_endpoint.script((200, {"embeddings": list(vectors.values())}))
    embedder = HttpEmbedder(EmbedderConfig(url=mock_endpoint.url))
    items = [
        item("q1", fmt=QAFormat.OPEN, question="What genre?", answer="Jazz", category="genre"),
        item("q2", fmt=QAFormat.OPEN, question="What genre?", answer="Rock music",
             category="genre"),
    ]
    outputs = [ModelOutput("q1", "cool jazz"), ModelOutput("q2", "cool jazz")]
    scores = score_label_match(items, outputs, embedder, candidate_labels=["Jazz", "Rock music"])
    assert scores.total == 2 and scores.score_sum == 1.0
    assert [r["payload"]["texts"] for r in mock_endpoint.requests] == [list(vectors)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_http_embedder_rejects_non_finite_values(mock_endpoint, bad):
    mock_endpoint.script((200, {"embeddings": [[0.5, 0.5], [0.5, bad]]}))
    embedder = HttpEmbedder(EmbedderConfig(url=mock_endpoint.url))
    with pytest.raises(EmbedderError, match="non-finite"):
        embedder.embed(["fine", "broken"])


# ---------------------------------------------------------------------------
# METEOR


def test_meteor_identical_one_word():
    b = meteor_exact("guitar", "guitar")
    assert b.m == 1 and b.chunks == 1
    assert b.precision == b.recall == 1.0
    assert abs(b.fmean - 1.0) < 1e-12
    assert abs(b.penalty - 0.5) < 1e-12
    assert abs(b.score - 0.5) < 1e-9


def test_meteor_three_word_self_pair():
    b = meteor_exact("the cat sat", "the cat sat")
    assert b.m == 3 and b.chunks == 1
    assert abs(b.penalty - 0.5 / 27) < 1e-12
    assert abs(b.score - 53 / 54) < 1e-9


def test_meteor_zero_overlap_and_empty():
    for cand, ref in [("dog", "cat"), ("", "cat"), ("dog", ""), ("", "")]:
        b = meteor_exact(cand, ref)
        assert b.score == 0.0 and b.m == 0 and b.penalty == 0.0


def test_meteor_asymmetric():
    fwd = meteor_exact("the cat", "the cat sat on a mat")
    rev = meteor_exact("the cat sat on a mat", "the cat")
    assert fwd.precision == 1.0 and fwd.recall == pytest.approx(2 / 6)
    assert rev.precision == pytest.approx(2 / 6) and rev.recall == 1.0
    assert fwd.score != rev.score
    # hand computation: fmean = 10PR/(R+9P)
    assert fwd.fmean == pytest.approx(10 * (1 / 3) / (1 / 3 + 9))
    assert rev.fmean == pytest.approx(10 * (1 / 3) / (1 + 3))


def test_meteor_tokenization():
    b = meteor_exact("Hello, WORLD!!", "hello world")
    assert b.m == 2 and b.precision == 1.0 and b.recall == 1.0


def test_meteor_chunks_need_backtracking():
    # greedy left-to-right alignment would pick ref position 0 for "a" and
    # pay 2 chunks; the optimal alignment uses positions 2,3 for 1 chunk
    b = meteor_exact("a b", "a x a b")
    assert b.chunks == 1


def test_meteor_scrambled_chunks():
    assert meteor_exact("a b c d", "a b c d").chunks == 1
    assert meteor_exact("c d a b", "a b c d").chunks == 2
    assert meteor_exact("d c b a", "a b c d").chunks == 4


# Caption pairs with repeated function words.  SOLVED_EXACTLY (30 and 29
# tokens) needs the exact search: the greedy aligner finds more chunks.
# LONG_SOLVED_EXACTLY (63 and 58 tokens) is solved exactly too; the search
# over every alignment that came before the continuation search exhausted its
# budget on it and fell back to the greedy aligner's 38 chunks.
# EXHAUSTS_BUDGET (40 tokens each over two words) is repetitive enough that
# the search still runs out of budget and falls back to the greedy aligner.
SOLVED_EXACTLY = (
    "a soft piano plays the theme and the warm bass joins in as the drums play a slow "
    "beat under the sad voice of the singer in a small room",
    "the drums play a slow beat and a soft piano plays the theme as the warm bass joins "
    "in under the voice of a sad singer in the room",
)
LONG_SOLVED_EXACTLY = (
    "this is a live recording of a rock band with a loud electric guitar and a heavy bass "
    "and the drums play a fast beat while the singer shouts over the noise of the crowd and "
    "the guitar takes a long solo at the end of the song and the crowd cheers for the band "
    "as the lights go down on the stage",
    "a rock band plays a live song with the loud guitar and the heavy bass while a drummer "
    "plays the fast beat and a singer shouts the words over a crowd and then the electric "
    "guitar plays a solo at the end of this recording as the crowd cheers on the band and "
    "the stage lights go down",
)
_AB = random.Random(0)
EXHAUSTS_BUDGET = tuple(" ".join(_AB.choice("ab") for _ in range(40)) for _ in range(2))


def chunk_problem(candidate, reference):
    cand = evalharness._tokenize(candidate)
    ref = evalharness._tokenize(reference)
    quota = {w: min(cand.count(w), ref.count(w)) for w in dict.fromkeys(cand) if w in ref}
    return cand, ref, quota


def test_meteor_pinned_breakdowns():
    assert meteor_exact(*SOLVED_EXACTLY) == MeteorBreakdown(
        m=29, precision=0.9666666666666667, recall=1.0, fmean=0.9965635738831615,
        chunks=12, penalty=0.035425806716142524, score=0.9612595053344285,
    )
    assert evalharness._min_chunks_greedy(*chunk_problem(*SOLVED_EXACTLY)) == 16
    assert meteor_exact(*LONG_SOLVED_EXACTLY) == MeteorBreakdown(
        m=52, precision=0.8253968253968254, recall=0.896551724137931,
        fmean=0.8888888888888888, chunks=32, penalty=0.11652253072371417,
        score=0.7853133060233651,
    )
    assert evalharness._min_chunks_greedy(*chunk_problem(*LONG_SOLVED_EXACTLY)) == 38
    problem = chunk_problem(*EXHAUSTS_BUDGET)
    with pytest.raises(evalharness._Budget):
        evalharness._min_chunks_exact(*problem, evalharness._CHUNK_SEARCH_BUDGET)
    assert meteor_exact(*EXHAUSTS_BUDGET).chunks == evalharness._min_chunks_greedy(*problem) == 23


@pytest.mark.parametrize("pair, nodes", [
    (("a b", "a x a b"), 2), (SOLVED_EXACTLY, 48), (LONG_SOLVED_EXACTLY, 524),
])
def test_meteor_budget_counts_every_node(pair, nodes):
    # the budget counts every visited node, memo hits and finished branches
    # included; a search that needs `nodes` nodes fails with one fewer
    cand, ref, quota = chunk_problem(*pair)
    assert evalharness._min_chunks_exact(cand, ref, quota, nodes) == meteor_exact(*pair).chunks
    with pytest.raises(evalharness._Budget):
        evalharness._min_chunks_exact(cand, ref, quota, nodes - 1)


@pytest.mark.parametrize("pair", [("a b", "a x a b"), SOLVED_EXACTLY, LONG_SOLVED_EXACTLY])
def test_meteor_small_budget_falls_back_to_greedy(monkeypatch, pair):
    monkeypatch.setattr(evalharness, "_CHUNK_SEARCH_BUDGET", 1)
    assert meteor_exact(*pair).chunks == evalharness._min_chunks_greedy(*chunk_problem(*pair))


def test_meteor_long_caption_late_match():
    # 700 unmatched words, then one match: the search recurses once per
    # candidate position, so this stays under Python's default recursion
    # limit of 1000; values computed with the previous search
    candidate = " ".join([f"filler{k}" for k in range(700)] + ["guitar"])
    assert meteor_exact(candidate, "a bright guitar riff") == MeteorBreakdown(
        m=1, precision=0.0014265335235378032, recall=0.25, fmean=0.013568521031207599,
        chunks=1, penalty=0.5, score=0.0067842605156037995,
    )


def test_meteor_output_past_recursion_limit_falls_back_to_greedy(monkeypatch):
    # the exact search recurses once per candidate position; an output longer
    # than the recursion limit is scored by the greedy aligner, as when the
    # node budget runs out
    greedy_calls = []
    greedy = evalharness._min_chunks_greedy
    monkeypatch.setattr(evalharness, "_min_chunks_greedy",
                        lambda *args: greedy_calls.append(args) or greedy(*args))
    n = max(1000, sys.getrecursionlimit())
    candidate = " ".join([f"filler{k}" for k in range(n)] + ["guitar"])
    precision, recall = 1 / (n + 1), 0.25
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    assert meteor_exact(candidate, "a bright guitar riff") == MeteorBreakdown(
        m=1, precision=precision, recall=recall, fmean=fmean,
        chunks=1, penalty=0.5, score=fmean * 0.5,
    )
    assert len(greedy_calls) == 1


def oracle_min_chunks(cand, ref):
    """Enumerate every maximum alignment, return the fewest chunks."""
    words = sorted(set(cand) & set(ref))
    quota = {w: min(cand.count(w), ref.count(w)) for w in words}
    cand_pos = {w: [i for i, x in enumerate(cand) if x == w] for w in words}
    ref_pos = {w: [j for j, x in enumerate(ref) if x == w] for w in words}
    per_word = [
        [
            list(zip(cs, rs))
            for cs in combinations(cand_pos[w], quota[w])
            for rs in permutations(ref_pos[w], quota[w])
        ]
        for w in words
    ]
    best = math.inf
    for pick in product(*per_word):
        pairs = sorted(p for group in pick for p in group)
        chunks = 0
        prev = None
        for ci, rj in pairs:
            if prev is None or ci != prev[0] + 1 or rj != prev[1] + 1:
                chunks += 1
            prev = (ci, rj)
        best = min(best, chunks)
    return 0 if best is math.inf else best


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
)
def test_meteor_chunks_match_bruteforce(cand_words, ref_words):
    breakdown = meteor_exact(" ".join(cand_words), " ".join(ref_words))
    assert breakdown.chunks == oracle_min_chunks(cand_words, ref_words)


def reference_min_chunks(cand, ref, quota, budget):
    """Fewest chunks by a search over which occurrence each word aligns to.

    The exact search of ``meteor_exact`` before the continuation search,
    kept as a reference: it backtracks over every maximum alignment,
    memoized on (candidate position, used reference positions, run
    target), and raises _Budget past ``budget`` nodes.
    """
    ref_positions = {}
    for j, word in enumerate(ref):
        ref_positions.setdefault(word, []).append(j)
    n = len(cand)
    # memo key: used reference positions (kept shifted), then cont_ref + 1, then i
    i_bits = n.bit_length()
    shift = (len(ref) + 1).bit_length() + i_bits
    slot_of = {word: s for s, word in enumerate(quota)}
    need = [*quota.values(), 0]
    slots = [slot_of.get(word, len(quota)) for word in cand]
    later = [cand[i + 1:].count(word) for i, word in enumerate(cand)]
    choices = [
        tuple(
            (1 << (shift + j), (j + 1) << i_bits | i, (j + 2) << i_bits | (i + 1))
            for j in ref_positions.get(word, ())
        )
        for i, word in enumerate(cand)
    ]
    memo = {}
    nodes_left = budget
    total = sum(need)

    def solve(i, used, low):
        nonlocal nodes_left, total
        nodes_left -= 1
        if nodes_left < 0:
            raise evalharness._Budget
        if not total:
            return 0
        if i >= n:
            return math.inf
        key = used | low
        hit = memo.get(key)
        if hit is not None:
            return hit
        slot = slots[i]
        word_need = need[slot]
        best = math.inf
        nxt = i + 1
        # skip this occurrence only if later occurrences can still fill the quota
        if not word_need or later[i] >= word_need:
            best = solve(nxt, used, nxt)
        if word_need:
            need[slot] = word_need - 1
            total -= 1
            for bit, here, after in choices[i]:
                if not used & bit:
                    best = min(best, solve(nxt, used | bit, after) + (here != low))
            need[slot] = word_need
            total += 1
        memo[key] = best
        return best

    return solve(0, 0, 0)


@pytest.mark.parametrize("seed", range(3))
def test_meteor_chunks_match_reference_search(seed):
    # random pairs of 5-24 tokens over 2-8 words, wherever the reference
    # search finishes within 300k nodes
    rng = random.Random(seed)
    compared = 0
    for _ in range(40):
        words = [f"w{k}" for k in range(rng.randint(2, 8))]
        pair = [" ".join(rng.choices(words, k=rng.randint(5, 24))) for _ in range(2)]
        problem = chunk_problem(*pair)
        try:
            expected = reference_min_chunks(*problem, 300_000)
        except evalharness._Budget:
            continue
        assert evalharness._min_chunks_exact(*problem, evalharness._CHUNK_SEARCH_BUDGET) == expected, pair
        compared += 1
    assert compared >= 25


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=50), st.text(max_size=50))
def test_meteor_score_bounded(cand, ref):
    b = meteor_exact(cand, ref)
    assert 0.0 <= b.score <= 1.0
    assert 0.0 <= b.penalty <= 0.5


def test_score_captions():
    items = [
        item("q1", fmt=QAFormat.CAPTION, question="Describe the music in detail.",
             answer="a gentle piano melody", category="caption"),
        item("q2", fmt=QAFormat.CAPTION, question="Describe the music in detail.",
             answer="loud rock drums", category="caption"),
    ]
    outputs = [ModelOutput("q1", "a gentle piano melody")]
    scores = score_captions(items, outputs)
    assert scores.total == 2
    assert scores.missing == 1
    expected = meteor_exact("a gentle piano melody", "a gentle piano melody").score
    assert scores.score_sum == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Aggregation


def test_relative_percent_table_cell():
    assert relative_percent(58.6, 71.4) == 82.1
    assert relative_percent(71.4, 71.4) == 100.0
    with pytest.raises(ValueError):
        relative_percent(1.0, 0.0)


def test_aggregate_report():
    mcq = TaskScores(task="mcq", total=4, score_sum=3.0)
    binary = TaskScores(task="binary", total=6, score_sum=3.0)
    report = aggregate_report([mcq, binary])
    assert set(report.tasks) == {"mcq", "binary"}
    assert report.overall_mean == pytest.approx(6.0 / 10.0)
    d = report.to_dict()
    assert d["overall"]["total"] == 10
    assert "relative_to_baseline" not in d


def test_aggregate_report_rejects_duplicate_tasks():
    a = TaskScores(task="mcq", total=1, score_sum=1.0)
    b = TaskScores(task="mcq", total=1, score_sum=0.0)
    with pytest.raises(OverlapError):
        aggregate_report([a, b])


def test_aggregate_report_with_baseline():
    ours = TaskScores(task="mcq", total=1000, score_sum=586.0)
    base_scores = TaskScores(task="mcq", total=1000, score_sum=714.0)
    baseline = aggregate_report([base_scores])
    report = aggregate_report([ours], baseline=baseline)
    assert report.relative == {"mcq": 82.1}
    assert report.to_dict()["relative_to_baseline"] == {"mcq": 82.1}
