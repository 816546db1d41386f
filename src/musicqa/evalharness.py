"""Scoring of model outputs against a QA evaluation set.

Four scorers: MCQ accuracy (with optional category grouping), binary
yes/no accuracy, similarity-based label matching through a pluggable
embedding endpoint, and exact-match METEOR for captions.  Each accepts
only items of its own format, and all four share one output lookup and
one tally: a missing output scores 0 and counts as missing, an output
with no readable answer scores 0 and counts as unparseable.  Free-form
model text is mapped to answers by fixed, documented rules: MCQ
extraction tries a standalone option letter first, skipping the letter
of a contraction such as "I'd", and falls back to the longest option
substring; binary extraction takes the first standalone yes/no token.
Fragments from different tasks merge into one report that can also
express each task as a percentage of a baseline report.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Iterable, Mapping, Optional, Protocol, Sequence

from .corpus import iter_jsonl
from .errors import DataError, MusicQaError, ParseError, ServiceError
from .jsonpost import JsonPoster, json_headers
from .items import QAFormat, QAItem

__all__ = [
    "ModelOutput",
    "EmbeddingVector",
    "MeteorBreakdown",
    "TaskScores",
    "EvalReport",
    "UnknownQaIdError",
    "EmbedderError",
    "DimMismatchError",
    "OverlapError",
    "extract_mcq_answer",
    "extract_binary_answer",
    "score_mcq",
    "score_binary",
    "score_label_match",
    "score_captions",
    "meteor_exact",
    "aggregate_report",
    "relative_percent",
    "HttpEmbedder",
    "TrigramEmbedder",
    "EmbedderConfig",
]


class UnknownQaIdError(DataError):
    """An output references a qa_id absent from the evaluation set."""


class EmbedderError(ServiceError):
    """The embedding endpoint failed or returned a malformed payload."""


class DimMismatchError(MusicQaError):
    """Embedding vectors in one comparison have different dimensions."""


class OverlapError(MusicQaError):
    """Two report fragments claim the same task."""


@dataclass(frozen=True)
class ModelOutput:
    qa_id: str
    text: str


def load_outputs_jsonl(raw: bytes | str) -> list[ModelOutput]:
    """Parse {"qa_id","text"} JSONL; blank lines are skipped.

    Both fields must be JSON strings: a null text would otherwise be scored
    as the word "None", and a list as its printed form.
    """
    outputs = []
    for line_no, obj in iter_jsonl(raw):
        if "qa_id" not in obj or "text" not in obj:
            raise ParseError("expected an object with qa_id and text", line_no=line_no)
        for name in ("qa_id", "text"):
            if not isinstance(obj[name], str):
                raise ParseError(f"{name} must be a string", line_no=line_no)
        outputs.append(ModelOutput(qa_id=obj["qa_id"], text=obj["text"]))
    return outputs


# ---------------------------------------------------------------------------
# Answer extraction

# a letter right after a word and an apostrophe is a contraction ("I'd"), not an answer
_STANDALONE_LETTER = re.compile(r"(?<![A-Za-z0-9])(?<!\w['\u2019])([A-Za-z])(?![A-Za-z0-9])")
_STANDALONE_YESNO = re.compile(r"(?<![A-Za-z0-9])(yes|no)(?![A-Za-z0-9])", re.IGNORECASE)


def extract_mcq_answer(text: str, options: Sequence[str]) -> Optional[int]:
    """Map free-form output text to an option index, or None.

    Resolution order: (1) first standalone letter naming a valid option,
    any case, skipping a contraction's letter such as the "d" of "I'd";
    (2) longest option whose case-folded text occurs in the output,
    earlier option winning length ties; (3) None.
    """
    if not options:
        raise ValueError("options must be non-empty")
    # searched in upper case, so that a letter whose upper case spells ASCII
    # letters ("ß" is "SS") counts the same in either case: "Aß" holds no "A"
    for match in _STANDALONE_LETTER.finditer(text.upper()):
        index = ord(match.group(1).upper()) - ord("A")
        if 0 <= index < len(options):
            return index
    folded = text.casefold()
    best_index = None
    best_len = 0
    for i, option in enumerate(options):
        needle = option.casefold()
        if needle and needle in folded and len(needle) > best_len:
            best_index = i
            best_len = len(needle)
    return best_index


def extract_binary_answer(text: str) -> Optional[str]:
    """First standalone yes/no token, canonicalized; None if absent."""
    match = _STANDALONE_YESNO.search(text.upper())  # upper case as in extract_mcq_answer
    if match is None:
        return None
    return "Yes" if match.group(1).casefold() == "yes" else "No"


# ---------------------------------------------------------------------------
# Score containers


@dataclass
class MeanScore:
    """Count and sum of per-item scores in [0, 1]."""

    total: int = 0
    score_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.score_sum / self.total if self.total else 0.0


@dataclass(kw_only=True)
class TaskScores(MeanScore):
    """One task's aggregate, with the missing and unparseable counts and a mean per category."""

    task: str
    missing: int = 0
    unparseable: int = 0
    per_category: dict[str, MeanScore] = field(default_factory=dict)

    def add(self, score: float, category: str) -> None:
        for bucket in (self, self.per_category.setdefault(category, MeanScore())):
            bucket.total += 1
            bucket.score_sum += score

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "mean": self.mean,
            "missing": self.missing,
            "unparseable": self.unparseable,
            "per_category": {
                name: {"total": c.total, "mean": c.mean}
                for name, c in sorted(self.per_category.items())
            },
        }


@dataclass
class EvalReport:
    tasks: dict[str, TaskScores] = field(default_factory=dict)
    relative: Optional[dict[str, float]] = None

    @property
    def overall_mean(self) -> float:
        total = sum(t.total for t in self.tasks.values())
        if not total:
            return 0.0
        return sum(t.score_sum for t in self.tasks.values()) / total

    def to_dict(self) -> dict:
        out = {
            "tasks": {name: scores.to_dict() for name, scores in sorted(self.tasks.items())},
            "overall": {
                "total": sum(t.total for t in self.tasks.values()),
                "mean": self.overall_mean,
            },
        }
        if self.relative is not None:
            out["relative_to_baseline"] = self.relative
        return out


def relative_percent(value: float, baseline: float) -> float:
    """Score as a percentage of a baseline score, one decimal."""
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    return round(100.0 * value / baseline, 1)


def aggregate_report(
    fragments: Iterable[TaskScores], baseline: Optional[EvalReport] = None
) -> EvalReport:
    """Merge disjoint task fragments; optionally add baseline-relative figures."""
    report = EvalReport()
    for fragment in fragments:
        if fragment.task in report.tasks:
            raise OverlapError(f"duplicate task {fragment.task!r} in report fragments")
        report.tasks[fragment.task] = fragment
    if baseline is not None:
        relative = {}
        for name, scores in report.tasks.items():
            base = baseline.tasks.get(name)
            if base is not None and base.mean > 0:
                relative[name] = relative_percent(scores.mean, base.mean)
        report.relative = relative
    return report


# ---------------------------------------------------------------------------
# Accuracy scorers


def _output_texts(
    items: Sequence[QAItem], outputs: Sequence[ModelOutput], fmt: QAFormat
) -> list[Optional[str]]:
    """Each item's output text, or None; a later output for a qa_id wins."""
    text_of: dict[str, Optional[str]] = {}
    for item in items:
        if item.format != fmt:
            raise ValueError(f"{fmt.value} scorer got a {item.format.value} item ({item.qa_id})")
        text_of[item.qa_id] = None
    for output in outputs:
        if output.qa_id not in text_of:
            raise UnknownQaIdError(f"output references unknown qa_id {output.qa_id!r}")
        text_of[output.qa_id] = output.text
    return [text_of[item.qa_id] for item in items]


def _tally(
    task: str,
    items: Sequence[QAItem],
    texts: Sequence[Optional[str]],
    grade: Callable[[QAItem, str], Optional[float]],
    category_map: Optional[Mapping[str, str]] = None,
) -> TaskScores:
    """Per-item ``grade`` by category; a missing text or a None grade scores 0."""
    scores = TaskScores(task=task)
    for item, text in zip(items, texts):
        if category_map is not None:
            category = category_map.get(item.qa_id, "(uncategorized)")
        else:
            category = item.category or "(uncategorized)"
        score = None if text is None else grade(item, text)
        if text is None:
            scores.missing += 1
        elif score is None:
            scores.unparseable += 1
        scores.add(score or 0.0, category)
    return scores


def score_mcq(
    items: Sequence[QAItem],
    outputs: Sequence[ModelOutput],
    category_map: Optional[Mapping[str, str]] = None,
) -> TaskScores:
    """Accuracy over MCQ items; missing or unextractable outputs count wrong."""

    def grade(item: QAItem, text: str) -> Optional[float]:
        index = extract_mcq_answer(text, item.options)
        return None if index is None else float(index == item.answer_index)

    return _tally("mcq", items, _output_texts(items, outputs, QAFormat.MCQ), grade, category_map)


def score_binary(items: Sequence[QAItem], outputs: Sequence[ModelOutput]) -> TaskScores:
    """Accuracy over yes/no items; outputs without a yes/no token count wrong."""

    def grade(item: QAItem, text: str) -> Optional[float]:
        answer = extract_binary_answer(text)
        return None if answer is None else float(answer.casefold() == item.answer.casefold())

    return _tally("binary", items, _output_texts(items, outputs, QAFormat.BINARY), grade)


# ---------------------------------------------------------------------------
# Embedding-based label matching


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.values)

    def __post_init__(self):
        if not self.values:
            raise ValueError("embedding must have positive dimension")


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


@dataclass(frozen=True)
class EmbedderConfig:
    url: str
    api_key_env: str = "MUSICQA_EMBED_API_KEY"
    timeout_s: float = 60.0
    batch_size: int = 64


class HttpEmbedder:
    """Client for a POST {"texts": [...]} -> {"embeddings": [[...]]} service.

    Texts go out as given, in order, ``batch_size`` to a request: nothing is
    cached or deduplicated, so a caller passes each distinct text once, as
    label matching does.  A vector with a NaN or infinite component is
    rejected: it would make every similarity NaN.  Requests share the
    package's keep-alive ``JsonPoster``; ``close`` ends its connections.
    """

    def __init__(self, config: EmbedderConfig):
        self.config = config
        self._poster = JsonPoster(config.url, config.timeout_s)

    def close(self) -> None:
        self._poster.close()

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        from http.client import HTTPException

        out: list[EmbeddingVector] = []
        for start in range(0, len(texts), self.config.batch_size):
            batch = texts[start : start + self.config.batch_size]
            try:
                status, body = self._poster.post({"texts": batch}, json_headers(self.config.api_key_env))
            except (OSError, HTTPException, ValueError) as exc:
                raise EmbedderError(f"embedding request failed: {exc}") from exc
            if status != 200:
                raise EmbedderError(f"embedding service returned HTTP {status}")
            try:
                vectors = json.loads(body)["embeddings"]
                parsed = [EmbeddingVector(tuple(float(x) for x in vec)) for vec in vectors]
            except (ValueError, KeyError, TypeError) as exc:
                raise EmbedderError(f"malformed embedding response: {exc}") from exc
            if len(parsed) != len(batch):
                raise EmbedderError(
                    f"embedding count mismatch: sent {len(batch)}, got {len(parsed)}"
                )
            for text, vector in zip(batch, parsed):
                if not all(map(math.isfinite, vector.values)):
                    raise EmbedderError(f"non-finite embedding value for {text!r}")
            out.extend(parsed)
        return out


class TrigramEmbedder:
    """Deterministic offline embedder: hashed character-trigram counts.

    L2-normalized counts of case-folded character trigrams, hashed into a
    fixed number of buckets.  Identical texts embed identically; texts
    sharing substrings score high cosine similarity.  Serves as the test
    double and an offline stand-in for a real text encoder.
    """

    def __init__(self, dim: int = 256):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def _bucket(self, trigram: str) -> int:
        digest = blake2b(trigram.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "big") % self.dim

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        out = []
        for text in texts:
            padded = f"  {text.casefold()}  "
            counts = [0.0] * self.dim
            for i in range(len(padded) - 2):
                counts[self._bucket(padded[i : i + 3])] += 1.0
            norm = math.sqrt(sum(c * c for c in counts))
            if norm > 0:
                counts = [c / norm for c in counts]
            out.append(EmbeddingVector(tuple(counts)))
        return out


def _norm(vector: EmbeddingVector) -> float:
    return math.sqrt(sum(x * x for x in vector.values))


def _match_labels(
    texts: Sequence[str], candidate_labels: Sequence[str], embedder: Embedder
) -> dict[str, str]:
    """Closest candidate label to each text, by cosine similarity.

    One embed call covers the distinct labels and texts, and each distinct
    text is matched once.  The dot product sums only the query's nonzero
    entries, in index order: the skipped terms are exact zeros for finite
    vectors, so every partial sum, and so every similarity, equals the
    full cosine's bit for bit.  Ties keep the earliest candidate.
    """
    if len(candidate_labels) < 2:
        raise ValueError("need at least 2 candidate labels")
    distinct = list(dict.fromkeys([*candidate_labels, *texts]))
    vector_of = dict(zip(distinct, embedder.embed(distinct)))
    labels = [
        (label, vector_of[label].values, _norm(vector_of[label])) for label in candidate_labels
    ]
    chosen: dict[str, str] = {}
    for text in dict.fromkeys(texts):
        query = vector_of[text]
        nonzero = [(k, x) for k, x in enumerate(query.values) if x != 0.0]
        query_norm = _norm(query)
        best_label = candidate_labels[0]
        best_sim = -math.inf
        for label, values, norm in labels:
            if len(values) != query.dim:
                raise DimMismatchError(f"embedding dims differ: {query.dim} vs {len(values)}")
            if query_norm == 0.0 or norm == 0.0:
                sim = 0.0
            else:
                sim = sum(x * values[k] for k, x in nonzero) / (query_norm * norm)
            if sim > best_sim:
                best_label = label
                best_sim = sim
        chosen[text] = best_label
    return chosen


def score_label_match(
    items: Sequence[QAItem],
    outputs: Sequence[ModelOutput],
    embedder: Embedder,
    candidate_labels: Optional[Sequence[str]] = None,
) -> TaskScores:
    """Open-ended answers scored as classification over a label vocabulary.

    The vocabulary defaults to the distinct gold answers of the items.  It
    and the output texts are embedded together, once per distinct text.
    """
    texts = _output_texts(items, outputs, QAFormat.OPEN)
    if candidate_labels is None:
        candidate_labels = sorted({item.answer for item in items})
    given = [text for text in texts if text is not None]
    chosen = _match_labels(given, candidate_labels, embedder) if given else {}
    return _tally(
        "label_match", items, texts, lambda item, text: float(chosen[text] == item.answer)
    )


# ---------------------------------------------------------------------------
# Exact-match METEOR


@dataclass(frozen=True)
class MeteorBreakdown:
    m: int
    precision: float
    recall: float
    fmean: float
    chunks: int
    penalty: float
    score: float


_WORD_CLEANER = re.compile(r"[^\w\s]+", re.UNICODE)


def _tokenize(text: str) -> list[str]:
    return _WORD_CLEANER.sub(" ", text.casefold()).split()


class _Budget(Exception):
    pass


def _min_chunks_exact(cand: list[str], ref: list[str], quota: dict[str, int], budget: int) -> int:
    """Minimal chunk count over all maximum one-to-one alignments.

    A continuation is a candidate position k aligned to reference position
    j while k - 1 is aligned to j - 1; a maximum alignment with c of them
    has m - c chunks.  The occurrences of one word form a complete
    bipartite graph, so any partial alignment extends to a maximum one
    without losing a continuation, and the search needs to place only runs
    of two or more aligned words.  It walks the candidate positions,
    continuing the current run, starting a run on a bigram match, or
    leaving the position to the final fill; it is memoized on (position,
    used reference positions that a later run can still touch, run
    target) and pruned by the number of later positions whose preceding
    bigram occurs in the reference.  Raises _Budget when the search visits
    more than ``budget`` nodes, memo hits and finished branches included.
    """
    n, r = len(cand), len(ref)
    # starts[k]: the j with cand[k:k+2] == ref[j:j+2]
    starts = [[j for j in range(r - 1) if (ref[j], ref[j + 1]) == pair]
              for pair in zip(cand, cand[1:])] + [[]]
    # cap[k]: the positions p >= k whose preceding bigram occurs in the
    # reference, a bound on the continuations still to be made from k;
    # reach[k]: the reference positions that runs from k on can cover,
    # which are the bigram matches from k on (a run's third word starts a
    # match itself)
    cap = [0] * (n + 2)
    reach = [0] * (n + 2)
    for k in range(n - 1, -1, -1):
        cap[k] = cap[k + 1] + bool(k and starts[k - 1])
        reach[k] = reach[k + 1]
        for j in starts[k]:
            reach[k] |= 3 << j
    # a node's memo key is one int: the used positions that runs from k on
    # can still cover, then the run target + 1, then k
    k_bits = (n + 1).bit_length()
    shift = (r + 1).bit_length() + k_bits
    memo: dict[int, int] = {}
    nodes_left = budget

    def target(k: int, used: int, j: int) -> int:
        """j if aligning k to j continues the run, else -1."""
        if k < n and j < r and cand[k] == ref[j] and not used >> j & 1:
            return j
        return -1

    def solve(k: int, used: int, t: int) -> int:
        nonlocal nodes_left
        nodes_left -= 1
        if nodes_left < 0:
            raise _Budget
        if k >= n:
            return 0
        key = (used & reach[k]) << shift | (t + 1) << k_bits | k
        best = memo.get(key)
        if best is not None:
            return best
        best = -1
        if t >= 0:
            used_t = used | 1 << t
            best = 1 + solve(k + 1, used_t, target(k + 1, used_t, t + 1))
        for j in starts[k]:
            if best >= 1 + cap[k + 2]:
                break
            if j == t or used >> j & 3:
                continue  # a start at t is the continuation, made above
            used_j = used | 3 << j
            best = max(best, 1 + solve(k + 2, used_j, target(k + 2, used_j, j + 2)))
        # leave k; taken when nothing else was, so every position is visited
        if best < 0 or best < cap[k + 1]:
            best = max(best, solve(k + 1, used, -1))
        memo[key] = best
        return best

    return sum(quota.values()) - solve(0, 0, -1)


def _min_chunks_greedy(cand: list[str], ref: list[str], quota: dict[str, int]) -> int:
    """Left-to-right alignment preferring chunk continuation; not optimal."""
    ref_positions: dict[str, list[int]] = {}
    for j, word in enumerate(ref):
        ref_positions.setdefault(word, []).append(j)
    used: set[int] = set()
    rem = dict(quota)
    chunks = 0
    cont_ref = -1
    for word in cand:
        if rem.get(word, 0) <= 0:
            cont_ref = -1
            continue
        positions = [j for j in ref_positions.get(word, ()) if j not in used]
        if not positions:
            cont_ref = -1
            continue
        if cont_ref in positions:
            j = cont_ref
        else:
            j = positions[0]
            chunks += 1
        used.add(j)
        rem[word] -= 1
        cont_ref = j + 1
    return chunks


_CHUNK_SEARCH_BUDGET = 200_000


def meteor_exact(candidate: str, reference: str) -> MeteorBreakdown:
    """Exact-unigram METEOR: fmean = 10PR/(R+9P), penalty = 0.5(chunks/m)^3.

    Tokens are case-folded, punctuation-stripped, whitespace-split.  The
    alignment maximizes matches, then minimizes chunks: an exact search
    places the runs that start on a shared bigram so as to maximize
    continuations, since chunks = m - continuations.  Only highly
    repetitive pairs pass its node budget, and outputs longer than the
    recursion limit pass that; both are aligned greedily instead.  The
    search that this one replaced fell back on most captions of 40 words
    or more, so a baseline report scored with it has lower caption means,
    and a caption relative_to_baseline figure computed against it reads
    high.  No stemming or synonymy: scores are not comparable to full
    METEOR.
    """
    cand = _tokenize(candidate)
    ref = _tokenize(reference)
    if not cand or not ref:
        return MeteorBreakdown(0, 0.0, 0.0, 0.0, 0, 0.0, 0.0)
    cand_counts: dict[str, int] = {}
    for word in cand:
        cand_counts[word] = cand_counts.get(word, 0) + 1
    ref_counts: dict[str, int] = {}
    for word in ref:
        ref_counts[word] = ref_counts.get(word, 0) + 1
    quota = {
        word: min(count, ref_counts[word])
        for word, count in cand_counts.items()
        if word in ref_counts
    }
    m = sum(quota.values())
    if m == 0:
        return MeteorBreakdown(0, 0.0, 0.0, 0.0, 0, 0.0, 0.0)
    precision = m / len(cand)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    try:
        chunks = _min_chunks_exact(cand, ref, quota, _CHUNK_SEARCH_BUDGET)
    except (_Budget, RecursionError):
        # the search recurses once per candidate position, so a long
        # output can pass the interpreter's recursion limit before its budget
        chunks = _min_chunks_greedy(cand, ref, quota)
    penalty = 0.5 * (chunks / m) ** 3
    score = fmean * (1.0 - penalty)
    return MeteorBreakdown(m, precision, recall, fmean, chunks, penalty, score)


def score_captions(items: Sequence[QAItem], outputs: Sequence[ModelOutput]) -> TaskScores:
    """Mean meteor_exact of outputs against gold captions; missing scores 0."""
    texts = _output_texts(items, outputs, QAFormat.CAPTION)
    return _tally("caption", items, texts, lambda item, text: meteor_exact(text, item.answer).score)
