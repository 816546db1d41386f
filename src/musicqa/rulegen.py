"""Rule-based QA generation from ontology labels.

For every filtered clip, each music leaf label yields open-ended, binary
and multiple-choice items built from question templates keyed by the
leaf's top-level category (its ancestor directly under the music root,
e.g. "Musical instrument" for "Acoustic guitar").  MCQ distractors are
drawn without replacement from the leaf's sibling labels, weighted by
corpus frequency, widening to the whole music-leaf pool when the sibling
pool runs short.

Everything is a pure function of (inputs, global seed): each item derives
its own entropy from (global seed, audio id, item counter), so output is
identical no matter how clips are ordered or spread across workers.  The
entropy's first half picks the template and the top bit of its second
half flips the binary coin; a splitmix64 stream seeded from the second
half draws distractors and shuffles options.  RuleGenerator prerenders
question text per (template, category) and draws from precomputed
cumulative weight tables.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from hashlib import blake2b
from importlib import resources
from itertools import accumulate
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from .corpus import ClipRecord, LabelFrequencyTable
from .errors import MusicQaError, ParseError
from .items import Method, QAFormat, QAItem, lettered_options
from .ontology import Ontology, OntologyNode, leaf_labels, parent_categories

_MASK64 = (1 << 64) - 1


class PlaceholderError(MusicQaError):
    """A template placeholder was missing or left unresolved."""


class InsufficientPoolError(MusicQaError):
    """Fewer eligible distractors than requested."""


class EmptyPoolError(InsufficientPoolError):
    """A distractor pool had no eligible candidate with positive weight."""


@dataclass(frozen=True)
class QuestionTemplate:
    """Parameterized question text.

    ``category`` is the slot key the template applies to (lower-case
    category display name); "*" matches any category.  Open and MCQ
    templates substitute {category}; binary templates substitute {label}.
    """

    template_id: str
    format: QAFormat
    category: str
    text: str


class PoolCandidate(NamedTuple):
    label_id: str
    name: str
    weight: float


@dataclass(frozen=True)
class DistractorPool:
    candidates: tuple[PoolCandidate, ...]


@dataclass(frozen=True)
class FormatPlan:
    """How many items of each format to emit per (clip, leaf)."""

    open: int = 1
    binary: int = 1
    mcq: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "FormatPlan":
        return cls(
            open=int(d.get("open", 0)),
            binary=int(d.get("binary", 0)),
            mcq=int(d.get("mcq", 0)),
        )


@dataclass
class GenerationReport:
    clips: int = 0
    items: int = 0
    binary_positive_fallbacks: int = 0
    errors: list[str] = field(default_factory=list)

    def merge(self, other: "GenerationReport") -> None:
        self.clips += other.clips
        self.items += other.items
        self.binary_positive_fallbacks += other.binary_positive_fallbacks
        self.errors.extend(other.errors)

    def to_dict(self) -> dict:
        return {
            "clips": self.clips,
            "items": self.items,
            "binary_positive_fallbacks": self.binary_positive_fallbacks,
            "errors": sorted(self.errors),
        }


# ---------------------------------------------------------------------------
# Seeding and ids


def _seed_prefix(global_seed: int, audio_id: str) -> bytes:
    aid = audio_id.encode("utf-8")
    return struct.pack(">QI", global_seed & _MASK64, len(aid)) + aid


def _item_entropy(prefix: bytes, item_counter: int) -> tuple[int, int]:
    """Two independent 64-bit values for one item: (choice, body)."""
    digest = blake2b(prefix + item_counter.to_bytes(8, "big"), digest_size=16).digest()
    return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:], "big")


def qa_item_id(audio_id: str, fmt: QAFormat | str, template_id: Optional[str], seed: int) -> str:
    """Stable item id; the seed already folds in the global seed and counter."""
    fmt_value = fmt.value if isinstance(fmt, QAFormat) else fmt
    key = f"{audio_id}\x1f{fmt_value}\x1f{template_id or ''}\x1f{seed:d}"
    return blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


class _SplitMix:
    """splitmix64 stream: the cheap deterministic uniforms behind every draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next01(self) -> float:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * (2.0**-53)


# ---------------------------------------------------------------------------
# Templates


def load_templates(raw: bytes | str) -> list[QuestionTemplate]:
    """Parse the template JSON array and validate placeholder discipline."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid template JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("template document must be a JSON array")
    templates = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ParseError(f"template {i}: expected an object")
        try:
            template_id = entry["template_id"]
            fmt = QAFormat(entry["format"])
            category = entry["category"]
            text = entry["text"]
        except KeyError as exc:
            raise ParseError(f"template {i}: missing field {exc.args[0]!r}") from None
        except ValueError:
            raise ParseError(f"template {i}: unknown format {entry['format']!r}") from None
        if not text or not isinstance(text, str):
            raise ParseError(f"template {template_id}: text must be a non-empty string")
        if template_id in seen_ids:
            raise ParseError(f"duplicate template_id {template_id!r}")
        seen_ids.add(template_id)
        if fmt in (QAFormat.OPEN, QAFormat.MCQ):
            if "{category}" not in text:
                raise ParseError(f"template {template_id}: {fmt.value} templates need {{category}}")
            if "{label}" in text:
                raise ParseError(f"template {template_id}: {fmt.value} templates cannot use {{label}}")
        if fmt == QAFormat.BINARY:
            if "{label}" not in text:
                raise ParseError(f"template {template_id}: binary templates need {{label}}")
            if "{category}" in text:
                raise ParseError(f"template {template_id}: binary templates cannot use {{category}}")
        templates.append(
            QuestionTemplate(
                template_id=template_id, format=fmt, category=str(category), text=text
            )
        )
    return templates


def default_templates() -> list[QuestionTemplate]:
    raw = resources.files("musicqa").joinpath("data/templates.json").read_text("utf-8")
    return load_templates(raw)


def _matching_templates(
    templates: list[QuestionTemplate], fmt: QAFormat, category: str
) -> list[QuestionTemplate]:
    wanted = category.casefold()
    exact = [t for t in templates if t.format == fmt and t.category.casefold() == wanted]
    if exact:
        return exact
    return [t for t in templates if t.format == fmt and t.category == "*"]


# ---------------------------------------------------------------------------
# Weighted sampling without replacement

_REJECT_CAP = 64


class PoolArrays(NamedTuple):
    """Positive-weight candidates with precomputed cumulative weights.

    Names are unique (first occurrence wins) so an option list sampled
    from one pool can never contain duplicates.
    """

    names: tuple[str, ...]
    names_cf: tuple[str, ...]
    weights: tuple[float, ...]
    cum: tuple[float, ...]
    name_set: frozenset[str]


def _pool_arrays(candidates) -> PoolArrays:
    names: list[str] = []
    names_cf: list[str] = []
    weights: list[float] = []
    seen: set[str] = set()
    for cand in candidates:
        weight = float(cand[2])
        if weight <= 0.0:
            continue
        name = cand[1]
        cf = name.casefold()
        if cf in seen:
            continue
        seen.add(cf)
        names.append(name)
        names_cf.append(cf)
        weights.append(weight)
    return PoolArrays(
        names=tuple(names),
        names_cf=tuple(names_cf),
        weights=tuple(weights),
        cum=tuple(accumulate(weights)),
        name_set=frozenset(seen),
    )


def _eligible_count(pool: PoolArrays, excluded: frozenset[str]) -> int:
    if not excluded:
        return len(pool.names)
    name_set = pool.name_set
    return len(pool.names) - sum(1 for name in excluded if name in name_set)


def _sample_names(
    pool: PoolArrays, k: int, rand01: Callable[[], float], excluded: frozenset[str]
) -> list[str]:
    """k names drawn without replacement, proportional to remaining weight.

    Rejection-samples against the full cumulative table (conditioning on
    the allowed set leaves the sequential-without-replacement law
    unchanged) and falls back to an explicit rescan when rejections pile
    up.  ``rand01`` supplies uniforms in [0, 1).
    """
    if k <= 0:
        return []
    eligible = _eligible_count(pool, excluded)
    if eligible == 0:
        raise EmptyPoolError("pool has no eligible candidate with positive weight")
    if eligible < k:
        raise InsufficientPoolError(
            f"pool has {eligible} eligible candidates, need {k}"
        )
    names, names_cf, cum = pool.names, pool.names_cf, pool.cum
    total = cum[-1]
    n = len(names)
    chosen: list[str] = []
    chosen_cf: set[str] = set()
    rejects = 0
    while len(chosen) < k:
        if rejects >= _REJECT_CAP:
            blocked = chosen_cf | excluded
            chosen.extend(_sample_names_scan(pool, k - len(chosen), rand01, blocked))
            break
        i = bisect_right(cum, rand01() * total)
        if i >= n:
            i = n - 1
        cf = names_cf[i]
        if cf in excluded or cf in chosen_cf:
            rejects += 1
            continue
        chosen.append(names[i])
        chosen_cf.add(cf)
        rejects = 0
    return chosen


def _sample_names_scan(
    pool: PoolArrays, k: int, rand01: Callable[[], float], blocked: set[str]
) -> list[str]:
    remaining = [
        (name, weight)
        for name, cf, weight in zip(pool.names, pool.names_cf, pool.weights)
        if cf not in blocked
    ]
    out: list[str] = []
    total = sum(w for _, w in remaining)
    for _ in range(k):
        r = rand01() * total
        acc = 0.0
        idx = len(remaining) - 1
        for j, (_, weight) in enumerate(remaining):
            acc += weight
            if r < acc:
                idx = j
                break
        name, weight = remaining.pop(idx)
        total -= weight
        out.append(name)
    return out


def sample_distractors(pool: DistractorPool, k: int, seed: int) -> list[str]:
    """Draw k distinct label names, each proportional to remaining weights."""
    return _sample_names(_pool_arrays(pool.candidates), k, _SplitMix(seed).next01, frozenset())


# ---------------------------------------------------------------------------
# Generation


class _Category(NamedTuple):
    """Everything for_clip needs for a leaf's top-level category, precomputed."""

    lower: str
    # (template_id, prepared text) per format: the question for open, the
    # parts around {label} for binary, the stem for MCQ
    templates: dict[QAFormat, tuple[tuple[str, object], ...]]
    pool: PoolArrays


_RULE_FORMATS = (QAFormat.OPEN, QAFormat.BINARY, QAFormat.MCQ)


class RuleGenerator:
    """Precomputed generation context, reusable across clips and workers.

    Construction renders every (template, category) pairing once and
    builds per-category cumulative weight tables; per-item work is then a
    couple of hashes, a few array lookups, and string joins.
    """

    def __init__(
        self,
        ontology: Ontology,
        freqs: LabelFrequencyTable,
        templates: list[QuestionTemplate],
        plan: FormatPlan,
        global_seed: int,
        music_root: str,
        k_options: int = 4,
    ):
        self.global_seed = global_seed
        self.k_options = k_options
        self._leaf_ids = leaf_labels(ontology, music_root)
        self._label_names: dict[str, str] = {
            lid: node.name for lid, node in ontology.nodes.items()
        }
        self._plan_seq = tuple(
            (fmt, count)
            for fmt, count in zip(_RULE_FORMATS, (plan.open, plan.binary, plan.mcq))
            if count > 0
        )

        # one walk over the leaves: each leaf's name and category, and the
        # candidates of its category's pool and of the whole-music pool
        candidates: list[PoolCandidate] = []
        category_members: dict[str, list[PoolCandidate]] = {}
        self._leaves: dict[str, tuple[str, str, str]] = {}  # (name, lower-case name, category id)
        for leaf_id in sorted(self._leaf_ids):
            name = ontology.nodes[leaf_id].name
            category_id = self._category_node(ontology, leaf_id, music_root).id
            candidate = PoolCandidate(leaf_id, name, float(freqs.counts.get(leaf_id, 0)))
            candidates.append(candidate)
            category_members.setdefault(category_id, []).append(candidate)
            self._leaves[leaf_id] = (name, name.lower(), category_id)
        self._music_pool = _pool_arrays(candidates)
        self._categories: dict[str, _Category] = {}
        for category_id, members in category_members.items():
            category_lower = ontology.nodes[category_id].name.lower()
            rendered = {
                fmt: tuple(
                    (t.template_id, self._prepared(t, category_lower))
                    for t in _matching_templates(templates, fmt, category_lower)
                )
                for fmt in _RULE_FORMATS
            }
            self._categories[category_id] = _Category(category_lower, rendered, _pool_arrays(members))

    @staticmethod
    def _prepared(t: QuestionTemplate, category_lower: str) -> str | tuple[str, ...]:
        if t.format is QAFormat.BINARY:
            return tuple(t.text.split("{label}"))
        text = t.text.replace("{category}", category_lower)
        if "{category}" in text or "{label}" in text:
            raise PlaceholderError(
                f"template {t.template_id}: unresolved placeholder in {t.text!r}"
            )
        return text

    @staticmethod
    def _category_node(ontology: Ontology, leaf_id: str, music_root: str) -> OntologyNode:
        """Top-level category: the leaf ancestor directly under the music root."""
        ancestors = parent_categories(ontology, leaf_id)
        for anc in ancestors:
            if music_root in ontology.parents.get(anc, ()):
                return ontology.nodes[anc]
        if ancestors:
            return ontology.nodes[ancestors[0]]
        return ontology.nodes[leaf_id]

    def for_clip(self, clip: ClipRecord, report: GenerationReport | None = None) -> list[QAItem]:
        """The clip's items, per leaf in plan order; counts and errors go to ``report``."""
        if report is None:
            report = GenerationReport()
        report.clips += 1
        leaf_ids = self._leaf_ids
        leaves = sorted(label for label in clip.labels if label in leaf_ids)
        if not leaves:
            return []
        label_names = self._label_names
        excluded = frozenset(
            label_names[label].casefold() for label in clip.labels if label in label_names
        )
        audio_id = clip.audio_id
        source = clip.source
        prefix = _seed_prefix(self.global_seed, audio_id)
        k_distractors = self.k_options - 1
        music_pool = self._music_pool
        items: list[QAItem] = []
        counter = 0
        for leaf_id in leaves:
            leaf_name, leaf_lower, category_id = self._leaves[leaf_id]
            category_lower, category_templates, pool = self._categories[category_id]
            binary_pool = pool if _eligible_count(pool, excluded) >= 1 else music_pool
            mcq_pool = pool if _eligible_count(pool, excluded) >= k_distractors else music_pool
            for fmt, count in self._plan_seq:
                templates = category_templates[fmt]
                for _ in range(count):
                    n = counter
                    counter += 1
                    ent_choice, ent_body = _item_entropy(prefix, n)
                    if not templates:
                        report.errors.append(
                            f"{audio_id} #{n} {fmt.value}: no template for category {category_lower!r}"
                        )
                        continue
                    template_id, text = templates[ent_choice % len(templates)]
                    answer = leaf_name
                    options: tuple[str, ...] = ()
                    answer_index = None
                    if fmt is QAFormat.OPEN:
                        question = text
                    elif fmt is QAFormat.BINARY:
                        asked_lower = leaf_lower
                        positive = not ent_body >> 63
                        if not positive:
                            try:
                                asked_lower = _sample_names(
                                    binary_pool, 1, _SplitMix(ent_body).next01, excluded
                                )[0].lower()
                            except InsufficientPoolError:
                                positive = True
                                report.binary_positive_fallbacks += 1
                        question = asked_lower.join(text)
                        answer = "Yes" if positive else "No"
                    else:
                        sm = _SplitMix(ent_body)
                        try:
                            shuffled = [leaf_name]
                            shuffled.extend(
                                _sample_names(mcq_pool, k_distractors, sm.next01, excluded)
                            )
                        except InsufficientPoolError as exc:
                            report.errors.append(f"{audio_id} #{n} mcq: {exc}")
                            continue
                        # Fisher-Yates under the same stream
                        for i in range(len(shuffled) - 1, 0, -1):
                            j = int(sm.next01() * (i + 1))
                            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
                        question = f"{text} {lettered_options(shuffled)}"
                        options = tuple(shuffled)
                        answer_index = shuffled.index(leaf_name)
                    items.append(
                        QAItem(
                            qa_item_id(audio_id, fmt, template_id, ent_body),
                            audio_id, source, fmt, question, options, answer, answer_index,
                            category_lower, Method.RULE, template_id, ent_body,
                        )
                    )
        report.items += len(items)
        return items


# ---------------------------------------------------------------------------
# Batch driver

_WORKER_GEN: RuleGenerator | None = None


def _pool_init(gen: RuleGenerator) -> None:
    global _WORKER_GEN
    _WORKER_GEN = gen


def _run_batch(gen: RuleGenerator, clips: list[ClipRecord]) -> tuple[list[QAItem], GenerationReport]:
    report = GenerationReport()
    items: list[QAItem] = []
    for clip in clips:
        items.extend(gen.for_clip(clip, report))
    return items, report


def _pool_run(clips: list[ClipRecord]) -> tuple[list[QAItem], GenerationReport]:
    assert _WORKER_GEN is not None
    return _run_batch(_WORKER_GEN, clips)


def generate_rule_dataset(
    clips: list[ClipRecord],
    ontology: Ontology,
    freqs: LabelFrequencyTable,
    templates: list[QuestionTemplate],
    plan: FormatPlan,
    global_seed: int,
    *,
    music_root: str,
    k_options: int = 4,
    workers: int = 1,
) -> tuple[list[QAItem], GenerationReport]:
    """Generate over a corpus, in parallel when asked, output sorted by qa_id.

    The per-item seeding rule makes the result independent of worker count
    and clip order.
    """
    gen = RuleGenerator(ontology, freqs, templates, plan, global_seed, music_root, k_options)
    if workers <= 1 or len(clips) < 2 * workers:
        items, report = _run_batch(gen, clips)
    else:
        import multiprocessing  # loaded only for a pool, so one worker starts faster

        chunk = max(1, len(clips) // (workers * 4))
        batches = [clips[i : i + chunk] for i in range(0, len(clips), chunk)]
        ctx = multiprocessing.get_context("fork")
        items, report = [], GenerationReport()
        with ctx.Pool(workers, initializer=_pool_init, initargs=(gen,)) as pool:
            for batch_items, batch_report in pool.imap_unordered(_pool_run, batches):
                items.extend(batch_items)
                report.merge(batch_report)
    items.sort(key=attrgetter("qa_id"))
    report.errors.sort()
    return items, report
