"""Dataset assembly: merge, deduplicate, split, shard, and count.

QAItems from any generator (rule-based, LLM, imported) meet here.  The
JSONL schema is bit-exact and versioned by field order:

    {"qa_id","audio_id","source","format","question","options","answer",
     "answer_index","category","method","template_id","seed"}

Item files, shards and imports are read through corpus.iter_jsonl; this
module checks only the item fields.  Splits are decided per audio id by
seeded hashing so every item of a clip lands in the same split and adding
new clips never reassigns old ones.  Stats mirror the per-source, per-task
table layout (Audio Sources x Captioning/QA/MCQ/Binary).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum
from hashlib import blake2b, sha256
from itertools import islice
from json.encoder import encode_basestring  # C-backed, as used by json.dumps(ensure_ascii=False)
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .corpus import Source, atomic_writer, iter_jsonl, parse_source
from .errors import DataError, MusicQaError, ParseError
from .llmgen import content_qa_id, normalize_binary_answer, validate_qa_item
from .rulegen import Method, QAFormat, QAItem

CAPTION_INSTRUCTION = "Describe the music in detail."

_MASK64 = (1 << 64) - 1


class BadRatioError(MusicQaError):
    """Split ratios must be positive and sum to 1."""


class IoError(MusicQaError):
    """Filesystem failure while writing or reading shards."""


class DigestMismatchError(DataError):
    """A shard's bytes do not match the digest recorded in the manifest."""


class Split(str, Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


# ---------------------------------------------------------------------------
# QAItem JSONL serialization


def item_to_dict(item: QAItem) -> dict:
    return {
        "qa_id": item.qa_id,
        "audio_id": item.audio_id,
        "source": item.source.value,
        "format": item.format.value,
        "question": item.question,
        "options": list(item.options),
        "answer": item.answer,
        "answer_index": item.answer_index,
        "category": item.category,
        "method": item.method.value,
        "template_id": item.template_id,
        "seed": item.seed,
    }


def item_to_json(item: QAItem) -> str:
    """One JSONL line, the same text as ``json.dumps(item_to_dict(item),
    ensure_ascii=False, separators=(",", ":"))``.

    Built from the fixed field layout, so no dict or encoder is made per
    item, and enum values are read from ``_value_``, not through the
    slower ``value`` property.  ``answer_index`` and ``seed`` must be ints,
    not bools: item_from_dict rejects a bool for either.
    """
    s = encode_basestring
    answer_index = item.answer_index
    template_id = item.template_id
    return (
        f'{{"qa_id":{s(item.qa_id)},"audio_id":{s(item.audio_id)},'
        f'"source":{s(item.source._value_)},"format":{s(item.format._value_)},'
        f'"question":{s(item.question)},"options":[{",".join(map(s, item.options))}],'
        f'"answer":{s(item.answer)},'
        f'"answer_index":{"null" if answer_index is None else int.__repr__(answer_index)},'
        f'"category":{s(item.category)},"method":{s(item.method._value_)},'
        f'"template_id":{"null" if template_id is None else s(template_id)},'
        f'"seed":{int.__repr__(item.seed)}}}'
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _answer_index(obj: dict, line_no: Optional[int]) -> Optional[int]:
    answer_index = obj.get("answer_index")
    if answer_index is not None and not _is_int(answer_index):
        raise ParseError("answer_index must be an integer or null", line_no=line_no)
    return answer_index


# value -> member, a dict lookup in place of the slower Enum constructor call
_SOURCE_OF = {member.value: member for member in Source}
_FORMAT_OF = {member.value: member for member in QAFormat}
_METHOD_OF = {member.value: member for member in Method}


def _member(by_value: dict, raw, parse):
    """The member whose value is ``raw``, else ``parse(raw)``, which raises for a bad one."""
    member = by_value.get(raw) if isinstance(raw, str) else None
    return parse(raw) if member is None else member


def _parse_source(raw) -> Source:
    return parse_source(str(raw))


def item_from_dict(obj: dict, line_no: Optional[int] = None) -> QAItem:
    try:
        options = obj.get("options") or []
        if not isinstance(options, list):
            raise ParseError("options must be a list", line_no=line_no)
        answer_index = _answer_index(obj, line_no)
        item = QAItem(
            qa_id=str(obj["qa_id"]),
            audio_id=str(obj["audio_id"]),
            source=_member(_SOURCE_OF, obj["source"], _parse_source),
            format=_member(_FORMAT_OF, obj["format"], QAFormat),
            question=str(obj["question"]),
            options=tuple(map(str, options)),
            answer=str(obj["answer"]),
            answer_index=answer_index,
            category=str(obj.get("category", "")),
            method=_member(_METHOD_OF, obj["method"], Method),
            template_id=(None if obj.get("template_id") is None else str(obj["template_id"])),
            seed=obj.get("seed", 0),
        )
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}", line_no=line_no) from None
    except ValueError as exc:
        raise ParseError(str(exc), line_no=line_no) from None
    if not _is_int(item.seed):
        raise ParseError("seed must be an integer", line_no=line_no)
    return item


_WRITE_BLOCK = 128  # lines encoded, hashed and written at a time


def _write_jsonl(items: Iterable[QAItem], path: str | Path, hasher=None) -> None:
    """Write items as UTF-8 JSONL; every byte written also goes to ``hasher``, a hashlib object."""
    rest = iter(items)
    with atomic_writer(path, binary=True) as fh:
        while block := list(islice(rest, _WRITE_BLOCK)):
            data = "".join([f"{item_to_json(item)}\n" for item in block]).encode("utf-8")
            if hasher is not None:
                hasher.update(data)
            fh.write(data)


def write_items_jsonl(items: Iterable[QAItem], path: str | Path) -> None:
    """Atomic whole-file write: readers never observe a partial file."""
    _write_jsonl(items, path)


def _hashed(lines: Iterable[bytes], hasher) -> Iterator[bytes]:
    for line in lines:
        hasher.update(line)
        yield line


def _read_jsonl(path: Path, digest: Optional[str] = None) -> list[QAItem]:
    """Parse a JSONL file of items in one streamed pass.

    With ``digest`` ("sha256:<hex>") the same pass hashes every byte, and a
    mismatch raises DigestMismatchError ahead of any parse error, since a
    corrupted line is more likely than a bad line under a good digest.
    """
    with open(path, "rb") as fh:
        if digest is None:
            return [item_from_dict(obj, line_no) for line_no, obj in iter_jsonl(fh)]
        h = sha256()
        lines = _hashed(fh, h)
        failed: Optional[ParseError] = None
        try:
            items = [item_from_dict(obj, line_no) for line_no, obj in iter_jsonl(lines)]
        except ParseError as exc:
            failed = exc
            for _ in lines:  # hash the rest
                pass
    if f"sha256:{h.hexdigest()}" != digest:
        raise DigestMismatchError(f"digest mismatch for {path}")
    if failed is not None:
        raise failed
    return items


def read_items_jsonl(path: str | Path) -> list[QAItem]:
    return _read_jsonl(Path(path))


# ---------------------------------------------------------------------------
# Dedup


def _question_key(question: str) -> str:
    return " ".join(question.split()).casefold()


def deduplicate(items: Sequence[QAItem]) -> list[QAItem]:
    """One survivor per (audio_id, normalized question): smallest qa_id wins.

    Answers are deliberately not part of the key; two items asking the
    same string of the same clip are redundant supervision even if their
    answers differ in form.  Output sorted by qa_id.
    """
    best: dict[tuple[str, str], QAItem] = {}
    for item in items:
        key = (item.audio_id, _question_key(item.question))
        held = best.get(key)
        if held is None or item.qa_id < held.qa_id:
            best[key] = item
    out = list(best.values())
    out.sort(key=lambda item: item.qa_id)
    return out


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class SplitAssignment:
    split_of: dict[str, Split]

    def items_for(self, items: Sequence[QAItem], split: Split) -> list[QAItem]:
        return [item for item in items if self.split_of[item.audio_id] == split]


def split_fraction(audio_id: str, global_seed: int) -> float:
    """Stable position of an audio id in [0, 1) under the given seed."""
    aid = audio_id.encode("utf-8")
    h = blake2b(digest_size=8)
    h.update(struct.pack(">Q", global_seed & _MASK64))
    h.update(aid)
    return int.from_bytes(h.digest(), "big") / 2**64


def split_by_audio(
    items: Sequence[QAItem], ratios: tuple[float, float, float], global_seed: int
) -> SplitAssignment:
    """Assign every audio id to train/val/test by hash thresholding.

    Membership depends only on (audio_id, global_seed, ratios), so growing
    the dataset never moves an existing clip to another split.
    """
    train, val, test = ratios
    if min(train, val, test) <= 0 or abs(train + val + test - 1.0) > 1e-9:
        raise BadRatioError(f"ratios must be positive and sum to 1, got {ratios}")
    assignment: dict[str, Split] = {}
    for audio_id in sorted({item.audio_id for item in items}):
        u = split_fraction(audio_id, global_seed)
        if u < train:
            assignment[audio_id] = Split.TRAIN
        elif u < train + val:
            assignment[audio_id] = Split.VAL
        else:
            assignment[audio_id] = Split.TEST
    return SplitAssignment(split_of=assignment)


# ---------------------------------------------------------------------------
# Sharding

_MANIFEST_NAME = "manifest.json"


def write_shards(items: Sequence[QAItem], shard_size: int, out_dir: str | Path) -> dict:
    """Write qa_id-ordered JSONL shards plus a digest manifest.

    Identical input reproduces identical bytes, shard names, and digests.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        ordered = sorted(items, key=lambda item: item.qa_id)
        shards = []
        for start in range(0, len(ordered), shard_size):
            chunk = ordered[start : start + shard_size]
            name = f"shard-{start // shard_size:05d}.jsonl"
            h = sha256()
            _write_jsonl(chunk, out / name, h)
            shards.append({"path": name, "items": len(chunk), "digest": f"sha256:{h.hexdigest()}"})
        manifest = {"total_items": len(ordered), "shard_size": shard_size, "shards": shards}
        with atomic_writer(out / _MANIFEST_NAME) as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"failed writing shards to {out}: {exc}") from exc
    return manifest


def read_shards(out_dir: str | Path) -> list[QAItem]:
    """Read a sharded dataset back, checking every shard against its digest."""
    out = Path(out_dir)
    path = out / _MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read manifest in {out}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid manifest JSON in {path}: {exc}") from exc
    items: list[QAItem] = []
    for shard in manifest.get("shards", []):
        shard_path = out / shard["path"]
        try:
            items.extend(_read_jsonl(shard_path, shard["digest"]))
        except ParseError as exc:
            # the caller knows only the directory; name the shard that holds the line
            raise exc.in_file(shard_path) from None
    return items


# ---------------------------------------------------------------------------
# Statistics

TASKS = ("Captioning", "QA", "MCQ", "Binary")

_TASK_OF_FORMAT = {
    QAFormat.CAPTION: "Captioning",
    QAFormat.OPEN: "QA",
    QAFormat.MCQ: "MCQ",
    QAFormat.BINARY: "Binary",
}

_CANONICAL_ROWS = (
    Source.MUSICCAPS.value,
    Source.MAGNATAGATUNE.value,
    Source.FMA.value,
    Source.AUDIOSET.value,
)

TABLE_COLUMNS = ("Audio Sources", "Audios", *TASKS, "Total")


@dataclass
class DatasetStats:
    """Per-source task counts and the audio ids behind them."""

    per_source_task: dict[tuple[str, str], int] = field(default_factory=dict)
    audio_ids: dict[str, set[str]] = field(default_factory=dict)

    @property
    def per_source_audios(self) -> dict[str, int]:
        return {source: len(ids) for source, ids in self.audio_ids.items()}

    def source_total(self, source: str) -> int:
        return sum(self.per_source_task.get((source, task), 0) for task in TASKS)

    def task_total(self, task: str) -> int:
        return sum(count for (_, t), count in self.per_source_task.items() if t == task)

    @property
    def grand_total(self) -> int:
        return sum(self.per_source_task.values())

    def _sources(self) -> list[str]:
        present = set(self.audio_ids) | {source for source, _ in self.per_source_task}
        rows = [s for s in _CANONICAL_ROWS]
        rows.extend(sorted(present - set(_CANONICAL_ROWS)))
        return rows

    def to_table(self) -> dict:
        """Rows per source plus Total, in the published table layout."""
        audios = self.per_source_audios
        rows = []
        for source in self._sources():
            rows.append(
                [
                    source,
                    audios.get(source, 0),
                    *(self.per_source_task.get((source, task), 0) for task in TASKS),
                    self.source_total(source),
                ]
            )
        rows.append(
            [
                "Total",
                sum(audios.values()),
                *(self.task_total(task) for task in TASKS),
                self.grand_total,
            ]
        )
        return {"columns": list(TABLE_COLUMNS), "rows": rows}

    def to_dict(self) -> dict:
        return {
            "table": self.to_table(),
            "per_source_task": {
                f"{source}/{task}": count
                for (source, task), count in sorted(self.per_source_task.items())
            },
            "per_source_audios": dict(sorted(self.per_source_audios.items())),
            "grand_total": self.grand_total,
        }


def compute_stats(items: Iterable[QAItem]) -> DatasetStats:
    stats = DatasetStats()
    for item in items:
        source = item.source.value
        task = _TASK_OF_FORMAT[item.format]
        key = (source, task)
        stats.per_source_task[key] = stats.per_source_task.get(key, 0) + 1
        stats.audio_ids.setdefault(source, set()).add(item.audio_id)
    return stats


def filter_formats(items: Iterable[QAItem], keep: set[QAFormat]) -> list[QAItem]:
    """Keep only the given formats; the ablation datasets drop one each."""
    return [item for item in items if item.format in keep]


# ---------------------------------------------------------------------------
# External imports


def import_external(raw: bytes | str, source: Source | str) -> list[QAItem]:
    """Convert external caption or QA JSONL into QAItems.

    Caption lines ({"audio_id", "caption"}) become Caption items with the
    fixed instruction question; QA lines need audio_id, question and
    answer, with an optional format field defaulting to open.
    """
    src = source if isinstance(source, Source) else parse_source(source)
    items = []
    for line_no, obj in iter_jsonl(raw):
        audio_id = obj.get("audio_id")
        if not isinstance(audio_id, str) or not audio_id:
            raise ParseError("missing audio_id", line_no=line_no)
        if "caption" in obj:
            caption = obj["caption"]
            if not isinstance(caption, str) or not caption.strip():
                raise ParseError("caption must be a non-empty string", line_no=line_no)
            question, answer, fmt = CAPTION_INSTRUCTION, caption.strip(), QAFormat.CAPTION
            options: tuple[str, ...] = ()
            answer_index = None
            category = "caption"
        else:
            question = obj.get("question")
            answer = obj.get("answer")
            if not isinstance(question, str) or not question.strip():
                raise ParseError("missing question", line_no=line_no)
            if not isinstance(answer, str) or not answer.strip():
                raise ParseError("missing answer", line_no=line_no)
            question, answer = question.strip(), answer.strip()
            try:
                fmt = QAFormat(obj.get("format", "open"))
            except ValueError:
                raise ParseError(f"unknown format {obj.get('format')!r}", line_no=line_no) from None
            if fmt == QAFormat.BINARY:
                normalized = normalize_binary_answer(answer)
                if normalized is None:
                    raise ParseError("binary answer must normalize to Yes/No", line_no=line_no)
                answer = normalized
            raw_options = obj.get("options") or []
            options = tuple(str(o) for o in raw_options)
            answer_index = _answer_index(obj, line_no)
            if fmt == QAFormat.MCQ and answer_index is None and answer in options:
                answer_index = options.index(answer)
            category = str(obj.get("category", ""))
        item = QAItem(
            qa_id=content_qa_id(audio_id, fmt.value, question, answer),
            audio_id=audio_id,
            source=src,
            format=fmt,
            question=question,
            options=options,
            answer=answer,
            answer_index=answer_index,
            category=category,
            method=Method.IMPORTED,
            template_id=None,
            seed=0,
        )
        violations = validate_qa_item(item)
        if violations and fmt != QAFormat.CAPTION:
            raise ParseError("; ".join(violations), line_no=line_no)
        items.append(item)
    return items
