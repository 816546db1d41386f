"""Clip-metadata manifests: loading, music filtering, label frequencies.

A manifest is JSONL, one clip per line::

    {"audio_id": "yt--abc", "source": "AudioSet", "labels": ["/m/042v_gx"],
     "caption": "...", "metadata": {"genre": "rock"}, "duration_s": 10.0}

The pipeline core is source-agnostic: converters from native per-source
formats (MusicCaps CSV, MTT tag TSV, FMA metadata CSV) produce this one
format up front.

Every JSONL input of the package (manifests, item files and shards,
imported caption/QA files, model outputs) goes through iter_jsonl, which
splits lines on "\n" only, decodes UTF-8 and parses each line to an object;
its callers check only their own fields.  Files are written through
atomic_writer.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import DataError, ParseError
from .ontology import Ontology, leaf_labels

log = logging.getLogger(__name__)


@contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """UTF-8 text handle, or a bytes one, whose content replaces ``path`` only on success.

    Readers never observe a partial file, and a failed write leaves no
    temp file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_scan_once = json.JSONDecoder().scan_once  # the C scanner inside json.loads


def _loads(line: str):
    """``json.loads(line)`` for a stripped line, without its per-call wrapper.

    What the scanner rejects, or a value that ends before the line does,
    goes through json.loads itself, so every error is the one it raises.
    """
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    return json.loads(line)


def iter_jsonl(data: bytes | str | Iterable[bytes]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, object)`` for each non-blank line of a JSONL file.

    ``data`` is the whole file, as bytes or text, or a binary file object.
    Lines end at "\n" only, so U+2028, U+0085 and the like stay inside a
    line.  A line that is not UTF-8, not JSON or not a JSON object raises
    ParseError with its line number.
    """
    if isinstance(data, bytes):
        data = data.split(b"\n")
    elif isinstance(data, str):
        data = data.split("\n")
    for line_no, line in enumerate(data, start=1):
        if not isinstance(line, str):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not valid UTF-8: {exc}", line_no=line_no) from None
        line = line.strip()
        if not line:
            continue
        try:
            obj = _loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line_no=line_no) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line_no=line_no)
        yield line_no, obj


class Source(str, Enum):
    MUSICCAPS = "MusicCaps"
    MAGNATAGATUNE = "MagnaTagATune"
    FMA = "FMA"
    AUDIOSET = "AudioSet"
    OTHER = "Other"


_SOURCE_ALIASES = {
    "musiccaps": Source.MUSICCAPS,
    "magnatagatune": Source.MAGNATAGATUNE,
    "mtt": Source.MAGNATAGATUNE,
    "fma": Source.FMA,
    "audioset": Source.AUDIOSET,
    "other": Source.OTHER,
}


def parse_source(raw: str) -> Source:
    return _SOURCE_ALIASES.get(raw.strip().casefold(), Source.OTHER)


class DuplicateClipError(DataError):
    """The same (source, audio_id) appeared twice in one manifest."""


@dataclass(frozen=True)
class ClipRecord:
    audio_id: str
    source: Source
    labels: frozenset[str]
    caption: str | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    duration_s: float | None = None


@dataclass(frozen=True)
class LabelFrequencyTable:
    """How often each music leaf label occurs across the filtered corpus."""

    counts: dict[str, int]
    total: int


def load_manifest(raw: bytes | str) -> list[ClipRecord]:
    """Parse a JSONL manifest into ClipRecords, order preserved."""
    records: list[ClipRecord] = []
    seen: set[tuple[Source, str]] = set()
    for line_no, obj in iter_jsonl(raw):
        record = _record_from_obj(obj, line_no)
        key = (record.source, record.audio_id)
        if key in seen:
            raise DuplicateClipError(
                f"line {line_no}: duplicate clip ({record.source.value}, {record.audio_id!r})"
            )
        seen.add(key)
        records.append(record)
    return records


def _record_from_obj(obj: dict, line_no: int) -> ClipRecord:
    try:
        audio_id = obj["audio_id"]
        source_raw = obj["source"]
        labels = obj["labels"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}", line_no=line_no) from None
    if not isinstance(audio_id, str) or not audio_id:
        raise ParseError("audio_id must be a non-empty string", line_no=line_no)
    if not isinstance(source_raw, str):
        raise ParseError("source must be a string", line_no=line_no)
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError("labels must be a list of strings", line_no=line_no)
    caption = obj.get("caption")
    if caption is not None and not isinstance(caption, str):
        raise ParseError("caption must be a string when present", line_no=line_no)
    metadata = obj.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object", line_no=line_no)
    metadata = {str(k): str(v) for k, v in metadata.items()}
    duration = obj.get("duration_s")
    if duration is not None and not isinstance(duration, (int, float)):
        raise ParseError("duration_s must be a number when present", line_no=line_no)
    return ClipRecord(
        audio_id=audio_id,
        source=parse_source(source_raw),
        labels=frozenset(labels),
        caption=caption,
        metadata=metadata,
        duration_s=float(duration) if duration is not None else None,
    )


def filter_music_clips(
    clips: list[ClipRecord], o: Ontology, music_root: str
) -> list[ClipRecord]:
    """Keep exactly the clips carrying at least one music leaf label.

    Clips labeled only with parent-level (non-leaf) labels are dropped.
    Labels unknown to the ontology never satisfy the leaf test; they are
    logged once per run and otherwise ignored.
    """
    music_leaves = leaf_labels(o, music_root)
    kept = []
    unknown: set[str] = set()
    for clip in clips:
        unknown.update(label for label in clip.labels if label not in o.nodes)
        if clip.labels & music_leaves:
            kept.append(clip)
    if unknown:
        log.warning(
            "ignored %d label ids not present in the ontology: %s",
            len(unknown),
            ", ".join(sorted(unknown)[:10]),
        )
    return kept


def compute_label_frequencies(
    clips: list[ClipRecord], o: Ontology, music_root: str
) -> LabelFrequencyTable:
    """Count, per music leaf label, the clips that carry it."""
    music_leaves = leaf_labels(o, music_root)
    counts: dict[str, int] = {}
    for clip in clips:
        for label in clip.labels & music_leaves:
            counts[label] = counts.get(label, 0) + 1
    counts = dict(sorted(counts.items()))
    return LabelFrequencyTable(counts=counts, total=sum(counts.values()))
