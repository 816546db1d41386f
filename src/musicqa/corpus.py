"""Clip-metadata manifests: loading, music filtering, label frequencies.

A manifest is JSONL, one clip per line::

    {"audio_id": "yt--abc", "source": "AudioSet", "labels": ["/m/042v_gx"],
     "caption": "...", "metadata": {"genre": "rock"}, "duration_s": 10.0}

The pipeline core is source-agnostic: converters from native per-source
formats (MusicCaps CSV, MTT tag TSV, FMA metadata CSV) produce this one
format up front.  Sources whose tags are not ontology ids go through a
tag -> LabelId alias table (see map_labels); unmapped tags are kept in
metadata for LLM-assisted generation only.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterator

from .errors import MusicQaError, ParseError
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


class DuplicateClipError(MusicQaError):
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
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    records: list[ClipRecord] = []
    seen: set[tuple[Source, str]] = set()
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line_no=line_no) from exc
        if not isinstance(obj, dict):
            raise ParseError("manifest line must be a JSON object", line_no=line_no)
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


def map_labels(clips: list[ClipRecord], aliases: dict[str, str]) -> list[ClipRecord]:
    """Rewrite free-form tags to ontology label ids through an alias table.

    Tags without an alias are dropped from labels and parked in
    metadata["unmapped_tags"] (comma-joined, sorted) so LLM-assisted
    generation can still see them.
    """
    out = []
    for clip in clips:
        mapped = {aliases[t] for t in clip.labels if t in aliases}
        unmapped = sorted(t for t in clip.labels if t not in aliases)
        if not unmapped:
            out.append(replace(clip, labels=frozenset(mapped)))
            continue
        metadata = dict(clip.metadata)
        metadata["unmapped_tags"] = ",".join(unmapped)
        out.append(replace(clip, labels=frozenset(mapped), metadata=metadata))
    return out


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
