"""The QA item record, its invariants and its content ids.

Every generator (rule-based, LLM, imported) emits QAItems, and assembly,
validation and scoring read them.  validate_qa_item lists every invariant
an item breaks; content_qa_id hashes the parts an LLM or imported item is
identified by.  This module imports only the standard library and
corpus, so a command that reads, checks or scores items loads neither
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from hashlib import blake2b
from typing import Optional, Sequence

from .corpus import Source


class QAFormat(str, Enum):
    OPEN = "open"
    BINARY = "binary"
    MCQ = "mcq"
    CAPTION = "caption"


class Method(str, Enum):
    RULE = "rule"
    LLM = "llm"
    IMPORTED = "imported"


@dataclass(slots=True)
class QAItem:
    """One generated QA instance; treat as immutable once emitted."""

    qa_id: str
    audio_id: str
    source: Source
    format: QAFormat
    question: str
    options: tuple[str, ...]
    answer: str
    answer_index: Optional[int]
    category: str
    method: Method
    template_id: Optional[str]
    seed: int

    def __reduce__(self):
        # Pickled as its field tuple: a worker pool sends every item to the
        # parent, and the default for a slotted dataclass (a dict of slot
        # values per item, set one by one on load) costs about twice as much.
        # The enum members repeat, so pickle's memo writes each once per dump.
        return (
            QAItem,
            (
                self.qa_id, self.audio_id, self.source, self.format, self.question,
                self.options, self.answer, self.answer_index, self.category,
                self.method, self.template_id, self.seed,
            ),
        )


def normalize_binary_answer(raw: str) -> Optional[str]:
    """"yes."/"NO!" style strings to canonical "Yes"/"No"; None if neither."""
    token = str(raw).strip().strip(".,!;:").casefold()
    if token == "yes":
        return "Yes"
    if token == "no":
        return "No"
    return None


def _mcq_stem(question: str, options: Sequence[str]) -> str:
    """Question text with the rendered lettered-options block removed."""
    if options:
        suffix = " ".join(f"{chr(65 + i)}. {opt}" for i, opt in enumerate(options))
        if question.endswith(suffix):
            return question[: -len(suffix)].rstrip()
    return question


def validate_qa_item(item: QAItem) -> list[str]:
    """All invariant violations for one item; empty means valid.

    Binary answers are accepted in any form normalize_binary_answer
    understands.  MCQ question stems may end with ':' (lead-in to the
    lettered options) as well as '?'.
    """
    violations: list[str] = []
    if not item.qa_id:
        violations.append("empty qa_id")
    if not item.audio_id:
        violations.append("empty audio_id")
    question = item.question.strip() if isinstance(item.question, str) else ""
    if not question:
        violations.append("empty question")
    if not isinstance(item.answer, str) or not item.answer.strip():
        violations.append("empty answer")
    fmt = item.format
    if fmt == QAFormat.MCQ:
        options = item.options
        if len(options) < 2:
            violations.append("MCQ needs at least 2 options")
        if len(set(options)) != len(options):
            violations.append("duplicate options")
        if item.answer_index is None:
            violations.append("MCQ answer_index missing")
        elif not 0 <= item.answer_index < len(options):
            violations.append("answer_index out of range")
        elif options[item.answer_index] != item.answer:
            violations.append("answer not at answer_index")
        if item.answer not in options:
            violations.append("answer not in options")
        if question:
            stem = _mcq_stem(question, options)
            if not (stem.endswith("?") or stem.endswith(":")):
                violations.append("MCQ question stem must end with '?' or ':'")
    else:
        if item.options:
            violations.append(f"{fmt.value} item must not carry options")
        if item.answer_index is not None:
            violations.append(f"{fmt.value} item must not carry answer_index")
        if fmt in (QAFormat.OPEN, QAFormat.BINARY) and question and not question.endswith("?"):
            violations.append("question must end with '?'")
        if fmt == QAFormat.BINARY and normalize_binary_answer(item.answer) is None:
            violations.append("binary answer must normalize to Yes/No")
    return violations


def content_qa_id(*parts: str) -> str:
    """Id hashed from length-prefixed parts, for LLM and imported items.

    The same cached response, or the same imported line, maps to the same id.
    """
    h = blake2b(digest_size=8)
    for part in parts:
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return h.hexdigest()
