"""LLM-assisted QA generation.

Builds few-shot prompts from clip captions and metadata, organized around
six musical dimensions (instrumentation, melody, tempo, genre, mood,
function), sends them to an OpenAI-compatible chat-completion endpoint,
and parses the responses into validated QAItems.

The client caches every request on disk keyed by a content hash of
(messages, model, temperature), so rerunning a pipeline makes zero new
network calls for prompts it has already answered.  Response parsing is
defensive: it never raises on arbitrary model output, it extracts the
first JSON array it can find and files everything unusable under
``rejected`` with a reason.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from hashlib import blake2b
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

from .corpus import ClipRecord, atomic_writer
from .errors import MusicQaError, ParseError, ServiceError
from .jsonpost import JsonPoster, json_headers
from .items import (
    Method,
    QAFormat,
    QAItem,
    content_qa_id,
    normalize_binary_answer,
    validate_qa_item,
)

log = logging.getLogger(__name__)


class NoContextError(MusicQaError):
    """Clip has neither a caption nor metadata to prompt from."""


class AuthError(ServiceError):
    """Endpoint rejected the credential (401/403). Never retried."""


class RateLimitError(ServiceError):
    """Endpoint kept returning 429 after all retries."""


class TransportError(ServiceError):
    """Network failure, server error, or malformed completion payload."""


class RequestTimeoutError(ServiceError, TimeoutError):
    """Request exceeded the configured timeout on every retry."""


# ---------------------------------------------------------------------------
# Dimensions and few-shot examples

_CANONICAL_DIMENSIONS = ("instrumentation", "melody", "tempo", "genre", "mood", "function")


@dataclass(frozen=True)
class MusicDimension:
    """A musical aspect a question is about; free-form tags are allowed."""

    name: str

    def __post_init__(self):
        if not self.name or not self.name.strip():
            raise ValueError("dimension name must be non-empty")

    @classmethod
    def parse(cls, raw: str) -> "MusicDimension":
        return cls(str(raw).strip().lower())


DIMENSIONS = tuple(MusicDimension(name) for name in _CANONICAL_DIMENSIONS)


@dataclass(frozen=True)
class DimensionExample:
    """One worked QA example shown to the model for a (dimension, format)."""

    dimension: MusicDimension
    format: QAFormat
    question: str
    answer: str
    options: tuple[str, ...] = ()


def load_examples(raw: bytes | str) -> list[DimensionExample]:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid example JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("example document must be a JSON array")
    out = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ParseError(f"example {i}: expected an object")
        try:
            example = DimensionExample(
                dimension=MusicDimension.parse(entry["dimension"]),
                format=QAFormat(entry["format"]),
                question=str(entry["question"]),
                answer=str(entry["answer"]),
                options=tuple(entry.get("options", ())),
            )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"example {i}: {exc}") from None
        if not example.question.endswith("?"):
            raise ParseError(f"example {i}: question must end with '?'")
        if example.format == QAFormat.MCQ and example.answer not in example.options:
            raise ParseError(f"example {i}: MCQ answer must be one of the options")
        out.append(example)
    return out


def default_examples() -> list[DimensionExample]:
    raw = resources.files("musicqa").joinpath("data/fewshot.json").read_text("utf-8")
    return load_examples(raw)


# ---------------------------------------------------------------------------
# Prompt construction

SYSTEM_TEXT = (
    "You write question-answer pairs about a piece of music, grounded only in the "
    "description provided by the user. Respond with a JSON array and nothing else. "
    "Each element must be an object with fields: \"question\" (string ending with '?'), "
    "\"format\" (one of \"open\", \"binary\", \"mcq\"), \"options\" (array of distinct "
    "strings, MCQ only), \"answer\" (string; for binary exactly \"Yes\" or \"No\"; for "
    "MCQ exactly one of the options), and \"dimension\" (string naming the musical "
    "aspect the question is about)."
)

RequestedMix = Sequence[tuple[MusicDimension, QAFormat, int]]


@dataclass(frozen=True)
class PromptSpec:
    system_text: str
    fewshot: tuple[DimensionExample, ...]
    clip_context: str
    requested: tuple[tuple[MusicDimension, QAFormat, int], ...]

    def to_messages(self) -> list[dict]:
        """Chat messages for the wire call; byte-stable for equal specs."""
        lines = ["Music clip context:", self.clip_context, ""]
        if self.fewshot:
            lines.append("Examples:")
            for ex in self.fewshot:
                lines.append(f"[dimension={ex.dimension.name}, format={ex.format.value}]")
                lines.append(f"Q: {ex.question}")
                if ex.options:
                    lines.append("Options: " + " | ".join(ex.options))
                lines.append(f"A: {ex.answer}")
            lines.append("")
        total = sum(count for _, _, count in self.requested)
        lines.append(f"Generate {total} question-answer pair(s) about this clip:")
        for dim, fmt, count in self.requested:
            lines.append(f"- {count} {fmt.value} question(s) about {dim.name}")
        lines.append("Return only the JSON array.")
        return [
            {"role": "system", "content": self.system_text},
            {"role": "user", "content": "\n".join(lines)},
        ]


def render_clip_context(clip: ClipRecord) -> str:
    """Caption plus metadata as stable text; metadata keys sorted."""
    lines = []
    if clip.caption:
        lines.append(f"Caption: {clip.caption}")
    for key in sorted(clip.metadata):
        lines.append(f"{key}: {clip.metadata[key]}")
    return "\n".join(lines)


def build_prompt(
    clip: ClipRecord, examples: Sequence[DimensionExample], requested: RequestedMix
) -> PromptSpec:
    """Assemble the prompt for one clip.

    Includes only the examples whose (dimension, format) is actually
    requested, in the order the example list provides them.
    """
    context = render_clip_context(clip)
    if not context:
        raise NoContextError(f"clip {clip.audio_id} has no caption and no metadata")
    wanted: set[tuple[str, QAFormat]] = set()
    for dim, fmt, count in requested:
        if count <= 0:
            raise ValueError(f"requested count must be positive, got {count}")
        wanted.add((dim.name, fmt))
    shots = tuple(ex for ex in examples if (ex.dimension.name, ex.format) in wanted)
    return PromptSpec(
        system_text=SYSTEM_TEXT,
        fewshot=shots,
        clip_context=context,
        requested=tuple((dim, fmt, int(count)) for dim, fmt, count in requested),
    )


def default_requested(per_pair: int = 1) -> tuple[tuple[MusicDimension, QAFormat, int], ...]:
    """Uniform mix: one of each format for each of the six dimensions."""
    formats = (QAFormat.OPEN, QAFormat.BINARY, QAFormat.MCQ)
    return tuple((dim, fmt, per_pair) for dim in DIMENSIONS for fmt in formats)


# ---------------------------------------------------------------------------
# Endpoint client


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str
    model: str
    temperature: float = 1.0
    api_key_env: str = "MUSICQA_LLM_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 5
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    concurrency: int = 8


def request_cache_key(messages: list[dict], model: str, temperature: float) -> str:
    canonical = json.dumps(
        {"messages": messages, "model": model, "temperature": temperature},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class LlmClient:
    """Cached, rate-limit-aware chat-completions client.

    Identical requests hit the network exactly once per ``cache_dir``: the
    response body's assistant content is stored there, one file per request
    (atomic write-temp-then-rename), and served from that file ever after.
    The files are the only cache; a client without ``cache_dir`` sends every
    call.  Concurrent identical calls wait on one per-request lock, held only
    while some call for that request is running.  Transient failures (429,
    5xx, timeouts, connection drops) are retried with exponential backoff
    and jitter; credential rejections are not.

    Requests go out through a ``JsonPoster``: one keep-alive connection per
    calling thread, opened on the first cache miss and closed by ``close``.
    A run served wholly from the cache loads no HTTP code.
    """

    def __init__(
        self,
        config: LlmEndpointConfig,
        cache_dir: str | Path | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        url = config.base_url.rstrip("/") + "/v1/chat/completions"
        self._poster = JsonPoster(url, config.timeout_s)
        self._sleep = sleep
        self._sem = threading.BoundedSemaphore(max(1, config.concurrency))
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._rng = random.Random()
        self.network_calls = 0

    # -- cache ---------------------------------------------------------

    def _cache_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.txt"

    def _cache_get(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        try:
            return self._cache_path(key).read_text("utf-8")
        except FileNotFoundError:
            return None

    def _cache_put(self, key: str, content: str) -> None:
        if self.cache_dir is None:
            return
        with atomic_writer(self._cache_path(key)) as fh:
            fh.write(content)

    # -- calls ---------------------------------------------------------

    def call(self, spec: PromptSpec) -> str:
        """Assistant message content for the prompt, from cache when possible."""
        messages = spec.to_messages()
        key = request_cache_key(messages, self.config.model, self.config.temperature)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        try:
            with key_lock:
                cached = self._cache_get(key)
                if cached is not None:
                    return cached
                content = self._post_with_retries(messages)
                self._cache_put(key, content)
                return content
        finally:
            with self._lock:
                # calls already waiting keep their reference to this lock; a
                # call that arrives later makes a new one, which stays
                if self._key_locks.get(key) is key_lock:
                    del self._key_locks[key]

    def close(self) -> None:
        """Close the endpoint connections; a later cache miss opens new ones."""
        self._poster.close()

    def _post_with_retries(self, messages: list[dict]) -> str:
        from http.client import HTTPException

        cfg = self.config
        payload = {"model": cfg.model, "messages": messages, "temperature": cfg.temperature}
        attempt = 0
        while True:
            error: MusicQaError
            try:
                with self._sem:
                    with self._lock:
                        self.network_calls += 1
                    status, body = self._poster.post(payload, json_headers(cfg.api_key_env))
            except TimeoutError:
                error = RequestTimeoutError(f"request timed out after {cfg.timeout_s}s")
            except (OSError, HTTPException, ValueError) as exc:
                error = TransportError(f"request failed: {exc}")
            else:
                if status in (401, 403):
                    raise AuthError(f"endpoint rejected credential (HTTP {status})")
                if status == 429:
                    error = RateLimitError("rate limited (HTTP 429)")
                elif 500 <= status < 600:
                    error = TransportError(f"server error (HTTP {status})")
                elif status != 200:
                    raise TransportError(f"unexpected status (HTTP {status})")
                else:
                    return self._extract_content(body)
            attempt += 1
            if attempt > cfg.max_retries:
                raise error
            delay = min(cfg.backoff_cap_s, cfg.backoff_base_s * (2 ** (attempt - 1)))
            delay *= 0.5 + 0.5 * self._rng.random()
            log.debug("retrying after %s (attempt %d): %s", delay, attempt, error)
            self._sleep(delay)

    @staticmethod
    def _extract_content(body: bytes) -> str:
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise TransportError("malformed completion response body") from None
        if not isinstance(content, str):
            raise TransportError("completion content is not a string")
        return content


# ---------------------------------------------------------------------------
# Response parsing and validation


@dataclass
class LlmResponseBatch:
    raw_text: str
    parsed: list[QAItem] = field(default_factory=list)
    rejected: list[tuple[str, str]] = field(default_factory=list)


_FORMAT_ALIASES = {
    "open": QAFormat.OPEN,
    "open-ended": QAFormat.OPEN,
    "open_ended": QAFormat.OPEN,
    "binary": QAFormat.BINARY,
    "yes/no": QAFormat.BINARY,
    "yes-no": QAFormat.BINARY,
    "mcq": QAFormat.MCQ,
    "multiple-choice": QAFormat.MCQ,
    "multiple_choice": QAFormat.MCQ,
    "multiple choice": QAFormat.MCQ,
}


def _first_json_array(raw: str) -> Optional[list]:
    decoder = json.JSONDecoder()
    idx = raw.find("[")
    attempts = 0
    while idx != -1 and attempts < 1000:
        try:
            value, _ = decoder.raw_decode(raw, idx)
        except (ValueError, RecursionError):
            pass
        else:
            if isinstance(value, list):
                return value
        attempts += 1
        idx = raw.find("[", idx + 1)
    return None


def _fragment(element) -> str:
    try:
        text = json.dumps(element, ensure_ascii=False, default=str)
    except (TypeError, ValueError, RecursionError):
        text = repr(element)
    return text[:200]


def _element_to_item(element, clip: ClipRecord) -> QAItem | str:
    """Build a validated QAItem from one response element, or a reject reason."""
    if not isinstance(element, dict):
        return "element is not an object"
    question = element.get("question")
    if not isinstance(question, str) or not question.strip():
        return "missing question"
    question = " ".join(question.split())
    fmt_raw = element.get("format")
    fmt = _FORMAT_ALIASES.get(str(fmt_raw).strip().lower()) if fmt_raw is not None else None
    if fmt is None:
        return f"unknown format {fmt_raw!r}"
    dim_raw = element.get("dimension")
    if not isinstance(dim_raw, str) or not dim_raw.strip():
        return "missing dimension"
    dimension = MusicDimension.parse(dim_raw)
    answer = element.get("answer")
    if isinstance(answer, (int, float)) and not isinstance(answer, bool):
        answer = str(answer)
    if not isinstance(answer, str) or not answer.strip():
        return "missing answer"
    answer = answer.strip()

    options: tuple[str, ...] = ()
    answer_index = None
    if fmt == QAFormat.MCQ:
        raw_options = element.get("options")
        if not isinstance(raw_options, list) or not all(isinstance(o, str) for o in raw_options):
            return "MCQ options must be a list of strings"
        options = tuple(o.strip() for o in raw_options)
        if answer in options:
            answer_index = options.index(answer)
        else:
            # tolerate case drift between answer and options
            folded = [o.casefold() for o in options]
            if answer.casefold() in folded:
                answer_index = folded.index(answer.casefold())
                answer = options[answer_index]
            else:
                return "answer not in options"
    elif fmt == QAFormat.BINARY:
        normalized = normalize_binary_answer(answer)
        if normalized is None:
            return "binary answer must normalize to Yes/No"
        answer = normalized

    item = QAItem(
        qa_id=content_qa_id(clip.audio_id, fmt.value, question),
        audio_id=clip.audio_id,
        source=clip.source,
        format=fmt,
        question=question,
        options=options,
        answer=answer,
        answer_index=answer_index,
        category=dimension.name,
        method=Method.LLM,
        template_id=None,
        seed=0,
    )
    violations = validate_qa_item(item)
    if violations:
        return "; ".join(violations)
    return item


def parse_llm_output(raw: str, clip: ClipRecord) -> LlmResponseBatch:
    """Best-effort extraction of QAItems from raw model output.

    Never raises: responses with no recognizable JSON array produce an
    empty batch with one rejected entry explaining why.
    """
    if not isinstance(raw, str):
        raw = str(raw)
    batch = LlmResponseBatch(raw_text=raw)
    array = _first_json_array(raw)
    if array is None:
        batch.rejected.append((raw[:200], "no JSON array found"))
        return batch
    for element in array:
        result = _element_to_item(element, clip)
        if isinstance(result, QAItem):
            batch.parsed.append(result)
        else:
            batch.rejected.append((_fragment(element), result))
    return batch


# ---------------------------------------------------------------------------
# Batch driver


@dataclass
class LlmGenerationReport:
    clips: int = 0
    items: int = 0
    rejected: int = 0
    skipped_no_context: int = 0
    failures: list[str] = field(default_factory=list)
    rejected_samples: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "clips": self.clips,
            "items": self.items,
            "rejected": self.rejected,
            "skipped_no_context": self.skipped_no_context,
            "failures": sorted(self.failures),
            "rejected_samples": self.rejected_samples[:50],
        }


def generate_llm_dataset(
    clips: Sequence[ClipRecord],
    client: LlmClient,
    examples: Sequence[DimensionExample],
    requested: RequestedMix,
) -> tuple[list[QAItem], LlmGenerationReport]:
    """Prompt the endpoint for every clip with context, collect valid items.

    Per-clip transport failures are recorded and skipped; AuthError aborts
    the run immediately since no later call can succeed.  Output is sorted
    by qa_id.  The client's connections belong to this run's worker threads
    and are closed when it ends.
    """
    report = LlmGenerationReport(clips=len(clips))
    prompts: list[tuple[ClipRecord, PromptSpec]] = []
    for clip in clips:
        try:
            prompts.append((clip, build_prompt(clip, examples, requested)))
        except NoContextError:
            report.skipped_no_context += 1
    items: list[QAItem] = []
    # the pool shuts down first, then the connections its threads held are closed
    with closing(client), ThreadPoolExecutor(max_workers=max(1, client.config.concurrency)) as pool:
        futures = [(clip, pool.submit(client.call, spec)) for clip, spec in prompts]
        # results are read in prompt order, so the kept rejection samples
        # do not depend on which thread finishes first
        for clip, future in futures:
            try:
                raw = future.result()
            except AuthError:
                raise
            except MusicQaError as exc:
                report.failures.append(f"{clip.audio_id}: {exc}")
                continue
            batch = parse_llm_output(raw, clip)
            items.extend(batch.parsed)
            report.rejected += len(batch.rejected)
            for fragment, reason in batch.rejected:
                if len(report.rejected_samples) < 50:
                    report.rejected_samples.append(f"{clip.audio_id}: {reason}: {fragment}")
    report.items = len(items)
    items.sort(key=lambda item: item.qa_id)
    return items, report
