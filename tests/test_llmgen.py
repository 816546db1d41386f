import json
import re
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from musicqa.errors import ParseError
from musicqa.llmgen import (
    DIMENSIONS,
    AuthError,
    DimensionExample,
    LlmClient,
    LlmEndpointConfig,
    MusicDimension,
    NoContextError,
    RateLimitError,
    TransportError,
    build_prompt,
    content_qa_id,
    default_examples,
    default_requested,
    generate_llm_dataset,
    load_examples,
    normalize_binary_answer,
    parse_llm_output,
    render_clip_context,
    request_cache_key,
    validate_qa_item,
)
from musicqa.rulegen import Method, QAFormat, QAItem

from conftest import MockEndpoint, make_clip

FIXTURE_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Dimensions and examples


def test_canonical_dimensions():
    names = [d.name for d in DIMENSIONS]
    assert names == ["instrumentation", "melody", "tempo", "genre", "mood", "function"]


def test_dimension_parse_normalizes():
    d = MusicDimension.parse("  Mood ")
    assert d.name == "mood"
    with pytest.raises(ValueError):
        MusicDimension("")


def test_default_examples_cover_dimension_format_grid():
    examples = default_examples()
    pairs = {(ex.dimension.name, ex.format) for ex in examples}
    for dim in DIMENSIONS:
        for fmt in (QAFormat.OPEN, QAFormat.BINARY, QAFormat.MCQ):
            assert (dim.name, fmt) in pairs


def test_load_examples_rejects_bad_entries():
    with pytest.raises(ParseError):
        load_examples(json.dumps([{"dimension": "mood", "format": "open",
                                   "question": "No question mark", "answer": "x"}]))
    with pytest.raises(ParseError):
        load_examples(json.dumps([{"dimension": "mood", "format": "mcq",
                                   "question": "Pick?", "answer": "Z",
                                   "options": ["A", "B"]}]))
    with pytest.raises(ParseError):
        load_examples("not json")


# ---------------------------------------------------------------------------
# Prompt construction


def test_render_clip_context_sorted_metadata():
    clip = make_clip("a", {"x"}, caption="Loud rock.", metadata={"b": "2", "a": "1"})
    assert render_clip_context(clip) == "Caption: Loud rock.\na: 1\nb: 2"


def test_build_prompt_structure():
    clip = make_clip("a", {"x"}, caption="Gentle piano.")
    examples = default_examples()
    requested = ((MusicDimension("mood"), QAFormat.OPEN, 2),)
    spec = build_prompt(clip, examples, requested)
    messages = spec.to_messages()
    assert [m["role"] for m in messages] == ["system", "user"]
    assert "JSON array" in messages[0]["content"]
    user = messages[1]["content"]
    assert "Caption: Gentle piano." in user
    assert "2 open question(s) about mood" in user
    # only the requested (dimension, format) examples are included
    assert all(ex.dimension.name == "mood" and ex.format is QAFormat.OPEN
               for ex in spec.fewshot)
    assert len(spec.fewshot) >= 1
    # stable rendering
    assert messages == build_prompt(clip, examples, requested).to_messages()


def test_build_prompt_requires_context():
    with pytest.raises(NoContextError):
        build_prompt(make_clip("a", {"x"}), default_examples(), default_requested())


def test_build_prompt_rejects_nonpositive_counts():
    clip = make_clip("a", {"x"}, caption="Something.")
    with pytest.raises(ValueError):
        build_prompt(clip, [], ((MusicDimension("mood"), QAFormat.OPEN, 0),))


def test_default_requested_grid():
    requested = default_requested(per_pair=2)
    assert len(requested) == 18
    assert all(count == 2 for _, _, count in requested)


def test_request_cache_key_sensitivity():
    msgs = [{"role": "user", "content": "hi"}]
    base = request_cache_key(msgs, "m1", 1.0)
    assert base == request_cache_key([dict(m) for m in msgs], "m1", 1.0)
    assert base != request_cache_key(msgs, "m2", 1.0)
    assert base != request_cache_key(msgs, "m1", 0.5)
    assert base != request_cache_key([{"role": "user", "content": "hi!"}], "m1", 1.0)
    assert len(base) == 32


# ---------------------------------------------------------------------------
# Client behavior against the mock endpoint


def make_client(endpoint, tmp_path=None, **overrides):
    cfg = LlmEndpointConfig(
        base_url=endpoint.url,
        model="test-model",
        max_retries=overrides.pop("max_retries", 3),
        backoff_base_s=0.001,
        backoff_cap_s=0.002,
        **overrides,
    )
    return LlmClient(cfg, cache_dir=tmp_path, sleep=lambda s: None)


def spec_for(text="A mellow tune."):
    clip = make_clip("clip-1", {"x"}, caption=text)
    return build_prompt(clip, default_examples(), ((MusicDimension("mood"), QAFormat.OPEN, 1),))


def test_call_success_and_payload_shape(mock_endpoint):
    mock_endpoint.script((200, MockEndpoint.chat_body("[]")))
    client = make_client(mock_endpoint)
    assert client.call(spec_for()) == "[]"
    req = mock_endpoint.requests[0]
    assert req["path"] == "/v1/chat/completions"
    assert req["payload"]["model"] == "test-model"
    assert req["payload"]["temperature"] == 1.0
    assert [m["role"] for m in req["payload"]["messages"]] == ["system", "user"]
    assert req["auth"] is None


def test_call_sends_bearer_token_from_env(mock_endpoint, monkeypatch):
    monkeypatch.setenv("MUSICQA_LLM_API_KEY", "sk-test-123")
    mock_endpoint.script((200, MockEndpoint.chat_body("[]")))
    client = make_client(mock_endpoint)
    client.call(spec_for())
    assert mock_endpoint.requests[0]["auth"] == "Bearer sk-test-123"


def test_cache_idempotence_sequential(mock_endpoint, tmp_path):
    mock_endpoint.script((200, MockEndpoint.chat_body("cached!")))
    client = make_client(mock_endpoint, tmp_path)
    for _ in range(5):
        assert client.call(spec_for()) == "cached!"
    assert client.network_calls == 1
    assert len(mock_endpoint.requests) == 1


def test_cache_idempotence_concurrent(mock_endpoint, tmp_path):
    mock_endpoint.script((200, MockEndpoint.chat_body("one")))
    client = make_client(mock_endpoint, tmp_path)
    results = []
    threads = [threading.Thread(target=lambda: results.append(client.call(spec_for())))
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == ["one"] * 8
    assert client.network_calls == 1


def test_cache_survives_client_restart(mock_endpoint, tmp_path):
    mock_endpoint.script((200, MockEndpoint.chat_body("persisted")))
    client = make_client(mock_endpoint, tmp_path)
    client.call(spec_for())
    assert len(list(tmp_path.glob("*.txt"))) == 1

    fresh = make_client(mock_endpoint, tmp_path)
    assert fresh.call(spec_for()) == "persisted"
    assert fresh.network_calls == 0
    assert len(mock_endpoint.requests) == 1


def test_retry_on_429_then_success(mock_endpoint):
    mock_endpoint.script(
        (429, {"error": "slow down"}),
        (429, {"error": "slow down"}),
        (200, MockEndpoint.chat_body("ok")),
    )
    client = make_client(mock_endpoint)
    assert client.call(spec_for()) == "ok"
    assert len(mock_endpoint.requests) == 3


def test_rate_limit_exhaustion_raises(mock_endpoint):
    mock_endpoint.script((429, {"error": "nope"}))
    client = make_client(mock_endpoint, max_retries=2)
    with pytest.raises(RateLimitError):
        client.call(spec_for())
    assert len(mock_endpoint.requests) == 3  # initial + 2 retries


def test_auth_error_never_retried(mock_endpoint):
    mock_endpoint.script((401, {"error": "bad key"}))
    client = make_client(mock_endpoint)
    with pytest.raises(AuthError):
        client.call(spec_for())
    assert len(mock_endpoint.requests) == 1


def test_server_error_retried_then_raises(mock_endpoint):
    mock_endpoint.script((500, {"error": "boom"}))
    client = make_client(mock_endpoint, max_retries=1)
    with pytest.raises(TransportError):
        client.call(spec_for())
    assert len(mock_endpoint.requests) == 2


def test_unexpected_status_fails_fast(mock_endpoint):
    mock_endpoint.script((404, {"error": "wrong path"}))
    client = make_client(mock_endpoint)
    with pytest.raises(TransportError):
        client.call(spec_for())
    assert len(mock_endpoint.requests) == 1


def test_malformed_completion_body(mock_endpoint):
    mock_endpoint.script((200, {"choices": []}))
    client = make_client(mock_endpoint)
    with pytest.raises(TransportError):
        client.call(spec_for())


def test_backoff_delays_grow(mock_endpoint):
    delays = []
    mock_endpoint.script((429, {}), (429, {}), (429, {}), (200, MockEndpoint.chat_body("ok")))
    cfg = LlmEndpointConfig(base_url=mock_endpoint.url, model="m",
                            max_retries=5, backoff_base_s=1.0, backoff_cap_s=60.0)
    client = LlmClient(cfg, sleep=delays.append)
    client.call(spec_for())
    assert len(delays) == 3
    # attempt n waits in [base*2^(n-1)/2, base*2^(n-1)]
    for n, delay in enumerate(delays, start=1):
        assert 0.5 * 2 ** (n - 1) <= delay <= 2 ** (n - 1)


# ---------------------------------------------------------------------------
# Output parsing


def load_parse_cases():
    return json.loads((FIXTURE_DIR / "llm_responses.json").read_text("utf-8"))


@pytest.mark.parametrize("case", load_parse_cases(), ids=lambda c: c["name"])
def test_parse_llm_output_fixture(case):
    clip = make_clip("clip-9", {"x"}, caption="Some music.")
    batch = parse_llm_output(case["raw"], clip)
    assert len(batch.parsed) == case["parsed"], batch.rejected
    assert len(batch.rejected) == case["rejected"]
    for item in batch.parsed:
        assert validate_qa_item(item) == []
        assert item.method is Method.LLM
        assert item.audio_id == "clip-9"
        assert item.seed == 0
    if "first" in case:
        first = batch.parsed[0]
        for field_name, expected in case["first"].items():
            actual = getattr(first, field_name)
            actual = actual.value if isinstance(actual, QAFormat) else actual
            assert actual == expected, field_name


def test_parse_never_raises_on_adversarial_strings():
    clip = make_clip("c", {"x"})
    nasty = [
        "", "[", "]", "[[[[", "]]]]", "[{]}", "null", "[null]",
        "[{}]", '[{"question": null}]', "\x00\x01\x02[\x03]",
        "[" * 500, '[{"question": "' + "x" * 10000 + '?"}]',
        '[{"a": ' * 200 + "1" + "}]" * 200,
    ]
    for raw in nasty:
        batch = parse_llm_output(raw, clip)
        assert isinstance(batch.parsed, list)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_parse_fuzz_property(raw):
    batch = parse_llm_output(raw, make_clip("c", {"x"}))
    for item in batch.parsed:
        assert validate_qa_item(item) == []


def test_llm_qa_id_stable_and_distinct():
    a = content_qa_id("clip", "open", "What mood?")
    assert a == content_qa_id("clip", "open", "What mood?")
    assert a != content_qa_id("clip", "binary", "What mood?")
    assert a != content_qa_id("clip2", "open", "What mood?")
    # parts are length-prefixed, so moving a boundary changes the id
    assert content_qa_id("ab", "c") != content_qa_id("a", "bc")
    assert len(a) == 16


def test_llm_qa_id_pinned():
    # responses are cached by content and datasets carry these ids
    raw = json.dumps([{"question": "What mood does this track convey?", "format": "open",
                       "answer": "Calm", "dimension": "mood"}])
    batch = parse_llm_output(raw, make_clip("clip-1", set()))
    assert [item.qa_id for item in batch.parsed] == ["071cd70456fece7c"]


# ---------------------------------------------------------------------------
# Item validation


def qa(fmt=QAFormat.OPEN, **kw):
    base = dict(
        qa_id="x" * 16, audio_id="a1", source="FMA", format=fmt,
        question="What is it?", options=(), answer="Thing", answer_index=None,
        category="mood", method=Method.LLM, template_id=None, seed=0,
    )
    base.update(kw)
    return QAItem(**base)


@pytest.mark.parametrize("item, fragment", [
    (qa(qa_id=""), "empty qa_id"),
    (qa(audio_id=""), "empty audio_id"),
    (qa(question="  "), "empty question"),
    (qa(answer=""), "empty answer"),
    (qa(question="No mark"), "end with '?'"),
    (qa(options=("A", "B")), "must not carry options"),
    (qa(answer_index=0), "must not carry answer_index"),
    (qa(QAFormat.BINARY, question="Is it?", answer="Perhaps"), "normalize to Yes/No"),
    (qa(QAFormat.MCQ, question="Pick: A. x B. y", options=("x",), answer="x", answer_index=0),
     "at least 2 options"),
    (qa(QAFormat.MCQ, question="Pick: A. x B. x", options=("x", "x"), answer="x", answer_index=0),
     "duplicate options"),
    (qa(QAFormat.MCQ, question="Pick: A. x B. y", options=("x", "y"), answer="x"),
     "answer_index missing"),
    (qa(QAFormat.MCQ, question="Pick: A. x B. y", options=("x", "y"), answer="x", answer_index=5),
     "out of range"),
    (qa(QAFormat.MCQ, question="Pick: A. x B. y", options=("x", "y"), answer="y", answer_index=0),
     "answer not at answer_index"),
    (qa(QAFormat.MCQ, question="Pick one A. x B. y", options=("x", "y"), answer="x", answer_index=0),
     "must end with '?' or ':'"),
])
def test_validate_qa_item_violations(item, fragment):
    found = validate_qa_item(item)
    assert any(fragment in v for v in found), found


def test_validate_qa_item_accepts_valid_items():
    assert validate_qa_item(qa()) == []
    assert validate_qa_item(qa(QAFormat.BINARY, question="Is it loud?", answer="yes.")) == []
    assert validate_qa_item(
        qa(QAFormat.MCQ, question="Pick the mood: A. calm B. tense",
           options=("calm", "tense"), answer="calm", answer_index=0)
    ) == []


@pytest.mark.parametrize("raw, expected", [
    ("yes", "Yes"), ("YES!", "Yes"), (" Yes. ", "Yes"), ("no", "No"),
    ("No,", "No"), ("nope", None), ("", None), ("yesno", None),
])
def test_normalize_binary_answer(raw, expected):
    assert normalize_binary_answer(raw) == expected


# ---------------------------------------------------------------------------
# Batch driver


VALID_CONTENT = json.dumps([
    {"question": "What mood does this convey?", "format": "open",
     "answer": "Calm", "dimension": "mood"},
    {"question": "Is the tempo fast?", "format": "binary",
     "answer": "no", "dimension": "tempo"},
])


def test_generate_llm_dataset_end_to_end(mock_endpoint, tmp_path):
    mock_endpoint.script((200, MockEndpoint.chat_body(VALID_CONTENT)))
    client = make_client(mock_endpoint, tmp_path)
    clips = [
        make_clip("c1", {"x"}, caption="First clip."),
        make_clip("c2", {"x"}, caption="Second clip."),
        make_clip("c3", {"x"}),  # no context: skipped before any network call
    ]
    items, report = generate_llm_dataset(
        clips, client, default_examples(), default_requested()
    )
    assert report.clips == 3
    assert report.skipped_no_context == 1
    assert report.items == len(items) == 4
    assert report.failures == []
    assert [i.qa_id for i in items] == sorted(i.qa_id for i in items)
    assert {i.audio_id for i in items} == {"c1", "c2"}
    assert all(validate_qa_item(i) == [] for i in items)
    # distinct clip contexts means one network call per clip with context
    assert client.network_calls == 2


def test_client_holds_no_per_prompt_state_after_a_run(mock_endpoint, tmp_path):
    mock_endpoint.script((200, MockEndpoint.chat_body(VALID_CONTENT)))
    client = make_client(mock_endpoint, tmp_path, concurrency=4)
    clips = [make_clip(f"c{i}", {"x"}, caption=f"Clip number {i}.") for i in range(40)]
    items, report = generate_llm_dataset(clips, client, default_examples(), default_requested())
    assert report.failures == [] and len(items) == 80
    assert client.network_calls == 40
    # responses live in the cache files, and no prompt keeps a lock
    assert len(list(tmp_path.glob("*.txt"))) == 40
    assert client._key_locks == {}


def test_generate_llm_dataset_records_failures_and_continues(mock_endpoint):
    mock_endpoint.script((404, {"error": "missing"}))
    client = make_client(mock_endpoint)
    clips = [make_clip("c1", {"x"}, caption="Only clip.")]
    items, report = generate_llm_dataset(clips, client, [], default_requested())
    assert items == []
    assert len(report.failures) == 1
    assert "c1" in report.failures[0]


def test_generate_llm_dataset_aborts_on_auth_error(mock_endpoint):
    mock_endpoint.script((401, {"error": "bad key"}))
    client = make_client(mock_endpoint)
    clips = [make_clip("c1", {"x"}, caption="Clip.")]
    with pytest.raises(AuthError):
        generate_llm_dataset(clips, client, [], default_requested())


def test_generate_llm_dataset_counts_rejections(mock_endpoint):
    content = '[{"question": "Bad entry", "format": "open", "answer": "x", "dimension": "mood"}]'
    mock_endpoint.script((200, MockEndpoint.chat_body(content)))
    client = make_client(mock_endpoint)
    clips = [make_clip("c1", {"x"}, caption="Clip.")]
    items, report = generate_llm_dataset(clips, client, [], default_requested())
    assert items == []
    assert report.rejected == 1
    assert report.rejected_samples and "c1" in report.rejected_samples[0]


def test_generate_llm_dataset_rejected_samples_in_prompt_order(mock_endpoint):
    content = '[{"question": "Bad entry", "format": "open", "answer": "x", "dimension": "mood"}]'
    mock_endpoint.script((200, MockEndpoint.chat_body(content)))
    clips = [make_clip(f"c{n:02d}", {"x"}, caption=f"Clip number {n}.") for n in range(60)]

    class LateFirst(LlmClient):
        # earlier prompts answer later, so threads finish out of prompt order
        def call(self, spec):
            n = int(re.search(r"Clip number (\d+)", spec.clip_context).group(1))
            time.sleep(0.001 * (60 - n))
            return super().call(spec)

    reports = []
    for _ in range(2):
        cfg = LlmEndpointConfig(base_url=mock_endpoint.url, model="test-model", concurrency=4)
        client = LateFirst(cfg, sleep=lambda s: None)
        items, report = generate_llm_dataset(clips, client, [], default_requested())
        reports.append(report.to_dict())
    assert reports[0] == reports[1]
    assert reports[0]["rejected"] == 60
    samples = reports[0]["rejected_samples"]
    assert [s.split(":")[0] for s in samples] == [f"c{n:02d}" for n in range(50)]
