import hashlib
import json
import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from musicqa import corpus
from musicqa.assembly import (
    CAPTION_INSTRUCTION,
    TABLE_COLUMNS,
    TASKS,
    BadRatioError,
    DigestMismatchError,
    IoError,
    Split,
    compute_stats,
    deduplicate,
    filter_formats,
    import_external,
    item_from_dict,
    item_to_dict,
    item_to_json,
    read_items_jsonl,
    read_shards,
    split_by_audio,
    split_fraction,
    write_items_jsonl,
    write_shards,
)
from musicqa.corpus import Source
from musicqa.errors import ParseError
from musicqa.rulegen import Method, QAFormat, QAItem


def mk(i=0, audio="a1", fmt=QAFormat.OPEN, question=None, source=Source.FMA,
       qa_id=None, answer=None):
    if fmt is QAFormat.MCQ:
        question = question or f"Pick the thing {i}: A. x B. y"
        options, answer, idx = ("x", "y"), answer or "x", 0
    elif fmt is QAFormat.BINARY:
        question = question or f"Is it thing {i}?"
        options, answer, idx = (), answer or "Yes", None
    elif fmt is QAFormat.CAPTION:
        question = question or CAPTION_INSTRUCTION
        options, answer, idx = (), answer or "Some description.", None
    else:
        question = question or f"What is thing {i}?"
        options, answer, idx = (), answer or "Thing", None
    return QAItem(
        qa_id=qa_id or f"{i:016x}",
        audio_id=audio,
        source=source,
        format=fmt,
        question=question,
        options=options,
        answer=answer,
        answer_index=idx,
        category="mood",
        method=Method.RULE,
        template_id="t1" if fmt is not QAFormat.CAPTION else None,
        seed=i,
    )


# ---------------------------------------------------------------------------
# Serialization


def test_item_dict_field_order():
    d = item_to_dict(mk())
    assert list(d.keys()) == [
        "qa_id", "audio_id", "source", "format", "question", "options",
        "answer", "answer_index", "category", "method", "template_id", "seed",
    ]


@pytest.mark.parametrize("fmt", list(QAFormat))
def test_item_roundtrip(fmt):
    item = mk(3, fmt=fmt)
    assert item_from_dict(json.loads(item_to_json(item))) == item


def test_item_from_dict_reports_line():
    with pytest.raises(ParseError) as err:
        item_from_dict({"qa_id": "x"}, line_no=7)
    assert "line 7" in str(err.value)


def test_jsonl_roundtrip(tmp_path):
    items = [mk(i, fmt=f) for i, f in enumerate(QAFormat)]
    path = tmp_path / "items.jsonl"
    write_items_jsonl(items, path)
    assert read_items_jsonl(path) == items


def test_jsonl_corrupt_line_number(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text(item_to_json(mk(1)) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_items_jsonl(path)
    assert "line 2" in str(err.value)


# quotes, backslashes, control characters, the line separators that
# str.splitlines() breaks at, and characters outside the BMP
_TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x85\u2028\u2029\ufeff\U0001d11e\U0001f3b8'),
        st.characters(),
    ),
    max_size=30,
)

_ITEMS = st.builds(
    QAItem,
    qa_id=_TRICKY_TEXT,
    audio_id=_TRICKY_TEXT,
    source=st.sampled_from(Source),
    format=st.sampled_from(QAFormat),
    question=_TRICKY_TEXT,
    options=st.lists(_TRICKY_TEXT, max_size=5).map(tuple),
    answer=_TRICKY_TEXT,
    answer_index=st.none() | st.integers(-(2**70), 2**70),
    category=_TRICKY_TEXT,
    method=st.sampled_from(Method),
    template_id=st.none() | _TRICKY_TEXT,
    seed=st.integers(-(2**70), 2**70),
)


@settings(max_examples=300, deadline=None)
@given(_ITEMS)
def test_item_to_json_matches_json_dumps(item):
    reference = json.dumps(item_to_dict(item), ensure_ascii=False, separators=(",", ":"))
    assert item_to_json(item) == reference


@settings(max_examples=200, deadline=None)
@given(_ITEMS)
def test_item_decode_encode_roundtrip(item):
    line = item_to_json(item)
    decoded = item_from_dict(json.loads(line))
    assert decoded == item
    assert item_to_json(decoded) == line


@settings(max_examples=100, deadline=None)
@given(_ITEMS)
def test_qaitem_pickle_roundtrip(item):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(item, protocol=protocol))
        assert back == item
        assert (back.source, back.format, back.method) == (item.source, item.format, item.method)
        assert type(back.format) is QAFormat and type(back.method) is Method
        assert type(back.source) is Source


def test_jsonl_lines_with_unicode_separators(tmp_path):
    # U+2028, U+2029 and U+0085 stay raw in the text; only "\n" ends a line
    items = [mk(i, question=f"What is{sep}thing {i}?") for i, sep in
             enumerate(["\u2028", "\u2029", "\x85", "\r"])]
    path = tmp_path / "items.jsonl"
    write_items_jsonl(items, path)
    assert path.read_bytes().count(b"\n") == len(items)
    assert read_items_jsonl(path) == items


_GOOD_LINE = {
    "qa_id": "00000000000000a1", "audio_id": "a1", "source": "FMA", "format": "mcq",
    "question": "Pick one: A. x B. y", "options": ["x", "y"], "answer": "x",
    "answer_index": 0, "category": "mood", "method": "rule", "template_id": "t1", "seed": 3,
}


_DROP = object()


def _line(**changes):
    obj = {**_GOOD_LINE, **changes}
    return json.dumps({k: v for k, v in obj.items() if v is not _DROP})


# messages of the previous decoder, which built items through json.dumps
# and the enum constructors; the last four were accepted or crashed there
@pytest.mark.parametrize("line, message", [
    (_line(qa_id=_DROP), "line 3: missing field 'qa_id'"),
    (_line(method=_DROP), "line 3: missing field 'method'"),
    (_line(format="essay"), "line 3: 'essay' is not a valid QAFormat"),
    (_line(format=["mcq"]), "line 3: ['mcq'] is not a valid QAFormat"),
    (_line(method="guess"), "line 3: 'guess' is not a valid Method"),
    (_line(options="x,y"), "line 3: options must be a list"),
    (_line(answer_index="0"), "line 3: answer_index must be an integer or null"),
    (_line(answer_index=0.0), "line 3: answer_index must be an integer or null"),
    ("[1, 2]", "line 3: expected a JSON object"),
    ('{"qa_id": ', "line 3: invalid JSON: Expecting value: line 1 column 10 (char 9)"),
    (_line() + " {}", "line 3: invalid JSON: Extra data: line 1 column 245 (char 244)"),
    ("\ufeff" + _line(), "line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                          "line 1 column 1 (char 0)"),
    (_line(answer_index=True), "line 3: answer_index must be an integer or null"),
    (_line(seed=1.9), "line 3: seed must be an integer"),
    (_line(seed="5"), "line 3: seed must be an integer"),
    (_line(seed=None), "line 3: seed must be an integer"),
])
def test_jsonl_malformed_line_messages(tmp_path, line, message):
    path = tmp_path / "items.jsonl"
    path.write_text(f"{_line()}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_items_jsonl(path)
    assert str(err.value) == message
    assert err.value.line_no == 3


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TRICKY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TRICKY_TEXT, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=20),
    st.builds(lambda pre, value, post: pre + json.dumps(value, ensure_ascii=False) + post,
              st.sampled_from(["", "\ufeff", "[", "{"]), _JSON_VALUES,
              st.sampled_from(["", "x", "}", "]", ",", " {}", "\ufeff"])),
))
def test_loads_agrees_with_json_loads(text):
    line = text.strip()
    if not line:
        return
    try:
        expected = json.loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as err:
            corpus._loads(line)
        assert str(err.value) == str(exc)
    else:
        assert json.dumps(corpus._loads(line)) == json.dumps(expected)


def test_item_from_dict_maps_source_aliases():
    item = item_from_dict({**_GOOD_LINE, "source": " mtt "})
    assert item.source is Source.MAGNATAGATUNE
    assert item_from_dict({**_GOOD_LINE, "source": ["FMA"]}).source is Source.OTHER


# ---------------------------------------------------------------------------
# Dedup


def test_deduplicate_collapses_question_variants():
    keep = mk(1, question="What is the mood here?", qa_id="0" * 16)
    dupes = [
        mk(2, question="what is the MOOD here?", qa_id="f" * 16),
        mk(3, question="  What   is the mood\there? ", qa_id="a" * 16),
    ]
    out = deduplicate([dupes[0], keep, dupes[1]])
    assert out == [keep]


def test_deduplicate_keeps_distinct_audio_ids():
    a = mk(1, audio="a1", question="Same question?")
    b = mk(2, audio="a2", question="Same question?")
    assert len(deduplicate([a, b])) == 2


def test_deduplicate_sorted_and_idempotent():
    items = [mk(i, audio=f"a{i % 3}", question=f"Q {i % 5}?") for i in range(30)]
    random.Random(0).shuffle(items)
    out = deduplicate(items)
    assert [i.qa_id for i in out] == sorted(i.qa_id for i in out)
    assert deduplicate(out) == out


def test_deduplicate_matches_bruteforce_oracle():
    rng = random.Random(42)
    base_questions = ["What mood?", "Which  genre?", "Is it loud?"]
    items = []
    for i in range(200):
        q = rng.choice(base_questions)
        # random case/whitespace mutations that preserve the dedup key
        q = "".join(ch.upper() if rng.random() < 0.3 else ch for ch in q)
        if rng.random() < 0.3:
            q = q.replace(" ", "  ")
        items.append(mk(i, audio=f"a{rng.randrange(4)}", question=q,
                        qa_id=f"{rng.randrange(16**16):016x}"))

    def oracle(seq):
        best = {}
        for item in seq:
            key = (item.audio_id, " ".join(item.question.split()).casefold())
            if key not in best or item.qa_id < best[key].qa_id:
                best[key] = item
        return sorted(best.values(), key=lambda item: item.qa_id)

    assert deduplicate(items) == oracle(items)


# ---------------------------------------------------------------------------
# Splits


def test_split_fraction_range_and_determinism():
    for i in range(100):
        u = split_fraction(f"audio-{i}", 7)
        assert 0.0 <= u < 1.0
        assert u == split_fraction(f"audio-{i}", 7)
    assert split_fraction("audio-0", 7) != split_fraction("audio-0", 8)


@pytest.mark.parametrize("ratios", [
    (0.8, 0.1, 0.2), (0.8, 0.2, 0.0), (1.0, 0.0, 0.0), (-0.1, 0.6, 0.5),
])
def test_split_rejects_bad_ratios(ratios):
    with pytest.raises(BadRatioError):
        split_by_audio([mk(1)], ratios, 7)


def test_split_partitions_and_fractions():
    items = [mk(i, audio=f"a{i}") for i in range(3000)]
    assignment = split_by_audio(items, (0.8, 0.1, 0.1), 7)
    counts = {s: 0 for s in Split}
    for aid in (f"a{i}" for i in range(3000)):
        counts[assignment.split_of[aid]] += 1
    assert sum(counts.values()) == 3000
    assert abs(counts[Split.TRAIN] / 3000 - 0.8) < 0.03
    assert abs(counts[Split.VAL] / 3000 - 0.1) < 0.02
    assert abs(counts[Split.TEST] / 3000 - 0.1) < 0.02
    # items_for partitions the item list
    parts = [assignment.items_for(items, s) for s in Split]
    assert sum(len(p) for p in parts) == len(items)
    seen = {i.audio_id for p in parts for i in p}
    assert seen == {i.audio_id for i in items}


def test_split_stable_under_growth():
    old = [mk(i, audio=f"a{i}") for i in range(1000)]
    grown = old + [mk(i + 1000, audio=f"b{i}") for i in range(500)]
    before = split_by_audio(old, (0.8, 0.1, 0.1), 7).split_of
    after = split_by_audio(grown, (0.8, 0.1, 0.1), 7).split_of
    assert all(after[aid] == split for aid, split in before.items())


# ---------------------------------------------------------------------------
# Shards


def test_shards_roundtrip_and_structure(tmp_path):
    items = [mk(i, audio=f"a{i % 10}") for i in range(25)]
    manifest = write_shards(items, shard_size=10, out_dir=tmp_path)
    assert manifest["total_items"] == 25
    assert [s["path"] for s in manifest["shards"]] == [
        "shard-00000.jsonl", "shard-00001.jsonl", "shard-00002.jsonl",
    ]
    assert [s["items"] for s in manifest["shards"]] == [10, 10, 5]
    assert all(s["digest"].startswith("sha256:") for s in manifest["shards"])
    back = read_shards(tmp_path)
    assert back == sorted(items, key=lambda i: i.qa_id)


def test_shards_byte_deterministic(tmp_path):
    items = [mk(i) for i in range(7)]
    m1 = write_shards(items, 3, tmp_path / "one")
    m2 = write_shards(list(reversed(items)), 3, tmp_path / "two")
    assert [s["digest"] for s in m1["shards"]] == [s["digest"] for s in m2["shards"]]


def test_shards_detect_tampering(tmp_path):
    write_shards([mk(i) for i in range(5)], 2, tmp_path)
    shard = tmp_path / "shard-00001.jsonl"
    shard.write_text(shard.read_text("utf-8").replace("Thing", "Tampered"), "utf-8")
    with pytest.raises(DigestMismatchError):
        read_shards(tmp_path)


def test_shards_manifest_digest_is_file_sha256(tmp_path):
    manifest = write_shards([mk(i, question=f"What is\u2028thing {i}?") for i in range(2500)],
                            1100, tmp_path)
    assert [s["items"] for s in manifest["shards"]] == [1100, 1100, 300]
    for shard in manifest["shards"]:
        data = (tmp_path / shard["path"]).read_bytes()
        assert shard["digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
    on_disk = json.loads((tmp_path / "manifest.json").read_text("utf-8"))
    assert on_disk == manifest


def test_shards_flipped_byte_breaking_json_is_digest_mismatch(tmp_path):
    write_shards([mk(i) for i in range(5)], 5, tmp_path)
    shard = tmp_path / "shard-00000.jsonl"
    data = bytearray(shard.read_bytes())
    data[data.index(b'"audio_id"') - 1] ^= 0x01  # "," -> "-"
    shard.write_bytes(bytes(data))
    with pytest.raises(DigestMismatchError):
        read_shards(tmp_path)
    # the same file read without a digest fails on the broken line
    with pytest.raises(ParseError) as err:
        read_items_jsonl(shard)
    assert "line 1" in str(err.value)


def test_shards_invalid_utf8_is_digest_mismatch(tmp_path):
    write_shards([mk(i) for i in range(5)], 5, tmp_path)
    shard = tmp_path / "shard-00000.jsonl"
    shard.write_bytes(shard.read_bytes().replace(b"Thing", b"Th\xffng", 1))
    with pytest.raises(DigestMismatchError):
        read_shards(tmp_path)


def test_shards_bad_line_under_good_digest_is_parse_error(tmp_path):
    write_shards([mk(i) for i in range(5)], 5, tmp_path)
    shard = tmp_path / "shard-00000.jsonl"
    shard.write_bytes(shard.read_bytes() + b"{broken\n")
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text("utf-8"))
    manifest["shards"][0]["digest"] = "sha256:" + hashlib.sha256(shard.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest), "utf-8")
    with pytest.raises(ParseError) as err:
        read_shards(tmp_path)
    assert "line 6" in str(err.value)


def test_shards_missing_manifest(tmp_path):
    with pytest.raises(IoError):
        read_shards(tmp_path / "nowhere")


def test_shards_manifest_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    real_replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == "manifest.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(IoError):
        write_shards([mk(i) for i in range(5)], 2, tmp_path)
    assert list(tmp_path.glob("*.tmp")) == []
    assert not (tmp_path / "manifest.json").exists()


def test_shards_bad_size(tmp_path):
    with pytest.raises(ValueError):
        write_shards([mk(1)], 0, tmp_path)


# ---------------------------------------------------------------------------
# Stats


def test_compute_stats_counts():
    items = [
        mk(1, audio="a1", fmt=QAFormat.OPEN, source=Source.FMA),
        mk(2, audio="a1", fmt=QAFormat.MCQ, source=Source.FMA),
        mk(3, audio="a2", fmt=QAFormat.BINARY, source=Source.FMA),
        mk(4, audio="b1", fmt=QAFormat.CAPTION, source=Source.MUSICCAPS),
    ]
    stats = compute_stats(items)
    assert stats.per_source_task == {
        ("FMA", "QA"): 1, ("FMA", "MCQ"): 1, ("FMA", "Binary"): 1,
        ("MusicCaps", "Captioning"): 1,
    }
    assert stats.per_source_audios == {"FMA": 2, "MusicCaps": 1}
    assert stats.grand_total == 4
    assert stats.source_total("FMA") == 3
    assert stats.task_total("QA") == 1


def test_stats_table_structure():
    stats = compute_stats([mk(1, source=Source.OTHER)])
    table = stats.to_table()
    assert table["columns"] == list(TABLE_COLUMNS) == [
        "Audio Sources", "Audios", "Captioning", "QA", "MCQ", "Binary", "Total",
    ]
    labels = [row[0] for row in table["rows"]]
    # canonical sources always present in published order, extras after, Total last
    assert labels == ["MusicCaps", "MagnaTagATune", "FMA", "AudioSet", "Other", "Total"]
    for row in table["rows"]:
        assert len(row) == len(TABLE_COLUMNS)
        assert row[-1] == sum(row[2:-1])  # row total additivity
    total_row = table["rows"][-1]
    for col in range(1, len(TABLE_COLUMNS)):
        assert total_row[col] == sum(row[col] for row in table["rows"][:-1])


def test_stats_musiccaps_row_small_scale():
    # per-task mix for one source: 13 captions, 42 open, 30 mcq, 13 binary
    items = []
    i = 0
    for fmt, n in ((QAFormat.CAPTION, 13), (QAFormat.OPEN, 42),
                   (QAFormat.MCQ, 30), (QAFormat.BINARY, 13)):
        for _ in range(n):
            items.append(mk(i, audio=f"mc{i % 22}", fmt=fmt, source=Source.MUSICCAPS))
            i += 1
    table = compute_stats(items).to_table()
    row = next(r for r in table["rows"] if r[0] == "MusicCaps")
    assert row == ["MusicCaps", 22, 13, 42, 30, 13, 98]


def test_filter_formats_zeroes_one_task():
    items = [mk(i, fmt=f) for i in range(12) for f in QAFormat]
    for dropped in QAFormat:
        keep = {f for f in QAFormat if f != dropped}
        filtered = filter_formats(items, keep)
        stats = compute_stats(filtered)
        full = compute_stats(items)
        dropped_task = {"caption": "Captioning", "open": "QA",
                        "mcq": "MCQ", "binary": "Binary"}[dropped.value]
        assert stats.task_total(dropped_task) == 0
        for task in TASKS:
            if task != dropped_task:
                assert stats.task_total(task) == full.task_total(task)


# ---------------------------------------------------------------------------
# External import


def test_import_caption_lines():
    raw = json.dumps({"audio_id": "mc-1", "caption": " A warm piano piece. "})
    items = import_external(raw, "MusicCaps")
    assert len(items) == 1
    item = items[0]
    assert item.format is QAFormat.CAPTION
    assert item.question == CAPTION_INSTRUCTION
    assert item.answer == "A warm piano piece."
    assert item.source is Source.MUSICCAPS
    assert item.method is Method.IMPORTED
    assert item.category == "caption"


def test_import_qa_lines():
    lines = [
        json.dumps({"audio_id": "x1", "question": "What mood?", "answer": "Calm"}),
        json.dumps({"audio_id": "x1", "question": "Is it loud?", "answer": "no!",
                    "format": "binary"}),
        json.dumps({"audio_id": "x2", "question": "Pick one: A. a B. b",
                    "answer": "b", "format": "mcq", "options": ["a", "b"]}),
    ]
    items = import_external("\n".join(lines), Source.OTHER)
    assert [i.format for i in items] == [QAFormat.OPEN, QAFormat.BINARY, QAFormat.MCQ]
    assert items[1].answer == "No"
    assert items[2].answer_index == 1


def test_import_ids_stable():
    raw = json.dumps({"audio_id": "x1", "question": "What mood?", "answer": "Calm"})
    assert import_external(raw, "Other")[0].qa_id == import_external(raw, "Other")[0].qa_id


def test_import_ids_pinned():
    # existing datasets carry these ids; a change to the id hash breaks them
    qa_line = json.dumps({"audio_id": "clip-1", "question": "What mood does this track convey?",
                          "answer": "Calm"})
    caption_line = json.dumps({"audio_id": "clip-1", "caption": "Soft piano over rain."})
    assert import_external(qa_line, "FMA")[0].qa_id == "e96c423746d9b195"
    assert import_external(caption_line, "MusicCaps")[0].qa_id == "ca95262a3d84486b"


@pytest.mark.parametrize("line, fragment", [
    ("{broken", "line 1"),
    (json.dumps({"caption": "no id"}), "audio_id"),
    (json.dumps({"audio_id": "x", "caption": "  "}), "caption"),
    (json.dumps({"audio_id": "x", "question": "Q?"}), "answer"),
    (json.dumps({"audio_id": "x", "question": "Q?", "answer": "maybe",
                 "format": "binary"}), "Yes/No"),
    (json.dumps({"audio_id": "x", "question": "Q?", "answer": "A",
                 "format": "essay"}), "unknown format"),
    (json.dumps({"audio_id": "x", "question": "No mark", "answer": "A"}), "'?'"),
    (json.dumps({"audio_id": "x", "question": "Pick: A. a B. b", "answer": "b",
                 "format": "mcq", "options": ["a", "b"], "answer_index": True}),
     "answer_index must be an integer or null"),
    (json.dumps({"audio_id": "x", "question": "Pick: A. a B. b", "answer": "b",
                 "format": "mcq", "options": ["a", "b"], "answer_index": 1.0}),
     "answer_index must be an integer or null"),
])
def test_import_rejects_bad_lines(line, fragment):
    with pytest.raises(ParseError) as err:
        import_external(line, "Other")
    assert fragment in str(err.value)
