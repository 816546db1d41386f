import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from musicqa.assembly import import_external
from musicqa.corpus import (
    ClipRecord,
    DuplicateClipError,
    Source,
    compute_label_frequencies,
    filter_music_clips,
    iter_jsonl,
    load_manifest,
    parse_source,
)
from musicqa.errors import ParseError
from musicqa.evalharness import load_outputs_jsonl

from conftest import make_clip


def manifest_line(audio_id="a1", source="FMA", labels=("rock",), **extra):
    obj = {"audio_id": audio_id, "source": source, "labels": list(labels)}
    obj.update(extra)
    return json.dumps(obj)


def test_parse_source_aliases():
    assert parse_source("MusicCaps") is Source.MUSICCAPS
    assert parse_source("musiccaps") is Source.MUSICCAPS
    assert parse_source(" MTT ") is Source.MAGNATAGATUNE
    assert parse_source("MagnaTagATune") is Source.MAGNATAGATUNE
    assert parse_source("fma") is Source.FMA
    assert parse_source("AudioSet") is Source.AUDIOSET
    assert parse_source("whatever") is Source.OTHER


def test_load_manifest_happy_path():
    raw = "\n".join([
        manifest_line("a1", "FMA", ["rock"], caption="hi", duration_s=30),
        "",  # blank lines skipped
        manifest_line("a2", "AudioSet", ["ag", "eg"], metadata={"k": "v"}),
    ])
    clips = load_manifest(raw)
    assert [c.audio_id for c in clips] == ["a1", "a2"]
    assert clips[0].caption == "hi"
    assert clips[0].duration_s == 30.0
    assert clips[1].labels == frozenset({"ag", "eg"})
    assert clips[1].metadata == {"k": "v"}
    assert clips[1].source is Source.AUDIOSET


def test_load_manifest_accepts_bytes():
    clips = load_manifest(manifest_line().encode("utf-8"))
    assert clips[0].audio_id == "a1"


# ---------------------------------------------------------------------------
# The JSONL reader behind every line-oriented input


def test_iter_jsonl_yields_objects_with_line_numbers(tmp_path):
    raw = '{"a": 1}\n\n  \n{"b": [2]}\n'
    expected = [(1, {"a": 1}), (4, {"b": [2]})]
    assert list(iter_jsonl(raw)) == expected
    assert list(iter_jsonl(raw.encode("utf-8"))) == expected
    path = tmp_path / "rows.jsonl"
    path.write_text(raw, "utf-8")
    with open(path, "rb") as fh:
        assert list(iter_jsonl(fh)) == expected


@pytest.mark.parametrize("line, message", [
    (b"\xff{}", "line 2: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte"),
    (b"{broken", "line 2: invalid JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)"),
    (b"[1, 2]", "line 2: expected a JSON object"),
    (b'"text"', "line 2: expected a JSON object"),
])
def test_iter_jsonl_rejects_bad_lines(line, message):
    with pytest.raises(ParseError) as err:
        list(iter_jsonl(b'{"ok": true}\n' + line + b"\n"))
    assert str(err.value) == message
    assert err.value.line_no == 2


_READERS = {
    "iter_jsonl": (lambda raw: [obj for _, obj in iter_jsonl(raw)],
                   lambda i, text: {"text": text}, lambda obj: obj["text"]),
    "manifest": (load_manifest,
                 lambda i, text: {"audio_id": f"a{i}", "source": "FMA", "labels": ["rock"],
                                  "caption": text},
                 lambda clip: clip.caption),
    "import": (lambda raw: import_external(raw, "MusicCaps"),
               lambda i, text: {"audio_id": f"mc-{i}", "caption": text},
               lambda item: item.answer),
    "outputs": (load_outputs_jsonl, lambda i, text: {"qa_id": f"q{i}", "text": text},
                lambda output: output.text),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_jsonl_readers_split_on_newline_only(reader):
    # json.dumps(ensure_ascii=False) writes U+2028, U+2029 and U+0085 raw
    read, row, text_of = _READERS[reader]
    texts = ["Guitar\u2028and\u2029voice\x85.", "Piano.\u2028Then strings.", "B\x85then",
             "no\u2029really"]
    raw = "\n".join(json.dumps(row(i, text), ensure_ascii=False) for i, text in enumerate(texts))
    for data in (raw, raw.encode("utf-8")):
        assert [text_of(record) for record in read(data)] == texts


def test_load_manifest_reports_line_numbers():
    raw = manifest_line() + "\n{broken"
    with pytest.raises(ParseError) as err:
        load_manifest(raw)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("bad", [
    '{"source": "FMA", "labels": []}',                      # no audio_id
    '{"audio_id": "", "source": "FMA", "labels": []}',      # empty audio_id
    '{"audio_id": "x", "source": "FMA", "labels": "rock"}', # labels not a list
    '{"audio_id": "x", "source": "FMA", "labels": [1]}',    # non-string label
    '{"audio_id": "x", "source": 3, "labels": []}',         # source not a string
    '{"audio_id": "x", "source": "FMA", "labels": [], "caption": 5}',
    '{"audio_id": "x", "source": "FMA", "labels": [], "duration_s": "long"}',
    '[1, 2]',                                               # not an object
])
def test_load_manifest_rejects_bad_rows(bad):
    with pytest.raises(ParseError):
        load_manifest(bad)


def test_load_manifest_duplicate_detection():
    raw = manifest_line("a1") + "\n" + manifest_line("a1")
    with pytest.raises(DuplicateClipError):
        load_manifest(raw)
    # same audio_id under different sources is allowed
    raw = manifest_line("a1", "FMA") + "\n" + manifest_line("a1", "AudioSet")
    assert len(load_manifest(raw)) == 2


def test_filter_music_clips_keeps_only_leaf_labeled(fixture_ontology):
    clips = [
        make_clip("leafed", {"ag"}),
        make_clip("parent-only", {"strings"}),   # non-leaf music label
        make_clip("category-only", {"instr"}),   # category node
        make_clip("speech", {"sp1"}),            # outside music subtree
        make_clip("mixed", {"strings", "jazz"}), # one leaf among parents
        make_clip("unknown", {"not-a-label"}),
    ]
    kept = filter_music_clips(clips, fixture_ontology, "music")
    assert [c.audio_id for c in kept] == ["leafed", "mixed"]


def test_filter_idempotent(fixture_ontology, fixture_clips):
    once = filter_music_clips(fixture_clips, fixture_ontology, "music")
    twice = filter_music_clips(once, fixture_ontology, "music")
    assert once == twice


def test_filter_warns_on_unknown_labels(fixture_ontology, caplog):
    clips = [make_clip("a1", {"ag", "mystery"})]
    with caplog.at_level("WARNING"):
        kept = filter_music_clips(clips, fixture_ontology, "music")
    assert len(kept) == 1
    assert any("mystery" in rec.getMessage() for rec in caplog.records)


def test_frequencies_counts_and_total(fixture_ontology):
    clips = [
        make_clip("a1", {"ag", "rock"}),
        make_clip("a2", {"ag"}),
        make_clip("a3", {"rock", "strings"}),  # non-leaf label not counted
    ]
    table = compute_label_frequencies(clips, fixture_ontology, "music")
    assert table.counts == {"ag": 2, "rock": 2}
    assert table.total == 4
    # total equals the sum over clips of music-leaf label counts
    assert table.total == sum(len(c.labels & {"ag", "rock"}) for c in clips)


def test_frequencies_permutation_invariant(fixture_ontology, fixture_clips):
    shuffled = list(fixture_clips)
    random.Random(3).shuffle(shuffled)
    a = compute_label_frequencies(fixture_clips, fixture_ontology, "music")
    b = compute_label_frequencies(shuffled, fixture_ontology, "music")
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.frozensets(st.sampled_from(["ag", "eg", "piano", "rock", "strings", "sp1", "zzz"]), max_size=4),
    max_size=12,
))
def test_filter_and_total_properties(label_sets):
    import conftest
    o = __import__("musicqa.ontology", fromlist=["parse_ontology"]).parse_ontology(
        json.dumps(conftest.FIXTURE_NODES)
    )
    clips = [make_clip(f"a{i}", labels) for i, labels in enumerate(label_sets)]
    kept = filter_music_clips(clips, o, "music")
    assert filter_music_clips(kept, o, "music") == kept
    table = compute_label_frequencies(kept, o, "music")
    music_leaves = {"ag", "eg", "piano", "drums", "rock", "jazz", "pop", "folk"}
    assert table.total == sum(len(c.labels & music_leaves) for c in kept)
    assert all(v > 0 for v in table.counts.values())
