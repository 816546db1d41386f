"""End-to-end subcommand tests driven through main() in-process."""

import argparse
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import FIXTURE_NODES, MockEndpoint

from musicqa.assembly import (
    import_external,
    read_items_jsonl,
    read_shards,
    write_items_jsonl,
    write_shards,
)
from musicqa.cli import EXIT_DATA, EXIT_OK, EXIT_SERVICE, EXIT_USAGE, main
from musicqa.corpus import Source
from musicqa.llmgen import validate_qa_item
from musicqa.rulegen import Method, QAFormat, QAItem

MANIFEST_ROWS = [
    {"audio_id": "c01", "source": "FMA", "labels": ["ag", "rock"],
     "caption": "Upbeat acoustic rock."},
    {"audio_id": "c02", "source": "MusicCaps", "labels": ["piano", "jazz"],
     "caption": "Late night piano jazz."},
    {"audio_id": "c03", "source": "MTT", "labels": ["eg"]},
    {"audio_id": "c04", "source": "AudioSet", "labels": ["sp1"],
     "caption": "A person talking."},
    {"audio_id": "c05", "source": "FMA", "labels": ["drums", "pop", "folk"]},
]


@pytest.fixture
def ws(tmp_path):
    """Workspace with ontology, manifest, and a pipeline config on disk."""
    (tmp_path / "ontology.json").write_text(json.dumps(FIXTURE_NODES))
    (tmp_path / "manifest.jsonl").write_text(
        "\n".join(json.dumps(row) for row in MANIFEST_ROWS)
    )
    config = {
        "ontology": str(tmp_path / "ontology.json"),
        "manifests": [str(tmp_path / "manifest.jsonl")],
        "out_dir": str(tmp_path / "out"),
        "music_root": "Music",
        "plan": {"open": 2, "binary": 1, "mcq": 1},
        "mcq_options": 3,
        "shard_size": 10,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(capsys, *argv):
    """Invoke the CLI and split its stdout into body + summary line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    summary = json.loads(lines[-1]) if lines else None
    return code, summary, captured


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def _run_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_requests_unloaded():
    # the HTTP stack is imported only when a request is about to go out
    code = "import sys, musicqa.cli; print([m in sys.modules for m in ('requests', 'http.client')])"
    assert _run_python(code) == "[False, False]"


def test_package_import_loads_none_of_its_modules():
    code = "import sys, musicqa; print(sorted(m for m in sys.modules if m.startswith('musicqa')))"
    assert _run_python(code) == "['musicqa']"


# what a command imports: the musicqa modules, and which of the heavier
# standard-library modules that only some commands need
_LOADED = (
    "import json, sys; from musicqa.cli import main; rc = main({argv!r}); "
    "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('musicqa')), "
    "[m for m in ('multiprocessing', 'logging', 'concurrent.futures') if m in sys.modules]]))"
)
_BASE = ["musicqa", "musicqa.assembly", "musicqa.cli", "musicqa.corpus", "musicqa.errors",
         "musicqa.items"]


def _command_argv(ws, mock_endpoint, command):
    cfg = str(ws / "config.json")
    if command == "--help":
        return ["--help"]
    if command == "validate":
        return ["validate", eval_fixture(ws)[0]]
    if command == "eval":
        items_path, outputs_path = eval_fixture(ws)
        return ["eval", "--items", items_path, "--outputs", outputs_path]
    if command == "generate-rule":
        return ["generate-rule", "--config", cfg, "--seed", "7"]
    mock_endpoint.script((200, MockEndpoint.chat_body(LLM_ARRAY)))
    return ["generate-llm", "--config", llm_config(ws, mock_endpoint.url)]


@pytest.mark.parametrize("command, modules, stdlib", [
    ("--help", [], []),
    ("validate", [], []),
    ("eval", ["musicqa.evalharness", "musicqa.jsonpost"], []),
    ("generate-rule", ["musicqa.ontology", "musicqa.rulegen"], ["multiprocessing"]),
    ("generate-llm", ["musicqa.jsonpost", "musicqa.llmgen"], ["logging", "concurrent.futures"]),
])
def test_each_command_imports_only_what_it_runs(ws, mock_endpoint, command, modules, stdlib):
    code = _LOADED.format(argv=_command_argv(ws, mock_endpoint, command))
    rc, loaded, heavy = json.loads(_run_python(code))
    assert rc == EXIT_OK
    assert loaded == sorted(_BASE + modules)
    assert heavy == stdlib


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_generate_rule_end_to_end(ws, capsys):
    cfg = str(ws / "config.json")
    code, summary, cap = run(capsys, "generate-rule", "--config", cfg, "--seed", "7")
    assert code == EXIT_OK
    assert summary["command"] == "generate-rule"
    assert summary["clips"] == 4  # c04 carries no music leaf label
    assert summary["errors"] == 0
    out = Path(summary["out"])
    items = read_items_jsonl(out)
    # plan 2 open + 1 binary + 1 mcq applies per leaf label; the four music
    # clips carry 2 + 2 + 1 + 3 = 8 leaf labels
    assert len(items) == summary["items"] == 8 * 4
    for item in items:
        assert validate_qa_item(item) == []
    # generation report written next to the items
    report = json.loads(out.with_suffix(".jsonl.report.json").read_text())
    assert report["clips"] == 4
    # progress goes to stderr, never stdout
    assert "items/s" in cap.err
    assert "items/s" not in cap.out


def test_generate_rule_golden_determinism(ws, capsys):
    cfg = str(ws / "config.json")
    out1, out2 = str(ws / "a.jsonl"), str(ws / "b.jsonl")
    assert main(["generate-rule", "--config", cfg, "--seed", "11", "--out", out1]) == EXIT_OK
    assert main(["generate-rule", "--config", cfg, "--seed", "11", "--out", out2]) == EXIT_OK
    capsys.readouterr()
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert len(Path(out1).read_bytes()) > 0


def test_generate_rule_worker_count_byte_identical(ws, capsys):
    # enough clips that two workers take the pool path and split the batches
    rows = [
        {"audio_id": f"p{n:03d}", "source": "FMA",
         "labels": [["ag", "rock"], ["piano", "jazz"], ["eg"], ["drums", "pop", "folk"]][n % 4]}
        for n in range(40)
    ]
    (ws / "manifest.jsonl").write_text("\n".join(json.dumps(row) for row in rows))
    cfg = str(ws / "config.json")
    outs = []
    for workers in ("1", "2"):
        out = ws / f"w{workers}.jsonl"
        assert main(["generate-rule", "--config", cfg, "--seed", "13", "--workers", workers,
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # plan 2 open + 1 binary + 1 mcq per leaf label
    assert len(read_items_jsonl(outs[0])) == sum(len(row["labels"]) for row in rows) * 4
    report = Path(f"{outs[0]}.report.json").read_bytes()
    assert report == Path(f"{outs[1]}.report.json").read_bytes()


def test_generate_rule_seed_required(ws, capsys):
    code, _, cap = run(capsys, "generate-rule", "--config", str(ws / "config.json"))
    assert code == EXIT_USAGE
    assert "seed" in cap.err


def test_generate_rule_needs_ontology(ws, capsys):
    (ws / "bare.json").write_text(json.dumps({"manifests": [str(ws / "manifest.jsonl")]}))
    code, _, cap = run(capsys, "generate-rule", "--config", str(ws / "bare.json"), "--seed", "1")
    assert code == EXIT_USAGE
    assert "ontology" in cap.err


def test_generate_rule_unknown_music_root(ws, capsys):
    config = json.loads((ws / "config.json").read_text())
    config["music_root"] = "Zither Society"
    (ws / "bad.json").write_text(json.dumps(config))
    code, _, cap = run(capsys, "generate-rule", "--config", str(ws / "bad.json"), "--seed", "1")
    assert code == EXIT_USAGE
    assert "Zither Society" in cap.err



@pytest.mark.parametrize("key, value", [
    ("plan", [1, 1, 1]),
    ("embedder", []),
    ("llm", "http://localhost"),
    ("mcq_options", 27),
    ("mcq_options", 1),
    ("mcq_options", 0),
    ("mcq_options", "4"),
    ("mcq_options", True),
    ("plan", {"opne": 2, "binary": 1, "mcq": 1}),
    ("plan", {"open": -3}),
    ("plan", {"open": "2"}),
    ("plan", {"open": True}),
    ("plan", {"open": 1.9}),
    ("seed", 7.9),
    ("seed", True),
    ("seed", "7"),
    ("workers", "2"),
    ("workers", 0),
    ("workers", True),
    ("shard_size", "10"),
    ("shard_size", 2.5),
    ("shard_size", 0),
    ("split", ["0.8", 0.1, 0.1]),
    ("split", [0.8, 0.2]),
    ("split", [True, 0, 0]),
    ("split", "0.8,0.1,0.1"),
])
def test_config_value_of_wrong_type_is_usage_error(ws, capsys, key, value):
    config = json.loads((ws / "config.json").read_text())
    config[key] = value
    (ws / "bad.json").write_text(json.dumps(config))
    code, _, cap = run(capsys, "generate-rule", "--config", str(ws / "bad.json"), "--seed", "1")
    assert code == EXIT_USAGE
    assert cap.err.startswith("error: ") and repr(key) in cap.err
    assert "Traceback" not in cap.err
    assert not (ws / "out").exists()


def test_generate_rule_bad_manifest_is_data_error(ws, capsys):
    (ws / "manifest.jsonl").write_text('{"audio_id": "x"}\n')
    code, _, _ = run(capsys, "generate-rule", "--config", str(ws / "config.json"), "--seed", "1")
    assert code == EXIT_DATA


def test_generate_rule_format_filter(ws, capsys):
    cfg = str(ws / "config.json")
    out = str(ws / "only_binary.jsonl")
    code, summary, _ = run(
        capsys, "generate-rule", "--config", cfg, "--seed", "7",
        "--format-filter", "binary", "--out", out,
    )
    assert code == EXIT_OK
    items = read_items_jsonl(out)
    assert items and all(item.format is QAFormat.BINARY for item in items)


def test_generate_rule_source_filter(ws, capsys):
    cfg = str(ws / "config.json")
    out = str(ws / "fma.jsonl")
    code, _, _ = run(
        capsys, "generate-rule", "--config", cfg, "--seed", "7",
        "--source-filter", "FMA", "--out", out,
    )
    assert code == EXIT_OK
    items = read_items_jsonl(out)
    assert items and {item.audio_id for item in items} == {"c01", "c05"}


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_generate_rule_workers_flag_below_one_is_usage_error(ws, capsys, workers):
    code, _, cap = run(
        capsys, "generate-rule", "--config", str(ws / "config.json"), "--seed", "1",
        "--workers", workers,
    )
    assert code == EXIT_USAGE
    assert "--workers" in cap.err and "Traceback" not in cap.err
    assert not (ws / "out").exists()


def _generate(ws, capsys, seed="7"):
    cfg = str(ws / "config.json")
    code, summary, _ = run(capsys, "generate-rule", "--config", cfg, "--seed", seed)
    assert code == EXIT_OK
    return summary["out"]


def test_assemble_end_to_end(ws, capsys):
    items_path = _generate(ws, capsys)
    cfg = str(ws / "config.json")
    code, summary, _ = run(capsys, "assemble", "--config", cfg, "--seed", "3", items_path)
    assert code == EXIT_OK
    out_dir = Path(summary["out"])
    # same clip + same category + same template yields an identical open
    # question for sibling leaves, so a few collapse
    assert summary["items"] + summary["deduped"] == 32
    assert sum(summary["splits"].values()) == summary["items"]

    recovered = []
    for split, count in summary["splits"].items():
        split_items = read_shards(out_dir / split)
        assert len(split_items) == count
        recovered.extend(split_items)
    assert len(recovered) == summary["items"]
    assert len({item.qa_id for item in recovered}) == summary["items"]

    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["grand_total"] == summary["items"]
    splits_doc = json.loads((out_dir / "splits.json").read_text())
    assert set(splits_doc) == {"c01", "c02", "c03", "c05"}
    assert set(splits_doc.values()) <= {"train", "val", "test"}
    # no audio id straddles two splits
    for item in recovered:
        assert splits_doc[item.audio_id] in summary["splits"]


def test_assemble_rerun_identical(ws, capsys):
    items_path = _generate(ws, capsys)
    cfg = str(ws / "config.json")
    for out in ("runA", "runB"):
        code, _, _ = run(
            capsys, "assemble", "--config", cfg, "--seed", "3",
            "--out", str(ws / out), items_path,
        )
        assert code == EXIT_OK
    files_a = sorted(p.relative_to(ws / "runA") for p in (ws / "runA").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(ws / "runB") for p in (ws / "runB").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (ws / "runA" / rel).read_bytes() == (ws / "runB" / rel).read_bytes()


def test_assemble_bad_split_ratio(ws, capsys):
    items_path = _generate(ws, capsys)
    config = json.loads((ws / "config.json").read_text())
    config["split"] = [0.9, 0.2, 0.1]
    (ws / "bad.json").write_text(json.dumps(config))
    code, _, _ = run(capsys, "assemble", "--config", str(ws / "bad.json"), "--seed", "3", items_path)
    assert code == EXIT_USAGE


def test_assemble_import_external(ws, capsys, tmp_path):
    items_path = _generate(ws, capsys)
    external = tmp_path / "captions.jsonl"
    external.write_text(json.dumps({
        "audio_id": "mc-1", "caption": "A solo cello piece in a large hall.",
    }) + "\n")
    cfg = str(ws / "config.json")
    code, summary, _ = run(
        capsys, "assemble", "--config", cfg, "--seed", "3",
        "--out", str(ws / "with_import"),
        "--import", f"MusicCaps={external}", items_path,
    )
    assert code == EXIT_OK
    stats = json.loads((ws / "with_import" / "stats.json").read_text())
    assert stats["per_source_task"].get("MusicCaps/Captioning") == 1


def test_assemble_import_bad_spec(ws, capsys):
    items_path = _generate(ws, capsys)
    code, _, _ = run(
        capsys, "assemble", "--config", str(ws / "config.json"), "--seed", "3",
        "--import", "nopath", items_path,
    )
    assert code == EXIT_USAGE


def test_stats_stdout_and_filters(ws, capsys):
    items_path = _generate(ws, capsys)
    code, summary, cap = run(capsys, "stats", items_path)
    assert code == EXIT_OK
    body = "\n".join(cap.out.splitlines()[:-1])
    doc = json.loads(body)
    assert doc["grand_total"] == summary["total"]
    assert doc["table"]["columns"][0] == "Audio Sources"

    # keeping only MCQ zeroes every other task but leaves MCQ counts alone
    code, _, cap = run(capsys, "stats", "--format-filter", "mcq", items_path)
    filtered = json.loads("\n".join(cap.out.splitlines()[:-1]))
    for key, count in filtered["per_source_task"].items():
        source, task = key.split("/")
        if task == "MCQ":
            assert count == doc["per_source_task"][key]
        else:
            assert count == 0 or key not in filtered["per_source_task"]
    dropped = {k: v for k, v in filtered["per_source_task"].items() if not k.endswith("/MCQ")}
    assert all(v == 0 for v in dropped.values())


def test_stats_out_file(ws, capsys):
    items_path = _generate(ws, capsys)
    out = str(ws / "stats.json")
    code, summary, _ = run(capsys, "stats", "--out", out, items_path)
    assert code == EXIT_OK
    assert json.loads(Path(out).read_text())["grand_total"] == summary["total"]


def _split_inputs(ws, capsys):
    """The generated items, the first half as a shard directory, the rest as a JSONL file."""
    items = read_items_jsonl(_generate(ws, capsys))
    half = len(items) // 2
    write_shards(items[:half], 10, ws / "half_shards")
    write_items_jsonl(items[half:], ws / "half.jsonl")
    return items, str(ws / "half_shards"), str(ws / "half.jsonl")


def test_stats_of_a_shard_dir_and_a_file_counts_both(ws, capsys):
    items, shard_dir, half_file = _split_inputs(ws, capsys)
    write_items_jsonl(items, ws / "all.jsonl")
    code, summary, cap = run(capsys, "stats", shard_dir, half_file)
    assert code == EXIT_OK and summary["items"] == len(items)
    _, _, whole = run(capsys, "stats", str(ws / "all.jsonl"))
    assert cap.out.splitlines()[:-1] == whole.out.splitlines()[:-1]


def test_validate_of_a_shard_dir_and_a_file_checks_both(ws, capsys):
    items, shard_dir, half_file = _split_inputs(ws, capsys)
    code, summary, _ = run(capsys, "validate", shard_dir, half_file)
    assert code == EXIT_OK
    assert summary["items"] == len(items) and summary["invalid"] == 0


def test_stats_source_filter_keeps_only_that_source(ws, capsys):
    items_path = _generate(ws, capsys)
    items = read_items_jsonl(items_path)
    fma = sum(item.source is Source.FMA for item in items)
    code, summary, cap = run(capsys, "stats", "--source-filter", "FMA", items_path)
    assert code == EXIT_OK
    assert 0 < summary["items"] == fma < len(items)
    doc = json.loads("\n".join(cap.out.splitlines()[:-1]))
    assert all(key.startswith("FMA/") for key, count in doc["per_source_task"].items() if count)


def test_validate_clean_and_corrupted(ws, capsys):
    items_path = _generate(ws, capsys)
    code, summary, _ = run(capsys, "validate", items_path)
    assert code == EXIT_OK
    assert summary["invalid"] == 0

    items = read_items_jsonl(items_path)
    victim = next(item for item in items if item.format is QAFormat.MCQ)
    victim.answer = "Zebra"  # no longer matches options[answer_index]
    bad_path = ws / "corrupted.jsonl"
    write_items_jsonl(items, bad_path)
    code, summary, _ = run(capsys, "validate", str(bad_path))
    assert code == EXIT_DATA
    assert summary["invalid"] == 1
    assert summary["violations"][0]["qa_id"] == victim.qa_id


def test_validate_duplicate_ids(ws, capsys):
    items_path = _generate(ws, capsys)
    items = read_items_jsonl(items_path)
    dup_path = ws / "dup.jsonl"
    write_items_jsonl(items + [items[0]], dup_path)
    code, summary, _ = run(capsys, "validate", str(dup_path))
    assert code == EXIT_DATA
    assert any("duplicate qa_id" in r for v in summary["violations"] for r in v["reasons"])


def test_validate_tampered_shard(ws, capsys):
    items_path = _generate(ws, capsys)
    cfg = str(ws / "config.json")
    code, summary, _ = run(capsys, "assemble", "--config", cfg, "--seed", "3", items_path)
    assert code == EXIT_OK
    out_dir = Path(summary["out"])
    split = max(summary["splits"], key=summary["splits"].get)
    shard = next((out_dir / split).glob("shard-*.jsonl"))
    shard.write_bytes(shard.read_bytes().replace(b"music", b"muzak", 1))
    code, _, cap = run(capsys, "validate", str(out_dir / split))
    assert code == EXIT_DATA
    assert "digest" in cap.err.lower()


# ---------------------------------------------------------------------------
# eval subcommand


def eval_fixture(tmp_path):
    items = []
    outputs = []
    for i in range(20):
        qa_id = f"{i:016x}"
        items.append(QAItem(
            qa_id=qa_id, audio_id=f"clip{i}", source=Source.FMA, format=QAFormat.MCQ,
            question="Which instrument leads? A. Guitar B. Piano C. Drums D. Cello",
            options=("Guitar", "Piano", "Drums", "Cello"), answer="Piano",
            answer_index=1, category="instrument", method=Method.RULE,
            template_id="mcq-1", seed=0,
        ))
        # 13 correct answers, 7 wrong -> accuracy 0.65
        outputs.append({"qa_id": qa_id, "text": "B" if i < 13 else "C"})
    items_path = tmp_path / "eval_items.jsonl"
    write_items_jsonl(items, items_path)
    outputs_path = tmp_path / "outputs.jsonl"
    outputs_path.write_text("\n".join(json.dumps(o) for o in outputs))
    return str(items_path), str(outputs_path)


def test_eval_mcq_hand_scored(ws, capsys):
    items_path, outputs_path = eval_fixture(ws)
    code, summary, cap = run(
        capsys, "eval", "--task", "mcq", "--items", items_path, "--outputs", outputs_path,
    )
    assert code == EXIT_OK
    assert summary["tasks"] == {"mcq": 0.65}
    doc = json.loads("\n".join(cap.out.splitlines()[:-1]))
    assert doc["tasks"]["mcq"]["total"] == 20
    assert doc["tasks"]["mcq"]["mean"] == 0.65


def test_eval_with_baseline_relative(ws, capsys):
    items_path, outputs_path = eval_fixture(ws)
    baseline = ws / "baseline.json"
    baseline.write_text(json.dumps({"tasks": {"mcq": {"mean": 0.714, "total": 1000}}}))
    out = str(ws / "report.json")
    code, _, _ = run(
        capsys, "eval", "--task", "mcq", "--items", items_path,
        "--outputs", outputs_path, "--baseline", str(baseline), "--out", out,
    )
    assert code == EXIT_OK
    doc = json.loads(Path(out).read_text())
    assert doc["relative_to_baseline"]["mcq"] == round(100 * 0.65 / 0.714, 1)


def test_eval_unknown_qa_id_is_data_error(ws, capsys):
    items_path, _ = eval_fixture(ws)
    bad_outputs = ws / "bad_outputs.jsonl"
    bad_outputs.write_text(json.dumps({"qa_id": "not-a-real-id", "text": "A"}))
    code, _, cap = run(
        capsys, "eval", "--task", "mcq", "--items", items_path, "--outputs", str(bad_outputs),
    )
    assert code == EXIT_DATA
    assert "not-a-real-id" in cap.err


def test_eval_all_tasks(ws, capsys):
    items_path = _generate(ws, capsys)
    items = read_items_jsonl(items_path)
    outputs = [{"qa_id": item.qa_id, "text": item.answer} for item in items]
    outputs_path = ws / "echo_outputs.jsonl"
    outputs_path.write_text("\n".join(json.dumps(o) for o in outputs))
    code, summary, _ = run(
        capsys, "eval", "--items", items_path, "--outputs", str(outputs_path),
    )
    assert code == EXIT_OK
    # echoing the gold answer back scores perfectly on every closed task
    assert summary["tasks"]["mcq"] == 1.0
    assert summary["tasks"]["binary"] == 1.0
    assert summary["tasks"]["label_match"] == 1.0
    assert summary["total"] == len(items)


def _echo_outputs(ws, items):
    path = ws / "echo_outputs.jsonl"
    path.write_text("\n".join(json.dumps({"qa_id": item.qa_id, "text": item.answer}) for item in items))
    return str(path)


def test_eval_of_a_shard_dir_and_a_file_scores_both(ws, capsys):
    items, shard_dir, half_file = _split_inputs(ws, capsys)
    code, summary, _ = run(
        capsys, "eval", "--items", shard_dir, "--items", half_file,
        "--outputs", _echo_outputs(ws, items),
    )
    assert code == EXIT_OK
    assert summary["total"] == len(items)
    assert set(summary["tasks"].values()) == {1.0}


def test_eval_source_filter_keeps_only_that_source(ws, capsys):
    items_path = _generate(ws, capsys)
    items = read_items_jsonl(items_path)
    fma = [item for item in items if item.source is Source.FMA]
    outputs = _echo_outputs(ws, fma)
    code, summary, _ = run(capsys, "eval", "--items", items_path, "--outputs", outputs)
    assert code == EXIT_OK and summary["total"] == len(items)
    code, summary, _ = run(
        capsys, "eval", "--source-filter", "FMA", "--items", items_path, "--outputs", outputs,
    )
    assert code == EXIT_OK
    assert 0 < summary["total"] == len(fma) < len(items)
    assert set(summary["tasks"].values()) == {1.0}


# ---------------------------------------------------------------------------
# Pinned bytes of the dataset commands


def _dataset_chain(ws, capsys):
    """Run generate-rule, assemble with one import, stats and eval; sha256 per output."""
    items_path = _generate(ws, capsys)
    files = {
        "rule_items.jsonl": Path(items_path).read_bytes(),
        "rule_items.jsonl.report.json": Path(items_path + ".report.json").read_bytes(),
    }
    captions = ws / "captions.jsonl"
    captions.write_text("\n".join(json.dumps(row) for row in [
        {"audio_id": "mc-1", "caption": "A solo cello piece in a large hall."},
        {"audio_id": "mc-2", "caption": "Bright brass fanfare over snare rolls."},
    ]) + "\n")
    out_dir = ws / "ds"
    code, _, _ = run(
        capsys, "assemble", "--config", str(ws / "config.json"), "--seed", "3",
        "--out", str(out_dir), "--import", f"MusicCaps={captions}", items_path,
    )
    assert code == EXIT_OK
    files.update(
        (str(path.relative_to(out_dir)), path.read_bytes())
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    )
    split_dirs = [str(out_dir / split) for split in ("train", "val", "test")]
    code, _, cap = run(capsys, "stats", *split_dirs)
    assert code == EXIT_OK
    files["stats stdout"] = "\n".join(cap.out.splitlines()[:-1]).encode("utf-8")
    outputs = _echo_outputs(ws, [item for split in split_dirs for item in read_shards(split)])
    items_args = [arg for split in split_dirs for arg in ("--items", split)]
    code, summary, cap = run(capsys, "eval", "--task", "all", *items_args, "--outputs", outputs)
    assert code == EXIT_OK
    assert set(summary["tasks"]) == {"mcq", "binary", "label_match", "caption"}
    files["eval stdout"] = "\n".join(cap.out.splitlines()[:-1]).encode("utf-8")
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


# sha256 of each output of the chain; any change to these bytes is a change to
# what the dataset commands write
PINNED_CHAIN_DIGESTS = {
    "rule_items.jsonl": "d6af9562b5e59830ead5b1a5c8a731e78bd82cc939a1c7b3e618fe0cdc657209",
    "rule_items.jsonl.report.json": "2e95b5371dfbefa67ad862eed20b88fd97bff89f9161ba5c970cf7ac78bbdc57",
    "splits.json": "a54952759d36c732f2f97f944830bbb82a44d06a53e523e7ad46e7128c166224",
    "stats.json": "bf5c914f481b888923b42057e877201f7f180bb14fedd02fd1141713d8270b3c",
    "test/manifest.json": "7dacfb724b37d96a06959d2f81547a80debc5cec861dd05f54559b9668e2b848",
    "train/manifest.json": "373d8fecc00f42167b05518609a68d7fa607166c86e56b88629ad2a0a9da2b9c",
    "train/shard-00000.jsonl": "e0361d71644155aabf1fe75dce6c7955ba589ed2dc97c1538afc74366e98aa18",
    "train/shard-00001.jsonl": "b371e348987198e3b49ad27d5c03fcab2145e611c21cb242089d2fe399332cb1",
    "val/manifest.json": "88e68f51d7dd77114349b36b13d61cd50a7ef4dc3eeea2fa8e3c3c3a5a23911a",
    "val/shard-00000.jsonl": "437846b937d02b5e0263dd05f546e714ce5f4d53a390a3d9338875c38d5accb1",
    "stats stdout": "d938a286d67737a599c47252a0b34855b380cd538139850fb37fc8973d19ac1c",
    "eval stdout": "f7731ddada5a1283823a6b96299976646851374a7c41e498e4860914c4aeb576",
}


def test_dataset_chain_bytes_pinned(ws, capsys):
    assert _dataset_chain(ws, capsys) == PINNED_CHAIN_DIGESTS


# ---------------------------------------------------------------------------
# generate-llm subcommand


LLM_ARRAY = json.dumps([
    {"format": "open", "dimension": "mood",
     "question": "What mood does the piece convey?", "answer": "Calm"},
])


def llm_config(ws, url):
    config = json.loads((ws / "config.json").read_text())
    config["llm"] = {"base_url": url, "model": "test-model", "max_retries": 1}
    path = ws / "llm_config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_generate_llm_end_to_end_and_cache(ws, capsys, mock_endpoint):
    mock_endpoint.script((200, MockEndpoint.chat_body(LLM_ARRAY)))
    cfg = llm_config(ws, mock_endpoint.url)
    code, summary, _ = run(capsys, "generate-llm", "--config", cfg)
    assert code == EXIT_OK
    # c01, c02, c04 have captions; c03, c05 have no usable context
    assert summary["clips"] == 5
    assert summary["network_calls"] == 3
    assert summary["items"] == 3
    items = read_items_jsonl(Path(summary["out"]))
    assert all(item.method is Method.LLM for item in items)
    assert all(validate_qa_item(item) == [] for item in items)

    # rerun: every response now comes from the on-disk cache
    code, summary, _ = run(capsys, "generate-llm", "--config", cfg)
    assert code == EXIT_OK
    assert summary["network_calls"] == 0
    assert summary["items"] == 3

    # a warm run in a fresh process loads no HTTP code at all
    code = ("import sys; from musicqa.cli import main; "
            f"rc = main(['generate-llm', '--config', {cfg!r}]); "
            "print(rc, 'http.client' in sys.modules)")
    assert _run_python(code) == "0 False"


def test_generate_llm_auth_failure_exits_3(ws, capsys, mock_endpoint):
    mock_endpoint.script((401, {"error": "bad key"}))
    cfg = llm_config(ws, mock_endpoint.url)
    code, _, cap = run(capsys, "generate-llm", "--config", cfg)
    assert code == EXIT_SERVICE
    assert "401" in cap.err or "auth" in cap.err.lower()


def test_generate_llm_requires_endpoint(ws, capsys):
    code, _, cap = run(capsys, "generate-llm", "--config", str(ws / "config.json"))
    assert code == EXIT_USAGE
    assert "base_url" in cap.err


def test_generate_llm_rejects_unknown_llm_keys(ws, capsys):
    config = json.loads((ws / "config.json").read_text())
    config["llm"] = {"base_url": "http://x", "model": "m", "api_key": "hunter2"}
    (ws / "bad.json").write_text(json.dumps(config))
    code, _, cap = run(capsys, "generate-llm", "--config", str(ws / "bad.json"))
    assert code == EXIT_USAGE
    assert "api_key" in cap.err


@pytest.mark.parametrize("key, value", [
    ("concurrency", "2"),
    ("concurrency", True),
    ("concurrency", 0),
    ("max_retries", "3"),
    ("max_retries", 1.5),
    ("temperature", "1"),
    ("timeout_s", math.nan),
    ("backoff_cap_s", None),
    ("model", 5),
    ("per_pair", True),
    ("per_pair", 0),
    ("per_pair", "2"),
])
def test_llm_setting_of_wrong_type_is_usage_error(ws, capsys, key, value):
    config = json.loads((ws / "config.json").read_text())
    config["llm"] = {"base_url": "http://localhost:9", "model": "m", key: value}
    (ws / "bad.json").write_text(json.dumps(config))
    code, _, cap = run(capsys, "generate-llm", "--config", str(ws / "bad.json"))
    assert code == EXIT_USAGE
    assert cap.err.startswith("error: ") and repr(key) in cap.err
    assert "Traceback" not in cap.err
    assert not (ws / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("batch_size", "8"),
    ("batch_size", True),
    ("batch_size", 0),
    ("batch_size", -1),
    ("timeout_s", "60"),
    ("api_key_env", 1),
    ("batchsize", 8),
])
def test_embedder_setting_of_wrong_type_or_unknown_is_usage_error(ws, capsys, key, value):
    items_path = _generate(ws, capsys)
    outputs = _echo_outputs(ws, read_items_jsonl(items_path))
    config = json.loads((ws / "config.json").read_text())
    # nothing listens on port 9: a request that went out would fail with exit 3
    config["embedder"] = {"url": "http://localhost:9/embed", key: value}
    (ws / "bad.json").write_text(json.dumps(config))
    code, _, cap = run(
        capsys, "eval", "--config", str(ws / "bad.json"), "--items", items_path,
        "--outputs", outputs,
    )
    assert code == EXIT_USAGE
    assert cap.err.startswith("error: ") and repr(key) in cap.err
    assert "Traceback" not in cap.err


# ---------------------------------------------------------------------------
# Exit codes and flags


def _non_utf8(path):
    """Make the first line of a text file undecodable (byte 0xff); returns the path."""
    path.write_bytes(b"\xff" + path.read_bytes())
    return path


def _bad_items(ws, mock_endpoint):
    # the bad file is the second of two, so the message must say which one
    items_path, _ = eval_fixture(ws)
    good = ws / "good_items.jsonl"
    good.write_bytes(Path(items_path).read_bytes())
    return ["validate", str(good), str(_non_utf8(Path(items_path)))]


def _bad_shard(ws, mock_endpoint):
    # the digest matches, so the shard reaches the line decoder
    items_path, _ = eval_fixture(ws)
    out = ws / "shards"
    write_shards(read_items_jsonl(items_path), 50, out)
    shard = _non_utf8(out / "shard-00000.jsonl")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["shards"][0]["digest"] = "sha256:" + hashlib.sha256(shard.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    return ["validate", str(out)]


def _bad_manifest(ws, mock_endpoint):
    _non_utf8(ws / "manifest.jsonl")
    return ["generate-rule", "--config", str(ws / "config.json"), "--seed", "1"]


def _bad_import(ws, mock_endpoint):
    items_path, _ = eval_fixture(ws)
    external = ws / "captions.jsonl"
    external.write_bytes(b'{"audio_id": "mc-1", "caption": "Cello\xff."}\n')
    return ["assemble", "--config", str(ws / "config.json"), "--seed", "3",
            "--out", str(ws / "ds"), "--import", f"MusicCaps={external}", items_path]


def _bad_outputs(ws, mock_endpoint):
    items_path, outputs_path = eval_fixture(ws)
    return ["eval", "--items", items_path, "--outputs", str(_non_utf8(Path(outputs_path)))]


def _outputs(content):
    def build(ws, mock_endpoint):
        items_path, outputs_path = eval_fixture(ws)
        Path(outputs_path).write_bytes(content)
        return ["eval", "--task", "mcq", "--items", items_path, "--outputs", outputs_path]
    return build


def _bad_ontology(ws, mock_endpoint):
    _non_utf8(ws / "ontology.json")
    return ["generate-rule", "--config", str(ws / "config.json"), "--seed", "1"]


def _category_map(content):
    def build(ws, mock_endpoint):
        items_path, outputs_path = eval_fixture(ws)
        path = ws / "groups.json"
        path.write_bytes(content)
        return ["eval", "--task", "mcq", "--items", items_path, "--outputs", outputs_path,
                "--category-map", str(path)]
    return build


def _baseline(content):
    def build(ws, mock_endpoint):
        items_path, outputs_path = eval_fixture(ws)
        path = ws / "baseline.json"
        path.write_bytes(content)
        return ["eval", "--task", "mcq", "--items", items_path, "--outputs", outputs_path,
                "--baseline", str(path)]
    return build


def _auth_failure(ws, mock_endpoint):
    mock_endpoint.script((401, {"error": "bad key"}))
    return ["generate-llm", "--config", llm_config(ws, mock_endpoint.url)]


def _bad_ratios(ws, mock_endpoint):
    items_path, _ = eval_fixture(ws)
    config = json.loads((ws / "config.json").read_text())
    config["split"] = [0.9, 0.2, 0.1]
    (ws / "bad.json").write_text(json.dumps(config))
    return ["assemble", "--config", str(ws / "bad.json"), "--seed", "3", items_path]


def _ignored_flag(ws, mock_endpoint):
    items_path, _ = eval_fixture(ws)
    return ["validate", "--format-filter", "open", items_path]


# one malformed input per failure family; the fragment is what the message must name,
# with {ws} standing for the workspace directory
@pytest.mark.parametrize("build, code, fragment", [
    (_bad_items, EXIT_DATA, "{ws}/eval_items.jsonl: line 1: not valid UTF-8"),
    (_bad_shard, EXIT_DATA, "{ws}/shards/shard-00000.jsonl: line 1: not valid UTF-8"),
    (_bad_manifest, EXIT_DATA, "{ws}/manifest.jsonl: line 1: not valid UTF-8"),
    (_bad_import, EXIT_DATA, "{ws}/captions.jsonl: line 1: not valid UTF-8"),
    (_bad_outputs, EXIT_DATA, "{ws}/outputs.jsonl: line 1: not valid UTF-8"),
    (_outputs(b'{"qa_id": "0000000000000000", "text": null}'), EXIT_DATA,
     "{ws}/outputs.jsonl: line 1: text must be a string"),
    (_outputs(b'{"qa_id": "0000000000000000", "text": "B"}\n{"qa_id": 1, "text": "B"}'),
     EXIT_DATA, "{ws}/outputs.jsonl: line 2: qa_id must be a string"),
    (_bad_ontology, EXIT_DATA, "ontology.json is not valid UTF-8"),
    (_category_map(b'{"q": "gr\xffup"}'), EXIT_DATA, "groups.json is not valid UTF-8"),
    (_category_map(b'{"q": '), EXIT_DATA, "groups.json is not valid JSON"),
    (_category_map(b'["a", "b"]'), EXIT_DATA, "groups.json must be a JSON object"),
    (_category_map(b'{"q": 1}'), EXIT_DATA, "groups.json must map each qa_id to a string"),
    (_baseline(b'{"tasks": []}'), EXIT_DATA, 'baseline.json: "tasks" must be an object'),
    (_baseline(b'{"tasks": {"mcq": 0.5}}'), EXIT_DATA, "baseline.json: task 'mcq' must be an object"),
    (_baseline(b'{"tasks": {"mcq": {"total": 3}}}'), EXIT_DATA, "task 'mcq' needs a numeric 'mean'"),
    (_baseline(b'{"tasks": {"mcq": {"mean": 0.5, "total": "3"}}}'), EXIT_DATA,
     "task 'mcq' needs a numeric 'total'"),
    (_auth_failure, EXIT_SERVICE, "401"),
    (_bad_ratios, EXIT_USAGE, "ratios"),
    (_ignored_flag, EXIT_USAGE, "--format-filter"),
], ids=["items", "shard", "manifest", "import", "outputs", "outputs-null-text",
        "outputs-number-qa-id", "ontology", "category-map-utf8",
        "category-map-json", "category-map-array", "category-map-values", "baseline-tasks-array",
        "baseline-block-number", "baseline-no-mean", "baseline-total-string", "auth", "ratios",
        "ignored-flag"])
def test_malformed_input_exit_codes(ws, capsys, request, build, code, fragment):
    endpoint = request.getfixturevalue("mock_endpoint") if build is _auth_failure else None
    argv = build(ws, endpoint)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert fragment.format(ws=ws) in err
    assert "Traceback" not in err


# every error class and the exit code main() gave it before errors carried their own
PINNED_EXIT_CODES = {
    "musicqa.errors.MusicQaError": 1,
    "musicqa.errors.DataError": 2,
    "musicqa.errors.ServiceError": 3,
    "musicqa.errors.ParseError": 2,
    "musicqa.corpus.DuplicateClipError": 2,
    "musicqa.ontology.CycleError": 2,
    "musicqa.ontology.DanglingRefError": 2,
    "musicqa.ontology.UnknownLabelError": 2,
    "musicqa.ontology.NotALeafError": 2,
    "musicqa.assembly.DigestMismatchError": 2,
    "musicqa.assembly.BadRatioError": 1,
    "musicqa.assembly.IoError": 1,
    "musicqa.evalharness.UnknownQaIdError": 2,
    "musicqa.evalharness.EmbedderError": 3,
    "musicqa.evalharness.DimMismatchError": 1,
    "musicqa.evalharness.OverlapError": 1,
    "musicqa.llmgen.AuthError": 3,
    "musicqa.llmgen.RateLimitError": 3,
    "musicqa.llmgen.TransportError": 3,
    "musicqa.llmgen.RequestTimeoutError": 3,
    "musicqa.llmgen.NoContextError": 1,
    "musicqa.rulegen.PlaceholderError": 1,
    "musicqa.rulegen.InsufficientPoolError": 1,
    "musicqa.rulegen.EmptyPoolError": 1,
    "musicqa.cli.ConfigError": 1,
}


def test_error_classes_keep_their_exit_codes(monkeypatch, capsys):
    from musicqa import cli
    from musicqa.errors import MusicQaError

    # the cli imports some of these modules only for the commands that use them
    for name in PINNED_EXIT_CODES:
        importlib.import_module(name.rpartition(".")[0])
    classes, pending = {}, [MusicQaError]
    while pending:
        cls = pending.pop()
        classes[f"{cls.__module__}.{cls.__qualname__}"] = cls
        pending.extend(cls.__subclasses__())
    assert set(classes) == set(PINNED_EXIT_CODES)
    for name, cls in classes.items():
        assert cls.exit_code == PINNED_EXIT_CODES[name], name

        def raising(cfg, args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_stats", raising)
        assert main(["stats", "items.jsonl"]) == PINNED_EXIT_CODES[name], name
    capsys.readouterr()


def test_subcommands_register_only_the_flags_they_read():
    from musicqa.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    filters = {"--out", "--format-filter", "--source-filter"}
    assert flags == {
        "generate-rule": {"--config", "--seed", "--workers", *filters},
        "generate-llm": {"--config", *filters},
        "assemble": {"--config", "--seed", "--import", *filters},
        "stats": filters,
        "eval": {"--config", "--task", "--items", "--outputs", "--baseline", "--category-map",
                 *filters},
        "validate": set(),
    }


def _traced_validate(ws, capsys):
    write_shards(read_items_jsonl(_generate(ws, capsys)), 10, ws / "shards")
    return ["validate", str(ws / "shards")]


def _traced_eval(ws, capsys):
    items = read_items_jsonl(_generate(ws, capsys))
    caption = json.dumps({"audio_id": "mc-1", "caption": "A solo cello."})
    items += import_external(caption, "MusicCaps")
    write_items_jsonl(items, ws / "items.jsonl")
    (ws / "outputs.jsonl").write_text(
        "\n".join(json.dumps({"qa_id": item.qa_id, "text": item.answer}) for item in items)
    )
    return ["eval", "--items", str(ws / "items.jsonl"), "--outputs", str(ws / "outputs.jsonl")]


@pytest.mark.parametrize("build, spans", [
    (lambda ws, capsys: ["--help"], set()),
    (_traced_validate, {"assembly.read_shards", "llmgen.validate_qa_item"}),
    (_traced_eval, {"assembly.read_items_jsonl", "evalharness.load_outputs_jsonl",
                    "evalharness.score_mcq", "evalharness.score_binary",
                    "evalharness.score_label_match", "evalharness.score_captions"}),
], ids=["help", "validate", "eval"])
def test_tracer_contract_with_cli(ws, capsys, build, spans):
    # perfbench/tracecli.py rebinds functions on the cli module by name and
    # fails if one is missing; a command must then call the rebound ones, or
    # its spans go missing
    argv = build(ws, capsys)
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracecli.py"), str(ws / "spans.json"), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    names = {span[0] for span in json.loads((ws / "spans.json").read_text())["spans"]}
    assert spans <= names
