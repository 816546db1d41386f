"""Output checks, computed apart from the program.

Each check returns a list of failure messages; an empty list means the
outputs passed.  None of them compares output with a stored copy: they
recount what the program counted, recompute digests, and test properties
that the method must have, against the inputs the benchmark wrote.
"""

from __future__ import annotations

import json
import math
import re
from hashlib import sha256
from pathlib import Path

from inputs import TEMPLATES, Ontology

SPLITS = ("train", "val", "test")
_WORD_CLEANER = re.compile(r"[^\w\s]+", re.UNICODE)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def question_key(question: str) -> str:
    """Whitespace-collapsed, case-folded question: the dedup key's text part."""
    return " ".join(question.split()).casefold()


def distinct_pairs(items: list[dict]) -> int:
    return len({(item["audio_id"], question_key(item["question"])) for item in items})


def summary_errors(name: str, summary: dict | None, **want) -> list[tuple[str, str]]:
    """Fields of a command's JSON summary line that differ from the benchmark's counts."""
    if summary is None:
        return [(name, "no JSON summary on stdout")]
    return [
        (name, f"summary {key} = {summary.get(key)!r}, expected {value!r}")
        for key, value in want.items()
        if summary.get(key) != value
    ]


# ---------------------------------------------------------------------------
# build


def _binary_asked(item: dict) -> str | None:
    """The label text a binary rule question asks about, from its template."""
    for template in TEMPLATES:
        if template["template_id"] == item["template_id"]:
            prefix, suffix = template["text"].split("{label}")
            question = item["question"]
            if question.startswith(prefix) and question.endswith(suffix):
                return question[len(prefix): len(question) - len(suffix)]
    return None


def check_rule_items(items: list[dict], clips: list[dict], onto: Ontology) -> list[str]:
    """Grounding of every rule item in the manifest and ontology, and clip coverage."""
    errors: list[str] = []
    labels_of = {clip["audio_id"]: set(clip["labels"]) for clip in clips}
    id_of = onto.id_of_name()
    category = onto.leaf_category

    def leaf_named(name: str) -> str | None:
        label = id_of.get(name.casefold())
        return label if label in category else None

    for item in items:
        qa_id, fmt = item["qa_id"], item["format"]
        labels = labels_of.get(item["audio_id"])
        if labels is None:
            errors.append(f"{qa_id}: unknown audio id {item['audio_id']}")
            continue
        if fmt in ("open", "mcq"):
            gold = leaf_named(item["answer"])
            if gold is None or gold not in labels:
                errors.append(f"{qa_id}: gold {item['answer']!r} is not a leaf of the clip")
            elif category[gold].lower() != item["category"]:
                errors.append(f"{qa_id}: gold {item['answer']!r} is not in category {item['category']!r}")
        if fmt == "mcq":
            carried = [i for i, option in enumerate(item["options"]) if leaf_named(option) in labels]
            if carried != [item["answer_index"]]:
                errors.append(f"{qa_id}: options the clip carries at {carried}, answer_index {item['answer_index']}")
            if any(leaf_named(option) is None for option in item["options"]):
                errors.append(f"{qa_id}: an option is not a music leaf")
        elif fmt == "binary":
            asked = _binary_asked(item)
            label = leaf_named(asked) if asked is not None else None
            if label is None:
                errors.append(f"{qa_id}: binary question does not ask about a music leaf")
            elif (label in labels) != (item["answer"] == "Yes"):
                errors.append(f"{qa_id}: answer {item['answer']} but {asked!r} on clip is {label in labels}")
    with_items = {item["audio_id"] for item in items}
    music = {audio_id for audio_id, labels in labels_of.items() if labels & category.keys()}
    if with_items != music:
        errors.append(
            f"{len(music - with_items)} music clips without items, "
            f"{len(with_items - music)} other clips with items"
        )
    return errors[:20]


def open_ambiguous(items: list[dict], clips: list[dict], onto: Ontology) -> int:
    """Open items whose clip carries another leaf of the asked category."""
    labels_of = {clip["audio_id"]: clip["labels"] for clip in clips}
    category = onto.leaf_category
    count = 0
    for item in items:
        if item["format"] != "open":
            continue
        in_category = [l for l in labels_of[item["audio_id"]] if category.get(l, "").lower() == item["category"]]
        count += len(in_category) > 1
    return count


def file_digest(path: Path) -> str:
    return "sha256:" + sha256(path.read_bytes()).hexdigest()


def read_dataset(ds_dir: Path) -> tuple[dict[str, list[dict]], list[str]]:
    """Items of each split, checking every shard digest against its manifest."""
    errors: list[str] = []
    splits: dict[str, list[dict]] = {}
    for split in SPLITS:
        manifest = json.loads((ds_dir / split / "manifest.json").read_text("utf-8"))
        items: list[dict] = []
        for shard in manifest["shards"]:
            path = ds_dir / split / shard["path"]
            if file_digest(path) != shard["digest"]:
                errors.append(f"{split}/{shard['path']}: digest differs from the manifest")
            shard_items = read_jsonl(path)
            if len(shard_items) != shard["items"]:
                errors.append(f"{split}/{shard['path']}: {len(shard_items)} items, manifest says {shard['items']}")
            items.extend(shard_items)
        if len(items) != manifest["total_items"]:
            errors.append(f"{split}: {len(items)} items, manifest says {manifest['total_items']}")
        splits[split] = items
    return splits, errors


def check_splits(splits: dict[str, list[dict]], ratios: tuple[float, float, float]) -> list[str]:
    """No audio id in two splits; each split's share of audio ids within 5 sigma of its ratio."""
    errors: list[str] = []
    ids = {split: {item["audio_id"] for item in items} for split, items in splits.items()}
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        if ids[a] & ids[b]:
            errors.append(f"{len(ids[a] & ids[b])} audio ids in both {a} and {b}")
    n = sum(len(s) for s in ids.values())
    for split, ratio in zip(SPLITS, ratios):
        share = len(ids[split]) / n if n else 0.0
        if abs(share - ratio) > 5 * math.sqrt(ratio * (1 - ratio) / max(n, 1)):
            errors.append(f"{split} holds {share:.4f} of {n} audio ids, ratio {ratio}")
    return errors


def check_build_round(out: Path, clips: list[dict], onto: Ontology, ratios, summaries: dict) -> tuple[list, dict]:
    """Checks of one generate-rule -> assemble -> validate round under ``out``.

    ``summaries`` maps each command that exited 0 to its JSON summary.
    Returns the (command, message) failures and the counts the benchmark
    took from the items.
    """
    errors: list[tuple[str, str]] = []
    if "generate_rule" not in summaries:
        return errors, {}
    items = read_jsonl(out / "rule_items.jsonl")
    facts = {"items": len(items), "open_ambiguous": open_ambiguous(items, clips, onto)}
    errors += summary_errors("generate_rule", summaries["generate_rule"], items=len(items), errors=0)
    errors += [("generate_rule", e) for e in check_rule_items(items, clips, onto)]
    if "assemble" not in summaries:
        return errors, facts
    distinct = distinct_pairs(items)
    splits, read_errors = read_dataset(out / "ds")
    errors += [("assemble", e) for e in read_errors]
    errors += [("assemble", e) for e in check_splits(splits, ratios)]
    in_shards = sum(len(s) for s in splits.values())
    if in_shards != distinct:
        errors.append(("assemble", f"{in_shards} items in shards, {distinct} distinct (audio id, question) pairs"))
    errors += summary_errors("assemble", summaries["assemble"], items=distinct, deduped=len(items) - distinct)
    if "validate" in summaries:
        errors += summary_errors("validate", summaries["validate"], items=in_shards, invalid=0)
    return errors, facts


# ---------------------------------------------------------------------------
# eval


def tokens(text: str) -> list[str]:
    """METEOR tokens: case-folded, punctuation to spaces, whitespace-split."""
    return _WORD_CLEANER.sub(" ", text.casefold()).split()


def meteor_bounds(candidate: str, reference: str) -> tuple[float, float]:
    """Bounds on one METEOR score from its unigram matches alone.

    With m matches, fmean = 10PR/(R+9P) and 1 <= chunks <= m, the score
    fmean * (1 - 0.5 (chunks/m)^3) lies in [fmean/2, fmean (1 - 0.5/m^3)].
    """
    cand, ref = tokens(candidate), tokens(reference)
    ref_counts: dict[str, int] = {}
    for word in ref:
        ref_counts[word] = ref_counts.get(word, 0) + 1
    cand_counts: dict[str, int] = {}
    for word in cand:
        cand_counts[word] = cand_counts.get(word, 0) + 1
    m = sum(min(c, ref_counts.get(w, 0)) for w, c in cand_counts.items())
    if m == 0:
        return 0.0, 0.0
    precision, recall = m / len(cand), m / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    return fmean * 0.5, fmean * (1 - 0.5 / m**3)


def check_eval_report(report: dict, expected: dict, baseline: dict) -> list[str]:
    """Totals, missing counts, exact means, caption bounds and baseline ratios.

    ``expected`` maps each task to {"total", "missing", "correct"} for the
    exactly scored tasks, and caption to {"total", "missing", "low", "high"}
    with the summed per-item METEOR bounds.
    """
    errors: list[str] = []
    tasks = report.get("tasks", {})
    if set(tasks) != set(expected):
        return [f"report tasks {sorted(tasks)}, expected {sorted(expected)}"]
    means: dict[str, float] = {}
    for name, want in expected.items():
        got = tasks[name]
        for key in ("total", "missing"):
            if got[key] != want[key]:
                errors.append(f"{name}: {key} {got[key]}, expected {want[key]}")
        if name == "caption":
            low, high = want["low"] / want["total"], want["high"] / want["total"]
            if not low - 1e-9 <= got["mean"] <= high + 1e-9:
                errors.append(f"caption: mean {got['mean']:.6f} outside [{low:.6f}, {high:.6f}]")
            means[name] = got["mean"]
        else:
            means[name] = want["correct"] / want["total"]
            if abs(got["mean"] - means[name]) > 1e-12:
                errors.append(f"{name}: mean {got['mean']}, expected {means[name]}")
    relative = report.get("relative_to_baseline", {})
    for name, mean in means.items():
        want = round(100.0 * mean / baseline[name], 1)
        if relative.get(name) != want:
            errors.append(f"{name}: relative {relative.get(name)}, expected {want}")
    return errors


# ---------------------------------------------------------------------------
# llm


def check_llm_pass(summary: dict, report: dict, served: dict, expect: dict, warm: bool) -> list[str]:
    """One generate-llm pass against the endpoint's own counts.

    ``served`` is the change in the endpoint's counters over the pass;
    ``expect`` holds the prompts and the clips without context, counted
    from the manifest, and for the warm pass the cold pass's served counts.
    """
    errors: list[str] = []
    if warm:
        if served["requests"] != 0:
            errors.append(f"warm pass reached the endpoint {served['requests']} times")
        served = expect["cold_served"]
    elif served["requests"] != expect["prompts"] + served["injected_503"]:
        errors.append(
            f"{served['requests']} requests for {expect['prompts']} prompts "
            f"and {served['injected_503']} injected 503s"
        )
    if summary["items"] != served["valid"]:
        errors.append(f"{summary['items']} items written, {served['valid']} valid elements served")
    if report["rejected"] != served["malformed"]:
        errors.append(f"{report['rejected']} rejected, {served['malformed']} malformed elements served")
    if report["skipped_no_context"] != expect["no_context"]:
        errors.append(f"{report['skipped_no_context']} clips skipped, {expect['no_context']} without context")
    if report["failures"]:
        errors.append(f"{len(report['failures'])} clips failed: {report['failures'][:3]}")
    return errors
