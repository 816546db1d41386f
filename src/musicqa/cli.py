"""Command-line pipeline driver.

Subcommands: generate-rule, generate-llm, assemble, stats, eval, validate.
Configuration comes from one JSON file (--config) with flag overrides;
secrets are read only from environment variables.  Every run prints a
single machine-readable JSON summary line to stdout as its last line;
progress and throughput go to stderr.  Exit codes: 0 success, 1 usage or
configuration error, 2 data validation failure, 3 external service
failure; every package error carries its own code (see errors.py).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

from .assembly import (
    Split,
    compute_stats,
    deduplicate,
    filter_formats,
    import_external,
    read_items_jsonl,
    read_shards,
    split_by_audio,
    write_items_jsonl,
    write_shards,
)
from .corpus import (
    DuplicateClipError,
    Source,
    atomic_writer,
    compute_label_frequencies,
    filter_music_clips,
    load_manifest,
    parse_source,
)
from .errors import DataError, MusicQaError, ParseError, ServiceError
from .evalharness import (
    EmbedderConfig,
    EvalReport,
    HttpEmbedder,
    TaskScores,
    TrigramEmbedder,
    UnknownQaIdError,
    aggregate_report,
    load_outputs_jsonl,
    score_binary,
    score_captions,
    score_label_match,
    score_mcq,
)
from .llmgen import (
    LlmClient,
    LlmEndpointConfig,
    default_examples,
    default_requested,
    generate_llm_dataset,
    load_examples,
    validate_qa_item,
)
from .ontology import UnknownLabelError, parse_ontology
from .rulegen import (
    FormatPlan,
    QAFormat,
    default_templates,
    generate_rule_dataset,
    load_templates,
)

EXIT_OK = 0
EXIT_USAGE = MusicQaError.exit_code
EXIT_DATA = DataError.exit_code
EXIT_SERVICE = ServiceError.exit_code


class ConfigError(MusicQaError):
    """Invalid or incomplete pipeline configuration."""


@dataclass
class PipelineConfig:
    ontology: str | None = None
    manifests: list[str] = field(default_factory=list)
    templates: str | None = None
    fewshot: str | None = None
    out_dir: str = "out"
    cache_dir: str | None = None
    seed: int | None = None
    workers: int = 1
    music_root: str = "Music"
    plan: dict = field(default_factory=lambda: {"open": 1, "binary": 1, "mcq": 1})
    mcq_options: int = 4
    split: list = field(default_factory=lambda: [0.8, 0.1, 0.1])
    shard_size: int = 50000
    llm: dict = field(default_factory=dict)
    embedder: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None) -> "PipelineConfig":
        cfg = cls()
        if path is None:
            return cfg
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in known:
                _progress(f"warning: ignoring unknown config key {key!r}")
                continue
            setattr(cfg, key, value)
        for key in ("plan", "llm", "embedder"):
            if not isinstance(getattr(cfg, key), dict):
                raise ConfigError(f"config key {key!r} must be a JSON object")
        # one option per letter, A to Z
        if type(cfg.mcq_options) is not int or not 2 <= cfg.mcq_options <= 26:
            raise ConfigError(
                f"config key 'mcq_options' must be an integer from 2 to 26, got {cfg.mcq_options!r}"
            )
        return cfg

    def apply_flags(self, args: argparse.Namespace) -> None:
        if getattr(args, "seed", None) is not None:
            self.seed = args.seed
        if getattr(args, "workers", None) is not None:
            self.workers = args.workers


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _summary(command: str, **data) -> None:
    print(json.dumps({"command": command, **data}, ensure_ascii=False))


def _write_json(path: str | Path, obj) -> None:
    with atomic_writer(path) as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from None


@contextmanager
def _reading(path):
    """Name ``path`` in a line-numbered ParseError raised while it is read."""
    try:
        yield
    except ParseError as exc:
        raise exc.in_file(path) from None


def _read_json_object(path: str, what: str) -> dict:
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} {path} must be a JSON object")
    return doc


def _require_seed(cfg: PipelineConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("a seed is required: pass --seed or set \"seed\" in the config")
    return int(cfg.seed)


def _resolve_music_root(ontology, name_or_id: str) -> str:
    if name_or_id in ontology.nodes:
        return name_or_id
    try:
        return ontology.find_by_name(name_or_id)
    except UnknownLabelError as exc:
        raise ConfigError(f"music root {name_or_id!r} not found in ontology") from exc


def _load_clips(cfg: PipelineConfig, args: argparse.Namespace):
    manifest_paths = list(cfg.manifests) + list(getattr(args, "inputs", []) or [])
    if not manifest_paths:
        raise ConfigError("no manifest files given (config \"manifests\" or positional args)")
    clips = []
    seen: set[tuple[Source, str]] = set()
    for path in manifest_paths:
        with _reading(path):
            manifest = load_manifest(Path(path).read_bytes())
        for clip in manifest:
            key = (clip.source, clip.audio_id)
            if key in seen:
                raise DuplicateClipError(
                    f"duplicate clip {clip.audio_id!r} from {clip.source.value} across manifests"
                )
            seen.add(key)
            clips.append(clip)
    source_filter = getattr(args, "source_filter", None)
    if source_filter:
        wanted = {parse_source(s) for s in source_filter}
        clips = [clip for clip in clips if clip.source in wanted]
    return clips


def _format_filter_set(args: argparse.Namespace) -> set[QAFormat] | None:
    raw = getattr(args, "format_filter", None)
    if not raw:
        return None
    return {QAFormat(value) for value in raw}


def _read_items_any(path: str) -> list:
    with _reading(path):
        if Path(path).is_dir():
            return read_shards(path)
        return read_items_jsonl(path)


def _apply_item_filters(items, args: argparse.Namespace):
    keep_formats = _format_filter_set(args)
    if keep_formats is not None:
        items = filter_formats(items, keep_formats)
    source_filter = getattr(args, "source_filter", None)
    if source_filter:
        wanted = {parse_source(s) for s in source_filter}
        items = [item for item in items if item.source in wanted]
    return items


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate_rule(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    seed = _require_seed(cfg)
    if not cfg.ontology:
        raise ConfigError("generate-rule needs an ontology path in the config")
    ontology = parse_ontology(_read_text(cfg.ontology))
    music_root = _resolve_music_root(ontology, cfg.music_root)
    clips = _load_clips(cfg, args)
    kept = filter_music_clips(clips, ontology, music_root)
    _progress(f"generate-rule: {len(kept)}/{len(clips)} clips carry a music leaf label")
    freqs = compute_label_frequencies(kept, ontology, music_root)
    templates = load_templates(_read_text(cfg.templates)) if cfg.templates else default_templates()
    plan = FormatPlan.from_dict(cfg.plan)
    keep_formats = _format_filter_set(args)
    if keep_formats is not None:
        plan = FormatPlan(
            open=plan.open if QAFormat.OPEN in keep_formats else 0,
            binary=plan.binary if QAFormat.BINARY in keep_formats else 0,
            mcq=plan.mcq if QAFormat.MCQ in keep_formats else 0,
        )
    started = time.perf_counter()
    items, report = generate_rule_dataset(
        kept,
        ontology,
        freqs,
        templates,
        plan,
        seed,
        music_root=music_root,
        k_options=cfg.mcq_options,
        workers=max(1, int(cfg.workers)),
    )
    elapsed = time.perf_counter() - started
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "rule_items.jsonl"
    write_items_jsonl(items, out)
    _write_json(out.with_suffix(out.suffix + ".report.json"), report.to_dict())
    rate = len(items) / elapsed if elapsed > 0 else 0.0
    _progress(f"generate-rule: {len(items)} items in {elapsed:.2f}s ({rate:,.0f} items/s)")
    _summary(
        "generate-rule",
        items=len(items),
        clips=len(kept),
        errors=len(report.errors),
        out=str(out),
        items_per_s=round(rate, 1),
    )
    return EXIT_OK


def cmd_generate_llm(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    llm = dict(cfg.llm)
    base_url = llm.pop("base_url", None)
    model = llm.pop("model", None)
    if not base_url or not model:
        raise ConfigError("generate-llm needs llm.base_url and llm.model in the config")
    per_pair = int(llm.pop("per_pair", 1))
    allowed = {f.name for f in fields(LlmEndpointConfig)} - {"base_url", "model"}
    unknown = set(llm) - allowed
    if unknown:
        raise ConfigError(f"unknown llm config keys: {sorted(unknown)}")
    endpoint = LlmEndpointConfig(base_url=base_url, model=model, **llm)
    cache_dir = cfg.cache_dir or str(Path(cfg.out_dir) / "llm_cache")
    client = LlmClient(endpoint, cache_dir=cache_dir)
    clips = _load_clips(cfg, args)
    examples = load_examples(_read_text(cfg.fewshot)) if cfg.fewshot else default_examples()
    requested = default_requested(per_pair)
    started = time.perf_counter()
    items, report = generate_llm_dataset(clips, client, examples, requested)
    elapsed = time.perf_counter() - started
    items = _apply_item_filters(items, args)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "llm_items.jsonl"
    write_items_jsonl(items, out)
    _write_json(out.with_suffix(out.suffix + ".report.json"), report.to_dict())
    _progress(
        f"generate-llm: {len(items)} items from {len(clips)} clips in {elapsed:.2f}s "
        f"({client.network_calls} network calls, {report.rejected} rejected)"
    )
    _summary(
        "generate-llm",
        items=len(items),
        clips=len(clips),
        rejected=report.rejected,
        failures=len(report.failures),
        network_calls=client.network_calls,
        out=str(out),
    )
    return EXIT_OK


def cmd_assemble(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    seed = _require_seed(cfg)
    items = []
    for path in args.inputs:
        items.extend(_read_items_any(path))
    for spec in args.imports or []:
        source, _, path = spec.partition("=")
        if not path:
            raise ConfigError(f"--import expects SOURCE=PATH, got {spec!r}")
        with _reading(path):
            items.extend(import_external(Path(path).read_bytes(), source))
    before = len(items)
    items = deduplicate(items)
    _progress(f"assemble: {before} items in, {len(items)} after dedup")
    items = _apply_item_filters(items, args)
    ratios = tuple(float(r) for r in cfg.split)
    if len(ratios) != 3:
        raise ConfigError(f"split must have 3 ratios, got {cfg.split!r}")
    assignment = split_by_audio(items, ratios, seed)
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    split_counts = {}
    for split in Split:
        split_items = assignment.items_for(items, split)
        write_shards(split_items, int(cfg.shard_size), out_dir / split.value)
        split_counts[split.value] = len(split_items)
    stats = compute_stats(items)
    _write_json(out_dir / "stats.json", stats.to_dict())
    _write_json(
        out_dir / "splits.json",
        {audio_id: split.value for audio_id, split in sorted(assignment.split_of.items())},
    )
    _summary(
        "assemble",
        items=len(items),
        deduped=before - len(items),
        splits=split_counts,
        total=stats.grand_total,
        out=str(out_dir),
    )
    return EXIT_OK


def cmd_stats(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    items = []
    for path in args.inputs:
        items.extend(_read_items_any(path))
    items = _apply_item_filters(items, args)
    stats = compute_stats(items)
    doc = stats.to_dict()
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True))
    _summary("stats", items=len(items), total=stats.grand_total, out=args.out)
    return EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _baseline_report(path: str) -> EvalReport:
    doc = _read_json_object(path, "baseline")
    tasks = doc.get("tasks", {})
    if not isinstance(tasks, dict):
        raise ParseError(f"baseline {path}: \"tasks\" must be an object")
    report = EvalReport()
    for name, block in tasks.items():
        if not isinstance(block, dict):
            raise ParseError(f"baseline {path}: task {name!r} must be an object")
        for key in ("mean", "total"):
            if not _is_number(block.get(key)):
                raise ParseError(f"baseline {path}: task {name!r} needs a numeric {key!r}")
        total = int(block["total"]) or 1
        report.tasks[name] = TaskScores(task=name, total=total, score_sum=float(block["mean"]) * total)
    return report


def cmd_eval(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    items = []
    for path in args.items:
        items.extend(_read_items_any(path))
    items = _apply_item_filters(items, args)
    with _reading(args.outputs):
        outputs = load_outputs_jsonl(Path(args.outputs).read_bytes())
    by_id = {item.qa_id: item for item in items}
    for output in outputs:
        if output.qa_id not in by_id:
            raise UnknownQaIdError(f"output references unknown qa_id {output.qa_id!r}")
    outputs_for = {fmt: [] for fmt in QAFormat}
    for output in outputs:
        outputs_for[by_id[output.qa_id].format].append(output)
    items_for = {fmt: [item for item in items if item.format == fmt] for fmt in QAFormat}

    category_map = None
    if args.category_map:
        category_map = _read_json_object(args.category_map, "category map")
        if not all(isinstance(group, str) for group in category_map.values()):
            raise ParseError(f"category map {args.category_map} must map each qa_id to a string")

    wanted = {"mcq", "binary", "label-match", "caption"} if args.task == "all" else {args.task}
    fragments: list[TaskScores] = []
    if "mcq" in wanted and items_for[QAFormat.MCQ]:
        fragments.append(score_mcq(items_for[QAFormat.MCQ], outputs_for[QAFormat.MCQ], category_map))
    if "binary" in wanted and items_for[QAFormat.BINARY]:
        fragments.append(score_binary(items_for[QAFormat.BINARY], outputs_for[QAFormat.BINARY]))
    if "label-match" in wanted and items_for[QAFormat.OPEN]:
        if cfg.embedder.get("url"):
            allowed = {f.name for f in fields(EmbedderConfig)}
            embedder = closing(HttpEmbedder(
                EmbedderConfig(**{k: v for k, v in cfg.embedder.items() if k in allowed})
            ))
        else:
            embedder = nullcontext(TrigramEmbedder())
        with embedder as embed:
            fragments.append(score_label_match(items_for[QAFormat.OPEN], outputs_for[QAFormat.OPEN], embed))
    if "caption" in wanted and items_for[QAFormat.CAPTION]:
        fragments.append(score_captions(items_for[QAFormat.CAPTION], outputs_for[QAFormat.CAPTION]))

    baseline = _baseline_report(args.baseline) if args.baseline else None
    report = aggregate_report(fragments, baseline)
    doc = report.to_dict()
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True))
    _summary(
        "eval",
        tasks={name: round(scores.mean, 6) for name, scores in sorted(report.tasks.items())},
        total=sum(scores.total for scores in report.tasks.values()),
        out=args.out,
    )
    return EXIT_OK


def cmd_validate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    items = []
    for path in args.inputs:
        items.extend(_read_items_any(path))
    violations: list[dict] = []
    seen_ids: set[str] = set()
    for item in items:
        reasons = validate_qa_item(item)
        if item.qa_id in seen_ids:
            reasons = reasons + ["duplicate qa_id"]
        seen_ids.add(item.qa_id)
        if reasons:
            violations.append({"qa_id": item.qa_id, "reasons": reasons})
    for violation in violations[:100]:
        _progress(f"invalid {violation['qa_id']}: {'; '.join(violation['reasons'])}")
    _summary(
        "validate",
        items=len(items),
        invalid=len(violations),
        violations=violations[:100],
    )
    return EXIT_DATA if violations else EXIT_OK


# ---------------------------------------------------------------------------
# Parser


_SHARED_FLAGS = {
    "--config": {"help": "JSON config file"},
    "--seed": {"type": int, "help": "global seed (overrides config)"},
    "--workers": {"type": int, "help": "worker processes (overrides config)"},
    "--out": {"help": "output file or directory"},
    "--format-filter": {
        "action": "append",
        "choices": [fmt.value for fmt in QAFormat],
        "help": "keep only this format (repeatable)",
    },
    "--source-filter": {"action": "append", "help": "keep only this source (repeatable)"},
}
_OUTPUT_FLAGS = ("--out", "--format-filter", "--source-filter")


def _add_flags(sp: argparse.ArgumentParser, *flags: str) -> None:
    """Register the shared flags a subcommand reads; it accepts no others."""
    for flag in flags:
        sp.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musicqa",
        description="Synthesize music-grounded QA datasets and score model outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate-rule", help="template-driven QA generation from ontology labels")
    _add_flags(sp, "--config", "--seed", "--workers", *_OUTPUT_FLAGS)
    sp.add_argument("inputs", nargs="*", help="clip manifest JSONL files")
    sp.set_defaults(func=cmd_generate_rule)

    sp = sub.add_parser("generate-llm", help="few-shot LLM QA generation from captions/metadata")
    _add_flags(sp, "--config", *_OUTPUT_FLAGS)
    sp.add_argument("inputs", nargs="*", help="clip manifest JSONL files")
    sp.set_defaults(func=cmd_generate_llm)

    sp = sub.add_parser("assemble", help="dedup, split, shard, and count QA items")
    _add_flags(sp, "--config", "--seed", *_OUTPUT_FLAGS)
    sp.add_argument("inputs", nargs="+", help="QAItem JSONL files or shard directories")
    sp.add_argument(
        "--import",
        dest="imports",
        action="append",
        metavar="SOURCE=PATH",
        help="external caption/QA JSONL to import (repeatable)",
    )
    sp.set_defaults(func=cmd_assemble)

    sp = sub.add_parser("stats", help="per-source, per-task dataset statistics")
    _add_flags(sp, *_OUTPUT_FLAGS)
    sp.add_argument("inputs", nargs="+", help="QAItem JSONL files or shard directories")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("eval", help="score model outputs against an evaluation set")
    _add_flags(sp, "--config", *_OUTPUT_FLAGS)
    sp.add_argument("--task", choices=["mcq", "binary", "label-match", "caption", "all"], default="all")
    sp.add_argument("--items", action="append", required=True, help="evaluation items (file or shard dir)")
    sp.add_argument("--outputs", required=True, help="model outputs JSONL ({qa_id, text})")
    sp.add_argument("--baseline", help="baseline eval report JSON for relative percentages")
    sp.add_argument("--category-map", help="JSON map qa_id -> category group (MCQ)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("validate", help="check every item invariant in an existing dataset")
    sp.add_argument("inputs", nargs="+", help="QAItem JSONL files or shard directories")
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = PipelineConfig.load(getattr(args, "config", None))
        cfg.apply_flags(args)
        return args.func(cfg, args)
    except MusicQaError as exc:
        _progress(f"error: {exc}")
        return exc.exit_code
    except (FileNotFoundError, ValueError) as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
