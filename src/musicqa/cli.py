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
from importlib import import_module
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
from .items import QAFormat, validate_qa_item

# Names from the modules that only some commands run, each with the module
# that defines it.  A command binds the names it needs as globals of this
# module through _bind, and calls them as globals.  A name already bound
# stays as it is, so a wrapper set with setattr before the command runs
# (perfbench/tracecli.py traces calls this way) is the one called.
_LAZY = {
    "UnknownLabelError": "ontology",
    "parse_ontology": "ontology",
    "FormatPlan": "rulegen",
    "default_templates": "rulegen",
    "generate_rule_dataset": "rulegen",
    "load_templates": "rulegen",
    "LlmClient": "llmgen",
    "LlmEndpointConfig": "llmgen",
    "default_examples": "llmgen",
    "default_requested": "llmgen",
    "generate_llm_dataset": "llmgen",
    "load_examples": "llmgen",
    "EmbedderConfig": "evalharness",
    "EvalReport": "evalharness",
    "HttpEmbedder": "evalharness",
    "TaskScores": "evalharness",
    "TrigramEmbedder": "evalharness",
    "UnknownQaIdError": "evalharness",
    "aggregate_report": "evalharness",
    "load_outputs_jsonl": "evalharness",
    "score_binary": "evalharness",
    "score_captions": "evalharness",
    "score_label_match": "evalharness",
    "score_mcq": "evalharness",
}


def _bind(*modules: str) -> None:
    """Bind every name of _LAZY that ``modules`` define and that is not bound yet."""
    scope = globals()
    for name, module in _LAZY.items():
        if module in modules and name not in scope:
            scope[name] = getattr(import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


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
        # a missing format means 0 items of it
        for fmt, count in cfg.plan.items():
            if fmt not in ("open", "binary", "mcq") or type(count) is not int or count < 0:
                raise ConfigError(
                    "config key 'plan' maps open, binary and mcq to non-negative integers, "
                    f"got {fmt!r}: {count!r}"
                )
        # one option per letter, A to Z
        if type(cfg.mcq_options) is not int or not 2 <= cfg.mcq_options <= 26:
            raise ConfigError(
                f"config key 'mcq_options' must be an integer from 2 to 26, got {cfg.mcq_options!r}"
            )
        # null leaves the seed to --seed
        if cfg.seed is not None and type(cfg.seed) is not int:
            raise ConfigError(f"config key 'seed' must be an integer, got {cfg.seed!r}")
        for key in ("workers", "shard_size"):
            value = getattr(cfg, key)
            if type(value) is not int or value < 1:
                raise ConfigError(f"config key {key!r} must be a positive integer, got {value!r}")
        split = cfg.split
        if not (isinstance(split, list) and len(split) == 3 and all(map(_is_number, split))):
            raise ConfigError(f"config key 'split' must be a list of 3 numbers, got {split!r}")
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
    return cfg.seed


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
    return _keep_sources(clips, args)


def _keep_sources(records: list, args: argparse.Namespace) -> list:
    """The clips or items from the sources that --source-filter names; all without it."""
    source_filter = getattr(args, "source_filter", None)
    if not source_filter:
        return records
    wanted = {parse_source(s) for s in source_filter}
    return [record for record in records if record.source in wanted]


def _format_filter_set(args: argparse.Namespace) -> set[QAFormat] | None:
    raw = getattr(args, "format_filter", None)
    if not raw:
        return None
    return {QAFormat(value) for value in raw}


def _read_items(paths) -> list:
    """The items of each QAItem JSONL file or shard directory in ``paths``, in order."""
    items = []
    for path in paths:
        with _reading(path):
            items.extend(read_shards(path) if Path(path).is_dir() else read_items_jsonl(path))
    return items


def _apply_item_filters(items, args: argparse.Namespace):
    keep_formats = _format_filter_set(args)
    if keep_formats is not None:
        items = filter_formats(items, keep_formats)
    return _keep_sources(items, args)


def _emit_json(doc: dict, out: str | None) -> None:
    """Write ``doc`` to the file ``out``, or print it to stdout without one."""
    if out:
        _write_json(out, doc)
    else:
        print(json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate_rule(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    _bind("ontology", "rulegen")
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
    plan = cfg.plan
    keep_formats = _format_filter_set(args)
    if keep_formats is not None:
        plan = {fmt: count for fmt, count in plan.items() if QAFormat(fmt) in keep_formats}
    started = time.perf_counter()
    items, report = generate_rule_dataset(
        kept,
        ontology,
        freqs,
        templates,
        FormatPlan.from_dict(plan),
        seed,
        music_root=music_root,
        k_options=cfg.mcq_options,
        workers=cfg.workers,
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
    _bind("llmgen")
    llm = dict(cfg.llm)
    _check_positive("llm", llm, "per_pair")
    per_pair = llm.pop("per_pair", 1)
    _check_section("llm", llm, LlmEndpointConfig)
    _check_positive("llm", llm, "concurrency")
    if not llm.get("base_url") or not llm.get("model"):
        raise ConfigError("generate-llm needs llm.base_url and llm.model in the config")
    endpoint = LlmEndpointConfig(**llm)
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
    items = _read_items(args.inputs)
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
    assignment = split_by_audio(items, ratios, seed)
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    split_counts = {}
    for split in Split:
        split_items = assignment.items_for(items, split)
        write_shards(split_items, cfg.shard_size, out_dir / split.value)
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
    items = _apply_item_filters(_read_items(args.inputs), args)
    stats = compute_stats(items)
    _emit_json(stats.to_dict(), args.out)
    _summary("stats", items=len(items), total=stats.grand_total, out=args.out)
    return EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# what each annotated field type of a settings class accepts, and how to say so
_FIELD_KINDS = {
    "str": (lambda value: type(value) is str, "a string"),
    "int": (lambda value: type(value) is int, "an integer"),
    "float": (_is_number, "a finite number"),
}


def _check_section(name: str, section: dict, settings_cls) -> None:
    """Each key of config section ``name`` must be a field of ``settings_cls`` and hold its type."""
    kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(settings_cls)}
    unknown = set(section) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    for key, value in section.items():
        accepts, kind = kinds[key]
        if not accepts(value):
            raise ConfigError(f"config key {name!r}: {key!r} must be {kind}, got {value!r}")


def _check_positive(name: str, section: dict, key: str) -> None:
    """``key`` of config section ``name``, when set, must be an integer of at least 1."""
    value = section.get(key, 1)
    if type(value) is not int or value < 1:
        raise ConfigError(f"config key {name!r}: {key!r} must be a positive integer, got {value!r}")


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
    _bind("evalharness")
    _check_section("embedder", cfg.embedder, EmbedderConfig)
    _check_positive("embedder", cfg.embedder, "batch_size")
    read = _read_items(args.items)
    items = _apply_item_filters(read, args)
    with _reading(args.outputs):
        outputs = load_outputs_jsonl(Path(args.outputs).read_bytes())
    # an output may answer an item the filters drop; only an id that no
    # --items input holds is an error
    known = {item.qa_id for item in read}
    by_id = {item.qa_id: item for item in items}
    outputs_for = {fmt: [] for fmt in QAFormat}
    for output in outputs:
        if output.qa_id in by_id:
            outputs_for[by_id[output.qa_id].format].append(output)
        elif output.qa_id not in known:
            raise UnknownQaIdError(f"output references unknown qa_id {output.qa_id!r}")
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
            embedder = closing(HttpEmbedder(EmbedderConfig(**cfg.embedder)))
        else:
            embedder = nullcontext(TrigramEmbedder())
        with embedder as embed:
            fragments.append(score_label_match(items_for[QAFormat.OPEN], outputs_for[QAFormat.OPEN], embed))
    if "caption" in wanted and items_for[QAFormat.CAPTION]:
        fragments.append(score_captions(items_for[QAFormat.CAPTION], outputs_for[QAFormat.CAPTION]))

    baseline = _baseline_report(args.baseline) if args.baseline else None
    report = aggregate_report(fragments, baseline)
    _emit_json(report.to_dict(), args.out)
    _summary(
        "eval",
        tasks={name: round(scores.mean, 6) for name, scores in sorted(report.tasks.items())},
        total=sum(scores.total for scores in report.tasks.values()),
        out=args.out,
    )
    return EXIT_OK


def cmd_validate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    items = _read_items(args.inputs)
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


def _positive_int(text: str) -> int:
    """The --workers value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


_SHARED_FLAGS = {
    "--config": {"help": "JSON config file"},
    "--seed": {"type": int, "help": "global seed (overrides config)"},
    "--workers": {"type": _positive_int, "help": "worker processes (overrides config)"},
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
