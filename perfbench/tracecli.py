"""Run one musicqa CLI command with spans around calls into the package.

Usage: ``python3 perfbench/tracecli.py SPANS_JSON <musicqa arguments...>``

The package is imported unchanged; this file rebinds the public functions
that the CLI and the generators call, so each call records a span (name,
start, end, parent) and, at some boundaries, a count taken from the
result.  Spans stay in memory and are written to SPANS_JSON when the
command returns.  The exit code is the command's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

_now = time.perf_counter
_spans: list[list] = []  # [name, start, end, parent index or -1]
_counts: dict[str, float] = {}
_stacks = threading.local()
_main_stack: list[int] = []
_lock = threading.Lock()


def _stack() -> list[int]:
    if threading.current_thread() is threading.main_thread():
        return _main_stack
    stack = getattr(_stacks, "stack", None)
    if stack is None:
        stack = _stacks.stack = []
    return stack


def _count(name: str, value: float) -> None:
    _counts[name] = _counts.get(name, 0) + value


def _traced(name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        # a pool thread's first span hangs under the main thread's open span
        parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else -1)
        span_name = name(args, kwargs) if callable(name) else name
        record = [span_name, _now(), 0.0, parent]
        with _lock:
            _spans.append(record)
            index = len(_spans) - 1
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = _now()
            stack.pop()
        if on_result is not None:
            on_result(result, args, kwargs)
        return result

    return wrapper


def _install() -> None:
    from musicqa import cli, llmgen, rulegen

    def kept(result, args, kwargs):
        _count("corpus.clips_kept", len(result))

    def generated(result, args, kwargs):
        items, report = result
        _count("rulegen.items", len(items))
        _count("rulegen.binary_fallbacks", report.binary_positive_fallbacks)

    def jsonl_written(result, args, kwargs):
        _count("assembly.jsonl_mb", os.path.getsize(args[1]) / 1e6)

    def deduped(result, args, kwargs):
        _count("assembly.dedup_kept", len(result))
        _count("assembly.dedup_dropped", len(args[0]) - len(result))

    def shards_written(result, args, kwargs):
        out = args[2]
        _count("assembly.shard_mb", sum(os.path.getsize(os.path.join(out, s["path"])) for s in result["shards"]) / 1e6)

    def scored(result, args, kwargs):
        _count("evalharness.items_scored", result.total)

    def llm_done(result, args, kwargs):
        items, report = result
        _count("llmgen.items", len(items))
        _count("llmgen.rejected", report.rejected)

    def workers_name(args, kwargs):
        return f"rulegen.generate_w{kwargs.get('workers', 1)}"

    in_cli = {
        "parse_ontology": ("ontology.parse_ontology", None),
        "load_manifest": ("corpus.load_manifest", None),
        "filter_music_clips": ("corpus.filter_music_clips", kept),
        "compute_label_frequencies": ("corpus.compute_label_frequencies", None),
        "generate_rule_dataset": (workers_name, generated),
        "write_items_jsonl": ("assembly.write_items_jsonl", jsonl_written),
        "read_items_jsonl": ("assembly.read_items_jsonl", None),
        "read_shards": ("assembly.read_shards", None),
        "deduplicate": ("assembly.deduplicate", deduped),
        "split_by_audio": ("assembly.split_by_audio", None),
        "write_shards": ("assembly.write_shards", shards_written),
        "compute_stats": ("assembly.compute_stats", None),
        "import_external": ("assembly.import_external", None),
        "validate_qa_item": ("llmgen.validate_qa_item", None),
        "generate_llm_dataset": ("llmgen.generate_llm_dataset", llm_done),
        "load_outputs_jsonl": ("evalharness.load_outputs_jsonl", None),
        "score_mcq": ("evalharness.score_mcq", scored),
        "score_binary": ("evalharness.score_binary", scored),
        "score_label_match": ("evalharness.score_label_match", scored),
        "score_captions": ("evalharness.score_captions", scored),
    }
    for attr, (name, on_result) in in_cli.items():
        # a function the CLI no longer imports raises here, and the traced command fails
        setattr(cli, attr, _traced(name, getattr(cli, attr), on_result))
    rulegen.RuleGenerator.__init__ = _traced("rulegen.init", rulegen.RuleGenerator.__init__)
    llmgen.build_prompt = _traced("llmgen.build_prompt", llmgen.build_prompt)
    llmgen.parse_llm_output = _traced("llmgen.parse_llm_output", llmgen.parse_llm_output)
    llmgen.LlmClient.call = _traced("llmgen.call", llmgen.LlmClient.call)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from musicqa import cli

    _install()
    rc = _traced("cli", cli.main)(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": _spans, "counts": _counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
