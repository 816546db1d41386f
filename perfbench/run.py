#!/usr/bin/env python3
"""Benchmark of the musicqa command line, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build|eval|llm --seed N --seconds S --trace 0|1

Each run writes its seeded inputs, then repeats whole rounds of the
workload's CLI commands until S seconds have passed since the first one
started, checking every command's outputs.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over rounds);
with ``--trace 1`` the run alternates untraced and traced rounds, and the
metrics are the per-layer ones.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = min(2, len(os.sched_getaffinity(0)))
HARD_LIMIT_S = 170.0
TRACE_PAIRS = 2

BUILD_CLIPS = 2000
BUILD_RATIOS = (0.8, 0.1, 0.1)

EVAL_TEST_CLIPS = 200
EVAL_OTHER_CLIPS = 60
# Scored test captions get one of each length, so every seed does the same
# METEOR work; one more 10-word test caption is left without an output.
EVAL_CAPTION_WORDS = (10, 20, 30, 40, 50, 60, 70, 80)
EVAL_OTHER_CAPTIONS = 4
EVAL_LEFT_OUT = {"mcq": 3, "binary": 3, "label_match": 3, "caption": 1}
EVAL_BASELINE = {"mcq": 0.55, "binary": 0.6, "label_match": 0.45, "caption": 0.25}

LLM_CLIPS = 240
LLM_NO_CONTEXT_EVERY = 8


class SetupError(Exception):
    """Set-up failed; the run prints no result."""


@dataclass
class Cmd:
    name: str
    rc: int
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    summary: dict | None
    stderr: str
    spans: dict | None = None


class Bench:
    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("MUSICQA_LLM_API_KEY", None)
        self.attempted = 0
        self.failed = 0
        self.exit_errors: list[str] = []
        self.check_errors: list[str] = []
        self.endpoint: subprocess.Popen | None = None
        self._checker = None

    def checker(self):
        """One spawned worker process for checks that read many items."""
        if self._checker is None:
            import multiprocessing  # only build needs it; set-up time counts imports

            self._checker = multiprocessing.get_context("spawn").Pool(1)
        return self._checker

    # -- processes -----------------------------------------------------

    def cli(self, name: str, args: list[str], spans: Path | None = None) -> Cmd:
        """Run one musicqa command; with ``spans``, through the tracing wrapper."""
        if spans is None:
            argv = [sys.executable, "-m", "musicqa", *args]
        else:
            argv = [sys.executable, str(HERE / "tracecli.py"), str(spans), *args]
        log = self.work / "logs"
        log.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log / f"{name}.out", log / f"{name}.err"
        remaining = HARD_LIMIT_S - (time.perf_counter() - T_START)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            watchdog = threading.Timer(max(remaining, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        lines = out_path.read_text("utf-8").strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            summary = None
        cmd = Cmd(
            name=name,
            rc=proc.returncode,
            start=start,
            end=end,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            summary=summary,
            stderr=err_path.read_text("utf-8", "replace")[-2000:],
        )
        if spans is not None and spans.exists():
            cmd.spans = json.loads(spans.read_text("utf-8"))
        return cmd

    def setup_cli(self, name: str, args: list[str], spans: Path | None = None) -> Cmd:
        cmd = self.cli(name, args, spans)
        if cmd.rc != 0:
            raise SetupError(f"set-up command {name} exited {cmd.rc}: {cmd.stderr}")
        return cmd

    def record(self, cmds: list[Cmd], errors: list[tuple[str, str]]) -> None:
        """Count a round's operations: one fails if it exits non-zero or a check on its outputs fails."""
        self.attempted += len(cmds)
        failed = {cmd.name for cmd in cmds if cmd.rc != 0}
        for cmd in cmds:
            if cmd.rc != 0:
                self.exit_errors.append(f"{cmd.name} exited {cmd.rc}: {cmd.stderr.strip()[-300:]}")
        for name, message in errors:
            failed.add(name)
            self.check_errors.append(f"{name}: {message}")
        self.failed += len(failed)

    def start_endpoint(self) -> str:
        self.endpoint = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py")],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=self.work,
        )
        line = self.endpoint.stdout.readline().decode().strip()
        if not line.startswith("PORT "):
            raise SetupError("local endpoint did not start")
        return f"http://127.0.0.1:{line.split()[1]}"

    def close(self) -> None:
        if self._checker is not None:
            self._checker.close()
            self._checker.join()
        if self.endpoint is not None:
            self.endpoint.terminate()
            try:
                self.endpoint.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.endpoint.kill()
                self.endpoint.wait()
            self.endpoint.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


def _write_common(work: Path) -> inputs.Ontology:
    onto = inputs.build_ontology()
    inputs.write_json(work / "ontology.json", onto.nodes)
    inputs.write_json(work / "templates.json", inputs.TEMPLATES)
    return onto


def _summary_errors(cmd: Cmd, **want) -> list[tuple[str, str]]:
    return checks.summary_errors(cmd.name, cmd.summary, **want) if cmd.rc == 0 else []


# ---------------------------------------------------------------------------
# build: generate-rule -> assemble -> validate


class BuildWorkload:
    def __init__(self, bench: Bench):
        self.b = bench

    def setup(self, traced: bool) -> None:
        work = self.b.work
        rng = random.Random(self.b.seed)
        self.onto = _write_common(work)
        ids = [f"bclip-{n:06d}" for n in range(BUILD_CLIPS)]
        self.clips = inputs.rule_manifest(self.onto, rng, ids)
        half = len(self.clips) // 2
        inputs.write_jsonl(work / "manifest-a.jsonl", self.clips[:half])
        inputs.write_jsonl(work / "manifest-b.jsonl", self.clips[half:])
        config = {
            "ontology": "ontology.json",
            "templates": "templates.json",
            "manifests": ["manifest-a.jsonl", "manifest-b.jsonl"],
            "music_root": "Music",
            "seed": self.b.seed,
            "workers": WORKERS,
            "plan": {"open": 2, "binary": 2, "mcq": 2},
            "mcq_options": 4,
            "split": list(BUILD_RATIOS),
            "shard_size": 4000,
        }
        inputs.write_json(work / "config.json", config)

    def round(self, r: int, spans_dir: Path | None = None) -> list[Cmd]:
        b = self.b
        out = b.work / f"r{r}"
        spans = (lambda name: spans_dir / f"{name}.json") if spans_dir else (lambda name: None)
        cmds = [
            b.cli("generate_rule", ["generate-rule", "--config", "config.json", "--workers", str(WORKERS),
                                     "--out", f"r{r}/rule_items.jsonl"], spans("generate_rule")),
            b.cli("assemble", ["assemble", "--config", "config.json", "--out", f"r{r}/ds",
                               f"r{r}/rule_items.jsonl"], spans("assemble")),
            b.cli("validate", ["validate", f"r{r}/ds/train", f"r{r}/ds/val", f"r{r}/ds/test"],
                  spans("validate")),
        ]
        b.record(cmds, self.check(cmds, out))
        return cmds

    def check(self, cmds: list[Cmd], out: Path) -> list[tuple[str, str]]:
        # In a separate process, so that the items it reads never enlarge this
        # one: a child's peak RSS counts its parent's at the time it started.
        summaries = {cmd.name: cmd.summary for cmd in cmds if cmd.rc == 0}
        errors, self.facts = self.b.checker().apply(
            checks.check_build_round, (out, self.clips, self.onto, BUILD_RATIOS, summaries))
        return errors

    def layer_counts(self) -> dict:
        return {"rulegen.open_ambiguous": self.facts.get("open_ambiguous", 0)}

    def probes(self, spans_dir: Path) -> dict:
        """generate-rule once more on one worker, for the pool's cost."""
        cmd = self.b.cli("generate_rule_w1", ["generate-rule", "--config", "config.json", "--workers", "1",
                                              "--out", "probe/rule_items.jsonl"], spans_dir / "probe.json")
        self.b.record([cmd], _summary_errors(cmd, items=self.facts.get("items")))
        return {"rulegen.generate_w1_s": _span_sum(cmd.spans, "rulegen.generate_w1")}


# ---------------------------------------------------------------------------
# eval: one eval --task all --baseline over a test split built in set-up


def _mcq_text(options: list[str], index: int, form: int) -> str:
    letter = chr(ord("A") + index)
    return (letter, f"({letter})", f"Answer: {letter}", options[index])[form % 4]


class EvalWorkload:
    def __init__(self, bench: Bench):
        self.b = bench

    def _probe_splits(self, ids: list[str]) -> dict[str, str]:
        """Which split each id falls in, asked of the program's own assemble."""
        work = self.b.work
        (work / "probe-empty.jsonl").write_text("", encoding="utf-8")
        inputs.write_jsonl(work / "probe-ids.jsonl", ({"audio_id": i, "caption": "probe"} for i in ids))
        self.b.setup_cli("setup_probe", ["assemble", "--config", "config.json", "--out", "probe",
                                         "--import", "MusicCaps=probe-ids.jsonl", "probe-empty.jsonl"])
        return json.loads((work / "probe" / "splits.json").read_text("utf-8"))

    @staticmethod
    def _pick(ids: list[str], split_of: dict[str, str], n_test: int, n_other: int) -> tuple[list, list]:
        test = [i for i in ids if split_of[i] == "test"][:n_test]
        other = [i for i in ids if split_of[i] != "test"][:n_other]
        if len(test) < n_test or len(other) < n_other:
            raise SetupError("not enough candidate ids for the eval split")
        return test, other

    def setup(self, traced: bool) -> None:
        b = self.b
        work = b.work
        rng = random.Random(b.seed)
        onto = _write_common(work)
        config = {
            "ontology": "ontology.json",
            "templates": "templates.json",
            "manifests": ["manifest.jsonl"],
            "music_root": "Music",
            "seed": b.seed,
            "workers": 1,
            "plan": {"open": 1, "binary": 1, "mcq": 1},
            "split": [0.8, 0.1, 0.1],
            "shard_size": 2000,
        }
        inputs.write_json(work / "config.json", config)
        # The test split's size is fixed so that every seed scores the same
        # number of items: candidate ids are placed by the program first.
        clip_ids = [f"eclip-{n:05d}" for n in range(20 * EVAL_TEST_CLIPS)]
        cap_ids = [f"ecap-{n:05d}" for n in range(40 * len(EVAL_CAPTION_WORDS))]
        split_of = self._probe_splits(clip_ids + cap_ids)
        test_clips, other_clips = self._pick(clip_ids, split_of, EVAL_TEST_CLIPS, EVAL_OTHER_CLIPS)
        n_test_caps = len(EVAL_CAPTION_WORDS) + EVAL_LEFT_OUT["caption"]
        test_caps, other_caps = self._pick(cap_ids, split_of, n_test_caps, EVAL_OTHER_CAPTIONS)
        clips = inputs.rule_manifest(onto, rng, test_clips + other_clips)
        inputs.write_jsonl(work / "manifest.jsonl", clips)
        words = (10,) * EVAL_LEFT_OUT["caption"] + EVAL_CAPTION_WORDS + (45,) * EVAL_OTHER_CAPTIONS
        self.paraphrase: dict[str, str] = {}
        captions = []
        for k, (audio_id, n) in enumerate(zip(test_caps + other_caps, words)):
            caption, self.paraphrase[audio_id] = inputs.caption_pair(rng, n, str(k))
            captions.append({"audio_id": audio_id, "caption": caption})
        inputs.write_jsonl(work / "captions.jsonl", captions)

        b.setup_cli("setup_generate_rule", ["generate-rule", "--config", "config.json",
                                            "--out", "setup/rule_items.jsonl"])
        spans = work / "spans-setup-assemble.json" if traced else None
        cmd = b.setup_cli("setup_assemble", ["assemble", "--config", "config.json", "--out", "setup/ds",
                                             "--import", "MusicCaps=captions.jsonl", "setup/rule_items.jsonl"],
                          spans)
        self.setup_spans = cmd.spans
        splits, errors = checks.read_dataset(work / "setup" / "ds")
        if errors:
            raise SetupError(f"eval set-up dataset: {errors}")
        self._write_outputs(rng, splits["test"])

    def _write_outputs(self, rng: random.Random, test: list[dict]) -> None:
        by_format: dict[str, list[dict]] = {"mcq": [], "binary": [], "open": [], "caption": []}
        for item in sorted(test, key=lambda item: item["qa_id"]):
            by_format[item["format"]].append(item)
        vocab = sorted({item["answer"] for item in by_format["open"]})
        self.label_vocab = len(vocab)
        outputs: list[dict] = []
        expected: dict[str, dict] = {}
        self.caption_tokens = 0
        for fmt, task in (("mcq", "mcq"), ("binary", "binary"), ("open", "label_match"), ("caption", "caption")):
            items = by_format[fmt]
            if task == "caption":
                # leave out the shortest captions, so the METEOR work stays the same
                order = sorted(range(len(items)), key=lambda i: len(items[i]["answer"].split()))
                left_out = set(order[: EVAL_LEFT_OUT[task]])
            else:
                left_out = set(rng.sample(range(len(items)), EVAL_LEFT_OUT[task]))
            want = {"total": len(items), "missing": len(left_out), "correct": 0, "low": 0.0, "high": 0.0}
            for i, item in enumerate(items):
                if i in left_out:
                    continue
                right = rng.random() < 0.7
                if task == "mcq":
                    options = item["options"]
                    index = item["answer_index"] if right else rng.choice(
                        [k for k in range(len(options)) if k != item["answer_index"]])
                    text = _mcq_text(options, index, i)
                elif task == "binary":
                    answer = item["answer"] if right else ("No" if item["answer"] == "Yes" else "Yes")
                    text = (f"{answer}.", f"{answer}, as far as I can hear.")[i % 2]
                elif task == "label_match":
                    text = item["answer"] if right else rng.choice([v for v in vocab if v != item["answer"]])
                else:
                    text = self.paraphrase[item["audio_id"]]
                    low, high = checks.meteor_bounds(text, item["answer"])
                    want["low"] += low
                    want["high"] += high
                    self.caption_tokens += len(checks.tokens(text)) + len(checks.tokens(item["answer"]))
                want["correct"] += right
                outputs.append({"qa_id": item["qa_id"], "text": text})
            if items:
                expected[task] = want
        rng.shuffle(outputs)
        inputs.write_jsonl(self.b.work / "outputs.jsonl", outputs)
        baseline = {"tasks": {task: {"mean": mean, "total": 100} for task, mean in EVAL_BASELINE.items()}}
        inputs.write_json(self.b.work / "baseline.json", baseline)
        self.expected = expected

    def round(self, r: int, spans_dir: Path | None = None) -> list[Cmd]:
        b = self.b
        cmd = b.cli("eval", ["eval", "--task", "all", "--items", "setup/ds/test", "--outputs", "outputs.jsonl",
                             "--baseline", "baseline.json", "--out", f"r{r}/report.json"],
                    spans_dir / "eval.json" if spans_dir else None)
        errors: list[tuple[str, str]] = []
        if cmd.rc == 0:
            report = json.loads((b.work / f"r{r}" / "report.json").read_text("utf-8"))
            errors = [("eval", e) for e in checks.check_eval_report(report, self.expected, EVAL_BASELINE)]
            errors += _summary_errors(cmd, total=sum(want["total"] for want in self.expected.values()))
        b.record([cmd], errors)
        return [cmd]

    def layer_counts(self) -> dict:
        return {
            "evalharness.label_vocab": self.label_vocab,
            "evalharness.caption_tokens": self.caption_tokens,
            "assembly.import_s": _span_sum(self.setup_spans, "assembly.import_external"),
        }

    def probes(self, spans_dir: Path) -> dict:
        return {}


# ---------------------------------------------------------------------------
# llm: generate-llm on an empty cache, then again on the warm cache


def _endpoint(url: str, path: str, post: bool = False) -> dict:
    import urllib.request  # only llm needs it; set-up time counts imports

    request = urllib.request.Request(url + path, data=b"{}" if post else None, method="POST" if post else "GET")
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


class LlmWorkload:
    def __init__(self, bench: Bench):
        self.b = bench

    def setup(self, traced: bool) -> None:
        b = self.b
        rng = random.Random(b.seed)
        clips = []
        genres = ("rock", "jazz", "folk", "techno", "soul", "ambient", "classical", "reggae")
        for n in range(LLM_CLIPS):
            source = inputs.SOURCES[n % len(inputs.SOURCES)]
            if n % LLM_NO_CONTEXT_EVERY == 5:
                clips.append(inputs.clip_record(f"lclip-{n:05d}", source, []))
                continue
            metadata = {"track": f"T{n:05d}"}
            if n % 3:
                metadata["genre"] = rng.choice(genres)
                metadata["tempo_bpm"] = str(rng.randint(60, 180))
            caption = inputs.caption_pair(rng, rng.randint(10, 40), str(n))[0] if n % 4 else None
            clips.append(inputs.clip_record(f"lclip-{n:05d}", source, [], caption, metadata))
        inputs.write_jsonl(b.work / "manifest.jsonl", clips)
        self.expect = {
            "prompts": sum(1 for c in clips if "metadata" in c or "caption" in c),
            "no_context": sum(1 for c in clips if "metadata" not in c and "caption" not in c),
        }
        self.url = b.start_endpoint()
        self.retries = self.requests_cold = self.requests_warm = 0

    def _config(self, r: int) -> str:
        config = {
            "manifests": ["manifest.jsonl"],
            "out_dir": f"r{r}",
            "cache_dir": f"r{r}/cache",
            "llm": {
                "base_url": self.url,
                "model": "bench-annotator",
                "concurrency": WORKERS,
                "backoff_base_s": 0.005,
                "backoff_cap_s": 0.05,
                "max_retries": 3,
                "timeout_s": 30,
            },
        }
        (self.b.work / f"r{r}").mkdir(parents=True, exist_ok=True)
        inputs.write_json(self.b.work / f"r{r}" / "config.json", config)
        return f"r{r}/config.json"

    def round(self, r: int, spans_dir: Path | None = None) -> list[Cmd]:
        b = self.b
        config = self._config(r)
        spans = (lambda name: spans_dir / f"{name}.json") if spans_dir else (lambda name: None)
        # the reset zeroes the endpoint's counts, and its 503s come back
        _endpoint(self.url, "/reset", post=True)
        cold = b.cli("generate_llm_cold", ["generate-llm", "--config", config, "--out", f"r{r}/cold.jsonl"],
                     spans("generate_llm_cold"))
        middle = _endpoint(self.url, "/stats")
        warm = b.cli("generate_llm_warm", ["generate-llm", "--config", config, "--out", f"r{r}/warm.jsonl"],
                     spans("generate_llm_warm"))
        after = _endpoint(self.url, "/stats")
        served_cold, served_warm = middle, _delta(after, middle)
        self.requests_cold, self.requests_warm = served_cold["requests"], served_warm["requests"]
        self.retries = served_cold["injected_503"]
        errors: list[tuple[str, str]] = []
        out = b.work / f"r{r}"
        for cmd, served, warm_pass in ((cold, served_cold, False), (warm, served_warm, True)):
            if cmd.rc != 0:
                continue
            if cmd.summary is None:
                errors.append((cmd.name, "no JSON summary on stdout"))
                continue
            report = json.loads((out / f"{'warm' if warm_pass else 'cold'}.jsonl.report.json").read_text("utf-8"))
            expect = dict(self.expect, cold_served=served_cold)
            errors += [(cmd.name, e) for e in checks.check_llm_pass(cmd.summary, report, served, expect, warm_pass)]
        if cold.rc == 0 and warm.rc == 0 and (out / "cold.jsonl").read_bytes() != (out / "warm.jsonl").read_bytes():
            errors.append(("generate_llm_warm", "warm item file differs from the cold one"))
        b.record([cold, warm], errors)
        return [cold, warm]

    def layer_counts(self) -> dict:
        return {
            "llmgen.requests_cold": self.requests_cold,
            "llmgen.requests_warm": self.requests_warm,
            "llmgen.retries": self.retries,
        }

    def probes(self, spans_dir: Path) -> dict:
        return {}


WORKLOADS = {"build": BuildWorkload, "eval": EvalWorkload, "llm": LlmWorkload}


# ---------------------------------------------------------------------------
# Metrics


def _round_metrics(cmds: list[Cmd]) -> dict:
    return {
        "wall_s": cmds[-1].end - cmds[0].start,
        "cpu_s": sum(cmd.cpu_s for cmd in cmds),
        "peak_rss_mb": max(cmd.rss_mb for cmd in cmds),
    }


def _span_sum(doc: dict | None, name: str) -> float:
    if not doc:
        return 0.0
    return sum(end - start for span_name, start, end, _ in doc["spans"] if span_name == name)


def _self_time(doc: dict) -> float:
    """The root span minus the part of it that its child spans cover."""
    spans = doc["spans"]
    root = next(i for i, span in enumerate(spans) if span[0] == "cli")
    _, start, end, _ = spans[root]
    covered, cursor = 0.0, start
    for child_start, child_end in sorted((s[1], s[2]) for s in spans if s[3] == root):
        child_start, child_end = max(child_start, cursor), min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


# per-layer metric -> the span names whose durations it sums
LAYER_SPANS = {
    "corpus.load_s": ("ontology.parse_ontology", "corpus.load_manifest", "corpus.filter_music_clips",
                      "corpus.compute_label_frequencies"),
    "rulegen.init_s": ("rulegen.init",),
    "rulegen.generate_w2_s": ("rulegen.generate_w2",),
    "assembly.encode_s": ("assembly.write_items_jsonl",),
    "assembly.decode_s": ("assembly.read_items_jsonl",),
    "assembly.dedup_s": ("assembly.deduplicate",),
    "assembly.split_s": ("assembly.split_by_audio",),
    "assembly.stats_s": ("assembly.compute_stats",),
    "assembly.write_shards_s": ("assembly.write_shards",),
    "assembly.read_shards_s": ("assembly.read_shards",),
    "llmgen.validate_s": ("llmgen.validate_qa_item",),
    "llmgen.prompt_s": ("llmgen.build_prompt",),
    "llmgen.parse_s": ("llmgen.parse_llm_output",),
    "evalharness.load_outputs_s": ("evalharness.load_outputs_jsonl",),
    "evalharness.mcq_s": ("evalharness.score_mcq",),
    "evalharness.binary_s": ("evalharness.score_binary",),
    "evalharness.label_match_s": ("evalharness.score_label_match",),
    "evalharness.caption_s": ("evalharness.score_captions",),
}
PROGRAM_COUNTS = ("corpus.clips_kept", "rulegen.items", "rulegen.binary_fallbacks", "assembly.jsonl_mb",
                  "assembly.dedup_kept", "assembly.dedup_dropped", "assembly.shard_mb", "llmgen.items",
                  "llmgen.rejected", "evalharness.items_scored")
# counted by the benchmark, or timed in set-up and probe commands
OTHER_LAYER_VALUES = ("rulegen.open_ambiguous", "rulegen.generate_w1_s", "assembly.import_s",
                      "llmgen.requests_cold", "llmgen.requests_warm", "llmgen.retries",
                      "evalharness.label_vocab", "evalharness.caption_tokens")
CLI_COMMANDS = ("generate_rule", "assemble", "validate", "eval", "generate_llm_cold", "generate_llm_warm")


def layer_metrics(workload, untraced: list[list[Cmd]], traced: list[list[Cmd]], startup: float) -> dict:
    """Per-layer values from the last traced round, beside both rounds' walls."""
    spans = {cmd.name: cmd.spans for cmd in traced[-1] if cmd.spans}
    values: dict[str, float] = {name: 0.0 for name in (*LAYER_SPANS, *PROGRAM_COUNTS, *OTHER_LAYER_VALUES)}
    for doc in spans.values():
        for metric, names in LAYER_SPANS.items():
            values[metric] += sum(_span_sum(doc, name) for name in names)
        for name in PROGRAM_COUNTS:
            values[name] += doc["counts"].get(name, 0)
    values["llmgen.call_cold_s"] = _span_sum(spans.get("generate_llm_cold"), "llmgen.call")
    values["llmgen.call_warm_s"] = _span_sum(spans.get("generate_llm_warm"), "llmgen.call")
    for name in CLI_COMMANDS:
        values[f"cli.{name}_s"] = _span_sum(spans.get(name), "cli")
        values[f"cli.{name}_self_s"] = _self_time(spans[name]) if name in spans else 0.0
    values.update(workload.layer_counts())
    values["assembly.rss_mb"] = next((cmd.rss_mb for cmd in untraced[-1] if cmd.name == "assemble"), 0.0)
    values["cli.startup_s"] = startup
    values["trace.untraced_wall_s"] = statistics.median(_round_metrics(cmds)["wall_s"] for cmds in untraced)
    values["trace.wall_s"] = statistics.median(_round_metrics(cmds)["wall_s"] for cmds in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def _startup(bench: Bench) -> float:
    """Median wall of a CLI process that imports the package and does no work."""
    walls = []
    for k in range(3):
        cmd = bench.cli(f"startup{k}", ["--help"])
        walls.append(cmd.end - cmd.start)
    return statistics.median(walls)


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "musicqa" / "cli.py").is_file():
        print(f"error: no musicqa package under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](bench)
    try:
        workload.setup(traced=bool(args.trace))
        if args.trace:
            spans_dir = bench.work / "spans"
            spans_dir.mkdir()
            # untraced and traced rounds alternate, so neither gets the cold first round alone
            untraced, traced = [], []
            for r in range(TRACE_PAIRS):
                untraced.append(workload.round(2 * r))
                traced.append(workload.round(2 * r + 1, spans_dir))
            metrics = layer_metrics(workload, untraced, traced, _startup(bench))
            metrics.update(workload.probes(spans_dir))
        else:
            rounds: list[list[Cmd]] = []
            while True:
                rounds.append(workload.round(len(rounds)))
                shutil.rmtree(bench.work / f"r{len(rounds) - 1}", ignore_errors=True)
                elapsed = rounds[-1][-1].end - rounds[0][0].start
                if elapsed >= args.seconds or bench.failed or time.perf_counter() - T_START > HARD_LIMIT_S / 2:
                    break
            per_round = [_round_metrics(cmds) for cmds in rounds]
            for r, m in enumerate(per_round):
                print(f"round {r}: " + " ".join(f"{k}={v:.4f}" for k, v in m.items()), file=sys.stderr)
            metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
            metrics["setup_s"] = rounds[0][0].start - T_START
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        bench.close()

    for message in bench.exit_errors[:10] + bench.check_errors[:20]:
        print(f"failed: {message}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]:14.6f} {_unit(name)}", file=sys.stderr)
    result = {
        # false when a check found a wrong output; a command that only exited
        # non-zero is counted in "failed"
        "correct": not bench.check_errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
