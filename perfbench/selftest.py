"""Tests that each output check of the benchmark can fail.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  The
build checks run on a small dataset that the program itself generates;
each test then breaks one thing in it and expects the check to say so.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

RATIOS = (0.8, 0.1, 0.1)


def _musicqa(work: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run([sys.executable, "-m", "musicqa", *args], cwd=work, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class BuildChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (HERE / ".work").mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=HERE / ".work")
        work = cls.work = Path(cls._tmp.name)
        cls.onto = inputs.build_ontology()
        cls.clips = inputs.rule_manifest(cls.onto, random.Random(5), [f"c{n:04d}" for n in range(120)])
        inputs.write_json(work / "ontology.json", cls.onto.nodes)
        inputs.write_json(work / "templates.json", inputs.TEMPLATES)
        inputs.write_jsonl(work / "manifest.jsonl", cls.clips)
        inputs.write_json(work / "config.json", {
            "ontology": "ontology.json", "templates": "templates.json", "manifests": ["manifest.jsonl"],
            "seed": 5, "plan": {"open": 2, "binary": 2, "mcq": 2}, "split": list(RATIOS), "shard_size": 100,
        })
        _musicqa(work, "generate-rule", "--config", "config.json", "--out", "rule.jsonl")
        _musicqa(work, "assemble", "--config", "config.json", "--out", "ds", "rule.jsonl")
        cls.items = checks.read_jsonl(work / "rule.jsonl")

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def test_generated_items_pass(self):
        self.assertEqual(checks.check_rule_items(self.items, self.clips, self.onto), [])
        splits, errors = checks.read_dataset(self.work / "ds")
        self.assertEqual(errors, [])
        self.assertEqual(checks.check_splits(splits, RATIOS), [])
        self.assertEqual(sum(len(s) for s in splits.values()), checks.distinct_pairs(self.items))

    def test_flipped_gold_answer_is_caught(self):
        for fmt in ("binary", "mcq", "open"):
            items = copy.deepcopy(self.items)
            item = next(item for item in items if item["format"] == fmt)
            if fmt == "binary":
                item["answer"] = "No" if item["answer"] == "Yes" else "Yes"
            elif fmt == "mcq":
                item["answer_index"] = (item["answer_index"] + 1) % len(item["options"])
            else:
                item["answer"] = "Kwaito" if item["answer"] != "Kwaito" else "Gong"
            with self.subTest(fmt=fmt):
                self.assertNotEqual(checks.check_rule_items(items, self.clips, self.onto), [])

    def test_missing_clip_is_caught(self):
        audio_id = self.items[0]["audio_id"]
        items = [item for item in self.items if item["audio_id"] != audio_id]
        self.assertNotEqual(checks.check_rule_items(items, self.clips, self.onto), [])

    def test_edited_shard_byte_is_caught(self):
        shard = self.work / "ds" / "train" / "shard-00000.jsonl"
        original = shard.read_bytes()
        try:
            data = bytearray(original)
            data[10] = ord("0") if data[10] != ord("0") else ord("1")
            shard.write_bytes(bytes(data))
            _, errors = checks.read_dataset(self.work / "ds")
            self.assertTrue(any("digest" in e for e in errors), errors)
        finally:
            shard.write_bytes(original)

    def test_leaked_audio_id_is_caught(self):
        splits, _ = checks.read_dataset(self.work / "ds")
        splits = copy.deepcopy(splits)
        splits["test"].append(dict(splits["train"][0]))
        self.assertNotEqual(checks.check_splits(splits, RATIOS), [])


class EvalChecks(unittest.TestCase):
    expected = {
        "mcq": {"total": 10, "missing": 1, "correct": 7},
        "caption": {"total": 4, "missing": 1, "low": 0.4, "high": 1.0},
    }
    baseline = {"mcq": 0.5, "caption": 0.25}

    def report(self, mcq_mean=0.7, caption_mean=0.2):
        return {
            "tasks": {
                "mcq": {"total": 10, "missing": 1, "mean": mcq_mean},
                "caption": {"total": 4, "missing": 1, "mean": caption_mean},
            },
            "relative_to_baseline": {
                "mcq": round(100 * mcq_mean / 0.5, 1),
                "caption": round(100 * caption_mean / 0.25, 1),
            },
        }

    def test_right_report_passes(self):
        self.assertEqual(checks.check_eval_report(self.report(), self.expected, self.baseline), [])

    def test_wrong_task_mean_is_caught(self):
        self.assertNotEqual(checks.check_eval_report(self.report(mcq_mean=0.6), self.expected, self.baseline), [])

    def test_caption_mean_out_of_bounds_is_caught(self):
        self.assertNotEqual(checks.check_eval_report(self.report(caption_mean=0.3), self.expected, self.baseline), [])

    def test_wrong_relative_figure_is_caught(self):
        report = self.report()
        report["relative_to_baseline"]["mcq"] += 0.1
        self.assertNotEqual(checks.check_eval_report(report, self.expected, self.baseline), [])

    def test_meteor_bounds_hold_on_the_hand_example(self):
        # 6 matches in 2 chunks: fmean = 1, penalty = 0.5 (2/6)^3
        low, high = checks.meteor_bounds("the cat sat on the mat", "on the mat the cat sat")
        score = 1.0 * (1 - 0.5 * (2 / 6) ** 3)
        self.assertTrue(low <= score <= high)


class LlmChecks(unittest.TestCase):
    cold = {"requests": 12, "injected_503": 2, "valid": 30, "malformed": 4}
    expect = {"prompts": 10, "no_context": 3, "cold_served": cold}
    summary = {"items": 30}
    report = {"rejected": 4, "skipped_no_context": 3, "failures": []}

    def test_right_passes_pass(self):
        self.assertEqual(checks.check_llm_pass(self.summary, self.report, self.cold, self.expect, warm=False), [])
        warm = {"requests": 0, "injected_503": 0, "valid": 0, "malformed": 0}
        self.assertEqual(checks.check_llm_pass(self.summary, self.report, warm, self.expect, warm=True), [])

    def test_nonzero_warm_request_count_is_caught(self):
        warm = {"requests": 1, "injected_503": 0, "valid": 2, "malformed": 0}
        self.assertNotEqual(checks.check_llm_pass(self.summary, self.report, warm, self.expect, warm=True), [])

    def test_lost_item_is_caught(self):
        self.assertNotEqual(checks.check_llm_pass({"items": 29}, self.report, self.cold, self.expect, warm=False), [])

    def test_unexplained_request_is_caught(self):
        served = dict(self.cold, requests=13)
        self.assertNotEqual(checks.check_llm_pass(self.summary, self.report, served, self.expect, warm=False), [])


if __name__ == "__main__":
    unittest.main()
