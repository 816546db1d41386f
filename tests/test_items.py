"""The item record's one home, and the package names that resolve to it.

Pickling a QAItem is covered in test_assembly.py.
"""

import sys

import musicqa
import musicqa.assembly
import musicqa.evalharness
import musicqa.items
import musicqa.llmgen
import musicqa.rulegen
from musicqa.items import Method, QAFormat, QAItem

PUBLIC = [
    "ClipRecord", "FormatPlan", "LabelFrequencyTable", "Method", "MusicQaError", "Ontology",
    "OntologyNode", "ParseError", "QAFormat", "QAItem", "QuestionTemplate", "Source",
    "__version__", "generate_rule_dataset", "leaf_labels", "parent_categories", "parse_ontology",
]


def test_package_names_resolve_to_their_defining_modules():
    assert sorted(musicqa.__all__) == PUBLIC
    for name in musicqa.__all__:
        if name == "__version__":
            continue
        obj = getattr(musicqa, name)
        assert obj.__module__.startswith("musicqa."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_item_names_are_one_object_everywhere():
    for module in (musicqa, musicqa.rulegen, musicqa.assembly, musicqa.evalharness,
                   musicqa.llmgen):
        assert module.QAItem is QAItem
        assert module.QAFormat is QAFormat
    for module in (musicqa, musicqa.rulegen, musicqa.assembly, musicqa.llmgen):
        assert module.Method is Method
    for name in ("validate_qa_item", "content_qa_id", "normalize_binary_answer"):
        assert getattr(musicqa.llmgen, name) is getattr(musicqa.items, name)
        assert getattr(musicqa.assembly, name) is getattr(musicqa.items, name)

