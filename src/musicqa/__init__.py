"""Toolchain for synthesizing music-grounded QA datasets and scoring model outputs."""

__version__ = "0.1.0"

# each public name and the module that defines it; a name is imported on
# first use, so importing the package, or one of its modules, loads no other
_EXPORTS = {
    "ClipRecord": "corpus",
    "LabelFrequencyTable": "corpus",
    "Source": "corpus",
    "MusicQaError": "errors",
    "ParseError": "errors",
    "Method": "items",
    "QAFormat": "items",
    "QAItem": "items",
    "Ontology": "ontology",
    "OntologyNode": "ontology",
    "leaf_labels": "ontology",
    "parent_categories": "ontology",
    "parse_ontology": "ontology",
    "FormatPlan": "rulegen",
    "QuestionTemplate": "rulegen",
    "generate_rule_dataset": "rulegen",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
