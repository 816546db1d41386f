import json

import pytest
from hypothesis import given, settings, strategies as st

from musicqa.errors import ParseError
from musicqa.ontology import (
    CycleError,
    DanglingRefError,
    NotALeafError,
    UnknownLabelError,
    descendants,
    leaf_labels,
    parent_categories,
    parse_ontology,
)

from conftest import FIXTURE_NODES, FIXTURE_LEAF_IDS


def test_parse_basic(fixture_ontology):
    o = fixture_ontology
    assert set(o.nodes) == {n["id"] for n in FIXTURE_NODES}
    assert o.roots == ("root",)
    assert o.node("ag").name == "Acoustic guitar"
    assert o.node("ag").is_leaf
    assert not o.node("strings").is_leaf
    assert o.node("root").is_abstract
    assert not o.node("music").is_abstract


def test_parents_inverted(fixture_ontology):
    o = fixture_ontology
    assert o.parents["ag"] == ("strings",)
    assert o.parents["instr"] == ("music",)
    assert "root" not in o.parents or o.parents.get("root") == ()


def test_find_by_name(fixture_ontology):
    assert fixture_ontology.find_by_name("Music") == "music"
    with pytest.raises(UnknownLabelError):
        fixture_ontology.find_by_name("nope")


def test_parse_rejects_cycle():
    nodes = [
        {"id": "a", "name": "A", "child_ids": ["b"]},
        {"id": "b", "name": "B", "child_ids": ["a"]},
    ]
    with pytest.raises(CycleError):
        parse_ontology(json.dumps(nodes))


def test_parse_rejects_dangling_child():
    nodes = [{"id": "a", "name": "A", "child_ids": ["missing"]}]
    with pytest.raises(DanglingRefError):
        parse_ontology(json.dumps(nodes))


def test_parse_rejects_duplicate_id():
    nodes = [
        {"id": "a", "name": "A", "child_ids": []},
        {"id": "a", "name": "A again", "child_ids": []},
    ]
    with pytest.raises(ParseError):
        parse_ontology(json.dumps(nodes))


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_ontology("{not json")


def ontology_json(o):
    """The JSON array parse_ontology reads, rebuilt from a parsed ontology."""
    return json.dumps([
        {"id": n.id, "name": n.name, "child_ids": list(n.child_ids),
         **({"abstract": True} if n.is_abstract else {})}
        for n in o.nodes.values()
    ])


def test_roundtrip_identity(fixture_ontology):
    again = parse_ontology(ontology_json(fixture_ontology))
    assert again.nodes == fixture_ontology.nodes
    assert again.roots == fixture_ontology.roots
    assert again.parents == fixture_ontology.parents


def test_descendants(fixture_ontology):
    d = descendants(fixture_ontology, "instr")
    assert d == {"instr", "strings", "ag", "eg", "piano", "drums"}


def test_leaf_labels_music_subtree(fixture_ontology):
    leaves = leaf_labels(fixture_ontology, "music")
    assert leaves == FIXTURE_LEAF_IDS
    for lid in leaves:
        assert fixture_ontology.node(lid).child_ids == ()


def test_leaf_labels_excludes_abstract():
    nodes = [
        {"id": "m", "name": "Music", "child_ids": ["a", "b"]},
        {"id": "a", "name": "Concrete", "child_ids": []},
        {"id": "b", "name": "Grouping", "child_ids": [], "abstract": True},
    ]
    o = parse_ontology(json.dumps(nodes))
    assert leaf_labels(o, "m") == {"a"}


def test_leaf_labels_unknown_root(fixture_ontology):
    with pytest.raises(UnknownLabelError):
        leaf_labels(fixture_ontology, "no-such-node")


def test_parent_categories_order(fixture_ontology):
    # nearest ancestors first; "Guitar" before "Musical instrument"
    cats = parent_categories(fixture_ontology, "ag")
    assert cats.index("strings") < cats.index("instr") < cats.index("music")
    assert cats[-1] == "root"


def test_parent_categories_rejects_non_leaf(fixture_ontology):
    with pytest.raises(NotALeafError):
        parent_categories(fixture_ontology, "strings")


def test_parent_categories_unknown(fixture_ontology):
    with pytest.raises(UnknownLabelError):
        parent_categories(fixture_ontology, "ghost")


def test_leaf_in_every_ancestor_subtree(fixture_ontology):
    # membership property: each ancestor's subtree contains the leaf
    for leaf in FIXTURE_LEAF_IDS:
        for anc in parent_categories(fixture_ontology, leaf):
            assert leaf in leaf_labels(fixture_ontology, anc)


# ---------------------------------------------------------------------------
# Property tests over randomly-shaped forests


@st.composite
def forests(draw):
    """Random DAG built by only linking later ids to earlier ones (acyclic)."""
    n = draw(st.integers(min_value=1, max_value=14))
    ids = [f"n{i}" for i in range(n)]
    nodes = []
    for i, nid in enumerate(ids):
        pool = ids[:i]
        kids = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)) if pool else []
        nodes.append({
            "id": nid,
            "name": f"Node {i}",
            "child_ids": kids,
            "abstract": draw(st.booleans()),
        })
    return nodes


@settings(max_examples=60, deadline=None)
@given(forests())
def test_roundtrip_random_forests(nodes):
    o = parse_ontology(json.dumps(nodes))
    again = parse_ontology(ontology_json(o))
    assert again.nodes == o.nodes
    assert again.roots == o.roots


@settings(max_examples=60, deadline=None)
@given(forests(), st.data())
def test_leaf_labels_structure_random(nodes, data):
    o = parse_ontology(json.dumps(nodes))
    root = data.draw(st.sampled_from(sorted(o.nodes)))
    leaves = leaf_labels(o, root)
    assert leaves <= set(o.nodes)
    for lid in leaves:
        node = o.node(lid)
        assert node.child_ids == ()
        assert not node.is_abstract


@settings(max_examples=60, deadline=None)
@given(forests(), st.data())
def test_ancestor_membership_random(nodes, data):
    o = parse_ontology(json.dumps(nodes))
    flat = sorted({lid for r in o.roots for lid in leaf_labels(o, r)})
    if not flat:
        return
    leaf = data.draw(st.sampled_from(flat))
    for anc in parent_categories(o, leaf):
        assert leaf in leaf_labels(o, anc)
