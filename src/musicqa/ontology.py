"""Hierarchical label ontology: parsing, leaf queries, parent lookups.

The ontology file is a JSON array of node objects, field-compatible with
the public AudioSet ontology release::

    [{"id": "/m/04rlf", "name": "Music", "child_ids": ["/m/042v_gx"],
      "abstract": false}, ...]

Nodes with an empty ``child_ids`` list are leaves.  Nodes flagged
``abstract`` stay in the graph but never count as leaf labels: they are
grouping devices, not audible classes.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .errors import DataError, ParseError


class CycleError(DataError):
    """The child relation contains a cycle."""


class DanglingRefError(DataError):
    """A child_ids entry references an id that is not in the file."""


class UnknownLabelError(DataError):
    """A label id was requested that the ontology does not contain."""


class NotALeafError(DataError):
    """The operation requires a leaf node but got an internal one."""


@dataclass(frozen=True)
class OntologyNode:
    id: str
    name: str
    child_ids: tuple[str, ...]
    is_abstract: bool = False

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids


@dataclass
class Ontology:
    """Validated label taxonomy.  Immutable after construction."""

    nodes: dict[str, OntologyNode]
    roots: tuple[str, ...]
    # id -> direct parent ids, sorted lexicographically
    parents: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def node(self, label_id: str) -> OntologyNode:
        try:
            return self.nodes[label_id]
        except KeyError:
            raise UnknownLabelError(f"unknown label id {label_id!r}") from None

    def find_by_name(self, name: str) -> str:
        """Return the id of the first node (file order) with this display name."""
        for node in self.nodes.values():
            if node.name == name:
                return node.id
        raise UnknownLabelError(f"no node named {name!r}")


def parse_ontology(raw: bytes | str) -> Ontology:
    """Parse and validate an ontology JSON document.

    Raises ParseError on malformed JSON, missing fields or duplicate ids;
    DanglingRefError when child_ids point outside the file; CycleError when
    the child relation is not acyclic.
    """
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid ontology JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("ontology document must be a JSON array of node objects")

    nodes: dict[str, OntologyNode] = {}
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ParseError(f"node {i}: expected an object, got {type(entry).__name__}")
        try:
            node_id = entry["id"]
            name = entry["name"]
            child_ids = entry["child_ids"]
        except KeyError as exc:
            raise ParseError(f"node {i}: missing field {exc.args[0]!r}") from None
        if not isinstance(node_id, str) or not node_id:
            raise ParseError(f"node {i}: id must be a non-empty string")
        if not isinstance(name, str) or not name:
            raise ParseError(f"node {i} ({node_id}): name must be a non-empty string")
        if not isinstance(child_ids, list) or not all(isinstance(c, str) for c in child_ids):
            raise ParseError(f"node {i} ({node_id}): child_ids must be a list of strings")
        if node_id in nodes:
            raise ParseError(f"node {i}: duplicate id {node_id!r}")
        nodes[node_id] = OntologyNode(
            id=node_id,
            name=name,
            child_ids=tuple(child_ids),
            is_abstract=bool(entry.get("abstract", False)),
        )

    # the one pass that inverts the child relation: parents in file order
    parents: dict[str, list[str]] = {node_id: [] for node_id in nodes}
    for node in nodes.values():
        for child in node.child_ids:
            if child not in nodes:
                raise DanglingRefError(
                    f"node {node.id!r} references unknown child {child!r}"
                )
            parents[child].append(node.id)

    _check_acyclic(nodes, parents)

    return Ontology(
        nodes=nodes,
        roots=tuple(node_id for node_id, ids in parents.items() if not ids),
        parents={k: tuple(sorted(v)) for k, v in parents.items()},
    )


def _check_acyclic(nodes: dict[str, OntologyNode], parents: dict[str, list[str]]) -> None:
    # Kahn's algorithm: leftover in-degree means a cycle.
    indegree = {node_id: len(ids) for node_id, ids in parents.items()}
    queue = deque(node_id for node_id, deg in indegree.items() if deg == 0)
    seen = 0
    while queue:
        node_id = queue.popleft()
        seen += 1
        for child in nodes[node_id].child_ids:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if seen != len(nodes):
        cyclic = sorted(node_id for node_id, deg in indegree.items() if deg > 0)
        raise CycleError(f"child relation contains a cycle through {cyclic}")


def descendants(o: Ontology, subtree_root: str) -> set[str]:
    """All nodes reachable from subtree_root, the root included."""
    o.node(subtree_root)
    reached: set[str] = set()
    stack = [subtree_root]
    while stack:
        node_id = stack.pop()
        if node_id in reached:
            continue
        reached.add(node_id)
        stack.extend(o.nodes[node_id].child_ids)
    return reached


def leaf_labels(o: Ontology, subtree_root: str) -> set[str]:
    """Non-abstract leaves reachable from subtree_root (itself included)."""
    return {
        node_id
        for node_id in descendants(o, subtree_root)
        if o.nodes[node_id].is_leaf and not o.nodes[node_id].is_abstract
    }


def parent_categories(o: Ontology, leaf: str) -> list[str]:
    """All ancestors of a leaf, nearest first.

    Breadth-first over the inverted child relation; nodes at equal depth are
    ordered lexicographically by id so the result is deterministic.
    """
    node = o.node(leaf)
    if not node.is_leaf:
        raise NotALeafError(f"{leaf!r} has children and is not a leaf")
    out: list[str] = []
    seen = {leaf}
    frontier = [leaf]
    while frontier:
        next_frontier: set[str] = set()
        for node_id in frontier:
            for parent in o.parents.get(node_id, ()):
                if parent not in seen:
                    seen.add(parent)
                    next_frontier.add(parent)
        ordered = sorted(next_frontier)
        out.extend(ordered)
        frontier = ordered
    return out
