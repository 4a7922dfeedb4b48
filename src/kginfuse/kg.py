"""Triple-store knowledge graph: taxonomy distances and hop neighborhoods.

The graph is immutable after load. Triples are named tuples in a flat
set; a designated predicate (default "isa") carries the taxonomy, which
must be a DAG. A concept is an id and a label: `concepts` maps each id,
a normalized label, to the first raw label seen for it, so ids are
stable across runs for identical input files; a load normalizes each
distinct raw label and predicate once. Because nothing changes after
load, the graph also caches what is derived from it: every label's
tokens (label_tokens, one tokenize_all pass on first need and the only
tokenization of labels, read by the token index, seeding and the concept
embedder alike), the index from label tokens to concept ids (built on
first use) and each concept's ancestor depths (computed on first query).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import (
    GraphFormatError,
    TaxonomyCycleError,
    UnknownConceptError,
    ValidationError,
)
from .storage import read_text
from .text import normalize_all, tokenize_all

DEFAULT_TAXONOMY_PREDICATE = "isa"


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


def make_triples(subjects, predicates, objects):
    """Triple(s, p, o) for each row of the columns, each built by
    tuple.__new__ without a Python call."""
    return map(tuple.__new__, itertools.repeat(Triple), zip(subjects, predicates, objects))


class KnowledgeGraph:
    """Immutable directed labeled triple store with a taxonomy sub-relation."""

    def __init__(self, triples, concepts, taxonomy_predicate=DEFAULT_TAXONOMY_PREDICATE):
        self.triples: frozenset[Triple] = frozenset(triples)
        self.concepts: dict[str, str] = dict(concepts)  # id -> first-seen label
        self.taxonomy_predicate = taxonomy_predicate
        # Undirected adjacency over all predicates; directed child->parents
        # index over the taxonomy predicate only.
        self._neighbors: dict[str, set[str]] = {c: set() for c in self.concepts}
        self._parents: dict[str, set[str]] = {c: set() for c in self.concepts}
        child_count = dict.fromkeys(self.concepts, 0)
        self_loop = None
        for t in self.triples:
            subject, predicate, obj = t
            if subject not in self.concepts or obj not in self.concepts:
                raise ValidationError(f"triple references unknown concept: {t}")
            self._neighbors[subject].add(obj)
            self._neighbors[obj].add(subject)
            if predicate == taxonomy_predicate:
                if subject == obj:
                    # Raised after the loop: an unknown concept is reported first.
                    if self_loop is None:
                        self_loop = subject
                    continue
                self._parents[subject].add(obj)
                child_count[obj] += 1
        if self_loop is not None:
            raise TaxonomyCycleError([self.concepts[self_loop]])
        # Kahn's pass: peel off concepts that no remaining child points at,
        # which orders every child before its parents. Only a cycle leaves
        # some behind; the DFS then names its members.
        self._children_first = [c for c, n in child_count.items() if not n]
        for node in self._children_first:
            for parent in self._parents[node]:
                child_count[parent] -= 1
                if not child_count[parent]:
                    self._children_first.append(parent)
        if len(self._children_first) < len(self.concepts):
            cycle = _find_cycle(self._parents)
            raise TaxonomyCycleError([self.concepts[c] for c in cycle])
        self._ancestors: dict[str, dict[str, int]] = {}

    @classmethod
    def from_labeled_triples(cls, rows, taxonomy_predicate=DEFAULT_TAXONOMY_PREDICATE):
        """Build a graph from (subject_label, predicate, object_label) rows:
        from_columns of their columns."""
        columns = tuple(zip(*rows, strict=True)) or ((), (), ())
        return cls.from_columns(*columns, taxonomy_predicate=taxonomy_predicate)

    @classmethod
    def from_columns(cls, subjects, predicates, objects,
                     taxonomy_predicate=DEFAULT_TAXONOMY_PREDICATE):
        """Build a graph from the columns of (subject_label, predicate,
        object_label) rows.

        A concept's id is its first-seen raw label normalized, and its
        label that raw label stripped. Each distinct raw label and
        predicate is normalized once, and every step takes a whole column.
        Of rows with an empty label or predicate, the first is named, its
        predicate before its labels.
        """
        raw = list(dict.fromkeys(itertools.chain.from_iterable(zip(subjects, objects))))
        ids = dict(zip(raw, normalize_all(raw)))  # raw label -> concept id
        # Ids in first-seen order; the reversed update writes each id's
        # first-seen label last.
        concepts = dict.fromkeys(ids.values())
        concepts.update(zip(reversed(list(ids.values())), reversed(list(map(str.strip, raw)))))
        normalized = normalize_all(predicates)
        if not all(concepts) or not all(normalized):
            for subject, predicate, obj in zip(subjects, normalized, objects):
                if not predicate:
                    raise ValidationError("empty predicate")
                if not ids[subject] or not ids[obj]:
                    raise ValidationError("empty concept label")
        triples = set(make_triples(map(ids.__getitem__, subjects), normalized,
                                   map(ids.__getitem__, objects)))
        return cls(triples, concepts, taxonomy_predicate)

    @cached_property
    def label_tokens(self) -> dict[str, tuple[str, ...]]:
        """Each concept's label tokens by id, from one tokenize_all pass:
        the one tokenization of labels, which linking, seeding and
        embedding all read."""
        return dict(zip(self.concepts, map(tuple, tokenize_all(list(self.concepts.values())))))

    @cached_property
    def token_index(self) -> dict[tuple[str, ...], list[str]]:
        """Concept ids by label tokens; a label with no tokens is left out.

        Two labels can tokenize alike ("red fox", "red-fox"), so each
        entry lists every id with those tokens.
        """
        index: dict[tuple[str, ...], list[str]] = {}
        for cid, tokens in self.label_tokens.items():
            if tokens:
                index.setdefault(tokens, []).append(cid)
        return index

    @cached_property
    def longest_label(self) -> int:
        """Token count of the longest label in token_index (0 if it is empty)."""
        return max(map(len, self.token_index), default=0)

    def predicates(self) -> set[str]:
        return {t.predicate for t in self.triples}

    def taxonomy_depth(self) -> int:
        """Length of the longest child-to-ancestor chain."""
        depth: dict[str, int] = {}
        for node in reversed(self._children_first):  # parents first
            depth[node] = 1 + max((depth[p] for p in self._parents[node]), default=-1)
        return max(depth.values(), default=0)


@dataclass
class SubKG:
    """Triple subset of a parent graph with per-concept hop depths."""

    parent: KnowledgeGraph
    triples: frozenset[Triple]
    frontier_depth: dict[str, int] = field(default_factory=dict)

    def concepts(self) -> set[str]:
        return set(self.frontier_depth)

    @cached_property
    def sorted_triples(self) -> list[Triple]:
        """The triples in sorted order, sorted on first need: the knowledge
        embedding adds its pair terms and the stored triples file lists
        its rows in this order."""
        return sorted(self.triples)


def _find_cycle(parents: dict[str, set[str]]):
    """Return the members of one directed cycle, or None if acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in parents}
    for root in parents:
        if color[root] != WHITE:
            continue
        path: list[str] = []
        stack = [(root, iter(sorted(parents[root])))]
        color[root] = GRAY
        path.append(root)
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GRAY:
                    return path[path.index(child):]
                if color[child] == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append((child, iter(sorted(parents[child]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def load_graph(path, taxonomy_predicate=DEFAULT_TAXONOMY_PREDICATE) -> KnowledgeGraph:
    """Load a graph from a tab-separated UTF-8 triple file.

    One triple per line: subject, predicate, object, each field stripped
    of surrounding whitespace. Lines starting with "#" (after leading
    whitespace) and blank lines are ignored. Duplicate triples collapse
    to one. The kept lines are split once, by column: one join and one
    split over all of them, whose columns go to from_columns. Only a file
    with a fault is rescanned row by row, to raise GraphFormatError naming
    its first faulty line.
    """
    lines = read_text(path).split("\n")
    kept = [line for line in lines if line.lstrip()[:1] not in ("", "#")]
    if set(map(str.count, kept, itertools.repeat("\t"))) <= {2}:
        cells = "\t".join(kept).split("\t") if kept else []
        # Fields go unstripped: from_columns strips the labels it keeps and
        # normalizes the rest. An empty or blank one goes to the rescan.
        if all(cells) and not any(map(str.isspace, cells)):
            return KnowledgeGraph.from_columns(cells[0::3], cells[1::3], cells[2::3],
                                               taxonomy_predicate)
    for line_number, line in enumerate(lines, start=1):
        head = line.lstrip()
        if not head or head.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise GraphFormatError(
                path, line_number, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        if not all(field.strip() for field in fields):
            raise GraphFormatError(path, line_number, "empty field")
    raise AssertionError(f"{path}: a column failed but no row does")


def lcs_distance(kg: KnowledgeGraph, a: str, b: str):
    """Summed hop distance to the closest common taxonomy ancestor.

    Minimized over all common ancestors (the taxonomy is a DAG, so a
    concept may have several). Returns None when the two concepts share
    no ancestor. A concept is its own ancestor at distance 0. An unknown
    concept raises UnknownConceptError.
    """
    da = _ancestor_depths(kg, a)
    db = _ancestor_depths(kg, b)
    if len(db) < len(da):
        da, db = db, da
    best = None
    for c, depth in da.items():
        if c in db and (best is None or depth + db[c] < best):
            best = depth + db[c]
    return best


def _ancestor_depths(kg: KnowledgeGraph, start: str) -> dict[str, int]:
    """Hop distance from start to each of its taxonomy ancestors, start included.

    Memoized on the graph; callers must not change the returned dict.
    """
    memo = kg._ancestors.get(start)
    if memo is not None:
        return memo
    if start not in kg.concepts:
        raise UnknownConceptError(start)
    depths = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for parent in kg._parents[node]:
            if parent not in depths:
                depths[parent] = depths[node] + 1
                queue.append(parent)
    kg._ancestors[start] = depths
    return depths


def n_hop_neighborhood(kg: KnowledgeGraph, seeds, n: int) -> SubKG:
    """Subgraph within n undirected hops of the seed set.

    A triple is included when both endpoints lie within n hops; with
    n = 0 that is exactly the triples among the seeds themselves.
    """
    seeds = set(seeds)
    if not seeds:
        raise ValidationError("seed set is empty")
    if n < 0:
        raise ValidationError("hop count must be >= 0")
    unknown = [s for s in seeds if s not in kg.concepts]
    if unknown:
        raise UnknownConceptError(unknown)
    depth = {s: 0 for s in seeds}
    queue = deque(sorted(seeds))
    while queue:
        node = queue.popleft()
        if depth[node] == n:
            continue
        for neighbor in kg._neighbors[node]:
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                queue.append(neighbor)
    triples = frozenset(
        t for t in kg.triples if t.subject in depth and t.object in depth
    )
    return SubKG(parent=kg, triples=triples, frontier_depth=depth)


def graph_stats(kg: KnowledgeGraph) -> dict:
    return {
        "concepts": len(kg.concepts),
        "triples": len(kg.triples),
        "predicates": len(kg.predicates()),
        "taxonomy_depth": kg.taxonomy_depth(),
    }


def format_stats(kg: KnowledgeGraph) -> str:
    stats = graph_stats(kg)
    return (
        "concepts: %(concepts)d\n"
        "triples: %(triples)d\n"
        "predicates: %(predicates)d\n"
        "taxonomy depth: %(taxonomy_depth)d\n" % stats
    )
