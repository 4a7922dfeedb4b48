"""Triple-store knowledge graph: taxonomy distances and hop neighborhoods.

The graph is immutable after load. Triples live in a flat set; a
designated predicate (default "isa") carries the taxonomy, which must be
a DAG. Concept ids are normalized labels, so they are stable across runs
for identical input files.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    GraphFormatError,
    TaxonomyCycleError,
    UnknownConceptError,
    ValidationError,
)
from .storage import read_text
from .text import normalize_label

DEFAULT_TAXONOMY_PREDICATE = "isa"


@dataclass(frozen=True)
class Concept:
    id: str
    label: str


@dataclass(frozen=True, order=True)
class Triple:
    subject: str
    predicate: str
    object: str


class KnowledgeGraph:
    """Immutable directed labeled triple store with a taxonomy sub-relation."""

    def __init__(self, triples, concepts, taxonomy_predicate=DEFAULT_TAXONOMY_PREDICATE):
        self.triples: frozenset[Triple] = frozenset(triples)
        self.concepts: dict[str, Concept] = dict(concepts)
        self.taxonomy_predicate = taxonomy_predicate
        for t in self.triples:
            if t.subject not in self.concepts or t.object not in self.concepts:
                raise ValidationError(f"triple references unknown concept: {t}")
        # Undirected adjacency over all predicates; directed child->parents
        # index over the taxonomy predicate only.
        self._neighbors: dict[str, set[str]] = {c: set() for c in self.concepts}
        self._parents: dict[str, set[str]] = {c: set() for c in self.concepts}
        for t in self.triples:
            self._neighbors[t.subject].add(t.object)
            self._neighbors[t.object].add(t.subject)
            if t.predicate == self.taxonomy_predicate:
                if t.subject == t.object:
                    raise TaxonomyCycleError([self.concepts[t.subject].label])
                self._parents[t.subject].add(t.object)
        cycle = _find_cycle(self._parents)
        if cycle is not None:
            raise TaxonomyCycleError([self.concepts[c].label for c in cycle])

    @classmethod
    def from_labeled_triples(cls, rows, taxonomy_predicate=DEFAULT_TAXONOMY_PREDICATE):
        """Build a graph from (subject_label, predicate, object_label) rows."""
        concepts: dict[str, Concept] = {}

        def intern(label: str) -> str:
            cid = normalize_label(label)
            if not cid:
                raise ValidationError("empty concept label")
            if cid not in concepts:
                concepts[cid] = Concept(cid, label.strip())
            return cid

        triples = set()
        for subject, predicate, obj in rows:
            predicate = normalize_label(predicate)
            if not predicate:
                raise ValidationError("empty predicate")
            triples.add(Triple(intern(subject), predicate, intern(obj)))
        return cls(triples, concepts, taxonomy_predicate)

    def has_concept(self, concept_id: str) -> bool:
        return concept_id in self.concepts

    def neighbors(self, concept_id: str) -> set[str]:
        return self._neighbors[concept_id]

    def predicates(self) -> set[str]:
        return {t.predicate for t in self.triples}

    def taxonomy_depth(self) -> int:
        """Length of the longest child-to-ancestor chain."""
        depth: dict[str, int] = {}

        def resolve(node: str) -> int:
            stack = [node]
            while stack:
                cur = stack[-1]
                if cur in depth:
                    stack.pop()
                    continue
                pending = [p for p in self._parents[cur] if p not in depth]
                if pending:
                    stack.extend(pending)
                    continue
                parents = self._parents[cur]
                depth[cur] = 1 + max((depth[p] for p in parents), default=-1)
                stack.pop()
            return depth[node]

        return max((resolve(c) for c in self.concepts), default=0)


@dataclass
class SubKG:
    """Triple subset of a parent graph with per-concept hop depths."""

    parent: KnowledgeGraph
    triples: frozenset[Triple]
    frontier_depth: dict[str, int] = field(default_factory=dict)

    def concepts(self) -> set[str]:
        return set(self.frontier_depth)


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

    One triple per line: subject, predicate, object. Lines starting with
    "#" and blank lines are ignored. Duplicate triples collapse to one.
    """
    rows = []
    for line_number, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise GraphFormatError(
                path, line_number, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        subject, predicate, obj = (f.strip() for f in fields)
        if not subject or not predicate or not obj:
            raise GraphFormatError(path, line_number, "empty field")
        rows.append((subject, predicate, obj))
    return KnowledgeGraph.from_labeled_triples(rows, taxonomy_predicate)


def lcs_distance(kg: KnowledgeGraph, a: str, b: str):
    """Summed hop distance to the closest common taxonomy ancestor.

    Minimized over all common ancestors (the taxonomy is a DAG, so a
    concept may have several). Returns None when the two concepts share
    no ancestor. A concept is its own ancestor at distance 0.
    """
    for cid in (a, b):
        if not kg.has_concept(cid):
            raise UnknownConceptError(cid)
    da = _ancestor_depths(kg, a)
    db = _ancestor_depths(kg, b)
    common = da.keys() & db.keys()
    if not common:
        return None
    return min(da[c] + db[c] for c in common)


def _ancestor_depths(kg: KnowledgeGraph, start: str) -> dict[str, int]:
    depths = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for parent in kg._parents[node]:
            if parent not in depths:
                depths[parent] = depths[node] + 1
                queue.append(parent)
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
    unknown = [s for s in seeds if not kg.has_concept(s)]
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
