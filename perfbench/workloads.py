"""Seeded input generators for the benchmark's workloads.

Each generator writes a complete project (graph, corpora, train and eval
datasets, pipeline config) into a directory and returns the config path.
All draws come from named streams of the workload seed, and the config
names its inputs by relative path, so one seed gives byte-identical files
wherever they are written.

- sparse-signal: the program's own synthetic benchmark, with its documents,
  graph and corpora unchanged and a 3-epoch schedule instead of 8.
- wide-graph: thousands of two-token concepts in a taxonomy forest with
  cross-links, over corpora of 800 distinct tokens, and long eval
  documents. The dense co-occurrence matrix and its SVD dominate the
  build; concept linking and the knowledge embedding dominate the update
  cycle.
"""

from __future__ import annotations

import os

from kginfuse.config import PipelineConfig, emit_config
from kginfuse.datasets import read_labeled_tsv, write_labeled_tsv
from kginfuse.kg import load_graph
from kginfuse.rng import stream_rng
from kginfuse.storage import atomic_write_text
from kginfuse.synth import generate_benchmark
from kginfuse.text import tokenize

# sparse-signal: training epochs; a training run is long enough to be
# measured, and short enough that a run holds several.
SPARSE_EPOCHS = 3

# wide-graph: vocabulary, concepts, taxonomy roots, train and eval documents.
VOCAB = 800
CONCEPTS = 2000
ROOTS = 6
TRAIN_DOCS = 400
TEST_DOCS = 100

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "kl", "pr", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u")


def generate(workload: str, out_dir: str, seed: int) -> str:
    """Write the named workload's inputs into out_dir; return the config path."""
    if workload == "sparse-signal":
        return generate_benchmark(out_dir, seed=seed, epochs=SPARSE_EPOCHS).config
    if workload == "wide-graph":
        return generate_wide_graph(out_dir, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _words(rng, n: int) -> list:
    """n distinct three-syllable tokens, in draw order."""
    per_syllable = len(_ONSETS) * len(_VOWELS)
    codes = rng.choice(per_syllable ** 3, size=n, replace=False)
    words = []
    for code in codes:
        parts = []
        for _ in range(3):
            code, syl = divmod(int(code), per_syllable)
            onset, vowel = divmod(syl, len(_VOWELS))
            parts.append(_ONSETS[onset] + _VOWELS[vowel])
        words.append("".join(parts))
    return words


def _forest(rng, n: int, roots: int) -> list:
    """Parent index per node (-1 for a root): random recursive trees."""
    parents = [-1] * roots
    members = [[r] for r in range(roots)]
    for node in range(roots, n):
        tree = members[int(rng.integers(roots))]
        parents.append(tree[int(rng.integers(len(tree)))])
        tree.append(node)
    return parents


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _labeled_docs(rng, n: int, pools: dict, make, p_own: float, contrary: float = 0.0):
    """n documents, alternately positive and negative, in shuffled order.

    make(own, other, p) draws a document whose units come from the own
    class's pool with probability p. The first ``contrary`` share of the
    documents draws only from the other class, so any model that learned
    the classes misclassifies them.
    """
    rows = []
    for i in range(n):
        label, other = ("pos", "neg") if i % 2 == 0 else ("neg", "pos")
        p = 0.0 if i < contrary * n else p_own
        rows.append((label, make(pools[label], pools[other], p)))
    return [rows[int(i)] for i in rng.permutation(n)]


def _tree_of(parents: list) -> list:
    """Root index per node; every parent precedes its children."""
    tree = []
    for node, parent in enumerate(parents):
        tree.append(node if parent < 0 else tree[parent])
    return tree


def _write_project(out_dir: str, seed: int, kg_rows, corpora: dict, train, test) -> str:
    """Write the files and a config with a short (1 epoch x 25 iterations) schedule."""
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "kg.tsv"),
                      "".join(f"{s}\t{p}\t{o}\n" for s, p, o in kg_rows))
    for name, lines in corpora.items():
        atomic_write_text(os.path.join(out_dir, f"corpus_{name}.txt"), "\n".join(lines) + "\n")
    write_labeled_tsv(os.path.join(out_dir, "train.tsv"), train)
    write_labeled_tsv(os.path.join(out_dir, "test.tsv"), test)
    cfg = PipelineConfig(
        kg_path="kg.tsv",
        dataset_path="train.tsv",
        eval_dataset_path="test.tsv",
        corpora={name: f"corpus_{name}.txt" for name in corpora},
        target_class="pos",
        subkg_hops=2,
        window=4,
        d_sub={name: 6 for name in corpora},
        layers=2,
        hidden=6 * len(corpora),
        batch_size=16,
        lr=0.3,
        clip_norm=5.0,
        epsilon=1e-6,
        gate_lr=0.1,
        max_inner_iters=50,
        alpha=1.0,
        ridge=0.1,
        proximity_hops=2,
        mode="infused",
        seed=seed,
        out_dir="runs",
        compare_seeds=10,
        top_m=8,
        epochs=1,
        iters=25,
    )
    path = os.path.join(out_dir, "benchmark.cfg")
    atomic_write_text(path, emit_config(cfg))
    return path


def generate_wide_graph(out_dir: str, seed: int) -> str:
    """Thousands of two-token concepts in a forest with cross-links.

    Each tree draws its labels from its own slice of the vocabulary, so a
    token says which tree, and so which class, a mention comes from.
    """
    vocab, concepts, roots = VOCAB, CONCEPTS, ROOTS
    words = _words(stream_rng(seed, "graph.vocab"), vocab)
    rng = stream_rng(seed, "graph.kg")
    parents = _forest(rng, concepts, roots)
    tree = _tree_of(parents)
    slice_size = vocab // roots
    used = set()
    labels = []
    for c in range(concepts):
        base = tree[c] * slice_size
        while True:
            a, b = rng.choice(slice_size, size=2, replace=False)
            label = f"{words[base + int(a)]} {words[base + int(b)]}"
            if label not in used:
                used.add(label)
                labels.append(label)
                break
    rows = [(labels[c], "isa", labels[p]) for c, p in enumerate(parents) if p >= 0]
    for _ in range(concepts // 4):
        a, b = rng.choice(concepts, size=2, replace=False)
        rows.append((labels[int(a)], "related_to", labels[int(b)]))

    # A concept's label appears with its parent's label and three context
    # tokens: random ones in the lexical corpus, ones from the same class's
    # half of the vocabulary in the topical corpus.
    half = (roots // 2) * slice_size
    corpora = {}
    for dim in ("lexical", "topical"):
        crng = stream_rng(seed, f"graph.corpus.{dim}")
        lines = []
        for c in crng.permutation(concepts):
            anchor = labels[parents[c]] if parents[c] >= 0 else labels[int(crng.integers(concepts))]
            if dim == "lexical":
                context = crng.integers(vocab, size=3)
            elif tree[c] < roots // 2:
                context = crng.integers(half, size=3)
            else:
                context = crng.integers(half, vocab, size=3)
            lines.append(f"{labels[c]} {anchor} " + " ".join(words[int(j)] for j in context))
        corpora[dim] = lines

    # Documents mention concepts from the positive trees (the first half of
    # the roots) or the negative ones, among random filler tokens. Training
    # documents are noisy; a fixed share of the eval documents mentions only
    # the other class's concepts, so the misclassified share, and with it the
    # update cycle's work, varies little with the seed.
    drng = stream_rng(seed, "graph.docs")
    pools = {"pos": [c for c in range(concepts) if tree[c] < roots // 2],
             "neg": [c for c in range(concepts) if tree[c] >= roots // 2]}

    def doc(own, other, p, mentions, fillers):
        # A mention keeps its two label tokens adjacent, so linking finds it.
        chunks = [labels[_pick(drng, own if drng.random() < p else other)]
                  for _ in range(mentions)]
        chunks.extend(_pick(drng, words) for _ in range(fillers))
        return " ".join(chunks[int(i)] for i in drng.permutation(len(chunks)))

    train = _labeled_docs(drng, TRAIN_DOCS, pools,
                          lambda own, other, p: doc(own, other, p, 3, 4), p_own=0.75)
    test = _labeled_docs(drng, TEST_DOCS, pools,
                         lambda own, other, p: doc(own, other, p, 6, 12), p_own=1.0,
                         contrary=0.3)
    return _write_project(out_dir, seed, rows, corpora, train, test)


def input_shape(cfg) -> dict:
    """Sizes of a generated project, read back from its files."""
    kg = load_graph(cfg.kg_path, taxonomy_predicate=cfg.taxonomy_predicate)
    taxonomy = [t for t in kg.triples if t.predicate == cfg.taxonomy_predicate]
    children = {t.subject for t in taxonomy}
    shape = {
        "concepts": len(kg.concepts),
        "triples": len(kg.triples),
        "taxonomy_roots": len({t.object for t in taxonomy} - children),
    }
    for name in sorted(cfg.corpora):
        with open(cfg.corpora[name], encoding="utf-8") as handle:
            shape[f"vocab.{name}"] = len({tok for line in handle for tok in tokenize(line)})
    for split, path in (("train", cfg.dataset_path), ("eval", cfg.eval_dataset_path)):
        rows = read_labeled_tsv(path)
        shape[f"{split}_docs"] = len(rows)
        shape[f"{split}_tokens_per_doc"] = sum(len(tokenize(t)) for _, t in rows) / len(rows)
    return shape
