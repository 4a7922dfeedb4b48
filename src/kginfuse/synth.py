"""Synthetic sparse-signal benchmark.

Generates a two-class corpus in which each positive-class diagnostic
token is rare (it appears in at most ~2% of positive training documents)
but all diagnostic tokens sit within two hops of each other in a small
knowledge graph and share contexts in the embedding corpora. Weak,
mildly skewed tokens carry the rest of the signal, so a purely
distributional learner is imperfect and knowledge has room to help.

Everything is drawn from named streams of one seed; the generator is
deterministic and writes a ready-to-run pipeline config next to the data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, emit_config
from .datasets import write_labeled_tsv
from .rng import stream_rng
from .storage import atomic_write_text

DIAGNOSTIC_TOKENS = ("ember", "sable", "veil", "crescent", "lantern", "rook", "thorn", "gale")
WEAK_POSITIVE = ("surge", "rally", "alarm", "unrest")
WEAK_NEGATIVE = ("meadow", "picnic", "lullaby", "orchard")
FILLERS = ("day", "note", "river", "stone", "cloud", "door", "lamp", "path",
           "glass", "field", "house", "road")
CUE_TOKENS = ("omen", "ritual", "warning", "mark")

CALM_CONCEPTS = ("meadow", "picnic", "lullaby", "orchard", "brook", "garden",
                 "hammock", "teapot")
CRAFT_CONCEPTS = ("loom", "anvil", "kiln", "chisel", "bobbin", "crucible",
                  "plane", "awl")
TRAVEL_CONCEPTS = ("harbor", "caravan", "compass", "lodge", "ferry", "trailhead",
                   "waypoint", "hostel")
WEATHER_CONCEPTS = ("drizzle", "frost", "breeze", "haze", "thaw", "squall")

TRAIN_DOCS = 400
TEST_DOCS = 200
DIAGNOSTIC_RATE = 0.02
WEAK_SKEW = 0.95  # chance that a weak token comes from its document's own class
DOC_LENGTH = 6


@dataclass
class BenchmarkPaths:
    kg: str
    corpora: dict
    train: str
    test: str
    config: str


def generate_benchmark(out_dir, seed: int = 0, epochs: int = 8,
                       iters: int = 25) -> BenchmarkPaths:
    """Write the benchmark dataset, graphs, corpora, and config to out_dir."""
    os.makedirs(out_dir, exist_ok=True)

    kg_path = os.path.join(out_dir, "kg.tsv")
    atomic_write_text(kg_path, _kg_text())

    corpora = {
        "signal": os.path.join(out_dir, "corpus_signal.txt"),
        "general": os.path.join(out_dir, "corpus_general.txt"),
    }
    atomic_write_text(corpora["signal"], _signal_corpus(stream_rng(seed, "synth.signal")))
    atomic_write_text(corpora["general"], _general_corpus(stream_rng(seed, "synth.general")))

    train_path = os.path.join(out_dir, "train.tsv")
    test_path = os.path.join(out_dir, "test.tsv")
    write_labeled_tsv(train_path, _training_documents(stream_rng(seed, "synth.train")))
    write_labeled_tsv(test_path, _test_documents(stream_rng(seed, "synth.test")))

    def rel(path):
        # parse_config resolves config paths against the config's directory.
        return os.path.relpath(path, out_dir)

    cfg = PipelineConfig(
        kg_path=rel(kg_path),
        dataset_path=rel(train_path),
        eval_dataset_path=rel(test_path),
        corpora={name: rel(path) for name, path in corpora.items()},
        top_m=len(DIAGNOSTIC_TOKENS),
        d_sub={"signal": 6, "general": 6},
        hidden=12,
        epochs=epochs,
        iters=iters,
        batch_size=16,
        lr=0.3,
        epsilon=1e-6,
        seed=seed,
        out_dir="runs",
    )
    config_path = os.path.join(out_dir, "benchmark.cfg")
    atomic_write_text(config_path, emit_config(cfg))
    return BenchmarkPaths(kg_path, corpora, train_path, test_path, config_path)


def _kg_text() -> str:
    """About 50 concepts: a diagnostic cluster plus distractor subtrees."""
    rows = [("portent", "isa", "threat")]
    for tok in DIAGNOSTIC_TOKENS:
        rows.append((tok, "isa", "portent"))
    for a, b in zip(DIAGNOSTIC_TOKENS, DIAGNOSTIC_TOKENS[1:]):
        rows.append((a, "related_to", b))
    families = [
        ("calm", CALM_CONCEPTS),
        ("craft", CRAFT_CONCEPTS),
        ("travel", TRAVEL_CONCEPTS),
        ("weather", WEATHER_CONCEPTS),
    ]
    for family, members in families:
        rows.append((family, "isa", "scene"))
        for member in members:
            rows.append((member, "isa", family))
    rows.append(("warning", "isa", "portent"))
    return "".join(f"{s}\t{p}\t{o}\n" for s, p, o in rows)


def _signal_corpus(rng: np.random.Generator) -> str:
    """Ties every diagnostic token to shared cue contexts."""
    lines = []
    for tok in DIAGNOSTIC_TOKENS:
        for _ in range(6):
            cues = rng.choice(CUE_TOKENS, size=2, replace=False)
            filler = rng.choice(FILLERS)
            lines.append(f"{tok} {cues[0]} {cues[1]} {filler}")
    for tok in WEAK_POSITIVE:
        for _ in range(4):
            lines.append(f"{tok} stir {rng.choice(FILLERS)} crowd")
    for tok in WEAK_NEGATIVE + CALM_CONCEPTS:
        for _ in range(3):
            lines.append(f"{tok} rest {rng.choice(FILLERS)} quiet")
    order = rng.permutation(len(lines))
    return "\n".join(lines[i] for i in order) + "\n"


def _general_corpus(rng: np.random.Generator) -> str:
    """Broad-coverage contexts over every token family."""
    vocabulary = (DIAGNOSTIC_TOKENS + WEAK_POSITIVE + WEAK_NEGATIVE + FILLERS
                  + CUE_TOKENS + CALM_CONCEPTS + CRAFT_CONCEPTS + TRAVEL_CONCEPTS
                  + WEATHER_CONCEPTS + ("portent", "threat", "scene", "warning"))
    lines = []
    for tok in vocabulary:
        for _ in range(2):
            others = rng.choice(FILLERS, size=3, replace=False)
            lines.append(f"{tok} {' '.join(others)}")
    order = rng.permutation(len(lines))
    return "\n".join(lines[i] for i in order) + "\n"


def _weak_doc(rng, skewed, other):
    """Mildly class-skewed document built from weak and filler tokens."""
    words = []
    for _ in range(2):
        pool = skewed if rng.random() < WEAK_SKEW else other
        words.append(str(rng.choice(pool)))
    while len(words) < DOC_LENGTH:
        words.append(str(rng.choice(FILLERS)))
    rng.shuffle(words)
    return " ".join(words)


def _diagnostic_doc(rng, token):
    words = [token]
    while len(words) < DOC_LENGTH:
        words.append(str(rng.choice(FILLERS)))
    rng.shuffle(words)
    return " ".join(words)


def _training_documents(rng):
    per_class = TRAIN_DOCS // 2
    docs = []
    # Each diagnostic token is placed in at most DIAGNOSTIC_RATE of the
    # positive documents (2% of 200 -> 4 documents per token).
    per_token = max(1, int(per_class * DIAGNOSTIC_RATE))
    diag_docs = []
    for token in DIAGNOSTIC_TOKENS:
        for _ in range(per_token):
            diag_docs.append(("pos", _diagnostic_doc(rng, token)))
    for _ in range(per_class - len(diag_docs)):
        docs.append(("pos", _weak_doc(rng, WEAK_POSITIVE, WEAK_NEGATIVE)))
    docs.extend(diag_docs)
    for _ in range(per_class):
        docs.append(("neg", _weak_doc(rng, WEAK_NEGATIVE, WEAK_POSITIVE)))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


def _test_documents(rng):
    per_class = TEST_DOCS // 2
    docs = []
    # Most positive test documents carry only a sparse diagnostic token;
    # the benchmark probes whether the model catches them.
    n_diag = (per_class * 4) // 5
    for i in range(n_diag):
        token = DIAGNOSTIC_TOKENS[i % len(DIAGNOSTIC_TOKENS)]
        docs.append(("pos", _diagnostic_doc(rng, token)))
    for _ in range(per_class - n_diag):
        docs.append(("pos", _weak_doc(rng, WEAK_POSITIVE, WEAK_NEGATIVE)))
    for _ in range(per_class):
        docs.append(("neg", _weak_doc(rng, WEAK_NEGATIVE, WEAK_POSITIVE)))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]
