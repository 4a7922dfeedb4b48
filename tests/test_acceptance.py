"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them live). Criteria
with runtime bounds assert those bounds too.
"""

import math
import time
from dataclasses import replace

import numpy as np

from kginfuse.config import parse_config
from kginfuse.dke import differential_subkg, solve_mapping, update_seeded
from kginfuse.embedding import (
    DimensionModel,
    content_width,
    knowledge_embedding,
)
from kginfuse.infusion import (
    InfusionParams,
    fuse_step,
    kl_divergence,
    knowledge_infusion,
)
from kginfuse.infusion import gradient_check as fusion_gradient_check
from kginfuse.kg import KnowledgeGraph, lcs_distance, n_hop_neighborhood
from kginfuse.nlm import Batch, gradient_check, init_params
from kginfuse.pipeline import build, compare, train
from kginfuse.seeding import (
    SeededSubKG,
    corpus_stats,
    relevance_score,
)
from kginfuse.synth import generate_benchmark
from kginfuse.text import tokenize


def _report(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_lstm = 0.0
    for d in (4, 8):
        params = init_params(input_width=d, d=d, layers=2, n_classes=3, rng=rng)
        pairs = [
            (rng.normal(size=(int(rng.integers(2, 6)), d)), int(rng.integers(3)))
            for _ in range(3)
        ]
        batch = Batch.of([seq for seq, _ in pairs], [label for _, label in pairs])
        worst_lstm = max(worst_lstm, gradient_check(params, batch).max_relative_error)

    worst_fusion = 0.0
    for d in (3, 6):
        fusion = InfusionParams.init(d, rng)
        h = rng.normal(size=d)
        ke = rng.normal(size=d)
        worst_fusion = max(worst_fusion, fusion_gradient_check(h, ke, fusion))
    elapsed = time.monotonic() - started
    _report(
        1,
        f"gradients match finite differences (lstm {worst_lstm:.2e}, "
        f"fusion {worst_fusion:.2e}, {elapsed:.1f}s)",
        worst_lstm < 1e-4 and worst_fusion < 1e-4 and elapsed < 30.0,
    )


def test_criterion_2_kl_properties():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        p = rng.normal(scale=4, size=d)
        q = rng.normal(scale=4, size=d)
        kl = kl_divergence(p, q)
        ok &= kl >= 0.0
        shift = float(rng.normal())
        ok &= abs(kl_divergence(p + shift, q) - kl) <= 1e-12
        ok &= abs(kl_divergence(p, q + shift) - kl) <= 1e-12
        ok &= kl_divergence(p, p + shift) <= 1e-12  # equal softmaxes
        if kl <= 1e-12:
            sp = np.exp(p - np.logaddexp.reduce(p))
            sq = np.exp(q - np.logaddexp.reduce(q))
            ok &= bool(np.allclose(sp, sq, atol=1e-6))
    _report(2, "KL nonnegativity, identity, and softmax shift invariance "
               "over 10^4 random pairs", ok)


def test_criterion_3_infusion_loop_contract():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(120):
        d = int(rng.integers(2, 7))
        params = InfusionParams.init(d, np.random.default_rng(int(rng.integers(1 << 30))))
        settings = dict(gate_lr=float(rng.uniform(0.02, 0.5)),
                        epsilon=float(rng.uniform(1e-6, 1e-3)),
                        max_inner_iters=int(rng.integers(1, 60)))
        h, h_prev, k = (rng.normal(scale=2, size=d) for _ in range(3))
        result = knowledge_infusion(h, h_prev, k, params, **settings)
        ok &= result.exit_reason in ("epsilon", "iteration_bound")
        ok &= result.inner_iterations <= settings["max_inner_iters"]
        ok &= len(result.divergence_trace) == result.inner_iterations
        trace = [cur for _, cur in result.divergence_trace]
        ok &= all(later <= earlier + 1e-9 for earlier, later in zip(trace, trace[1:]))
        ok &= bool(np.all(np.isfinite(h * fuse_step(h, k, result.params))))
    elapsed = time.monotonic() - started
    _report(3, f"infusion loop terminates with monotone traces "
               f"(120 instances, {elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_4_mapping_solver():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(40):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        s = rng.normal(size=(d, k))
        dd = rng.normal(size=(d, k))
        sol = solve_mapping(s, dd, alpha=float(rng.uniform(0.3, 3.0)), ridge=0.1)
        ok &= sol.residual < 1e-8
    s = rng.normal(size=(5, 4))
    balanced = solve_mapping(s, s.copy(), alpha=1.0, ridge=0.1)
    ok &= float(np.linalg.norm(balanced.w)) < 1e-10
    _report(4, "mapping solver stationarity residual < 1e-8; balanced case "
               "collapses to the zero map", ok)


def _brute_relevance(label, dataset, target):
    docs = [(lbl, tokenize(text)) for lbl, text in dataset]
    vocab = {t for _, toks in docs for t in toks}
    t_total = sum(len(toks) for lbl, toks in docs if lbl == target)
    a_total = sum(len(toks) for _, toks in docs)
    score = 0.0
    for token in tokenize(label):
        ct = sum(toks.count(token) for lbl, toks in docs if lbl == target)
        ca = sum(toks.count(token) for _, toks in docs)
        p = (ct + 1) / (t_total + len(vocab))
        q = (ca + 1) / (a_total + len(vocab))
        score += p * math.log(p / q)
    return score


def _brute_ke(seeded, models):
    kg = seeded.subkg.parent
    total = np.zeros(content_width(models))
    pairs = 0
    for t in sorted(seeded.subkg.triples):
        vecs = []
        resolvable = True
        for cid in (t.subject, t.object):
            pieces = []
            hit = False
            for m in models:
                hits = [m.vectors[m.vocab[tok]]
                        for tok in sorted(tokenize(kg.concepts[cid]))
                        if tok in m.vocab]
                if hits:
                    pieces.append(np.mean(hits, axis=0))
                    hit = True
                else:
                    pieces.append(np.zeros(m.d_sub))
            if not hit:
                resolvable = False
                break
            vecs.append(np.concatenate(pieces))
        if not resolvable:
            continue
        dist = lcs_distance(kg, t.subject, t.object)
        if dist is None:
            dist = 0 if t.subject == t.object else 1
        total += (1.0 / (1.0 + dist)) * 0.5 * (vecs[0] + vecs[1])
        pairs += 1
    norm = np.linalg.norm(total)
    if pairs == 0 or norm == 0:
        return np.zeros_like(total), 0
    return total / norm, pairs


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(505)
    tokens = [f"w{i}" for i in range(10)]
    ok = True
    for trial in range(10):
        n = int(rng.integers(4, 11))
        names = tokens[:n]
        rows = []
        for child in range(1, n):
            parent = int(rng.integers(0, child))
            rows.append((names[child], "isa", names[parent]))
            if rng.random() < 0.4:
                other = int(rng.integers(0, n))
                rows.append((names[child], "related_to", names[other]))
        kg = KnowledgeGraph.from_labeled_triples(rows)

        dataset = []
        for _ in range(8):
            label = "pos" if rng.random() < 0.5 else "neg"
            doc = " ".join(rng.choice(names, size=int(rng.integers(1, 7))))
            dataset.append((label, doc))
        dataset.append(("pos", names[0]))
        dataset.append(("neg", names[-1]))
        stats = corpus_stats(dataset)

        for cid, label in kg.concepts.items():
            got = relevance_score(kg.label_tokens[cid], stats, "pos")
            want = _brute_relevance(label, dataset, "pos")
            ok &= abs(got - want) < 1e-12

        model = DimensionModel(
            "m", {t: i for i, t in enumerate(names)},
            rng.normal(size=(n, 3)), 3,
        )
        sub = n_hop_neighborhood(kg, set(kg.concepts), 1)
        seeded = SeededSubKG(sub, {})
        ke = knowledge_embedding(seeded.subkg, [model])
        want_ke, want_pairs = _brute_ke(seeded, [model])
        ok &= ke.pair_count == want_pairs
        ok &= bool(np.all(np.abs(ke.values - want_ke) < 1e-12))
    _report(5, "relevance scores and knowledge embeddings match brute-force "
               "recomputation within 1e-12", ok)


def test_criterion_6_dke_absorption():
    rng = np.random.default_rng(606)
    ok = True
    for trial in range(5):
        names = [f"c{i}" for i in range(12)]
        rows = [(names[i], "linked", names[i + 1]) for i in range(11)]
        rows.append((names[0], "isa", names[5]))
        kg = KnowledgeGraph.from_labeled_triples(rows)
        model = DimensionModel(
            "m", {t: i for i, t in enumerate(names)},
            rng.normal(size=(len(names), 3)), 3,
        )
        seeded = n_hop_neighborhood(kg, {names[0]}, 2)
        retrieved = n_hop_neighborhood(kg, {names[8]}, 2)
        diff = differential_subkg(retrieved, seeded, [model])
        if not diff.triples:
            continue
        updated = update_seeded(seeded, diff)
        again = differential_subkg(retrieved, updated, [model])
        ok &= again.triples == frozenset()
        ok &= again.embedding_matrix.shape[1] == 0
    _report(6, "differential subgraph is empty after absorption (exact)", ok)


def test_criterion_7_sparse_signal_experiment(tmp_path):
    started = time.monotonic()
    paths = generate_benchmark(str(tmp_path / "bench"), seed=0)
    cfg = parse_config(paths.config)
    report = compare(cfg, n_seeds=10)
    elapsed = time.monotonic() - started
    recall_delta = report.deltas["recall"]
    fa_delta = report.deltas["false_alarm"]
    _report(
        7,
        f"sparse-signal benchmark over 10 seeds: recall delta {recall_delta:+.4f} "
        f"(needs >= 0), false-alarm delta {fa_delta:+.4f} (needs <= +0.02), "
        f"{elapsed:.0f}s (needs < 600s)",
        recall_delta >= 0.0 and fa_delta <= 0.02 and elapsed < 600.0,
    )


def test_criterion_8_train_determinism(tiny_project):
    import os

    cfg = parse_config(tiny_project)
    art = build(cfg)
    first = train(cfg, art=art)
    bytes1 = open(first.checkpoint_path, "rb").read()
    os.unlink(first.checkpoint_path)
    second = train(cfg, art=art)
    bytes2 = open(second.checkpoint_path, "rb").read()
    infused_cfg = replace(cfg, mode="infused")
    a = train(infused_cfg, art=art)
    infused1 = open(a.checkpoint_path, "rb").read()
    os.unlink(a.checkpoint_path)
    b = train(infused_cfg, art=art)
    infused2 = open(b.checkpoint_path, "rb").read()
    _report(8, "repeated training with identical config and seed is "
               "bit-identical (both modes)",
            bytes1 == bytes2 and infused1 == infused2)
