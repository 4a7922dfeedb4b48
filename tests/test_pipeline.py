"""Pipeline integration: build, train, evaluate, compare, update cycle."""

import json
import logging
import os
import re
import shutil
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kginfuse import pipeline
from kginfuse.cli import main as cli_main
from kginfuse.config import MODES, build_hash, config_hash, parse_config
from kginfuse.datasets import read_labeled_tsv, token_sequence
from kginfuse.embedding import embed_concepts
from kginfuse.errors import ConfigError, StorageError, ValidationError
from kginfuse.kg import KnowledgeGraph, Triple
from kginfuse.nlm import Batch, log_softmax
from kginfuse.pipeline import (
    HEAD_CALIBRATION_L2,
    _calibrate_head,
    build,
    compare,
    evaluate,
    link_concepts,
    load_build,
    load_subgraph,
    load_trained,
    train,
    update_kg,
)
from kginfuse.rng import derive_seed
from kginfuse.storage import load_checkpoint, read_text, save_array, save_checkpoint, sha256_file
from kginfuse.text import normalize_all, normalize_label, tokenize
from dataclasses import replace


def constant_checkpoint(path, labels=("neg", "pos"), width=4):
    """Zero LSTM + biased head: always predicts labels[0]."""
    d = width
    arrays = {
        "lstm.layer0.W": np.zeros((4 * d, width + d)),
        "lstm.layer0.b": np.zeros(4 * d),
        "lstm.layer1.W": np.zeros((4 * d, 2 * d)),
        "lstm.layer1.b": np.zeros(4 * d),
        "lstm.head.W": np.zeros((len(labels), d)),
        "lstm.head.b": np.array([5.0] + [0.0] * (len(labels) - 1)),
        "ke": np.zeros(d),
    }
    meta = {
        "format": 1, "mode": "vanilla", "labels": list(labels), "seed": 0,
        "config_sha256": "none", "layers": 2, "hidden": d, "input_width": width,
        "n_classes": len(labels),
    }
    save_checkpoint(path, meta, arrays)
    return path


def embedded_columns(cfg, subkg):
    """The embedding columns of a stored subgraph's concepts under the
    build's models, as update_kg's mapping diagnostic embeds them."""
    return embed_concepts(subkg.parent, sorted(subkg.frontier_depth), load_build(cfg).models)[0]


class TestBuild:
    def test_build_writes_artifacts_and_manifest(self, tiny_project):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        assert not art.up_to_date
        assert art.ke_pair_count > 0
        manifest = json.loads(
            open(os.path.join(cfg.out_dir, "manifest.json"), encoding="utf-8").read()
        )
        assert manifest["build"]["build_sha256"] == build_hash(cfg)
        assert art.config_sha == config_hash(cfg)
        for rel in manifest["artifacts"]:
            assert os.path.isfile(os.path.join(cfg.out_dir, rel))

    def test_rerun_is_up_to_date_without_rewrite(self, tiny_project):
        cfg = parse_config(tiny_project)
        build(cfg)
        marker = os.path.join(cfg.out_dir, "subkg", "triples.tsv")
        stamp = os.path.getmtime(marker)
        again = build(cfg)
        assert again.up_to_date
        assert os.path.getmtime(marker) == stamp

    def test_up_to_date_build_hashes_the_config_once(self, tiny_project, monkeypatch):
        cfg = parse_config(tiny_project)
        want = build(cfg).config_sha
        calls = []

        def counted(config):
            calls.append(config)
            return config_hash(config)

        monkeypatch.setattr(pipeline, "config_hash", counted)
        again = build(cfg)
        assert again.up_to_date and again.config_sha == want
        assert calls == [cfg]

    @pytest.mark.parametrize("damage", ["flip a payload byte", "delete"])
    def test_damaged_artifact_triggers_rebuild(self, tiny_project, damage, caplog):
        cfg = parse_config(tiny_project)
        build(cfg)
        path = os.path.join(cfg.out_dir, "knowledge", "ke.kign")
        original = sha256_file(path)
        if damage == "delete":
            os.remove(path)
        else:
            blob = bytearray(open(path, "rb").read())
            blob[-1] ^= 0x01
            open(path, "wb").write(bytes(blob))
        with caplog.at_level(logging.INFO, logger="kginfuse.pipeline"):
            again = build(cfg)
        assert not again.up_to_date
        assert os.path.join("knowledge", "ke.kign") in caplog.text
        assert sha256_file(path) == original
        assert build(cfg).up_to_date

    def test_input_change_triggers_rebuild(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        with open(tmp_path / "train.tsv", "a", encoding="utf-8") as handle:
            handle.write("pos\tjihad banner anew\n")
        again = build(cfg)
        assert not again.up_to_date

    def test_other_settings_keep_an_evolved_subgraph(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        bad = tmp_path / "update_eval.tsv"
        bad.write_text("pos\tcomet in the sky\nneg\tgarden river calm\n", encoding="utf-8")
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        assert update_kg(cfg, ckpt, dataset_path=str(bad)).new_triples == 2
        subkg = os.path.join(cfg.out_dir, "subkg")
        evolved = {name: sha256_file(os.path.join(subkg, name)) for name in os.listdir(subkg)}
        other = replace(cfg, mode="infused", seed=7, eval_dataset_path=None, hidden=6,
                        epochs=1, gate_lr=0.5, alpha=2.0, compare_seeds=3)
        again = build(other)
        assert again.up_to_date and again.config_sha == config_hash(other)
        assert {name: sha256_file(os.path.join(subkg, name))
                for name in os.listdir(subkg)} == evolved
        assert build(cfg).up_to_date

    def test_a_build_stored_before_format_2_is_rebuilt_once(self, tiny_project, capsys):
        cfg = parse_config(tiny_project)
        build(cfg)
        path = os.path.join(cfg.out_dir, "manifest.json")
        # The format-1 layout: a top-level format, which no build read, and
        # a build record without one. Then a format-2 record, whose evolved
        # subgraph may hold mapped columns.
        for top, record in (({"format": 1}, {}), ({}, {"format": 2})):
            manifest = json.loads(read_text(path))
            manifest["build"].pop("format")
            manifest.update(top)
            manifest["build"].update(record)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            capsys.readouterr()
            for want in ("built artifacts", "up to date"):
                assert cli_main(["build", "--config", str(tiny_project)]) == 0
                assert capsys.readouterr().out.startswith(want)

    def test_a_copied_project_is_up_to_date(self, tiny_project, tmp_path_factory):
        build(parse_config(tiny_project))
        copy = tmp_path_factory.mktemp("copy")
        shutil.copytree(tiny_project.parent, copy, dirs_exist_ok=True)
        assert build(parse_config(copy / tiny_project.name)).up_to_date

    @pytest.mark.parametrize("change", [
        {"window": 2}, {"d_sub": {"main": 3}}, {"top_m": 1}, {"subkg_hops": 1},
        {"predicates": ("isa",)}, {"taxonomy_predicate": "related_to"},
        {"target_class": "neg"},
    ])
    def test_a_build_setting_change_rebuilds(self, tiny_project, change):
        cfg = parse_config(tiny_project)
        build(cfg)
        assert not build(replace(cfg, **change)).up_to_date

    def test_a_corpus_change_rebuilds(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        with open(tmp_path / "corpus.txt", "a", encoding="utf-8") as handle:
            handle.write("comet garden omen\n")
        assert not build(cfg).up_to_date

    def test_deterministic_artifact_hashes(self, tiny_project):
        cfg = parse_config(tiny_project)
        build(cfg)
        m1 = open(os.path.join(cfg.out_dir, "manifest.json")).read()
        build(replace(cfg, out_dir=cfg.out_dir + "_b"))
        m2 = open(os.path.join(cfg.out_dir + "_b", "manifest.json")).read()
        a1 = json.loads(m1)["artifacts"]
        a2 = json.loads(m2)["artifacts"]
        assert {k: v for k, v in a1.items() if k != "config.cfg"} == {
            k: v for k, v in a2.items() if k != "config.cfg"
        }

    def test_missing_corpus_fails_before_any_work(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        (tmp_path / "corpus.txt").unlink()
        with pytest.raises(ConfigError):
            build(cfg)
        assert not os.path.isdir(cfg.out_dir)

    def test_non_utf8_corpus_names_path_and_line(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        (tmp_path / "corpus.txt").write_bytes("jihad banner\nnaïve march\n".encode("latin-1"))
        corpus = re.escape(f"{tmp_path / 'corpus.txt'}:2: not valid UTF-8")
        with pytest.raises(ValidationError, match=corpus):
            build(cfg)

    def test_round_trip_through_disk(self, tiny_project, monkeypatch):
        cfg = parse_config(tiny_project)
        extracted = []
        real_extract = pipeline.extract_seeded_subkg

        def extract(*args, **kwargs):
            extracted.append(real_extract(*args, **kwargs))
            return extracted[-1]

        monkeypatch.setattr(pipeline, "extract_seeded_subkg", extract)
        art = build(cfg)
        loaded = load_build(cfg)
        stored = load_subgraph(cfg)
        assert stored.triples == extracted[0].subkg.triples
        assert stored.frontier_depth == extracted[0].subkg.frontier_depth
        scores = read_text(os.path.join(cfg.out_dir, "subkg", "scores.tsv"))
        assert {cid: float(score) for cid, score in (line.split("\t")
                                                     for line in scores.splitlines())
                } == extracted[0].relevance
        assert np.array_equal(loaded.ke_values, art.ke_values)
        assert loaded.ke_pair_count == art.ke_pair_count


class TestTrain:
    def test_smoke_run_completes_quickly(self, tiny_project):
        cfg = parse_config(tiny_project)
        cfg = replace(cfg, epochs=1, iters=1)
        art = build(cfg)
        started = time.time()
        result = train(cfg, art=art)
        assert time.time() - started < 5.0
        ckpt = load_trained(result.checkpoint_path)
        assert ckpt.mode == "vanilla"
        assert ckpt.labels == ("neg", "pos")

    def test_vanilla_mode_produces_no_traces(self, tiny_project):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        result = train(cfg, art=art)
        assert result.infusion_results == []
        assert not [name for name in os.listdir(cfg.out_dir) if name.startswith("trace")]

    def test_infused_mode_writes_traces_and_fusion(self, tiny_project):
        cfg = replace(parse_config(tiny_project), mode="infused")
        art = build(cfg)
        result = train(cfg, art=art)
        assert len(result.infusion_results) == cfg.epochs
        with open(os.path.join(cfg.out_dir, "trace_infused.csv")) as handle:
            rows = [line.split(",") for line in handle.read().splitlines()]
        assert rows[0] == ["epoch", "iteration", "d_prev", "d_current"]
        want = [[str(epoch), str(i), repr(dp), repr(dc)]
                for epoch, r in enumerate(result.infusion_results, start=1)
                for i, (dp, dc) in enumerate(r.divergence_trace, start=1)]
        assert rows[1:] == want
        assert {row[0] for row in want} == {str(e) for e in range(1, cfg.epochs + 1)}
        ckpt = load_trained(result.checkpoint_path)
        assert ckpt.fusion is not None
        assert ckpt.head_w is not None

    def test_a_shorter_rerun_leaves_no_row_of_the_longer_one(self, tiny_project):
        cfg = replace(parse_config(tiny_project), mode="infused", epochs=3)
        art = build(cfg)
        train(cfg, art=art)
        names = ("trace_infused.csv", "training_log_infused.csv")
        longer = [read_text(os.path.join(cfg.out_dir, name)) for name in names]
        assert "\n3," in longer[0] and "\n3," in longer[1]
        train(replace(cfg, epochs=2), art=art)
        for name in names:
            text = read_text(os.path.join(cfg.out_dir, name))
            assert "\n3," not in text and "\n2," in text

    def test_same_seed_same_loss_and_bitwise_checkpoint(self, tiny_project):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        r1 = train(cfg, art=art)
        bytes1 = open(r1.checkpoint_path, "rb").read()
        loss1 = r1.final_epoch_loss
        os.unlink(r1.checkpoint_path)
        r2 = train(cfg, art=art)
        assert r2.final_epoch_loss == loss1
        assert open(r2.checkpoint_path, "rb").read() == bytes1

    def test_training_log_holds_one_converged_head_refit(self, tiny_project, monkeypatch):
        base = parse_config(tiny_project)
        art = build(base)
        refits = []

        def counted(*args):
            refits.append(args)
            return _calibrate_head(*args)

        monkeypatch.setattr(pipeline, "_calibrate_head", counted)
        logs = {}
        for mode in ("vanilla", "infused"):
            cfg = replace(base, mode=mode)
            train(cfg, art=art)
            assert len(refits) == (mode == "infused")
            with open(os.path.join(cfg.out_dir, f"training_log_{mode}.csv")) as handle:
                logs[mode] = [line.split(",") for line in handle.read().splitlines()]
        for rows in logs.values():
            assert rows[0][-2:] == ["head_iterations", "head_grad_norm"]
            assert len(rows) == base.epochs + 1
            assert all(len(row) == 6 for row in rows)
        assert all(row[-2:] == ["", ""] for row in logs["vanilla"][1:])
        assert all(row[-2:] == ["", ""] and row[2] for row in logs["infused"][1:-1])
        assert int(logs["infused"][-1][-2]) >= 1
        assert float(logs["infused"][-1][-1]) <= 1e-9

    def test_infused_refused_when_ke_is_empty(self, tiny_project):
        cfg = replace(parse_config(tiny_project), mode="infused")
        art = build(cfg)
        art = replace(art, ke_values=np.zeros_like(art.ke_values), ke_pair_count=0)
        with pytest.raises(ConfigError) as err:
            train(cfg, art=art)
        assert "knowledge embedding" in str(err.value)

    def test_infused_requires_matching_width(self, tiny_project):
        cfg = replace(parse_config(tiny_project), mode="infused", hidden=6)
        art = build(replace(cfg, mode="vanilla"))
        with pytest.raises(ConfigError) as err:
            train(cfg, art=art)
        assert "hidden" in str(err.value)


def _head_objective(features, targets, w, b):
    """What _calibrate_head minimizes."""
    logp = log_softmax(features @ w.T + b)
    penalty = 0.5 * HEAD_CALIBRATION_L2 * np.sum(w * w)
    return -logp[np.arange(len(targets)), targets].mean() + penalty


def _head_gradient_descent(features, targets, w0, b0, lr, steps):
    """Plain full-batch gradient descent on the same objective (the refit
    used before the Newton solve, with lr=0.3 and 400 steps)."""
    w, b = w0.copy(), b0.copy()
    n = len(targets)
    onehot = np.eye(w.shape[0])[targets]
    for _ in range(steps):
        g = (np.exp(log_softmax(features @ w.T + b)) - onehot) / n
        w -= lr * (g.T @ features + HEAD_CALIBRATION_L2 * w)
        b -= lr * g.sum(axis=0)
    return w, b


def _head_problem(seed, n=400, d=12, n_classes=2):
    """Gated-hidden-like features in (-1, 1) with labels a noisy linear rule
    of them, and a start head like the LSTM's."""
    rng = np.random.default_rng(seed)
    features = np.tanh(rng.normal(size=(n, d))) * rng.random((n, d))
    scores = features @ rng.normal(size=(d, n_classes)) + rng.normal(size=(n, n_classes))
    targets = np.argmax(scores, axis=1)
    return features, targets, rng.normal(size=(n_classes, d)) * 0.3, rng.normal(size=n_classes)


class TestCalibrateHead:
    @pytest.mark.parametrize("seed,n_classes", [(0, 2), (1, 2), (2, 3), (3, 5)])
    def test_converges_and_keeps_the_bias_sum(self, seed, n_classes):
        features, targets, w0, b0 = _head_problem(seed, n_classes=n_classes)
        w, b, iterations, grad_norm = _calibrate_head(features, targets, n_classes, w0, b0)
        assert 1 <= iterations <= 20
        assert grad_norm <= 1e-9
        assert abs(b.sum() - b0.sum()) <= 1e-12
        assert w.shape == w0.shape and b.shape == b0.shape

    def test_reaches_the_optimum_gradient_descent_approaches(self):
        features, targets, w0, b0 = _head_problem(0)
        w, b, _, _ = _calibrate_head(features, targets, 2, w0, b0)
        old_w, old_b = _head_gradient_descent(features, targets, w0, b0, lr=0.3, steps=400)
        assert _head_objective(features, targets, w, b) <= _head_objective(features, targets,
                                                                         old_w, old_b)
        features, targets, w0, b0 = _head_problem(4, n=40, d=3, n_classes=3)
        w, b, _, _ = _calibrate_head(features, targets, 3, w0, b0)
        long_w, long_b = _head_gradient_descent(features, targets, w0, b0, lr=1.0, steps=20000)
        assert abs(_head_objective(features, targets, w, b)
                   - _head_objective(features, targets, long_w, long_b)) <= 1e-9

    def test_zero_features_give_the_log_class_frequencies(self):
        targets = np.array([0, 1, 1, 2, 2, 2, 2])
        w0, b0 = np.full((3, 4), 0.7), np.array([0.5, -1.0, 2.0])
        w, b, _, grad_norm = _calibrate_head(np.zeros((7, 4)), targets, 3, w0, b0)
        assert grad_norm <= 1e-9
        np.testing.assert_allclose(w, 0.0, atol=1e-15)
        log_counts = np.log([1.0, 2.0, 4.0])
        np.testing.assert_allclose(b, log_counts - log_counts.mean() + b0.mean(), atol=1e-10)

    def test_repeated_calls_are_bit_identical(self):
        features, targets, w0, b0 = _head_problem(5, n_classes=3)
        first = _calibrate_head(features, targets, 3, w0, b0)
        second = _calibrate_head(features, targets, 3, w0, b0)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()
        assert first[2:] == second[2:]


class TestEvaluate:
    @pytest.mark.parametrize("mode", ["vanilla", "infused"])
    def test_train_eval_and_the_up_to_date_build_never_parse_the_graph(self, tiny_project,
                                                                       monkeypatch, mode):
        cfg = replace(parse_config(tiny_project), mode=mode)
        build(cfg)

        def train_and_evaluate():
            art = build(cfg)
            assert art.up_to_date
            evaluate(cfg, train(cfg, art=art).checkpoint_path)
            return {name: open(os.path.join(cfg.out_dir, name), "rb").read()
                    for name in (f"model_{mode}.kicp", f"eval_{mode}.txt", f"eval_{mode}.csv")}

        def refuse(*args, **kwargs):
            raise AssertionError("the knowledge graph was parsed")

        unpatched = train_and_evaluate()
        monkeypatch.setattr(pipeline, "load_graph", refuse)
        assert train_and_evaluate() == unpatched

    def test_overfit_toy_data_reaches_perfect_f1(self, tiny_project):
        cfg = replace(parse_config(tiny_project), epochs=6, iters=8)
        art = build(cfg)
        result = train(cfg, art=art)
        report = evaluate(cfg, result.checkpoint_path, art=art)
        assert report.f1["pos"] == 1.0
        assert report.false_alarm == 0.0
        assert os.path.isfile(os.path.join(cfg.out_dir, "eval_vanilla.txt"))

    def test_constant_predictor_has_zero_minority_recall(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        path = constant_checkpoint(str(tmp_path / "const.kicp"))
        report = evaluate(cfg, path, write_reports=False)
        assert report.recall["pos"] == 0.0
        assert report.false_alarm == 0.0

    @pytest.mark.parametrize("mode", ["vanilla", "infused"])
    def test_one_document_prediction_is_its_row_of_the_batch(self, tiny_project, tmp_path,
                                                            mode):
        cfg = replace(parse_config(tiny_project), mode=mode)
        art = build(cfg)
        path = train(cfg, art=art).checkpoint_path
        ckpt = load_trained(path)
        ragged = tmp_path / "ragged.tsv"
        ragged.write_text("pos\tjihad\n"
                          "pos\tjihad march cause banner rally\n"
                          "neg\tgarden water\n"
                          "neg\tunknown words only\n"
                          "neg\tmeadow river walk calm water garden meadow\n"
                          "pos\tbanner jihad rally\n", encoding="utf-8")
        rows = read_labeled_tsv(str(ragged))
        sequences = [token_sequence(art.models, text) for _, text in rows]
        batch = ckpt.predict_proba_batch(Batch.of(sequences))
        confusion = np.zeros((2, 2), dtype=int)
        for (label, _), sequence, row in zip(rows, sequences, batch):
            probs = ckpt.predict_proba(sequence)
            assert np.array_equal(probs, row)
            confusion[ckpt.labels.index(label), int(np.argmax(probs))] += 1
        report = evaluate(cfg, path, dataset_path=str(ragged), art=art, write_reports=False)
        np.testing.assert_array_equal(report.confusion, confusion)

    def test_eval_requires_only_the_artifacts_it_reads(self, tiny_project):
        cfg = replace(parse_config(tiny_project), mode="infused")
        build(cfg)
        path = train(cfg).checkpoint_path
        before = evaluate(cfg, path, write_reports=False).confusion
        for name in ("subkg/triples.tsv", "subkg/scores.tsv", "subkg/depths.tsv",
                     "graph_stats.txt", "config.cfg"):
            os.remove(os.path.join(cfg.out_dir, name))
        np.testing.assert_array_equal(evaluate(cfg, path, write_reports=False).confusion, before)
        missing = re.escape(f"build artifacts missing under {cfg.out_dir}; "
                            "run the build command first")
        with pytest.raises(ValidationError, match=missing):
            update_kg(cfg, path)  # an update reads the subgraph
        os.remove(os.path.join(cfg.out_dir, "knowledge", "ke.kign"))
        with pytest.raises(ValidationError, match=missing):
            evaluate(cfg, path, write_reports=False)

    def test_label_set_mismatch_rejected(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        result = train(cfg, art=art)
        bad = tmp_path / "bad_eval.tsv"
        bad.write_text("mystery\tjihad banner\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            evaluate(cfg, result.checkpoint_path, dataset_path=str(bad), art=art)


def compared_values(report):
    """An EvalReport's values of compare's metrics, in their order."""
    pos = report.positive_label
    return [report.precision[pos], report.recall[pos], report.f1[pos], report.false_alarm,
            report.accuracy]


def reference_compare(cfg, n_seeds):
    """compare as it was when it trained each mode at each seed and scored
    each checkpoint through evaluate. Returns (compare.txt text, compare.csv
    text, {mode: checkpoint path per seed})."""
    art = build(cfg)
    metrics = {m: {k: [] for k in pipeline._COMPARE_METRICS} for m in MODES}
    divergence = {"inner_iterations": [], "final_divergence": []}
    checkpoints = {m: [] for m in MODES}
    for i in range(n_seeds):
        run_seed = derive_seed(cfg.seed, f"compare.run{i}") % (1 << 31)
        for position, mode in enumerate(MODES):
            run_dir = os.path.join(cfg.out_dir, "reference", f"seed{i:02d}_{position}_{mode}")
            run_cfg = replace(cfg, mode=mode, seed=run_seed, out_dir=run_dir)
            result = train(run_cfg, art=art)
            checkpoints[mode].append(result.checkpoint_path)
            report = evaluate(run_cfg, result.checkpoint_path,
                              dataset_path=cfg.eval_dataset_path, art=art,
                              write_reports=False)
            for key, value in zip(pipeline._COMPARE_METRICS, compared_values(report)):
                metrics[mode][key].append(value)
            if result.infusion_results:
                divergence["inner_iterations"].append(
                    float(np.mean([r.inner_iterations for r in result.infusion_results])))
                finals = [r.divergence_trace[-1][1] for r in result.infusion_results
                          if r.divergence_trace]
                if finals:
                    divergence["final_divergence"].append(float(np.mean(finals)))
    summary = {mode: {key: (float(np.mean(vals)), float(np.std(vals, ddof=1)))
                      for key, vals in metrics[mode].items()} for mode in MODES}
    deltas = {key: summary["infused"][key][0] - summary["vanilla"][key][0]
              for key in pipeline._COMPARE_METRICS}
    div_summary = {key: float(np.mean(vals)) if vals else float("nan")
                   for key, vals in divergence.items()}
    report = pipeline.ComparisonReport(n_seeds, metrics, summary, deltas, div_summary)
    return (pipeline.comparison_text(report), pipeline.comparison_csv(report),
            checkpoints)


class TestCompare:
    def test_deltas_are_infused_minus_vanilla_means(self, tiny_project):
        cfg = parse_config(tiny_project)
        report = compare(cfg, n_seeds=2)
        for key, value in report.deltas.items():
            assert value == (np.mean(report.metrics["infused"][key])
                             - np.mean(report.metrics["vanilla"][key]))
        assert os.path.isfile(os.path.join(cfg.out_dir, "compare.txt"))

    def test_trains_one_infused_model_per_seed(self, tiny_project, monkeypatch):
        cfg = parse_config(tiny_project)
        trained = []

        def counting_train(run_cfg, art=None):
            trained.append(run_cfg.mode)
            return train(run_cfg, art=art)

        monkeypatch.setattr(pipeline, "train", counting_train)
        compare(cfg, n_seeds=3)
        assert trained == ["infused"] * 3
        runs = os.path.join(cfg.out_dir, "compare")
        assert sorted(os.listdir(runs)) == ["seed00", "seed01", "seed02"]
        for run in os.listdir(runs):
            assert os.path.isfile(os.path.join(runs, run, "model_infused.kicp"))

    def test_reports_match_training_each_mode(self, tiny_project):
        cfg = parse_config(tiny_project)
        text, csv, _ = reference_compare(cfg, n_seeds=2)
        compare(cfg, n_seeds=2)
        assert read_text(os.path.join(cfg.out_dir, "compare.txt")) == text
        assert read_text(os.path.join(cfg.out_dir, "compare.csv")) == csv

    def test_vanilla_is_the_infused_checkpoints_lstm(self, tiny_project):
        # compare relies on this: the infusion loop leaves the LSTM and the
        # stored knowledge embedding as a vanilla training at the seed makes them.
        cfg = parse_config(tiny_project)
        _, _, checkpoints = reference_compare(cfg, n_seeds=2)
        report = compare(cfg, n_seeds=2)
        for i, (vanilla, infused) in enumerate(zip(checkpoints["vanilla"],
                                                   checkpoints["infused"])):
            vanilla_arrays = load_checkpoint(vanilla)[1]
            infused_arrays = load_checkpoint(infused)[1]
            shared = [name for name in vanilla_arrays
                      if name.startswith("lstm.") or name == "ke"]
            assert shared == list(vanilla_arrays)
            for name in shared:
                assert vanilla_arrays[name].tobytes() == infused_arrays[name].tobytes()
            standalone = evaluate(cfg, vanilla, dataset_path=cfg.eval_dataset_path,
                                  write_reports=False)
            got = [report.metrics["vanilla"][key][i] for key in pipeline._COMPARE_METRICS]
            assert got == compared_values(standalone)

    def test_single_seed_rejected(self, tiny_project):
        cfg = parse_config(tiny_project)
        with pytest.raises(ConfigError):
            compare(cfg, n_seeds=1)

    def test_compare_requires_eval_dataset(self, tiny_project):
        cfg = replace(parse_config(tiny_project), eval_dataset_path=None)
        with pytest.raises(ConfigError):
            compare(cfg, n_seeds=2)


class TestUpdateKg:
    def test_no_misclassification_is_a_logged_no_op(self, tiny_project):
        cfg = replace(parse_config(tiny_project), epochs=6, iters=8)
        art = build(cfg)
        result = train(cfg, art=art)
        outcome = update_kg(cfg, result.checkpoint_path)
        assert outcome.reason == "no misclassifications"
        assert outcome.new_triples == 0
        audit = open(os.path.join(cfg.out_dir, "update_audit.log")).read()
        assert "no misclassifications" in audit

    def test_misclassified_concepts_add_triples(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        # Constant neg-predictor: the pos-labeled comet document is always
        # missed; comet's 1-hop ball adds exactly its 2 triples.
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        bad = tmp_path / "update_eval.tsv"
        bad.write_text(
            "pos\tcomet in the sky\nneg\tgarden river calm\n", encoding="utf-8"
        )
        before = load_subgraph(cfg)
        outcome = update_kg(cfg, ckpt, dataset_path=str(bad))
        assert outcome.misclassified == 1
        assert outcome.new_triples == 2
        assert outcome.residual is not None
        assert outcome.imbalance is not None
        after = load_subgraph(cfg)
        assert len(after.triples) == len(before.triples) + 2
        audit = open(os.path.join(cfg.out_dir, "update_audit.log")).read()
        assert "new_triples=2" in audit
        assert f"imbalance={outcome.imbalance:.3e} reason=updated" in audit

    def test_labels_outside_the_checkpoint_are_rejected(self, tiny_project, tmp_path):
        # update_kg refuses what evaluate refuses, with the same message,
        # before it predicts: it writes no file and appends no audit line.
        cfg = parse_config(tiny_project)
        build(cfg)
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text("pos\tcomet in the sky\nneutral\tgarden river calm\n"
                         "neg\tmeadow walk\n", encoding="utf-8")
        upper = tmp_path / "upper.tsv"
        upper.write_text("".join(f"{label.upper()}\t{text}\n" for label, text
                                 in read_labeled_tsv(cfg.eval_dataset_path)), encoding="utf-8")
        before = _tree_bytes(cfg.out_dir)
        for bad, unknown in ((mixed, "neutral"), (upper, "NEG, POS")):
            message = re.escape(f"dataset labels outside the checkpoint's label set: {unknown}")
            with pytest.raises(ValidationError, match=message):
                evaluate(cfg, ckpt, dataset_path=str(bad), write_reports=False)
            with pytest.raises(ValidationError, match=message):
                update_kg(cfg, ckpt, dataset_path=str(bad))
        assert _tree_bytes(cfg.out_dir) == before
        assert not os.path.exists(os.path.join(cfg.out_dir, "update_audit.log"))

    def test_second_update_is_absorbed(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        bad = tmp_path / "update_eval.tsv"
        bad.write_text(
            "pos\tcomet in the sky\nneg\tgarden river calm\n", encoding="utf-8"
        )
        first = update_kg(cfg, ckpt, dataset_path=str(bad))
        assert first.new_triples == 2
        second = update_kg(cfg, ckpt, dataset_path=str(bad))
        assert second.new_triples == 0
        assert second.reason == "difference already absorbed"
        lines = open(os.path.join(cfg.out_dir, "update_audit.log")).read().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("cycle=1") and lines[1].startswith("cycle=2")

    def test_audit_line_after_a_cut_last_line_starts_a_line_of_its_own(self, tiny_project,
                                                                       tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        audit = os.path.join(cfg.out_dir, "update_audit.log")
        with open(audit, "wb") as handle:
            handle.write(b"cycle=1 cut short")
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        update_kg(cfg, ckpt)
        with open(audit, "rb") as handle:
            logged = handle.read()
        assert logged.startswith(b"cycle=1 cut short\n")
        lines = logged.split(b"\n")
        assert len(lines) == 3 and lines[2] == b""
        assert lines[1].startswith(b"cycle=2 ")

    def test_a_subgraph_with_no_embedded_concept_absorbs_unmapped(self, update_project):
        cfg, ckpt, data = update_project
        # Rename every token of a stored concept's label in the vocabulary,
        # so that no stored concept embeds.
        before = load_subgraph(cfg)
        hidden = {t for cid in before.frontier_depth for t in before.parent.label_tokens[cid]}
        vocab = os.path.join(cfg.out_dir, "models", "main.vocab.tsv")
        rows = [line.split("\t") for line in read_text(vocab).splitlines()]
        with open(vocab, "w", encoding="utf-8") as handle:
            handle.writelines(f"{'unknown-' * (token in hidden)}{token}\t{index}\n"
                              for token, index in rows)
        assert embedded_columns(cfg, before).shape[1] == 0
        outcome = update_kg(cfg, ckpt, dataset_path=data)
        assert outcome.reason == "updated" and outcome.new_concepts > 0
        assert outcome.residual is None and outcome.imbalance is None
        audit = read_text(os.path.join(cfg.out_dir, "update_audit.log"))
        assert "residual=- imbalance=- reason=updated" in audit
        assert embedded_columns(cfg, load_subgraph(cfg)).shape[1] > 0

    def test_updated_embeddings_stay_unit_norm(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        bad = tmp_path / "update_eval.tsv"
        bad.write_text("pos\tcomet in the sky\n", encoding="utf-8")
        update_kg(cfg, ckpt, dataset_path=str(bad))
        norms = np.linalg.norm(embedded_columns(cfg, load_subgraph(cfg)), axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def _tree_bytes(root) -> dict:
    """{path relative to root: bytes} of every file under root."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


REPEAT_LOG = "update repeats the last absorbing update"


@pytest.fixture
def update_project(tiny_project, tmp_path):
    """A built project, a checkpoint that misses the comet document, and a
    dataset holding it: the first update absorbs, the next not."""
    cfg = parse_config(tiny_project)
    build(cfg)
    data = tmp_path / "update_eval.tsv"
    data.write_text("pos\tcomet in the sky\nneg\tgarden river calm\n", encoding="utf-8")
    return cfg, constant_checkpoint(str(tmp_path / "const.kicp")), str(data)


def _drop_record(out_dir):
    """Remove the last absorbing update's record from the manifest, so the
    next no-op is computed."""
    path = os.path.join(out_dir, "manifest.json")
    manifest = json.loads(read_text(path))
    manifest.pop(pipeline.UPDATE_RECORD, None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _no_op(cfg, ckpt, data, way, caplog):
    """A no-op update after an absorbing one, taken the named way: as a
    repeat answered from the manifest's record, or computed without it."""
    if way == "computed":
        _drop_record(cfg.out_dir)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="kginfuse.pipeline"):
        outcome = update_kg(cfg, ckpt, dataset_path=data)
    assert (REPEAT_LOG in caplog.text) == (way == "repeat")
    return outcome


class TestStagedReads:
    EXTRAS = {"scores.tsv", "concepts.tsv", "embeddings.kign"}
    WAY = "repeat"  # how _no_op takes the no-ops; TestComputedStagedReads computes them

    def test_a_no_op_appends_one_audit_line_and_changes_no_other_file(self, update_project,
                                                                      caplog):
        cfg, ckpt, data = update_project
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        if self.WAY == "computed":
            _drop_record(cfg.out_dir)
        before = _tree_bytes(cfg.out_dir)
        assert _no_op(cfg, ckpt, data, self.WAY, caplog).reason == "difference already absorbed"
        after = _tree_bytes(cfg.out_dir)
        logged, added = before.pop("update_audit.log"), after.pop("update_audit.log")
        assert added.startswith(logged)
        assert added[len(logged):].startswith(b"cycle=2 ")
        assert added[len(logged):].count(b"\n") == 1 and added.endswith(b"\n")
        assert after == before

    def test_no_update_opens_the_scores_concepts_or_matrix(self, update_project, caplog,
                                                           monkeypatch):
        cfg, ckpt, data = update_project
        opened = set()
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.add(os.path.basename(str(file)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        assert {"triples.tsv", "depths.tsv"} <= opened
        assert not opened & self.EXTRAS
        opened.clear()
        assert _no_op(cfg, ckpt, data, self.WAY, caplog).reason == "difference already absorbed"
        assert {"triples.tsv", "depths.tsv"} <= opened
        assert not opened & self.EXTRAS

    def test_an_absorbing_update_sorts_the_seeded_triples_once(self, update_project,
                                                               monkeypatch):
        cfg, ckpt, data = update_project
        absorbed = len(load_subgraph(cfg).triples) + 2
        sorts = []
        by_value = sorted

        def counted(iterable, *args, **kwargs):
            got = by_value(iterable, *args, **kwargs)
            if len(got) == absorbed and all(isinstance(t, Triple) for t in got):
                sorts.append(got)
            return got

        monkeypatch.setattr("builtins.sorted", counted)
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        assert len(sorts) == 1

    def test_loading_normalizes_the_stored_predicates_as_a_column_and_no_label(
            self, update_project, monkeypatch):
        cfg, ckpt, data = update_project
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        path = os.path.join(cfg.out_dir, "subkg", "triples.tsv")
        predicates = [line.split("\t")[1] for line in read_text(path).splitlines()]
        columns = []

        def alone(text):
            raise AssertionError(f"{text!r} normalized alone")

        def counted(cells):
            columns.append(list(cells))
            return normalize_all(cells)

        monkeypatch.setattr(pipeline, "normalize_label", alone)
        monkeypatch.setattr(pipeline, "normalize_all", counted)
        load_subgraph(cfg)
        assert columns == [predicates]

    def test_a_no_op_passes_over_a_cut_scores_file(self, update_project, caplog):
        cfg, ckpt, data = update_project
        _rewrite(os.path.join(cfg.out_dir, "subkg", "scores.tsv"), lambda b: b[:-3])
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        assert _no_op(cfg, ckpt, data, self.WAY, caplog).reason == "difference already absorbed"


class TestComputedStagedReads(TestStagedReads):
    """TestStagedReads with each no-op computed: the manifest holds no
    record of the absorbing update, so no repeat can answer."""

    WAY = "computed"


def _rewrite(path, transform):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(transform(blob))


def _replace_line(number, new):
    """Transform that replaces line `number` (1-based) of a file."""
    def transform(blob):
        lines = blob.split(b"\n")
        lines[number - 1] = new
        return b"\n".join(lines)
    return transform


def _repeat_first_token(blob):
    """Transform that gives line 2 of a vocabulary line 1's token."""
    lines = blob.split(b"\n")
    lines[1] = lines[0].split(b"\t")[0] + b"\t1"
    return b"\n".join(lines)


def _retrain(root):
    path = os.path.join(root, "const.kicp")
    meta, arrays = load_checkpoint(path)
    save_checkpoint(path, {**meta, "seed": 1}, arrays)


def _other_dataset(root):
    path = os.path.join(root, "other_eval.tsv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("pos\tcomet in the sky\npos\tgarden river calm\n")
    return ["--dataset", path]


def _edit(name, transform):
    return lambda root: _rewrite(os.path.join(root, name), transform)


def _append(name, text):
    return _edit(name, lambda b: b + text)


class TestRepeatedUpdate:
    """A repeat of the last absorbing update is answered from the
    manifest's record; every other update is computed, as it would be
    without the record."""

    @pytest.fixture
    def twins(self, update_project, tmp_path_factory):
        """Two copies of a project after one absorbing update, the second
        with no record in its manifest."""
        cfg, ckpt, data = update_project
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        root = os.path.dirname(ckpt)
        roots = []
        for name in ("recorded", "bare"):
            copy = str(tmp_path_factory.mktemp(name) / "project")
            shutil.copytree(root, copy)
            roots.append(copy)
        _drop_record(os.path.join(roots[1], "out"))
        return roots

    @staticmethod
    def _update(root, capsys, caplog, args=()):
        """Run update-kg in root; returns (exit code, stdout, audit log
        bytes, whether the repeat answered)."""
        caplog.clear()
        argv = ["update-kg", "--config", os.path.join(root, "pipeline.cfg"),
                "--checkpoint", os.path.join(root, "const.kicp"),
                "--dataset", os.path.join(root, "update_eval.tsv"), *args]
        with caplog.at_level(logging.INFO, logger="kginfuse.pipeline"):
            code = cli_main(argv)
        with open(os.path.join(root, "out", "update_audit.log"), "rb") as handle:
            logged = handle.read()
        return code, capsys.readouterr().out, logged, REPEAT_LOG in caplog.text

    def test_a_repeat_equals_the_computed_no_op_byte_for_byte(self, twins, capsys, caplog):
        recorded, bare = twins
        before = _tree_bytes(recorded)
        repeat = self._update(recorded, capsys, caplog)
        computed = self._update(bare, capsys, caplog)
        assert repeat[:3] == computed[:3]
        assert repeat[3] and not computed[3]
        assert "outcome: difference already absorbed" in repeat[1]
        after = _tree_bytes(recorded)
        audit = os.path.join("out", "update_audit.log")
        assert after.pop(audit).startswith(before.pop(audit))
        assert after == before

    @pytest.mark.parametrize("change", [
        _retrain,
        _other_dataset,
        _append("kg.tsv", b"comet\tisa\tsky\n"),
        _edit("pipeline.cfg", lambda b: b.replace(b"proximity_hops = 1", b"proximity_hops = 2")),
        _edit("out/models/main.vectors.kign", lambda b: b[:-1] + bytes([b[-1] ^ 1])),
        _edit("out/models/main.vocab.tsv", _replace_line(2, b"token\tone")),
        _edit("out/knowledge/ke.json", lambda b: b'{"pair_count": "3"}\n'),
        _edit("out/subkg/triples.tsv", lambda b: b[:b.rindex(b"\n", 0, -1) + 1]),
        _edit("out/subkg/depths.tsv", lambda b: b[:-3]),
        lambda root: os.remove(os.path.join(root, "out", "subkg", "scores.tsv")),
    ], ids=["retrained-checkpoint", "other-dataset", "edited-graph", "other-hops",
            "edited-vectors", "edited-vocabulary", "edited-ke", "edited-triples",
            "cut-depths", "missing-artifact"])
    def test_any_other_update_is_computed(self, twins, change, capsys, caplog):
        # Each change applies to both copies; one returns the CLI arguments
        # it adds.
        outcomes = [self._update(root, capsys, caplog, change(root) or ()) for root in twins]
        (code, out, logged, repeated), bare = outcomes
        assert not repeated
        assert (code, out, logged) == bare[:3]

    def test_an_edited_artifact_is_named_and_the_update_computed(self, twins, capsys,
                                                                   caplog):
        recorded = twins[0]
        # A repeated row: other bytes, the same stored triples.
        _edit("out/subkg/triples.tsv", lambda b: b[:b.index(b"\n") + 1] + b)(recorded)
        code, out, _, repeated = self._update(recorded, capsys, caplog)
        assert (code, repeated) == (0, False)
        assert "missing or changed since" in caplog.text
        assert os.path.join("subkg", "triples.tsv") in caplog.text
        assert "outcome: difference already absorbed" in out

    def test_an_absorbing_update_over_a_cut_manifest_changes_no_file(self, update_project,
                                                                     capsys):
        cfg, ckpt, data = update_project
        manifest = os.path.join(cfg.out_dir, "manifest.json")
        _rewrite(manifest, lambda b: b[:len(b) // 2])
        root = os.path.dirname(ckpt)
        before = _tree_bytes(root)
        code = cli_main(["update-kg", "--config", os.path.join(root, "pipeline.cfg"),
                         "--checkpoint", ckpt, "--dataset", data])
        err = capsys.readouterr().err
        assert code == 2
        assert f"runtime error: {manifest}: unreadable JSON" in err
        assert _tree_bytes(root) == before


def _rescore_first_concept(blob):
    """Transform that gives the first row of scores.tsv another score."""
    lines = blob.split(b"\n")
    lines[0] = lines[0].split(b"\t")[0] + b"\t0.25"
    return b"\n".join(lines)


class TestManifestAfterAnUpdate:
    """The manifest an absorbing update rewrites hashes only the files the
    update wrote, so a build still sees what anything else changed."""

    @pytest.mark.parametrize("name, transform", [
        ("graph_stats.txt", lambda b: b + b"edited\n"),
        (os.path.join("subkg", "scores.tsv"), _rescore_first_concept),
    ], ids=["appended-stats", "changed-score"])
    def test_an_edit_before_an_absorbing_update_still_rebuilds(self, update_project, caplog,
                                                               name, transform):
        cfg, ckpt, data = update_project
        _rewrite(os.path.join(cfg.out_dir, name), transform)
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="kginfuse.pipeline"):
            assert not build(cfg).up_to_date
        assert f"missing or changed since the build record in manifest.json: {name}" \
            in caplog.text

    def test_a_project_that_stored_the_concept_matrix_is_reused_and_updated(
            self, update_project):
        # Builds before the concept matrix was dropped also stored
        # subkg/concepts.tsv and subkg/embeddings.kign, and listed both in
        # the manifest under the same build record format.
        cfg, ckpt, data = update_project
        subkg = load_subgraph(cfg)
        matrix, embedded = embed_concepts(subkg.parent, sorted(subkg.frontier_depth),
                                          load_build(cfg).models)
        old = {os.path.join("subkg", "concepts.tsv"): "".join(c + "\n" for c in embedded),
               os.path.join("subkg", "embeddings.kign"): matrix}
        for rel, value in old.items():
            path = os.path.join(cfg.out_dir, rel)
            if isinstance(value, str):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(value)
            else:
                save_array(path, value)
        manifest_path = os.path.join(cfg.out_dir, "manifest.json")
        manifest = json.loads(read_text(manifest_path))
        assert manifest["build"]["format"] == 3
        manifest["artifacts"].update(
            {rel: sha256_file(os.path.join(cfg.out_dir, rel)) for rel in old})
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        before = _tree_bytes(cfg.out_dir)

        assert build(cfg).up_to_date
        assert update_kg(cfg, ckpt, dataset_path=data).reason == "updated"
        after = _tree_bytes(cfg.out_dir)
        for rel in old:
            assert after[rel] == before[rel]
        rewritten = json.loads(read_text(manifest_path))
        assert pipeline.UPDATE_RECORD in rewritten
        assert not old.keys() & rewritten["artifacts"].keys()
        assert build(cfg).up_to_date


class TestCorruptBuildArtifacts:
    @pytest.fixture
    def built(self, tiny_project):
        cfg = parse_config(tiny_project)
        build(cfg)
        return cfg

    @pytest.mark.parametrize("transform, message", [
        (lambda b: b"\n".join(b.split(b"\n")[:3])[:-2], ":3: line not terminated"),
        (_replace_line(2, "caf\u00e9\t1".encode("latin-1")), ":2: not valid UTF-8"),
        (_replace_line(2, b"token"), ":2: expected 2 fields, got 1"),
        (_replace_line(2, b"token\tone"), ":2: invalid literal for int()"),
        (_replace_line(2, b"token\t7"), ": indices are not 0.."),
        (lambda b: b[:b.rindex(b"\n", 0, -1) + 1], "vectors.kign: shape"),
        (lambda b: b + b"zzz\t" + str(b.count(b"\n")).encode() + b"\n", "vectors.kign: shape"),
        (_repeat_first_token, "main.vocab.tsv:2: repeated token (first on line 1)"),
    ], ids=["cut-mid-line", "latin-1", "one-field", "text-index", "index-out-of-order",
            "row-dropped", "row-added", "repeated-token"])
    def test_bad_vocabulary_rejected(self, built, transform, message):
        path = os.path.join(built.out_dir, "models", "main.vocab.tsv")
        _rewrite(path, transform)
        with pytest.raises(StorageError, match=re.escape(message)):
            load_build(built)

    def test_truncated_triple_label_rejected_before_update(self, built, tmp_path):
        # A cut label must fail at load, not later inside update_kg.
        path = os.path.join(built.out_dir, "subkg", "triples.tsv")
        line = open(path, encoding="utf-8").readline().rstrip("\n")
        _rewrite(path, _replace_line(1, line[:-1].encode()))
        cut = line.split("\t")[2][:-1]
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        with pytest.raises(StorageError, match=re.escape(f"{path}:1: {cut!r} is not a concept")):
            update_kg(built, ckpt)

    def test_a_stored_label_in_another_case_and_spacing_loads_alike(self, built):
        # Stored labels resolve by the graph's own labels first; any other
        # spelling falls back to normalize_label.
        path = os.path.join(built.out_dir, "subkg", "triples.tsv")
        before = load_subgraph(built)
        subject, predicate, obj = open(path, encoding="utf-8").readline().rstrip("\n").split("\t")
        respelled = "  " + subject.upper() + " "
        _rewrite(path, _replace_line(1, f"{respelled}\t{predicate}\t{obj}".encode()))
        after = load_subgraph(built)
        assert after.triples == before.triples
        assert after.frontier_depth == before.frontier_depth

        _rewrite(path, _replace_line(1, f"nowhere\t{predicate}\t{obj}".encode()))
        with pytest.raises(StorageError,
                           match=re.escape(f"{path}:1: 'nowhere' is not a concept of the graph")):
            load_subgraph(built)

    @pytest.mark.parametrize("name, transform, message", [
        ("depths.tsv", lambda b: b + b"nowhere\t1\n", "is not a concept"),
        ("depths.tsv", _replace_line(1, b"jihad\t1.5"), ":1: invalid literal for int()"),
        ("depths.tsv", _replace_line(1, b"jihad"), ":1: expected 2 fields, got 1"),
    ], ids=["unknown-concept", "float-depth", "one-field"])
    def test_bad_subgraph_file_rejected(self, built, name, transform, message):
        _rewrite(os.path.join(built.out_dir, "subkg", name), transform)
        with pytest.raises(StorageError, match=re.escape(message)):
            load_subgraph(built)

    @pytest.mark.parametrize("text", [b'{"pair_count": "3"}\n', b"[3]\n", b"{\xff}",
                                      b"[" * 100_000],
                             ids=["text-count", "array", "latin-1", "deep-nesting"])
    def test_bad_knowledge_metadata_rejected(self, built, text):
        _rewrite(os.path.join(built.out_dir, "knowledge", "ke.json"), lambda b: text)
        with pytest.raises(StorageError, match="ke.json"):
            load_build(built)

    def test_every_truncation_of_each_text_artifact_loads_or_is_rejected(self, built):
        # Each file is cut under the loader that reads it.
        for name, load in (("models/main.vocab.tsv", load_build),
                           ("subkg/triples.tsv", load_subgraph),
                           ("subkg/depths.tsv", load_subgraph),
                           ("knowledge/ke.json", load_build)):
            path = os.path.join(built.out_dir, name)
            blob = open(path, "rb").read()
            for cut in range(len(blob)):
                _rewrite(path, lambda b: blob[:cut])
                try:
                    load(built)
                except StorageError:
                    pass
            _rewrite(path, lambda b: blob)

    def test_every_truncation_of_the_manifest_builds_or_is_rejected(self, built):
        path = os.path.join(built.out_dir, "manifest.json")
        blob = open(path, "rb").read()
        for cut in range(len(blob)):
            _rewrite(path, lambda b: blob[:cut])
            try:
                build(built)
            except StorageError:
                pass


def _read_rows(path, *types) -> list:
    """Reference: the row-by-row reader pipeline._read_columns replaced."""
    try:
        lines = read_text(path).split("\n")
    except ValidationError as exc:
        raise StorageError(str(exc)) from exc
    if lines[-1]:
        raise StorageError(f"{path}:{len(lines)}: line not terminated (truncated file?)")
    rows = []
    for number, line in enumerate(lines[:-1], start=1):
        fields = line.split("\t")
        if len(fields) != len(types):
            raise StorageError(f"{path}:{number}: expected {len(types)} fields, got {len(fields)}")
        try:
            rows.append(tuple(kind(value) for kind, value in zip(types, fields)))
        except ValueError as exc:
            raise StorageError(f"{path}:{number}: {exc}") from exc
    return rows


_CELLS = st.one_of(
    st.sampled_from(["0", "7", "-3", "1_0", " 4 ", "1.5", "nan", "-inf", "1e3", "x", "", "café",
                     "\r", "\t", "\n"]),
    st.text(alphabet="0123456789.-e x", max_size=3)).map(str.encode)


@st.composite
def _tables(draw):
    """(file bytes, types): rows mostly of the right width, with bad cells,
    stray tabs and newlines, and now and then a missing final newline or a
    byte that is not UTF-8."""
    types = draw(st.sampled_from([(str, int), (str, float), (str, str, str), (str,)]))
    row = st.lists(_CELLS, min_size=len(types), max_size=len(types))
    lines = draw(st.lists(st.one_of(row, row, row, st.lists(_CELLS, max_size=4))
                          .map(b"\t".join), max_size=8))
    blob = b"".join(line + b"\n" for line in lines)
    rarely = st.sampled_from([False] * 4 + [True])
    if draw(rarely):
        blob = blob[:-1]
    if draw(rarely):
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + blob[at:]
    return blob, types


# The _read_columns converter of each cell type _tables draws.
_COLUMN_OF = {str: list, int: pipeline._each(int), float: pipeline._each(float)}


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(table=_tables())
@example(table=(b"a\t1\tb\n2\n", (str, int)))  # field counts that balance out
@example(table=(b"x\ty\tz\tq\nw\tv\n", (str, str, str)))
def test_read_columns_equals_the_row_reader(table):
    blob, types = table
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.tsv")
        with open(path, "wb") as handle:
            handle.write(blob)
        try:
            expected = repr(_read_rows(path, *types))
        except StorageError as exc:
            expected = str(exc)
        try:
            columns = pipeline._read_columns(path, *(_COLUMN_OF[kind] for kind in types))
        except StorageError as exc:
            assert str(exc) == expected
            return
    assert len(columns) == len(types)
    assert all(type(column) is list and len(column) == len(columns[0]) for column in columns)
    assert repr(list(zip(*columns))) == expected


# A graph whose labels differ from their ids, and stored-table cells:
# its labels in their own and in other spellings, its ids, its predicates
# and others, numbers, and cells that are none of these.
_STORED_GRAPH = KnowledgeGraph.from_labeled_triples([
    ("Red Fox", "isa", "animal"), ("ΟΔΟΣ", "Part  Of", "place"), ("river", "isa", "place")])
_STORED_CELLS = st.one_of(
    st.sampled_from(["Red Fox", "red fox", " RED  fox ", "ΟΔΟΣ", "οδοσ", "animal", "river",
                     "place", "nowhere", "isa", "Part  Of", "part of", " ISA ", "0", "3", "-1",
                     "1.5", "nan", "x", "", "\r", "\t", "\n"]),
    st.text(alphabet="ab 1.-", max_size=3)).map(str.encode)
_STORED_IDS = dict(zip(_STORED_GRAPH.concepts.values(), _STORED_GRAPH.concepts))


def _concept_cell(cid):
    """Reference: a stored concept id, checked against the graph."""
    if cid not in _STORED_GRAPH.concepts:
        raise ValueError(f"{cid!r} is not a concept of the graph")
    return cid


def _label_cell(text):
    """Reference: a stored label's concept id, by the graph's own labels
    and, for any other spelling, by normalize_label."""
    return _STORED_IDS[text] if text in _STORED_IDS else _concept_cell(normalize_label(text))


# Per stored subgraph file, its reference cell functions, and its
# _read_columns converters over the graph.
_LABELS = pipeline._labels(_STORED_GRAPH)
_CONCEPTS = pipeline._concepts(_STORED_GRAPH)
_STORED_FILES = {
    "triples": ((_label_cell, normalize_label, _label_cell), (_LABELS, normalize_all, _LABELS)),
    "depths": ((_concept_cell, int), (_CONCEPTS, pipeline._each(int))),
    "scores": ((_concept_cell, float), (_CONCEPTS, pipeline._each(float))),
    "concepts": ((_concept_cell,), (_CONCEPTS,)),
}


@st.composite
def _stored_tables(draw):
    """(file bytes, stored file name), drawn as _tables draws, from cells
    that are mostly valid."""
    name = draw(st.sampled_from(sorted(_STORED_FILES)))
    width = len(_STORED_FILES[name][0])
    row = st.lists(_STORED_CELLS, min_size=width, max_size=width)
    lines = draw(st.lists(st.one_of(row, row, row, st.lists(_STORED_CELLS, max_size=4))
                          .map(b"\t".join), max_size=8))
    blob = b"".join(line + b"\n" for line in lines)
    rarely = st.sampled_from([False] * 4 + [True])
    if draw(rarely):
        blob = blob[:-1]
    if draw(rarely):
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\xff" + blob[at:]
    return blob, name


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(table=_stored_tables())
@example(table=(b"Red Fox\tisa\tanimal\nriver\tisa\tplace\n", "triples"))
@example(table=(" RED  fox \tPart  Of\tοδοσ\n".encode(), "triples"))
@example(table=(b"red fox\t2\nnowhere\tx\n", "depths"))  # the first fault wins
@example(table=(b"red fox\t2\nplace\t1\tx\nnowhere\t1\n", "depths"))
@example(table=(b"nowhere\t1\nriver\t2\nx\t1\n", "scores"))  # two bad cells, one column
def test_column_converters_equal_the_row_reader(table):
    blob, name = table
    cells, converters = _STORED_FILES[name]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.tsv")
        with open(path, "wb") as handle:
            handle.write(blob)
        try:
            expected = repr(_read_rows(path, *cells))
        except StorageError as exc:
            expected = str(exc)
        try:
            columns = pipeline._read_columns(path, *converters)
        except StorageError as exc:
            assert str(exc) == expected
            return
    assert all(type(column) is list and len(column) == len(columns[0]) for column in columns)
    assert repr(list(zip(*columns))) == expected


@pytest.mark.parametrize("converter", [_CONCEPTS, _LABELS], ids=["concepts", "labels"])
def test_a_column_converter_names_its_first_bad_cell(converter, tmp_path):
    with pytest.raises(ValueError, match="^'nowhere' is not a concept of the graph$"):
        converter(["nowhere", "river", "elsewhere"])
    path = tmp_path / "table.tsv"
    path.write_text("nowhere\nriver\nelsewhere\n", encoding="utf-8")
    with pytest.raises(StorageError, match=re.escape(f"{path}:1: 'nowhere' is not")):
        pipeline._read_columns(str(path), converter)


def test_link_concepts_matches_multiword_labels():
    from kginfuse.kg import KnowledgeGraph, Triple

    kg = KnowledgeGraph.from_labeled_triples([
        ("red fox", "isa", "animal"),
        ("fox", "isa", "animal"),
        ("river", "isa", "place"),
    ])
    found = link_concepts(kg, tokenize("A Red Fox crossed the river!"))
    assert found == {"red fox", "fox", "river"}
    assert link_concepts(kg, tokenize("nothing here")) == set()


def test_link_concepts_links_every_id_of_a_label_and_no_tokenless_label():
    from kginfuse.kg import KnowledgeGraph, Triple

    kg = KnowledgeGraph.from_labeled_triples([
        ("red fox", "isa", "animal"),
        ("red-fox", "isa", "animal"),
        ("!!!", "isa", "animal"),
    ])
    assert sorted(kg.token_index[("red", "fox")]) == ["red fox", "red-fox"]
    assert () not in kg.token_index
    assert link_concepts(kg, tokenize("A red fox!")) == {"red fox", "red-fox"}
    assert link_concepts(kg, tokenize("!!! an animal !!!")) == {"animal"}
    assert link_concepts(kg, tokenize("")) == set()


def _scan_links(kg, text):
    """Reference: every label's tokens tried at every offset of the text."""
    tokens = tokenize(text)
    found = set()
    for cid, raw in kg.concepts.items():
        label = tokenize(raw)
        width = len(label)
        if label and any(tokens[i:i + width] == label for i in range(len(tokens) - width + 1)):
            found.add(cid)
    return found


_WORDS = st.one_of(st.sampled_from(["red", "Red", "fox", "river", "x-y", "Straße", "ΟΔΟΣ", "!"]),
                   st.text(alphabet="abAB -ßΣς", min_size=1, max_size=4))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(labels=st.lists(st.lists(_WORDS, min_size=1, max_size=3).map(" ".join)
                       .filter(normalize_label), min_size=1, max_size=8),
       text=st.lists(_WORDS, max_size=12).map(" ".join))
def test_link_concepts_equals_the_scan(labels, text):
    from kginfuse.kg import KnowledgeGraph, Triple

    kg = KnowledgeGraph.from_labeled_triples([(label, "isa", "zroot") for label in labels])
    assert link_concepts(kg, tokenize(text)) == _scan_links(kg, text)


def test_read_labeled_tsv_names_line_of_non_utf8_byte(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes("pos\tjihad\nneg\tcafé\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}:2: not valid UTF-8")):
        read_labeled_tsv(path)
