"""Pipeline integration: build, train, evaluate, compare, update cycle."""

import json
import os
import re
import time

import numpy as np
import pytest

from kginfuse.config import parse_config
from kginfuse.datasets import read_labeled_tsv
from kginfuse.errors import ConfigError, ValidationError
from kginfuse.pipeline import (
    build,
    compare,
    evaluate,
    link_concepts,
    load_build,
    load_trained,
    train,
    update_kg,
)
from kginfuse.storage import save_checkpoint
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
        "n_classes": len(labels), "target_class": labels[-1],
        "gate_lr": 0.1, "epsilon": 1e-4, "max_inner_iters": 50,
    }
    save_checkpoint(path, meta, arrays)
    return path


class TestBuild:
    def test_build_writes_artifacts_and_manifest(self, tiny_project):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        assert not art.up_to_date
        assert art.ke_pair_count > 0
        manifest = json.loads(
            open(os.path.join(cfg.out_dir, "manifest.json"), encoding="utf-8").read()
        )
        assert manifest["config_sha256"] == art.config_sha
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

    def test_input_change_triggers_rebuild(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        with open(tmp_path / "train.tsv", "a", encoding="utf-8") as handle:
            handle.write("pos\tjihad banner anew\n")
        again = build(cfg)
        assert not again.up_to_date

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

    def test_round_trip_through_disk(self, tiny_project):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        loaded = load_build(cfg)
        assert loaded.seeded.subkg.triples == art.seeded.subkg.triples
        assert loaded.seeded.embedded_concepts == art.seeded.embedded_concepts
        assert np.array_equal(loaded.seeded.embedding_matrix, art.seeded.embedding_matrix)
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
        assert not os.path.isdir(os.path.join(cfg.out_dir, "traces_vanilla"))

    def test_infused_mode_writes_traces_and_fusion(self, tiny_project):
        cfg = replace(parse_config(tiny_project), mode="infused")
        art = build(cfg)
        result = train(cfg, art=art)
        assert len(result.infusion_results) == cfg.epochs
        assert os.path.isfile(
            os.path.join(cfg.out_dir, "traces_infused", "epoch_001.csv")
        )
        ckpt = load_trained(result.checkpoint_path)
        assert ckpt.fusion is not None
        assert ckpt.head_w is not None

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


class TestEvaluate:
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

    def test_label_set_mismatch_rejected(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        art = build(cfg)
        result = train(cfg, art=art)
        bad = tmp_path / "bad_eval.tsv"
        bad.write_text("mystery\tjihad banner\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            evaluate(cfg, result.checkpoint_path, dataset_path=str(bad), art=art)


class TestCompare:
    def test_identical_modes_have_zero_deltas(self, tiny_project):
        cfg = parse_config(tiny_project)
        report = compare(cfg, n_seeds=2, modes=("vanilla", "vanilla"))
        for value in report.deltas.values():
            assert value == 0.0
        assert os.path.isfile(os.path.join(cfg.out_dir, "compare.txt"))

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
        before = load_build(cfg)
        outcome = update_kg(cfg, ckpt, dataset_path=str(bad))
        assert outcome.misclassified == 1
        assert outcome.new_triples == 2
        assert outcome.residual is not None
        after = load_build(cfg)
        assert len(after.seeded.subkg.triples) == len(before.seeded.subkg.triples) + 2
        audit = open(os.path.join(cfg.out_dir, "update_audit.log")).read()
        assert "new_triples=2" in audit

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

    def test_updated_embeddings_stay_unit_norm(self, tiny_project, tmp_path):
        cfg = parse_config(tiny_project)
        build(cfg)
        ckpt = constant_checkpoint(str(tmp_path / "const.kicp"))
        bad = tmp_path / "update_eval.tsv"
        bad.write_text("pos\tcomet in the sky\n", encoding="utf-8")
        update_kg(cfg, ckpt, dataset_path=str(bad))
        after = load_build(cfg)
        norms = np.linalg.norm(after.seeded.embedding_matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_link_concepts_matches_multiword_labels():
    from kginfuse.kg import KnowledgeGraph

    kg = KnowledgeGraph.from_labeled_triples([
        ("red fox", "isa", "animal"),
        ("fox", "isa", "animal"),
        ("river", "isa", "place"),
    ])
    found = link_concepts(kg, "A Red Fox crossed the river!")
    assert found == {"red fox", "fox", "river"}
    assert link_concepts(kg, "nothing here") == set()


def test_read_labeled_tsv_names_line_of_non_utf8_byte(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes("pos\tjihad\nneg\tcafé\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}:2: not valid UTF-8")):
        read_labeled_tsv(path)
