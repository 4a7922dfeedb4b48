"""Command-line driver: verbs, flags, and exit codes."""

import os
import re

import numpy as np
import pytest

from kginfuse import kg, pipeline
from kginfuse.cli import main
from kginfuse.storage import load_checkpoint, save_checkpoint
from kginfuse.synth import generate_benchmark


SUMMARY = re.compile(r"^seeded subgraph: (\d+) triples, (\d+) concepts$", re.MULTILINE)


def test_build_then_train_then_eval(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    out = capsys.readouterr().out
    assert "built artifacts" in out
    assert SUMMARY.search(out)

    assert main(["build", "--config", str(tiny_project)]) == 0
    out = capsys.readouterr().out
    assert "up to date" in out
    assert SUMMARY.search(out)

    assert main(["train", "--config", str(tiny_project)]) == 0
    out = capsys.readouterr().out
    assert "checkpoint:" in out
    checkpoint = out.split("checkpoint: ", 1)[1].splitlines()[0]

    assert main(["eval", "--config", str(tiny_project), "--checkpoint", checkpoint]) == 0
    assert "false-alarm" in capsys.readouterr().out


def test_build_summary_line_counts_the_stored_subgraph(tiny_project, capsys):
    config = ["--config", str(tiny_project)]
    assert main(["build", *config]) == 0
    cold = SUMMARY.search(capsys.readouterr().out).group(0)
    assert cold == "seeded subgraph: 4 triples, 5 concepts"

    assert main(["build", *config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("up to date")
    assert SUMMARY.search(out).group(0) == cold

    checkpoint = _train_vanilla(tiny_project, capsys)
    assert main(["update-kg", *config, "--checkpoint", checkpoint]) == 0
    out = capsys.readouterr().out
    assert "outcome: updated" in out
    added = int(re.search(r"^new triples: (\d+) ", out, re.MULTILINE).group(1))
    assert added > 0

    assert main(["build", *config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("up to date")
    assert int(SUMMARY.search(out).group(1)) == 4 + added


def test_up_to_date_build_prints_its_summary_without_parsing_the_graph(tiny_project, capsys,
                                                                       monkeypatch):
    config = ["--config", str(tiny_project)]
    assert main(["build", *config]) == 0
    cold = SUMMARY.search(capsys.readouterr().out).group(0)

    def refuse(*args, **kwargs):
        raise AssertionError("the knowledge graph was parsed")

    monkeypatch.setattr(kg, "load_graph", refuse)
    monkeypatch.setattr(pipeline, "load_graph", refuse)
    assert main(["build", *config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("up to date")
    assert SUMMARY.search(out).group(0) == cold


def test_a_corrupt_subgraph_fails_update_kg_but_not_eval(tiny_project, capsys):
    config = ["--config", str(tiny_project)]
    checkpoint = _train_vanilla(tiny_project, capsys)
    assert main(["eval", *config, "--checkpoint", checkpoint]) == 0
    report = capsys.readouterr().out

    depths = tiny_project.parent / "out" / "subkg" / "depths.tsv"
    line = depths.read_bytes().count(b"\n") + 1
    with open(depths, "ab") as handle:
        handle.write(b"nowhere\t1\n")
    assert main(["update-kg", *config, "--checkpoint", checkpoint]) == 2
    assert f"{depths}:{line}: 'nowhere' is not a concept of the graph" in capsys.readouterr().err

    assert main(["eval", *config, "--checkpoint", checkpoint]) == 0
    assert capsys.readouterr().out == report


@pytest.mark.parametrize("name", ["depths.tsv", "triples.tsv"])
def test_a_no_op_update_kg_exits_two_on_a_cut_triples_or_depths_file(tiny_project, capsys,
                                                                     name):
    config = ["--config", str(tiny_project)]
    checkpoint = _train_vanilla(tiny_project, capsys)
    assert main(["update-kg", *config, "--checkpoint", checkpoint]) == 0
    assert "outcome: updated" in capsys.readouterr().out
    assert main(["update-kg", *config, "--checkpoint", checkpoint]) == 0
    assert "outcome: difference already absorbed" in capsys.readouterr().out

    path = tiny_project.parent / "out" / "subkg" / name
    path.write_bytes(path.read_bytes()[:-3])
    assert main(["update-kg", *config, "--checkpoint", checkpoint]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"{re.escape(str(path))}:\d+: line not terminated", err)


def test_train_infused_via_mode_flag(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    assert main(["train", "--config", str(tiny_project), "--mode", "infused"]) == 0
    out = capsys.readouterr().out
    assert "infusion" in out
    assert os.path.isfile(os.path.join(os.path.dirname(str(tiny_project)),
                                       "out", "model_infused.kicp"))


def test_missing_input_exits_one(tiny_project):
    os.unlink(os.path.join(os.path.dirname(str(tiny_project)), "corpus.txt"))
    assert main(["build", "--config", str(tiny_project)]) == 1


def test_directory_as_input_path_exits_one(tiny_project, capsys):
    checkpoint = _train_vanilla(tiny_project, capsys)
    config = ["eval", "--config", str(tiny_project)]
    directory = str(tiny_project.parent)
    for argv in ([*config, "--checkpoint", checkpoint, "--dataset", directory],
                 [*config, "--checkpoint", directory]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_bad_config_exits_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nbogus = 1\n", encoding="utf-8")
    assert main(["build", "--config", str(bad)]) == 1


def test_compare_single_seed_exits_one(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", str(tiny_project), "--n-seeds", "1"]) == 1


@pytest.mark.parametrize("argv", [["train"], ["compare", "--config", "x", "--n-seeds", "abc"],
                                  ["gradcheck", "--seed", "-1"]])
def test_usage_error_exits_one(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["train", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_compare_two_seeds(tiny_project, capsys):
    assert main(["compare", "--config", str(tiny_project), "--n-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "mode comparison over 2 seeds" in out


def test_update_kg_via_cli(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    assert main(["train", "--config", str(tiny_project)]) == 0
    out = capsys.readouterr().out
    checkpoint = out.split("checkpoint: ", 1)[1].splitlines()[0]
    assert main(["update-kg", "--config", str(tiny_project),
                 "--checkpoint", checkpoint]) == 0
    out = capsys.readouterr().out
    assert "misclassified:" in out
    assert re.search(r"mapping residual: \S+ imbalance: \S+\n", out)


def test_update_kg_counts_an_undecodable_audit_log(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    assert main(["train", "--config", str(tiny_project)]) == 0
    checkpoint = capsys.readouterr().out.split("checkpoint: ", 1)[1].splitlines()[0]
    audit = tiny_project.parent / "out" / "update_audit.log"
    audit.write_bytes(b"\xff\n")
    assert main(["update-kg", "--config", str(tiny_project),
                 "--checkpoint", checkpoint]) == 0
    assert audit.read_bytes().splitlines()[-1].startswith(b"cycle=2 ")


def test_generated_benchmark_runs_from_a_relative_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = generate_benchmark("bench", seed=0, epochs=1, iters=1).config
    assert main(["build", "--config", config]) == 0
    assert os.path.isfile(tmp_path / "bench" / "runs" / "manifest.json")


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_seed_and_out_overrides(tiny_project, tmp_path, capsys):
    alt = tmp_path / "alt_out"
    assert main(["build", "--config", str(tiny_project), "--seed", "5",
                 "--out", str(alt)]) == 0
    assert os.path.isfile(alt / "manifest.json")


def test_truncated_checkpoint_exits_two(tiny_project, capsys):
    assert main(["train", "--config", str(tiny_project)]) == 0
    checkpoint = capsys.readouterr().out.split("checkpoint: ", 1)[1].splitlines()[0]
    with open(checkpoint, "rb") as handle:
        blob = handle.read()
    with open(checkpoint, "wb") as handle:
        handle.write(blob[:-10])
    assert main(["eval", "--config", str(tiny_project), "--checkpoint", checkpoint]) == 2
    err = capsys.readouterr().err
    assert "runtime error:" in err and "truncated" in err
    assert "Traceback" not in err


def test_non_utf8_dataset_exits_one(tiny_project, capsys):
    dataset = os.path.join(os.path.dirname(str(tiny_project)), "train.tsv")
    with open(dataset, "ab") as handle:
        handle.write("pos\tcafé jihad\n".encode("latin-1"))
    assert main(["build", "--config", str(tiny_project)]) == 1
    err = capsys.readouterr().err
    assert f"error: {dataset}:9: not valid UTF-8" in err
    assert "Traceback" not in err


def _train_vanilla(tiny_project, capsys):
    assert main(["train", "--config", str(tiny_project)]) == 0
    return capsys.readouterr().out.split("checkpoint: ", 1)[1].splitlines()[0]


def test_vocabulary_cut_mid_line_exits_two(tiny_project, capsys):
    checkpoint = _train_vanilla(tiny_project, capsys)
    vocab = os.path.join(os.path.dirname(str(tiny_project)), "out", "models", "main.vocab.tsv")
    with open(vocab, "rb") as handle:
        cut = handle.read()
    cut = cut[:cut.index(b"\n", 20) + 3]  # two bytes into a line
    with open(vocab, "wb") as handle:
        handle.write(cut)
    assert main(["eval", "--config", str(tiny_project), "--checkpoint", checkpoint]) == 2
    err = capsys.readouterr().err
    line = cut.count(b"\n") + 1
    assert f"runtime error: {vocab}:{line}: line not terminated" in err
    assert "Traceback" not in err


def test_truncated_manifest_exits_two(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    manifest = os.path.join(os.path.dirname(str(tiny_project)), "out", "manifest.json")
    with open(manifest, "rb") as handle:
        blob = handle.read()
    with open(manifest, "wb") as handle:
        handle.write(blob[:len(blob) // 2])
    capsys.readouterr()
    assert main(["build", "--config", str(tiny_project)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {manifest}: unreadable JSON" in err
    assert "Traceback" not in err


def test_non_finite_config_value_exits_one(tiny_project, capsys):
    text = tiny_project.read_text(encoding="utf-8").replace("clip_norm = 5.0", "clip_norm = nan")
    tiny_project.write_text(text, encoding="utf-8")
    assert main(["train", "--config", str(tiny_project)]) == 1
    err = capsys.readouterr().err
    assert "error: clip_norm: must be finite, got 'nan'" in err
    assert "Traceback" not in err


def test_misshapen_checkpoint_array_exits_two(tiny_project, tmp_path, capsys):
    checkpoint = _train_vanilla(tiny_project, capsys)
    meta, arrays = load_checkpoint(checkpoint)
    arrays["lstm.head.W"] = np.zeros((3, 3))
    bad = str(tmp_path / "bad.kicp")
    save_checkpoint(bad, meta, arrays)
    assert main(["eval", "--config", str(tiny_project), "--checkpoint", bad]) == 2
    err = capsys.readouterr().err
    assert "runtime error:" in err and "'lstm.head.W' has shape (3, 3)" in err
    assert "Traceback" not in err


def test_non_finite_checkpoint_array_exits_two(tiny_project, tmp_path, capsys):
    assert main(["train", "--config", str(tiny_project), "--mode", "infused"]) == 0
    checkpoint = capsys.readouterr().out.split("checkpoint: ", 1)[1].splitlines()[0]
    meta, arrays = load_checkpoint(checkpoint)
    arrays["fusion.gate_weights"][0, 0] = np.nan
    bad = str(tmp_path / "nan.kicp")
    save_checkpoint(bad, meta, arrays)
    assert main(["eval", "--config", str(tiny_project), "--checkpoint", bad]) == 2
    err = capsys.readouterr().err
    assert "runtime error:" in err and "'fusion.gate_weights' has non-finite values" in err
    assert "Traceback" not in err


def test_checkpoint_of_another_token_width_exits_one(tiny_project, capsys):
    checkpoint = _train_vanilla(tiny_project, capsys)
    config = tiny_project.read_text(encoding="utf-8")
    tiny_project.write_text(config.replace("d_sub.main = 4", "d_sub.main = 3"), encoding="utf-8")
    assert main(["build", "--config", str(tiny_project)]) == 0
    assert "built artifacts" in capsys.readouterr().out
    for verb in ("eval", "update-kg"):
        assert main([verb, "--config", str(tiny_project), "--checkpoint", checkpoint]) == 1
        err = capsys.readouterr().err
        assert "error: token width 3 != model input width 4" in err
        assert "Traceback" not in err
