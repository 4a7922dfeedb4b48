"""Command-line driver: verbs, flags, and exit codes."""

import os

from kginfuse.cli import main


def test_build_then_train_then_eval(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    out = capsys.readouterr().out
    assert "built artifacts" in out

    assert main(["build", "--config", str(tiny_project)]) == 0
    assert "up to date" in capsys.readouterr().out

    assert main(["train", "--config", str(tiny_project)]) == 0
    out = capsys.readouterr().out
    assert "checkpoint:" in out
    checkpoint = out.split("checkpoint: ", 1)[1].splitlines()[0]

    assert main(["eval", "--config", str(tiny_project), "--checkpoint", checkpoint]) == 0
    assert "false-alarm" in capsys.readouterr().out


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


def test_bad_config_exits_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nbogus = 1\n", encoding="utf-8")
    assert main(["build", "--config", str(bad)]) == 1


def test_compare_single_seed_exits_one(tiny_project, capsys):
    assert main(["build", "--config", str(tiny_project)]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", str(tiny_project), "--n-seeds", "1"]) == 1


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
    assert "misclassified:" in capsys.readouterr().out


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
