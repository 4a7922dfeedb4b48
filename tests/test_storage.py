"""Binary containers: bit-exact round-trips, atomic writes, corrupt files."""

import os
import re
import struct

import numpy as np
import pytest

from kginfuse.config import parse_config
from kginfuse.errors import StorageError, ValidationError
from kginfuse.pipeline import build, load_trained, train
from kginfuse.storage import (
    load_array,
    load_checkpoint,
    read_text,
    save_array,
    save_checkpoint,
)


class TestArrayFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(3,), (2, 5), (4, 1, 3), ()]:
            arr = rng.normal(size=shape)
            path = tmp_path / "x.kign"
            save_array(path, arr)
            back = load_array(path)
            assert back.shape == arr.shape
            assert np.array_equal(back.reshape(-1), np.asarray(arr).reshape(-1))

    def test_special_values_survive(self, tmp_path):
        arr = np.array([0.0, -0.0, 1e-308, 1e308, np.pi])
        path = tmp_path / "x.kign"
        save_array(path, arr)
        assert load_array(path).tobytes() == arr.tobytes()

    def test_identical_content_identical_bytes(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(4, 4))
        save_array(tmp_path / "a.kign", arr)
        save_array(tmp_path / "b.kign", arr.copy())
        assert (tmp_path / "a.kign").read_bytes() == (tmp_path / "b.kign").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kign"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(StorageError):
            load_array(path)

    def test_no_partial_files_left(self, tmp_path):
        save_array(tmp_path / "ok.kign", np.ones(3))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert not leftovers


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        meta = {"mode": "vanilla", "labels": ["neg", "pos"], "seed": 7}
        arrays = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=3)}
        path = tmp_path / "model.kicp"
        save_checkpoint(path, meta, arrays)
        meta2, arrays2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(arrays2) == {"w", "b"}
        for name in arrays:
            assert np.array_equal(arrays[name], arrays2[name])

    def test_bytes_independent_of_insertion_order(self, tmp_path):
        a = {"x": np.ones(2), "y": np.zeros((2, 2))}
        b = {"y": np.zeros((2, 2)), "x": np.ones(2)}
        save_checkpoint(tmp_path / "a.kicp", {"k": 1}, a)
        save_checkpoint(tmp_path / "b.kicp", {"k": 1}, b)
        assert (tmp_path / "a.kicp").read_bytes() == (tmp_path / "b.kicp").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kicp"
        path.write_bytes(b"KIGN" + b"\0" * 16)
        with pytest.raises(StorageError):
            load_checkpoint(path)


@pytest.fixture
def trained_project(tiny_project):
    """The tiny project built and trained in vanilla mode: (cfg, checkpoint path)."""
    cfg = parse_config(tiny_project)
    return cfg, train(cfg, art=build(cfg)).checkpoint_path


class TestCorruptArtifacts:
    def test_every_truncation_of_a_real_checkpoint_rejected(self, trained_project, tmp_path):
        _, checkpoint = trained_project
        blob = open(checkpoint, "rb").read()
        path = tmp_path / "cut.kicp"
        for cut in list(range(len(blob))) + [len(blob) + 1]:
            path.write_bytes(blob[:cut] if cut < len(blob) else blob + b"\0")
            with pytest.raises(StorageError):
                load_checkpoint(path)

    def test_every_truncation_of_a_real_array_rejected(self, trained_project, tmp_path):
        cfg, _ = trained_project
        for name in ("knowledge/ke.kign", "models/main.vectors.kign"):
            blob = open(os.path.join(cfg.out_dir, name), "rb").read()
            path = tmp_path / "cut.kign"
            for cut in list(range(len(blob))) + [len(blob) + 1]:
                path.write_bytes(blob[:cut] if cut < len(blob) else blob + b"\0")
                with pytest.raises(StorageError):
                    load_array(path)

    def test_undecodable_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.kicp"
        path.write_bytes(b"KICP" + struct.pack("<2I", 1, 2) + b"\xff{" + struct.pack("<I", 0))
        with pytest.raises(StorageError):
            load_checkpoint(path)

    def test_missing_metadata_key_rejected_by_load_trained(self, trained_project, tmp_path):
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        del meta["layers"]
        path = tmp_path / "nometa.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError, match="layers"):
            load_trained(path)

    def test_missing_array_rejected_by_load_trained(self, trained_project, tmp_path):
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        del arrays["lstm.layer1.W"]
        path = tmp_path / "noarray.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError, match="lstm.layer1.W"):
            load_trained(path)


def test_read_text_names_line_of_bad_byte(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("one\ntwo\nnaïve\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: not valid UTF-8")):
        read_text(path)
