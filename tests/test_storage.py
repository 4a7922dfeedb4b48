"""Binary containers: bit-exact round-trips, atomic writes, corrupt files."""

import os
import re
import struct
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kginfuse.config import parse_config
from kginfuse.datasets import read_labeled_tsv
from kginfuse.errors import StorageError, ValidationError
from kginfuse.kg import load_graph
from kginfuse.pipeline import build, load_trained, train
from kginfuse.storage import (
    ARRAY_MAGIC,
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
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

    def test_repeated_array_name_rejected(self, tmp_path):
        path = tmp_path / "twice.kicp"
        entry = struct.pack("<I", 1) + b"x" + struct.pack("<2I", 1, 1)
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<2I", FORMAT_VERSION, 2) + b"{}"
                         + struct.pack("<I", 2) + entry + entry
                         + struct.pack("<2d", 1.0, 2.0))
        with pytest.raises(StorageError, match="repeated array name 'x'"):
            load_checkpoint(path)

    def test_missing_metadata_key_rejected_by_load_trained(self, trained_project, tmp_path):
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        del meta["layers"]
        path = tmp_path / "nometa.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError, match="layers"):
            load_trained(path)

    def test_older_checkpoint_keys_are_ignored(self, tiny_project, tmp_path):
        # Older checkpoints also stored the target class and the infusion
        # settings; they load and predict exactly as before.
        cfg = replace(parse_config(tiny_project), mode="infused")
        checkpoint = train(cfg, art=build(cfg)).checkpoint_path
        meta, arrays = load_checkpoint(checkpoint)
        meta.update(target_class="pos", gate_lr=0.1, epsilon=1e-6, max_inner_iters=20)
        save_checkpoint(tmp_path / "older.kicp", meta, arrays)
        sequences = [np.random.default_rng(i).normal(size=(i + 1, 4)) for i in range(5)]
        assert np.array_equal(load_trained(tmp_path / "older.kicp").predict_proba_batch(sequences),
                              load_trained(checkpoint).predict_proba_batch(sequences))

    def test_missing_array_rejected_by_load_trained(self, trained_project, tmp_path):
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        del arrays["lstm.layer1.W"]
        path = tmp_path / "noarray.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError, match="lstm.layer1.W"):
            load_trained(path)

    @pytest.mark.parametrize("name, shape", [
        ("lstm.head.W", (3, 3)), ("lstm.layer0.W", (16, 7)), ("lstm.layer1.b", (15,)),
        ("ke", (4, 1)),
    ])
    def test_misshapen_array_rejected_by_load_trained(self, trained_project, tmp_path,
                                                       name, shape):
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        arrays[name] = np.zeros(shape)
        path = tmp_path / "shape.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError, match=re.escape(f"{name!r} has shape {shape}")):
            load_trained(path)

    def test_misshapen_fusion_array_rejected_by_load_trained(self, tiny_project, tmp_path):
        cfg = replace(parse_config(tiny_project), mode="infused")
        checkpoint = train(cfg, art=build(cfg)).checkpoint_path
        assert load_trained(checkpoint).fusion is not None
        meta, arrays = load_checkpoint(checkpoint)
        for name in ("fusion.gate_weights", "fusion.gate_bias", "fusion.head.W"):
            bad = dict(arrays, **{name: np.zeros((2, 2))})
            save_checkpoint(tmp_path / "fusion.kicp", meta, bad)
            with pytest.raises(StorageError, match=re.escape(name)):
                load_trained(tmp_path / "fusion.kicp")

    @pytest.mark.parametrize("key, value", [
        ("layers", "2"), ("hidden", 0), ("n_classes", 2.0), ("labels", ["neg"]),
        ("mode", "hybrid"), ("labels", [1, 2]), ("labels", ["neg", "neg"]),
    ])
    def test_invalid_metadata_rejected_by_load_trained(self, trained_project, tmp_path,
                                                       key, value):
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        meta[key] = value
        path = tmp_path / "meta.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError):
            load_trained(path)

    def test_infused_hidden_unequal_to_input_width_rejected(self, trained_project, tmp_path):
        # Every array matches the metadata, but fusion needs hidden == input_width.
        _, checkpoint = trained_project
        meta, arrays = load_checkpoint(checkpoint)
        d, width, n = 4, 3, meta["n_classes"]
        meta.update(mode="infused", hidden=d, input_width=width)
        arrays.update({"lstm.layer0.W": np.zeros((4 * d, width + d)), "ke": np.zeros(width),
                       "fusion.gate_weights": np.zeros((d, d + width)),
                       "fusion.gate_bias": np.zeros(d), "fusion.head.W": np.zeros((n, d)),
                       "fusion.head.b": np.zeros(n)})
        path = tmp_path / "width.kicp"
        save_checkpoint(path, meta, arrays)
        with pytest.raises(StorageError, match="hidden == input_width"):
            load_trained(path)

    def test_deeply_nested_metadata_rejected(self, tmp_path):
        path = tmp_path / "deep.kicp"
        meta = b"[" * 100_000
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<2I", 1, len(meta)) + meta
                         + struct.pack("<I", 0))
        with pytest.raises(StorageError, match="unreadable metadata"):
            load_checkpoint(path)

    def test_more_axes_than_numpy_supports_rejected(self, tmp_path):
        path = tmp_path / "rank65.kign"
        path.write_bytes(ARRAY_MAGIC + struct.pack("<67I", 1, 65, *[1] * 65) + bytes(8))
        with pytest.raises(StorageError, match="unusable shape"):
            load_array(path)


def _valid_checkpoint_bytes():
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "small.kicp")
        save_checkpoint(path, {"mode": "vanilla", "n": [1, 2]},
                        {"a": np.arange(3.0), "b": np.ones((2, 1))})
        with open(path, "rb") as handle:
            return handle.read()


_CHECKPOINT = _valid_checkpoint_bytes()
_HEADER = struct.pack("<I", FORMAT_VERSION)
_BLOBS = st.one_of(
    st.binary(max_size=80),
    st.binary(max_size=80).map(lambda b: ARRAY_MAGIC + _HEADER + b),
    st.binary(max_size=80).map(lambda b: CHECKPOINT_MAGIC + _HEADER + b),
    st.tuples(st.integers(0, len(_CHECKPOINT) - 1), st.integers(0, 255)).map(
        lambda iv: _CHECKPOINT[:iv[0]] + bytes([iv[1]]) + _CHECKPOINT[iv[0] + 1:]),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_BLOBS)
def test_any_bytes_load_or_raise_storage_error(blob):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "blob")
        with open(path, "wb") as handle:
            handle.write(blob)
        for load in (load_array, load_checkpoint):
            try:
                load(path)
            except StorageError:
                pass


def test_read_text_names_line_of_bad_byte(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("one\ntwo\nnaïve\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: not valid UTF-8")):
        read_text(path)


def test_read_text_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeff\ufeffone\r\ntwo\ufeff".encode("utf-8"))
    assert read_text(path) == "\ufeffone\ntwo\ufeff"


def graph_contents(path):
    kg = load_graph(path)
    return kg.concepts, kg.triples


@pytest.mark.parametrize("name, load", [
    ("pipeline.cfg", parse_config),
    ("kg.tsv", graph_contents),
    ("train.tsv", read_labeled_tsv),
], ids=["config", "graph", "dataset"])
def test_input_with_a_byte_order_mark_loads_as_without_one(tiny_project, name, load):
    path = tiny_project.parent / name
    plain = load(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load(path) == plain
