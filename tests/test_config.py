"""Configuration parsing, validation, and round-tripping."""

import re

import pytest

from kginfuse.config import (
    config_hash,
    emit_config,
    parse_config,
    parse_config_text,
    require_input_files,
    with_overrides,
)
from kginfuse.errors import ConfigError, ValidationError


def test_parse_tiny_project(tiny_project):
    cfg = parse_config(tiny_project)
    assert cfg.target_class == "pos"
    assert cfg.d_sub == {"main": 4}
    assert cfg.predicates is None
    assert cfg.mode == "vanilla"
    assert cfg.kg_path.endswith("kg.tsv")
    require_input_files(cfg)


def test_round_trip_is_identity(tiny_project):
    cfg = parse_config(tiny_project)
    text = emit_config(cfg)
    again = parse_config_text(text, base_dir="/")
    assert again == cfg
    assert emit_config(again) == text
    assert config_hash(again) == config_hash(cfg)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nbogus = 1\n")
    assert "bogus" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[mystery]\nx = 1\n")


def test_duplicate_key_rejected():
    text = "[paths]\nkg = a\nkg = b\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "duplicate" in str(err.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("kg = a\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError):
        parse_config_text("[paths]\nkg = a\n")  # no dataset / corpus


def test_missing_corpus_dimension():
    text = "[paths]\nkg = a\ndataset = b\n[subkg]\ntarget_class = pos\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "corpus" in str(err.value)


def test_d_sub_default_and_override():
    text = (
        "[paths]\nkg = a\ndataset = b\ncorpus.x = c\ncorpus.y = d\n"
        "[subkg]\ntarget_class = pos\n"
        "[embedding]\nd_sub = 3\nd_sub.y = 5\n"
    )
    cfg = parse_config_text(text)
    assert cfg.d_sub == {"x": 3, "y": 5}
    assert cfg.content_width() == 8


def test_d_sub_for_unknown_dimension_rejected():
    text = (
        "[paths]\nkg = a\ndataset = b\ncorpus.x = c\n"
        "[subkg]\ntarget_class = pos\n"
        "[embedding]\nd_sub = 3\nd_sub.z = 5\n"
    )
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_predicate_allowlist_parsed_and_sorted():
    text = (
        "[paths]\nkg = a\ndataset = b\ncorpus.x = c\n"
        "[subkg]\ntarget_class = pos\npredicates = isa, related_to\n"
        "[embedding]\nd_sub = 2\n"
    )
    cfg = parse_config_text(text)
    assert cfg.predicates == ("isa", "related_to")


def test_bad_numeric_values_rejected():
    base = (
        "[paths]\nkg = a\ndataset = b\ncorpus.x = c\n"
        "[subkg]\ntarget_class = pos\n[embedding]\nd_sub = 2\n"
    )
    for bad in ("[nlm]\nlayers = 1\n", "[nlm]\nlr = 0\n", "[nlm]\nepochs = zero\n",
                "[run]\nmode = hybrid\n", "[dke]\nalpha = -1\n"):
        with pytest.raises(ConfigError):
            parse_config_text(base + bad)


def test_missing_input_file_detected(tiny_project, tmp_path):
    cfg = parse_config(tiny_project)
    (tmp_path / "corpus.txt").unlink()
    with pytest.raises(ConfigError) as err:
        require_input_files(cfg)
    assert "corpus.txt" in str(err.value)


def test_overrides(tiny_project):
    cfg = parse_config(tiny_project)
    out = with_overrides(cfg, mode="infused", seed=99, out_dir="/tmp/elsewhere")
    assert (out.mode, out.seed, out.out_dir) == ("infused", 99, "/tmp/elsewhere")
    assert cfg.mode == "vanilla"
    with pytest.raises(ConfigError):
        with_overrides(cfg, mode="bogus")


def test_non_utf8_config_names_path_and_line(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[run]\nseed = 1\n# café\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: not valid UTF-8")):
        parse_config(path)
