"""Configuration parsing, validation, and round-tripping."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kginfuse.config import (
    MODES,
    PipelineConfig,
    config_hash,
    emit_config,
    parse_config,
    parse_config_text,
    require_input_files,
    with_overrides,
)
from kginfuse.errors import ConfigError, ValidationError
from kginfuse.synth import generate_benchmark


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


_BASE = (
    "[paths]\nkg = a\ndataset = b\ncorpus.x = c\n"
    "[subkg]\ntarget_class = pos\n[embedding]\nd_sub = 2\n"
)


def test_bad_numeric_values_rejected():
    for bad in ("[nlm]\nlayers = 1\n", "[nlm]\nlr = 0\n", "[nlm]\nepochs = zero\n",
                "[run]\nmode = hybrid\n", "[dke]\nalpha = -1\n"):
        with pytest.raises(ConfigError):
            parse_config_text(_BASE + bad)


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


@pytest.mark.parametrize("section, key", [
    ("nlm", "lr"), ("nlm", "clip_norm"), ("infusion", "epsilon"),
    ("infusion", "gate_lr"), ("dke", "alpha"), ("dke", "ridge"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"{key}: must be finite"):
        parse_config_text(_BASE + f"[{section}]\n{key} = {value}\n")


GOLDEN_CONFIG = """\
[paths]
kg = /p/kg.tsv
dataset = /p/train.tsv
eval_dataset = /p/test.tsv
corpus.a = /p/a.txt
corpus.b = /p/b.txt

[subkg]
target_class = pos
top_m = 5
hops = 1
predicates = isa,part_of
taxonomy_predicate = isa

[embedding]
window = 3
d_sub.a = 4
d_sub.b = 2

[nlm]
layers = 3
hidden = 6
epochs = 2
iters = 9
batch_size = 4
lr = 0.25
clip_norm = 5.0

[infusion]
epsilon = 1e-06
gate_lr = 0.1
max_inner_iters = 7

[dke]
alpha = 1.5
ridge = 0.0
proximity_hops = 1

[run]
mode = vanilla
seed = -3
out = /p/runs
compare_seeds = 4
"""


def test_emitted_text_is_pinned():
    # config_hash keys the build cache and every checkpoint's
    # config_sha256, so the emitted bytes must not drift.
    cfg = PipelineConfig(
        kg_path="/p/kg.tsv", dataset_path="/p/train.tsv", eval_dataset_path="/p/test.tsv",
        corpora={"b": "/p/b.txt", "a": "/p/a.txt"}, target_class="pos", top_m=5,
        subkg_hops=1, predicates=("isa", "part_of"), window=3, d_sub={"b": 2, "a": 4},
        layers=3, hidden=6, epochs=2, iters=9, batch_size=4, lr=0.25, clip_norm=5.0,
        epsilon=1e-6, gate_lr=0.1, max_inner_iters=7, alpha=1.5, ridge=0.0,
        proximity_hops=1, mode="vanilla", seed=-3, out_dir="/p/runs", compare_seeds=4,
    )
    assert emit_config(cfg) == GOLDEN_CONFIG
    assert parse_config_text(GOLDEN_CONFIG, base_dir="/") == cfg


def test_synth_benchmark_config_is_pinned(tmp_path):
    # generate_benchmark passes only the settings that differ from the
    # PipelineConfig defaults; emit_config writes every key, so the
    # benchmark's config text, and with it every cached build and
    # checkpoint hash, stays the same.
    config = generate_benchmark(str(tmp_path), seed=0).config
    with open(config, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == "9498916c52ebed65a0b0c8236e808e94a521efd36b0684e6aba95cffb2acd493"


_CONFIG_LINES = st.sampled_from([
    "[paths]", "[subkg]", "[embedding]", "[nlm]", "[run]", "[dke]", "[mystery]",
    "kg = kg.tsv", "dataset = d.tsv", "eval_dataset =", "corpus.x = c.txt", "corpus. = c",
    "target_class = pos", "top_m = 0", "hops = -1", "predicates = all", "predicates = ,",
    "d_sub = 2", "d_sub.x = 3", "d_sub.y = 1", "window = 1e3", "layers = 2", "lr = nan",
    "ridge = -0.0", "mode = hybrid", "seed = 99999999999999999999", "out =", "= 3",
    "# comment", "",
])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.one_of(_CONFIG_LINES, st.text(max_size=20)), max_size=14))
def test_any_text_parses_or_raises_validation_error(lines):
    try:
        parse_config_text("\n".join(lines), base_dir="/")
    except ValidationError:
        pass


_NAMES = st.text("abcxyz_09", min_size=1, max_size=6)
_PATHS = st.lists(_NAMES, min_size=1, max_size=3).map(lambda parts: "/" + "/".join(parts))
_VALUES = st.text("abc xyz-_.=:", min_size=1, max_size=8).map(str.strip).filter(bool)
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def _configs(draw):
    corpora = draw(st.dictionaries(_NAMES, _PATHS, min_size=1, max_size=3))
    predicates = draw(st.none() | st.sets(_NAMES.filter(lambda p: p.lower() != "all"),
                                          min_size=1, max_size=3).map(lambda p: tuple(sorted(p))))
    ints = st.integers(min_value=2, max_value=10**6)
    return PipelineConfig(
        kg_path=draw(_PATHS), dataset_path=draw(_PATHS), corpora=corpora,
        eval_dataset_path=draw(st.none() | _PATHS), target_class=draw(_VALUES),
        top_m=draw(ints), subkg_hops=draw(st.integers(0, 5)), predicates=predicates,
        taxonomy_predicate=draw(_VALUES), window=draw(ints),
        d_sub={name: draw(ints) for name in corpora}, layers=draw(ints), hidden=draw(ints),
        epochs=draw(ints), iters=draw(ints), batch_size=draw(ints), lr=draw(_POSITIVE),
        clip_norm=draw(_POSITIVE), epsilon=draw(_POSITIVE), gate_lr=draw(_POSITIVE),
        max_inner_iters=draw(ints), alpha=draw(_POSITIVE),
        ridge=draw(st.floats(min_value=0.0, max_value=1e300)), proximity_hops=draw(ints),
        mode=draw(st.sampled_from(MODES)), seed=draw(st.integers(-10**9, 10**9)),
        out_dir=draw(_PATHS), compare_seeds=draw(ints),
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_configs())
def test_parse_of_emit_is_identity(cfg):
    assert parse_config_text(emit_config(cfg), base_dir="/") == cfg
