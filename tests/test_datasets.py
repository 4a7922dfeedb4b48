"""Token-id encoding, against the per-token loop it replaced, and the
padded batches that training gathers from it."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kginfuse import pipeline
from kginfuse.config import parse_config
from kginfuse.datasets import encode_dataset, encode_texts, read_labeled_tsv, token_sequence
from kginfuse.embedding import DimensionModel, content_width
from kginfuse.nlm import _padded, init_params
from kginfuse.rng import stream_rng
from kginfuse.text import tokenize


def reference_sequence(models, text):
    """The per-token loop the encoder replaced: one vocabulary lookup per
    token per model, zero rows for unknown tokens, one zero row for a
    document without tokens."""
    tokens = tokenize(text)
    width = content_width(models)
    if not tokens:
        return np.zeros((1, width))
    seq = np.zeros((len(tokens), width))
    for t, token in enumerate(tokens):
        start = 0
        for model in models:
            idx = model.vocab.get(token)
            if idx is not None:
                seq[t, start:start + model.d_sub] = model.vectors[idx]
            start += model.d_sub
    return seq


def reference_batch(models, texts, labels=None):
    params = init_params(content_width(models), 2, 2, 2, np.random.default_rng(0))
    return _padded(params, [reference_sequence(models, text) for text in texts], labels)


def assert_same_batch(got, want):
    assert got.x.shape == want.x.shape
    assert got.x.dtype == want.x.dtype
    assert got.x.tobytes() == want.x.tobytes()
    np.testing.assert_array_equal(got.mask, want.mask)


def two_models():
    """alpha and gamma are known only to the first model, delta only to the
    second, beta and shared to both."""
    rng = np.random.default_rng(5)
    return [
        DimensionModel("first", {"alpha": 0, "beta": 1, "shared": 2, "gamma": 3},
                       rng.normal(size=(4, 3)), 3),
        DimensionModel("second", {"shared": 0, "delta": 1, "beta": 2},
                       rng.normal(size=(3, 2)), 2),
    ]


WORDS = ["alpha", "gamma", "delta", "shared", "Beta", "beta.", "oov", "zzz", "!!", "...", ""]
ragged_texts = st.lists(st.lists(st.sampled_from(WORDS), max_size=9).map(" ".join),
                        min_size=1, max_size=12)


class TestEncoder:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ragged_texts, st.data())
    @example(["", "?!", "...  --"], None)  # empty and punctuation-only documents
    @example(["oov zzz", "zzz", "alpha"], None)  # all-OOV documents
    @example(["alpha gamma", "delta", "alpha delta shared"], None)  # one model each
    @example(["beta beta beta", "shared, shared alpha alpha"], None)  # repeated tokens
    def test_equals_the_per_token_loop(self, texts, data):
        models = two_models()
        encoded = encode_texts(models, texts)
        assert len(encoded) == len(texts)
        assert_same_batch(encoded.batch(), reference_batch(models, texts))
        for text in texts:
            got, want = token_sequence(models, text), reference_sequence(models, text)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if data is not None:
            index = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=6))
            want = reference_batch(models, [texts[i] for i in index])
            assert_same_batch(encoded.batch(index), want)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.one_of(ragged_texts.map(" ".join), st.text(),
                              st.sampled_from(["ΟΔΟΣ ΣΟΦΟΣ", "Straße Café", "日本 語", "ΣΑΣ'Σ"])),
                    max_size=10))
    @example(["", "?! ... --", "pos\tneg", "a\u2028b c\x1cd"])  # empty, punctuation-only
    @example(["Οδός Σ", "ς", "Σ"])  # a final sigma at the end of each document
    @example(["north\nwind", "calm"])  # a document holding a newline
    def test_kept_tokens_equal_per_document_tokenize(self, texts):
        assert encode_texts(two_models(), texts).tokens == [tokenize(text) for text in texts]

    def test_one_zero_row_serves_oov_tokens_and_padding(self):
        encoded = encode_texts(two_models(), ["alpha oov", "", "delta"])
        assert not encoded.table[-1].any()
        np.testing.assert_array_equal(encoded.lengths, [2, 1, 1])
        zero = len(encoded.table) - 1
        assert encoded.ids[1, 0] == encoded.ids[0, 1] == encoded.ids[1, 2] == zero


RAGGED_TRAIN = """\
pos\tjihad
pos\tjihad banner march cause rally banner jihad doctrine spreads wide
pos\tbanner, jihad!
pos\tmarch march march
neg\t
neg\t?!
neg\tunknown words only
neg\tgarden river calm water meadow garden walk slow river calm
neg\tmeadow
"""


def test_training_batches_are_cut_at_their_own_longest_document(tiny_project, monkeypatch):
    (tiny_project.parent / "train.tsv").write_text(RAGGED_TRAIN, encoding="utf-8")
    cfg = parse_config(tiny_project)
    art = pipeline.build(cfg)
    rows = read_labeled_tsv(cfg.dataset_path)
    label_index = {"neg": 0, "pos": 1}
    encoded, targets = encode_dataset(art.models, rows, label_index)
    texts = [text for _, text in rows]
    assert_same_batch(encoded.batch(), reference_batch(art.models, texts))

    batches = pipeline._batch_stream(stream_rng(cfg.seed, "nlm.batches"), len(rows),
                                     cfg.batch_size)
    steps = set()
    for _ in range(cfg.epochs * cfg.iters):
        index = next(batches)
        got = encoded.batch(index, targets[index])
        want = reference_batch(art.models, [texts[i] for i in index],
                               [label_index[rows[i][0]] for i in index])
        assert_same_batch(got, want)
        np.testing.assert_array_equal(got.labels, want.labels)
        steps.add(got.mask.shape[0])
    assert len(steps) > 1

    sizes = []
    train_step = pipeline.train_step

    def counted(params, batch, *args, **kwargs):
        sizes.append(len(batch))
        return train_step(params, batch, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_step", counted)
    pipeline.train(cfg, art=art)
    assert sizes == [cfg.batch_size] * (cfg.epochs * cfg.iters)
