"""Labeled dataset I/O and token-id encoding.

Datasets are TSV files with two columns, label and text. A dataset is
tokenized once, in one tokenize_all pass whose token lists are kept for
concept linking: each distinct token gets one row of a table, its
concatenated dimension vectors (zeros for a model that does not know
it), and each document becomes a column of token ids. One extra zero row
serves both out-of-vocabulary tokens and padding, and a document with no
tokens at all counts as one zero step so the recurrence always has an
input. A batch of documents is gathered from the table straight into the
LSTM's time-major padded batch, cut at the batch's longest document.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embedding import content_width
from .errors import ValidationError
from .nlm import Batch
from .storage import atomic_write_text, read_text
from .text import tokenize_all


def read_labeled_tsv(path) -> list:
    rows = []
    for line_number, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2 or not parts[0].strip():
            raise ValidationError(
                f"{path}:{line_number}: expected 'label<TAB>text'"
            )
        rows.append((parts[0].strip(), parts[1]))
    if not rows:
        raise ValidationError(f"{path}: dataset is empty")
    return rows


def write_labeled_tsv(path, rows) -> None:
    text = "".join(f"{label}\t{doc}\n" for label, doc in rows)
    atomic_write_text(path, text)


@dataclass
class EncodedTexts:
    """Documents as token ids: table (U + 1, width) holds one row per
    distinct token known to some model and the zero row U, which serves
    unknown tokens and padding; ids (T, N) holds document n's ids in
    column n, padded with U; lengths (N,) counts each document's steps;
    tokens lists each document's tokens, as tokenize gives them."""

    table: np.ndarray
    ids: np.ndarray
    lengths: np.ndarray
    tokens: list

    def __len__(self) -> int:
        return len(self.lengths)

    def batch(self, index=slice(None), labels=None) -> Batch:
        """The padded Batch of the documents at index, as many steps as the
        longest of them."""
        lengths = self.lengths[index]
        steps = lengths.max()
        return Batch(self.table[self.ids[:steps, index]],
                     np.arange(steps)[:, None] < lengths, labels)


def encode_texts(models, texts) -> EncodedTexts:
    """Tokenize texts in one tokenize_all pass and map every token to its
    table row."""
    docs = tokenize_all(list(texts))
    tokens = list(dict.fromkeys(chain.from_iterable(docs)))
    # Each distinct token's vocabulary index in each model, -1 where unknown.
    indices = np.array([[model.vocab.get(token, -1) for token in tokens] for model in models],
                       dtype=np.intp)
    known = (indices >= 0).any(axis=0)
    zero = int(known.sum())
    table = np.zeros((zero + 1, content_width(models)))
    start = 0
    for model, rows in zip(models, indices[:, known]):
        hit = rows >= 0
        table[:-1][hit, start:start + model.d_sub] = model.vectors[rows[hit]]
        start += model.d_sub
    token_id = dict(zip(tokens, np.where(known, np.cumsum(known) - 1, zero).tolist()))
    sizes = np.array([len(doc) for doc in docs], dtype=np.intp)
    ids = np.full((max(sizes.max(initial=0), 1), len(docs)), zero, dtype=np.intp)
    ids.T[np.arange(len(ids)) < sizes[:, None]] = np.fromiter(
        map(token_id.__getitem__, chain.from_iterable(docs)), dtype=np.intp, count=sizes.sum())
    return EncodedTexts(table, ids, np.maximum(sizes, 1), docs)


def token_sequence(models, text: str) -> np.ndarray:
    """One document's input rows, shape (steps, total width)."""
    return encode_texts(models, [text]).batch().x[:, 0]


def encode_dataset(models, rows, label_index) -> tuple[EncodedTexts, np.ndarray]:
    """The encoded texts and the class indices of (label, text) rows."""
    try:
        targets = np.array([label_index[label] for label, _ in rows], dtype=np.intp)
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]!r} not in the training label set") from exc
    return encode_texts(models, [text for _, text in rows]), targets
