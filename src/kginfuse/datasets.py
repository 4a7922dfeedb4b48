"""Labeled dataset I/O and token-sequence encoding.

Datasets are TSV files with two columns, label and text. A document is
encoded as the sequence of its tokens' concatenated dimension vectors;
out-of-vocabulary tokens contribute zero rows, and a document with no
tokens at all is encoded as one zero row so the recurrence always has
an input.
"""

from __future__ import annotations

import numpy as np

from .embedding import content_width
from .errors import ValidationError
from .storage import atomic_write_text, read_text
from .text import tokenize


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


def token_sequence(models, text: str) -> np.ndarray:
    """Per-token concatenated vectors, shape (steps, total width)."""
    tokens = tokenize(text)
    width = content_width(models)
    if not tokens:
        return np.zeros((1, width))
    seq = np.zeros((len(tokens), width))
    for t, token in enumerate(tokens):
        start = 0
        for model in models:
            vec = model.token_vector(token)
            if vec is not None:
                seq[t, start:start + model.d_sub] = vec
            start += model.d_sub
    return seq


def encode_dataset(models, rows, label_index) -> tuple[list, list]:
    """Sequences and class indices for (label, text) rows."""
    sequences = [token_sequence(models, text) for _, text in rows]
    try:
        targets = [label_index[label] for label, _ in rows]
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]!r} not in the training label set") from exc
    return sequences, targets
