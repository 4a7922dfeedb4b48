"""Text normalization shared by the corpus, graph, and embedding layers.

tokenize splits documents, corpora and concept labels alike. A graph's
labels are tokenized in one place, all at once through tokenize_all
(kg.KnowledgeGraph.label_tokens), and so are a build's corpora and
every labeled dataset; all label matching is exact token match, with
no fuzzy entity linking.
normalize_label, and normalize_all over a column, only form concept ids
and predicates.
"""

import re

_NON_WORD = re.compile(r"[^\w\s]+", flags=re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return _NON_WORD.sub(" ", text.lower()).split()


def tokenize_all(texts: list[str]) -> list[list[str]]:
    """[tokenize(text) for text in texts], in one regex pass.

    The texts are joined on "\n" and split back. tokenize treats "\n" as
    whitespace, and it ends str.lower's final-sigma context, so no text's
    tokens change. A text holding a "\n" of its own is found by the line
    count, and then each text is tokenized alone.
    """
    lines = _NON_WORD.sub(" ", "\n".join(texts).lower()).split("\n")
    if len(lines) != len(texts):
        return [tokenize(text) for text in texts]
    return list(map(str.split, lines))


def normalize_label(label: str) -> str:
    """Canonical concept label: case-folded, whitespace collapsed.

    Used as the stable concept id, so identical input files always
    produce identical ids. Never used to match a label against text.
    """
    return " ".join(label.casefold().split())


def normalize_all(labels) -> list[str]:
    """[normalize_label(label) for label in labels], each distinct label
    normalized once and without a Python call per label."""
    distinct = list(set(labels))
    normal = dict(zip(distinct, map(" ".join, map(str.split, map(str.casefold, distinct)))))
    return list(map(normal.__getitem__, labels))
