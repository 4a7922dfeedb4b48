"""Text normalization shared by the corpus, graph, and embedding layers.

tokenize splits documents, corpora and concept labels (kg.Concept.tokens)
alike; all label matching is exact token match, with no fuzzy entity
linking. normalize_label only forms concept ids and predicates.
"""

import re

_NON_WORD = re.compile(r"[^\w\s]+", flags=re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return _NON_WORD.sub(" ", text.lower()).split()


def normalize_label(label: str) -> str:
    """Canonical concept label: case-folded, whitespace collapsed.

    Used as the stable concept id, so identical input files always
    produce identical ids. Never used to match a label against text.
    """
    return " ".join(label.casefold().split())
