import os
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches what it learns about the source under its home
# directory, by default .hypothesis/ in the working tree. Point it at a
# directory removed at exit; the property tests also pass database=None,
# so no example database is kept either.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="kginfuse-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

TINY_KG = """\
jihad\tisa\tdoctrine
doctrine\tisa\tideology
banner\trelated_to\tjihad
march\trelated_to\tbanner
garden\tisa\tplace
river\trelated_to\tgarden
meadow\tisa\tplace
comet\tisa\tomen
comet\trelated_to\ttailfire
omen\tisa\tideology
"""

TINY_CORPUS = """\
jihad banner march cause
banner jihad rally cause
garden river calm water
river meadow calm water
jihad doctrine spreads wide
meadow garden walk slow
comet tailfire sky bright
tailfire comet omen sky
"""

TINY_TRAIN = """\
pos\tjihad banner march
pos\tbanner jihad cause
pos\tjihad doctrine spreads
pos\tmarch banner jihad
neg\tgarden river calm
neg\triver meadow water
neg\tmeadow garden walk
neg\tcalm water garden
"""

TINY_EVAL = """\
pos\tjihad march cause
pos\tbanner jihad rally
neg\tgarden water calm
neg\tmeadow river walk
"""

TINY_CONFIG = """\
[paths]
kg = kg.tsv
dataset = train.tsv
eval_dataset = eval.tsv
corpus.main = corpus.txt

[subkg]
target_class = pos
top_m = 2
hops = 2
predicates = all

[embedding]
window = 3
d_sub.main = 4

[nlm]
layers = 2
hidden = 4
epochs = 2
iters = 4
batch_size = 4
lr = 0.5
clip_norm = 5.0

[infusion]
epsilon = 1e-6
gate_lr = 0.1
max_inner_iters = 20

[dke]
alpha = 1.0
ridge = 0.1
proximity_hops = 1

[run]
mode = vanilla
seed = 11
out = out
compare_seeds = 2
"""


@pytest.fixture
def tiny_project(tmp_path):
    """A complete miniature pipeline project in a temp directory."""
    (tmp_path / "kg.tsv").write_text(TINY_KG, encoding="utf-8")
    (tmp_path / "corpus.txt").write_text(TINY_CORPUS, encoding="utf-8")
    (tmp_path / "train.tsv").write_text(TINY_TRAIN, encoding="utf-8")
    (tmp_path / "eval.tsv").write_text(TINY_EVAL, encoding="utf-8")
    config_path = tmp_path / "pipeline.cfg"
    config_path.write_text(TINY_CONFIG, encoding="utf-8")
    return config_path
