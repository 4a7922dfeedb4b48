"""Generator determinism, input shapes, and agreement with BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys


from workloads import generate, input_shape

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def test_same_seed_gives_byte_identical_files(tmp_path):
    a = _files(os.path.dirname(generate("wide-graph", str(tmp_path / "a"), 7)))
    b = _files(os.path.dirname(generate("wide-graph", str(tmp_path / "b"), 7)))
    assert a == b
    c = _files(os.path.dirname(generate("wide-graph", str(tmp_path / "c"), 8)))
    assert set(c) == set(a)
    assert c["kg.tsv"] != a["kg.tsv"] and c["train.tsv"] != a["train.tsv"]


def test_shapes_match_the_workload_design(tmp_path):
    from kginfuse.config import parse_config

    graph = input_shape(parse_config(generate("wide-graph", str(tmp_path / "g"), 0)))
    assert graph["vocab.lexical"] >= 700 and graph["vocab.topical"] >= 700
    assert graph["concepts"] >= 2000
    assert graph["taxonomy_roots"] == 6
    assert graph["eval_tokens_per_doc"] > 2 * graph["train_tokens_per_doc"] - 1


def test_metric_names_and_units_match_benchmark_json():
    import layers
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = {name: unit for name, (unit, _) in layers.PER_CYCLE.items()}
    emitted.update(layers.PER_RUN_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert [w["name"] for w in spec["workloads"]] == list(run.REPS)


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-graph", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
