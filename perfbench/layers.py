"""The traced layer boundaries and the per-layer metrics derived from them.

Each entry patches one public function where its caller looks it up. The
values the program computes and then drops (raw gradient norms, mapping
residual and imbalance, inner-loop iterations and exit reasons) are read
from return values only; the program is not changed.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import self_times


def _examples(t, result, args, kwargs):
    t.count("nlm.examples", len(args[1]))


def _clip(t, raw_norm, args, kwargs):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    t.count("nlm.clip_calls")
    t.count("nlm.clipped", float(max_norm > 0 and raw_norm > max_norm))


def _infusion(t, result, args, kwargs):
    t.record("infusion.inner_iterations", result.inner_iterations)
    t.count("infusion.bound_exits", float(result.exit_reason == "iteration_bound"))


def _fuse(t, result, args, kwargs):
    # Prediction calls fuse_step too (eval, update, head calibration); count
    # only the calls of the infusion loop that training runs.
    if t.innermost() == "infusion.knowledge_infusion":
        t.count("infusion.fuse_step_calls")


def _vocab(t, model, args, kwargs):
    t.record("embedding.vocab_size", len(model.vocab))


def _ke(t, ke, args, kwargs):
    t.count("embedding.ke_pairs", ke.pair_count)


def _lcs(t, dist, args, kwargs):
    t.count("kg.lcs_none", float(dist is None))


def _extract(t, seeded, args, kwargs):
    t.record("seeding.subkg_triples", len(seeded.subkg.triples))


def _diff(t, diff, args, kwargs):
    t.count("dke.new_triples", len(diff.triples))


def _mapping(t, solution, args, kwargs):
    t.record("dke.residual", solution.residual)
    t.record("dke.imbalance", solution.imbalance)


def _written(t, result, args, kwargs):
    t.count("storage.bytes_written", os.path.getsize(args[0]))


# (patched name, span name or None for counters only, return hook)
BOUNDARIES = (
    ("kginfuse.pipeline.build", "pipeline.build", None),
    ("kginfuse.pipeline.train", "pipeline.train", None),
    ("kginfuse.pipeline.evaluate", "pipeline.evaluate", None),
    ("kginfuse.pipeline.train_step", "nlm.train_step", _examples),
    ("kginfuse.nlm.clip_gradients", None, _clip),
    ("kginfuse.pipeline.collect_hidden", "nlm.collect_hidden", None),
    ("kginfuse.pipeline.forward", "nlm.forward", None),
    ("kginfuse.pipeline.knowledge_infusion", "infusion.knowledge_infusion", _infusion),
    ("kginfuse.infusion.fuse_step", None, _fuse),
    ("kginfuse.pipeline.link_concepts", "pipeline.link_concepts", None),
    ("kginfuse.pipeline.train_dimension_model", "embedding.train_dimension_model", _vocab),
    ("kginfuse.pipeline.knowledge_embedding", "embedding.knowledge_embedding", _ke),
    ("kginfuse.embedding.lcs_distance", "kg.lcs_distance", _lcs),
    ("kginfuse.pipeline.load_graph", "kg.load_graph", None),
    ("kginfuse.seeding.n_hop_neighborhood", "kg.n_hop_neighborhood", None),
    ("kginfuse.dke.n_hop_neighborhood", "kg.n_hop_neighborhood", None),
    ("kginfuse.pipeline.corpus_stats", "seeding.corpus_stats", None),
    ("kginfuse.pipeline.extract_seeded_subkg", "seeding.extract", _extract),
    ("kginfuse.dke.knowledge_proximity", "dke.knowledge_proximity", None),
    ("kginfuse.dke.differential_subkg", "dke.differential_subkg", _diff),
    ("kginfuse.dke.solve_mapping", "dke.solve_mapping", _mapping),
    ("kginfuse.dke.update_seeded", "dke.update_seeded", None),
    ("kginfuse.pipeline.encode_dataset", "datasets.encode", None),
    ("kginfuse.pipeline.atomic_write_text", "storage.write", _written),
    ("kginfuse.pipeline.save_array", "storage.write", _written),
    ("kginfuse.pipeline.save_checkpoint", "storage.write", _written),
    ("kginfuse.pipeline.load_array", "storage.read", None),
    ("kginfuse.pipeline.load_checkpoint", "storage.read", None),
    ("kginfuse.pipeline.sha256_file", "storage.sha256", None),
)


def install(tracer, eval_docs: int) -> None:
    def misclassified(t, outcome, args, kwargs):
        t.record("pipeline.misclassified_share", outcome.misclassified / eval_docs)

    tracer.wrap("kginfuse.pipeline.update_kg", "pipeline.update_kg", misclassified)
    for target, name, hook in BOUNDARIES:
        tracer.wrap(target, name, hook)


# Per-layer metric -> (unit, how it is derived from one traced cycle).
# Times are self times summed over the cycle; counts are summed over it.
def _self(name):
    return lambda c: c.self_s[name]


def _calls(name):
    return lambda c: float(c.calls[name])


def _counter(name):
    return lambda c: c.counters[name]


def _mean(name):
    return lambda c: statistics.mean(c.values[name]) if c.values[name] else float("nan")


def _median(name):
    return lambda c: statistics.median(c.values[name]) if c.values[name] else float("nan")


def _ratio(num, den):
    return lambda c: c.counters[num] / c.counters[den] if c.counters[den] else float("nan")


PER_CYCLE = {
    "nlm.train_step_s": ("s", _self("nlm.train_step")),
    "nlm.train_step_calls": ("count", _calls("nlm.train_step")),
    "nlm.examples_per_s": ("1/s", lambda c: c.counters["nlm.examples"]
                           / c.self_s["nlm.train_step"]),
    "nlm.collect_hidden_s": ("s", _self("nlm.collect_hidden")),
    "nlm.forward_s": ("s", _self("nlm.forward")),
    "nlm.forward_calls": ("count", _calls("nlm.forward")),
    "nlm.clip_ratio": ("share", _ratio("nlm.clipped", "nlm.clip_calls")),
    "infusion.knowledge_infusion_s": ("s", _self("infusion.knowledge_infusion")),
    "infusion.inner_iterations": ("count", _mean("infusion.inner_iterations")),
    "infusion.bound_exit_ratio": ("share", lambda c: c.counters["infusion.bound_exits"]
                                  / c.calls["infusion.knowledge_infusion"]),
    "infusion.fuse_step_calls": ("count", _counter("infusion.fuse_step_calls")),
    "pipeline.train_self_s": ("s", _self("pipeline.train")),
    "pipeline.link_concepts_s": ("s", _self("pipeline.link_concepts")),
    "pipeline.link_concepts_calls": ("count", _calls("pipeline.link_concepts")),
    "pipeline.misclassified_share": ("share", _mean("pipeline.misclassified_share")),
    "pipeline.update_kg_self_s": ("s", _self("pipeline.update_kg")),
    "embedding.train_dimension_model_s": ("s", _self("embedding.train_dimension_model")),
    "embedding.vocab_size": ("count", _mean("embedding.vocab_size")),
    "embedding.knowledge_embedding_s": ("s", _self("embedding.knowledge_embedding")),
    "embedding.ke_pairs": ("count", _counter("embedding.ke_pairs")),
    "embedding.no_ancestor_share": ("share", lambda c: c.counters["kg.lcs_none"]
                                    / c.calls["kg.lcs_distance"]),
    "kg.load_graph_s": ("s", _self("kg.load_graph")),
    "kg.n_hop_neighborhood_s": ("s", _self("kg.n_hop_neighborhood")),
    "kg.lcs_distance_s": ("s", _self("kg.lcs_distance")),
    "kg.lcs_distance_calls": ("count", _calls("kg.lcs_distance")),
    "seeding.corpus_stats_s": ("s", _self("seeding.corpus_stats")),
    "seeding.extract_s": ("s", _self("seeding.extract")),
    "seeding.subkg_triples": ("count", _mean("seeding.subkg_triples")),
    "dke.knowledge_proximity_s": ("s", _self("dke.knowledge_proximity")),
    "dke.differential_subkg_s": ("s", _self("dke.differential_subkg")),
    "dke.solve_mapping_s": ("s", _self("dke.solve_mapping")),
    "dke.update_seeded_s": ("s", _self("dke.update_seeded")),
    "dke.new_triples": ("count", _counter("dke.new_triples")),
    "dke.residual": ("norm", _median("dke.residual")),
    "dke.imbalance": ("norm", _median("dke.imbalance")),
    "datasets.encode_s": ("s", _self("datasets.encode")),
    "storage.write_s": ("s", _self("storage.write")),
    "storage.bytes_written": ("bytes", _counter("storage.bytes_written")),
    "storage.read_s": ("s", _self("storage.read")),
    "storage.sha256_s": ("s", _self("storage.sha256")),
}
PER_RUN_UNITS = {"infusion.f1_infused": "score", "infusion.recall_gain": "recall",
                 "trace.overhead": "share"}


class CycleView:
    """One traced cycle's self times, span counts, counters and values."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.values = defaultdict(list)


def _cycle(op: str) -> int:
    return int(op.split("/", 1)[0])


def cycle_views(tracer) -> dict:
    views = defaultdict(CycleView)
    selfs = self_times(tracer.spans)
    for span in tracer.spans:
        view = views[_cycle(span.op)]
        view.self_s[span.name] += selfs[span.id]
        view.calls[span.name] += 1
    for (op, name), value in tracer.counters.items():
        views[_cycle(op)].counters[name] += value
    for (op, name), values in tracer.values.items():
        views[_cycle(op)].values[name].extend(values)
    return dict(views)


def breakdown(tracer) -> dict:
    """Per operation: median duration and each layer's share of its self time."""
    selfs = self_times(tracer.spans)
    op_time = defaultdict(float)
    durations = defaultdict(list)
    layer_time = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        op = span.op.split("/")[1]
        if span.name.startswith("op."):
            durations[op].append(span.end - span.start)
            op_time[op] += span.end - span.start
        else:
            layer_time[op][span.name] += selfs[span.id]
    return {
        op: {
            "median_s": statistics.median(durations[op]),
            "self_share": {name: t / op_time[op] for name, t in layer_time[op].items()},
        }
        for op in op_time
    }


def stress(parts: dict) -> dict:
    """The layer shares that define the workloads."""
    def share(op, *prefixes):
        return sum(v for k, v in parts[op]["self_share"].items() if k.startswith(prefixes))

    return {
        "nlm_share_of_train_infused": share("train_infused", "nlm."),
        "train_dimension_model_share_of_build": share(
            "build", "embedding.train_dimension_model"),
        "link_and_ke_share_of_update": share(
            "update", "pipeline.link_concepts", "embedding.knowledge_embedding"),
        "build_over_train_infused": parts["build"]["median_s"]
        / parts["train_infused"]["median_s"],
    }


def metrics(bench, quality: dict):
    """Per-layer metrics (medians over traced cycles) and the op breakdown."""
    views = cycle_views(bench.tracer)
    out = {}
    for name, (unit, derive) in PER_CYCLE.items():
        out[name] = {"value": statistics.median(derive(v) for v in views.values()),
                     "unit": unit}
    # Overhead: one cycle's work at each kind of cycle's per-operation medians,
    # each kind scaled by the median reference time measured in its cycles.
    ops = {op for _, op in bench.samples}
    cycles = {True: bench.traced_cycles, False: bench.cycle - bench.traced_cycles}

    def cycle_time(traced):
        return sum(statistics.median(bench.samples[(traced, op)])
                   * len(bench.samples[(traced, op)]) / cycles[traced]
                   for op in ops) / statistics.median(bench.refs[traced])

    out["infusion.f1_infused"] = {"value": quality["f1_infused"],
                                  "unit": PER_RUN_UNITS["infusion.f1_infused"]}
    out["infusion.recall_gain"] = {
        "value": quality["recall_infused"] - quality["recall_vanilla"],
        "unit": PER_RUN_UNITS["infusion.recall_gain"]}
    out["trace.overhead"] = {"value": cycle_time(True) / cycle_time(False) - 1.0,
                             "unit": PER_RUN_UNITS["trace.overhead"]}
    return out, breakdown(bench.tracer)
