"""End-to-end pipeline: artifact building, training, evaluation,
mode comparison, and the knowledge-update cycle.

Every command is deterministic under a fixed seed: randomness flows
through named streams, artifacts are written atomically, and checkpoint
bytes are a pure function of config + seed + inputs.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import dke as dke_mod
from .config import PipelineConfig, config_hash, emit_config, require_input_files
from .datasets import encode_dataset, read_labeled_tsv, token_sequence
from .embedding import (
    DimensionModel,
    KnowledgeEmbedding,
    content_width,
    knowledge_embedding,
    train_dimension_model,
)
from .errors import ConfigError, StorageError, ValidationError
from .infusion import (
    InfusionParams,
    InfusionResult,
    fuse_step,
    knowledge_infusion,
    modulate,
    trace_csv,
)
from .kg import KnowledgeGraph, SubKG, format_stats, load_graph
from .metrics import EvalReport, evaluate_predictions, report_csv, report_text
from .nlm import (
    LSTMParams,
    TrainConfig,
    collect_hidden,
    forward,
    init_params,
    log_softmax,
    train_step,
)
from .rng import derive_seed, stream_rng
from .seeding import SeededSubKG, corpus_stats, extract_seeded_subkg
from .storage import (
    atomic_write_text,
    load_array,
    load_checkpoint,
    read_text,
    save_array,
    save_checkpoint,
    sha256_file,
)
from .text import tokenize

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"

# Full-batch steps used to refit the infused head on modulated features
# each epoch; cheap (features are precomputed) and run to convergence.
# The small L2 penalty keeps the refit head conservative on ambiguous
# examples.
HEAD_CALIBRATION_STEPS = 400
HEAD_CALIBRATION_L2 = 0.001


@dataclass
class BuildArtifacts:
    kg: KnowledgeGraph
    models: list
    seeded: SeededSubKG
    ke_values: np.ndarray
    ke_pair_count: int
    config_sha: str
    up_to_date: bool = False


# ---------------------------------------------------------------------------
# build


def _input_hashes(cfg: PipelineConfig) -> dict:
    hashes = {"kg": sha256_file(cfg.kg_path), "dataset": sha256_file(cfg.dataset_path)}
    for name in sorted(cfg.corpora):
        hashes[f"corpus.{name}"] = sha256_file(cfg.corpora[name])
    return hashes


def _artifact_paths(out_dir: str) -> dict:
    return {
        "config": os.path.join(out_dir, "config.cfg"),
        "stats": os.path.join(out_dir, "graph_stats.txt"),
        "models_dir": os.path.join(out_dir, "models"),
        "subkg_triples": os.path.join(out_dir, "subkg", "triples.tsv"),
        "subkg_scores": os.path.join(out_dir, "subkg", "scores.tsv"),
        "subkg_depths": os.path.join(out_dir, "subkg", "depths.tsv"),
        "subkg_concepts": os.path.join(out_dir, "subkg", "concepts.tsv"),
        "subkg_matrix": os.path.join(out_dir, "subkg", "embeddings.kign"),
        "ke": os.path.join(out_dir, "knowledge", "ke.kign"),
        "ke_meta": os.path.join(out_dir, "knowledge", "ke.json"),
    }


def build(cfg: PipelineConfig, force: bool = False) -> BuildArtifacts:
    """Build (or reuse) the KG, dimension models, seeded subgraph, and
    knowledge embedding under the config's output directory."""
    require_input_files(cfg)
    out_dir = cfg.out_dir
    paths = _artifact_paths(out_dir)
    cfg_sha = config_hash(cfg)
    inputs = _input_hashes(cfg)

    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    if not force and os.path.isfile(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if (
            manifest.get("config_sha256") == cfg_sha
            and manifest.get("inputs") == inputs
            and _artifacts_present(cfg, paths)
        ):
            log.info("build artifacts up to date in %s", out_dir)
            art = load_build(cfg)
            art.up_to_date = True
            return art

    kg = load_graph(cfg.kg_path, taxonomy_predicate=cfg.taxonomy_predicate)
    rows = read_labeled_tsv(cfg.dataset_path)
    stats = corpus_stats(rows)
    if cfg.target_class not in stats.class_token_counts:
        raise ConfigError(
            f"target class {cfg.target_class!r} does not occur in the dataset"
        )

    models = []
    for name in sorted(cfg.corpora):
        corpus = [line for line in read_text(cfg.corpora[name]).split("\n") if line.strip()]
        models.append(
            train_dimension_model(
                corpus,
                d_sub=cfg.d_sub[name],
                window=cfg.window,
                seed=derive_seed(cfg.seed, f"embedding.{name}"),
                dimension_name=name,
            )
        )

    seeded = extract_seeded_subkg(
        kg, stats, cfg.target_class, hops=cfg.subkg_hops, top_m=cfg.top_m, models=models
    )

    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(paths["config"], emit_config(cfg))
    atomic_write_text(paths["stats"], format_stats(kg))
    for model in models:
        _save_model(paths["models_dir"], model)
    _save_seeded(paths, kg, seeded)
    ke = _write_knowledge_embedding(cfg, paths, seeded, models)

    manifest = {
        "format": 1,
        "config_sha256": cfg_sha,
        "inputs": inputs,
        "artifacts": _hash_artifacts(cfg, paths),
    }
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return BuildArtifacts(kg, models, seeded, ke.values, ke.pair_count, cfg_sha)


def _artifact_files(cfg: PipelineConfig, paths: dict) -> list:
    """Every file a build writes, the per-dimension model files included."""
    files = [path for key, path in paths.items() if key != "models_dir"]
    for name in sorted(cfg.corpora):
        for suffix in ("vocab.tsv", "vectors.kign"):
            files.append(os.path.join(paths["models_dir"], f"{name}.{suffix}"))
    return files


def _artifacts_present(cfg: PipelineConfig, paths: dict) -> bool:
    return all(os.path.isfile(p) for p in _artifact_files(cfg, paths))


def _hash_artifacts(cfg: PipelineConfig, paths: dict) -> dict:
    return {os.path.relpath(p, cfg.out_dir): sha256_file(p)
            for p in _artifact_files(cfg, paths)}


def _write_knowledge_embedding(cfg: PipelineConfig, paths: dict, seeded: SeededSubKG,
                               models) -> KnowledgeEmbedding:
    """Embed the seeded subgraph under the predicate allowlist and store it."""
    allow = None if cfg.predicates is None else frozenset(cfg.predicates)
    ke = knowledge_embedding(seeded, models, allowlist=allow)
    save_array(paths["ke"], ke.values)
    atomic_write_text(
        paths["ke_meta"], json.dumps({"pair_count": ke.pair_count}, sort_keys=True) + "\n"
    )
    return ke


def _save_model(models_dir: str, model: DimensionModel) -> None:
    lines = [
        f"{tok}\t{idx}"
        for tok, idx in sorted(model.vocab.items(), key=lambda kv: kv[1])
    ]
    atomic_write_text(
        os.path.join(models_dir, f"{model.dimension_name}.vocab.tsv"),
        "\n".join(lines) + "\n",
    )
    save_array(os.path.join(models_dir, f"{model.dimension_name}.vectors.kign"),
               model.vectors)


def _load_model(models_dir: str, name: str, cfg: PipelineConfig) -> DimensionModel:
    vocab = {}
    with open(os.path.join(models_dir, f"{name}.vocab.tsv"), encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                tok, idx = line.rstrip("\n").split("\t")
                vocab[tok] = int(idx)
    vectors = load_array(os.path.join(models_dir, f"{name}.vectors.kign"))
    return DimensionModel(name, vocab, vectors, d_sub=vectors.shape[1],
                          window=cfg.window, seed=derive_seed(cfg.seed, f"embedding.{name}"))


def _save_seeded(paths: dict, kg: KnowledgeGraph, seeded: SeededSubKG) -> None:
    triples = sorted(seeded.subkg.triples)
    atomic_write_text(
        paths["subkg_triples"],
        "".join(
            f"{kg.concepts[t.subject].label}\t{t.predicate}\t{kg.concepts[t.object].label}\n"
            for t in triples
        ),
    )
    atomic_write_text(
        paths["subkg_scores"],
        "".join(f"{cid}\t{score!r}\n" for cid, score in sorted(seeded.relevance.items())),
    )
    atomic_write_text(
        paths["subkg_depths"],
        "".join(f"{cid}\t{depth}\n" for cid, depth in sorted(seeded.subkg.frontier_depth.items())),
    )
    atomic_write_text(
        paths["subkg_concepts"],
        "".join(f"{cid}\n" for cid in seeded.embedded_concepts),
    )
    save_array(paths["subkg_matrix"], seeded.embedding_matrix)


def _load_seeded(paths: dict, kg: KnowledgeGraph) -> SeededSubKG:
    from .kg import Triple
    from .text import normalize_label

    triples = set()
    with open(paths["subkg_triples"], encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                s, p, o = line.rstrip("\n").split("\t")
                triples.add(Triple(normalize_label(s), normalize_label(p), normalize_label(o)))
    depths = {}
    with open(paths["subkg_depths"], encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                cid, depth = line.rstrip("\n").split("\t")
                depths[cid] = int(depth)
    relevance = {}
    with open(paths["subkg_scores"], encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                cid, score = line.rstrip("\n").split("\t")
                relevance[cid] = float(score)
    with open(paths["subkg_concepts"], encoding="utf-8") as handle:
        embedded = tuple(line.strip() for line in handle if line.strip())
    matrix = load_array(paths["subkg_matrix"])
    subkg = SubKG(parent=kg, triples=frozenset(triples), frontier_depth=depths)
    return SeededSubKG(subkg, relevance, matrix, embedded)


def load_build(cfg: PipelineConfig) -> BuildArtifacts:
    """Load previously built artifacts from the output directory."""
    paths = _artifact_paths(cfg.out_dir)
    if not _artifacts_present(cfg, paths):
        raise ValidationError(
            f"build artifacts missing under {cfg.out_dir}; run the build command first"
        )
    kg = load_graph(cfg.kg_path, taxonomy_predicate=cfg.taxonomy_predicate)
    models = [_load_model(paths["models_dir"], name, cfg) for name in sorted(cfg.corpora)]
    seeded = _load_seeded(paths, kg)
    ke_values = load_array(paths["ke"])
    with open(paths["ke_meta"], encoding="utf-8") as handle:
        pair_count = json.load(handle)["pair_count"]
    return BuildArtifacts(kg, models, seeded, ke_values, pair_count, config_hash(cfg))


# ---------------------------------------------------------------------------
# training


@dataclass
class Checkpoint:
    """In-memory view of a trained model, ready for prediction."""

    mode: str
    labels: tuple
    params: LSTMParams
    ke_values: np.ndarray
    fusion: InfusionParams | None
    head_w: np.ndarray | None
    head_b: np.ndarray | None
    meta: dict

    def predict_proba(self, sequence) -> np.ndarray:
        states, probs = forward(self.params, sequence)
        if self.mode == "vanilla":
            return probs
        gate = fuse_step(states.final, self.ke_values, self.fusion)
        modulated = modulate(states.final, gate)
        logits = self.head_w @ modulated + self.head_b
        return np.exp(log_softmax(logits))

    def predict_label(self, sequence) -> str:
        probs = self.predict_proba(sequence)
        return self.labels[int(np.argmax(probs))]


@dataclass
class TrainResult:
    checkpoint_path: str
    final_epoch_loss: float
    infusion_results: list


def _batch_stream(rng: np.random.Generator, n: int, batch_size: int):
    """Endless deterministic stream of index batches over a dataset."""
    perm = rng.permutation(n)
    pos = 0
    while True:
        batch = []
        for _ in range(batch_size):
            if pos == len(perm):
                perm = rng.permutation(n)
                pos = 0
            batch.append(int(perm[pos]))
            pos += 1
        yield batch


def _calibrate_head(features: np.ndarray, targets, n_classes: int,
                    w0: np.ndarray, b0: np.ndarray, lr: float, steps: int):
    """Full-batch ridge softmax-regression steps of the head on fixed features."""
    w = w0.copy()
    b = b0.copy()
    n = features.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), targets] = 1.0
    for _ in range(steps):
        logits = features @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (g.T @ features + HEAD_CALIBRATION_L2 * w)
        b -= lr * g.sum(axis=0)
    return w, b


def train(cfg: PipelineConfig, art: BuildArtifacts | None = None) -> TrainResult:
    """Train one model in the configured mode; writes checkpoint + logs."""
    if art is None:
        art = load_build(cfg)
    rows = read_labeled_tsv(cfg.dataset_path)
    labels = tuple(sorted({label for label, _ in rows}))
    if len(labels) < 2:
        raise ValidationError("training dataset must contain at least two classes")
    label_index = {label: i for i, label in enumerate(labels)}
    sequences, targets = encode_dataset(art.models, rows, label_index)

    width = content_width(art.models)
    infused = cfg.mode == "infused"
    if infused:
        if art.ke_pair_count == 0 or not np.any(art.ke_values):
            raise ConfigError(
                "the build produced an empty knowledge embedding (no resolvable "
                "concept pairs); infused mode cannot run. Check the predicate "
                "allowlist and the corpus/KG label overlap, or train in "
                "vanilla mode."
            )
        if cfg.hidden != width:
            raise ConfigError(
                f"infused mode requires hidden width == content width "
                f"({cfg.hidden} != {width}); set [nlm] hidden = {width}"
            )

    schedule = TrainConfig(cfg.epochs, cfg.iters, cfg.batch_size, cfg.lr,
                           cfg.clip_norm, cfg.seed)
    schedule.validate()
    params = init_params(width, cfg.hidden, cfg.layers, len(labels),
                         stream_rng(schedule.seed, "nlm.init"))
    batch_rng = stream_rng(schedule.seed, "nlm.batches")
    batches = _batch_stream(batch_rng, len(sequences), schedule.batch_size)

    fusion = None
    head_w = head_b = None
    if infused:
        fusion = InfusionParams.init(
            cfg.hidden, stream_rng(cfg.seed, "infusion.init"),
            gate_lr=cfg.gate_lr, epsilon=cfg.epsilon, max_inner_iters=cfg.max_inner_iters,
        )

    os.makedirs(cfg.out_dir, exist_ok=True)
    log_rows = ["epoch,mean_loss,inner_iterations,exit_reason"]
    infusion_results: list[InfusionResult] = []
    epoch_loss = float("nan")
    for epoch in range(1, schedule.epochs + 1):
        losses = []
        for _ in range(schedule.iters):
            batch = [(sequences[i], targets[i]) for i in next(batches)]
            params, loss = train_step(params, batch, schedule.lr, schedule.clip_norm)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        if infused:
            finals, penults = collect_hidden(params, sequences)
            result = knowledge_infusion(
                finals.mean(axis=0), penults.mean(axis=0), art.ke_values, fusion
            )
            fusion = result.params
            infusion_results.append(result)
            gates = fuse_step(finals, art.ke_values, fusion)
            head_w, head_b = _calibrate_head(
                finals * gates, targets, len(labels),
                params.w_out, params.b_out, schedule.lr, HEAD_CALIBRATION_STEPS,
            )
            trace_path = os.path.join(
                cfg.out_dir, f"traces_{cfg.mode}", f"epoch_{epoch:03d}.csv"
            )
            atomic_write_text(trace_path, trace_csv(result.divergence_trace))
            log_rows.append(
                f"{epoch},{epoch_loss!r},{result.inner_iterations},{result.exit_reason}"
            )
        else:
            log_rows.append(f"{epoch},{epoch_loss!r},,")

    atomic_write_text(
        os.path.join(cfg.out_dir, f"training_log_{cfg.mode}.csv"),
        "\n".join(log_rows) + "\n",
    )

    checkpoint_path = os.path.join(cfg.out_dir, f"model_{cfg.mode}.kicp")
    meta = {
        "format": 1,
        "mode": cfg.mode,
        "labels": list(labels),
        "seed": cfg.seed,
        "config_sha256": art.config_sha,
        "layers": cfg.layers,
        "hidden": cfg.hidden,
        "input_width": width,
        "n_classes": len(labels),
        "target_class": cfg.target_class,
        "gate_lr": cfg.gate_lr,
        "epsilon": cfg.epsilon,
        "max_inner_iters": cfg.max_inner_iters,
    }
    arrays = {}
    for name, arr in params.named_groups():
        arrays["lstm." + name] = arr
    arrays["ke"] = art.ke_values
    if infused:
        arrays["fusion.gate_weights"] = fusion.gate_weights
        arrays["fusion.gate_bias"] = fusion.gate_bias
        arrays["fusion.head.W"] = head_w
        arrays["fusion.head.b"] = head_b
    save_checkpoint(checkpoint_path, meta, arrays)
    return TrainResult(checkpoint_path, epoch_loss, infusion_results)


# Metadata keys of every checkpoint, and the extra ones of an infused one.
_CHECKPOINT_META = ("mode", "labels", "seed", "config_sha256", "layers", "hidden",
                    "input_width", "n_classes")
_INFUSED_META = ("gate_lr", "epsilon", "max_inner_iters")


def load_trained(path) -> Checkpoint:
    """Read a checkpoint; a missing metadata key or array raises StorageError."""
    meta, arrays = load_checkpoint(path)
    infused = meta.get("mode") == "infused"
    missing = [k for k in _CHECKPOINT_META + (_INFUSED_META if infused else ()) if k not in meta]
    if missing:
        raise StorageError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    try:
        layers = meta["layers"]
        params = LSTMParams(
            layer_weights=[arrays[f"lstm.layer{l}.W"] for l in range(layers)],
            layer_biases=[arrays[f"lstm.layer{l}.b"] for l in range(layers)],
            w_out=arrays["lstm.head.W"],
            b_out=arrays["lstm.head.b"],
            d=meta["hidden"],
            input_width=meta["input_width"],
            n_classes=meta["n_classes"],
        )
        fusion = None
        head_w = head_b = None
        if infused:
            fusion = InfusionParams(
                gate_weights=arrays["fusion.gate_weights"],
                gate_bias=arrays["fusion.gate_bias"],
                gate_lr=meta["gate_lr"],
                epsilon=meta["epsilon"],
                max_inner_iters=meta["max_inner_iters"],
            )
            head_w = arrays["fusion.head.W"]
            head_b = arrays["fusion.head.b"]
        ke_values = arrays["ke"]
    except KeyError as exc:
        raise StorageError(f"{path}: checkpoint has no array {exc.args[0]!r}") from exc
    return Checkpoint(
        mode=meta["mode"],
        labels=tuple(meta["labels"]),
        params=params,
        ke_values=ke_values,
        fusion=fusion,
        head_w=head_w,
        head_b=head_b,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# evaluation


def evaluate(cfg: PipelineConfig, checkpoint_path, dataset_path=None,
             art: BuildArtifacts | None = None, write_reports: bool = True) -> EvalReport:
    """Evaluate a checkpoint on a labeled dataset; writes text + CSV reports."""
    if art is None:
        art = load_build(cfg)
    ckpt = load_trained(checkpoint_path)
    path = dataset_path or cfg.eval_dataset_path or cfg.dataset_path
    rows = read_labeled_tsv(path)
    unknown = {label for label, _ in rows} - set(ckpt.labels)
    if unknown:
        raise ValidationError(
            "dataset labels outside the checkpoint's label set: "
            + ", ".join(sorted(unknown))
        )
    y_true = [label for label, _ in rows]
    y_pred = [
        ckpt.predict_label(token_sequence(art.models, text)) for _, text in rows
    ]
    positive = cfg.target_class if cfg.target_class in ckpt.labels else ckpt.labels[-1]
    report = evaluate_predictions(
        y_true, y_pred, ckpt.labels, positive,
        metadata={
            "seed": ckpt.meta["seed"],
            "mode": ckpt.mode,
            "config_sha256": ckpt.meta["config_sha256"],
            "dataset_sha256": sha256_file(path),
        },
    )
    if write_reports:
        base = os.path.join(cfg.out_dir, f"eval_{ckpt.mode}")
        atomic_write_text(base + ".txt", report_text(report))
        atomic_write_text(base + ".csv", report_csv(report))
    return report


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    modes: tuple
    n_seeds: int
    metrics: dict       # mode -> metric -> list of per-seed values
    summary: dict       # mode -> metric -> (mean, std)
    deltas: dict        # metric -> mean(modes[1]) - mean(modes[0])
    divergence: dict    # mode -> {"inner_iterations": mean, "final": mean}


_COMPARE_METRICS = ("precision", "recall", "f1", "false_alarm", "accuracy")


def compare(cfg: PipelineConfig, n_seeds=None, modes=("vanilla", "infused")) -> ComparisonReport:
    """Train and evaluate both modes over several seeds; aggregate metrics."""
    n = n_seeds if n_seeds is not None else cfg.compare_seeds
    if n < 2:
        raise ConfigError("compare needs at least 2 seeds for a spread estimate")
    if cfg.eval_dataset_path is None:
        raise ConfigError("compare requires an eval_dataset path")
    art = build(cfg)

    from dataclasses import replace

    metrics = {m: {k: [] for k in _COMPARE_METRICS} for m in modes}
    divergence = {m: {"inner_iterations": [], "final_divergence": []} for m in modes}
    for i in range(n):
        run_seed = derive_seed(cfg.seed, f"compare.run{i}") % (1 << 31)
        for position, mode in enumerate(modes):
            run_dir = os.path.join(cfg.out_dir, "compare", f"seed{i:02d}_{position}_{mode}")
            run_cfg = replace(cfg, mode=mode, seed=run_seed, out_dir=run_dir)
            result = train(run_cfg, art=art)
            report = evaluate(run_cfg, result.checkpoint_path,
                              dataset_path=cfg.eval_dataset_path, art=art,
                              write_reports=False)
            pos = report.positive_label
            metrics[mode]["precision"].append(report.precision[pos])
            metrics[mode]["recall"].append(report.recall[pos])
            metrics[mode]["f1"].append(report.f1[pos])
            metrics[mode]["false_alarm"].append(report.false_alarm)
            metrics[mode]["accuracy"].append(report.accuracy)
            if result.infusion_results:
                divergence[mode]["inner_iterations"].append(
                    float(np.mean([r.inner_iterations for r in result.infusion_results]))
                )
                finals = [
                    r.divergence_trace[-1][1]
                    for r in result.infusion_results
                    if r.divergence_trace
                ]
                if finals:
                    divergence[mode]["final_divergence"].append(float(np.mean(finals)))

    summary = {
        mode: {
            key: (float(np.mean(vals)), float(np.std(vals, ddof=1)))
            for key, vals in metrics[mode].items()
        }
        for mode in modes
    }
    deltas = {
        key: summary[modes[1]][key][0] - summary[modes[0]][key][0]
        for key in _COMPARE_METRICS
    }
    div_summary = {
        mode: {
            key: (float(np.mean(vals)) if vals else float("nan"))
            for key, vals in divergence[mode].items()
        }
        for mode in modes
    }
    report = ComparisonReport(tuple(modes), n, metrics, summary, deltas, div_summary)
    atomic_write_text(os.path.join(cfg.out_dir, "compare.txt"), comparison_text(report))
    atomic_write_text(os.path.join(cfg.out_dir, "compare.csv"), comparison_csv(report))
    return report


def comparison_text(report: ComparisonReport) -> str:
    a, b = report.modes
    lines = [
        f"mode comparison over {report.n_seeds} seeds ({a} vs {b})",
        "",
        "metric        " + "".join("%-22s" % m for m in report.modes) + "delta",
    ]
    for key in _COMPARE_METRICS:
        cells = "".join(
            "%-22s" % ("%.4f +/- %.4f" % report.summary[m][key]) for m in report.modes
        )
        lines.append("%-13s %s%+.4f" % (key, cells, report.deltas[key]))
    lines.append("")
    for mode in report.modes:
        div = report.divergence[mode]
        if not np.isnan(div["inner_iterations"]):
            lines.append(
                "%s infusion: mean inner iterations %.2f, mean final divergence %s"
                % (mode, div["inner_iterations"],
                   "%.6f" % div["final_divergence"] if not np.isnan(div["final_divergence"]) else "n/a")
            )
    return "\n".join(lines) + "\n"


def comparison_csv(report: ComparisonReport) -> str:
    a, b = report.modes
    lines = [f"metric,{a}_mean,{a}_std,{b}_mean,{b}_std,delta"]
    for key in _COMPARE_METRICS:
        ma, sa = report.summary[a][key]
        mb, sb = report.summary[b][key]
        lines.append(f"{key},{ma!r},{sa!r},{mb!r},{sb!r},{report.deltas[key]!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# knowledge update cycle


def link_concepts(kg: KnowledgeGraph, text: str) -> set:
    """Concepts whose normalized label occurs as a contiguous token run."""
    tokens = tokenize(text)
    found = set()
    for cid, concept in kg.concepts.items():
        label_tokens = tokenize(concept.label)
        if not label_tokens or len(label_tokens) > len(tokens):
            continue
        width = len(label_tokens)
        for start in range(len(tokens) - width + 1):
            if tokens[start:start + width] == label_tokens:
                found.add(cid)
                break
    return found


@dataclass
class UpdateOutcome:
    misclassified: int
    new_triples: int
    new_concepts: int
    residual: float | None
    reason: str


def update_kg(cfg: PipelineConfig, checkpoint_path, dataset_path=None) -> UpdateOutcome:
    """One differential-knowledge cycle driven by misclassified examples.

    Evolves the stored seeded subgraph, refreshes the knowledge
    embedding, and appends one line to the update audit log.
    """
    art = load_build(cfg)
    ckpt = load_trained(checkpoint_path)
    path = dataset_path or cfg.eval_dataset_path or cfg.dataset_path
    rows = read_labeled_tsv(path)

    missed_concepts: set[str] = set()
    misclassified = 0
    for label, text in rows:
        predicted = ckpt.predict_label(token_sequence(art.models, text))
        if predicted != label:
            misclassified += 1
            missed_concepts |= link_concepts(art.kg, text)

    if misclassified == 0:
        return _finish_update(cfg, UpdateOutcome(0, 0, 0, None, "no misclassifications"))
    if not missed_concepts:
        return _finish_update(
            cfg, UpdateOutcome(misclassified, 0, 0, None, "no linked concepts")
        )

    retrieved = dke_mod.knowledge_proximity(art.kg, missed_concepts, cfg.proximity_hops)
    diff = dke_mod.differential_subkg(retrieved, art.seeded, art.models)
    if not diff.triples:
        return _finish_update(
            cfg, UpdateOutcome(misclassified, 0, 0, None, "difference already absorbed")
        )

    solution = None
    if diff.new_concepts:
        if art.seeded.embedding_matrix.shape[1] == 0:
            return _finish_update(
                cfg,
                UpdateOutcome(misclassified, 0, len(diff.new_concepts), None,
                              "seeded subgraph has no embedded concepts to map against"),
            )
        solution = dke_mod.solve_mapping(
            art.seeded.embedding_matrix, diff.embedding_matrix,
            alpha=cfg.alpha, ridge=cfg.ridge,
        )
    updated = dke_mod.update_seeded(art.seeded, diff, solution)

    paths = _artifact_paths(cfg.out_dir)
    _save_seeded(paths, art.kg, updated)
    _write_knowledge_embedding(cfg, paths, updated, art.models)
    manifest_path = os.path.join(cfg.out_dir, MANIFEST_NAME)
    if os.path.isfile(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["artifacts"] = _hash_artifacts(cfg, paths)
        manifest["evolved"] = True
        atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    outcome = UpdateOutcome(
        misclassified=misclassified,
        new_triples=len(diff.triples),
        new_concepts=len(diff.new_concepts),
        residual=solution.residual if solution else None,
        reason="updated",
    )
    return _finish_update(cfg, outcome)


def _finish_update(cfg: PipelineConfig, outcome: UpdateOutcome) -> UpdateOutcome:
    audit_path = os.path.join(cfg.out_dir, "update_audit.log")
    cycle = 0
    if os.path.isfile(audit_path):
        with open(audit_path, encoding="utf-8") as handle:
            cycle = sum(1 for line in handle if line.strip())
    residual = "%.3e" % outcome.residual if outcome.residual is not None else "-"
    line = (
        f"cycle={cycle + 1} misclassified={outcome.misclassified} "
        f"new_triples={outcome.new_triples} new_concepts={outcome.new_concepts} "
        f"residual={residual} reason={outcome.reason}\n"
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(audit_path, "a", encoding="utf-8") as handle:
        handle.write(line)
    log.info("update cycle: %s", line.strip())
    return outcome
