"""End-to-end pipeline: artifact building, training, evaluation,
mode comparison, and the knowledge-update cycle.

Every command is deterministic under a fixed seed: randomness flows
through named streams, artifacts are written atomically, and checkpoint
bytes are a pure function of config + seed + inputs.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from . import dke as dke_mod
from .config import (
    MODES,
    PipelineConfig,
    build_hash,
    config_hash,
    emit_config,
    require_input_files,
)
from .datasets import encode_dataset, encode_texts, read_labeled_tsv
from .embedding import (
    DimensionModel,
    KnowledgeEmbedding,
    content_width,
    embed_concepts,
    knowledge_embedding,
    train_dimension_model,
)
from .errors import ConfigError, StorageError, ValidationError
from .infusion import (
    InfusionParams,
    InfusionResult,
    fuse_step,
    knowledge_infusion,
    trace_csv,
)
from .kg import KnowledgeGraph, SubKG, format_stats, load_graph, make_triples
from .metrics import EvalReport, evaluate_predictions, report_csv, report_text
from .nlm import (
    LSTMParams,
    collect_hidden,
    forward_batch as forward,  # the one LSTM pass of every prediction; traced by perfbench
    init_params,
    log_softmax,
    softmax,
    train_step,
)
from .rng import derive_seed, stream_rng
from .seeding import corpus_stats, extract_seeded_subkg
from .storage import (
    atomic_write_text,
    load_array,
    load_checkpoint,
    read_text,
    save_array,
    save_checkpoint,
    sha256_file,
)
from .text import normalize_all, normalize_label

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
# The manifest keys of the records _reusable checks: what the build read,
# and what the last absorbing update read and how many documents it missed.
BUILD_RECORD, UPDATE_RECORD = "build", "last_update"

# An infused training refits the head once, after its last epoch, on the
# gated hidden vectors by damped Newton steps (_calibrate_head) until the
# gradient norm is at most HEAD_CALIBRATION_GRAD_TOL. The small L2 penalty
# keeps the refit head conservative on ambiguous examples. Synth refits
# converge in under ten steps; the caps only bound a problem that does not.
HEAD_CALIBRATION_L2 = 0.001
HEAD_CALIBRATION_GRAD_TOL = 1e-9
HEAD_CALIBRATION_MAX_ITERS = 50
HEAD_CALIBRATION_MAX_HALVINGS = 40


@dataclass
class BuildArtifacts:
    """What train and evaluate read of a build. The graph and the seeded
    subgraph, which only update_kg reads, come from load_subgraph. build
    also sets subgraph_counts, the seeded subgraph's (triples, concepts),
    for the build command's summary."""

    models: list
    ke_values: np.ndarray
    ke_pair_count: int
    config_sha: str
    up_to_date: bool = False
    subgraph_counts: tuple[int, int] | None = None


# ---------------------------------------------------------------------------
# build


def _build_inputs(cfg: PipelineConfig) -> dict:
    """What a build reads: the settings build_hash covers and the sha256
    of each input file, plus the format of the artifacts, so that a build
    stored in an older format is rebuilt (format 3: an absorbed concept
    keeps its own vector)."""
    inputs = {"format": 3, "build_sha256": build_hash(cfg), "kg": sha256_file(cfg.kg_path),
              "dataset": sha256_file(cfg.dataset_path)}
    for name in sorted(cfg.corpora):
        inputs[f"corpus.{name}"] = sha256_file(cfg.corpora[name])
    return inputs


def _artifact_paths(cfg: PipelineConfig) -> dict:
    """Every file a build writes, the per-dimension model files included."""
    out_dir = cfg.out_dir
    paths = {
        "config": os.path.join(out_dir, "config.cfg"),
        "stats": os.path.join(out_dir, "graph_stats.txt"),
        "subkg_triples": os.path.join(out_dir, "subkg", "triples.tsv"),
        "subkg_scores": os.path.join(out_dir, "subkg", "scores.tsv"),
        "subkg_depths": os.path.join(out_dir, "subkg", "depths.tsv"),
        "ke": os.path.join(out_dir, "knowledge", "ke.kign"),
        "ke_meta": os.path.join(out_dir, "knowledge", "ke.json"),
    }
    for name in sorted(cfg.corpora):
        paths[f"{name}.vocab"] = os.path.join(out_dir, "models", f"{name}.vocab.tsv")
        paths[f"{name}.vectors"] = os.path.join(out_dir, "models", f"{name}.vectors.kign")
    return paths


def build(cfg: PipelineConfig) -> BuildArtifacts:
    """Build (or reuse) the KG, dimension models, seeded subgraph, and
    knowledge embedding under the config's output directory.

    The stored build is reused when _reusable finds the manifest's build
    record made from the same inputs (_build_inputs) and every artifact
    as the manifest records it.
    """
    require_input_files(cfg)
    out_dir = cfg.out_dir
    paths = _artifact_paths(cfg)
    inputs = _build_inputs(cfg)
    if _reusable(cfg, paths, BUILD_RECORD, lambda: inputs):
        log.info("build artifacts up to date in %s", out_dir)
        art = load_build(cfg)
        art.up_to_date = True
        # One row per triple and per concept, as the manifest's sha256s
        # have just confirmed.
        art.subgraph_counts = tuple(
            read_text(paths[key]).count("\n") for key in ("subkg_triples", "subkg_depths"))
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
                dimension_name=name,
            )
        )

    seeded = extract_seeded_subkg(kg, stats, cfg.target_class, hops=cfg.subkg_hops,
                                  top_m=cfg.top_m)

    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(paths["config"], emit_config(cfg))
    atomic_write_text(paths["stats"], format_stats(kg))
    for model in models:
        _save_model(paths, model)
    scored = sorted(seeded.relevance)
    _write_columns(paths["subkg_scores"], scored, map(seeded.relevance.get, scored))
    _save_seeded(paths, seeded.subkg)
    ke = _write_knowledge_embedding(cfg, paths, seeded.subkg, models)
    _write_manifest(cfg, paths, {BUILD_RECORD: inputs})
    counts = (len(seeded.subkg.triples), len(seeded.subkg.frontier_depth))
    return BuildArtifacts(models, ke.values, ke.pair_count, config_hash(cfg),
                          subgraph_counts=counts)


def _read_manifest(cfg: PipelineConfig) -> dict | None:
    """The output directory's manifest, or None when there is none."""
    path = os.path.join(cfg.out_dir, MANIFEST_NAME)
    return _read_json(path) if os.path.isfile(path) else None


def _reusable(cfg: PipelineConfig, paths: dict, key: str, inputs, unread=()) -> dict | None:
    """The manifest's record under key, when a command can be answered
    from it: the record holds every item of inputs() (called only when
    there is a record), every artifact exists, and each one whose paths
    key is not in unread still has the sha256 the manifest records. None
    otherwise, with each missing or changed artifact logged by name. An
    unreadable manifest raises StorageError."""
    manifest = _read_manifest(cfg) or {}
    record, recorded = manifest.get(key), manifest.get("artifacts")
    if not (isinstance(record, dict) and inputs().items() <= record.items()):
        return None
    recorded = recorded if isinstance(recorded, dict) else {}
    base = os.path.join(cfg.out_dir, "")  # every artifact path is joined onto it
    stale = sorted(path[len(base):] for name, path in paths.items()
                   if not os.path.isfile(path)
                   or name not in unread and sha256_file(path) != recorded.get(path[len(base):]))
    if stale:
        log.info("missing or changed since the %s record in %s: %s", key, MANIFEST_NAME,
                 ", ".join(stale))
        return None
    return record


def _write_manifest(cfg: PipelineConfig, paths: dict, manifest: dict, written=None) -> None:
    """Store manifest plus one sha256 per artifact, by its path relative
    to the output directory: the file's own (None for a missing one) for
    each paths key in written, or for every key when written is None,
    and for any other key the one manifest's "artifacts" records, so an
    edit made to that file since still shows."""
    base = os.path.join(cfg.out_dir, "")  # every artifact path is joined onto it
    recorded = manifest.get("artifacts")
    recorded = recorded if isinstance(recorded, dict) else {}
    artifacts = {}
    for name, path in paths.items():
        rel = path[len(base):]
        if written is None or name in written:
            artifacts[rel] = sha256_file(path) if os.path.isfile(path) else None
        else:
            artifacts[rel] = recorded.get(rel)
    atomic_write_text(os.path.join(cfg.out_dir, MANIFEST_NAME),
                      json.dumps({**manifest, "artifacts": artifacts}, indent=2, sort_keys=True)
                      + "\n")


def _read_json(path) -> dict:
    try:
        value = json.loads(read_text(path))
    except (ValidationError, ValueError, RecursionError) as exc:
        raise StorageError(f"{path}: unreadable JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise StorageError(f"{path}: not a JSON object")
    return value


def _load_shaped(path, shape) -> np.ndarray:
    """load_array for an array whose shape the other artifacts fix."""
    array = load_array(path)
    if array.shape != shape:
        raise StorageError(f"{path}: shape {array.shape}, expected {shape}")
    return array


def _write_columns(path, *columns) -> None:
    """One line per row of the equal-length columns, each field str() of
    its value and the fields joined by tabs: what _read_columns reads."""
    lines = list(map("\t".join, zip(*(map(str, column) for column in columns))))
    atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


def _read_columns(path, *converters) -> list:
    """The columns _write_columns wrote, each converted by its converter:
    a function from a column's list of cells to the converted list, which
    raises ValueError naming the first bad cell. A faulty file is rescanned
    line by line, each cell converted as a one-cell list, so that a wrong
    field count, a converter's ValueError, a cut last line or bytes that
    are not UTF-8 raise StorageError naming path:line; of several faults,
    the first line's wins, its field count before its fields."""
    try:
        lines = read_text(path).split("\n")
    except ValidationError as exc:
        raise StorageError(str(exc)) from exc
    if lines.pop():
        raise StorageError(f"{path}:{len(lines) + 1}: line not terminated (truncated file?)")
    width = len(converters)
    if set(map(str.count, lines, itertools.repeat("\t"))) <= {width - 1}:
        cells = "\t".join(lines).split("\t") if lines else []
        try:
            return [convert(cells[j::width]) for j, convert in enumerate(converters)]
        except ValueError:
            pass  # named by the row-order rescan below
    for number, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != width:
            raise StorageError(f"{path}:{number}: expected {width} fields, got {len(fields)}")
        try:
            for convert, value in zip(converters, fields):
                convert([value])
        except ValueError as exc:
            raise StorageError(f"{path}:{number}: {exc}") from exc
    raise AssertionError(f"{path}: a column failed to convert but no row does")


def _each(convert):
    """The _read_columns converter that applies convert to each cell."""
    return lambda cells: list(map(convert, cells))


def _write_knowledge_embedding(cfg: PipelineConfig, paths: dict, subkg: SubKG,
                               models) -> KnowledgeEmbedding:
    """Embed the seeded subgraph under the predicate allowlist and store it."""
    allow = None if cfg.predicates is None else frozenset(cfg.predicates)
    ke = knowledge_embedding(subkg, models, allowlist=allow)
    save_array(paths["ke"], ke.values)
    atomic_write_text(
        paths["ke_meta"], json.dumps({"pair_count": ke.pair_count}, sort_keys=True) + "\n"
    )
    return ke


def _save_model(paths: dict, model: DimensionModel) -> None:
    name = model.dimension_name
    tokens = sorted(model.vocab, key=model.vocab.get)
    _write_columns(paths[f"{name}.vocab"], tokens, map(model.vocab.get, tokens))
    save_array(paths[f"{name}.vectors"], model.vectors)


def _load_model(paths: dict, name: str, cfg: PipelineConfig) -> DimensionModel:
    vocab_path = paths[f"{name}.vocab"]
    tokens, indices = _read_columns(vocab_path, list, _each(int))
    if indices != list(range(len(indices))):
        raise StorageError(f"{vocab_path}: indices are not 0..{len(indices) - 1} in order")
    vocab = dict(zip(tokens, indices))
    if len(vocab) != len(tokens):
        first = {}
        for number, token in enumerate(tokens, start=1):
            if first.setdefault(token, number) != number:
                raise StorageError(f"{vocab_path}:{number}: repeated token "
                                   f"(first on line {first[token]}): {token!r}")
    vectors = _load_shaped(paths[f"{name}.vectors"], (len(vocab), cfg.d_sub[name]))
    return DimensionModel(name, vocab, vectors, d_sub=cfg.d_sub[name])


def _save_seeded(paths: dict, subkg: SubKG) -> None:
    """Write the seeded subgraph's triples (by label) and depths, the
    files an update changes."""
    triples = subkg.sorted_triples
    label = subkg.parent.concepts
    _write_columns(paths["subkg_triples"], [label[t.subject] for t in triples],
                   [t.predicate for t in triples], [label[t.object] for t in triples])
    depths = subkg.frontier_depth
    ids = sorted(depths)
    _write_columns(paths["subkg_depths"], ids, map(depths.get, ids))


def load_build(cfg: PipelineConfig) -> BuildArtifacts:
    """Load the dimension models and the knowledge embedding of a build."""
    paths = _artifact_paths(cfg)
    if not all(map(os.path.isfile, paths.values())):
        raise ValidationError(
            f"build artifacts missing under {cfg.out_dir}; run the build command first"
        )
    models = [_load_model(paths, name, cfg) for name in sorted(cfg.corpora)]
    ke_values = _load_shaped(paths["ke"], (content_width(models),))
    pair_count = _read_json(paths["ke_meta"]).get("pair_count")
    if type(pair_count) is not int or pair_count < 0:
        raise StorageError(f"{paths['ke_meta']}: pair_count is not a count")
    return BuildArtifacts(models, ke_values, pair_count, config_hash(cfg))


def load_subgraph(cfg: PipelineConfig) -> SubKG:
    """Parse the graph and read the stored seeded subgraph's triples and
    depths over it; the graph is the result's parent."""
    paths = _artifact_paths(cfg)
    kg = load_graph(cfg.kg_path, taxonomy_predicate=cfg.taxonomy_predicate)
    labels = _labels(kg)
    subjects, predicates, objects = _read_columns(
        paths["subkg_triples"], labels, normalize_all, labels)
    depths = _read_columns(paths["subkg_depths"], _concepts(kg), _each(int))
    return SubKG(parent=kg, triples=frozenset(make_triples(subjects, predicates, objects)),
                 frontier_depth=dict(zip(*depths)))


def _concepts(kg: KnowledgeGraph):
    """The _read_columns converter of a column of the graph's concept ids,
    checked by one set comparison."""
    def concepts(cells):
        if not kg.concepts.keys() >= set(cells):
            bad = next(cid for cid in cells if cid not in kg.concepts)
            raise ValueError(f"{bad!r} is not a concept of the graph")
        return cells

    return concepts


def _labels(kg: KnowledgeGraph):
    """The _read_columns converter of a column of stored labels, each
    turned into its concept's id: a label is looked up among the graph's
    own labels, and only a miss is normalized."""
    ids = dict(zip(kg.concepts.values(), kg.concepts))  # label -> concept id
    concepts = _concepts(kg)

    def labels(cells):
        found = list(map(ids.get, cells))
        if None not in found:  # every stored label is its concept's own
            return found
        return concepts([normalize_label(text) if cid is None else cid
                         for text, cid in zip(cells, found)])

    return labels


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

    def predict_proba_batch(self, sequences) -> np.ndarray:
        """Class probabilities, one row per sequence of a Batch (or a list),
        from one batched LSTM pass and, when infused, one batched gate and
        head. Each row depends only on its own sequence."""
        states, probs = forward(self.params, sequences)
        if self.mode == "vanilla":
            return probs
        gated = states.final * fuse_step(states.final, self.ke_values, self.fusion)
        return softmax(np.einsum("bd,nd->bn", gated, self.head_w) + self.head_b)

    def predict_proba(self, sequence) -> np.ndarray:
        return self.predict_proba_batch([sequence])[0]

    def predict_labels(self, sequences) -> list:
        return [self.labels[i] for i in np.argmax(self.predict_proba_batch(sequences), axis=1)]


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
                    w0: np.ndarray, b0: np.ndarray):
    """Refit the head (W, b) on fixed features by damped Newton steps from
    (w0, b0). The objective is mean softmax cross-entropy plus
    HEAD_CALIBRATION_L2 / 2 * |W|², with b unpenalized. Returns W, b, the
    number of Newton steps taken and the final gradient norm."""
    n, d = features.shape
    width = d + 1  # the bias is the last column of theta = [W | b]
    x = np.hstack([features, np.ones((n, 1))])
    penalty = np.r_[np.full(d, HEAD_CALIBRATION_L2), 0.0]
    rows, classes = np.arange(n), np.arange(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[rows, targets] = 1.0

    def objective(theta):
        logp = log_softmax(x @ theta.T)
        return -logp[rows, targets].mean() + 0.5 * np.sum(penalty * theta ** 2), np.exp(logp)

    theta = np.hstack([w0, b0[:, None]])
    value, p = objective(theta)
    for iteration in range(HEAD_CALIBRATION_MAX_ITERS + 1):
        grad = (p - onehot).T @ x / n + penalty * theta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= HEAD_CALIBRATION_GRAD_TOL or iteration == HEAD_CALIBRATION_MAX_ITERS:
            break
        # Hessian block (a, c) is X^T diag(p_a (delta_ac - p_c)) X / n, plus
        # the penalty on the diagonal.
        q = (p[:, :, None] * x[:, None, :]).reshape(n, -1)
        hess = -(q.T @ q)
        hess.reshape(n_classes, width, n_classes, width)[classes, :, classes, :] += (
            (q.T @ x).reshape(n_classes, width, width))
        hess /= n
        hess[np.diag_indices_from(hess)] += np.tile(penalty, n_classes)
        # A common shift of b changes no probability, so the Hessian is
        # singular along it. The minimum-norm step has no part along it, and
        # centring its b column drops what rounding puts there (much, when
        # saturated probabilities leave b almost flat): sum(b) stays sum(b0).
        step = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)[0].reshape(theta.shape)
        step[:, d] -= step[:, d].mean()
        slope = float(np.sum(grad * step))
        # Armijo backtracking. Near the optimum the decrease a Newton step
        # promises falls below the objective's rounding error, so a change
        # within that error is accepted rather than halved away.
        slack = 8 * np.finfo(float).eps * abs(value)
        t = 1.0
        for _ in range(HEAD_CALIBRATION_MAX_HALVINGS):
            new_value, new_p = objective(theta + t * step)
            if new_value <= value + 1e-4 * t * slope + slack:
                break
            t *= 0.5
        else:
            break  # no step lowers the objective in floating point
        theta, value, p = theta + t * step, new_value, new_p
    return theta[:, :d].copy(), theta[:, d].copy(), iteration, grad_norm


def train(cfg: PipelineConfig, art: BuildArtifacts | None = None) -> TrainResult:
    """Train one model in the configured mode; writes checkpoint + logs."""
    if art is None:
        art = load_build(cfg)
    rows = read_labeled_tsv(cfg.dataset_path)
    labels = tuple(sorted({label for label, _ in rows}))
    if len(labels) < 2:
        raise ValidationError("training dataset must contain at least two classes")
    label_index = {label: i for i, label in enumerate(labels)}
    encoded, targets = encode_dataset(art.models, rows, label_index)

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

    params = init_params(width, cfg.hidden, cfg.layers, len(labels),
                         stream_rng(cfg.seed, "nlm.init"))
    batches = _batch_stream(stream_rng(cfg.seed, "nlm.batches"), len(encoded),
                            cfg.batch_size)

    if infused:
        fusion = InfusionParams.init(cfg.hidden, stream_rng(cfg.seed, "infusion.init"))

    os.makedirs(cfg.out_dir, exist_ok=True)
    log_rows = ["epoch,mean_loss,inner_iterations,exit_reason,head_iterations,head_grad_norm"]
    infusion_results: list[InfusionResult] = []
    epoch_loss = float("nan")
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for _ in range(cfg.iters):
            index = next(batches)
            batch = encoded.batch(index, targets[index])
            params, loss = train_step(params, batch, cfg.lr, cfg.clip_norm)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        if infused:
            finals, penults = collect_hidden(params, encoded.batch())
            result = knowledge_infusion(
                finals.mean(axis=0), penults.mean(axis=0), art.ke_values, fusion,
                gate_lr=cfg.gate_lr, epsilon=cfg.epsilon, max_inner_iters=cfg.max_inner_iters,
            )
            fusion = result.params
            infusion_results.append(result)
            log_rows.append(f"{epoch},{epoch_loss!r},{result.inner_iterations},"
                            f"{result.exit_reason},,")
        else:
            log_rows.append(f"{epoch},{epoch_loss!r},,,,")

    if infused:
        # A refit starts from the LSTM's head of its epoch, so only one after
        # the last epoch reaches the checkpoint; the last row logs it.
        head_w, head_b, head_iterations, head_grad_norm = _calibrate_head(
            finals * fuse_step(finals, art.ke_values, fusion), targets, len(labels),
            params.w_out, params.b_out,
        )
        log_rows[-1] = log_rows[-1].removesuffix(",,") + f",{head_iterations},{head_grad_norm!r}"
        atomic_write_text(os.path.join(cfg.out_dir, "trace_infused.csv"),
                          trace_csv([r.divergence_trace for r in infusion_results]))
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


# Metadata keys every checkpoint must have; load_trained ignores any others,
# such as the infusion settings that older checkpoints also stored.
_CHECKPOINT_META = ("mode", "labels", "seed", "config_sha256", "layers", "hidden",
                    "input_width", "n_classes")


def load_trained(path) -> Checkpoint:
    """Read a checkpoint; a missing or invalid metadata key, or a missing
    array or one whose shape the metadata does not give, raises StorageError."""
    meta, arrays = load_checkpoint(path)
    infused = meta.get("mode") == "infused"
    missing = [k for k in _CHECKPOINT_META if k not in meta]
    if missing:
        raise StorageError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    layers, d, width, n = (meta[k] for k in ("layers", "hidden", "input_width", "n_classes"))
    if not all(type(v) is int and v >= 1 for v in (layers, d, width, n)):
        raise StorageError(f"{path}: layers, hidden, input_width, n_classes must be positive")
    if infused and d != width:
        raise StorageError(f"{path}: an infused checkpoint needs hidden == input_width")
    if meta["mode"] not in MODES:
        raise StorageError(f"{path}: mode not in {MODES}")
    labels = meta["labels"]
    if not (isinstance(labels, list) and all(type(label) is str for label in labels)
            and len(set(labels)) == len(labels) == n):
        raise StorageError(f"{path}: labels are not n_classes distinct strings")
    shapes = {"lstm.head.W": (n, d), "lstm.head.b": (n,), "ke": (width,)}
    for l in range(layers):
        shapes[f"lstm.layer{l}.W"] = (4 * d, (width if l == 0 else d) + d)
        shapes[f"lstm.layer{l}.b"] = (4 * d,)
    if infused:
        shapes.update({"fusion.gate_weights": (d, d + width), "fusion.gate_bias": (d,),
                       "fusion.head.W": (n, d), "fusion.head.b": (n,)})
    for name, shape in shapes.items():
        if name not in arrays:
            raise StorageError(f"{path}: checkpoint has no array {name!r}")
        if arrays[name].shape != shape:
            raise StorageError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                               f"expected {shape}")
    params = LSTMParams(
        layer_weights=[arrays[f"lstm.layer{l}.W"] for l in range(layers)],
        layer_biases=[arrays[f"lstm.layer{l}.b"] for l in range(layers)],
        w_out=arrays["lstm.head.W"],
        b_out=arrays["lstm.head.b"],
        d=d,
        input_width=width,
        n_classes=n,
    )
    fusion = None
    head_w = head_b = None
    if infused:
        fusion = InfusionParams(arrays["fusion.gate_weights"], arrays["fusion.gate_bias"])
        head_w = arrays["fusion.head.W"]
        head_b = arrays["fusion.head.b"]
    return Checkpoint(
        mode=meta["mode"],
        labels=tuple(labels),
        params=params,
        ke_values=arrays["ke"],
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
    report = _score(cfg, ckpt, *_read_eval_set(art.models, path))
    if write_reports:
        base = os.path.join(cfg.out_dir, f"eval_{ckpt.mode}")
        atomic_write_text(base + ".txt", report_text(report))
        atomic_write_text(base + ".csv", report_csv(report))
    return report


def _read_eval_set(models, path) -> tuple:
    """A labeled dataset as _score takes it: (true labels, the encoded
    Batch of all its documents, the file's sha256)."""
    rows = read_labeled_tsv(path)
    encoded = encode_texts(models, [text for _, text in rows])
    return [label for label, _ in rows], encoded.batch(), sha256_file(path)


def _score(cfg: PipelineConfig, ckpt: Checkpoint, y_true, batch, dataset_sha) -> EvalReport:
    """The checkpoint's report on an eval set that _read_eval_set read."""
    unknown = set(y_true) - set(ckpt.labels)
    if unknown:
        raise ValidationError(
            "dataset labels outside the checkpoint's label set: "
            + ", ".join(sorted(unknown))
        )
    y_pred = ckpt.predict_labels(batch)
    positive = cfg.target_class if cfg.target_class in ckpt.labels else ckpt.labels[-1]
    return evaluate_predictions(
        y_true, y_pred, ckpt.labels, positive,
        metadata={
            "seed": ckpt.meta["seed"],
            "mode": ckpt.mode,
            "config_sha256": ckpt.meta["config_sha256"],
            "dataset_sha256": dataset_sha,
        },
    )


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    n_seeds: int
    metrics: dict       # mode -> metric -> list of per-seed values
    summary: dict       # mode -> metric -> (mean, std)
    deltas: dict        # metric -> mean(infused) - mean(vanilla)
    divergence: dict    # infused runs: {"inner_iterations": mean, "final_divergence": mean}


_COMPARE_METRICS = ("precision", "recall", "f1", "false_alarm", "accuracy")


def compare(cfg: PipelineConfig, n_seeds=None) -> ComparisonReport:
    """Train one infused model per seed and score both modes from it: vanilla
    from the LSTM's own head (the infusion loop leaves the LSTM as a vanilla
    training makes it), infused from the gate and the refit head."""
    n = n_seeds if n_seeds is not None else cfg.compare_seeds
    if n < 2:
        raise ConfigError("compare needs at least 2 seeds for a spread estimate")
    if cfg.eval_dataset_path is None:
        raise ConfigError("compare requires an eval_dataset path")
    art = build(cfg)
    eval_set = _read_eval_set(art.models, cfg.eval_dataset_path)

    metrics = {m: {k: [] for k in _COMPARE_METRICS} for m in MODES}
    divergence = {"inner_iterations": [], "final_divergence": []}
    for i in range(n):
        run_seed = derive_seed(cfg.seed, f"compare.run{i}") % (1 << 31)
        run_dir = os.path.join(cfg.out_dir, "compare", f"seed{i:02d}")
        result = train(replace(cfg, mode="infused", seed=run_seed, out_dir=run_dir), art=art)
        ckpt = load_trained(result.checkpoint_path)
        for mode in MODES:
            report = _score(cfg, replace(ckpt, mode=mode), *eval_set)
            pos = report.positive_label
            metrics[mode]["precision"].append(report.precision[pos])
            metrics[mode]["recall"].append(report.recall[pos])
            metrics[mode]["f1"].append(report.f1[pos])
            metrics[mode]["false_alarm"].append(report.false_alarm)
            metrics[mode]["accuracy"].append(report.accuracy)
        divergence["inner_iterations"].append(
            float(np.mean([r.inner_iterations for r in result.infusion_results]))
        )
        finals = [r.divergence_trace[-1][1] for r in result.infusion_results
                  if r.divergence_trace]
        if finals:
            divergence["final_divergence"].append(float(np.mean(finals)))

    summary = {
        mode: {
            key: (float(np.mean(vals)), float(np.std(vals, ddof=1)))
            for key, vals in metrics[mode].items()
        }
        for mode in MODES
    }
    deltas = {
        key: summary["infused"][key][0] - summary["vanilla"][key][0]
        for key in _COMPARE_METRICS
    }
    div_summary = {key: (float(np.mean(vals)) if vals else float("nan"))
                   for key, vals in divergence.items()}
    report = ComparisonReport(n, metrics, summary, deltas, div_summary)
    atomic_write_text(os.path.join(cfg.out_dir, "compare.txt"), comparison_text(report))
    atomic_write_text(os.path.join(cfg.out_dir, "compare.csv"), comparison_csv(report))
    return report


def comparison_text(report: ComparisonReport) -> str:
    a, b = MODES
    lines = [
        f"mode comparison over {report.n_seeds} seeds ({a} vs {b})",
        "",
        "metric        " + "".join("%-22s" % m for m in MODES) + "delta",
    ]
    for key in _COMPARE_METRICS:
        cells = "".join(
            "%-22s" % ("%.4f +/- %.4f" % report.summary[m][key]) for m in MODES
        )
        lines.append("%-13s %s%+.4f" % (key, cells, report.deltas[key]))
    lines.append("")
    div = report.divergence
    lines.append(
        "infused infusion: mean inner iterations %.2f, mean final divergence %s"
        % (div["inner_iterations"],
           "%.6f" % div["final_divergence"] if not np.isnan(div["final_divergence"]) else "n/a")
    )
    return "\n".join(lines) + "\n"


def comparison_csv(report: ComparisonReport) -> str:
    a, b = MODES
    lines = [f"metric,{a}_mean,{a}_std,{b}_mean,{b}_std,delta"]
    for key in _COMPARE_METRICS:
        ma, sa = report.summary[a][key]
        mb, sb = report.summary[b][key]
        lines.append(f"{key},{ma!r},{sa!r},{mb!r},{sb!r},{report.deltas[key]!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# knowledge update cycle


def link_concepts(kg: KnowledgeGraph, tokens) -> set:
    """Concepts whose label tokens occur in a document's tokens as a
    contiguous run.

    The runs of up to kg.longest_label tokens are formed one width at a
    time and met with kg.token_index by one set intersection.
    """
    index = kg.token_index
    runs = set()
    for width in range(1, kg.longest_label + 1):
        runs.update(zip(*(tokens[k:] for k in range(width))))
    return {cid for run in index.keys() & runs for cid in index[run]}


@dataclass
class UpdateOutcome:
    misclassified: int
    new_triples: int
    new_concepts: int
    reason: str
    residual: float | None = None
    imbalance: float | None = None


ABSORBED = "difference already absorbed"

# The artifacts a no-op update does not read, nor does any other: the
# build's config, stats and relevance scores.
_UNREAD_BY_NO_OP = ("config", "stats", "subkg_scores")
# The artifacts an absorbing update writes; the manifest keeps the
# recorded sha256 of every other one.
_WRITTEN_BY_UPDATE = ("subkg_triples", "subkg_depths", "ke", "ke_meta")


def update_kg(cfg: PipelineConfig, checkpoint_path, dataset_path=None) -> UpdateOutcome:
    """One differential-knowledge cycle driven by misclassified examples.

    Evolves the stored seeded subgraph, refreshes the knowledge
    embedding, and appends one line to the update audit log. The stored
    subgraph is its triples and depths. An absorbing update embeds its
    concepts from their labels in one embed_concepts call, for the
    audit's mapping diagnostic only.

    An absorbing update records in the manifest what its outcome read
    (_update_inputs) and how many documents it missed. An update that
    repeats it, which _reusable finds with every artifact present and
    every one a no-op reads (all but _UNREAD_BY_NO_OP) unchanged since,
    finds every retrieved triple stored, because the absorbing update
    unioned them all in. It is answered from the record and appends the
    same audit line as the computed no-op, reading no table, checkpoint
    or graph. Any other update is computed, also when the manifest is
    unreadable; an absorbing one then raises StorageError before it
    writes a file. The manifest an absorbing update rewrites hashes the
    files it wrote (_WRITTEN_BY_UPDATE) and keeps the recorded sha256 of
    every other artifact.
    """
    paths = _artifact_paths(cfg)
    path = dataset_path or cfg.eval_dataset_path or cfg.dataset_path
    try:
        record = _reusable(cfg, paths, UPDATE_RECORD,
                           lambda: _update_inputs(cfg, checkpoint_path, path), _UNREAD_BY_NO_OP)
    except (StorageError, OSError):
        record = None  # the computed update meets and reports the fault
    count = record and record.get("misclassified")
    if type(count) is int and count >= 1:
        log.info("update repeats the last absorbing update recorded in %s", MANIFEST_NAME)
        return _finish_update(cfg, UpdateOutcome(count, 0, 0, ABSORBED))

    art = load_build(cfg)
    seeded = load_subgraph(cfg)
    kg = seeded.parent
    ckpt = load_trained(checkpoint_path)
    rows = read_labeled_tsv(path)

    encoded = encode_texts(art.models, [text for _, text in rows])
    predicted = ckpt.predict_labels(encoded.batch())
    missed = [tokens for (label, _), guess, tokens in zip(rows, predicted, encoded.tokens)
              if guess != label]
    misclassified = len(missed)
    missed_concepts = set().union(*(link_concepts(kg, tokens) for tokens in missed))

    if misclassified == 0:
        return _finish_update(cfg, UpdateOutcome(0, 0, 0, "no misclassifications"))
    if not missed_concepts:
        return _finish_update(
            cfg, UpdateOutcome(misclassified, 0, 0, "no linked concepts")
        )

    retrieved = dke_mod.knowledge_proximity(kg, missed_concepts, cfg.proximity_hops)
    if retrieved.triples <= seeded.triples:
        return _finish_update(cfg, UpdateOutcome(misclassified, 0, 0, ABSORBED))
    diff = dke_mod.differential_subkg(retrieved, seeded, art.models)

    # The mapping is not applied; its residual and imbalance, logged in the
    # audit line, diagnose how far the new concepts sit from the seeded ones.
    columns, _ = embed_concepts(kg, sorted(seeded.frontier_depth), art.models)
    solution = (dke_mod.solve_mapping(columns, diff.embedding_matrix,
                                      alpha=cfg.alpha, ridge=cfg.ridge)
                if diff.new_concepts and columns.shape[1] else None)
    updated = dke_mod.update_seeded(seeded, diff)

    manifest = _read_manifest(cfg)  # an unreadable one raises before the first write
    _save_seeded(paths, updated)
    _write_knowledge_embedding(cfg, paths, updated, art.models)
    if manifest is not None:
        _write_manifest(cfg, paths, {**manifest, UPDATE_RECORD: {
            **_update_inputs(cfg, checkpoint_path, path), "misclassified": misclassified}},
                        written=_WRITTEN_BY_UPDATE)

    outcome = UpdateOutcome(
        misclassified=misclassified,
        new_triples=len(diff.triples),
        new_concepts=len(diff.new_concepts),
        reason="updated",
        residual=solution.residual if solution else None,
        imbalance=solution.imbalance if solution else None,
    )
    return _finish_update(cfg, outcome)


def _update_inputs(cfg: PipelineConfig, checkpoint_path, dataset_path) -> dict:
    """What an update reads besides the stored build: the sha256 of the
    checkpoint, the dataset and the graph, the build settings (among them
    the taxonomy predicate and the model widths) and the retrieval hops."""
    return {"checkpoint": sha256_file(checkpoint_path), "dataset": sha256_file(dataset_path),
            "kg": sha256_file(cfg.kg_path), "build_sha256": build_hash(cfg),
            "proximity_hops": cfg.proximity_hops}


def _finish_update(cfg: PipelineConfig, outcome: UpdateOutcome) -> UpdateOutcome:
    audit_path = os.path.join(cfg.out_dir, "update_audit.log")
    logged = b""
    if os.path.isfile(audit_path):
        with open(audit_path, "rb") as handle:  # counted, never decoded
            logged = handle.read()
    cycle = sum(1 for line in logged.split(b"\n") if line.strip())
    residual, imbalance = ("-" if value is None else "%.3e" % value
                           for value in (outcome.residual, outcome.imbalance))
    line = (
        f"cycle={cycle + 1} misclassified={outcome.misclassified} "
        f"new_triples={outcome.new_triples} new_concepts={outcome.new_concepts} "
        f"residual={residual} imbalance={imbalance} reason={outcome.reason}\n"
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(audit_path, "a", encoding="utf-8") as handle:
        if logged and not logged.endswith(b"\n"):
            handle.write("\n")  # end a cut last line, so the new one stands alone
        handle.write(line)
    log.info("update cycle: %s", line.strip())
    return outcome
