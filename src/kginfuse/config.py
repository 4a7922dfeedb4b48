"""Pipeline configuration: flat key = value text with section headers.

The format is deliberately trivial to parse from any language: sections
in brackets, one "key = value" per line, "#" comments. Unknown sections
or keys are rejected. parse -> emit -> parse is the identity on the
normalized configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .storage import read_text, sha256_text

MODES = ("vanilla", "infused")


@dataclass
class PipelineConfig:
    kg_path: str
    dataset_path: str
    corpora: dict            # dimension name -> corpus path
    eval_dataset_path: str | None = None

    target_class: str = "pos"
    top_m: int = 3
    subkg_hops: int = 2
    predicates: tuple | None = None   # None = every predicate
    taxonomy_predicate: str = "isa"

    window: int = 4
    d_sub: dict = field(default_factory=dict)  # dimension name -> width

    layers: int = 2
    hidden: int = 8
    epochs: int = 3
    iters: int = 8
    batch_size: int = 8
    lr: float = 0.1
    clip_norm: float = 5.0

    epsilon: float = 1e-4
    gate_lr: float = 0.1
    max_inner_iters: int = 50

    alpha: float = 1.0
    ridge: float = 0.1
    proximity_hops: int = 2

    mode: str = "infused"
    seed: int = 0
    out_dir: str = "runs/default"
    compare_seeds: int = 10

    def content_width(self) -> int:
        return sum(self.d_sub.values())


_SCHEMA = {
    "paths": {"kg", "dataset", "eval_dataset"},
    "subkg": {"target_class", "top_m", "hops", "predicates", "taxonomy_predicate"},
    "embedding": {"window", "d_sub"},
    "nlm": {"layers", "hidden", "epochs", "iters", "batch_size", "lr", "clip_norm"},
    "infusion": {"epsilon", "gate_lr", "max_inner_iters"},
    "dke": {"alpha", "ridge", "proximity_hops"},
    "run": {"mode", "seed", "out", "compare_seeds"},
}
_PREFIX_KEYS = {("paths", "corpus"), ("embedding", "d_sub")}


def _parse_sections(text: str, origin: str) -> dict:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"{origin}:{line_number}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(f"{origin}:{line_number}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"{origin}:{line_number}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _key_allowed(current, key):
            raise ConfigError(f"{origin}:{line_number}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{line_number}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _key_allowed(section: str, key: str) -> bool:
    if key in _SCHEMA[section]:
        return True
    if "." in key:
        prefix = key.split(".", 1)[0]
        return (section, prefix) in _PREFIX_KEYS
    return False


def _want(sections, section, key, default=None, required=False):
    value = sections.get(section, {}).get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    return value


def _as_int(name, value, minimum=None):
    try:
        out = int(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected integer, got {value!r}") from exc
    if minimum is not None and out < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}")
    return out


def _as_float(name, value, positive=False, nonnegative=False):
    try:
        out = float(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected number, got {value!r}") from exc
    if positive and out <= 0:
        raise ConfigError(f"{name}: must be positive")
    if nonnegative and out < 0:
        raise ConfigError(f"{name}: must be nonnegative")
    return out


def parse_config(path) -> PipelineConfig:
    return parse_config_text(read_text(path), origin=str(path),
                             base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config_text(text: str, origin: str = "<config>", base_dir: str = ".") -> PipelineConfig:
    sections = _parse_sections(text, origin)

    def resolve(p):
        return os.path.normpath(os.path.join(base_dir, p))

    corpora = {}
    for key, value in sorted(sections.get("paths", {}).items()):
        if key.startswith("corpus."):
            name = key.split(".", 1)[1]
            if not name:
                raise ConfigError("corpus dimension name is empty")
            corpora[name] = resolve(value)
    if not corpora:
        raise ConfigError("at least one corpus.<dimension> entry is required")

    default_d_sub = sections.get("embedding", {}).get("d_sub")
    d_sub = {}
    for name in corpora:
        override = sections.get("embedding", {}).get(f"d_sub.{name}")
        value = override if override is not None else default_d_sub
        if value is None:
            raise ConfigError(f"no d_sub for dimension {name!r} (set d_sub or d_sub.{name})")
        d_sub[name] = _as_int(f"d_sub.{name}", value, minimum=1)
    for key in sections.get("embedding", {}):
        if key.startswith("d_sub.") and key.split(".", 1)[1] not in corpora:
            raise ConfigError(f"d_sub for unknown dimension {key.split('.', 1)[1]!r}")

    predicates_raw = _want(sections, "subkg", "predicates", default="all")
    if predicates_raw.strip().lower() == "all":
        predicates = None
    else:
        predicates = tuple(sorted({p.strip() for p in predicates_raw.split(",") if p.strip()}))
        if not predicates:
            raise ConfigError("predicates: empty allowlist (use 'all' or a comma list)")

    mode = _want(sections, "run", "mode", default="infused")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    eval_raw = _want(sections, "paths", "eval_dataset")
    cfg = PipelineConfig(
        kg_path=resolve(_want(sections, "paths", "kg", required=True)),
        dataset_path=resolve(_want(sections, "paths", "dataset", required=True)),
        eval_dataset_path=resolve(eval_raw) if eval_raw else None,
        corpora=corpora,
        target_class=_want(sections, "subkg", "target_class", required=True),
        top_m=_as_int("top_m", _want(sections, "subkg", "top_m", "3"), minimum=1),
        subkg_hops=_as_int("hops", _want(sections, "subkg", "hops", "2"), minimum=0),
        predicates=predicates,
        taxonomy_predicate=_want(sections, "subkg", "taxonomy_predicate", "isa"),
        window=_as_int("window", _want(sections, "embedding", "window", "4"), minimum=1),
        d_sub=d_sub,
        layers=_as_int("layers", _want(sections, "nlm", "layers", "2"), minimum=2),
        hidden=_as_int("hidden", _want(sections, "nlm", "hidden", "8"), minimum=1),
        epochs=_as_int("epochs", _want(sections, "nlm", "epochs", "3"), minimum=1),
        iters=_as_int("iters", _want(sections, "nlm", "iters", "8"), minimum=1),
        batch_size=_as_int("batch_size", _want(sections, "nlm", "batch_size", "8"), minimum=1),
        lr=_as_float("lr", _want(sections, "nlm", "lr", "0.1"), positive=True),
        clip_norm=_as_float("clip_norm", _want(sections, "nlm", "clip_norm", "5.0"), positive=True),
        epsilon=_as_float("epsilon", _want(sections, "infusion", "epsilon", "1e-4"), positive=True),
        gate_lr=_as_float("gate_lr", _want(sections, "infusion", "gate_lr", "0.1"), positive=True),
        max_inner_iters=_as_int(
            "max_inner_iters", _want(sections, "infusion", "max_inner_iters", "50"), minimum=1
        ),
        alpha=_as_float("alpha", _want(sections, "dke", "alpha", "1.0"), positive=True),
        ridge=_as_float("ridge", _want(sections, "dke", "ridge", "0.1"), nonnegative=True),
        proximity_hops=_as_int(
            "proximity_hops", _want(sections, "dke", "proximity_hops", "2"), minimum=1
        ),
        mode=mode,
        seed=_as_int("seed", _want(sections, "run", "seed", "0")),
        out_dir=resolve(_want(sections, "run", "out", "runs/default")),
        compare_seeds=_as_int(
            "compare_seeds", _want(sections, "run", "compare_seeds", "10"), minimum=2
        ),
    )
    return cfg


def emit_config(cfg: PipelineConfig) -> str:
    """Canonical text form; parsing it reproduces the same configuration."""
    lines = ["[paths]", f"kg = {cfg.kg_path}", f"dataset = {cfg.dataset_path}"]
    if cfg.eval_dataset_path:
        lines.append(f"eval_dataset = {cfg.eval_dataset_path}")
    for name in sorted(cfg.corpora):
        lines.append(f"corpus.{name} = {cfg.corpora[name]}")
    lines += [
        "",
        "[subkg]",
        f"target_class = {cfg.target_class}",
        f"top_m = {cfg.top_m}",
        f"hops = {cfg.subkg_hops}",
        "predicates = " + ("all" if cfg.predicates is None else ",".join(cfg.predicates)),
        f"taxonomy_predicate = {cfg.taxonomy_predicate}",
        "",
        "[embedding]",
        f"window = {cfg.window}",
    ]
    for name in sorted(cfg.d_sub):
        lines.append(f"d_sub.{name} = {cfg.d_sub[name]}")
    lines += [
        "",
        "[nlm]",
        f"layers = {cfg.layers}",
        f"hidden = {cfg.hidden}",
        f"epochs = {cfg.epochs}",
        f"iters = {cfg.iters}",
        f"batch_size = {cfg.batch_size}",
        f"lr = {cfg.lr!r}",
        f"clip_norm = {cfg.clip_norm!r}",
        "",
        "[infusion]",
        f"epsilon = {cfg.epsilon!r}",
        f"gate_lr = {cfg.gate_lr!r}",
        f"max_inner_iters = {cfg.max_inner_iters}",
        "",
        "[dke]",
        f"alpha = {cfg.alpha!r}",
        f"ridge = {cfg.ridge!r}",
        f"proximity_hops = {cfg.proximity_hops}",
        "",
        "[run]",
        f"mode = {cfg.mode}",
        f"seed = {cfg.seed}",
        f"out = {cfg.out_dir}",
        f"compare_seeds = {cfg.compare_seeds}",
    ]
    return "\n".join(lines) + "\n"


def config_hash(cfg: PipelineConfig) -> str:
    return sha256_text(emit_config(cfg))


def require_input_files(cfg: PipelineConfig) -> None:
    """Existence check for every referenced input file, before any work."""
    missing = []
    paths = [cfg.kg_path, cfg.dataset_path, *cfg.corpora.values()]
    if cfg.eval_dataset_path:
        paths.append(cfg.eval_dataset_path)
    for p in paths:
        if not os.path.isfile(p):
            missing.append(p)
    if missing:
        raise ConfigError("missing input file(s): " + ", ".join(sorted(missing)))


def with_overrides(cfg: PipelineConfig, mode=None, seed=None, out_dir=None) -> PipelineConfig:
    """CLI flags override the [run] section."""
    updates = {}
    if mode is not None:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        updates["mode"] = mode
    if seed is not None:
        updates["seed"] = seed
    if out_dir is not None:
        updates["out_dir"] = os.path.abspath(out_dir)
    return replace(cfg, **updates) if updates else cfg
