"""Pipeline configuration: flat key = value text with section headers.

The format is deliberately trivial to parse from any language: sections
in brackets, one "key = value" per line, "#" comments. Unknown sections
or keys are rejected. parse -> emit -> parse is the identity on the
normalized configuration.

Each key is declared once, as a _KEYS row (section, key, PipelineConfig
field, parser); row order is the emitted order that config_hash hashes,
and defaults are the dataclass defaults. Explicit code handles
corpus.<name>, d_sub and d_sub.<name>, paths and the predicates allowlist.
"""

from __future__ import annotations

import math
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


def _integer(minimum=None):
    def parse(key, raw):
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from exc
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}")
        return value
    return parse


def _number(positive):
    """Finite float parser; positive, or else nonnegative."""
    def parse(key, raw):
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
        if positive and value <= 0:
            raise ConfigError(f"{key}: must be positive")
        if value < 0:
            raise ConfigError(f"{key}: must be nonnegative")
        return value
    return parse


def _text(key, raw):
    return raw


def _optional_text(key, raw):
    return raw or None


def _predicates(key, raw):
    if raw.strip().lower() == "all":
        return None
    allowlist = tuple(sorted({p.strip() for p in raw.split(",") if p.strip()}))
    if not allowlist:
        raise ConfigError("predicates: empty allowlist (use 'all' or a comma list)")
    return allowlist


def _mode(key, raw):
    if raw not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {raw!r}")
    return raw


# (section, key, PipelineConfig field, parser), in emitted order.
_KEYS = (
    ("paths", "kg", "kg_path", _text),
    ("paths", "dataset", "dataset_path", _text),
    ("paths", "eval_dataset", "eval_dataset_path", _optional_text),
    ("subkg", "target_class", "target_class", _text),
    ("subkg", "top_m", "top_m", _integer(1)),
    ("subkg", "hops", "subkg_hops", _integer(0)),
    ("subkg", "predicates", "predicates", _predicates),
    ("subkg", "taxonomy_predicate", "taxonomy_predicate", _text),
    ("embedding", "window", "window", _integer(1)),
    ("nlm", "layers", "layers", _integer(2)),
    ("nlm", "hidden", "hidden", _integer(1)),
    ("nlm", "epochs", "epochs", _integer(1)),
    ("nlm", "iters", "iters", _integer(1)),
    ("nlm", "batch_size", "batch_size", _integer(1)),
    ("nlm", "lr", "lr", _number(positive=True)),
    ("nlm", "clip_norm", "clip_norm", _number(positive=True)),
    ("infusion", "epsilon", "epsilon", _number(positive=True)),
    ("infusion", "gate_lr", "gate_lr", _number(positive=True)),
    ("infusion", "max_inner_iters", "max_inner_iters", _integer(1)),
    ("dke", "alpha", "alpha", _number(positive=True)),
    ("dke", "ridge", "ridge", _number(positive=False)),
    ("dke", "proximity_hops", "proximity_hops", _integer(1)),
    ("run", "mode", "mode", _mode),
    ("run", "seed", "seed", _integer()),
    ("run", "out", "out_dir", _text),
    ("run", "compare_seeds", "compare_seeds", _integer(2)),
)
_REQUIRED = {"kg_path", "dataset_path", "target_class"}
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _KEYS))
# Keys outside the table: the d_sub default, and the per-dimension
# prefix.<name> keys with the dict field each fills.
_KNOWN = {(section, key) for section, key, *_ in _KEYS} | {("embedding", "d_sub")}
_PREFIX_KEYS = {("paths", "corpus"): "corpora", ("embedding", "d_sub"): "d_sub"}


def _parse_sections(text: str, origin: str) -> dict:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
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
    prefix, dot, _ = key.partition(".")
    return (section, key) in _KNOWN or (bool(dot) and (section, prefix) in _PREFIX_KEYS)


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

    embedding = sections.get("embedding", {})
    d_sub = {}
    for name in corpora:
        value = embedding.get(f"d_sub.{name}", embedding.get("d_sub"))
        if value is None:
            raise ConfigError(f"no d_sub for dimension {name!r} (set d_sub or d_sub.{name})")
        d_sub[name] = _integer(1)(f"d_sub.{name}", value)
    for key in embedding:
        if key.startswith("d_sub.") and key.split(".", 1)[1] not in corpora:
            raise ConfigError(f"d_sub for unknown dimension {key.split('.', 1)[1]!r}")

    values = {"out_dir": PipelineConfig.out_dir}
    for section, key, name, parse in _KEYS:
        raw = sections.get(section, {}).get(key)
        if raw is not None:
            values[name] = parse(key, raw)
        elif name in _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
    for name in ("kg_path", "dataset_path", "eval_dataset_path", "out_dir"):
        if values.get(name) is not None:
            values[name] = resolve(values[name])
    return PipelineConfig(corpora=corpora, d_sub=d_sub, **values)


def emit_config(cfg: PipelineConfig, sections=_SECTIONS) -> str:
    """Canonical text form; parsing it reproduces the same configuration.

    sections picks which sections to emit, in their emitted order.
    """
    lines = []
    for section in sections:
        lines += ["", f"[{section}]"]
        for row_section, key, name, _ in _KEYS:
            value = getattr(cfg, name)
            if name == "predicates":
                value = "all" if value is None else ",".join(value)
            if row_section == section and value is not None:
                lines.append(f"{key} = {value}")
        for (row_section, prefix), name in _PREFIX_KEYS.items():
            if row_section == section:
                entries = getattr(cfg, name)
                lines += [f"{prefix}.{k} = {entries[k]}" for k in sorted(entries)]
    return "\n".join(lines[1:]) + "\n"


def config_hash(cfg: PipelineConfig) -> str:
    return sha256_text(emit_config(cfg))


def build_hash(cfg: PipelineConfig) -> str:
    """sha256 of the settings a build reads: the [subkg] and [embedding]
    sections and the corpus names. The build's input files are keyed
    apart, by the sha256 of their contents, so neither [run], [nlm],
    [infusion] and [dke] nor where the inputs lie change it."""
    names = "".join(f"corpus.{name}\n" for name in sorted(cfg.corpora))
    return sha256_text(emit_config(cfg, ("subkg", "embedding")) + names)


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
        updates["mode"] = _mode("mode", mode)
    if seed is not None:
        updates["seed"] = seed
    if out_dir is not None:
        updates["out_dir"] = os.path.abspath(out_dir)
    return replace(cfg, **updates) if updates else cfg
