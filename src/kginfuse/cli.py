"""Command-line driver.

Verbs: build, train, eval, compare, update-kg, gradcheck. Exit codes:
0 on success (and after --help), 1 for usage, validation and config
errors, 2 for runtime or numeric errors.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .config import MODES, parse_config, with_overrides
from .errors import KginfuseError, ValidationError

log = logging.getLogger(__name__)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="pipeline config file")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="override the configured mode")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kginfuse",
        description="Knowledge-infused sequence classification pipeline.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest the KG and corpora; build all artifacts")
    _add_common(p)

    p = sub.add_parser("train", help="train a classifier in the configured mode")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled dataset")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None, help="defaults to the configured eval dataset")

    p = sub.add_parser("compare", help="vanilla vs infused over several seeds")
    _add_common(p)
    p.add_argument("--n-seeds", type=int, default=None)

    p = sub.add_parser("update-kg", help="evolve the seeded subgraph from misclassifications")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all gradients")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args):
    cfg = parse_config(args.config)
    return with_overrides(cfg, mode=args.mode, seed=args.seed, out_dir=args.out)


def cmd_build(args) -> int:
    from .pipeline import build

    cfg = _load_config(args)
    art = build(cfg)
    if art.up_to_date:
        print(f"up to date: {cfg.out_dir}")
    else:
        print(f"built artifacts in {cfg.out_dir}")
    print("seeded subgraph: %d triples, %d concepts" % art.subgraph_counts)
    print(f"knowledge embedding: {art.ke_pair_count} concept pairs")
    return 0


def cmd_train(args) -> int:
    from .pipeline import build, train

    cfg = _load_config(args)
    art = build(cfg)
    result = train(cfg, art=art)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"final epoch mean loss: {result.final_epoch_loss:.6f}")
    if result.infusion_results:
        last = result.infusion_results[-1]
        print(f"last infusion: {last.inner_iterations} inner iterations "
              f"({last.exit_reason})")
    return 0


def cmd_eval(args) -> int:
    from .metrics import report_text
    from .pipeline import evaluate

    cfg = _load_config(args)
    report = evaluate(cfg, args.checkpoint, dataset_path=args.dataset)
    print(report_text(report), end="")
    return 0


def cmd_compare(args) -> int:
    from .pipeline import compare, comparison_text

    cfg = _load_config(args)
    report = compare(cfg, n_seeds=args.n_seeds)
    print(comparison_text(report), end="")
    return 0


def cmd_update_kg(args) -> int:
    from .pipeline import update_kg

    cfg = _load_config(args)
    outcome = update_kg(cfg, args.checkpoint, dataset_path=args.dataset)
    print(f"misclassified: {outcome.misclassified}")
    print(f"new triples: {outcome.new_triples} (new concepts: {outcome.new_concepts})")
    if outcome.residual is not None:
        print(f"mapping residual: {outcome.residual:.3e} imbalance: {outcome.imbalance:.3e}")
    print(f"outcome: {outcome.reason}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import infusion
    from .nlm import Batch, gradient_check, init_params

    if args.seed < 0:
        raise ValidationError(f"gradcheck --seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    params = init_params(input_width=5, d=4, layers=2, n_classes=3, rng=rng)
    pairs = [(rng.normal(size=(rng.integers(2, 6), 5)), int(rng.integers(3)))
             for _ in range(3)]
    batch = Batch.of([seq for seq, _ in pairs], [label for _, label in pairs])
    report = gradient_check(params, batch)
    print(f"lstm gradient check over {report.parameter_count} parameters:")
    for name, err in report.by_group.items():
        print(f"  {name:12s} {err:.3e}")

    fusion = infusion.InfusionParams.init(4, rng)
    h = rng.normal(size=4)
    ke = rng.normal(size=4)
    worst = infusion.gradient_check(h, ke, fusion)
    print(f"fusion gradient check: {worst:.3e}")

    ok = report.max_relative_error < 1e-4 and worst < 1e-6
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


_COMMANDS = {
    "build": cmd_build,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "update-kg": cmd_update_kg,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or the help
        return 0 if exc.code == 0 else 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="[%(levelname)s] %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KginfuseError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
