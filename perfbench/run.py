"""Closed-loop benchmark of the kginfuse pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sparse-signal --seed 0 --seconds 56 --trace 0

One process, one operation at a time, no threads of its own, calling the
public functions the CLI verbs call. After one untimed ``build``, a cycle
is ``train`` in infused and in vanilla mode, each preceded by the
up-to-date ``build`` as the CLI does it and followed by a round of the
cheap operations: cold ``build``, up-to-date ``build``, ``evaluate`` on
the infused checkpoint, an absorbing ``update_kg`` from the post-training
state and the ``update_kg`` after it, which has nothing left to absorb.

The timings are scaled to a fixed machine speed: right before every timed
sample the benchmark also times a fixed pure-Python loop (``reference_s``),
and each median counts as ``median * REF_S / median reference`` over the
run. The host's speed drifts by about 30% over minutes, so the scaled
seconds compare across runs better than wall seconds; ``info.raw_medians``
keeps the unscaled medians.

``--trace 0`` reports the end-to-end metrics as medians over every sample.
It runs whole cycles, then the steps of one more for as long as the next
step fits in ``--seconds``. ``--trace 1`` alternates untraced and traced
cycles, whole ones only, reports the per-layer metrics from the traced
ones and the tracing overhead from the pair, and writes the spans to
``.bench_work/``. Every output check that fails counts
as a failed operation. The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

import layers
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Repetitions in one cycle, fixed per workload so that a cycle always does
# the same work: ``train`` per mode, and each other operation split between
# the cycle's two rounds (the first takes the odd one). They are set so
# that a 56-s run holds at least six samples of each operation.
REPS = {
    "sparse-signal": {"train": 2, "build": 6, "rebuild": 4, "eval": 4, "update": 2},
    "wide-graph": {"train": 2, "build": 2, "rebuild": 4, "eval": 2, "update": 3},
}
SETUPS = 5
# The reference: REF_REPS runs of a REF_LOOP-step pure-Python loop, about
# 0.05 s in all. REF_S is the nominal time of one run of the loop; on the
# 2-vCPU VM this was written on it took 3.5 to 6 ms.
REF_LOOP = 50_000
REF_REPS = 10
REF_S = 0.004
NOOP_REASON = "difference already absorbed"

END_TO_END = {
    "setup_s": "s", "build_s": "s", "rebuild_s": "s", "train_vanilla_s": "s",
    "train_infused_s": "s", "eval_docs_per_s": "docs/s", "update_kg_s": "s",
    "update_kg_noop_s": "s", "peak_rss_mb": "MB",
}

clock = time.perf_counter


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def tree_hashes(root: str) -> dict:
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = _sha256(path)
    return out


def timed_import_s() -> float:
    """Import time of the package in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import kginfuse.pipeline; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def other_threads_cpu_ticks() -> int:
    """CPU ticks used so far by this process's threads other than the main one."""
    total = 0
    try:
        tids = [t for t in os.listdir("/proc/self/task") if int(t) != os.getpid()]
        for tid in tids:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    except OSError:  # no procfs, or a thread ended while being read
        pass
    return total


def settle() -> None:
    """Wait until no other thread of this process uses the CPU.

    The BLAS pool keeps spinning for a while after a threaded call (the SVD
    in a build). On two vCPUs that are hyperthreads of one core, that spin
    slows the next operation by up to 1.8x. A CLI user never meets that
    spin, since each command is a process of its own, so samples start
    after it. Ticks are 10 ms, so idleness shows after two 20 ms polls. It
    gives up after 2 s.
    """
    deadline = clock() + 2.0
    last = other_threads_cpu_ticks()
    while clock() < deadline:
        time.sleep(0.02)
        now = other_threads_cpu_ticks()
        if now == last:
            return
        last = now


def reference_s() -> float:
    """Mean time of one run of a fixed pure-Python loop: the machine's
    current speed, which the run's timings are scaled by. The loop is the
    benchmark's own code, so no change to the program moves it."""
    start = clock()
    for _ in range(REF_REPS):
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
    return (clock() - start) / REF_REPS


def timed_with_reference(refs: list, fn):
    """Time the reference into ``refs``, then ``fn``; return (wall, result)."""
    refs.append(reference_s())
    start = clock()
    result = fn()
    return clock() - start, result


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "reference_s": reference_s(),
    }


class Bench:
    """One benchmark run: the cycles, their samples, checks and trace.

    The main output directory holds the build and both checkpoints. Cold
    builds go to a second directory, and each absorbing update starts from
    a copy of the main directory taken after infused training, so every
    cheap operation can run between the two training runs of a cycle and
    its samples spread over the whole run.
    """

    def __init__(self, cfg, reps: dict, tracer, eval_docs: int):
        self.cfg = cfg
        self.cold_cfg = replace(cfg, out_dir=cfg.out_dir + ".cold")
        self.update_cfg = replace(cfg, out_dir=cfg.out_dir + ".update")
        self.snapshot = cfg.out_dir + ".snapshot"
        self.reps = reps
        self.tracer = tracer
        self.eval_docs = eval_docs
        self.samples = defaultdict(list)      # (traced, op) -> wall seconds
        self.refs = defaultdict(list)         # traced -> reference_s before each sample
        self.attempted = 0
        self.failures: list[str] = []
        self.ckpt_sha: dict = {}
        self.absorbed = None
        self.report = None
        self.cycle = 0
        self.traced_cycles = 0

    @property
    def infused_ckpt(self) -> str:
        return os.path.join(self.cfg.out_dir, "model_infused.kicp")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"cycle {self.cycle}: {what}")

    def timed(self, op: str, traced: bool, fn):
        self.attempted += 1
        self.tracer.op = f"{self.cycle}/{op}/{len(self.samples[(traced, op)])}"
        gc.collect()  # every sample starts from a collected heap
        settle()
        if traced:
            def fn_traced(fn=fn):
                with self.tracer.span("op." + op):
                    return fn()
            wall, result = timed_with_reference(self.refs[True], fn_traced)
        else:
            wall, result = timed_with_reference(self.refs[False], fn)
        self.samples[(traced, op)].append(wall)
        return result

    def build(self, cfg, traced: bool) -> None:
        from kginfuse import pipeline

        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        art = self.timed("build", traced, lambda: pipeline.build(cfg))
        self.check(not art.up_to_date, "cold build reported up to date")

    def rebuild(self, traced: bool):
        from kginfuse import pipeline

        before = tree_hashes(self.cfg.out_dir)
        art = self.timed("rebuild", traced, lambda: pipeline.build(self.cfg))
        self.check(art.up_to_date, "rebuild did not report up to date")
        self.check(tree_hashes(self.cfg.out_dir) == before, "rebuild changed an artifact")
        return art

    def train(self, mode: str, traced: bool) -> None:
        """The CLI's train, repeated: the up-to-date build, then training."""
        from kginfuse import pipeline

        mode_cfg = replace(self.cfg, mode=mode)
        for _ in range(self.reps["train"]):
            art = self.rebuild(traced)
            result = self.timed(f"train_{mode}", traced,
                                lambda: pipeline.train(mode_cfg, art=art))
            sha = _sha256(result.checkpoint_path)
            self.check(self.ckpt_sha.setdefault(mode, sha) == sha,
                       f"{mode} checkpoint sha256 differs between samples")

    def cheap_round(self, traced: bool, first: bool) -> None:
        from kginfuse import pipeline

        reps = {op: (n + 1) // 2 if first else n // 2 for op, n in self.reps.items()
                if op != "train"}
        for _ in range(reps["build"]):
            self.build(self.cold_cfg, traced)
        for _ in range(reps["rebuild"]):
            self.rebuild(traced)
        for _ in range(reps["eval"]):
            report = self.timed("eval", traced,
                                lambda: pipeline.evaluate(self.cfg, self.infused_ckpt))
            if self.report is None:
                self.report = report
            self.check(np.array_equal(report.confusion, self.report.confusion),
                       "evaluation differs between samples")
        cfg = self.update_cfg
        ckpt = os.path.join(cfg.out_dir, "model_infused.kicp")
        for _ in range(reps["update"]):
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
            shutil.copytree(self.snapshot, cfg.out_dir)
            out = self.timed("update", traced, lambda: pipeline.update_kg(cfg, ckpt))
            got = (out.reason, out.new_triples, out.new_concepts)
            if self.absorbed is None:
                self.absorbed = got
            self.check(out.reason == "updated" and got == self.absorbed,
                       f"absorbing update gave {got}, expected {self.absorbed}")
            out = self.timed("noop", traced, lambda: pipeline.update_kg(cfg, ckpt))
            self.check(out.reason == NOOP_REASON, f"noop update gave {out.reason!r}")

    def train_infused(self, traced: bool) -> None:
        self.train("infused", traced)
        shutil.rmtree(self.snapshot, ignore_errors=True)
        shutil.copytree(self.cfg.out_dir, self.snapshot)

    def steps(self, traced: bool) -> list:
        """The steps of one cycle, in order."""
        return [
            lambda: self.train_infused(traced),
            lambda: self.cheap_round(traced, first=True),
            lambda: self.train("vanilla", traced),
            lambda: self.cheap_round(traced, first=False),
        ]

    def run(self, seconds: float, trace: bool) -> None:
        """Cycles until the next step, or the next cycle when tracing, would
        overrun ``seconds``. Every step of the first cycle runs (two cycles
        when tracing, one of each kind). A step is expected to take as long
        as it did in the cycle before."""
        from kginfuse import pipeline

        shutil.rmtree(self.cfg.out_dir, ignore_errors=True)
        pipeline.build(self.cfg)
        begin = clock()
        step_walls: dict = {}
        cycle_walls = []
        needed = 2 if trace else 1
        while True:
            traced = trace and self.cycle % 2 == 1
            if self.cycle >= needed and trace \
                    and clock() - begin + max(cycle_walls[-2:]) > seconds:
                return
            if traced:
                layers.install(self.tracer, self.eval_docs)
            start = clock()
            try:
                for i, step in enumerate(self.steps(traced)):
                    if (not trace and self.cycle >= needed
                            and clock() - begin + step_walls[i] > seconds):
                        return
                    step_start = clock()
                    step()
                    step_walls[i] = clock() - step_start
            finally:
                self.tracer.unpatch()
            cycle_walls.append(clock() - start)
            self.traced_cycles += traced
            self.cycle += 1

    def check_predictions(self) -> None:
        """Every probability is finite and sums to 1, and the argmax labels
        reproduce the evaluation's confusion matrix."""
        self.attempted += 1
        from kginfuse.datasets import read_labeled_tsv, token_sequence
        from kginfuse.pipeline import load_build, load_trained

        art = load_build(self.cfg)
        ckpt = load_trained(self.infused_ckpt)
        confusion = np.zeros_like(self.report.confusion)
        bad = 0
        for label, text in read_labeled_tsv(self.cfg.eval_dataset_path):
            probs = ckpt.predict_proba(token_sequence(art.models, text))
            if not (np.all(np.isfinite(probs)) and abs(float(probs.sum()) - 1.0) < 1e-9):
                bad += 1
            confusion[ckpt.labels.index(label), int(np.argmax(probs))] += 1
        self.check(bad == 0, f"{bad} predictions are not finite probabilities summing to 1")
        self.check(np.array_equal(confusion, self.report.confusion),
                   "predicted labels disagree with the evaluation report")

    def quality(self) -> dict:
        from kginfuse import pipeline

        vanilla = pipeline.evaluate(replace(self.cfg, mode="vanilla"),
                                    os.path.join(self.cfg.out_dir, "model_vanilla.kicp"),
                                    write_reports=False)
        pos = self.report.positive_label
        return {"f1_infused": self.report.f1[pos],
                "recall_infused": self.report.recall[pos],
                "recall_vanilla": vanilla.recall[pos]}


def end_to_end(bench: Bench, setup: list, scale: float) -> dict:
    """The end-to-end metrics; timings are medians scaled by ``scale``."""
    def med(op):
        return statistics.median(bench.samples[(False, op)]) * scale

    values = {
        "setup_s": statistics.median(setup) * scale,
        "build_s": med("build"),
        "rebuild_s": med("rebuild"),
        "train_vanilla_s": med("train_vanilla"),
        "train_infused_s": med("train_infused"),
        "eval_docs_per_s": bench.eval_docs / med("eval"),
        "update_kg_s": med("update"),
        "update_kg_noop_s": med("noop"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kginfuse", "__init__.py")):
        print(f"error: no program source at {SRC}/kginfuse; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in REPS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(REPS), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kginfuse
    if os.path.dirname(os.path.abspath(kginfuse.__file__)) != os.path.join(SRC, "kginfuse"):
        print(f"error: kginfuse imported from {kginfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from kginfuse.config import parse_config
    from kginfuse.datasets import read_labeled_tsv

    from workloads import generate, input_shape

    env = environment()
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        timed_import_s()  # warm the bytecode cache; the timed imports follow
        setup, setup_refs = [], []
        for k in range(SETUPS):
            project = os.path.join(work, f"inputs{k}")
            wall, config_path = timed_with_reference(
                setup_refs, lambda: generate(args.workload, project, args.seed))
            setup.append(wall + timed_import_s())
        cfg = parse_config(config_path)
        shape = input_shape(cfg)
        eval_docs = len(read_labeled_tsv(cfg.eval_dataset_path))

        tracer = Tracer()
        bench = Bench(cfg, REPS[args.workload], tracer, eval_docs)
        bench.refs[False].extend(setup_refs)
        bench.run(args.seconds, bool(args.trace))
        bench.check_predictions()
        quality = bench.quality()

        refs = bench.refs[False]
        scale = REF_S / statistics.median(refs)
        info = {"workload": args.workload, "seed": args.seed, "cycles": bench.cycle,
                "samples": {f"{op}{'.traced' if traced else ''}": values
                            for (traced, op), values in bench.samples.items()},
                "shape": shape, "quality": quality, "env": env,
                "raw_medians": {f"{op}{'.traced' if traced else ''}": statistics.median(v)
                                for (traced, op), v in bench.samples.items()},
                "reference": {"median_s": statistics.median(refs),
                              "quartiles_s": statistics.quantiles(refs, n=4),
                              "count": len(refs), "scale": scale},
                "failures": bench.failures}
        if args.trace:
            per_layer, breakdown = layers.metrics(bench, quality)
            info["breakdown"] = breakdown
            info["stress"] = layers.stress(breakdown)
            info["shape"]["embedding.no_ancestor_share"] = \
                per_layer["embedding.no_ancestor_share"]["value"]
            info["shape"]["pipeline.misclassified_share"] = \
                per_layer["pipeline.misclassified_share"]["value"]
            trace_path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.jsonl")
            tracer.dump(trace_path)
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
            metrics = per_layer
        else:
            metrics = end_to_end(bench, setup, scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
