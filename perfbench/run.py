"""Benchmark for balk1: three closed-loop workloads with checked verdicts.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

``--trace 0`` prints the end-to-end metrics: set-up time, the median round
time, the median item time and the peak resident memory.  ``--trace 1``
prints the per-layer metrics instead: it runs half of its time untraced and
half with the tracer installed, and reports the ratio of the two median
round times as ``trace.overhead``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; earlier
lines give the same figures as a table, the tail latency, the failure share
and what the run ran on.  A full record goes to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
END_TO_END = {"setup_s": "s", "run_s": "s", "item_p50_s": "s",
              "peak_rss_mb": "MB"}
REPORTED_FAILURES = 3

sys.path.insert(0, str(ROOT / "perfbench"))
from spans import (CERT_TERMS, OVERHEAD, Tracer, coverage,  # noqa: E402
                   per_layer_units, per_layer_values, phase_of, summarize)
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Items:
    """Verdicts and timings of every item a phase ran."""

    seconds: List[float] = field(default_factory=list)
    failed: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, elapsed: float, ok: bool, counts: dict) -> None:
        self.seconds.append(elapsed)
        if not ok:
            self.failed += 1
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value


def tail(seconds: List[float]):
    """(percentile, value): the highest percentile of the ladder with at
    least ten items beyond it, by nearest rank; None when the run is short."""
    ordered = sorted(seconds)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def run_rounds(workload, state, seed: int, budget: float, first_round: int,
               items: Items, tracer=None) -> List[float]:
    """Run whole rounds, one item at a time, while another round fits the
    budget; at least one.  Returns the wall time of each round."""
    round_seconds: List[float] = []
    started = time.perf_counter()
    number = first_round
    while True:
        rng = random.Random(f"{workload.name}:{seed}:{number}")
        inputs = workload.round_inputs(state, rng)
        round_start = time.perf_counter()
        for i, inp in enumerate(inputs):
            item_start = time.perf_counter()
            try:
                if tracer is None:
                    ok, counts = workload.run_item(state, inp)
                else:
                    ok, counts = tracer.run(workload.item_stem, f"r{number}.{i}",
                                            workload.label(inp),
                                            workload.run_item, state, inp)
            except Exception:
                ok, counts = False, {}
                if items.failed < REPORTED_FAILURES:
                    print(f"item {workload.label(inp)} raised:\n"
                          f"{traceback.format_exc()}", file=sys.stderr)
            items.add(time.perf_counter() - item_start, ok, counts)
        round_seconds.append(time.perf_counter() - round_start)
        number += 1
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(round_seconds) > budget:
            return round_seconds


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload; see the module docstring."""
    started = time.perf_counter()
    workload.import_modules()
    import_seconds = time.perf_counter() - started

    tracer = Tracer() if trace else None
    setup_seconds = []
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        if tracer is None:
            state = workload.setup()
        else:
            tracer.install()
            try:
                state = tracer.run(f"setup.{workload.name}", f"setup{r}", "",
                                   workload.setup)
            finally:
                tracer.uninstall()
        setup_seconds.append(time.perf_counter() - start)

    plain = Items()
    budget = seconds / 2 if trace else seconds
    plain_rounds = run_rounds(workload, state, seed, budget, 0, plain)
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "import_s": import_seconds,
              "setup_runs_s": setup_seconds}
    if tracer is None:
        result["units"] = END_TO_END
        found = tail(plain.seconds)
        result.update(
            attempted=len(plain.seconds), failed=plain.failed,
            rounds=len(plain_rounds), round_s=plain_rounds,
            metrics={
                "setup_s": import_seconds + statistics.median(setup_seconds),
                "run_s": statistics.median(plain_rounds),
                "item_p50_s": statistics.median(plain.seconds),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            item_tail=None if found is None else
            {"percentile": found[0], "value_s": found[1],
             "samples": len(plain.seconds)})
        return result

    traced = Items()
    tracer.install()
    try:
        traced_rounds = run_rounds(workload, state, seed, seconds / 2,
                                   len(plain_rounds), traced, tracer)
    finally:
        tracer.uninstall()
    modes = workload.sizes.modes
    units = per_layer_units(modes)
    metrics = per_layer_values(tracer.spans, modes, SETUP_REPEATS,
                               len(traced_rounds))
    metrics[CERT_TERMS] = traced.counters.get(CERT_TERMS, 0) / len(traced_rounds)
    metrics[OVERHEAD] = (statistics.median(traced_rounds)
                         / statistics.median(plain_rounds))
    result.update(
        attempted=len(plain.seconds) + len(traced.seconds),
        failed=plain.failed + traced.failed,
        rounds=len(plain_rounds) + len(traced_rounds),
        round_s=plain_rounds, traced_round_s=traced_rounds,
        units=units,
        metrics={k: int(v) if units[k] in ("count", "B") and float(v).is_integer()
                 else v for k, v in metrics.items()},
        span_coverage=coverage(tracer.spans, workload.item_stem),
        tracer=tracer)
    if workload.name == "index":
        result["stage_order"] = stage_order(metrics, modes)
    return result


def stage_order(metrics: dict, modes: int) -> dict:
    """Per-round stage seconds over both mode counts, and whether they keep
    the order of the roadmap baseline: verify_split_blocks > engine_values >
    clip_to_contraction ~ kbalance_report (within a factor of two)."""
    def both(name: str) -> float:
        return sum(metrics[f"{name}_s.N{n}"] for n in (modes, 2 * modes))

    seconds = {name: both(name) for name in (
        "opmodel.verify_split_blocks", "relindex.engine_values",
        "opmodel.clip_to_contraction", "opmodel.kbalance_report")}
    vsb, ev, clip, kb = seconds.values()
    holds = vsb > ev > max(clip, kb) > 0 and 0.5 <= clip / kb <= 2.0
    return {"seconds": seconds, "holds": holds}


def environment(result: dict) -> dict:
    """What the run ran on.  Recorded only; the benchmark sets none of it."""
    import numpy  # after measuring: certify itself never imports numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": result["seed"],
        "items": result["attempted"],
        "rounds": result["rounds"],
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def write_record(result: dict) -> Path:
    """The full record, plus spans and the per-layer summary when traced."""
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(str(OUT / f"{stem}.spans.jsonl.gz"))
        phases = summarize(tracer.spans, phase_of)
        summary = {phase: {stem_ + suffix: vars(totals)
                           for (stem_, suffix), totals in sorted(layers.items())}
                   for phase, layers in phases.items()}
        (OUT / f"{stem}.layers.json").write_text(json.dumps(summary, indent=1))
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def print_table(result: dict) -> None:
    name, units = result["workload"], result["units"]
    for key, value in result["metrics"].items():
        print(f"{name:9s} {key:48s} {value:>14.6g} {units[key]}")
    attempted = result["attempted"]
    print(f"{name:9s} {'fail_frac':48s} {result['failed'] / attempted:>14.6g} "
          f"({result['failed']} of {attempted} items, {result['rounds']} rounds)")
    if not result["trace"]:
        print(f"{name:9s} {'item_p50_s samples':48s} {attempted:>14d} count")
        found = result["item_tail"]
        if found is None:
            print(f"{name:9s} {'item_tail_s':48s} {'n/a':>14s} "
                  f"(fewer than {TAIL_BEYOND + 1} items)")
        else:
            print(f"{name:9s} {'item_tail_s':48s} {found['value_s']:>14.6g} s "
                  f"(p{found['percentile']:g} of {found['samples']} items)")
    else:
        print(f"{name:9s} {'span coverage of item time':48s} "
              f"{result['span_coverage']:>14.6g} ratio")
        if "stage_order" in result:
            print(f"{name:9s} {'stage order as in the roadmap baseline':48s} "
                  f"{str(result['stage_order']['holds']):>14s}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in its own process."""
    status = 0
    rows = []
    for name in WORKLOADS:
        records = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            records[trace] = None
            if proc.returncode == 0:
                path = OUT / f"{name}-seed{seed}-trace{trace}.json"
                records[trace] = json.loads(path.read_text())
            if records[trace] is None or records[trace]["failed"]:
                status = 1
        rows.append((name, records))
    print()
    for name, records in rows:
        plain, traced = records[0], records[1]
        if plain is None or traced is None:
            print(f"{name:9s} FAILED to run")
            continue
        m = plain["metrics"]
        found = plain["item_tail"]
        tail_text = ("n/a" if found is None else
                     f"{found['value_s']:.4g} s (p{found['percentile']:g})")
        print(f"{name:9s} setup_s {m['setup_s']:.4g} s | run_s {m['run_s']:.4g} s"
              f" | item_p50_s {m['item_p50_s']:.4g} s (n={plain['attempted']})"
              f" | item_tail_s {tail_text} | peak_rss_mb {m['peak_rss_mb']:.4g} MB"
              f" | fail_frac {plain['failed'] / plain['attempted']:.4g}"
              f" | tracing overhead {traced['metrics'][OVERHEAD]:.4g}x")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "balk1" / "__init__.py").is_file():
        print(f"error: no balk1 sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import balk1
    if Path(balk1.__file__).resolve().parent != (src / "balk1").resolve():
        print(f"error: balk1 was imported from {balk1.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace))
    result["environment"] = environment(result)
    record = write_record(result)
    print_table(result)
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": result["units"][k]}
                                  for k, v in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
