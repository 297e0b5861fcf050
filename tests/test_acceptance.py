"""Acceptance suite.

Each test prints one pass/fail line.  The heavy loop-turn sweep (mode counts
128 and 256 across the 5x5 family) runs once in a module fixture and several
criteria assert against its results.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from balk1.balanced import (BalancedPair, HomotopyPath, PATH_KINDS,
                            check_balanced, make_c, random_balanced_pair,
                            unitalization_pair, validate_path)
from balk1.loops import (default_gamma, rotating_diagonal_pair,
                         standard_split_symbol, standard_symbol_pair, turn)
from balk1.numkern import random_unitary
from balk1.opmodel import (TailCutoff, clip_to_contraction, kbalance_report,
                           quantize, split_blocks, splitting_projection,
                           verify_block_estimates, verify_split_blocks)
from balk1.relindex import (EngineValues, engine_values, rel_index,
                            verify_index_theorem)
from balk1.starpoly import default_suite, verify_identity_suite
from dense_reference import reference_engine

SWEEP_MODES = 128
SWEEP_GRID = 2048
DATA = Path(__file__).parent / "data"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


# -- shared sweep -----------------------------------------------------------------


@dataclass
class SweepData:
    reports: Dict[Tuple[int, int], object]
    antisymmetry: Dict[Tuple[int, int], Tuple[int, EngineValues]]
    choice_pairs: Dict[Tuple[int, int], Tuple[int, EngineValues]]
    seconds: float


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    split_sym = standard_split_symbol(SWEEP_GRID)
    base = standard_symbol_pair(0, 0, SWEEP_GRID)
    splits = {n: splitting_projection(base, n, explicit_symbol=split_sym)
              for n in (SWEEP_MODES, 2 * SWEEP_MODES)}
    started = time.perf_counter()
    reports, anti, choices = {}, {}, {}
    cut = TailCutoff(SWEEP_MODES // 2)
    for p in range(-2, 3):
        for q in range(-2, 3):
            sp = standard_symbol_pair(p, q, SWEEP_GRID)
            rep = verify_index_theorem(sp, SWEEP_MODES, splits=splits)
            reports[(p, q)] = rep
            # the report reads definition-B off definition-A's decomposition,
            # so choice independence needs its own evaluation with C = B|H1,
            # and antisymmetry one swapped evaluation
            d1, d2 = clip_to_contraction(*quantize(sp, SWEEP_MODES))
            split = splits[SWEEP_MODES]
            forward = rep.details["definition-A"]["svd"][SWEEP_MODES]
            choices[(p, q)] = (forward, rel_index(
                d1, d2, cut, "definition-B", split_blocks(d1, d2, split, cut)))
            anti[(p, q)] = (forward, rel_index(
                d2, d1, cut, "definition-A", split_blocks(d2, d1, split, cut)))
    return SweepData(reports, anti, choices, time.perf_counter() - started)


# -- criterion 1: symbolic certificates ---------------------------------------------


def test_criterion_1_symbolic_certificates():
    core_names = {"unitary:c*c", "unitary:cc*", "carry:bc-a", "commute:[b*b,c]",
                  "annihilate:(1-b*b)(c-1)", "annihilate:(c-1)(1-b*b)"}
    started = time.perf_counter()
    suite_report = verify_identity_suite(default_suite())
    elapsed = time.perf_counter() - started
    by_name = {r.name: r for r in suite_report.results}
    core_ok = all(by_name[n].ok and by_name[n].bound <= 8 for n in core_names)
    rel2_entries = [r for r in suite_report.results
                    if r.name.startswith("rel1-implies-rel2")]
    rel2_ok = len(rel2_entries) == 8 and all(
        r.ok and r.bound <= 8 for r in rel2_entries)
    blocks_ok = all(r.ok for r in suite_report.results
                    if r.name.startswith("double-"))
    report("criterion 1: symbolic certificate suite",
           suite_report.ok and core_ok and rel2_ok and blocks_ok
           and elapsed < 60.0,
           f"{len(suite_report.results)} identities certified in {elapsed:.1f}s")


# -- criterion 2: homotopy suites ---------------------------------------------------


def test_criterion_2_homotopy_suites():
    pairs = [random_balanced_pair(1 + seed % 4, seed) for seed in range(20)]
    sample = rotating_diagonal_pair(turn(1), turn(0), default_gamma, 256)
    pairs.append(sample.pair_at(113))
    worst = 0.0
    for pair in pairs:
        for kind in PATH_KINDS:
            path_report = validate_path(HomotopyPath(kind, pair),
                                        grid=101, tol=1e-9)
            worst = max(worst, path_report.max_residual)
    report("criterion 2: homotopy suites balanced along all four path kinds",
           worst <= 1e-9, f"21 pairs, 101 samples, max residual {worst:.2e}")


# -- criterion 3: canonical unitary of (u, 1) ----------------------------------------


def test_criterion_3_canonical_unitary_of_unitary():
    worst = 0.0
    for seed in range(20):
        dim = 1 + seed % 6
        u = random_unitary(dim, seed + 100)
        c = make_c(BalancedPair(u, np.eye(dim), tol=1e-12))
        worst = max(worst, float(np.abs(c - u).max()))
    report("criterion 3: c(u,1) = u to arithmetic precision",
           worst <= 1e-14, f"20 unitaries, max entry deviation {worst:.2e}")


# -- criterion 4: engine oracles ------------------------------------------------------


def test_criterion_4_engine_oracles(sweep):
    """The oracles run through the pipeline's one engine configuration:
    the shift e_j -> e_(j+1) from n modes into n + 1 and a unitary, weighted
    by all ones, and the square 300 x 300 shift weighted on its first 150
    modes, whose defects are read off sketched ranges.  Each oracle's
    index, ``below``, ``above`` and trace total match the dense reference."""
    oracles = {f"shift n={n}": (np.eye(n + 1, n, k=-1), np.ones(n),
                                np.ones(n + 1), -1) for n in (64, 128)}
    oracles["unitary"] = (random_unitary(32, 11), np.ones(32), np.ones(32), 0)
    window = (np.arange(300) < 150).astype(float)
    oracles["weighted square shift"] = (np.eye(300, k=-1), window, window, -1)
    failed = []
    for name, (f, w_dom, w_cod, expected) in oracles.items():
        ev = engine_values([f], [w_dom], [w_cod])
        index, below, above, total = reference_engine(f, w_dom, w_cod)
        if not (ev.svd == ev.fedosov == index == expected
                and abs(ev.below - below) <= 1e-12
                and abs(ev.above - above) <= 1e-9 * above
                and abs(abs(total - ev.fedosov) - ev.residue) <= 1e-9):
            failed.append(name)
    agree = all(
        rep.details[f]["svd"][n] == rep.details[f]["fedosov"][n]
        for rep in sweep.reports.values()
        for f in rep.details for n in (SWEEP_MODES, 2 * SWEEP_MODES))
    report("criterion 4: index engine oracles and agreement",
           not failed and agree,
           "shift = -1 at N in {64,128}, unitary = 0, weighted 300x300 "
           "square shift = -1, each as the dense reference; the counting "
           "and trace engines share no decomposition and agree on all "
           f"pipeline candidates; failed oracles {failed}")


# -- criterion 5: index theorem sweep -------------------------------------------------


def test_criterion_5_index_theorem_sweep(sweep):
    all_ok = True
    for (p, q), rep in sweep.reports.items():
        expected = q - p
        values = [rep.details[f][e][n] for f in rep.details
                  for e in ("svd", "fedosov")
                  for n in (SWEEP_MODES, 2 * SWEEP_MODES)]
        if not (rep.verdict and rep.topological == expected
                and all(v == expected for v in values)):
            all_ok = False
    report("criterion 5: analytic index equals winding index over the sweep",
           all_ok and sweep.seconds < 300.0,
           f"25 instances at N in {{128, 256}} in {sweep.seconds:.0f}s")


# -- criterion 6: choice independence and antisymmetry --------------------------------


def test_criterion_6_choice_independence_and_antisymmetry(sweep):
    choice_ok = all(b.svd == b.fedosov and a == b.svd
                    for a, b in sweep.choice_pairs.values())
    anti_ok = all(bwd.svd == bwd.fedosov and fwd == -bwd.svd
                  for fwd, bwd in sweep.antisymmetry.values())
    report("criterion 6: comparison-choice independence and antisymmetry",
           choice_ok and anti_ok,
           "A-restricted = B-restricted and ind(A,B) = -ind(B,A) on all 25")


# -- the sweep against its pinned values ------------------------------------------------


def test_sweep_matches_pinned_values(sweep):
    """The sweep's indices and verdicts, and its measured eps and k-balance
    residuals, against ``tests/data/index_sweep.json`` (written by
    ``scripts/index_sweep.py``): integers and verdicts exactly, residuals to
    1e-9."""
    pinned = json.loads((DATA / "index_sweep.json").read_text())
    mismatches = sorted(set(pinned) ^ {f"{p},{q}" for p, q in sweep.reports})
    for (p, q), rep in sweep.reports.items():
        record = pinned.get(f"{p},{q}", {})
        details = {f: {e: {int(n): v for n, v in by_n.items()}
                       for e, by_n in engines.items()}
                   for f, engines in record.get("details", {}).items()}
        if (rep.details, rep.topological, rep.verdict) != (
                details, record.get("topological"), record.get("verdict")):
            mismatches.append(f"{p},{q}")
        for name in ("measured_eps", "kbalance_worst"):
            for n in (SWEEP_MODES, 2 * SWEEP_MODES):
                key = f"{name}_N{n}"
                if not abs(rep.residuals[key] - record.get(key, np.inf)) <= 1e-9:
                    mismatches.append(f"{p},{q}:{key}")
    report("sweep matches its pinned indices, verdicts and residuals",
           not mismatches, f"{len(pinned)} pairs, mismatches {mismatches[:5]}")


# -- criterion 7: split decomposition and corner estimates ----------------------------


def test_criterion_7_split_decomposition():
    n = 256
    grid = 4096
    sp = standard_symbol_pair(1, 0, grid)
    split_sym = standard_split_symbol(grid)
    d1, d2 = clip_to_contraction(*quantize(sp, n))
    split = splitting_projection(sp, n, explicit_symbol=split_sym)
    cut = TailCutoff(n // 2)
    blocks = verify_split_blocks(d1, d2, split, cut, eps=0.1)
    estimates = verify_block_estimates(d1, d2, split, cut, eps=0.1)
    # bands (64, 192] and (128, 192]: the residuals must not grow as the
    # band moves away from the low modes
    low, high = (kbalance_report(d1, d2, TailCutoff(m)) for m in (n // 4, n // 2))
    shrink_ok = (low.populated and high.populated
                 and all(high.residuals[name] <= value + 0.02
                         for name, value in low.residuals.items()))
    report("criterion 7: split decomposition at eps = 0.1 with corner estimates",
           blocks.passed and estimates.passed and len(estimates.estimates) == 6
           and shrink_ok,
           f"max block {blocks.max_measured:.3f}, six corner estimates within "
           f"2eps/4eps, tail residuals non-increasing {low.cutoff}->"
           f"{high.cutoff}: worst {low.worst():.2e} -> {high.worst():.2e}")


# -- criterion 8: unitalization construction ------------------------------------------


def test_criterion_8_unitalization():
    worst = 0.0
    ok = True
    for seed in range(20):
        dim = 1 + seed % 5
        u = random_unitary(dim, seed + 300)
        for delta in (0.1, 0.2, 0.3):
            pair = unitalization_pair(u, delta, tol=1e-8)
            rep = check_balanced(pair.a, pair.b, 1e-8)
            ok = ok and rep.balanced
            worst = max(worst, rep.max_rel1)
    report("criterion 8: unitalization pairs balanced at 1e-8",
           ok and worst <= 1e-8,
           f"20 unitaries x 3 deltas, max residual {worst:.2e}")
