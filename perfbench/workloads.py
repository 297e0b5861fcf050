"""The benchmark's three workloads: certify, index and homotopy.

Each workload is a closed loop: one process runs one item at a time and
checks its verdict against a known answer before starting the next.  Work is
grouped into rounds of fixed composition; the seed and the round number
choose the inputs of a round, never how many items of each kind it holds, so
rounds of different seeds cost the same.

* ``certify``: entries of the bundled identity suite through
  ``verify_identity_suite`` (``ideal_member``, then the certificate replay).
  Pure-Python exact arithmetic, no numpy work.  A round is the bundled suite
  without two of its four bound-11 ``double-canonical:defect-*`` entries, so
  that one round fits a 30 s run; the seed permutes the order.
* ``index``: ``verify_index_theorem`` at N and 2N on draws from the 5x5
  rotating-diagonal family ``standard_symbol_pair(p, q, grid)``.  Dense
  LAPACK/BLAS work.  A round is five draws, one of them with p = q (its
  natural share of the family); the splitting projections are built once in
  set-up and shared, as in the acceptance fixture.
* ``homotopy``: small balanced pairs, round-tripped through their JSON dict
  form, checked with ``check_balanced`` and validated along all four path
  kinds, plus c(u, 1) = u and unitalization pairs.  About 10^5 tiny matrices
  per round, where Python call overhead dominates.

Workloads call balk1 through module attributes (``loops.standard_symbol_pair``
and so on), so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from spans import CERT_TERMS


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests shrink them."""

    modes: int = 128
    grid: int = 2048
    turns: Tuple[int, ...] = (-2, -1, 0, 1, 2)
    suite_limit: Optional[int] = None  # keep only the first entries
    pairs_per_dim: int = 4
    loop_pairs: int = 4
    unitaries: int = 4


FULL = Sizes()

# two of the four bound-11 entries; with them a round takes about 45 s
SUITE_SKIP = ("double-canonical:defect-left:22",
              "double-canonical:defect-right:22")


class Certify:
    name = "certify"
    item_stem = "item.certify"

    def __init__(self, sizes: Sizes = FULL, expect_certified: bool = True):
        self.sizes = sizes
        self.expect_certified = expect_certified

    def import_modules(self) -> None:
        from balk1.starpoly import suites
        self.suites = suites

    def setup(self) -> list:
        text = (Path(self.suites.__file__).parent.parent / "data"
                / "default_suite.txt").read_text()
        entries = [e for e in self.suites.parse_suite(text)
                   if e.name not in SUITE_SKIP]
        return entries[:self.sizes.suite_limit]

    def round_inputs(self, entries: list, rng: random.Random) -> list:
        order = list(entries)
        rng.shuffle(order)
        return order

    def label(self, entry) -> str:
        return entry.name

    def run_item(self, entries: list, entry) -> Tuple[bool, dict]:
        result = self.suites.verify_identity_suite([entry]).results[0]
        certified = result.found and result.replay_ok and result.grading_ok
        return (certified == self.expect_certified,
                {CERT_TERMS: result.n_terms})


class Index:
    name = "index"
    item_stem = "item.index"

    def __init__(self, sizes: Sizes = FULL,
                 expected_index: Callable[[int, int], int] = lambda p, q: q - p):
        self.sizes = sizes
        self.expected_index = expected_index

    def import_modules(self) -> None:
        import numpy as np
        from balk1 import loops, opmodel, relindex
        self.np, self.loops, self.opmodel, self.relindex = \
            np, loops, opmodel, relindex

    def setup(self) -> dict:
        loops, grid, modes = self.loops, self.sizes.grid, self.sizes.modes
        split_symbol = (loops.subbundle_projection_loop(grid),
                        loops.MatrixLoop.constant(self.np.zeros((2, 2)), grid))
        base = loops.standard_symbol_pair(0, 0, grid)
        return {n: self.opmodel.splitting_projection(
                    base, n, explicit_symbol=split_symbol)
                for n in (modes, 2 * modes)}

    def round_inputs(self, splits: dict, rng: random.Random) -> list:
        turns = self.sizes.turns
        diagonal = [(p, p) for p in turns]
        off = [(p, q) for p in turns for q in turns if p != q]
        draws = [rng.choice(diagonal)] + rng.sample(off, 4)
        rng.shuffle(draws)
        return draws

    def label(self, pq) -> str:
        return f"p={pq[0]},q={pq[1]}"

    def run_item(self, splits: dict, pq) -> Tuple[bool, dict]:
        p, q = pq
        modes = self.sizes.modes
        sp = self.loops.standard_symbol_pair(p, q, self.sizes.grid)
        report = self.relindex.verify_index_theorem(sp, modes, splits=splits)
        expected = self.expected_index(p, q)
        values = [report.details[f][e][n] for f in report.details
                  for e in ("svd", "fedosov") for n in (modes, 2 * modes)]
        ok = (report.verdict and report.topological == expected
              and len(values) == 16 and all(v == expected for v in values))
        return ok, {}


PATH_TOL = 1e-9
C_TOL = 1e-14
UNITAL_TOL = 1e-8
LOOP_GRID = 256
PATH_SAMPLES = 101


class Homotopy:
    name = "homotopy"
    item_stem = "item.homotopy"

    def __init__(self, sizes: Sizes = FULL,
                 c_of_unitary: Callable = lambda u: u):
        self.sizes = sizes
        self.c_of_unitary = c_of_unitary

    def import_modules(self) -> None:
        import numpy as np
        from balk1 import balanced, loops, numkern, serialize
        self.np, self.balanced, self.loops, self.numkern, self.serialize = \
            np, balanced, loops, numkern, serialize

    def setup(self) -> None:
        return None

    def round_inputs(self, state, rng: random.Random) -> list:
        s = self.sizes
        items: List[tuple] = []
        for dim in (1, 2, 3, 4):
            items += [("pair", dim, rng.randrange(2 ** 31))
                      for _ in range(s.pairs_per_dim)]
        items += [("loop", rng.choice(s.turns), rng.choice(s.turns),
                   rng.randrange(1, LOOP_GRID)) for _ in range(s.loop_pairs)]
        for k in range(s.unitaries):
            dim = 1 + k % 4
            items.append(("c", dim, rng.randrange(2 ** 31)))
            items.append(("unital", dim, rng.randrange(2 ** 31),
                          rng.choice((0.1, 0.2, 0.3))))
        rng.shuffle(items)
        return items

    def label(self, item) -> str:
        return ":".join(str(x) for x in item)

    def run_item(self, state, item) -> Tuple[bool, dict]:
        kind = item[0]
        if kind == "pair":
            return self._paths_ok(self.balanced.random_balanced_pair(*item[1:])), {}
        if kind == "loop":
            _, p, q, k = item
            lp = self.loops.rotating_diagonal_pair(
                self.loops.turn(p), self.loops.turn(q), self.loops.default_gamma,
                LOOP_GRID)
            return self._paths_ok(lp.pair_at(k)), {}
        u = self.numkern.random_unitary(item[1], item[2])
        if kind == "c":
            eye = self.np.eye(item[1])
            c = self.balanced.make_c(self.balanced.BalancedPair(u, eye, tol=1e-12))
            deviation = float(self.np.abs(c - self.c_of_unitary(u)).max())
            return deviation <= C_TOL, {}
        pair = self.balanced.unitalization_pair(u, item[3], tol=UNITAL_TOL)
        report = self.balanced.check_balanced(pair.a, pair.b, pair.tol)
        return report.balanced and report.max_rel1 <= UNITAL_TOL, {}

    def _paths_ok(self, pair) -> bool:
        """JSON dict round trip, the balance check, then all four paths."""
        balanced, np = self.balanced, self.np
        back = self.serialize.pair_from_dict(self.serialize.pair_to_dict(pair))
        if not (np.array_equal(back.a, pair.a) and np.array_equal(back.b, pair.b)):
            return False
        if not balanced.check_balanced(back.a, back.b, back.tol).balanced:
            return False
        for kind in balanced.PATH_KINDS:
            report = balanced.validate_path(balanced.HomotopyPath(kind, back),
                                            grid=PATH_SAMPLES, tol=PATH_TOL)
            if not (report.ok and report.max_residual <= PATH_TOL):
                return False
        return True


WORKLOADS = {"certify": Certify, "index": Index, "homotopy": Homotopy}
