"""Run the 5x5 loop-turn index sweep and write its pinned values.

Runs ``verify_index_theorem`` on ``standard_symbol_pair(p, q)`` for
p, q in -2..2 at N = 128 and 256 (grid 2048, one shared split from
``standard_split_symbol``), as the acceptance sweep does, and writes one
record per pair: the 16 ``details`` integers, the topological index, the
verdict and the residuals ``measured_eps_N*`` and ``kbalance_worst_N*``.

    PYTHONPATH=src python scripts/index_sweep.py [OUT.json]

Without OUT.json the records are printed.  ``tests/data/index_sweep.json``
was written by this script; ``tests/test_acceptance.py`` checks the sweep
against it.
"""

import json
import sys

from balk1.loops import standard_split_symbol, standard_symbol_pair
from balk1.opmodel import splitting_projection
from balk1.relindex import verify_index_theorem

MODES = 128
GRID = 2048
PINNED_RESIDUALS = ("measured_eps", "kbalance_worst")


def sweep_record(rep) -> dict:
    """The pinned values of one report; JSON writes the mode counts as
    string keys."""
    record = {"details": rep.details,
              "topological": rep.topological, "verdict": rep.verdict}
    for name in PINNED_RESIDUALS:
        for n in (MODES, 2 * MODES):
            key = f"{name}_N{n}"
            record[key] = rep.residuals[key]
    return record


def main() -> None:
    base = standard_symbol_pair(0, 0, GRID)
    split_sym = standard_split_symbol(GRID)
    splits = {n: splitting_projection(base, n, explicit_symbol=split_sym)
              for n in (MODES, 2 * MODES)}
    records = {}
    for p in range(-2, 3):
        for q in range(-2, 3):
            rep = verify_index_theorem(standard_symbol_pair(p, q, GRID), MODES,
                                       splits=splits)
            records[f"{p},{q}"] = sweep_record(rep)
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
