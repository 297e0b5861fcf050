"""Time and size the index pipeline when it quantizes its own split.

Runs ``verify_index_theorem`` on ``standard_symbol_pair(p, q)`` at the given
mode count N, with ``split_symbol=standard_split_symbol(grid)``, so each
mode count quantizes and rounds its split itself rather than reading shared
splits.  Prints one JSON record per pair: the measured split eps at N and
2N, the verdict, the wall seconds of the call and the process's peak
resident set so far in MB (``ru_maxrss``, which never falls, so run one pair
per process to size each pair alone).

    PYTHONPATH=src python scripts/split_symbol_probe.py --modes 64 --pairs 1:-1
    PYTHONPATH=src python scripts/split_symbol_probe.py --modes 512 \\
        --grid 4098 --pairs 1:-1,2:0

The grid defaults to 4 N + 2, the least that resolves the pipeline's 2N.
A pair list that starts with a minus sign is given as ``--pairs=-1:1``;
``--pairs -1:1`` reads as an unknown option.
"""

import argparse
import json
import resource
import time

from balk1.loops import standard_split_symbol, standard_symbol_pair
from balk1.relindex import verify_index_theorem


def parse_pairs(text: str):
    """'1:-1,2:0' -> [(1, -1), (2, 0)]."""
    return [tuple(int(x) for x in item.split(":")) for item in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modes", type=int, required=True)
    parser.add_argument("--pairs", type=parse_pairs, default=[(1, -1)],
                        help="p:q pairs, comma-separated (default 1:-1)")
    parser.add_argument("--grid", type=int, default=None,
                        help="loop grid (default 4 modes + 2)")
    args = parser.parse_args()
    grid = 4 * args.modes + 2 if args.grid is None else args.grid
    split_sym = standard_split_symbol(grid)
    for p, q in args.pairs:
        start = time.perf_counter()
        rep = verify_index_theorem(standard_symbol_pair(p, q, grid),
                                   args.modes, split_symbol=split_sym)
        seconds = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({
            "p": p, "q": q, "modes": args.modes, "grid": grid,
            "eps_N": rep.residuals[f"measured_eps_N{args.modes}"],
            "eps_2N": rep.residuals[f"measured_eps_N{2 * args.modes}"],
            "verdict": rep.verdict, "seconds": round(seconds, 3),
            "peak_mb": round(peak, 1)}), flush=True)


if __name__ == "__main__":
    main()
