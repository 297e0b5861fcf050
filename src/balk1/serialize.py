"""JSON and CSV codecs for pairs, loops and reports.

Complex scalars are stored as [re, im] pairs; loops record their glued
parameter domain explicitly.  Everything is plain text so fixtures diff
cleanly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import Tuple

import numpy as np

from .balanced import BalancedPair, BalanceReport
from .loops import LoopPair, MatrixLoop, SplitSymbol, SymbolPair
from .relindex import IndexReport

PARAM_DOMAIN = "glued-0-pi/2"


def _encode_matrix(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _decode_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def pair_to_dict(pair: BalancedPair) -> dict:
    return {"dim": pair.dim, "a": _encode_matrix(pair.a),
            "b": _encode_matrix(pair.b), "tol": pair.tol}


def pair_from_dict(data: dict) -> BalancedPair:
    a, b = _decode_matrix(data["a"]), _decode_matrix(data["b"])
    return BalancedPair(a, b, float(data.get("tol", 1e-10)))


def loop_to_dict(loop: MatrixLoop) -> dict:
    return {"grid": loop.grid, "dim": loop.dim, "param": PARAM_DOMAIN,
            "samples": _encode_matrix(loop.samples)}


def loop_from_dict(data: dict) -> MatrixLoop:
    if data.get("param", PARAM_DOMAIN) != PARAM_DOMAIN:
        raise ValueError(f"unsupported loop parameter domain {data.get('param')!r}")
    return MatrixLoop(_decode_matrix(data["samples"]))


def loop_pair_to_dict(lp: LoopPair) -> dict:
    return {"sigma1": loop_to_dict(lp.sigma1), "sigma2": loop_to_dict(lp.sigma2),
            "tol": lp.tol}


def loop_pair_from_dict(data: dict) -> LoopPair:
    return LoopPair(loop_from_dict(data["sigma1"]), loop_from_dict(data["sigma2"]),
                    float(data.get("tol", 1e-10)))


def symbol_pair_to_dict(sp: SymbolPair, split: SplitSymbol) -> dict:
    """A symbol pair with its splitting symbol, one loop per direction."""
    return {"plus": loop_pair_to_dict(sp.plus), "minus": loop_pair_to_dict(sp.minus),
            "split": {"plus": loop_to_dict(split[0]), "minus": loop_to_dict(split[1])}}


def symbol_pair_from_dict(data: dict) -> Tuple[SymbolPair, SplitSymbol]:
    missing = [key for key in ("plus", "minus", "split") if key not in data]
    if missing:
        raise ValueError(f"symbol-pair file lacks {missing}: it needs 'plus', "
                         "'minus' and 'split' (balk1 loop-pair writes one)")
    sp = SymbolPair(loop_pair_from_dict(data["plus"]),
                    loop_pair_from_dict(data["minus"]))
    split = data["split"]
    return sp, (loop_from_dict(split["plus"]), loop_from_dict(split["minus"]))


def balance_report_to_dict(rep: BalanceReport) -> dict:
    return asdict(rep)


def index_report_to_dict(rep: IndexReport) -> dict:
    return {
        "analytic_svd": rep.analytic_svd,
        "analytic_fedosov": rep.analytic_fedosov,
        "topological": rep.topological,
        "verdict": rep.verdict,
        "residuals": {k: float(v) for k, v in rep.residuals.items()},
        "details": {f: {e: {str(n): v for n, v in series.items()}
                        for e, series in engines.items()}
                    for f, engines in rep.details.items()},
    }


def dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_sweep_csv(rows, path: str) -> None:
    """Rows of (p, q, analytic, topological, verdict, residue)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "q", "analytic", "topological", "verdict",
                         "max_fedosov_residue"])
        for row in rows:
            writer.writerow(row)
