"""JSON and CSV codecs for pairs, loops and reports.

Complex scalars are stored as [re, im] pairs; loops record their glued
parameter domain explicitly.  Everything is plain text so fixtures diff
cleanly.  A file of the wrong form, or with a NaN or infinite number in a
matrix, raises ``ValueError`` naming the field at fault.

Pair and loop-pair records hold their matrices only: a tolerance belongs to
the check that reads a pair, so none is stored, and the ``tol`` key of an
older file is ignored, as ``dim`` is.
"""

from __future__ import annotations

import csv
import json
from typing import Tuple

import numpy as np

from .balanced import BalancedPair
from .loops import LoopPair, MatrixLoop, SplitSymbol, SymbolPair

PARAM_DOMAIN = "glued-0-pi/2"


def _encode_matrix(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _object(data, what: str, keys: Tuple[str, ...]) -> dict:
    """data, which must be a JSON object holding every key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} lacks {missing}")
    return data


def _decode_matrix(data, field: str, axes: int) -> np.ndarray:
    """A complex array with ``axes`` axes from nested [re, im] pairs."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != axes + 1 or arr.shape[-1] != 2:
        raise ValueError(f"field {field!r} must be an array of [re, im] "
                         f"pairs with {axes} axes")
    if not np.isfinite(arr).all():
        raise ValueError(f"field {field!r} holds a NaN or infinite number")
    return arr[..., 0] + 1j * arr[..., 1]


def pair_to_dict(pair: BalancedPair) -> dict:
    return {"dim": pair.dim, "a": _encode_matrix(pair.a),
            "b": _encode_matrix(pair.b)}


def pair_from_dict(data: dict) -> BalancedPair:
    data = _object(data, "pair file", ("a", "b"))
    a, b = _decode_matrix(data["a"], "a", 2), _decode_matrix(data["b"], "b", 2)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"fields 'a' and 'b' must be square matrices of one "
                         f"shape, got {a.shape} and {b.shape}")
    return BalancedPair(a, b)


def loop_to_dict(loop: MatrixLoop) -> dict:
    return {"grid": loop.grid, "dim": loop.dim, "param": PARAM_DOMAIN,
            "samples": _encode_matrix(loop.samples)}


def loop_from_dict(data: dict, field: str) -> MatrixLoop:
    data = _object(data, f"field {field!r}", ("samples",))
    if data.get("param", PARAM_DOMAIN) != PARAM_DOMAIN:
        raise ValueError(f"unsupported loop parameter domain {data.get('param')!r}")
    return MatrixLoop(_decode_matrix(data["samples"], f"{field}.samples", 3))


def loop_pair_to_dict(lp: LoopPair) -> dict:
    return {"sigma1": loop_to_dict(lp.sigma1), "sigma2": loop_to_dict(lp.sigma2)}


def loop_pair_from_dict(data: dict, field: str) -> LoopPair:
    data = _object(data, f"field {field!r}", ("sigma1", "sigma2"))
    return LoopPair(loop_from_dict(data["sigma1"], f"{field}.sigma1"),
                    loop_from_dict(data["sigma2"], f"{field}.sigma2"))


def symbol_pair_to_dict(sp: SymbolPair, split: SplitSymbol) -> dict:
    """A symbol pair with its splitting symbol, one loop per direction."""
    return {"plus": loop_pair_to_dict(sp.plus), "minus": loop_pair_to_dict(sp.minus),
            "split": {"plus": loop_to_dict(split[0]), "minus": loop_to_dict(split[1])}}


def symbol_pair_from_dict(data: dict) -> Tuple[SymbolPair, SplitSymbol]:
    data = _object(data, "symbol-pair file", ())
    missing = [key for key in ("plus", "minus", "split") if key not in data]
    if missing:
        raise ValueError(f"symbol-pair file lacks {missing}: it needs 'plus', "
                         "'minus' and 'split' (balk1 loop-pair writes one)")
    sp = SymbolPair(loop_pair_from_dict(data["plus"], "plus"),
                    loop_pair_from_dict(data["minus"], "minus"))
    split = _object(data["split"], "field 'split'", ("plus", "minus"))
    plus, minus = (loop_from_dict(split[key], f"split.{key}")
                   for key in ("plus", "minus"))
    for key, loop in (("plus", plus), ("minus", minus)):
        if loop.dim != sp.dim:
            raise ValueError(f"field 'split.{key}' holds {loop.dim}x{loop.dim} "
                             f"loops; the symbol pair has dimension {sp.dim}")
    return sp, (plus, minus)


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
