"""Command line entry point.

Exit codes: 0 on pass, 1 on verification failure, 2 on usage or IO errors.
Sweeps run their instances one after another; numpy's BLAS already spreads
each instance over the available cores.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import balanced, loops, serialize
from .errors import Balk1Error, ParseError, PipelineStageError
from .relindex import verify_index_theorem
from .starpoly import suites

PASS, FAIL, USAGE = 0, 1, 2


def _write_or_print(payload: dict, out: str | None) -> None:
    if out:
        serialize.dump_json(payload, out)
    else:
        click.echo(json.dumps(payload, indent=2))


@click.group()
def main():
    """Balanced-pair toolkit: identity certificates, loop pairs and indices."""


@main.command("verify-identities")
@click.argument("suite_path", required=False, type=click.Path())
@click.option("--out", type=click.Path(), help="Write the JSON report here.")
def cmd_verify_identities(suite_path, out):
    """Certify an identity suite (the bundled default when no path given)."""
    try:
        if suite_path is None:
            entries = suites.default_suite()
        else:
            with open(suite_path) as fh:
                entries = suites.parse_suite(fh.read())
    except (OSError, ParseError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE)
    report = suites.verify_identity_suite(entries)
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json())
    for result in report.results:
        status = "certified" if result.ok else "NOT CERTIFIED"
        click.echo(f"{result.name}: {status} (bound {result.bound}, "
                   f"{result.seconds:.2f}s)")
    sys.exit(PASS if report.ok else FAIL)


@main.command("check-pair")
@click.argument("pair_path", type=click.Path())
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path())
def cmd_check_pair(pair_path, tol, out):
    """Evaluate the relation residuals of a stored matrix pair."""
    try:
        pair = serialize.pair_from_dict(serialize.load_json(pair_path))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE)
    report = balanced.check_balanced(pair.a, pair.b, tol)
    _write_or_print(serialize.balance_report_to_dict(report), out)
    sys.exit(PASS if report.balanced else FAIL)


@main.command("homotopy")
@click.argument("kind", type=click.Choice(balanced.PATH_KINDS))
@click.argument("pair_path", type=click.Path())
@click.option("--grid", type=int, default=101, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path())
def cmd_homotopy(kind, pair_path, grid, tol, out):
    """Validate a homotopy path built on a stored pair."""
    try:
        pair = serialize.pair_from_dict(serialize.load_json(pair_path))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE)
    path = balanced.HomotopyPath(kind, pair)
    report = balanced.validate_path(path, grid=grid, tol=tol)
    payload = {"kind": report.kind, "grid": report.grid,
               "max_residual": report.max_residual, "worst_t": report.worst_t,
               "ok": report.ok}
    _write_or_print(payload, out)
    sys.exit(PASS if report.ok else FAIL)


@main.command("loop-pair")
@click.option("--p", "p", type=int, default=1, show_default=True,
              help="Loop turns of the first unimodular entry.")
@click.option("--q", "q", type=int, default=0, show_default=True,
              help="Loop turns of the second unimodular entry.")
@click.option("--grid", type=int, default=256, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_loop_pair(p, q, grid, tol, out):
    """Build the rotating-diagonal balanced loop pair and store it."""
    try:
        lp = loops.rotating_diagonal_pair(loops.turn(p), loops.turn(q),
                                          loops.default_gamma, grid, tol)
    except Balk1Error as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE)
    serialize.dump_json(serialize.loop_pair_to_dict(lp), out)
    click.echo(f"wrote loop pair (p={p}, q={q}, grid={grid}) to {out}")
    sys.exit(PASS)


@main.command("make-pair")
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--delta", type=float, default=None,
              help="Build the unitalization pair of a random unitary with "
                   "this arc width instead of a random balanced pair.")
@click.option("--out", type=click.Path(), required=True)
def cmd_make_pair(dim, seed, delta, out):
    """Generate a balanced pair (random split form, or a unitalization)."""
    try:
        if delta is None:
            pair = balanced.random_balanced_pair(dim, seed)
        else:
            from .numkern import random_unitary
            pair = balanced.unitalization_pair(random_unitary(dim, seed), delta)
    except (Balk1Error, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE)
    serialize.dump_json(serialize.pair_to_dict(pair), out)
    click.echo(f"wrote pair (dim={dim}, seed={seed}) to {out}")
    sys.exit(PASS)


def _index_one(p, q, grid, modes, splits, split_sym, tail_cutoff):
    sp = loops.standard_symbol_pair(p, q, grid)
    report = verify_index_theorem(sp, modes, split_symbol=split_sym,
                                  splits=splits, tail_cutoff=tail_cutoff)
    residue = max((v for k, v in report.residuals.items() if "residue" in k),
                  default=0.0)
    return (p, q, report.analytic_svd, report.topological,
            report.verdict, f"{residue:.2e}")


@main.command("index")
@click.argument("symbolpair_path", required=False, type=click.Path())
@click.option("--modes", type=int, default=128, show_default=True)
@click.option("--grid", type=int, default=None,
              help="Loop grid for sweep instances (default 16*modes).")
@click.option("--sweep", type=str, default=None, metavar="P0:P1,Q0:Q1",
              help="Run the loop-turn family over inclusive integer ranges.")
@click.option("--tail-cutoff", type=int, default=None,
              help="Tail cutoff M at the base mode count (default modes/2).")
@click.option("--out", type=click.Path())
def cmd_index(symbolpair_path, modes, grid, sweep, tail_cutoff, out):
    """Verify analytic = topological index for a stored symbol pair, or for
    a sweep of rotating-diagonal instances."""
    if (symbolpair_path is None) == (sweep is None):
        click.echo("error: provide either a symbol-pair file or --sweep",
                   err=True)
        sys.exit(USAGE)
    try:
        if sweep is not None:
            rows = _run_sweep(sweep, modes, grid, tail_cutoff)
            if out:
                serialize.write_sweep_csv(rows, out)
            for row in rows:
                click.echo(
                    f"p={row[0]:+d} q={row[1]:+d}: analytic={row[2]:+d} "
                    f"topological={row[3]:+d} pass={row[4]}")
            sys.exit(PASS if all(r[4] for r in rows) else FAIL)
        sp = serialize.symbol_pair_from_dict(
            serialize.load_json(symbolpair_path))
        report = verify_index_theorem(sp, modes, tail_cutoff=tail_cutoff)
        _write_or_print(serialize.index_report_to_dict(report), out)
        sys.exit(PASS if report.verdict else FAIL)
    except PipelineStageError as exc:
        click.echo(f"pipeline failure at stage '{exc.stage}': {exc.cause}",
                   err=True)
        sys.exit(FAIL)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE)


def _run_sweep(sweep: str, modes: int, grid: int | None,
               tail_cutoff: int | None = None):
    from .opmodel import splitting_projection

    try:
        p_part, q_part = sweep.split(",")
        p0, p1 = (int(x) for x in p_part.split(":"))
        q0, q1 = (int(x) for x in q_part.split(":"))
    except ValueError:
        raise ValueError(f"cannot parse sweep spec {sweep!r}; "
                         "expected P0:P1,Q0:Q1") from None
    grid = 16 * modes if grid is None else grid
    split_sym = (loops.subbundle_projection_loop(grid),
                 loops.MatrixLoop.constant(np.zeros((2, 2)), grid))
    base = loops.standard_symbol_pair(0, 0, grid)
    splits = {n: splitting_projection(base, n, explicit_symbol=split_sym)
              for n in (modes, 2 * modes)}
    return [_index_one(p, q, grid, modes, splits, split_sym, tail_cutoff)
            for p in range(p0, p1 + 1) for q in range(q0, q1 + 1)]


if __name__ == "__main__":
    main()
