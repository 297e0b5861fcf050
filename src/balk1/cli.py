"""Command line entry point.

Exit codes: 0 on pass, 1 on verification failure, 2 on usage or IO errors.
``_Main.invoke`` enforces them for every command: a command exits with its
verdict, and a failure it raises reaches that one handler.
Sweeps run their instances one after another; numpy's BLAS already spreads
each instance over the available cores.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import click

from . import balanced, loops, serialize
from .errors import PipelineStageError
from .relindex import verify_index_theorem

PASS, FAIL, USAGE = 0, 1, 2


def _write_or_print(payload: dict, out: str | None) -> None:
    if out:
        serialize.dump_json(payload, out)
    else:
        click.echo(json.dumps(payload, indent=2))


class _Main(click.Group):
    """Turns a failure a command raises into its exit code: a failed
    pipeline stage fails verification, and a file that cannot be read,
    parsed or written, or a rejected input value, is a usage error (every
    package error but ``PipelineStageError`` is a ``ValueError``)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PipelineStageError as exc:
            click.echo(f"pipeline failure at stage '{exc.stage}': {exc.cause}",
                       err=True)
            sys.exit(FAIL)
        except (OSError, KeyError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(USAGE)


@click.group(cls=_Main)
def main():
    """Balanced-pair toolkit: identity certificates, loop pairs and indices."""


@main.command("verify-identities")
@click.argument("suite_path", required=False, type=click.Path())
@click.option("--out", type=click.Path(), help="Write the JSON report here.")
def cmd_verify_identities(suite_path, out):
    """Certify an identity suite (the bundled default when no path given)."""
    # the symbolic engine loads only for the command that uses it
    from .starpoly import suites

    if suite_path is None:
        entries = suites.default_suite()
    else:
        with open(suite_path, encoding="utf-8") as fh:
            entries = suites.parse_suite(fh.read())
    report = suites.verify_identity_suite(entries)
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json())
    for result in report.results:
        status = "certified" if result.ok else "NOT CERTIFIED"
        click.echo(f"{result.name}: {status} (bound {result.bound}, "
                   f"{result.seconds:.2f}s)")
    sys.exit(PASS if report.ok else FAIL)


def _load_pair(pair_path: str) -> balanced.BalancedPair:
    return serialize.pair_from_dict(serialize.load_json(pair_path))


@main.command("check-pair")
@click.argument("pair_path", type=click.Path())
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path())
def cmd_check_pair(pair_path, tol, out):
    """Evaluate the relation residuals of a stored matrix pair."""
    pair = _load_pair(pair_path)
    report = balanced.check_balanced(pair.a, pair.b, tol)
    _write_or_print(dataclasses.asdict(report), out)
    sys.exit(PASS if report.balanced else FAIL)


@main.command("homotopy")
@click.argument("kind", type=click.Choice(balanced.PATH_KINDS))
@click.argument("pair_path", type=click.Path())
@click.option("--grid", type=click.IntRange(min=2), default=101, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path())
def cmd_homotopy(kind, pair_path, grid, tol, out):
    """Validate a homotopy path built on a stored pair."""
    pair = _load_pair(pair_path)
    path = balanced.HomotopyPath(kind, pair)
    report = balanced.validate_path(path, grid=grid, tol=tol)
    _write_or_print(dataclasses.asdict(report), out)
    sys.exit(PASS if report.ok else FAIL)


@main.command("loop-pair")
@click.option("--p", "p", type=int, default=1, show_default=True,
              help="Loop turns of the first unimodular entry.")
@click.option("--q", "q", type=int, default=0, show_default=True,
              help="Loop turns of the second unimodular entry.")
@click.option("--grid", type=click.IntRange(min=1), default=1024, show_default=True,
              help="Loop samples: `index --modes M` needs at least 4M + 2 "
                   "samples and a symbol bandwidth of at most M/4.")
@click.option("--out", type=click.Path(), required=True)
def cmd_loop_pair(p, q, grid, out):
    """Store the rotating-diagonal loop pair as a symbol-pair file: the pair
    on the + direction, the identity on the - direction, and its split."""
    sp = loops.standard_symbol_pair(p, q, grid)
    serialize.dump_json(serialize.symbol_pair_to_dict(
        sp, loops.standard_split_symbol(grid)), out)
    click.echo(f"wrote symbol pair (p={p}, q={q}, grid={grid}) to {out}")
    sys.exit(PASS)


@main.command("make-pair")
@click.option("--dim", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--delta", type=float, default=None,
              help="Build the unitalization pair of a random unitary with "
                   "this arc width instead of a random balanced pair.")
@click.option("--out", type=click.Path(), required=True)
def cmd_make_pair(dim, seed, delta, out):
    """Generate a balanced pair (random split form, or a unitalization)."""
    if delta is None:
        pair = balanced.random_balanced_pair(dim, seed)
    else:
        from .numkern import random_unitary
        pair = balanced.unitalization_pair(random_unitary(dim, seed), delta)
    serialize.dump_json(serialize.pair_to_dict(pair), out)
    click.echo(f"wrote pair (dim={dim}, seed={seed}) to {out}")
    sys.exit(PASS)


def _index_one(p, q, grid, modes, splits, tail_cutoff):
    sp = loops.standard_symbol_pair(p, q, grid)
    report = verify_index_theorem(sp, modes, splits=splits,
                                  tail_cutoff=tail_cutoff)
    residue = max((v for k, v in report.residuals.items() if "residue" in k),
                  default=0.0)
    return (p, q, report.analytic_svd, report.topological,
            report.verdict, f"{residue:.2e}")


@main.command("index")
@click.argument("symbolpair_path", required=False, type=click.Path())
@click.option("--modes", type=click.IntRange(min=1), default=128, show_default=True,
              help="Base mode count M, run at M and 2M: needs loop grid "
                   ">= 4M + 2 and symbol bandwidth <= M/4.")
@click.option("--grid", type=click.IntRange(min=1), default=None,
              help="Loop grid for --sweep instances (default 16*modes).")
@click.option("--sweep", type=str, default=None, metavar="P0:P1,Q0:Q1",
              help="Run the loop-turn family over inclusive integer ranges.")
@click.option("--tail-cutoff", type=click.IntRange(min=0), default=None,
              help="Tail cutoff M at the base mode count (default modes/2).")
@click.option("--out", type=click.Path())
def cmd_index(symbolpair_path, modes, grid, sweep, tail_cutoff, out):
    """Verify analytic = topological index for a stored symbol pair, or for
    a sweep of rotating-diagonal instances."""
    if (symbolpair_path is None) == (sweep is None):
        raise ValueError("provide either a symbol-pair file or --sweep")
    if sweep is None and grid is not None:
        raise ValueError("--grid applies only to --sweep")
    if sweep is not None:
        rows = _run_sweep(sweep, modes, grid, tail_cutoff)
        if out:
            serialize.write_sweep_csv(rows, out)
        for row in rows:
            click.echo(
                f"p={row[0]:+d} q={row[1]:+d}: analytic={row[2]:+d} "
                f"topological={row[3]:+d} pass={row[4]}")
        sys.exit(PASS if all(r[4] for r in rows) else FAIL)
    sp, split = serialize.symbol_pair_from_dict(
        serialize.load_json(symbolpair_path))
    report = verify_index_theorem(sp, modes, split_symbol=split,
                                  tail_cutoff=tail_cutoff)
    _write_or_print(serialize.index_report_to_dict(report), out)
    sys.exit(PASS if report.verdict else FAIL)


_INT = r"\s*([+-]?\d+)\s*"
_SWEEP_SPEC = re.compile(f"{_INT}:{_INT},{_INT}:{_INT}")


def _run_sweep(sweep: str, modes: int, grid: int | None,
               tail_cutoff: int | None):
    from .opmodel import splitting_projection

    spec = _SWEEP_SPEC.fullmatch(sweep)
    if spec is None:
        raise ValueError(f"cannot parse sweep spec {sweep!r}; "
                         "expected P0:P1,Q0:Q1")
    p0, p1, q0, q1 = map(int, spec.groups())
    if p0 > p1 or q0 > q1:
        raise ValueError(f"sweep spec {sweep!r} has an empty range; "
                         "each range needs start <= end")
    grid = 16 * modes if grid is None else grid
    base, split_sym = (loops.standard_symbol_pair(0, 0, grid),
                       loops.standard_split_symbol(grid))
    splits = {n: splitting_projection(base, n, split_sym) for n in (modes, 2 * modes)}
    return [_index_one(p, q, grid, modes, splits, tail_cutoff)
            for p in range(p0, p1 + 1) for q in range(q0, q1 + 1)]


if __name__ == "__main__":
    main()
