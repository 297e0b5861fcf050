"""CLI contract tests: exit codes, artifacts, bundled suite."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import balk1
from balk1 import serialize
from balk1.balanced import BalancedPair, random_balanced_pair
from balk1.cli import main
from balk1.loops import standard_split_symbol, standard_symbol_pair
from balk1.starpoly import suites


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def pair_file(tmp_path):
    pair = random_balanced_pair(3, 5)
    path = tmp_path / "pair.json"
    serialize.dump_json(serialize.pair_to_dict(pair), str(path))
    return str(path)


def test_check_pair_passes(runner, pair_file):
    result = runner.invoke(main, ["check-pair", pair_file])
    assert result.exit_code == 0


def test_check_pair_fails_on_unbalanced(runner, tmp_path):
    bad = BalancedPair(np.diag([1.0, 0.5]).astype(complex),
                       np.diag([0.5, 1.0]).astype(complex))
    path = tmp_path / "bad.json"
    serialize.dump_json(serialize.pair_to_dict(bad), str(path))
    result = runner.invoke(main, ["check-pair", str(path)])
    assert result.exit_code == 1


def test_check_pair_missing_file(runner):
    result = runner.invoke(main, ["check-pair", "/nonexistent/pair.json"])
    assert result.exit_code == 2


def test_check_pair_malformed_json(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["check-pair", str(path)])
    assert result.exit_code == 2


def test_homotopy_command(runner, pair_file, tmp_path):
    out = tmp_path / "path.json"
    result = runner.invoke(main, ["homotopy", "swap", pair_file,
                                  "--grid", "21", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] and payload["grid"] == 21


def test_loop_pair_command(runner, tmp_path):
    out = tmp_path / "lp.json"
    result = runner.invoke(main, ["loop-pair", "--p", "1", "--q", "0",
                                  "--grid", "128", "--out", str(out)])
    assert result.exit_code == 0
    sp, split = serialize.symbol_pair_from_dict(serialize.load_json(str(out)))
    lp = sp.plus
    assert lp.grid == 128 and lp.dim == 2
    assert lp.max_pointwise_residual() <= 1e-10
    assert np.array_equal(sp.minus.sigma1.samples,
                          np.broadcast_to(np.eye(2), (128, 2, 2)))
    for loop, expected in zip(split, standard_split_symbol(128)):
        assert np.array_equal(loop.samples, expected.samples)


def test_verify_identities_subset(runner, tmp_path):
    entries = [e for e in suites.default_suite() if e.name.startswith("carry")]
    suite_path = tmp_path / "suite.txt"
    suite_path.write_text(suites.format_suite(entries))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify-identities", str(suite_path),
                                  "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"]


def test_verify_identities_uncertifiable_entry(runner, tmp_path):
    suite_path = tmp_path / "suite.txt"
    suite_path.write_text("name: difference\nideal: rel1\nbound: 6\ntarget: a - b\n")
    result = runner.invoke(main, ["verify-identities", str(suite_path)])
    assert result.exit_code == 1


def test_verify_identities_bound_below_target_degree(runner, tmp_path):
    suite_path = tmp_path / "suite.txt"
    suite_path.write_text("name: low\nideal: rel1\nbound: 1\ntarget: a*a - 1\n")
    result = runner.invoke(main, ["verify-identities", str(suite_path)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: degree bound 1 is below the target degree 2" in result.output


@pytest.mark.parametrize("target", ["a² - b", "٣·a - b", "1.5·a"])
def test_verify_identities_rejects_numbers_that_are_not_ascii_digits(
        runner, tmp_path, target):
    suite_path = tmp_path / "suite.txt"
    suite_path.write_text(f"name: digits\nideal: rel1\ntarget: {target}\n",
                          encoding="utf-8")
    result = runner.invoke(main, ["verify-identities", str(suite_path)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: " in result.output and "(at position " in result.output


@pytest.mark.parametrize("field, message", [
    ("bound: 4.5", "stanza 'half': invalid literal for int()"),
    ("ideal: rel3", "stanza 'half': unknown ideal name 'rel3'"),
])
def test_verify_identities_rejects_a_bad_bound_or_ideal(runner, tmp_path,
                                                        field, message):
    fields = {"ideal": "ideal: rel1", "bound": "bound: 4"}
    fields[field.split(":")[0]] = field
    suite_path = tmp_path / "suite.txt"
    suite_path.write_text(f"name: half\n{fields['ideal']}\n{fields['bound']}\n"
                          "target: a*·a - b*·b\n")
    result = runner.invoke(main, ["verify-identities", str(suite_path)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"error: {message}" in result.output


def test_verify_identities_missing_file(runner):
    result = runner.invoke(main, ["verify-identities", "/nonexistent.txt"])
    assert result.exit_code == 2


def test_bundled_suite_matches_builtin():
    text = resources.files("balk1").joinpath("data/default_suite.txt").read_text()
    parsed = suites.parse_suite(text)
    built = suites.default_suite()
    assert len(parsed) == len(built)
    for a, b in zip(parsed, built):
        assert a.name == b.name and a.target == b.target


def test_index_requires_input_or_sweep(runner):
    result = runner.invoke(main, ["index"])
    assert result.exit_code == 2


def write_symbol_pair(path, sp):
    serialize.dump_json(serialize.symbol_pair_to_dict(
        sp, standard_split_symbol(sp.plus.grid)), str(path))


def test_index_trivial_symbol_pair(runner, tmp_path):
    sp = standard_symbol_pair(0, 0, 512)
    path = tmp_path / "sp.json"
    write_symbol_pair(path, sp)
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["index", str(path), "--modes", "32",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["verdict"] and payload["topological"] == 0


def test_index_undersampled_loop_fails_at_quantize(runner, tmp_path):
    sp = standard_symbol_pair(0, 0, 64)
    path = tmp_path / "sp.json"
    write_symbol_pair(path, sp)
    result = runner.invoke(main, ["index", str(path), "--modes", "64"])
    assert result.exit_code == 1
    assert "quantize" in result.output


def test_make_pair_commands(runner, tmp_path):
    out = tmp_path / "pair.json"
    result = runner.invoke(main, ["make-pair", "--dim", "4", "--seed", "7",
                                  "--out", str(out)])
    assert result.exit_code == 0
    check = runner.invoke(main, ["check-pair", str(out)])
    assert check.exit_code == 0
    unital = tmp_path / "unital.json"
    result = runner.invoke(main, ["make-pair", "--dim", "3", "--seed", "2",
                                  "--delta", "0.2", "--out", str(unital)])
    assert result.exit_code == 0
    check = runner.invoke(main, ["check-pair", str(unital), "--tol", "1e-8"])
    assert check.exit_code == 0


def test_make_pair_rejects_bad_delta(runner, tmp_path):
    result = runner.invoke(main, ["make-pair", "--delta", "0.9",
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2


def test_index_sweep_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["index", "--sweep", "0:0,0:0",
                                  "--modes", "32", "--grid", "512",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("p,q,analytic")
    assert len(rows) == 2


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = str(Path(balk1.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    return result.stdout.strip()


def test_cli_import_leaves_the_symbolic_engine_unloaded():
    code = ("import sys, balk1.cli; "
            "print([m for m in sys.modules if m.startswith('balk1.starpoly')])")
    assert run_fresh(code) == "[]"


def test_index_path_leaves_scipy_unloaded():
    loaded = "[m for m in sys.modules if m.startswith('scipy')]"
    code = ("import sys, balk1.cli\n"
            f"print({loaded})\n"
            "from balk1.loops import standard_split_symbol, standard_symbol_pair\n"
            "from balk1.relindex import verify_index_theorem\n"
            "rep = verify_index_theorem(standard_symbol_pair(1, 0, 1024), 64, "
            "split_symbol=standard_split_symbol(1024))\n"
            f"print({loaded}, rep.verdict)")
    assert run_fresh(code).splitlines() == ["[]", "[] True"]


def test_index_names_the_keys_a_loop_pair_file_lacks(runner, tmp_path):
    lp = tmp_path / "lp.json"
    serialize.dump_json(serialize.loop_pair_to_dict(
        standard_symbol_pair(1, 0, 64).plus), str(lp))
    result = runner.invoke(main, ["index", str(lp), "--modes", "8"])
    assert result.exit_code == 2
    assert "lacks ['plus', 'minus', 'split']" in result.output
    # a symbol-pair file without its splitting symbol
    made = runner.invoke(main, ["loop-pair", "--grid", "64", "--out", str(lp)])
    assert made.exit_code == 0
    data = json.loads(lp.read_text())
    del data["split"]
    lp.write_text(json.dumps(data))
    result = runner.invoke(main, ["index", str(lp), "--modes", "8"])
    assert result.exit_code == 2
    assert "lacks ['split']" in result.output


def test_loop_pair_file_round_trips_through_index(runner, tmp_path):
    path, out = tmp_path / "sp.json", tmp_path / "report.json"
    made = runner.invoke(main, ["loop-pair", "--p", "1", "--q", "0",
                                "--grid", "1024", "--out", str(path)])
    assert made.exit_code == 0, made.output
    result = runner.invoke(main, ["index", str(path), "--modes", "64",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    values = [v for engines in payload["details"].values()
              for series in engines.values() for v in series.values()]
    assert payload["verdict"] and payload["topological"] == -1
    assert len(values) == 16 and set(values) == {-1}


@pytest.mark.parametrize("args", [
    ["homotopy", "swap", "PAIR", "--grid", "1"],
    ["index", "--sweep", "0:0,0:0", "--modes", "0"],
    ["index", "--sweep", "0:0,0:0", "--modes", "-3"],
    ["loop-pair", "--grid", "0", "--out", "OUT"],
    ["index", "--sweep", "1:0,0:0"],
    ["index", "--sweep", "1:1,0:0", "--modes", "64", "--tail-cutoff", "-1"],
    ["make-pair", "--dim", "0", "--delta", "0.2", "--out", "OUT"],
], ids=["homotopy-grid-1", "index-modes-0", "index-modes-negative",
        "loop-pair-grid-0", "index-empty-sweep", "index-tail-cutoff-negative",
        "make-pair-dim-0"])
def test_cli_rejects_degenerate_sizes(runner, pair_file, tmp_path, args):
    out = tmp_path / "x.json"
    args = [pair_file if a == "PAIR" else str(out) if a == "OUT" else a
            for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output.lower()
    assert not out.exists()


def test_index_rejects_a_tail_cutoff_at_the_mode_count(runner, monkeypatch):
    # the cutoff is checked before any stage runs, so nothing is quantized
    from balk1 import opmodel

    def no_quantize(*args, **kwargs):
        raise AssertionError("quantized before rejecting the cutoff")

    monkeypatch.setattr(opmodel, "quantize", no_quantize)
    monkeypatch.setattr("balk1.relindex.quantize", no_quantize)
    result = runner.invoke(main, ["index", "--sweep", "0:0,1:1", "--modes", "16",
                                  "--grid", "256", "--tail-cutoff", "16"])
    assert result.exit_code == 2, result.output
    assert "tail cutoff 16 must be below the mode count 16" in result.output
