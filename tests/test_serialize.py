"""JSON codec roundtrips."""

import numpy as np
import pytest

from balk1 import serialize
from balk1.balanced import random_balanced_pair
from balk1.loops import standard_split_symbol, standard_symbol_pair


def test_pair_roundtrip():
    pair = random_balanced_pair(3, 9)
    data = serialize.pair_to_dict(pair)
    back = serialize.pair_from_dict(data)
    assert np.array_equal(back.a, pair.a)
    assert np.array_equal(back.b, pair.b)
    assert "tol" not in data


def test_loop_pair_records_hold_no_tolerance():
    sp = standard_symbol_pair(1, 0, 32)
    data = serialize.symbol_pair_to_dict(sp, standard_split_symbol(32))
    assert "tol" not in data["plus"] and "tol" not in data["minus"]
    assert set(serialize.loop_pair_to_dict(sp.plus)) == {"sigma1", "sigma2"}


def test_symbol_pair_roundtrip():
    sp, split = standard_symbol_pair(1, 0, 64), standard_split_symbol(64)
    back, back_split = serialize.symbol_pair_from_dict(
        serialize.symbol_pair_to_dict(sp, split))
    assert np.array_equal(back.plus.sigma1.samples, sp.plus.sigma1.samples)
    assert back.minus.dim == 2
    for loop, stored in zip(split, back_split):
        assert np.array_equal(stored.samples, loop.samples)


def test_loop_rejects_unknown_domain():
    sp = standard_symbol_pair(1, 0, 32)
    data = serialize.loop_to_dict(sp.plus.sigma1)
    data["param"] = "0-2pi"
    with pytest.raises(ValueError):
        serialize.loop_from_dict(data, "plus.sigma1")
