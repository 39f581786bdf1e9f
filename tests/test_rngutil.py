"""The Cephes ndtri port in rngutil against scipy.special.ndtri, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from srfgo.rngutil import _EXP_M2, _ndtri, make_rng, normal


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    mismatch = got.view(np.int64) != want.view(np.int64)
    assert not mismatch.any(), (got[mismatch][:5], want[mismatch][:5])


def with_neighbours(values, steps: int = 2) -> np.ndarray:
    """Each value and its `steps` nextafter neighbours on both sides, kept
    inside (0, 1)."""
    out = []
    for v in values:
        for toward in (0.0, 1.0):
            w = float(v)
            for _ in range(steps + 1):
                out.append(w)
                w = float(np.nextafter(w, toward))
    out = np.unique(out)
    return out[(out > 0.0) & (out < 1.0)]


class TestNdtriPort:
    def test_pcg64_uniforms(self):
        u = np.clip(make_rng(14).random(1_000_000), 1e-300, None)
        assert_same_bits(_ndtri(u), ndtri(u))

    def test_log_uniform_tails(self):
        rng = make_rng(15)
        low = np.exp(rng.uniform(math.log(1e-300), math.log(0.5), 20_000))
        high = 1.0 - low[low < 0.25]
        for y in (low, high[high < 1.0]):
            assert_same_bits(_ndtri(y), ndtri(y))

    def test_branch_edges(self):
        # The clip floor in normal(), the smallest subnormal, both edges of
        # the central branch, the switch from P1/Q1 to P2/Q2 at x = 8
        # (y = exp(-32)), the centre and the largest double below 1.
        edges = with_neighbours([1e-300, 5e-324, _EXP_M2, math.exp(-2.0),
                                 1.0 - _EXP_M2, 1.0 - math.exp(-2.0),
                                 math.exp(-32.0), 1.2664165549e-14, 0.5,
                                 np.nextafter(1.0, 0.0)])
        assert edges.size > 30
        assert_same_bits(_ndtri(edges), ndtri(edges))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_any_float_in_open_unit_interval(self, y):
        assert_same_bits(_ndtri(np.array([y])), ndtri(np.array([y])))
        assert_same_bits(_ndtri(y), ndtri(y))

    def test_shapes_and_scalar_type(self):
        for shape in ((), (0,), (3,), (4, 6), (2, 0, 3)):
            y = np.full(shape, 0.3)
            assert np.shape(_ndtri(y)) == np.shape(ndtri(y))
        # normal(rng) with no size relies on a numpy scalar, as the ufunc gave.
        assert type(_ndtri(np.float64(0.3))) is type(ndtri(np.float64(0.3)))
        assert type(_ndtri(0.3)) is type(ndtri(0.3)) is np.float64
        assert type(normal(make_rng(1))) is np.float64

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.5, 1.5, math.nan, -math.inf, math.inf])
    def test_outside_open_unit_interval_raises(self, y):
        with pytest.raises(ValueError, match="open interval"):
            _ndtri(y)
        with pytest.raises(ValueError, match="open interval"):
            _ndtri(np.array([0.5, y]))

    def test_normal_draws_match_scipy(self):
        rng = make_rng(3, 2)
        u = np.clip(make_rng(3, 2).random((500, 6)), 1e-300, None)
        assert_same_bits(normal(rng, (500, 6)), ndtri(u))
