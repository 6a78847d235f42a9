"""Quadrature, root finding, normal helpers, and the RNG substreams."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from singlearm.errors import BracketError, DomainError, QuadratureError
from singlearm.numerics import (
    find_root,
    integrate,
    normal_cdf,
    normal_quantile,
    substream,
)

LOG_TWO = math.log(2.0)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda s: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert integrate(lambda s: s, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_density_mass(self):
        # Density of an exponential with median 1 integrated to 4 medians.
        f = lambda s: LOG_TWO * math.exp(-LOG_TWO * s)
        assert integrate(f, 0.0, 4.0) == pytest.approx(0.9375, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(lambda s: 1.0, 2.0, 2.0) == 0.0

    def test_breakpoint_handles_kink(self):
        value = integrate(lambda s: abs(s - 0.3), 0.0, 1.0, breakpoints=(0.3,))
        assert value == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, abs=1e-12)

    def test_breakpoints_outside_interval_ignored(self):
        value = integrate(lambda s: s, 0.0, 1.0, breakpoints=(-1.0, 5.0))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda s: 1.0, 1.0, 0.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda s: 1.0, 0.0, math.inf)

    def test_nonconvergence_reports_partial_estimate(self):
        # 200 subintervals cannot resolve this oscillation to the fixed accuracy.
        with pytest.raises(QuadratureError) as excinfo:
            integrate(lambda s: math.sin(5000.0 * s), 0.0, 1.0)
        assert excinfo.value.partial_estimate is not None
        assert math.isfinite(excinfo.value.partial_estimate)

    @given(
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    )
    def test_linearity(self, a, b, coeffs_f, coeffs_g):
        f = lambda s, c=tuple(coeffs_f): sum(ci * s**i for i, ci in enumerate(c))
        g = lambda s, c=tuple(coeffs_g): sum(ci * s**i for i, ci in enumerate(c))
        combined = integrate(lambda s: a * f(s) + b * g(s), 0.0, 1.0)
        parts = a * integrate(f, 0.0, 1.0) + b * integrate(g, 0.0, 1.0)
        assert combined == pytest.approx(parts, abs=1e-9)

    @given(st.floats(0.01, 0.99))
    def test_interval_additivity(self, split):
        f = lambda s: math.exp(-s) * (1.0 + math.sin(3.0 * s))
        whole = integrate(f, 0.0, 1.0)
        pieces = integrate(f, 0.0, split) + integrate(f, split, 1.0)
        assert whole == pytest.approx(pieces, abs=1e-9)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-9)

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_root_at_endpoint(self):
        assert find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_invalid_bracket_rejected(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 2.0, 1.0)

    @given(st.floats(0.2, 4.0), st.floats(0.1, 3.0))
    def test_bracketing_guarantee(self, scale, shift):
        # The returned point sits within tolerance of a true sign change.
        g = lambda x: scale * math.cos(x) - 0.2 * shift
        lo, hi = 0.0, 3.0
        if g(lo) * g(hi) > 0.0:
            return
        abs_tol = 1e-9
        root = find_root(g, lo, hi, abs_tol=abs_tol)
        pad = 10.0 * abs_tol
        left = g(max(lo, root - pad))
        right = g(min(hi, root + pad))
        assert left * right <= 0.0 or abs(g(root)) < 1e-9


class TestNormal:
    def test_quantile_reference_point(self):
        assert abs(normal_quantile(0.975) - 1.959963984540054) < 1e-9

    def test_quantile_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_symmetry(self):
        for z in (0.3, 1.0, 2.5):
            assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [1e-12, 1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6])
    def test_mutual_inverses_grid(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-8)

    @given(st.floats(1e-6, 1.0 - 1e-6))
    def test_mutual_inverses_property(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)

    def test_cdf_vectorizes(self):
        values = normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert values.shape == (3,)
        assert values[1] == pytest.approx(0.5)


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, 3).standard_normal(5)
        b = substream(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = substream(7, 0).standard_normal(5)
        b = substream(7, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = substream(1, 0).standard_normal(5)
        b = substream(2, 0).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            substream(-1, 0)
        with pytest.raises(DomainError):
            substream(0, -1)

    def test_keys_past_64_bits_rejected(self):
        substream(2**64 - 1, 2**64 - 1)
        with pytest.raises(DomainError):
            substream(2**64, 0)
        with pytest.raises(DomainError):
            substream(0, 2**64)
