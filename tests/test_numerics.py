"""Quadrature, root finding, normal helpers, and the RNG substreams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from singlearm.errors import BracketError, DomainError, QuadratureError
from singlearm.numerics import (
    find_root,
    integrate,
    normal_cdf,
    normal_quantile,
    substream,
)

LOG_TWO = math.log(2.0)


def cos_family(scale, shift):
    return lambda x: scale * math.cos(x) - 0.2 * shift


# (g, lo, hi): the cos family on [0, 3], which may lack a sign change, and
# monotone cubics through a root inside [-10, 10]
ROOT_PROBLEMS = st.one_of(
    st.builds(
        lambda scale, shift: (cos_family(scale, shift), 0.0, 3.0),
        st.floats(0.2, 4.0),
        st.floats(0.1, 3.0),
    ),
    st.builds(
        lambda a, b, r: (lambda x: a * (x**3 - r**3) + b * (x - r), -10.0, 10.0),
        st.floats(0.01, 3.0),
        st.floats(0.01, 3.0),
        st.floats(-9.5, 9.5),
    ),
)


class TestIntegrate:
    def test_constant(self):
        assert integrate(np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert integrate(lambda s: s, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_density_mass(self):
        # Density of an exponential with median 1 integrated to 4 medians.
        f = lambda s: LOG_TWO * np.exp(-LOG_TWO * s)
        assert integrate(f, 0.0, 4.0) == pytest.approx(0.9375, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(np.ones_like, 2.0, 2.0) == 0.0

    def test_breakpoint_handles_kink(self):
        value = integrate(lambda s: abs(s - 0.3), 0.0, 1.0, breakpoints=(0.3,))
        assert value == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, abs=1e-12)

    def test_breakpoints_outside_interval_ignored(self):
        value = integrate(lambda s: s, 0.0, 1.0, breakpoints=(-1.0, 5.0))
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("power", [0.05, 0.3, 1.5])
    def test_endpoint_singularities_converge(self, power):
        # a bounded integrand with an unbounded derivative at either end
        exact = 1.0 / (power + 1.0)
        assert integrate(lambda s: s**power, 0.0, 1.0) == pytest.approx(exact, rel=1e-11)
        assert integrate(lambda s: (1.0 - s) ** power, 0.0, 1.0) == pytest.approx(exact, rel=1e-11)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(np.ones_like, 1.0, 0.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(np.ones_like, 0.0, math.inf)

    def test_nonconvergence_raises(self):
        # 200 subintervals cannot resolve this oscillation to the fixed accuracy.
        with pytest.raises(QuadratureError):
            integrate(lambda s: np.sin(5000.0 * s), 0.0, 1.0)

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

    def test_rows_share_the_nodes(self):
        sizes = []

        def f(s):
            sizes.append(s.shape)
            return np.vstack([np.exp(-s), s**2, np.abs(s - 0.3)])

        values = integrate(f, 0.0, 1.0, breakpoints=(0.3,))
        assert values.shape == (3,)
        exact = [1.0 - math.exp(-1.0), 1.0 / 3.0, 0.5 * 0.3**2 + 0.5 * 0.7**2]
        assert values == pytest.approx(exact, rel=1e-12)
        # one call per refinement level, each on whole 10-point rules
        assert all(len(shape) == 1 and shape[0] % 10 == 0 for shape in sizes)
        assert len(sizes) <= 3

    @given(
        st.lists(
            st.tuples(st.floats(0.05, 3.0), st.floats(-4.0, 4.0), st.floats(0.0, 1.0)),
            min_size=2,
            max_size=5,
        ),
        st.floats(0.1, 5.0),
        st.lists(st.floats(0.0, 5.0), max_size=3),
    )
    @hyp_settings(max_examples=60, deadline=None)
    def test_stacked_rows_match_each_row_alone(self, rows, hi, breakpoints):
        # a row's bits do not depend on the rows integrated beside it
        def row(power, rate, kink):
            return lambda s: s**power * np.exp(rate * s) + np.abs(s - kink * hi)

        fs = [row(*params) for params in rows]
        stacked = integrate(lambda s: np.vstack([f(s) for f in fs]), 0.0, hi, breakpoints)
        alone = [integrate(f, 0.0, hi, breakpoints) for f in fs]
        assert stacked.tolist() == alone

    @given(st.floats(0.01, 0.99))
    def test_interval_additivity(self, split):
        f = lambda s: np.exp(-s) * (1.0 + np.sin(3.0 * s))
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
        g = cos_family(scale, shift)
        lo, hi = 0.0, 3.0
        if g(lo) * g(hi) > 0.0:
            return
        abs_tol = 1e-9
        root = find_root(g, lo, hi, abs_tol=abs_tol)
        pad = 10.0 * abs_tol
        left = g(max(lo, root - pad))
        right = g(min(hi, root + pad))
        assert left * right <= 0.0 or abs(g(root)) < 1e-9

    @given(ROOT_PROBLEMS, st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
    def test_matches_brentq(self, problem, abs_tol):
        # Oracle: scipy's brentq, which the port follows step for step; the
        # port never evaluates g more often.
        from scipy import optimize

        g, lo, hi = problem
        if g(lo) * g(hi) > 0.0:
            return
        ours, theirs = [], []
        root = find_root(lambda x: ours.append(x) or g(x), lo, hi, abs_tol=abs_tol)
        expected = optimize.brentq(lambda x: theirs.append(x) or g(x), lo, hi, xtol=abs_tol, maxiter=200)
        assert abs(root - expected) <= abs_tol
        assert len(ours) <= len(theirs)


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

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


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
        # a fraction is not truncated onto a whole key's stream
        for seed, index in [(7.9, 0), (7, 0.5), (7.0, 0), ("7", 0), (None, 0)]:
            with pytest.raises(DomainError, match="whole numbers"):
                substream(seed, index)
        np.testing.assert_array_equal(
            substream(np.uint64(7), np.int64(0)).random(3), substream(7, 0).random(3)
        )

    def test_keys_past_64_bits_rejected(self):
        substream(2**64 - 1, 2**64 - 1)
        with pytest.raises(DomainError):
            substream(2**64, 0)
        with pytest.raises(DomainError):
            substream(0, 2**64)
