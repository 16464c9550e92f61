"""Tests for Golden Section Search (scalar, batch, bracketing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.linalg import (
    INV_PHI,
    bracketed_minimum,
    golden_section_search,
    golden_section_search_batch,
)


class TestScalarGSS:
    def test_quadratic_minimum(self):
        x, fx = golden_section_search(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-10)

    def test_minimum_at_left_endpoint(self):
        x, _ = golden_section_search(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-6)

    def test_minimum_at_right_endpoint(self):
        x, _ = golden_section_search(lambda t: -t, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_bracket(self):
        x, _ = golden_section_search(lambda t: (t - 2.5) ** 2, 2.0, 10.0)
        assert x == pytest.approx(2.5, abs=1e-5)

    def test_nonquadratic_unimodal(self):
        x, _ = golden_section_search(
            lambda t: np.cosh(t - 0.7), 0.0, 1.0, tol=1e-10
        )
        assert x == pytest.approx(0.7, abs=1e-6)

    def test_respects_tolerance(self):
        x_loose, _ = golden_section_search(
            lambda t: (t - 0.5) ** 2, 0.0, 1.0, tol=1e-2
        )
        x_tight, _ = golden_section_search(
            lambda t: (t - 0.5) ** 2, 0.0, 1.0, tol=1e-12
        )
        assert abs(x_tight - 0.5) <= abs(x_loose - 0.5) + 1e-12

    def test_invalid_bracket_raises(self):
        with pytest.raises(ConfigurationError):
            golden_section_search(lambda t: t, 1.0, 0.0)

    def test_invalid_tol_raises(self):
        with pytest.raises(ConfigurationError):
            golden_section_search(lambda t: t, 0.0, 1.0, tol=0.0)

    def test_inv_phi_value(self):
        assert INV_PHI == pytest.approx((np.sqrt(5) - 1) / 2)
        # The defining identity of the golden ratio section.
        assert INV_PHI**2 == pytest.approx(1 - INV_PHI)


class TestBatchGSS:
    def test_matches_scalar_results(self):
        targets = np.array([0.1, 0.35, 0.5, 0.72, 0.99])

        def objective(s, rows):
            return (s - targets[rows]) ** 2

        lo = np.zeros(5)
        hi = np.ones(5)
        x, fx = golden_section_search_batch(objective, lo, hi)
        np.testing.assert_allclose(x, targets, atol=1e-6)
        np.testing.assert_allclose(fx, 0.0, atol=1e-10)

    def test_independent_brackets(self):
        # Each search has its own bracket; minima must stay inside.
        targets = np.array([0.2, 0.8])
        lo = np.array([0.0, 0.5])
        hi = np.array([0.5, 1.0])
        x, _ = golden_section_search_batch(
            lambda s, rows: (s - targets[rows]) ** 2, lo, hi
        )
        np.testing.assert_allclose(x, targets, atol=1e-6)

    def test_clamps_to_bracket_when_min_outside(self):
        # True min at 0.9 but bracket ends at 0.5.
        x, _ = golden_section_search_batch(
            lambda s, rows: (s - 0.9) ** 2, np.array([0.0]), np.array([0.5])
        )
        assert x[0] == pytest.approx(0.5, abs=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            golden_section_search_batch(
                lambda s, rows: s, np.zeros(3), np.ones(2)
            )

    def test_reversed_bracket_raises(self):
        with pytest.raises(ConfigurationError):
            golden_section_search_batch(
                lambda s, rows: s, np.array([1.0]), np.array([0.0])
            )

    def test_degenerate_bracket_is_fine(self):
        # lo == hi: the answer is that point.
        x, _ = golden_section_search_batch(
            lambda s, rows: (s - 0.3) ** 2, np.array([0.4]), np.array([0.4])
        )
        assert x[0] == pytest.approx(0.4)

    def test_large_batch(self, rng):
        targets = rng.uniform(0.0, 1.0, size=500)
        x, _ = golden_section_search_batch(
            lambda s, rows: (s - targets[rows]) ** 2,
            np.zeros(500),
            np.ones(500),
        )
        np.testing.assert_allclose(x, targets, atol=1e-6)

    def test_objective_sees_only_active_rows(self):
        # Half-width brackets converge before full ones; from then on
        # the objective is asked only about the searches still running.
        targets = np.array([0.05, 0.3, 0.6, 0.95, 0.5])
        lo = np.array([0.0, 0.0, 0.0, 0.5, 0.0])
        hi = np.array([0.5, 1.0, 1.0, 1.0, 1.0])
        seen = []

        def objective(s, rows):
            seen.append(np.arange(5)[rows])
            return (s - targets[rows]) ** 2

        x, fx = golden_section_search_batch(objective, lo, hi)
        sizes = [len(r) for r in seen]
        assert sizes[0] == 5 and sizes[-1] == 3
        assert sizes == sorted(sizes, reverse=True)
        np.testing.assert_array_equal(seen[-1], [1, 2, 4])
        for i in range(5):
            xi, fxi = golden_section_search_batch(
                lambda s, rows: (s - targets[i]) ** 2, lo[[i]], hi[[i]]
            )
            assert (xi[0], fxi[0]) == (x[i], fx[i])

    def test_empty_batch_never_calls_the_loop_objective(self):
        calls = []

        def objective(s, rows):
            calls.append(s.size)
            return s

        x, fx = golden_section_search_batch(objective, np.zeros(0), np.zeros(0))
        assert x.shape == fx.shape == (0,)
        assert calls == [0, 0]  # the two set-up evaluations only

    def test_max_iter_caps_every_search(self):
        x, _ = golden_section_search_batch(
            lambda s, rows: (s - 0.9) ** 2,
            np.zeros(3),
            np.ones(3),
            max_iter=0,
        )
        # No iteration: the better initial interior point, 1/phi.
        np.testing.assert_array_equal(x, np.full(3, INV_PHI))


class TestBracketedMinimum:
    def test_brackets_global_minimum_of_bimodal(self):
        # Bimodal on [0,1]: minima near 0.15 and 0.85, global at 0.85.
        def f(grid):
            vals = np.minimum(
                (grid - 0.15) ** 2 + 0.02, (grid - 0.85) ** 2
            )
            return vals[np.newaxis, :]

        lo, hi = bracketed_minimum(f, n_grid=64)
        assert lo[0] <= 0.85 <= hi[0]

    def test_bracket_width_scales_with_grid(self):
        def f(grid):
            return ((grid - 0.5) ** 2)[np.newaxis, :]

        lo1, hi1 = bracketed_minimum(f, n_grid=11)
        lo2, hi2 = bracketed_minimum(f, n_grid=101)
        assert (hi2[0] - lo2[0]) < (hi1[0] - lo1[0])

    def test_multiple_rows(self):
        targets = np.array([0.25, 0.75])

        def f(grid):
            return (grid[np.newaxis, :] - targets[:, np.newaxis]) ** 2

        lo, hi = bracketed_minimum(f, n_grid=41)
        assert lo.shape == (2,)
        assert lo[0] <= 0.25 <= hi[0]
        assert lo[1] <= 0.75 <= hi[1]

    def test_small_grid_raises(self):
        with pytest.raises(ConfigurationError):
            bracketed_minimum(lambda g: g[np.newaxis, :], n_grid=2)
