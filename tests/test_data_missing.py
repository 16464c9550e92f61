"""Tests for the missing-data pipeline (drop / impute / masked score)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.data.missing import (
    CurveImputer,
    drop_missing_rows,
    masked_projection,
    median_impute,
    missing_mask,
    missing_summary,
)
from repro.data.synthetic import sample_around_curve, sample_monotone_cloud
from repro.geometry import cubic_from_interior_points


@pytest.fixture
def holey_data(rng):
    """Monotone cloud with ~10% of cells knocked out."""
    cloud = sample_monotone_cloud(
        alpha=np.array([1.0, 1.0, -1.0]), n=120, seed=29, noise=0.02
    )
    X = cloud.X.copy()
    holes = rng.uniform(size=X.shape) < 0.1
    # Keep the first 40 rows fully observed so the imputer can fit.
    holes[:40] = False
    # No fully-empty rows.
    full_rows = holes.all(axis=1)
    holes[full_rows, 0] = False
    X[holes] = np.nan
    return X, cloud, holes


class TestMaskAndSummary:
    def test_mask_matches_nan(self, holey_data):
        X, _, holes = holey_data
        np.testing.assert_array_equal(missing_mask(X), holes)

    def test_summary_counts(self, holey_data):
        X, _, holes = holey_data
        summary = missing_summary(X)
        assert summary["n_rows"] == 120
        assert summary["n_missing_cells"] == int(holes.sum())
        assert summary["n_complete_rows"] + summary["n_incomplete_rows"] == 120

    def test_1d_raises(self):
        with pytest.raises(DataValidationError):
            missing_mask(np.ones(5))


class TestDropRows:
    def test_drops_exactly_incomplete(self, holey_data):
        X, _, holes = holey_data
        complete, labels, kept = drop_missing_rows(
            X, labels=[f"r{i}" for i in range(120)]
        )
        assert complete.shape[0] == int((~holes.any(axis=1)).sum())
        assert not np.any(np.isnan(complete))
        assert labels is not None and labels[0] == f"r{kept[0]}"

    def test_label_mismatch_raises(self, holey_data):
        X, _, _ = holey_data
        with pytest.raises(DataValidationError):
            drop_missing_rows(X, labels=["x"])

    def test_no_missing_is_identity(self, rng):
        X = rng.uniform(size=(10, 2))
        complete, _labels, kept = drop_missing_rows(X)
        np.testing.assert_array_equal(complete, X)
        np.testing.assert_array_equal(kept, np.arange(10))


class TestMedianImpute:
    def test_fills_with_observed_median(self):
        X = np.array([[1.0, 10.0], [3.0, np.nan], [5.0, 30.0]])
        out = median_impute(X)
        assert out[1, 1] == pytest.approx(20.0)
        assert not np.any(np.isnan(out))

    def test_original_untouched(self):
        X = np.array([[1.0, np.nan]])
        _ = X.copy()
        try:
            median_impute(X)
        except DataValidationError:
            pass
        assert np.isnan(X[0, 1])

    def test_all_missing_column_raises(self):
        X = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(DataValidationError):
            median_impute(X)


class TestMaskedProjection:
    @pytest.fixture
    def curve(self):
        return cubic_from_interior_points(
            [1.0, 1.0], p1=[0.2, 0.5], p2=[0.7, 0.6]
        )

    def test_full_mask_matches_ordinary_projection(self, curve, rng):
        X = rng.uniform(size=(30, 2))
        observed = np.ones_like(X, dtype=bool)
        s_masked = masked_projection(curve, X, observed)
        s_full = curve.project(X)
        np.testing.assert_allclose(s_masked, s_full, atol=1e-6)

    def test_recovers_latent_from_single_coordinate(self, curve):
        # Points exactly on the curve, with one coordinate hidden: the
        # masked projection must still recover the latent parameter
        # (each coordinate is strictly monotone, hence invertible).
        s_true = np.linspace(0.1, 0.9, 9)
        X = curve.evaluate(s_true).T
        observed = np.zeros_like(X, dtype=bool)
        observed[:, 0] = True  # only the x coordinate is visible
        X_masked = np.where(observed, X, np.nan)
        s_hat = masked_projection(curve, X_masked, observed)
        np.testing.assert_allclose(s_hat, s_true, atol=1e-3)

    def test_mixed_convergence_batch_matches_rows_alone(self, curve, rng):
        # Rows near the curve's ends get half-width (clipped) brackets
        # and leave the search early; the rest keep running on the
        # compacted batch, fed only their own data and masks.  The
        # objective evaluates the curve with a BLAS product whose last
        # bits depend on the column count, so rows agree to the
        # resolution GSS has on a squared distance (~sqrt(eps)), not
        # bit for bit; a row fed another row's data would be far off.
        ends = curve.evaluate(np.array([0.0, 1.0])).T
        X = np.vstack([ends + 0.01, rng.uniform(size=(10, 2))])
        observed = np.ones_like(X, dtype=bool)
        observed[::3, 1] = False
        s_batch = masked_projection(curve, X, observed)
        s_alone = np.concatenate([
            masked_projection(curve, X[i : i + 1], observed[i : i + 1])
            for i in range(len(X))
        ])
        np.testing.assert_allclose(s_batch, s_alone, rtol=0, atol=1e-7)

    def test_empty_row_rejected(self, curve):
        X = np.array([[np.nan, np.nan]])
        observed = np.zeros_like(X, dtype=bool)
        with pytest.raises(DataValidationError):
            masked_projection(curve, X, observed)

    def test_shape_mismatch_raises(self, curve, rng):
        with pytest.raises(DataValidationError):
            masked_projection(
                curve, rng.uniform(size=(5, 2)), np.ones((4, 2), dtype=bool)
            )


class TestCurveImputer:
    def test_imputed_values_near_truth(self):
        # Noise-free data on a known curve: hidden cells must be
        # reconstructed almost exactly.
        curve = cubic_from_interior_points(
            [1.0, 1.0, 1.0],
            p1=[0.2, 0.4, 0.3],
            p2=[0.7, 0.6, 0.8],
        )
        cloud = sample_around_curve(curve, n=80, noise=0.0, seed=3)
        X = cloud.X.copy()
        holes = np.zeros_like(X, dtype=bool)
        holes[50:, 1] = True  # hide one coordinate of 30 rows
        X_holey = np.where(holes, np.nan, X)
        imputer = CurveImputer(
            alpha=[1, 1, 1], random_state=0, n_restarts=1, init="linear"
        )
        result = imputer.fit_transform(X_holey)
        assert result.n_imputed_cells == 30
        np.testing.assert_allclose(
            result.X_imputed[holes], X[holes], atol=0.05
        )

    def test_scores_correlate_with_latent(self, holey_data):
        X, cloud, _holes = holey_data
        imputer = CurveImputer(
            alpha=[1, 1, -1], random_state=0, n_restarts=1, init="linear"
        )
        result = imputer.fit_transform(X)
        from repro.evaluation.metrics import spearman_rho

        assert spearman_rho(result.scores, cloud.latent) > 0.95

    def test_complete_cells_untouched(self, holey_data):
        X, _, holes = holey_data
        imputer = CurveImputer(
            alpha=[1, 1, -1], random_state=0, n_restarts=1, init="linear"
        )
        result = imputer.fit_transform(X)
        np.testing.assert_array_equal(
            result.X_imputed[~holes], X[~holes]
        )
        assert not np.any(np.isnan(result.X_imputed))

    def test_too_few_complete_rows_raises(self):
        X = np.full((20, 2), np.nan)
        X[:3] = 1.0
        imputer = CurveImputer(alpha=[1, 1])
        with pytest.raises(DataValidationError):
            imputer.fit(X)

    def test_unfitted_raises(self):
        imputer = CurveImputer(alpha=[1, 1])
        with pytest.raises(ConfigurationError):
            _ = imputer.model_

    def test_invalid_min_rows(self):
        with pytest.raises(ConfigurationError):
            CurveImputer(alpha=[1, 1], min_complete_rows=2)
