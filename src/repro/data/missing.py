"""Missing-data handling for ranking tables.

Section 6.2.2: "After journals with data missing are removed from the
data table (58 out of 451), RPC model tries to provide a comprehensive
ranking list..."  Dropping is the paper's choice; this module
implements it plus two less wasteful alternatives a production user
would want:

* :func:`median_impute` — fill each missing cell with the attribute's
  observed median (a robust baseline);
* :class:`CurveImputer` — fit an RPC on the complete rows, then for
  every incomplete row project its *observed* coordinates onto the
  curve (a masked projection) and fill the missing cells from the
  curve point.  Because the curve is the data's ranking skeleton, this
  imputes with exactly the structure used for ranking, and incomplete
  objects can be scored by the same masked projection.

Missing entries are represented as ``NaN``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.geometry.bezier import BezierCurve
from repro.linalg.golden_section import golden_section_search_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rpc import RankingPrincipalCurve


def missing_mask(X: np.ndarray) -> np.ndarray:
    """Boolean mask of missing (NaN) cells."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataValidationError(f"X must be 2-D, got ndim={X.ndim}")
    return np.isnan(X)


def missing_summary(X: np.ndarray) -> dict[str, float]:
    """Counts of complete rows / incomplete rows / missing cells."""
    mask = missing_mask(X)
    incomplete = np.any(mask, axis=1)
    return {
        "n_rows": int(X.shape[0]),
        "n_complete_rows": int(np.count_nonzero(~incomplete)),
        "n_incomplete_rows": int(np.count_nonzero(incomplete)),
        "n_missing_cells": int(np.count_nonzero(mask)),
        "cell_missing_rate": float(mask.mean()),
    }


def drop_missing_rows(
    X: np.ndarray,
    labels: Optional[Sequence[str]] = None,
) -> tuple[np.ndarray, Optional[list[str]], np.ndarray]:
    """The paper's strategy: keep only fully observed rows.

    Returns ``(X_complete, labels_complete, kept_indices)``.
    """
    mask = missing_mask(X)
    keep = ~np.any(mask, axis=1)
    kept_indices = np.nonzero(keep)[0]
    if labels is not None:
        if len(labels) != X.shape[0]:
            raise DataValidationError(
                f"{len(labels)} labels for {X.shape[0]} rows"
            )
        labels_out: Optional[list[str]] = [labels[i] for i in kept_indices]
    else:
        labels_out = None
    return np.asarray(X, dtype=float)[keep], labels_out, kept_indices


def median_impute(X: np.ndarray) -> np.ndarray:
    """Fill missing cells with the per-attribute observed median."""
    X = np.asarray(X, dtype=float).copy()
    mask = missing_mask(X)
    for j in range(X.shape[1]):
        column_mask = mask[:, j]
        if not column_mask.any():
            continue
        observed = X[~column_mask, j]
        if observed.size == 0:
            raise DataValidationError(
                f"attribute {j} has no observed values to impute from"
            )
        X[column_mask, j] = float(np.median(observed))
    return X


def masked_projection(
    curve: BezierCurve,
    X: np.ndarray,
    observed: np.ndarray,
    n_grid: int = 48,
    tol: float = 1e-10,
) -> np.ndarray:
    """Project rows onto a curve using only their observed coordinates.

    For each row ``i``, minimises ``sum_{j observed} (x_ij − f_j(s))²``
    over ``s in [0, 1]`` via grid bracketing plus Golden Section
    Search.  Rows with *no* observed coordinate are rejected.

    Parameters
    ----------
    curve:
        The (unit-coordinate) curve to project onto.
    X:
        Rows with NaN in unobserved cells, shape ``(n, d)``.
    observed:
        Boolean mask of shape ``(n, d)``; True marks usable cells.
    """
    X = np.asarray(X, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if X.shape != observed.shape:
        raise DataValidationError(
            f"X and observed must share a shape, got {X.shape} vs "
            f"{observed.shape}"
        )
    if X.ndim != 2 or X.shape[1] != curve.dimension:
        raise DataValidationError(
            f"X must have shape (n, {curve.dimension}), got {X.shape}"
        )
    if not np.all(observed.any(axis=1)):
        bad = np.nonzero(~observed.any(axis=1))[0]
        raise DataValidationError(
            f"rows {bad.tolist()} have no observed coordinates"
        )

    grid = np.linspace(0.0, 1.0, n_grid)
    curve_grid = curve.evaluate(grid)  # (d, g)
    filled = np.where(observed, X, 0.0)

    # Masked squared distances on the grid: sum over observed dims only.
    sq = (
        np.einsum("nd,nd->n", filled, filled)[:, np.newaxis]
        - 2.0 * (filled @ curve_grid)
        + observed.astype(float) @ (curve_grid**2)
    )
    best = np.argmin(sq, axis=1)
    step = 1.0 / (n_grid - 1)
    lo = np.clip(grid[best] - step, 0.0, 1.0)
    hi = np.clip(grid[best] + step, 0.0, 1.0)

    def objective(s: np.ndarray, rows) -> np.ndarray:
        pts = curve.evaluate(s)  # (d, len(s))
        diff = (filled[rows] - pts.T) * observed[rows]
        return np.sum(diff**2, axis=1)

    s_opt, _ = golden_section_search_batch(objective, lo, hi, tol=tol)
    return s_opt


@dataclass
class ImputationResult:
    """Outcome of :meth:`CurveImputer.transform`.

    Attributes
    ----------
    X_imputed:
        Data with missing cells filled, original units.
    scores:
        Masked-projection ranking scores of every row (complete rows
        get ordinary projection scores).
    n_imputed_cells:
        Number of cells that were filled.
    """

    X_imputed: np.ndarray
    scores: np.ndarray
    n_imputed_cells: int


class CurveImputer:
    """Impute and score incomplete rows with a ranking curve.

    Fits an RPC on the complete rows only; incomplete rows are then
    projected onto the curve through their observed coordinates and
    their missing cells are read off the curve point.

    Parameters
    ----------
    alpha:
        Task direction vector.
    min_complete_rows:
        Refuse to fit when fewer complete rows are available.
    **rpc_kwargs:
        Forwarded to :class:`RankingPrincipalCurve`.
    """

    def __init__(
        self,
        alpha: Sequence[float],
        min_complete_rows: int = 10,
        **rpc_kwargs,
    ):
        if min_complete_rows < 4:
            raise ConfigurationError(
                f"min_complete_rows must be >= 4, got {min_complete_rows}"
            )
        self.alpha = np.asarray(alpha, dtype=float)
        self.min_complete_rows = int(min_complete_rows)
        self._rpc_kwargs = dict(rpc_kwargs)
        self._model: Optional["RankingPrincipalCurve"] = None

    @property
    def model_(self) -> "RankingPrincipalCurve":
        """The RPC fitted on complete rows."""
        if self._model is None:
            raise ConfigurationError("CurveImputer has not been fitted")
        return self._model

    def fit(self, X: np.ndarray) -> "CurveImputer":
        """Fit the curve on the complete rows of ``X``."""
        X = np.asarray(X, dtype=float)
        complete, _labels, kept = drop_missing_rows(X)
        if complete.shape[0] < self.min_complete_rows:
            raise DataValidationError(
                f"only {complete.shape[0]} complete rows, need at least "
                f"{self.min_complete_rows} to fit the imputation curve"
            )
        # Imported here to avoid a circular import: repro.core.rpc uses
        # repro.data.normalize, so this module cannot import it at
        # module load time.
        from repro.core.rpc import RankingPrincipalCurve

        model = RankingPrincipalCurve(alpha=self.alpha, **self._rpc_kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(complete)
        self._model = model
        return self

    def transform(self, X: np.ndarray) -> ImputationResult:
        """Impute missing cells and score every row."""
        model = self.model_
        X = np.asarray(X, dtype=float)
        mask = missing_mask(X)
        observed = ~mask
        assert model._normalizer is not None
        # Normalise with NaNs passed through (fill with 0 first, then
        # restore NaN so the affine map never sees them).
        X_filled = np.where(mask, 0.0, X)
        U = model._normalizer.transform(X_filled)
        U[mask] = np.nan
        s = masked_projection(
            model.curve_, np.where(mask, np.nan, U), observed
        )
        curve_points_unit = model.curve_.evaluate(s).T
        curve_points = model._normalizer.inverse_transform(curve_points_unit)
        X_imputed = np.where(mask, curve_points, X)
        return ImputationResult(
            X_imputed=X_imputed,
            scores=s,
            n_imputed_cells=int(mask.sum()),
        )

    def fit_transform(self, X: np.ndarray) -> ImputationResult:
        """Fit on complete rows, then impute the full table."""
        return self.fit(X).transform(X)
