"""Golden Section Search (GSS) for one-dimensional minimisation.

The RPC learning algorithm (Algorithm 1 in the paper) needs, for every
data point ``x_i``, the latent coordinate ``s_i in [0, 1]`` whose curve
point ``f(s_i)`` is closest to ``x_i``.  The first-order condition
Eq.(20) is a quintic polynomial with no closed-form roots, so the paper
adopts Golden Section Search on the squared distance.  This module
provides a careful scalar implementation plus a vectorised variant that
runs one GSS per data point simultaneously — the workhorse of the
projection step.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.core.exceptions import ConfigurationError

#: How :func:`golden_section_search_batch` names the searches still
#: running: a full slice, or the integer indices of the survivors.
Rows = Union[slice, np.ndarray]

#: The inverse golden ratio, (sqrt(5) - 1) / 2.
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

#: Squared inverse golden ratio, used to place the initial interior points.
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def golden_section_search(
    func: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> Tuple[float, float]:
    """Minimise a unimodal scalar function on ``[lo, hi]``.

    Parameters
    ----------
    func:
        The objective.  It is assumed unimodal on the bracket; for
        multimodal objectives combine with a coarse grid scan (see
        :func:`bracketed_minimum`).
    lo, hi:
        Bracket endpoints with ``lo < hi``.
    tol:
        Terminate when the bracket width falls below ``tol``.
    max_iter:
        Hard cap on iterations; GSS shrinks the bracket by the golden
        ratio each step so roughly ``log(tol / (hi - lo)) / log(0.618)``
        iterations are needed.

    Returns
    -------
    (x, fx):
        The approximate minimiser and its objective value.
    """
    if not hi > lo:
        raise ConfigurationError(
            f"golden_section_search needs lo < hi, got [{lo}, {hi}]"
        )
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")

    a, b = float(lo), float(hi)
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc = func(c)
    fd = func(d)

    for _ in range(max_iter):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = func(d)

    if fc < fd:
        return c, fc
    return d, fd


def golden_section_search_batch(
    func: Callable[[np.ndarray, Rows], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
    pair_func: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``n`` independent golden-section searches simultaneously.

    ``func(s, rows)`` evaluates the objective of the searches still
    running: ``rows`` indexes them within the batch (a full slice until
    the first search converges, then an integer array) and ``s`` holds
    one point per selected search, so ``func`` returns
    ``objective[rows](s)`` with the shape of ``s``.  Element ``i`` of
    the search never mixes with element ``j``; the vectorisation is a
    pure speed optimisation over a Python loop of scalar searches.

    Parameters
    ----------
    func:
        Vectorised objective over the active searches, see above.
    lo, hi:
        Per-search bracket endpoints, each shape ``(n,)``.
    tol, max_iter:
        As in :func:`golden_section_search`.
    pair_func:
        Optional fused objective for precompiled callers: receives both
        initial interior points stacked as an ``(n, 2)`` array and
        returns the ``(n, 2)`` objective values in one call — the
        projection engine supplies a single batched Horner pass here.
        When given, ``pair_func`` must compute exactly ``func``
        column-wise; it is used for the bracket set-up evaluation
        (``func`` still evaluates the loop's single fresh point).

    Returns
    -------
    (x, fx):
        Arrays of shape ``(n,)`` with per-search minimisers and values.

    Notes
    -----
    The loop follows the textbook value-reuse scheme, vectorised: per
    iteration exactly one fresh interior point is evaluated per active
    search (the surviving point's objective value is carried over, not
    recomputed).

    Each search stops the moment *its own* bracket width reaches
    ``tol`` — not when the whole batch does: its answer is recorded and
    it leaves the work arrays, so later iterations (and ``func`` calls)
    only cover the searches still running.  A row therefore runs an
    iteration count determined solely by its own initial bracket, with
    the same elementwise arithmetic whoever shares its batch, which
    makes the result bit-identical however the rows are batched
    (chunked vs one-shot scoring, and the serving micro-batcher that
    coalesces rows from unrelated requests).

    The search is dtype-preserving: float32 brackets (both ``lo`` and
    ``hi``) keep the whole search in float32 for the opt-in float32
    scoring mode; anything else runs the historical float64 path with
    byte-identical arithmetic.
    """
    work_dtype = (
        np.float32
        if getattr(lo, "dtype", None) == np.float32
        and getattr(hi, "dtype", None) == np.float32
        else np.float64
    )
    lo = np.asarray(lo, dtype=work_dtype)
    hi = np.asarray(hi, dtype=work_dtype)
    if lo.shape != hi.shape:
        raise ConfigurationError(
            f"lo and hi must share a shape, got {lo.shape} vs {hi.shape}"
        )
    if np.any(hi < lo):
        raise ConfigurationError("every bracket needs lo <= hi")
    # NEP 50: the module-level np.float64 constants are not weak
    # scalars, so they must be cast or float32 brackets would promote.
    # For float64 input these casts are exact no-ops.
    inv_phi = work_dtype(INV_PHI)
    inv_phi2 = work_dtype(INV_PHI2)

    a = lo.copy()
    b = hi.copy()
    h = b - a
    c = a + inv_phi2 * h
    d = a + inv_phi * h
    rows = slice(None)  # the active searches, as an index into the batch
    if pair_func is not None:
        fcd = pair_func(np.stack([c, d], axis=-1))
        fc, fd = fcd[..., 0], fcd[..., 1]
    else:
        fc = func(c, rows)
        fd = func(d, rows)

    x = np.empty_like(a)
    fx = np.empty_like(a)
    for _ in range(max_iter):
        active = h > tol
        n_active = np.count_nonzero(active)
        if n_active < active.size:
            # Record the searches that just converged and drop them.
            if isinstance(rows, slice):
                rows = np.arange(a.size)
            done = ~active
            x[rows[done]] = np.where(fc[done] < fd[done], c[done], d[done])
            fx[rows[done]] = np.minimum(fc[done], fd[done])
            rows = rows[active]
            a, b, c, d, fc, fd = (v[active] for v in (a, b, c, d, fc, fd))
        if n_active == 0:
            return x, fx
        left = fc < fd
        # Where the left interior point wins, shrink the bracket to
        # [a, d] and reuse c (with its known value fc) as the new right
        # interior point; elsewhere shrink to [c, b] and reuse d as the
        # new left interior point.  Only the remaining interior point is
        # fresh, so each iteration costs a single objective evaluation.
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        h = b - a
        fresh = a + np.where(left, inv_phi2, inv_phi) * h
        f_fresh = func(fresh, rows)
        c, d = np.where(left, fresh, d), np.where(left, c, fresh)
        fc, fd = np.where(left, f_fresh, fd), np.where(left, fc, f_fresh)
    # Iteration cap reached: record the searches still running.
    x[rows] = np.where(fc < fd, c, d)
    fx[rows] = np.minimum(fc, fd)
    return x, fx


def bracketed_minimum(
    func: Callable[[np.ndarray], np.ndarray],
    n_grid: int = 32,
    lo: float = 0.0,
    hi: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Coarse grid scan that brackets the global minimum on ``[lo, hi]``.

    GSS assumes unimodality.  The squared distance from a point to a
    cubic Bezier curve can have up to three local minima, so Algorithm 1
    is made robust by first scanning ``n_grid`` evenly spaced values and
    then returning, for each search, the bracket ``[s* - step, s* + step]``
    around the best grid point ``s*``.

    ``func`` takes a grid vector of shape ``(g,)`` broadcast over all
    searches and must return values of shape ``(n, g)`` — one row per
    independent search.

    Returns
    -------
    (bracket_lo, bracket_hi):
        Arrays of shape ``(n,)`` delimiting a per-search bracket that
        contains the best grid point.
    """
    if n_grid < 3:
        raise ConfigurationError(f"n_grid must be >= 3, got {n_grid}")
    grid = np.linspace(lo, hi, n_grid)
    values = func(grid)
    values = np.atleast_2d(values)
    best = np.argmin(values, axis=1)
    step = (hi - lo) / (n_grid - 1)
    bracket_lo = np.clip(grid[best] - step, lo, hi)
    bracket_hi = np.clip(grid[best] + step, lo, hi)
    return bracket_lo, bracket_hi
