"""Benchmark inputs and output oracles.

The model is one fixed d=4 RPC fit (fixed data, fixed ``random_state``)
saved with ``save_model``.  The workload seed only chooses which rows
the benchmark sends: rows are resampled from the fit's own training
cloud with fresh noise, so every seed draws from the same distribution
and seeds stay comparable.  The oracles score the same rows in process
with the same backend the CLI defaults to (``auto``).
"""

from __future__ import annotations

import pathlib
import warnings
from typing import List, Tuple

import numpy as np

ALPHA = [1.0, 1.0, -1.0, 1.0]
FIT_ROWS = 300
NOISE = 0.03
#: Rows of the ranking CSV.  With MEMORY_BUDGET_ROWS this forces seven
#: spilled runs plus an in-memory tail, and it splits into eight shard
#: blocks of ROWS_PER_BLOCK.  The size keeps a job near one second, so a
#: measured window holds enough fresh-process repetitions for a steady
#: median on a noisy 2-core box.
CSV_ROWS = 60_000
MEMORY_BUDGET_ROWS = 8_192
ROWS_PER_BLOCK = 8_192
ATTRIBUTES = ["a1", "a2", "a3", "a4"]
BACKEND = "auto"


def _training_cloud() -> np.ndarray:
    from repro.data import sample_monotone_cloud

    return sample_monotone_cloud(
        alpha=np.asarray(ALPHA), n=FIT_ROWS, seed=0, noise=NOISE
    ).X


def fit_model(path: pathlib.Path):
    """Fit the fixed model, save it to ``path`` and return the loaded copy."""
    from repro import RankingPrincipalCurve, load_model, save_model

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = RankingPrincipalCurve(
            alpha=ALPHA, random_state=0, n_restarts=1
        ).fit(_training_cloud())
    save_model(model, path, feature_names=ATTRIBUTES)
    return load_model(path)


def sample_rows(seed: int, n: int) -> np.ndarray:
    """``n`` rows like the training data, chosen by ``seed``."""
    base = _training_cloud()
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, base.shape[0], size=n)
    return base[picks] + rng.normal(0.0, NOISE, size=(n, base.shape[1]))


def score(model, X: np.ndarray) -> np.ndarray:
    from repro import score_batch

    return score_batch(model, X, backend=BACKEND)


def ranking_entries(scores: np.ndarray, labels: List[str]) -> list:
    """A rank response's ``ranking`` list, built the way the daemon does."""
    from repro import build_ranking_list

    ranking = build_ranking_list(scores, labels=labels)
    return [
        {
            "position": int(ranking.positions[idx]),
            "label": ranking.labels[idx],
            "score": float(ranking.scores[idx]),
        }
        for idx in ranking.order
    ]


def write_rank_csv(seed: int, path: pathlib.Path) -> Tuple[np.ndarray, list]:
    """Write the ranking input CSV; return its rows and labels."""
    X = sample_rows(seed, CSV_ROWS)
    labels = [f"o{i}" for i in range(CSV_ROWS)]
    with path.open("w", newline="") as handle:
        handle.write(",".join(["label"] + ATTRIBUTES) + "\n")
        for label, row in zip(labels, X.tolist()):
            handle.write(label + "," + ",".join(map(repr, row)) + "\n")
    return X, labels


def expected_ranking_csv(
    model, X: np.ndarray, labels: list, path: pathlib.Path
) -> bytes:
    """The in-memory ``build_ranking_list`` ranking, saved as a CSV."""
    from repro import build_ranking_list
    from repro.data.loaders import save_ranking_csv

    save_ranking_csv(path, build_ranking_list(score(model, X), labels=labels))
    return path.read_bytes()
