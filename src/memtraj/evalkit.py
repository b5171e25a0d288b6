"""Best-of-K trajectory metrics and batch evaluation.

minADE_K is the smallest per-step mean displacement over the K proposals;
minFDE_K the smallest final-step displacement. Both are computed in world
coordinates after denormalization. ``evaluate`` runs the full prediction
chain over a dataset and aggregates per-scene rows into a report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .datasets import SceneSet
from .inference import ModelBundle, predict_scenes
from .numkit import atomic_open

logger = logging.getLogger(__name__)


def _check_pred_gt(predictions, ground_truth) -> tuple[np.ndarray, np.ndarray]:
    preds = np.asarray(predictions, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if preds.ndim != 3 or preds.shape[2] != 2:
        raise ValueError(f"predictions must have shape (k, steps, 2), got {preds.shape}")
    if preds.shape[0] < 1:
        raise ValueError("need at least one predicted trajectory")
    if gt.shape != preds.shape[1:]:
        raise ValueError(f"ground truth shape {gt.shape} does not match predictions {preds.shape[1:]}")
    return preds, gt


def min_ade(predictions, ground_truth) -> float:
    """Best-of-K mean per-step displacement."""
    preds, gt = _check_pred_gt(predictions, ground_truth)
    per_step = np.linalg.norm(preds - gt[None, :, :], axis=2)
    return float(per_step.mean(axis=1).min())


def min_fde(predictions, ground_truth) -> float:
    """Best-of-K final-step displacement."""
    preds, gt = _check_pred_gt(predictions, ground_truth)
    return float(np.linalg.norm(preds[:, -1, :] - gt[-1], axis=1).min())


def constant_velocity(past, future_len: int) -> np.ndarray:
    """Straight-line extrapolation of the last observed step (baseline)."""
    past = np.asarray(past, dtype=np.float64)
    if past.ndim != 2 or past.shape[0] < 2:
        raise ValueError(f"need at least two past points, got shape {past.shape}")
    if future_len < 1:
        raise ValueError(f"future_len must be >= 1, got {future_len}")
    velocity = past[-1] - past[-2]
    return past[-1] + np.outer(np.arange(1, future_len + 1), velocity)


@dataclass
class SceneMetrics:
    scene_id: str
    min_ade: float
    min_fde: float
    best_k: int  # proposal index achieving the minimum final displacement


@dataclass
class MetricReport:
    """Aggregate metrics plus the per-scene rows they came from."""

    min_ade_k: float
    min_fde_k: float
    k: int
    n_scenes: int
    units: str
    rows: list[SceneMetrics]

    def summary_lines(self) -> list[str]:
        return [
            f"min_ade_k = {self.min_ade_k!r}",
            f"min_fde_k = {self.min_fde_k!r}",
            f"k = {self.k}",
            f"n_scenes = {self.n_scenes}",
            f"units = {self.units}",
        ]

    def to_csv(self, path) -> None:
        with atomic_open(path) as fh:
            fh.write("scene_id,min_ade,min_fde,best_k_index\n")
            for row in self.rows:
                fh.write("%s,%r,%r,%d\n" % (row.scene_id, row.min_ade, row.min_fde, row.best_k))


def evaluate(
    bundle: ModelBundle,
    dataset: SceneSet,
    n_predict: int,
    n_retrieve: int,
    seed: int,
    decode_mode: str = "query",
    snap_destination: bool = False,
    units: str = "units",
) -> MetricReport:
    """Predict every scene and aggregate best-of-K metrics.

    Scenes go through :func:`~memtraj.inference.predict_scenes`, so each
    clustering seed derives from (seed, scene index) and the report is
    reproducible. Predictions are reduced to their row as they arrive.
    """
    dataset.check("evaluation")

    rows = []
    predictions = predict_scenes(bundle, dataset, n_retrieve, n_predict, seed, decode_mode, snap_destination)
    for scene_id, future, pred in zip(dataset.scene_ids, dataset.futures, predictions):
        end_dists = np.linalg.norm(pred.trajectories[:, -1, :] - future[-1], axis=1)
        best_k = int(np.argmin(end_dists))
        rows.append(
            SceneMetrics(
                scene_id=scene_id,
                min_ade=min_ade(pred.trajectories, future),
                min_fde=float(end_dists[best_k]),
                best_k=best_k,
            )
        )
    return MetricReport(
        min_ade_k=float(np.mean([r.min_ade for r in rows])),
        min_fde_k=float(np.mean([r.min_fde for r in rows])),
        k=n_predict,
        n_scenes=len(rows),
        units=units,
        rows=rows,
    )
