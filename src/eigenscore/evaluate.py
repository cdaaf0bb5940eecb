"""Detection metrics: AUROC with tie handling and an explicit ROC curve."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, NonFiniteError


@dataclass
class RocResult:
    auroc: float
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    n_ind: int
    n_ood: int

    def to_dict(self) -> dict:
        return {
            "auroc": self.auroc,
            "thresholds": [float(v) for v in self.thresholds],
            "fpr": [float(v) for v in self.fpr],
            "tpr": [float(v) for v in self.tpr],
            "n_ind": self.n_ind,
            "n_ood": self.n_ood,
        }


def _check(scores, name):
    arr = np.asarray(scores, dtype=float).reshape(-1)
    if arr.size == 0:
        raise EmptyInputError(f"no {name} scores")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite {name} score")
    return arr


def auroc(ind_scores, ood_scores) -> RocResult:
    """Probability a random out-of-distribution score exceeds an in-distribution
    one, ties counted half: Mann-Whitney U, counted from the sorted scores, with
    the curve swept over the distinct scores as thresholds (predict
    out-of-distribution when score >= threshold).
    """
    ind = _check(ind_scores, "in-distribution")
    ood = _check(ood_scores, "out-of-distribution")
    n_i, n_o = ind.size, ood.size
    # before sorting, which can change the sign kept of a tied 0.0 and -0.0
    thresholds = np.unique(np.concatenate([ind, ood]))[::-1]
    ind, ood = np.sort(ind), np.sort(ood)

    # per ood score: the ind scores below it plus half the ties, summed exactly
    u = np.sum(np.searchsorted(ind, ood, "left") + np.searchsorted(ind, ood, "right")) / 2.0
    area = u / (n_i * n_o)

    # scores >= th: everything from th's leftmost insertion point on
    fpr = (n_i - np.searchsorted(ind, thresholds, side="left")) / n_i
    tpr = (n_o - np.searchsorted(ood, thresholds, side="left")) / n_o
    return RocResult(
        auroc=float(area),
        thresholds=thresholds,
        fpr=np.concatenate([[0.0], fpr]),
        tpr=np.concatenate([[0.0], tpr]),
        n_ind=n_i,
        n_ood=n_o,
    )


def curve_area(result: RocResult) -> float:
    """Trapezoid area under the swept curve; matches the rank statistic."""
    return float(np.trapezoid(result.tpr, result.fpr))
