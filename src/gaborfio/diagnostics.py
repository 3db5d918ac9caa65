"""Log-log regression, the exact operator norm, and JSON run reports."""

import json
from dataclasses import dataclass, asdict
from typing import List, Tuple

import numpy as np


@dataclass
class DecayReport:
    """Log-log envelope fit with a pass/fail verdict against a claimed rate."""

    pairs: List[Tuple[float, float]]   # (log distance, log max magnitude)
    slope: float
    intercept: float
    residual: float
    claim: float
    tolerance: float
    verdict: bool

    def to_dict(self):
        return asdict(self)


@dataclass
class NormEstimate:
    value: float
    confidence_note: str

    def to_dict(self):
        return asdict(self)


def loglog_fit(points) -> Tuple[float, float, float]:
    """Least-squares line through (log x, log y); returns (slope, intercept, residual).

    The residual is the RMS deviation of log y from the fitted line.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 points")
    if np.any(pts <= 0):
        raise ValueError("log-log fit needs positive coordinates")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    if np.ptp(lx) < 1e-12:
        raise ValueError("degenerate abscissa spread")
    coef = np.polyfit(lx, ly, 1)
    fit = np.polyval(coef, lx)
    residual = float(np.sqrt(np.mean((ly - fit) ** 2)))
    return float(coef[0]), float(coef[1]), residual


def operator_norm(M) -> NormEstimate:
    """Largest singular value of a dense square matrix, exact from LAPACK."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("operator_norm expects a square matrix")
    if M.shape[0] > 1024:
        raise ValueError("dense operator_norm limited to n^d <= 1024")
    return NormEstimate(float(np.linalg.norm(M, 2)), "exact singular value")


def write_report(path, config: dict, slopes: dict, norms: dict,
                 verdicts: dict, provenance: dict):
    """Serialize a structured run report as JSON."""
    doc = {
        "config": config,
        "slopes": slopes,
        "norms": norms,
        "verdicts": verdicts,
        "provenance": provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return doc


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (DecayReport, NormEstimate)):
        return obj.to_dict()
    raise TypeError(f"not JSON serializable: {type(obj)}")
