"""Regression utilities, operator-norm estimators, weight audits, reports."""

import json
from dataclasses import dataclass, field, asdict
from typing import List, Tuple

import numpy as np

from .core import Weight


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
    method: str                        # 'singular-value' | 'probe-sup'
    probes: int = 0
    confidence_note: str = ""

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


def operator_norm(M, method: str = "singular-value", probes: int = 200,
                  seed: int = 0) -> NormEstimate:
    """Largest singular value of a dense matrix.

    'singular-value': exact, the largest singular value from LAPACK.
    'probe-sup': max of ||M f|| / ||f|| over random Gaussian probes, a
    lower bound by construction.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("operator_norm expects a square matrix")
    if M.shape[0] > 1024:
        raise ValueError("dense operator_norm limited to n^d <= 1024")
    if method == "probe-sup":
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(probes):
            f = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
            best = max(best, float(np.linalg.norm(M @ f) / np.linalg.norm(f)))
        return NormEstimate(best, "probe-sup", probes,
                            "lower bound from random probes")
    if method != "singular-value":
        raise ValueError(f"unknown method {method!r}")
    return NormEstimate(float(np.linalg.norm(M, 2)), "singular-value", 0,
                        "exact singular value")


def moderate_audit(m: Weight, v: Weight, samples: int = 1000,
                   radius: float = 10.0, dim: int = 2, seed: int = 0,
                   radius_sweep=(5.0, 10.0, 20.0)):
    """Smallest sampled C with m(z+w) <= C v(z) m(w); flags growth with radius.

    Returns (C_best, passes) where passes is False when the constant keeps
    growing as the sampling radius increases (v too weak to moderate m).
    """
    rng = np.random.default_rng(seed)
    consts = []
    for R in radius_sweep:
        z = rng.uniform(-R, R, size=(samples, dim))
        w = rng.uniform(-R, R, size=(samples, dim))
        consts.append(float(np.max(m(z + w) / (v(z) * m(w)))))
    z = rng.uniform(-radius, radius, size=(samples, dim))
    w = rng.uniform(-radius, radius, size=(samples, dim))
    c_best = float(np.max(m(z + w) / (v(z) * m(w))))
    growing = consts[-1] > 2.0 * consts[0]
    return c_best, not growing


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
