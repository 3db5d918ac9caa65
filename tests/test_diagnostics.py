import json

import numpy as np
import pytest

from gaborfio.diagnostics import (DecayReport, NormEstimate, loglog_fit,
                                  operator_norm, write_report)


def test_loglog_fit_recovers_power_law():
    x = np.linspace(2, 40, 30)
    y = 3.7 * x ** -2.5
    slope, intercept, residual = loglog_fit(np.column_stack([x, y]))
    assert abs(slope + 2.5) < 1e-10
    assert abs(np.exp(intercept) - 3.7) < 1e-8
    assert residual < 1e-12


def test_loglog_fit_scale_invariant_slope():
    x = np.linspace(2, 40, 30)
    y = x ** -1.5 * np.exp(0.01 * np.sin(x))
    s1, _, _ = loglog_fit(np.column_stack([x, y]))
    s2, _, _ = loglog_fit(np.column_stack([x, 137.0 * y]))
    assert abs(s1 - s2) < 1e-12


def test_loglog_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        loglog_fit([(1.0, 2.0)])
    with pytest.raises(ValueError):
        loglog_fit([(1.0, 2.0), (2.0, -1.0), (3.0, 1.0)])
    with pytest.raises(ValueError):
        loglog_fit([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operator_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    ref = np.linalg.svd(M, compute_uv=False)[0]
    est = operator_norm(M)
    assert abs(est.value - ref) < 1e-6 * ref


def test_operator_norm_validation():
    with pytest.raises(ValueError):
        operator_norm(np.ones((3, 4)))
    assert operator_norm(np.zeros((5, 5))).value == 0.0


def test_write_report_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    rep = DecayReport(pairs=[(0.1, -2.0)], slope=-4.0, intercept=1.0,
                      residual=0.01, claim=4.0, tolerance=0.75, verdict=True)
    est = NormEstimate(1.5, "exact singular value")
    doc = write_report(path, {"n": 64}, {"decay": rep},
                       {"opnorm": est, "arr": np.arange(3)},
                       {"ok": True}, {"seed": 0})
    loaded = json.loads(path.read_text())
    assert loaded["config"] == {"n": 64}
    assert loaded["slopes"]["decay"]["slope"] == -4.0
    assert loaded["norms"]["arr"] == [0, 1, 2]
    assert loaded["verdicts"]["ok"] is True
    assert doc["provenance"]["seed"] == 0
