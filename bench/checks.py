"""Checks of each workload's outputs, computed apart from the program.

Each check reads what the CLI wrote into its --out directory and returns a
list of failure messages; an empty list means the outputs are right.  The
checks rest on properties the method must have, recomputed here with
numpy from their definitions:

- frame-check: the Walnut representation of the frame operator of a
  separable lattice diag(a, b) (Walnut 1992), which must be the identity
  on the tight window and must map the dual window back to the Gaussian;
- approximate: the masked identity T_L = A (C o [|lam - chi'(mu)| <= L]) A^H,
  C = A^H T A, for the truncated shifted-multiplier sum;
- decay-scan: a log-log least-squares refit of the decay bins;
- dilation-demo: a fine quadrature of the defining Gaussian integral.

Only the random band-limited symbol, an input of the approximate
workload, is taken from gaborfio itself (its random stream defines it).
"""

import json
import os

import numpy as np

TWO_PI = 2.0 * np.pi

# Agreement tolerances.  CSV values carry 17 significant digits, so a
# re-read value equals the written one; the tolerances cover the
# different summation order of an independent computation.
WALNUT_TOL = 1e-10          # tight window: deviation from the identity
DUAL_RTOL = 1e-9            # S gamma = g, relative to max |g|
RECONSTRUCTION_TOL = 1e-9   # the CLI's full-reconstruction residual
# The CLI's ||T - T_L|| comes from power iteration stopped at a relative
# change of 1e-10 in sigma^2.  Stopping on the change rather than the
# error left it up to 2e-10 ||T|| below the SVD value in trials at n=80;
# the check allows 1e-8 ||T||.
POWER_ITERATION_RTOL = 1e-8
SLOPE_TOL = 1e-9            # refitted against the reported decay slope
DECAY_TOLERANCE = 0.75      # slope <= -s_claim + 0.75, the paper's claim
QUADRATURE_RTOL = 1e-9      # dilation symbol, relative to max |closed form|
QUADRATURE_ROWS = 64


# ------------------------------------------------------------ inputs

def _report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def _csv(out, name):
    """(header, float array of the data rows) of one CSV output."""
    path = os.path.join(out, name)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _window_csv(out, name, n):
    header, data = _csv(out, name)
    if header != ["index", "re", "im"] or data.shape != (n, 3):
        raise ValueError(f"{name}: expected {n} rows of index,re,im")
    if not np.array_equal(data[:, 0], np.arange(n)):
        raise ValueError(f"{name}: indices are not 0..{n - 1}")
    return data[:, 1] + 1j * data[:, 2]


def _verdicts(report, *names):
    verdicts = report.get("verdicts", {})
    return [f"verdict {name} is {verdicts.get(name)!r}, expected true"
            for name in names if verdicts.get(name) is not True]


def _separable_steps(cfg):
    gen = np.asarray(cfg["lattice"]["generator"])
    return int(gen[0, 0]), int(gen[1, 1])


# ------------------------------------------------------------ the grid model

def symmetric_index(n):
    """Indices 0..n-1 as representatives in (-n/2, n/2]."""
    j = np.arange(n)
    return np.where(j > n // 2, j - n, j)


def unit_gaussian(n):
    """e^{-pi x^2} sampled at x = j / sqrt(n), normalised to unit l2 norm."""
    g = np.exp(-np.pi * symmetric_index(n) ** 2 / n)
    return g / np.linalg.norm(g)


def walnut_table(g, n, a, b):
    """P[k, r] = (n/b) sum_{x in aZ_n} g[r-x] conj(g[r-x-k n/b]).

    For the separable lattice aZ_n x bZ_n (grid steps) the frame operator
    S = sum_lam pi(lam) g (pi(lam) g)^H has S[j, j - k n/b] = P[k, j mod a]
    for k = 0..b-1 and is zero elsewhere.
    """
    step = n // b
    P = np.empty((b, a), dtype=complex)
    for k in range(b):
        prod = g * np.conj(np.roll(g, k * step))
        P[k] = (n / b) * prod.reshape(n // a, a).sum(axis=0)
    return P


def walnut_apply(P, f, n, a, b):
    """S f from the Walnut table of S."""
    step = n // b
    rows = np.arange(n) % a
    return sum(P[k, rows] * np.roll(f, k * step) for k in range(b))


def walnut_dense(P, n, a, b):
    """Dense n x n frame operator from its Walnut table."""
    step = n // b
    j = np.arange(n)
    S = np.zeros((n, n), dtype=complex)
    for k in range(b):
        S[j, (j - k * step) % n] = P[k, j % a]
    return S


def tight_window(n, a, b):
    """Canonical tight window S^{-1/2} g of the unit Gaussian."""
    g = unit_gaussian(n)
    S = walnut_dense(walnut_table(g, n, a, b), n, a, b)
    evals, vecs = np.linalg.eigh(0.5 * (S + S.conj().T))
    return vecs @ ((vecs.conj().T @ g) / np.sqrt(evals))


def separable_points(n, a, b):
    """Lattice points (x, m) of aZ_n x bZ_n in grid steps, shape (N, 2)."""
    xs, ms = np.meshgrid(np.arange(0, n, a), np.arange(0, n, b),
                         indexing="ij")
    return np.column_stack([xs.ravel(), ms.ravel()])


def atoms(g, points, n):
    """Columns pi(x, m) g, with (pi(x, m) g)[j] = g[j-x] e^{2 pi i j m/n}."""
    j = np.arange(n)[:, None]
    x, m = points[:, 0][None, :], points[:, 1][None, :]
    return g[(j - x) % n] * np.exp(TWO_PI * 1j * j * m / n)


# ------------------------------------------------------------ frame-check

def check_frame_check(out, cfg, seed):
    report = _report(out)
    errors = _verdicts(report, "is_frame", "parseval_ok")
    n = cfg["grid"]["n"]
    a, b = _separable_steps(cfg)
    tight = _window_csv(out, "tight_window.csv", n)
    P = walnut_table(tight, n, a, b)
    identity = np.zeros((b, a))
    identity[0] = 1.0
    dev = float(np.max(np.abs(P - identity)))
    if not dev <= WALNUT_TOL:
        errors.append(f"tight window: Walnut table deviates from the "
                      f"identity by {dev:.3g} > {WALNUT_TOL:g}")
    g = unit_gaussian(n)
    dual = _window_csv(out, "dual_window.csv", n)
    back = walnut_apply(walnut_table(g, n, a, b), dual, n, a, b)
    rel = float(np.max(np.abs(back - g)) / np.max(np.abs(g)))
    if not rel <= DUAL_RTOL:
        errors.append(f"dual window: S gamma differs from the Gaussian by "
                      f"{rel:.3g} (relative) > {DUAL_RTOL:g}")
    return errors


# ------------------------------------------------------------ approximate

def perturbed_chi(y, eta, eps, iterations=50):
    """chi(y, eta) = (x, xi) of Phi = x eta + eps sin x sin eta.

    x solves y = d/d eta Phi = x + eps sin x cos eta (Newton from x = y),
    and xi = d/dx Phi = eta + eps cos x sin eta.
    """
    x = np.array(y, dtype=float)
    for _ in range(iterations):
        res = x + eps * np.sin(x) * np.cos(eta) - y
        if np.max(np.abs(res)) < 1e-15:
            break
        x = x - res / (1.0 + eps * np.cos(x) * np.cos(eta))
    return x, eta + eps * np.cos(x) * np.sin(eta)


def perturbed_fio(symbol, n, eps):
    """Dense T f(x_j) = sum_m e^{2 pi i Phi(x_j, eta_m)} sigma[j, m] fhat(eta_m) h."""
    h = 1.0 / np.sqrt(n)
    x = symmetric_index(n) * h
    X, E = x[:, None], x[None, :]
    phase = X * E + eps * np.sin(X) * np.sin(E)
    kernel = np.exp(TWO_PI * 1j * phase) * symbol * h
    j = np.arange(n)
    F = np.exp(-TWO_PI * 1j * np.outer(j, j) / n) / np.sqrt(n)
    return kernel @ F


def masked_errors(T, g, n, a, b, chi_steps, L_list):
    """||T - A (C o [|lam - chi'(mu)| <= L]) A^H||_2 for each L, C = A^H T A.

    chi_steps: chi(mu) in grid steps for every lattice point mu, in the
    order of separable_points; chi'(mu) rounds it down onto the lattice.
    """
    pts = separable_points(n, a, b)
    A = atoms(g, pts, n)
    C = A.conj().T @ T @ A                          # [lam, mu]
    chi_prime = np.floor(chi_steps / np.array([a, b]) + 1e-9) * [a, b]
    diff = pts[:, None, :] - chi_prime[None, :, :]  # lam - chi'(mu)
    wrapped = (diff + n // 2) % n - n // 2          # (-n/2, n/2] up to sign
    dist = np.sqrt(np.sum(wrapped.astype(float) ** 2, axis=-1) / n)
    return [float(np.linalg.norm(T - A @ ((dist <= L + 1e-12) * C)
                                 @ A.conj().T, 2)) for L in L_list]


def check_approximate(out, cfg, seed):
    from gaborfio.core import Grid
    from gaborfio.fio import bandlimited_symbol

    report = _report(out)
    errors = _verdicts(report, "full_reconstruction_ok", "non_increasing")
    resid = report.get("norms", {}).get("full_reconstruction_residual_max")
    if not (isinstance(resid, float) and resid < RECONSTRUCTION_TOL):
        errors.append(f"full reconstruction residual {resid!r} is not "
                      f"below {RECONSTRUCTION_TOL:g}")
    header, curve = _csv(out, "truncation_error.csv")
    L_list = [float(L) for L in cfg["L_list"]]
    if header != ["L", "error"] or curve[:, 0].tolist() != L_list:
        return errors + [f"truncation_error.csv: expected rows L = {L_list}"]
    reported = curve[:, 1]
    if np.any(np.diff(reported) > 0):
        errors.append(f"error curve increases: {reported.tolist()}")
    n = cfg["grid"]["n"]
    a, b = _separable_steps(cfg)
    eps = float(cfg["phase"]["params"]["eps"])
    N_band = float(cfg["symbol"]["params"]["N"])
    symbol = bandlimited_symbol(Grid(n), N_band, seed=seed).values
    T = perturbed_fio(symbol, n, eps)
    pts = separable_points(n, a, b)
    h = 1.0 / np.sqrt(n)
    y = symmetric_index(n)[pts[:, 0]] * h
    eta = symmetric_index(n)[pts[:, 1]] * h
    x, xi = perturbed_chi(y, eta, eps)
    chi_steps = np.column_stack([x, xi]) / h
    g = tight_window(n, a, b)
    expected = np.array(masked_errors(T, g, n, a, b, chi_steps, L_list))
    tol = POWER_ITERATION_RTOL * float(np.linalg.norm(T, 2))
    worst = float(np.max(np.abs(expected - reported)))
    if not worst <= tol:
        errors.append(f"||T - T_L|| differs from the masked identity by "
                      f"{worst:.3g} > {tol:.3g}: reported "
                      f"{reported.tolist()}, expected {expected.tolist()}")
    return errors


# ------------------------------------------------------------ decay-scan

def loglog_slope(distance, magnitude):
    """Least-squares slope of log magnitude against log distance."""
    X = np.column_stack([np.log(distance), np.ones(distance.size)])
    coef, *_ = np.linalg.lstsq(X, np.log(magnitude), rcond=None)
    return float(coef[0])


def check_decay_scan(out, cfg, seed):
    report = _report(out)
    errors = _verdicts(report, "decay_ok")
    header, bins = _csv(out, "decay_bins.csv")
    if header != ["distance", "max_abs_G"] or bins.shape[0] < 4:
        return errors + ["decay_bins.csv: expected at least 4 bins"]
    slope = loglog_slope(bins[:, 0], bins[:, 1])
    claimed = report.get("slopes", {}).get("envelope", {}).get("slope")
    if not (isinstance(claimed, float) and abs(slope - claimed) <= SLOPE_TOL):
        errors.append(f"refitted slope {slope!r} differs from the "
                      f"reported {claimed!r}")
    bound = -float(cfg["s_claim"]) + DECAY_TOLERANCE
    if not slope <= bound:
        errors.append(f"decay slope {slope:.4f} > {bound:.4f}")
    return errors


# ------------------------------------------------------------ dilation-demo

def dilation_symbol_quadrature(s, alpha, beta, k, l, kp, lp,
                               half_width=8.0, points=8001):
    """c_{nu,mu} <D_s pi(mu) g, pi(chi'(mu) + nu) g>, g = e^{-pi t^2}.

    mu = (alpha k, beta l), nu = (alpha kp, beta lp), D_s f(t) = f(s t),
    chi'(mu) = (alpha floor(k/s), beta floor(s l)); the inner product is a
    trapezoid sum of the defining integral around its Gaussian's centre,
    and c_{nu,mu} = e^{2 pi i x_nu eta_{chi'(mu)}}.
    """
    k, l, kp, lp = (np.asarray(v, dtype=float)[:, None]
                    for v in (k, l, kp, lp))
    u = alpha * k                           # D_s pi(mu) g = e^{..} g(s t - u)
    v = alpha * (np.floor(k / s) + kp)      # time of chi'(mu) + nu
    theta = beta * (s * l - np.floor(s * l) - lp)
    centre = (s * u + v) / (s * s + 1.0)
    t = centre + np.linspace(-half_width, half_width, points)[None, :]
    f = (np.exp(TWO_PI * 1j * theta * t) * np.exp(-np.pi * (s * t - u) ** 2)
         * np.exp(-np.pi * (t - v) ** 2))
    inner = np.trapezoid(f, t, axis=1)
    c = np.exp(TWO_PI * 1j * alpha * kp[:, 0] * beta * np.floor(s * l[:, 0]))
    return c * inner


def check_dilation_demo(out, cfg, seed):
    report = _report(out)
    errors = _verdicts(report, "closed_form_ok", "unimodular_ok")
    header, rows = _csv(out, "dilation_symbols.csv")
    cols = ["k", "l", "kp", "lp", "closed_form_re", "closed_form_im"]
    if header[:6] != cols or rows.shape[0] == 0:
        return errors + [f"dilation_symbols.csv: expected columns {cols}"]
    n = cfg["grid"]["n"]
    a, b = _separable_steps(cfg)
    s = float(cfg["phase"]["params"]["s"])
    h = 1.0 / np.sqrt(n)
    rng = np.random.default_rng(seed)
    pick = rng.choice(rows.shape[0], size=min(QUADRATURE_ROWS, rows.shape[0]),
                      replace=False)
    k, l, kp, lp, re, im = rows[pick, :6].T
    expected = dilation_symbol_quadrature(s, a * h, b * h, k, l, kp, lp)
    scale = float(np.max(np.hypot(rows[:, 4], rows[:, 5])))
    worst = float(np.max(np.abs(re + 1j * im - expected)) / scale)
    if not worst <= QUADRATURE_RTOL:
        errors.append(f"closed-form symbols differ from quadrature by "
                      f"{worst:.3g} (relative) > {QUADRATURE_RTOL:g}")
    return errors


CHECKS = {
    "frame-check": check_frame_check,
    "approximate": check_approximate,
    "decay-scan": check_decay_scan,
    "dilation-demo": check_dilation_demo,
}
