import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaborfio import cli
from gaborfio.cli import (MAX_DENSE_ENTRIES, THREAD_ENV_VARS, _configure,
                          _write_csv, main)
from gaborfio.core import Grid
from gaborfio.dilation import compare_dilation_symbols
from gaborfio import dilation, fio, frames, multiplier
from gaborfio.frames import enumerate_lattice
from gaborfio.windows import WINDOW_KINDS


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "grid": {"n": 64, "d": 1},
    "window": {"kind": "gaussian"},
    "lattice": {"generator": [[4, 0], [0, 4]]},
    "seed": 0,
}


def decay_cfg(n=64, gen=((2, 0), (0, 2))):
    return {
        "grid": {"n": n, "d": 1},
        "window": {"kind": "gaussian"},
        "lattice": {"generator": [list(r) for r in gen]},
        "phase": {"kind": "dilation", "params": {"s": 2.0}},
        "symbol": {"kind": "bandlimited", "params": {"N": 2}},
        "s_claim": 4.0,
        "seed": 0,
    }


def approximate_cfg():
    doc = decay_cfg(gen=((4, 0), (0, 4)))
    doc["L_list"] = [1, 2, 4, 8, 16]
    return doc


def test_frame_check_success(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", BASE)
    out = str(tmp_path / "out")
    assert main(["frame-check", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["parseval_ok"]
    assert rep["norms"]["parseval_residual"] < 1e-8
    assert (tmp_path / "out" / "tight_window.csv").exists()
    assert (tmp_path / "out" / "dual_window.csv").exists()


def test_config_error_exit_1_with_error_list(tmp_path, capsys):
    doc = dict(BASE)
    doc["window"] = {"kind": "hamming"}
    doc["lattice"] = {"generator": [[3, 0], [0, 3]]}
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["frame-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    errs = json.loads(capsys.readouterr().err)["errors"]
    fields = {e["field"] for e in errs}
    assert "window.kind" in fields and "lattice.generator" in fields


def test_missing_config_exit_1(tmp_path):
    assert main(["frame-check", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_not_a_frame_exit_2(tmp_path):
    doc = dict(BASE)
    doc["lattice"] = {"generator": [[16, 0], [0, 16]]}   # 16 atoms in dim 64
    cfg = write_cfg(tmp_path, "c.json", doc)
    out = str(tmp_path / "out")
    assert main(["frame-check", "--config", cfg, "--out", out]) == 2
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["is_frame"] is False


@pytest.mark.parametrize("command", ["frame-check", "decay-scan",
                                     "approximate", "dilation-demo"])
def test_not_a_frame_exit_2_with_error_list(tmp_path, capsys, command):
    doc = decay_cfg(gen=((16, 0), (0, 16)))            # 16 atoms in dim 64
    doc["L_list"] = [1, 2, 4]
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    errs = json.loads(capsys.readouterr().err)["errors"]
    assert errs and "not a frame" in errs[0]["error"]


def test_decay_scan_success_and_csv(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", decay_cfg())
    out = str(tmp_path / "out")
    assert main(["decay-scan", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["decay_ok"]
    body = (tmp_path / "out" / "decay_bins.csv").read_bytes()
    assert body.startswith(b"distance,max_abs_G\n")
    assert b"\r" not in body


def test_decay_scan_transports_the_linear_phase_at_n256(tmp_path):
    # With the symbol's band fixed in continuum units, the band-limited
    # symbol moves no packet off chi(mu) at n = 256: the largest row
    # maximum lies 1.25 from chi(mu), within the bound 1.354 (2.016 with
    # the band in index units, n / 4N).
    doc = decay_cfg(n=256, gen=((4, 0), (0, 4)))
    doc["phase"] = {"kind": "linear"}
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["decay-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["verdicts"]["transport_ok"]


def test_decay_scan_insufficient_range_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", decay_cfg(n=16))
    assert main(["decay-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert set(rep["norms"]) == {"transport_max_dist", "transport_bound"}
    assert rep["verdicts"] == {
        "error": "usable distance range [2, 1.5] is empty"}


def refuse_gabor_matrix(monkeypatch):
    """Make every binding of fio.gabor_matrix, the one store of the N x N
    Gabor matrix, raise."""
    def refuse(*args):
        raise AssertionError("the run stored the N x N Gabor matrix")
    for module in (fio, multiplier):
        monkeypatch.setattr(module, "gabor_matrix", refuse)


def test_decay_scan_reads_the_blocks_once(tmp_path, monkeypatch):
    # One set of distance tables; one coset-order analysis kernel call per
    # column block of A^H T A, each block computed once and every mu in
    # exactly one block.  T A comes a group of whole translations at a
    # time, each translation's columns made once (the fio._coset_fold
    # calls that make them take N_t translations in all), and each kernel
    # call takes columns of T A as wide as its block: no n x N matrix
    # T A, and no N x N Gabor matrix.
    calls = {"_distance_tables": 0}

    def counted(*args, _f=fio._distance_tables):
        calls["_distance_tables"] += 1
        return _f(*args)
    monkeypatch.setattr(fio, "_distance_tables", counted)
    chunks = []   # the shape of T A's columns at each kernel call

    def analysed(TA, *args, _f=fio._coset_analysis):
        chunks.append(TA.shape)
        return _f(TA, *args)
    monkeypatch.setattr(fio, "_coset_analysis", analysed)
    made = []

    def fold(G0h, *args, _f=fio._coset_fold):
        made.append(G0h.shape[1])   # the translations this call makes
        return _f(G0h, *args)
    monkeypatch.setattr(fio, "_coset_fold", fold)

    refuse_gabor_matrix(monkeypatch)
    columns = []

    def recorded(*args, _f=fio.gabor_columns):
        for mus, block in _f(*args):
            columns.append(mus)
            yield mus, block
    monkeypatch.setattr(cli, "gabor_columns", recorded)
    cfg = write_cfg(tmp_path, "c.json", decay_cfg())
    assert main(["decay-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    n, N = 64, 64 ** 2 // 4
    assert len(columns) > 1
    assert np.array_equal(np.concatenate([np.arange(N)[mus]
                                          for mus in columns]), np.arange(N))
    assert calls == {"_distance_tables": 1}
    assert chunks == [(n, len(range(N)[mus])) for mus in columns]
    lat = enumerate_lattice(np.diag([2, 2]), Grid(n))
    assert sum(made) == lat.cosets.index.shape[1]


# decay-scan's tracemalloc peak at n = 160, diag(4, 4), with T A made one
# translation at a time: 8.5 MB on a process's first run, 7.5 MB after
# (numpy 2, x86-64), so the bound leaves a 12 % margin.  Holding T A and
# its conjugate-transpose copy, two n x N arrays of 4.1 MB each, peaked
# at 10.8-11.9 MB.
DECAY_SCAN_PEAK_BYTES = 9.5e6


def test_decay_scan_holds_less_than_one_gabor_matrix(tmp_path):
    # n = 160, diag(4, 4): N = 1600, and A^H T A would take N^2 x 16 B.
    cfg = write_cfg(tmp_path, "c.json", decay_cfg(n=160, gen=((4, 0), (0, 4))))
    tracemalloc.start()
    try:
        code = main(["decay-scan", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1600 ** 2 * 16
    assert peak < DECAY_SCAN_PEAK_BYTES


def test_dilation_demo_holds_less_than_one_gabor_matrix(tmp_path):
    # The dense cap, n = 1024, diag(16, 16): N = 4096, and A^H T A would
    # take N^2 x 16 B = 268 MB.  The 113 shifts with |nu| <= 3 are read
    # from the column-block stream; storing the matrix peaked at 351 MB.
    doc = dict(DILATION_CFG, grid={"n": 1024, "d": 1},
               lattice={"generator": [[16, 0], [0, 16]]})
    cfg = write_cfg(tmp_path, "c.json", doc)
    tracemalloc.start()
    try:
        code = main(["dilation-demo", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4096 ** 2 * 16


# approximate's tracemalloc peak at n = 160, diag(4, 4), where one N x N
# complex matrix takes 1600^2 x 16 B = 41 MB: 52-53 MB with the Gabor
# matrix held once and masked and synthesized a column block at a time
# (numpy 2, x86-64).  A masked N x N copy beside it peaked at 93-95 MB.
APPROXIMATE_PEAK_BYTES = 1.6 * 1600 ** 2 * 16


def test_approximate_holds_one_gabor_matrix(tmp_path):
    doc = dict(approximate_cfg(), grid={"n": 160, "d": 1})
    cfg = write_cfg(tmp_path, "c.json", doc)
    tracemalloc.start()
    try:
        code = main(["approximate", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < APPROXIMATE_PEAK_BYTES


def test_decay_scan_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", decay_cfg())
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["decay-scan", "--config", cfg, "--out", out]) == 0
        outs.append((tmp_path / name / "decay_bins.csv").read_bytes()
                    + (tmp_path / name / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_approximate_success(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", approximate_cfg())
    out = str(tmp_path / "out")
    assert main(["approximate", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["non_increasing"]
    assert rep["verdicts"]["full_reconstruction_ok"]
    assert rep["slopes"]["truncation_slope"] < -1.25
    body = (tmp_path / "out" / "truncation_error.csv").read_text()
    assert body.splitlines()[0] == "L,error"


def test_approximate_gathers_no_symbols(tmp_path, monkeypatch):
    def gather(*args):
        raise AssertionError("approximate gathered a symbol")
    monkeypatch.setattr(multiplier, "commutation_factors", gather)
    monkeypatch.setattr(frames.Lattice, "add", gather)
    cfg = write_cfg(tmp_path, "c.json", approximate_cfg())
    assert main(["approximate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


def test_approximate_builds_the_distance_tables_once(tmp_path, monkeypatch):
    # One stored Gabor matrix, and one set of distance tables
    # |lambda - chi'(mu)| for it, masked once per L and once more for the
    # full reconstruction.
    calls = {"gabor_matrix": 0, "_distance_tables": 0,
             "assemble_truncated": 0}
    for modules, name in (((multiplier,), "gabor_matrix"),
                          ((multiplier,), "_distance_tables"),
                          ((multiplier, cli), "assemble_truncated")):
        def counted(*args, _name=name, _f=getattr(multiplier, name)):
            calls[_name] += 1
            return _f(*args)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    doc = approximate_cfg()
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["approximate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == {"gabor_matrix": 1, "_distance_tables": 1,
                     "assemble_truncated": len(doc["L_list"]) + 1}


def test_approximate_partial_radius_reconstructs_in_full(tmp_path):
    # The full reconstruction is A cross A^H, whatever the largest L or a
    # stray nu_radius, which approximate does not read.
    doc = dict(decay_cfg(gen=((4, 0), (0, 4))), L_list=[0.5, 1, 2],
               nu_radius=2)
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["approximate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["full_reconstruction_ok"] is True
    assert rep["norms"]["full_reconstruction_residual_max"] < 1e-9


def test_approximate_ignores_nu_radius(tmp_path):
    # Every T_L masks the one Gabor matrix, so no L is out of reach.
    doc = decay_cfg(gen=((4, 0), (0, 4)))
    doc["L_list"] = [1, 2, 4]
    bodies = []
    for name, extra in (("plain", {}), ("radius", {"nu_radius": 2.0})):
        cfg = write_cfg(tmp_path, f"{name}.json", dict(doc, **extra))
        assert main(["approximate", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0
        bodies.append((tmp_path / name / "truncation_error.csv").read_bytes())
    assert bodies[0] == bodies[1]


DILATION_CFG = {
    "grid": {"n": 256, "d": 1},
    "window": {"kind": "gaussian"},
    "lattice": {"generator": [[4, 0], [0, 4]]},
    "phase": {"kind": "dilation", "params": {"s": 2.0}},
    "nu_radius": 3.0,
    "seed": 0,
}


@pytest.mark.parametrize("command,doc", [
    ("frame-check", BASE), ("decay-scan", decay_cfg()),
    ("approximate", approximate_cfg()),
    ("dilation-demo", dict(DILATION_CFG, grid={"n": 64, "d": 1}))])
def test_a_run_builds_its_coset_tables_once(tmp_path, monkeypatch, command,
                                            doc):
    # Lattice.cosets is made once per lattice: every spec on it, the
    # tightened one included, and every fold of the run share it.
    calls = []

    def counted(*args, _f=frames._coset_labels):
        calls.append(1)
        return _f(*args)
    monkeypatch.setattr(frames, "_coset_labels", counted)
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n,step", [(64, 4), (80, 4), (256, 4), (1024, 16)])
def test_dilation_demo(n, step):
    # Redundancy 4 (n = 64 and the dense cap), 5 (n = 80) and 16 (n = 256).
    doc = dict(DILATION_CFG, grid={"n": n, "d": 1},
               lattice={"generator": [[step, 0], [0, step]]})
    code, err, files = run_and_read("dilation-demo", doc)
    assert code == 0 and err == ""
    rep = json.loads(files["report.json"])
    assert rep["verdicts"] == {"closed_form_ok": True, "unimodular_ok": True}
    assert set(rep["norms"]) == {"max_relative_error_99pct",
                                 "commutation_modulus_deviation"}
    assert files["dilation_symbols.csv"].splitlines()[0] == (
        "k,l,kp,lp,closed_form_re,closed_form_im,numeric_re,numeric_im,"
        "abs_err")


def dilation_tables(n, nu_radius):
    """k, l (per mu), kp, lp (per nu) and the (K, N) closed-form and numeric
    symbol tables of dilation-demo at n with diag(4, 4) and s = 2."""
    grid = Grid(n)
    return compare_dilation_symbols(
        WINDOW_KINDS["gaussian"](grid, {}),
        enumerate_lattice([[4, 0], [0, 4]], grid), 2.0, nu_radius)[:6]


def first_near_max(values, tol):
    """First index within tol of the maximum: the CSV's tie rule."""
    top = max(values)
    return next(j for j, v in enumerate(values) if v >= top - tol)


@pytest.mark.parametrize("nu_radius", [0.0, 1.5, 3.0])
def test_dilation_demo_rows_are_the_per_shift_maxima(tmp_path, monkeypatch,
                                                    nu_radius):
    # The shifts' symbols come from the stream: no N x N matrix is stored.
    refuse_gabor_matrix(monkeypatch)
    doc = dict(DILATION_CFG, grid={"n": 64, "d": 1}, nu_radius=nu_radius)
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["dilation-demo", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "dilation_symbols.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    k, l, kp, lp, closed, numeric = dilation_tables(64, nu_radius)
    K, N = closed.shape
    # Within a shift many |closed| agree to a few ulp, so the oracle takes
    # them from the same np.abs; abs() of one complex is the error.
    mag = np.abs(closed).tolist()
    err = [[abs(numeric[i, j] - closed[i, j]) for j in range(N)]
           for i in range(K)]
    tol = cli.ROW_TIE_RTOL * max(map(max, mag))   # one for both tables
    picked = set()
    for i in range(K):
        picked |= {(i, first_near_max(mag[i], tol)),
                   (i, first_near_max(err[i], tol))}
    picked = sorted(picked)
    assert len(rows) == len(picked) <= 2 * K
    for table in (mag, err):   # the global maximum is among the rows
        top = max(map(max, table))
        assert any(table[i][j] >= top - tol for i, j in picked)
    for row, (i, j) in zip(rows, picked):
        assert row[:8].tolist() == [k[j], l[j], kp[i], lp[i],
                                    closed[i, j].real, closed[i, j].imag,
                                    numeric[i, j].real, numeric[i, j].imag]
        assert row[8] == err[i][j]


@pytest.mark.parametrize("n,nu_radius", [(64, 3.0), (80, 1.5), (80, 3.0)])
def test_dilation_demo_rows_survive_one_ulp(tmp_path, monkeypatch, n,
                                            nu_radius):
    # Roundoff in the numeric symbols must not move the CSV's (k, l, kp, lp):
    # every a_nu(mu) moves one ulp up or down in both parts.
    doc = dict(DILATION_CFG, grid={"n": n, "d": 1}, nu_radius=nu_radius)
    cfg = write_cfg(tmp_path, "c.json", doc)

    def keys(out):
        assert main(["dilation-demo", "--config", cfg, "--out", out]) == 0
        return np.loadtxt(os.path.join(out, "dilation_symbols.csv"),
                          delimiter=",", skiprows=1, usecols=range(4))

    plain = keys(str(tmp_path / "plain"))
    rng = np.random.default_rng(0)
    shift_symbols = dilation.shift_symbols
    calls = []

    def perturbed(*args):
        a, c = shift_symbols(*args)
        calls.append(a.shape)
        up = rng.choice([-np.inf, np.inf], size=(2,) + a.shape)
        return (np.nextafter(a.real, up[0])
                + 1j * np.nextafter(a.imag, up[1]), c)

    monkeypatch.setattr(dilation, "shift_symbols", perturbed)
    assert np.array_equal(keys(str(tmp_path / "ulp")), plain)
    assert len(calls) == 1     # the run read its symbols through the patch


WARP_CFG = {
    "grid": {"n": 64, "d": 1},
    "window": {"kind": "gaussian"},
    "lattice": {"generator": [[4, 0], [0, 8]]},
    "phase": {"kind": "perturbed", "params": {"eps": 0.1}},
    "density_sweep": [[[8, 0], [0, 8]], [[4, 0], [0, 8]],
                      [[4, 0], [0, 4]]],
    "seed": 0,
}


def test_warp_frame_with_density_sweep(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", WARP_CFG)
    out = str(tmp_path / "out")
    assert main(["warp-frame", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["is_frame"]
    rows = (tmp_path / "out" / "density_sweep.csv").read_text().splitlines()
    assert rows[0] == "density,A_lo,B_hi"
    lows = [float(r.split(",")[1]) for r in rows[1:]]
    assert lows == sorted(lows)   # lower bound non-decreasing with density


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_newton_divergence_exit_5_with_error_list(tmp_path, capsys):
    # A valid config whose phase overflows: chi cannot be inverted.
    doc = dict(WARP_CFG, phase={"kind": "chirp", "params": {"c": 1e300}})
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["warp-frame", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 5
    errs = json.loads(capsys.readouterr().err)["errors"]
    assert [e["field"] for e in errs] == ["phase"]
    assert "Newton iteration did not converge" in errs[0]["error"]


def test_provenance_records_the_numeric_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GABORFIO_THREADS", "abc")     # no longer read
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    expected = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                "MKL_NUM_THREADS": "3"}
    # exit 0, and exit 2, which writes a report too
    for gen, code in (([[4, 0], [0, 4]], 0), ([[8, 0], [0, 16]], 2)):
        cfg = write_cfg(tmp_path, "c.json",
                        dict(BASE, lattice={"generator": gen}))
        out = tmp_path / str(code)
        assert main(["frame-check", "--config", cfg, "--out", str(out)]) \
            == code
        prov = json.loads((out / "report.json").read_text())["provenance"]
        assert prov["numpy_version"] == np.__version__
        assert prov["thread_env"] == expected
        assert not {"threads", "threads_applied"} & prov.keys()


# (argv, GABORFIO_THREADS, the field its error names): usage problems
# exit 1 with an error list, like config problems.  GABORFIO_THREADS is
# not read, so a bad value of it adds no error.
BAD_INVOCATIONS = [
    (["frame-check", "--config", "{cfg}", "--seed", "abc"], None, "argv"),
    (["frame-check"], None, "argv"),                        # no --config
    (["no-such-command", "--config", "{cfg}"], None, "argv"),
    (["frame-check", "--config", "{cfg}", "--out", "{cfg}"], None, "--out"),
    (["frame-check", "--config", "{cfg}", "--threads", "1"], None, "argv"),
    (["frame-check", "--config", "{cfg}", "--seed", "-1"], "abc", "--seed"),
]


@pytest.mark.parametrize("argv,env,field", BAD_INVOCATIONS)
def test_bad_invocation_exit_1_with_error_list(tmp_path, capsys, monkeypatch,
                                               argv, env, field):
    if env is None:
        monkeypatch.delenv("GABORFIO_THREADS", raising=False)
    else:
        monkeypatch.setenv("GABORFIO_THREADS", env)
    cfg = write_cfg(tmp_path, "c.json", BASE)
    argv = [a.format(cfg=cfg) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["field"] for e in errors] == [field]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frame-check", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_unexpected_exception_exits_6_with_error_list(monkeypatch):
    def broken(args, run):
        warnings.warn("before the fault")
        raise RuntimeError("boom")
    monkeypatch.setitem(cli.COMMANDS, "frame-check", broken)
    code, err = run_quietly("frame-check", BASE)
    assert code == 6
    doc = json.loads(err)
    assert doc["errors"] == [{"field": "internal",
                              "error": "RuntimeError: boom"}]
    assert doc["warnings"] == [{"category": "UserWarning",
                                "message": "before the fault"}]


def test_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupted(args, run):
        raise KeyboardInterrupt
    monkeypatch.setitem(cli.COMMANDS, "frame-check", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_quietly("frame-check", BASE)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", BASE)
    out = str(tmp_path / "out")
    assert main(["frame-check", "--config", cfg, "--out", out,
                 "--seed", "7"]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["provenance"]["seed"] == 7


# Golden bytes of the CSV writer, so a faster formatter can be checked for
# byte identity: Python and numpy ints and floats, bool, negative zero,
# subnormals and non-finite values.
CSV_EDGE_ROWS = [
    (0, 1, -0.0),
    (np.int64(7), True, 2 ** 60),
    (np.float64(0.1), 1 / 3, np.float32(0.1)),
    (5e-324, np.float64(-2.2250738585072014e-308), -1e-310),
    (float("inf"), np.float64("-inf"), float("nan")),
]
CSV_EDGE_TEXT = """i,a,b
0,1,-0
7,1,1.152921504606847e+18
0.10000000000000001,0.33333333333333331,0.10000000149011612
4.9406564584124654e-324,-2.2250738585072014e-308,-9.9999999999999694e-311
inf,-inf,nan
"""
CSV_BULK_SHA256 = \
    "aab93834c0d76632ab019b0a3e338539ea44358567b4fa071ba2b14006e3cf04"


def csv_bulk_rows():
    """600 rows of exactly representable values (no libm calls)."""
    for k in range(600):
        yield (k, math.ldexp((k + 1) / 7.0 - 3.0, k % 100 - 50),
               np.float64(math.ldexp(k, -1074)), -k / 3.0)


def test_write_csv_golden_bytes(tmp_path):
    _write_csv(tmp_path / "edge.csv", ["i", "a", "b"], CSV_EDGE_ROWS)
    assert (tmp_path / "edge.csv").read_bytes() == CSV_EDGE_TEXT.encode()
    _write_csv(tmp_path / "bulk.csv", ["k", "x", "sub", "neg"],
               csv_bulk_rows())
    digest = hashlib.sha256((tmp_path / "bulk.csv").read_bytes()).hexdigest()
    assert digest == CSV_BULK_SHA256


@pytest.mark.parametrize("rows,error", [
    ([(1.0, "a")], TypeError),                # a str is not a number
    ([(1.0, 2.0), (3.0,)], ValueError),       # a short row
])
def test_write_csv_rejects_what_is_not_a_row_of_numbers(tmp_path, rows, error):
    with pytest.raises(error):
        _write_csv(tmp_path / "t.csv", ["a", "b"], rows)


def per_value_csv(header, rows):
    """The CSV bytes of the per-value rule: format(float(v), ".17g")."""
    lines = [",".join(header)] + [
        ",".join(format(float(v), ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# One strategy per numeric column kind; "mixed" mixes them.
CSV_VALUES = {
    "int": st.integers(-2 ** 60, 2 ** 60),
    "bool": st.booleans(),
    "float": st.floats(),                  # +-0, subnormals, +-inf, nan
    "float64": st.floats().map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
}
CSV_VALUES["mixed"] = st.one_of(*CSV_VALUES.values())


@st.composite
def csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_VALUES)), min_size=1,
                          max_size=4))
    rows = draw(st.lists(st.tuples(*(CSV_VALUES[k] for k in kinds)),
                         max_size=6))
    return [f"c{k}" for k in range(len(kinds))], rows


@settings(max_examples=200, deadline=None, database=None)
@given(csv_tables())
@example(table=(["i", "x"], [(np.int64(2 ** 60), 2 ** 60)]))
@example(table=(["a", "b"], [(-0.0, 5e-324), (float("-inf"), float("nan"))]))
@example(table=(["density", "A_lo", "B_hi"], []))    # header alone
def test_write_csv_is_the_per_value_rule(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        _write_csv(path, header, iter(rows))
        with open(path, "rb") as fh:
            assert fh.read() == per_value_csv(header, rows)


# ------------------------------------------------ the contract on any config

VALID_CFGS = {
    "frame-check": BASE,
    "decay-scan": decay_cfg(),
    "approximate": approximate_cfg(),
    "dilation-demo": DILATION_CFG,
    "warp-frame": WARP_CFG,
}


@pytest.mark.parametrize("command", sorted(VALID_CFGS))
def test_rerun_byte_identical(tmp_path, command):
    cfg = write_cfg(tmp_path, "c.json", VALID_CFGS[command])
    outs = []
    for name in ("a", "b"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0
        outs.append({p.name: p.read_bytes()
                     for p in sorted((tmp_path / name).iterdir())})
    assert "report.json" in outs[0]
    assert any(name.endswith(".csv") for name in outs[0])
    assert outs[0] == outs[1]


D2_GRID = {"grid": {"n": 8, "d": 2},
           "lattice": {"generator": np.diag([2, 2, 2, 2]).tolist()}}

# (command, config, the field its error names): malformed configs that
# must exit 1 with an error list, never with a traceback.
MALFORMED = [
    ("frame-check", dict(BASE, seed="abc"), "seed"),
    ("frame-check", [BASE], "--config"),
    ("frame-check", dict(BASE, grid="64"), "grid"),
    ("frame-check", dict(BASE, window={"kind": "gaussian", "params": "wide"}),
     "window.params"),
    ("approximate", dict(approximate_cfg(), p=0.5), "p"),
    ("approximate", dict(approximate_cfg(), p="two"), "p"),
    ("approximate", dict(approximate_cfg(), weight_s=-1), "weight_s"),
    ("approximate", dict(approximate_cfg(), L_list=[0, 1, 2]), "L_list"),
    ("decay-scan", dict(decay_cfg(), **D2_GRID), "grid"),
    ("approximate", dict(approximate_cfg(), **D2_GRID), "grid"),
    ("approximate", dict(approximate_cfg(), grid={"n": 1040, "d": 1},
                         lattice={"generator": [[20, 0], [0, 20]]}), "grid"),
    ("dilation-demo", dict(DILATION_CFG, nu_radius="far"), "nu_radius"),
    ("approximate", dict(approximate_cfg(), L_list=[1, 1, 1]), "L_list"),
    ("approximate", dict(approximate_cfg(), weight_s=1e5), "weight_s"),
    ("dilation-demo", dict(DILATION_CFG, window={"kind": "gaussian",
                                                 "params": {"width": 2}}),
     "window.params"),
    ("dilation-demo", dict(DILATION_CFG, window={"kind": "box"}),
     "window.kind"),
]


def run_and_read(command, doc, *flags):
    """main() on doc in a scratch directory; returns (exit code, stderr,
    {name: text} of the files it wrote)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out, *flags])
        files = {}
        for name in os.listdir(out) if os.path.isdir(out) else []:
            with open(os.path.join(out, name)) as fh:
                files[name] = fh.read()
    return code, err.getvalue(), files


def run_quietly(command, doc, *flags):
    """main() on doc in a scratch directory; returns (exit code, stderr)."""
    return run_and_read(command, doc, *flags)[:2]


# (command, config, verdict, the name of its gate in cli, a failing gate)
NAMED_GATES = [
    ("frame-check", BASE, "parseval_ok", "PARSEVAL_TOL", 0.0),
    ("approximate", approximate_cfg(), "full_reconstruction_ok",
     "RECONSTRUCTION_TOL", 0.0),
    ("approximate", approximate_cfg(), "non_increasing", "non_increasing",
     lambda curve: False),
    ("dilation-demo", dict(DILATION_CFG, grid={"n": 64, "d": 1}),
     "closed_form_ok", "CLOSED_FORM_RTOL", 0.0),
    ("dilation-demo", dict(DILATION_CFG, grid={"n": 64, "d": 1}),
     "unimodular_ok", "UNIMODULAR_TOL", 0.0),
    ("warp-frame", WARP_CFG, "is_frame", "bounds_make_frame",
     lambda lo, hi: False),
]


@pytest.mark.parametrize("command,doc,verdict,name,failing", NAMED_GATES,
                         ids=[gate[2] for gate in NAMED_GATES])
def test_each_named_gate_drives_its_verdict(monkeypatch, command, doc,
                                            verdict, name, failing):
    def verdicts():
        code, _, files = run_and_read(command, doc)
        assert code == 0
        return json.loads(files["report.json"])["verdicts"]
    assert verdicts()[verdict] is True
    monkeypatch.setattr(cli, name, failing)
    assert verdicts()[verdict] is False


@pytest.mark.parametrize("command,doc,field", MALFORMED)
def test_malformed_config_exit_1_with_error_list(command, doc, field):
    code, err = run_quietly(command, doc)
    assert code == 1
    assert field in {e["field"] for e in json.loads(err)["errors"]}


@pytest.mark.parametrize("command", ["decay-scan", "approximate",
                                     "dilation-demo"])
@pytest.mark.parametrize("grid", [{"n": 8, "d": 2}, {"n": 1040, "d": 1}])
def test_dense_fio_guard_runs_before_the_lattice(command, grid, monkeypatch):
    def no_lattice(*args):
        raise AssertionError("lattice enumerated")
    monkeypatch.setattr("gaborfio.cli.enumerate_lattice", no_lattice)
    code, err = run_quietly(command, dict(VALID_CFGS[command], grid=grid))
    assert code == 1
    assert json.loads(err)["errors"] == [
        {"field": "grid", "error": f"{command} needs d = 1 and n <= 1024"}]


def test_seed_flag_must_be_non_negative():
    code, err = run_quietly("frame-check", BASE, "--seed", "-1")
    assert code == 1 and json.loads(err)["errors"][0]["field"] == "--seed"


BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "x", "2"]),
    st.integers(-3, 3),
    st.sampled_from([-1e300, 0.5, 1e300, 10 ** 400, math.inf, math.nan]),
    st.lists(st.integers(-1, 8), max_size=3), st.just({}),
    st.just([[1, 0], [0, 1]]))


def value_slots(doc):
    """(container, key) of every value nested in a config."""
    for key, value in (doc.items() if isinstance(doc, dict)
                       else enumerate(doc)):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from value_slots(value)


# approximate's weight_s and p: in range, at the weight_s bound at n = 32
# (250.03), and beyond it.
WEIGHT_S = st.one_of(st.floats(0, 1e3), st.sampled_from([250.0, 1e5, 1e300]))
POWERS = st.one_of(st.floats(1, 1e3), st.sampled_from([400.0, 1e300]))


@st.composite
def mutated_configs(draw):
    """A valid test config at n <= 32 with up to three values broken."""
    command = draw(st.sampled_from(sorted(VALID_CFGS)))
    doc = copy.deepcopy(VALID_CFGS[command])
    doc["grid"]["n"] = draw(st.sampled_from([8, 16, 24, 32]))
    if command == "approximate":
        for key, values in (("weight_s", WEIGHT_S), ("p", POWERS)):
            if draw(st.booleans()):
                doc[key] = draw(values)
    for _ in range(draw(st.integers(0, 3))):
        slots = list(value_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(BAD_VALUES))
    if draw(st.integers(0, 19)) == 0:
        doc = copy.deepcopy(draw(BAD_VALUES))   # not an object at all
    return command, doc


def with_examples(cases):
    def decorate(test):
        for command, doc, _ in cases:
            test = example(case=(command, doc))(test)
        return test
    return decorate


def reject_constant(name):
    raise ValueError(f"report.json holds {name}")


# approximate at n = 32, where p = 400 underflows an unscaled p-power sum,
# weight_s = 250 is at its bound and weight_s = 1000 beyond it (exit 1).
SMALL_APPROXIMATE = dict(decay_cfg(n=32, gen=((4, 0), (0, 4))),
                         phase={"kind": "perturbed", "params": {"eps": 0.1}},
                         L_list=[1, 2, 4])


@with_examples(MALFORMED)
@example(case=("approximate", dict(SMALL_APPROXIMATE, p=400)))
@example(case=("approximate", dict(SMALL_APPROXIMATE, weight_s=250)))
@example(case=("approximate", dict(SMALL_APPROXIMATE, weight_s=1000)))
@settings(max_examples=100, deadline=None)
@given(case=mutated_configs())
def test_every_config_ends_in_a_documented_exit(case):
    code, err, files = run_and_read(*case)
    assert code in (0, 1, 2, 3, 5)
    if code in (1, 2, 5):
        errors = json.loads(err)["errors"]
        assert errors and all(set(e) == {"field", "error"} for e in errors)
    if code == 0:
        # Strict JSON and finite CSV numbers: no NaN or Infinity.
        json.loads(files.pop("report.json"), parse_constant=reject_constant)
        assert files
        for text in files.values():
            cells = [cell for line in text.splitlines()[1:]
                     for cell in line.split(",")]
            assert all(math.isfinite(float(cell)) for cell in cells)


def run_cli_process(command, cfg, out, **env_vars):
    """python -m gaborfio.cli in a fresh interpreter, with env_vars added
    to its environment; the CompletedProcess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["gaborfio"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]), **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "gaborfio.cli", command, "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command", ["decay-scan", "dilation-demo"])
def test_rerun_in_fresh_processes_byte_identical(tmp_path, command):
    cfg = write_cfg(tmp_path, "c.json", VALID_CFGS[command])
    outs = []
    for name in ("a", "b"):
        assert run_cli_process(command, cfg, tmp_path / name).returncode == 0
        outs.append({p.name: p.read_bytes()
                     for p in sorted((tmp_path / name).iterdir())})
    assert "report.json" in outs[0]
    assert any(name.endswith(".csv") for name in outs[0])
    assert outs[0] == outs[1]


def test_approximate_agrees_across_blas_thread_counts(tmp_path):
    # Byte-identity holds at a fixed BLAS thread count: with 2 threads in
    # place of 1 the errors may move in their last digits (the BLAS
    # splits its sums differently), but no verdict moves.  At n = 64
    # OpenBLAS 0.3 splits none of these products, so the bits agree; at
    # n = 160 they differ (OpenBLAS 0.3.31 on 2 CPUs: by relative 6.1e-16,
    # 1.1e-16, 0 and 0), and all four errors lie far above roundoff (0.18
    # to 2.7e-6), so a relative tolerance means something.  Two threads,
    # no more, so that a 2-CPU host is not oversubscribed.
    doc = dict(approximate_cfg(), grid={"n": 160, "d": 1},
               phase={"kind": "perturbed", "params": {"eps": 0.1}},
               L_list=[1, 2, 4, 8])
    cfg = write_cfg(tmp_path, "c.json", doc)
    reports, curves = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        proc = run_cli_process("approximate", cfg, out,
                               **{var: threads for var in THREAD_ENV_VARS})
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads((out / "report.json").read_text()))
        curves.append(np.loadtxt(out / "truncation_error.csv", delimiter=",",
                                 skiprows=1))
    one, two = reports
    assert one["provenance"]["thread_env"] == dict.fromkeys(THREAD_ENV_VARS,
                                                            "1")
    assert two["provenance"]["thread_env"] == dict.fromkeys(THREAD_ENV_VARS,
                                                            "2")
    assert one["verdicts"] == two["verdicts"]
    assert np.array_equal(curves[0][:, 0], curves[1][:, 0])
    np.testing.assert_allclose(curves[1][:, 1], curves[0][:, 1], rtol=1e-12,
                               atol=0)
    np.testing.assert_allclose(two["slopes"]["truncation_slope"],
                               one["slopes"]["truncation_slope"], rtol=1e-12,
                               atol=0)


def test_error_exit_stderr_is_one_json_object_with_the_warnings(tmp_path):
    # numpy warns about the overflow before Newton gives up; the warning
    # must join the error object, not precede it.
    doc = dict(WARP_CFG, phase={"kind": "chirp", "params": {"c": 1e300}})
    cfg = write_cfg(tmp_path, "c.json", doc)
    proc = run_cli_process("warp-frame", cfg, tmp_path / "o")
    assert proc.returncode == 5
    doc = json.loads(proc.stderr)
    assert [e["field"] for e in doc["errors"]] == ["phase"]
    assert {"category": "RuntimeWarning",
            "message": "overflow encountered in multiply"} in doc["warnings"]


# ------------------------------------------------------ dense size cap

def configure(command, doc):
    path = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    with path:
        json.dump(doc, path)
    try:
        return _configure(types.SimpleNamespace(command=command,
                                                config=path.name, seed=None))
    finally:
        os.unlink(path.name)


@pytest.mark.parametrize("command,doc", [
    # 4096 x 1,048,576 atoms
    ("frame-check", dict(BASE, grid={"n": 64, "d": 2},
                         lattice={"generator": np.diag([2] * 4).tolist()})),
    # 1024 x 65,536 atoms, which build_atoms would hold three times
    ("decay-scan", dict(decay_cfg(), grid={"n": 1024, "d": 1},
                        lattice={"generator": [[4, 0], [0, 4]]})),
    # a 16384 x 16384 Gram matrix
    ("warp-frame", dict(WARP_CFG, grid={"n": 16384, "d": 1},
                        lattice={"generator": [[1024, 0], [0, 1024]]},
                        density_sweep=[])),
    # 1024 x 65,536 atoms, exactly the cap, but build_atoms holds three
    ("frame-check", dict(BASE, grid={"n": 32, "d": 2},
                         lattice={"generator": [[2, 0, 0, 0], [0, 2, 0, 0],
                                                [1, 0, 2, 0], [0, 0, 0, 2]]})),
])
def test_dense_size_cap_runs_before_the_lattice(command, doc, monkeypatch):
    def no_lattice(*args):
        raise AssertionError("lattice enumerated")
    monkeypatch.setattr("gaborfio.cli.enumerate_lattice", no_lattice)
    code, err = run_quietly(command, doc)
    assert code == 1
    [error] = json.loads(err)["errors"]
    assert error["field"] == "lattice.generator"
    assert f"above {MAX_DENSE_ENTRIES}" in error["error"]


@pytest.mark.parametrize("command", sorted(VALID_CFGS))
def test_dense_size_cap_admits_the_dense_fio_limit(command):
    # n = 1024 with diag(16, 16), N = 4096: the largest grid the FIO
    # subcommands take, and the sweep's target.  warp-frame sweeps that
    # lattice alone: its test sweep's diag(4, 4) at n = 1024 has
    # 1024 x 65,536 atoms, which build_atoms would hold three times.
    doc = dict(VALID_CFGS[command], grid={"n": 1024, "d": 1},
               lattice={"generator": [[16, 0], [0, 16]]})
    if command == "warp-frame":
        doc["density_sweep"] = [doc["lattice"]["generator"]]
    assert configure(command, doc).lattice.npoints == 4096


def test_decay_scan_is_not_charged_for_a_gabor_matrix(monkeypatch):
    # n = 1024 with diag(8, 8), N = 16384: decay-scan streams A^H T A and
    # holds no N x N array, so the cap admits it; approximate and
    # dilation-demo hold the 16384 x 16384 Gabor matrix and are refused.
    # Only the config is built: nothing runs.
    doc = {"grid": {"n": 1024, "d": 1},
           "lattice": {"generator": [[8, 0], [0, 8]]}}
    assert configure("decay-scan", dict(VALID_CFGS["decay-scan"], **doc)
                     ).lattice.npoints == 16384

    def no_lattice(*args):
        raise AssertionError("lattice enumerated")
    monkeypatch.setattr("gaborfio.cli.enumerate_lattice", no_lattice)
    for command in ("approximate", "dilation-demo"):
        with pytest.raises(cli.ConfigError) as caught:
            configure(command, dict(VALID_CFGS[command], **doc))
        [error] = caught.value.errors
        assert error["field"] == "lattice.generator"
        assert f"above {MAX_DENSE_ENTRIES}" in error["error"]


# ------------------------------------------------------------- d = 2

D2_NONSEPARABLE = {"grid": {"n": 12, "d": 2}, "window": {"kind": "gaussian"},
                   "lattice": {"generator": [[2, 0, 0, 0], [0, 3, 0, 0],
                                             [1, 0, 2, 0], [0, 0, 0, 2]]}}


def test_frame_check_d2_nonseparable(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", D2_NONSEPARABLE)
    assert main(["frame-check", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verdicts"]["parseval_ok"]


def test_warp_frame_d2_linear_keeps_the_frame_bounds(tmp_path):
    doc = dict(D2_NONSEPARABLE, phase={"kind": "linear", "params": {"d": 2}})
    cfg = write_cfg(tmp_path, "c.json", doc)
    for command in ("frame-check", "warp-frame"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0
    norms = [json.loads((tmp_path / c / "report.json").read_text())["norms"]
             for c in ("frame-check", "warp-frame")]
    assert norms[1]["warped_bounds"] == pytest.approx(
        norms[0]["frame_bounds"], rel=1e-12)
    assert norms[1]["max_rounding_displacement"] == 0.0
