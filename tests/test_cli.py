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
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaborfio import cli
from gaborfio.cli import MAX_DENSE_ENTRIES, _configure, _write_csv, main
from gaborfio.core import Grid
from gaborfio.dilation import dilation_symbol_closed_form
from gaborfio.fio import constant_symbol, make_fio
from gaborfio import frames, multiplier
from gaborfio.frames import GaborFrameSpec, enumerate_lattice, tighten
from gaborfio.multiplier import extract_symbols
from gaborfio.phases import canonical_map, dilation_phase
from gaborfio.windows import make_window


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


def test_decay_scan_insufficient_range_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", decay_cfg(n=16))
    assert main(["decay-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3


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


def test_approximate_partial_radius_reconstructs_in_full(tmp_path):
    # The full reconstruction is A cross A^H, not the sum up to nu_radius.
    doc = dict(decay_cfg(gen=((4, 0), (0, 4))), L_list=[0.5, 1, 2],
               nu_radius=2)
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["approximate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["full_reconstruction_ok"] is True
    assert rep["norms"]["full_reconstruction_residual_max"] < 1e-9


def test_approximate_extraction_radius_exit_4(tmp_path):
    doc = decay_cfg(gen=((4, 0), (0, 4)))
    doc["L_list"] = [1, 2, 4]
    doc["nu_radius"] = 2.0
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["approximate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4


DILATION_CFG = {
    "grid": {"n": 256, "d": 1},
    "window": {"kind": "gaussian"},
    "lattice": {"generator": [[4, 0], [0, 4]]},
    "phase": {"kind": "dilation", "params": {"s": 2.0}},
    "nu_radius": 3.0,
    "seed": 0,
}


def test_dilation_demo(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", DILATION_CFG)
    out = str(tmp_path / "out")
    assert main(["dilation-demo", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["closed_form_ok"]
    assert rep["verdicts"]["unimodular_ok"]
    header = (tmp_path / "out" / "dilation_symbols.csv").read_text() \
        .splitlines()[0]
    assert header == ("k,l,kp,lp,closed_form_re,closed_form_im,"
                      "numeric_re,numeric_im,abs_err")


def test_dilation_demo_rejects_non_gaussian(tmp_path):
    doc = {
        "grid": {"n": 64, "d": 1},
        "window": {"kind": "box"},
        "lattice": {"generator": [[4, 0], [0, 4]]},
        "phase": {"kind": "dilation", "params": {"s": 2.0}},
    }
    cfg = write_cfg(tmp_path, "c.json", doc)
    assert main(["dilation-demo", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1


def dilation_tables(n, nu_radius):
    """k, l (per mu), kp, lp (per nu) and the (K, N) closed-form and numeric
    symbol tables of dilation-demo at n with diag(4, 4) and s = 2."""
    grid = Grid(n)
    lattice = enumerate_lattice([[4, 0], [0, 4]], grid)
    spec = tighten(GaborFrameSpec(make_window(grid, "gaussian"), lattice))
    u = make_window(grid, "gaussian").values
    rho = float(np.real(np.vdot(u, spec.window.values)) / np.vdot(u, u).real)
    phase = dilation_phase(2.0)
    cm = canonical_map(phase)
    tsym = extract_symbols(make_fio(phase, constant_symbol(grid), grid),
                           spec, cm, nu_radius)
    k, l = (lattice.int_coords / 4).T
    kp, lp = (lattice.int_coords[tsym.nu_indices] / 4).T
    closed = dilation_symbol_closed_form(2.0, 4 * grid.h, 4 * grid.h,
                                         k[None, :], l[None, :],
                                         kp[:, None], lp[:, None])
    return k, l, kp, lp, closed, tsym.a * grid.h / rho ** 2


def first_near_max(values, rtol=1e-6):
    """First index within relative rtol of the maximum: the CSV's tie rule."""
    top = max(values)
    return next(j for j, v in enumerate(values) if v >= (1 - rtol) * top)


@pytest.mark.parametrize("nu_radius", [0.0, 1.5, 3.0])
def test_dilation_demo_rows_are_the_per_shift_maxima(tmp_path, nu_radius):
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
    picked = set()
    for i in range(K):
        picked |= {(i, first_near_max(mag[i])), (i, first_near_max(err[i]))}
    picked = sorted(picked)
    assert len(rows) == len(picked) <= 2 * K
    for table in (mag, err):   # the global maximum is among the rows
        top = max(map(max, table))
        assert any(table[i][j] >= (1 - 1e-6) * top for i, j in picked)
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
    extract = cli.extract_symbols

    def perturbed(*args):
        tsym = extract(*args)
        a = tsym.a
        up = rng.choice([-np.inf, np.inf], size=(2,) + a.shape)
        tsym.a = np.nextafter(a.real, up[0]) + 1j * np.nextafter(a.imag, up[1])
        return tsym

    monkeypatch.setattr(cli, "extract_symbols", perturbed)
    assert np.array_equal(keys(str(tmp_path / "ulp")), plain)


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


def test_threads_env_and_flag(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "c.json", BASE)
    monkeypatch.setenv("GABORFIO_THREADS", "2")
    out = str(tmp_path / "a")
    assert main(["frame-check", "--config", cfg, "--out", out]) == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["provenance"]["threads"] == 2
    out = str(tmp_path / "b")
    assert main(["frame-check", "--config", cfg, "--out", out,
                 "--threads", "1"]) == 0
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["provenance"]["threads"] == 1


def test_threads_applied_null_without_threadpoolctl(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)   # ImportError
    cfg = write_cfg(tmp_path, "c.json", BASE)
    assert main(["frame-check", "--config", cfg, "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    prov = json.loads((tmp_path / "report.json").read_text())["provenance"]
    assert prov["threads"] == 1 and prov["threads_applied"] is None


def test_threads_applied_records_the_limit(tmp_path, monkeypatch):
    seen = []

    @contextlib.contextmanager
    def threadpool_limits(limits=None):
        seen.append(limits)
        yield

    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    monkeypatch.delenv("GABORFIO_THREADS", raising=False)
    cfg = write_cfg(tmp_path, "c.json", BASE)
    for flags, applied in (([], None), (["--threads", "2"], 2)):
        assert main(["frame-check", "--config", cfg, "--out", str(tmp_path),
                     *flags]) == 0
        prov = json.loads((tmp_path / "report.json").read_text())["provenance"]
        assert prov["threads_applied"] == applied
    assert seen == [2]


# (argv, GABORFIO_THREADS, the field its error names): usage and
# environment problems exit 1 with an error list, like config problems.
BAD_INVOCATIONS = [
    (["frame-check", "--config", "{cfg}", "--seed", "abc"], None, "argv"),
    (["frame-check"], None, "argv"),                        # no --config
    (["no-such-command", "--config", "{cfg}"], None, "argv"),
    (["frame-check", "--config", "{cfg}", "--out", "{cfg}"], None, "--out"),
    (["frame-check", "--config", "{cfg}", "--threads", "-3"], None,
     "--threads"),
    (["frame-check", "--config", "{cfg}"], "abc", "GABORFIO_THREADS"),
    (["frame-check", "--config", "{cfg}"], "-1", "GABORFIO_THREADS"),
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
# subnormals, non-finite values and strings.
CSV_EDGE_ROWS = [
    (0, 1, -0.0, "a"),
    (np.int64(7), True, 2 ** 60, "x y"),
    (np.float64(0.1), 1 / 3, np.float32(0.1), "-0"),
    (5e-324, np.float64(-2.2250738585072014e-308), -1e-310, "sub"),
    (float("inf"), np.float64("-inf"), float("nan"), ""),
]
CSV_EDGE_TEXT = """i,a,b,s
0,1,-0,a
7,1,1.152921504606847e+18,x y
0.10000000000000001,0.33333333333333331,0.10000000149011612,-0
4.9406564584124654e-324,-2.2250738585072014e-308,-9.9999999999999694e-311,sub
inf,-inf,nan,
"""
CSV_BULK_SHA256 = \
    "8ba8aa50743516eccf19bb408b2f33a63114930581b1e6e54690f2ce0bf41cfc"


def csv_bulk_rows():
    """600 rows of exactly representable values (no libm calls)."""
    for k in range(600):
        yield (k, math.ldexp((k + 1) / 7.0 - 3.0, k % 100 - 50),
               np.float64(math.ldexp(k, -1074)), -k / 3.0, f"r{k}")


def test_write_csv_golden_bytes(tmp_path):
    _write_csv(tmp_path / "edge.csv", ["i", "a", "b", "s"], CSV_EDGE_ROWS)
    assert (tmp_path / "edge.csv").read_bytes() == CSV_EDGE_TEXT.encode()
    _write_csv(tmp_path / "bulk.csv", ["k", "x", "sub", "neg", "s"],
               csv_bulk_rows())
    digest = hashlib.sha256((tmp_path / "bulk.csv").read_bytes()).hexdigest()
    assert digest == CSV_BULK_SHA256


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
    ("approximate", dict(approximate_cfg(), nu_radius="far"), "nu_radius"),
    ("approximate", dict(approximate_cfg(), p="two"), "p"),
    ("approximate", dict(approximate_cfg(), weight_s=-1), "weight_s"),
    ("approximate", dict(approximate_cfg(), L_list=[0, 1, 2]), "L_list"),
    ("decay-scan", dict(decay_cfg(), **D2_GRID), "grid"),
    ("approximate", dict(approximate_cfg(), **D2_GRID), "grid"),
    ("approximate", dict(approximate_cfg(), grid={"n": 1040, "d": 1},
                         lattice={"generator": [[20, 0], [0, 20]]}), "grid"),
    ("dilation-demo", dict(DILATION_CFG, nu_radius="far"), "nu_radius"),
    ("approximate", dict(approximate_cfg(), L_list=[1, 1, 1]), "L_list"),
]


def run_quietly(command, doc, *flags):
    """main() on doc in a scratch directory; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", tmp, *flags])
    return code, err.getvalue()


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


@st.composite
def mutated_configs(draw):
    """A valid test config at n <= 32 with up to three values broken."""
    command = draw(st.sampled_from(sorted(VALID_CFGS)))
    doc = copy.deepcopy(VALID_CFGS[command])
    doc["grid"]["n"] = draw(st.sampled_from([8, 16, 24, 32]))
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


@with_examples(MALFORMED)
@settings(max_examples=100, deadline=None)
@given(case=mutated_configs())
def test_every_config_ends_in_a_documented_exit(case):
    code, err = run_quietly(*case)
    assert code in (0, 1, 2, 3, 4, 5)
    if code in (1, 2, 5):
        errors = json.loads(err)["errors"]
        assert errors and all(set(e) == {"field", "error"} for e in errors)


def test_error_exit_stderr_is_one_json_object_with_the_warnings(tmp_path):
    # numpy warns about the overflow before Newton gives up; the warning
    # must join the error object, not precede it.
    doc = dict(WARP_CFG, phase={"kind": "chirp", "params": {"c": 1e300}})
    cfg = write_cfg(tmp_path, "c.json", doc)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["gaborfio"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gaborfio.cli", "warp-frame", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
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
                                                config=path.name, seed=None,
                                                threads=None))
    finally:
        os.unlink(path.name)


@pytest.mark.parametrize("command,doc", [
    # 4096 x 1,048,576 atoms
    ("frame-check", dict(BASE, grid={"n": 64, "d": 2},
                         lattice={"generator": np.diag([2] * 4).tolist()})),
    # a 16384 x 16384 Gabor matrix
    ("decay-scan", dict(decay_cfg(), grid={"n": 1024, "d": 1},
                        lattice={"generator": [[8, 0], [0, 8]]})),
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
