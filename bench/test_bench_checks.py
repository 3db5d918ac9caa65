"""Each benchmark check accepts the CLI's outputs and rejects wrong ones.

Small grids keep this to a few seconds.  Run with gaborfio importable,
e.g. PYTHONPATH=src python -m pytest bench/test_bench_checks.py.
"""

import json
import shutil

import numpy as np
import pytest

import checks
import spans
import gaborfio.cli as cli
import gaborfio.fio

GAUSSIAN = {"kind": "gaussian"}
DIAG4 = {"generator": [[4, 0], [0, 4]]}
SEED = 3

CONFIGS = {
    "frame-check": {"grid": {"n": 64, "d": 1}, "window": GAUSSIAN,
                    "lattice": DIAG4},
    "approximate": {"grid": {"n": 32, "d": 1}, "window": GAUSSIAN,
                    "lattice": DIAG4,
                    "phase": {"kind": "perturbed", "params": {"eps": 0.1}},
                    "symbol": {"kind": "bandlimited", "params": {"N": 2}},
                    "L_list": [1, 2, 4, 8]},
    "decay-scan": {"grid": {"n": 64, "d": 1}, "window": GAUSSIAN,
                   "lattice": {"generator": [[2, 0], [0, 2]]},
                   "phase": {"kind": "dilation", "params": {"s": 2.0}},
                   "symbol": {"kind": "bandlimited", "params": {"N": 2}},
                   "s_claim": 4.0},
    "dilation-demo": {"grid": {"n": 96, "d": 1}, "window": GAUSSIAN,
                      "lattice": DIAG4,
                      "phase": {"kind": "dilation", "params": {"s": 2.0}},
                      "nu_radius": 3.0},
}


def run_cli(command, base):
    out = base / command
    cfg = base / f"{command}.json"
    cfg.write_text(json.dumps(CONFIGS[command]))
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     "--seed", str(SEED)]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    return {command: run_cli(command, base) for command in CONFIGS}


@pytest.fixture
def corrupt(outputs, tmp_path):
    """Copy of one command's outputs, for a test to damage."""
    def copy(command):
        return shutil.copytree(outputs[command], tmp_path / command)
    return copy


def rewrite_csv(path, transform):
    """Apply transform to the float data of a CSV, keeping 17 digits."""
    header = path.read_text().splitlines()[0]
    data = transform(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    lines = [",".join(format(v, ".17g") for v in row) for row in data]
    path.write_text("\n".join([header] + lines) + "\n")


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_check_accepts_cli_outputs(outputs, command):
    assert checks.CHECKS[command](outputs[command], CONFIGS[command],
                                  SEED) == []


def test_walnut_check_rejects_non_tight_window(corrupt):
    out = corrupt("frame-check")
    g = checks.unit_gaussian(64)

    def non_tight(data):
        data[:, 1], data[:, 2] = g, 0.0
        return data
    rewrite_csv(out / "tight_window.csv", non_tight)
    errors = checks.check_frame_check(out, CONFIGS["frame-check"], SEED)
    assert len(errors) == 1 and "tight window" in errors[0]


def test_dual_check_rejects_perturbed_dual(corrupt):
    out = corrupt("frame-check")

    def perturb(data):
        data[5, 1] *= 1.0 + 1e-6
        return data
    rewrite_csv(out / "dual_window.csv", perturb)
    errors = checks.check_frame_check(out, CONFIGS["frame-check"], SEED)
    assert len(errors) == 1 and "dual window" in errors[0]


def test_masked_identity_check_rejects_perturbed_curve(corrupt):
    out = corrupt("approximate")

    def perturb(data):
        data[1, 1] *= 1.0 - 1e-4     # still non-increasing
        return data
    rewrite_csv(out / "truncation_error.csv", perturb)
    errors = checks.check_approximate(out, CONFIGS["approximate"], SEED)
    assert len(errors) == 1 and "masked identity" in errors[0]


def test_check_inputs_match_gaborfio():
    """The check's own T and tight window reproduce the CLI's inputs."""
    n = 32
    symbol = gaborfio.fio.bandlimited_symbol(gaborfio.core.Grid(n), 2.0,
                                             seed=SEED)
    phase = gaborfio.phases.perturbed_phase(0.1)
    T = gaborfio.fio.make_fio(phase, symbol, symbol.grid)
    assert np.allclose(checks.perturbed_fio(symbol.values, n, 0.1),
                       gaborfio.fio.fio_matrix(T), atol=1e-13)
    lat = gaborfio.frames.separable_lattice(4, 4, symbol.grid)
    spec = gaborfio.frames.GaborFrameSpec(
        gaborfio.windows.gaussian_window(symbol.grid), lat)
    assert np.allclose(checks.tight_window(n, 4, 4),
                       gaborfio.frames.canonical_tight_window(spec).values,
                       atol=1e-13)


def test_decay_check_rejects_wrong_slope(corrupt):
    out = corrupt("decay-scan")
    report = json.loads((out / "report.json").read_text())
    report["slopes"]["envelope"]["slope"] += 1e-3
    (out / "report.json").write_text(json.dumps(report))
    errors = checks.check_decay_scan(out, CONFIGS["decay-scan"], SEED)
    assert len(errors) == 1 and "refitted slope" in errors[0]


def test_decay_check_rejects_slow_decay(corrupt):
    out = corrupt("decay-scan")

    def flatten(data):
        data[:, 1] = data[0, 1] * (data[:, 0] / data[0, 0]) ** -2.0
        return data
    rewrite_csv(out / "decay_bins.csv", flatten)
    errors = checks.check_decay_scan(out, CONFIGS["decay-scan"], SEED)
    assert any("decay slope" in e for e in errors)


def test_quadrature_check_rejects_perturbed_closed_form(corrupt):
    out = corrupt("dilation-demo")

    def perturb(data):
        data[:, 4] *= 1.0 + 1e-6
        return data
    rewrite_csv(out / "dilation_symbols.csv", perturb)
    errors = checks.check_dilation_demo(out, CONFIGS["dilation-demo"], SEED)
    assert len(errors) == 1 and "quadrature" in errors[0]


def test_tracer_self_times_add_up_and_bindings_are_restored(tmp_path):
    original = gaborfio.fio.fio_matrix
    tracer = spans.Tracer()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CONFIGS["approximate"]))
    with tracer:
        assert gaborfio.multiplier.fio_matrix is not original
        tracer.call(spans.ROOT, cli.main, ["approximate", "--config", str(cfg),
                                           "--out", str(tmp_path / "out")])
    assert gaborfio.fio.fio_matrix is original
    assert gaborfio.multiplier.fio_matrix is original
    assert gaborfio.cli.fio_matrix is original
    values = spans.layer_metrics(tracer)
    self_total = sum(v for k, v in values.items()
                     if k.endswith(".self_s"))
    assert self_total == pytest.approx(values["cli.traced_wall_s"], rel=1e-9)
    assert values["multiplier.assemble_truncated.calls"] == 5
    assert values["multiplier.extract_symbols.self_s"] > 0
