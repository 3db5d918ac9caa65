"""Every public gaborfio name is reached by a run.

The README's library tour and each CLI subcommand run under
sys.setprofile, the subcommands once per window, phase and symbol kind
they take, at n <= 64, plus one run per documented error exit.  A public
name is a function or class that a gaborfio module defines without a
leading underscore, or such a method of a public class, named as
"module.name" or "module.Class.method".  It is reached when code of its
own ran: the function, or for a class any function it defines (its
methods, properties and dataclass-made __init__).  A name that no run
reaches belongs in tests/oracles.py, if a test needs it, or nowhere.

Two kinds of name are exempt:
- BENCH_PINNED: names that no run reaches but that the benchmark's
  tracer looks up by name, so they stay until the benchmark stops
  naming them;
- EXIT_MAPPED: exception classes with no code of their own, reached
  when a run raises them; the run's exit code shows it did.
"""

import contextlib
import importlib
import inspect
import io
import json
import pathlib
import pkgutil
import re
import sys
from functools import cached_property

import pytest

import gaborfio
from gaborfio import cli
from gaborfio.fio import InsufficientDecayRangeError
from gaborfio.frames import LatticeError, NotAFrameError

ROOT = pathlib.Path(__file__).resolve().parents[1]

BENCH_PINNED = (
    "frames.frame_operator",        # bench/spans.py (TRACED, FLOPS)
    "fio.pair_distances",           # bench/spans.py (TRACED, PEAK_SPANS)
    "fio.transport_argmax_check",   # bench/spans.py (TRACED, PEAK_SPANS)
)

# Exception class -> the exit code of a run that raises it.
EXIT_MAPPED = {
    LatticeError: cli.EXIT_CONFIG,
    NotAFrameError: cli.EXIT_NOT_A_FRAME,
    InsufficientDecayRangeError: cli.EXIT_DECAY_RANGE,
}

WINDOWS = ({"kind": "gaussian"}, {"kind": "bspline"}, {"kind": "box"})
PHASES = ({"kind": "linear"}, {"kind": "dilation", "params": {"s": 2.0}},
          {"kind": "chirp", "params": {"c": 0.25}},
          {"kind": "perturbed", "params": {"eps": 0.1}})
SYMBOLS = ({"kind": "constant"}, {"kind": "bandlimited", "params": {"N": 2}},
           {"kind": "weighted", "params": {"s": 4.0}})


def diag(a, b):
    return {"generator": [[a, 0], [0, b]]}


def config(n, lattice, **parts):
    return {"grid": {"n": n, "d": 1}, "window": {"kind": "gaussian"},
            "lattice": lattice, **parts}


# Each subcommand's base config and the config sections it varies.
BASES = {
    "frame-check": (config(64, diag(4, 4)), ("window",)),
    "decay-scan": (config(64, diag(2, 2), phase=PHASES[1], symbol=SYMBOLS[1],
                          s_claim=4.0), ("window", "phase", "symbol")),
    "approximate": (config(32, diag(4, 4), phase=PHASES[3], symbol=SYMBOLS[1],
                           L_list=[1, 2, 4]), ("window", "phase", "symbol")),
    "dilation-demo": (config(64, diag(4, 4), phase=PHASES[1], nu_radius=2.0),
                      ()),
    "warp-frame": (config(32, diag(4, 4), phase=PHASES[0],
                          density_sweep=[[[2, 0], [0, 4]]]),
                   ("window", "phase")),
}
KINDS = {"window": WINDOWS, "phase": PHASES, "symbol": SYMBOLS}

# (command, config, exit code): the weighted probe-norm error curve, and
# one run per error exit.
EXTRA_RUNS = (
    ("approximate", {**BASES["approximate"][0], "p": 1.0, "weight_s": 1.0},
     cli.EXIT_OK),
    ("frame-check", config(64, diag(3, 3)), cli.EXIT_CONFIG),
    ("frame-check", config(64, diag(16, 16)), cli.EXIT_NOT_A_FRAME),
    ("decay-scan", config(16, diag(2, 2), phase=PHASES[0], s_claim=2.0),
     cli.EXIT_DECAY_RANGE),
    ("warp-frame", config(32, diag(4, 4), phase={"kind": "chirp",
                                                 "params": {"c": 1e300}}),
     cli.EXIT_NEWTON_DIVERGENCE),
)


def runs():
    """(command, config, exit code) for every run of the tour."""
    for command, (base, sections) in BASES.items():
        yield command, base, cli.EXIT_OK
        for section in sections:
            for kind in KINDS[section]:
                if kind != base[section]:
                    yield command, {**base, section: kind}, cli.EXIT_OK
    yield from EXTRA_RUNS


def readme_tour():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    """(the code objects that ran, [(command, config, expected, got)])."""
    base = tmp_path_factory.mktemp("reach")
    ran, exits = set(), []

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        readme_tour()
        for i, (command, cfg, expected) in enumerate(runs()):
            path = base / f"{i}.json"
            path.write_text(json.dumps(cfg))
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", str(path),
                                 "--out", str(base / str(i))])
            exits.append((command, cfg, expected, code))
    finally:
        sys.setprofile(None)
    return ran, exits


def own_code(obj):
    """The code objects of a function, or of the functions a class defines."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    return set().union(*map(member_code, vars(obj).values()))


def member_code(member):
    """The code objects of one class member, a method or a (cached)
    property; none for data."""
    fn = (member.fget if isinstance(member, property) else
          member.func if isinstance(member, cached_property) else member)
    return {fn.__code__} if inspect.isfunction(fn) else set()


def public_names():
    """"module.name" or "module.Class.method" -> its code objects, for
    every public function, class and method of a public class."""
    names = {}
    for info in pkgutil.iter_modules(gaborfio.__path__):
        module = importlib.import_module(f"gaborfio.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None)
                    != module.__name__ or not (inspect.isfunction(obj)
                                               or inspect.isclass(obj))):
                continue
            names[f"{info.name}.{name}"] = (obj, own_code(obj))
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and member_code(member):
                        names[f"{info.name}.{name}.{attr}"] = \
                            (obj, member_code(member))
    return names


def test_every_run_exits_as_expected(tour):
    _, exits = tour
    wrong = [(command, cfg, expected, code)
             for command, cfg, expected, code in exits if code != expected]
    assert wrong == []


def test_every_public_name_is_reached(tour):
    ran, _ = tour
    unreached = sorted(
        name for name, (obj, codes) in public_names().items()
        if not codes & ran
        and name not in BENCH_PINNED and obj not in EXIT_MAPPED)
    assert unreached == []


def test_exempt_names_are_still_exempt(tour):
    # A pin is dropped once a run reaches the name or the benchmark stops
    # naming it; an exempt exception is one whose exit code a run gave.
    ran, exits = tour
    names = public_names()
    spans = (ROOT / "bench" / "spans.py").read_text()
    for name in BENCH_PINNED:
        assert not names[name][1] & ran, name
        module, attr = name.split(".", 1)
        assert f'("{module}", "{attr}")' in spans, name
    codes = {code for *_, code in exits}
    for exc, code in EXIT_MAPPED.items():
        assert not own_code(exc), exc
        assert code in codes, exc
