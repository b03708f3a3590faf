"""Property tests of the command-line boundary, run in-process through main.

argv is the CLI's whole input.  Each numeric option is drawn from valid
values no larger than the README command lines use, and from 0, negatives,
+-inf, nan, 1e-300 and 1e300; each integer option also from 0, negatives
and 2^31.  Grid sizes stay small where valid (--m-points and --points at
most 256, --n-trunc at most 64).  Every example must exit 0 with output on
stdout, or exit 2 (validation) or 3 (numerical) with nothing on stdout, one
JSON object with "error" and "kind" on stderr and no warning, and finish
within EXAMPLE_SECONDS.  The examples are derandomized, so a run is
reproducible.
"""
import contextlib
import io
import json
import math
import signal
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kab.cli import main
from kab.evolution import PROFILES

EXAMPLE_SECONDS = 30
EXAMPLES = 60

_EDGE_FLOATS = [0.0, -1.0, -1e-300, math.inf, -math.inf, math.nan, 1e-300, 1e300]
_EDGE_INTS = [0, -1, -4096, 2**31]


def real(top, *nice):
    """(valid, edge) values of a float option: valid ones in (0, top] or
    among `nice`; edge ones negative or in _EDGE_FLOATS."""
    valid = st.floats(min_value=0.0, max_value=top, exclude_min=True)
    negative = st.floats(min_value=-1e6, max_value=-1e-6)
    edge = st.one_of(negative, st.sampled_from(_EDGE_FLOATS))
    return st.one_of(st.sampled_from(nice), valid) if nice else valid, edge


def integer(lo, hi, *nice):
    """(valid, edge) values of an integer option: valid ones in [lo, hi] or
    among `nice`; edge ones negative or in _EDGE_INTS."""
    valid = st.integers(lo, hi)
    edge = st.one_of(st.integers(-100, -1), st.sampled_from(_EDGE_INTS))
    return st.one_of(st.sampled_from(nice), valid) if nice else valid, edge


def few(valid, option):
    """(valid, edge) values of an option that few values suit: valid ones
    from the list `valid`, edge ones any value of the (valid, edge) pair
    `option`."""
    return st.sampled_from(valid), st.one_of(*option)


def choice(*values):
    """(valid, edge) values of an option with a fixed set of values."""
    return st.sampled_from(values), st.sampled_from(values)


@st.composite
def command_line(draw, command, options, flags=()):
    """argv for `command`: every option in `options` (name -> (valid, edge)),
    in about half the examples one or two of them at an edge value, each
    joined to its value by "=" so that a negative value is not taken for an
    option; each flag in `flags` or not."""
    names = st.sampled_from(sorted(options))
    edged = draw(st.one_of(st.just(set()), st.sets(names, min_size=1, max_size=2)))
    argv = [command]
    for name, (valid, edge) in options.items():
        argv.append(f"{name}={draw(edge if name in edged else valid)}")
    argv += [flag for flag in flags if draw(st.booleans())]
    return argv


FORMAT = choice("csv", "json")
PROFILE = choice(*sorted(PROFILES))
PAIR = {"--alpha": real(2.0, 2.0, 1.0), "--beta": real(2.0, 2.0, 1.0)}
RESOLUTION = {"--u-max": real(40.0, 30.0), "--m-points": few([64, 128, 256], integer(1, 256))}

COMMANDS = {
    "table1": command_line("table1", RESOLUTION),
    "spectrum": command_line("spectrum", {
        **PAIR,
        "--n": integer(1, 10, 2),
        "--backend": choice("galerkin", "pseudospectral"),
        "--n-trunc": few([8, 16, 32, 64], integer(1, 64)),
        **RESOLUTION,
        "--format": FORMAT,
    }),
    "wkb-table": command_line(
        "wkb-table", {**PAIR, "--n": integer(1, 10)}, flags=("--bohr-sommerfeld",)
    ),
    "eigenfunction": command_line("eigenfunction", {
        **PAIR, "--n": integer(0, 6), "--u-window": real(8.0), **RESOLUTION,
    }),
    "mehler-fock": command_line("mehler-fock", {
        "--profile": PROFILE,
        "--k-max": few([1.0, 5.0, 40.0, 60.0], real(40.0)),
        "--dk": few([0.05, 0.25], real(0.05)),
        "--format": FORMAT,
    }),
    "evolve": command_line("evolve", {
        "--tau": real(1.0, 0.5),
        "--profile": PROFILE,
        "--backend": choice("matrix", "spectral"),
        "--points": integer(4, 256, 16),
        "--n-trunc": integer(1, 64, 32),
        "--format": FORMAT,
    }),
    "boundary-fit": command_line("boundary-fit", {
        **PAIR,
        "--n": integer(0, 0),
        "--fit-lo": real(6.0, 6.0),
        "--fit-hi": real(13.0, 13.0),
        **RESOLUTION,
    }),
}


# inputs that once broke the contract: the Bohr-Sommerfeld bracket grew by
# steps of 1 that a kappa' of -7e299 absorbs, so the run never ended; numpy
# warnings went to stderr ahead of the JSON error
FOUND = {
    "wkb-table": [
        ["wkb-table", "--alpha=1e+300", "--beta=2.0", "--n=5", "--bohr-sommerfeld"],
        ["wkb-table", "--alpha=0.07466885519680667", "--beta=5e-324", "--n=8",
         "--bohr-sommerfeld"],
    ],
    "boundary-fit": [
        ["boundary-fit", "--alpha=2.0", "--beta=2.2250738585e-313", "--m-points=128"],
    ],
}


class Overtime(Exception):
    """Raised by the alarm; main catches none of its bases."""


def run(argv):
    """(exit code, stdout, stderr, warnings, seconds) of main(argv)."""

    def alarm(signum, frame):
        raise Overtime

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(EXAMPLE_SECONDS)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    except Overtime:
        pytest.fail(f"{argv} ran past {EXAMPLE_SECONDS} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), caught, time.perf_counter() - start


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_exit_contract(command):
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(argv=COMMANDS[command])
    def check(argv):
        code, out, err, caught, seconds = run(argv)
        assert seconds <= EXAMPLE_SECONDS, argv
        assert code in (0, 2, 3), argv
        if code == 0:
            assert out, argv
            return
        assert out == "", argv
        # a warning would reach stderr ahead of the JSON object
        assert not caught, (argv, [str(w.message) for w in caught])
        doc = json.loads(err)
        assert isinstance(doc, dict) and set(doc) == {"error", "kind"}, argv
        assert doc["kind"] == {2: "validation", 3: "numerical"}[code], argv

    for argv in FOUND.get(command, ()):
        check = example(argv=argv)(check)
    check()


@pytest.mark.parametrize("alpha,beta", [("1e160", "1e160"), ("1e200", "1"), ("1e300", "1e300"),
                                        ("1e306", "1e306"), ("1e305", "1")])
def test_pseudospectral_failure_names_parameters(alpha, beta):
    # a potential still finite on the grid but too steep for Lanczos, from
    # where an unscaled square of it would overflow (1e160) up to where it
    # nearly overflows itself, exits 3 with one JSON line that names the
    # inputs and no warning
    code, out, err, caught, _ = run(["spectrum", "--alpha", alpha, "--beta", beta, "--n", "2",
                                     "--m-points", "256"])
    assert (code, out, err.count("\n"), caught) == (3, "", 1, [])
    doc = json.loads(err)
    assert doc["kind"] == "numerical"
    assert doc["error"].startswith(f"pseudospectral: at alpha={float(alpha)}, ")


@pytest.mark.parametrize("alpha,n_trunc", [("1e306", []), ("1e306", ["--n-trunc", "256"]),
                                            ("8e307", ["--n-trunc", "256"])])
def test_galerkin_steep_potential_clean(alpha, n_trunc):
    # every entry is finite at these alpha; at 1e306 every size is dense and
    # the run returns finite values, at 8e307 a Richardson value overflows
    # and is refused by name: the run exits 0, or 3 with one JSON line, and
    # no warning
    code, out, err, caught, _ = run(["spectrum", "--backend", "galerkin", "--alpha", alpha,
                                     "--beta", "2"] + n_trunc)
    assert code in (0, 3) and caught == []
    if code == 0:
        assert out and err == ""
    else:
        assert (out, err.count("\n")) == ("", 1)
        assert json.loads(err)["kind"] == "numerical"
