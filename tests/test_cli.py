"""End-to-end tests of the command-line interface.

Checks output formats, schemas, exit codes and byte-for-byte
reproducibility of repeated runs.  Most tests call main(argv) in this
process (the run_main fixture), which pays the import once; a fresh process
(run_cli) checks what only a process shows: prompt refusals under a timeout,
the modules it imports, a closed stdout, and that a fresh process prints the
bytes of a run in a process whose caches are warm.
"""
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import TABLE1, printed_tolerance


def run_cli(*args, env_extra=None, timeout=600):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.fixture
def run_main(capfd):
    """main(argv) in this process, as a CompletedProcess like run_cli's; a
    warning is written to stderr, as a fresh process would print it."""
    from kab.cli import main

    def run(*args):
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(list(args))
        out, err = capfd.readouterr()
        err += "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
            for w in caught
        )
        return subprocess.CompletedProcess(args, code, out, err)

    return run


# the command lines of README's "Command line" section
README_COMMANDS = [
    line.split("#")[0].split()[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("kab ")
]


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# {")
    meta = json.loads(lines[0][2:])
    columns = lines[1][2:].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, columns, rows


class TestTable1:
    def test_values_match_reference(self, run_main):
        res = run_main("table1")
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["n", "numeric_22", "wkb_22", "h_n", "wkb_11"]
        assert len(rows) == 10
        for i, row in enumerate(rows):
            for j, col in enumerate(columns[1:], start=1):
                entry = TABLE1[col][i]
                assert abs(float(row[j]) - float(entry)) <= printed_tolerance(entry)

    def test_reproducible(self, run_main):
        # C-1: two runs emit byte-identical output
        a = run_cli("table1")
        b = run_main("table1")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestSpectrum:
    def test_json_output(self, run_main):
        res = run_main(
            "spectrum", "--alpha", "1", "--beta", "1", "--n", "5",
            "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["backend"] == "pseudospectral"
        assert doc["params"] == {"alpha": 1.0, "beta": 1.0}
        # kappa_n = 2 h_n for (1, 1)
        assert abs(doc["eigenvalues"][1] - 2.0) < 1e-3
        assert abs(doc["eigenvalues"][2] - 3.0) < 1e-3

    def test_csv_output(self, run_main):
        res = run_main(
            "spectrum", "--alpha", "2", "--beta", "2", "--n", "3",
            "--backend", "galerkin", "--n-trunc", "256",
        )
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["n", "kappa"]
        assert abs(0.5 * float(rows[0][1]) - 0.2332) < 5e-3

    def test_galerkin_truncation_estimate(self, run_main):
        # the largest estimated error of the extrapolated eigenvalues at 3
        # significant digits, in the JSON document and the CSV header,
        # identical in a fresh process and in this one
        args = ("spectrum", "--alpha", "0.7", "--beta", "1.9", "--n", "4",
                "--backend", "galerkin", "--n-trunc", "128")
        a = run_cli(*args, "--format", "json")
        b = run_main(*args, "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        est = json.loads(a.stdout)["truncation_estimate"]
        assert math.isfinite(est) and est > 0
        assert est == float(f"{est:.3g}")
        meta, _, _ = parse_csv(run_main(*args).stdout)
        assert meta["truncation_estimate"] == est

    @pytest.mark.parametrize(
        "backend_args,resolution",
        [
            (("--backend", "galerkin", "--n-trunc", "128"), {"n_trunc": 128}),
            (("--u-max", "30", "--m-points", "512"), {"u_max": 30.0, "m_points": 512}),
        ],
    )
    def test_states_resolution(self, run_main, backend_args, resolution):
        # the size each backend ran at, in the JSON document and the CSV header
        args = ("spectrum", "--alpha", "2", "--beta", "2", "--n", "3", *backend_args)
        doc = json.loads(run_main(*args, "--format", "json").stdout)
        meta, _, _ = parse_csv(run_main(*args).stdout)
        for key, value in resolution.items():
            assert doc[key] == meta[key] == value
        others = {"n_trunc", "u_max", "m_points"} - set(resolution)
        assert not others & (set(doc) | set(meta))

    def test_pseudospectral_has_no_truncation_estimate(self, run_main):
        res = run_main("spectrum", "--alpha", "2", "--beta", "2", "--n", "3",
                       "--format", "json")
        assert res.returncode == 0
        assert "truncation_estimate" not in json.loads(res.stdout)

    def test_galerkin_size_names_callers_n(self, run_main):
        res = run_main(
            "spectrum", "--alpha", "2", "--beta", "2", "--backend", "galerkin",
            "--n-trunc", "5000",
        )
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "n_trunc=5000 must be a multiple of 8 in [8, 4096]" in err["error"]

    @pytest.mark.parametrize(
        "size_args,names",
        [
            (("--n-trunc", "100"), ["n_trunc=100", "multiple of 8"]),
            (("--n", "20", "--n-trunc", "128"), ["n_eigs=20", "n_trunc=128", "[1, 16]"]),
        ],
    )
    def test_galerkin_bounds_exit_2(self, capsys, size_args, names):
        # n_trunc a multiple of 8 and n <= n_trunc/8: the smallest of the four
        # blocks solved holds every state asked for
        from kab.cli import main

        argv = ["spectrum", "--alpha", "2", "--beta", "2", "--backend", "galerkin"]
        assert main([*argv, *size_args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["kind"] == "validation"
        for name in names:
            assert name in doc["error"]

    def test_pseudospectral_count_bounded_exit_2(self, capsys, monkeypatch):
        # --n 60000 on 65536 points would ask Lanczos for a ~63 GB basis; the
        # solve refuses it before Lanczos starts
        import kab.operators
        from kab.cli import main

        def lanczos(*args):
            pytest.fail("Lanczos called for an unbounded eigenpair count")

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        argv = ["spectrum", "--alpha", "2", "--beta", "2", "--n", "60000",
                "--m-points", "65536"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["kind"] == "validation"
        for name in ("n_eigs=60000", "m_points=65536", "[1, 511]"):
            assert name in doc["error"]

    def test_invalid_params_exit_2(self, run_main):
        res = run_main("spectrum", "--alpha", "-1", "--beta", "1")
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"

    def test_huge_grid_exit_2_promptly(self):
        # the grid is bounded, so an absurd size is refused before any work
        res = run_cli(
            "spectrum", "--alpha", "2", "--beta", "2", "--m-points", "1073741824",
            timeout=10,
        )
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "validation"

    def test_resolution_env_ignored(self, capsys, monkeypatch):
        # argv is the whole input: the resolution comes from the options and
        # their defaults, never from the environment
        from kab.cli import main

        monkeypatch.setenv("KAB_M_POINTS", "1024")
        monkeypatch.setenv("KAB_U_MAX", "30")
        argv = ["spectrum", "--alpha", "2", "--beta", "2", "--n", "2", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m_points"] == 2048
        assert doc["u_max"] == 40.0


class TestWkbTable:
    def test_with_bohr_sommerfeld(self, run_main):
        res = run_main(
            "wkb-table", "--alpha", "2", "--beta", "2", "--n", "2",
            "--bohr-sommerfeld",
        )
        assert res.returncode == 0
        _, columns, rows = parse_csv(res.stdout)
        assert columns == ["n", "wkb_closed_form", "bohr_sommerfeld"]
        col = {name: [r[j] for r in rows] for j, name in enumerate(columns)}
        assert abs(float(col["bohr_sommerfeld"][0]) - 0.38785) < 5e-4
        assert abs(float(col["wkb_closed_form"][1]) - 1.4343) < 1e-3

    def test_with_reference_refused_exit_2(self, capsys):
        # the numerical spectrum is kab spectrum's (and table1's) output; the
        # WKB table has no reference column
        from kab.cli import main

        assert main(["wkb-table", "--alpha", "2", "--beta", "2", "--with-reference"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["kind"] == "validation"

    @pytest.mark.parametrize("n", ["0", "4097", "100000000"])
    def test_row_count_bounded_exit_2(self, capsys, n):
        # the table solves per row, so --n is capped like every other size;
        # an unbounded --n once ran without output for more than 30 s
        from kab.cli import main

        argv = ["wkb-table", "--alpha", "2", "--beta", "2", "--n", n, "--bohr-sommerfeld"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["kind"] == "validation"
        assert doc["error"] == f"wkb_table: n_rows={n} must lie in [1, 4096]"

    @pytest.mark.parametrize(
        "alpha,beta,column",
        [
            ("2", "2", ["0.3878514366", "1.423038799", "1.939413907", "2.278191085",
                        "2.530624604", "2.731926272", "2.899373143", "3.042736155",
                        "3.168083573", "3.279444007"]),
            ("0.7", "1.9", ["-0.03517554113", "0.8561353816", "1.356985371",
                            "1.692715273", "1.943968636", "2.14466922", "2.311766506",
                            "2.454908003", "2.580106108", "2.691361059"]),
        ],
    )
    def test_bohr_sommerfeld_column_frozen(self, capsys, alpha, beta, column):
        # the printed 10-digit column, byte for byte, as the README command
        # line has printed it since the column was introduced
        from kab.cli import main

        argv = ["wkb-table", "--alpha", alpha, "--beta", beta, "--bohr-sommerfeld"]
        assert main(argv) == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        j = columns.index("bohr_sommerfeld")
        assert [r[j] for r in rows] == column

    @pytest.mark.parametrize("alpha,n", [("1000", "5"), ("1e4", "10")])
    def test_bohr_sommerfeld_deep_well_exit_0(self, capsys, alpha, n):
        # both once exited 3 with "no convergence in 100 steps"
        from kab.cli import main

        argv = ["wkb-table", "--alpha", alpha, "--beta", "2", "--n", n, "--bohr-sommerfeld"]
        assert main(argv) == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == int(n)
        assert all(r[columns.index("bohr_sommerfeld")] for r in rows)


class TestEigenfunction:
    def test_columns_and_overlap(self, run_main):
        res = run_main(
            "eigenfunction", "--alpha", "2", "--beta", "2", "--n", "6",
            "--m-points", "1024", "--u-max", "30",
        )
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["u", "x", "psi_numeric", "psi_semiclassical"]
        data = np.array([[float(v) for v in r] for r in rows])
        # x = tanh u (both printed at 10 significant digits)
        assert np.max(np.abs(data[:, 1] - np.tanh(data[:, 0]))) < 1e-9
        num, sc = data[:, 2], data[:, 3]
        cos = np.dot(num, sc) / np.sqrt(np.dot(num, num) * np.dot(sc, sc))
        assert cos > 0.99

    def test_generic_parameters_leave_stderr_empty(self, run_main):
        res = run_main(
            "eigenfunction", "--alpha", "0.7", "--beta", "1.9", "--m-points", "256",
        )
        assert res.returncode == 0
        assert res.stderr == ""


class TestMehlerFock:
    def test_t_max_option_refused(self, run_main):
        # the transform runs on the half-line up to S, so no t_max is taken;
        # the refusal of a slowly decaying profile is tested in test_exact
        res = run_main(
            "mehler-fock", "--profile", "xi-sq", "--t-max", "10",
            "--dk", "1.0", "--k-max", "4",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "unrecognized arguments: --t-max 10" in err["error"]

    def test_huge_k_max_exit_2_promptly(self):
        # 2e7 wavenumbers are refused before any grid is formed
        res = run_cli("mehler-fock", "--k-max", "1e6", timeout=10)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "k_max/dk = 20000000 " in err["error"]

    def test_dk_not_dividing_k_max_exit_2(self, run_main):
        # 1/0.6 is not whole: the grid would be spaced 0.5, not 0.6
        res = run_main("mehler-fock", "--k-max", "1", "--dk", "0.6")
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "k_max/dk = 1.666666667" in err["error"]

    def test_json_matches_schema_fields(self, run_main):
        res = run_main(
            "mehler-fock", "--profile", "xi-sq-sq", "--k-max", "10",
            "--dk", "0.1", "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert set(doc) >= {"k", "c", "t_max", "meta"}
        assert len(doc["k"]) == len(doc["c"]) == 101
        schema = json.loads(run_main("--schema").stdout)["mehler-fock"]["properties"]
        assert set(doc["meta"]) == set(schema["meta"]["properties"])
        assert "cosh(s_max)" in schema["t_max"]["description"]
        assert doc["t_max"] == math.cosh(doc["meta"]["s_max"])
        # the estimates print as in the CSV header, to 3 significant digits
        csv = run_main(
            "mehler-fock", "--profile", "xi-sq-sq", "--k-max", "10", "--dk", "0.1",
        )
        header = parse_csv(csv.stdout)[0]
        assert header["t_max"] == doc["t_max"]
        for key in ("r_quadrature_estimate", "tail_estimate"):
            est = doc["meta"][key]
            assert est == header[key]
            assert est == float(f"{est:.3g}")

    def test_csv_header_has_r_quadrature_estimate(self, run_main):
        args = ("mehler-fock", "--profile", "xi-sq", "--k-max", "5", "--dk", "0.25")
        first, second = run_cli(*args), run_main(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        meta, columns, _ = parse_csv(first.stdout)
        assert columns == ["k", "c"]
        est = meta["r_quadrature_estimate"]
        assert math.isfinite(est)
        # rounded to 3 significant digits
        assert est == float(f"{est:.3g}")


class TestEvolve:
    def test_tau_zero_returns_profile(self, run_main):
        res = run_main(
            "evolve", "--tau", "0", "--profile", "xi-cube", "--points", "32",
            "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        xi = np.array(doc["xi"])
        u = np.array(doc["u"])
        assert np.max(np.abs(u - xi**3 * (1.0 - xi))) < 1e-14
        # the JSON names the backend, as the CSV header does
        assert doc["meta"] == {"backend": "matrix"}

    def test_matrix_run_csv(self, run_main):
        res = run_main(
            "evolve", "--tau", "0.2", "--points", "32", "--n-trunc", "192",
        )
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["xi", "u"]
        assert meta["backend"] == "matrix"
        assert "truncation_estimate" in meta

    def test_default_truncation_meets_a8(self, run_main):
        # A-8: the default matrix run agrees with the spectral backend
        docs = [
            json.loads(run_main("evolve", "--tau", "1", *extra, "--format", "json").stdout)
            for extra in ((), ("--backend", "spectral"))
        ]
        xi = np.array(docs[0]["xi"])
        um, us = (np.array(d["u"]) for d in docs)
        mask = (xi >= 0.05) & (xi <= 0.95)
        diff = np.max(np.abs(um[mask] - us[mask])) / np.max(np.abs(um[mask]))
        assert diff < 1e-3

    def test_spectral_run_states_resolution(self, run_main):
        res = run_main("evolve", "--tau", "1", "--backend", "spectral", "--points", "16")
        assert res.returncode == 0
        meta, _, rows = parse_csv(res.stdout)
        assert len(rows) == 16
        assert meta["backend"] == "spectral"
        assert {"s_max", "n_fft", "abel_nodes"} <= set(meta)
        assert not {"k_max", "dk", "t_max", "tail_estimate"} & set(meta)

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
    def test_invalid_tau_exit_2(self, run_main, tau):
        res = run_main("evolve", "--tau", tau, "--points", "8", "--n-trunc", "32")
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "validation"

    def test_reproducible(self, run_main):
        # repeated runs print the same bytes, the error estimate included
        args = ("evolve", "--tau", "1.0", "--n-trunc", "64", "--points", "16")
        a, b = run_cli(*args), run_main(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_reproducible_json(self, run_main):
        # JSON prints every value at full repr, so the step must be
        # deterministic in every digit, not only after rounding: the
        # interpolant's weights are closed-form and the Lanczos exponential
        # draws no random vector
        args = (
            "evolve", "--tau", "1.0", "--n-trunc", "64", "--points", "16",
            "--format", "json",
        )
        a, b = run_cli(*args), run_main(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_matrix_size_names_callers_n(self, capsys):
        from kab.cli import main

        assert main(["evolve", "--tau", "1", "--n-trunc", "5000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "n_trunc=5000 must lie in [1, 4096]" in json.loads(err)["error"]

    def test_huge_tau_exit_3_promptly(self):
        for args in (
            ("--tau", "1e6", "--points", "8", "--n-trunc", "32"),
            ("--tau", "500"),
            ("--backend", "spectral", "--tau", "1e6"),
        ):
            res = run_cli("evolve", *args, timeout=10)
            assert res.returncode == 3
            assert json.loads(res.stderr)["kind"] == "numerical"


class TestBoundaryFit:
    def test_json_fields(self, run_main):
        res = run_main(
            "boundary-fit", "--alpha", "2", "--beta", "2",
            "--m-points", "2048", "--u-max", "40",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["d_beta_exact"] == -0.5
        assert abs(doc["d_beta_fitted"] - doc["d_beta_exact"]) < 0.05


class TestImport:
    def test_scipy_optimize_and_integrate_never_imported(self):
        # every root is found by the Illinois helper in kab.specfun and every
        # integral by a fixed rule, so neither scipy.optimize nor
        # scipy.integrate is ever imported: not on import, not by the
        # Bohr-Sommerfeld table and not by the evolution equation's
        # right-hand side; a fresh process, since the tests import them
        code = (
            "import sys\n"
            "from kab.cli import main\n"
            "from kab.evolution import EvolutionState, PROFILES, default_xi_grid, mm_rhs\n"
            "assert main(['wkb-table', '--alpha', '2', '--beta', '2', '--bohr-sommerfeld']) == 0\n"
            "xi = default_xi_grid(32)\n"
            "mm_rhs(EvolutionState(0.0, xi, PROFILES['xi-sq'](xi)), 0.5)\n"
            "print([m for m in ('scipy.integrate', 'scipy.interpolate', 'scipy.optimize')"
            " if m in sys.modules])\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"

    def test_scipy_linalg_and_sparse_never_loaded(self):
        # scipy.linalg and scipy.sparse cost about 9 MB and 0.1 s per process,
        # and nothing needs them: both eigensolvers run on numpy alone.  One
        # fresh process runs the import, the seven README command lines, the
        # Galerkin spectrum, the spectral evolution and the evolution
        # equation's right-hand side, and neither module is loaded after any
        code = (
            "import contextlib, io, json, sys\n"
            "from kab.cli import main\n"
            "from kab.evolution import EvolutionState, PROFILES, default_xi_grid, mm_rhs\n"
            "loaded = {}\n"
            "def check(step):\n"
            "    loaded[step] = [m for m in ('scipy.linalg', 'scipy.sparse')"
            " if m in sys.modules]\n"
            "check('import kab.cli')\n"
            f"for argv in {README_COMMANDS!r} + [\n"
            "        ['spectrum', '--alpha', '2', '--beta', '2', '--backend', 'galerkin'],\n"
            "        ['evolve', '--tau', '1', '--backend', 'spectral']]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    check(' '.join(argv))\n"
            "xi = default_xi_grid(32)\n"
            "mm_rhs(EvolutionState(0.0, xi, PROFILES['xi-sq'](xi)), 0.5)\n"
            "check('mm_rhs')\n"
            "print(json.dumps(loaded))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        loaded = json.loads(res.stdout.splitlines()[-1])
        assert len(loaded) == 1 + len(README_COMMANDS) + 3
        assert loaded == {step: [] for step in loaded}


class TestSchemaAndErrors:
    def test_schema_dump(self, run_main):
        res = run_main("--schema")
        assert res.returncode == 0
        schemas = json.loads(res.stdout)
        assert set(schemas) >= {"spectrum", "mehler-fock", "evolve", "boundary-fit", "error"}
        for doc in schemas.values():
            assert doc["type"] == "object"
        spectrum = schemas["spectrum"]
        for key in ("truncation_estimate", "n_trunc", "u_max", "m_points"):
            assert key in spectrum["properties"]
            assert key not in spectrum["required"]
        meta = schemas["evolve"]["properties"]["meta"]["properties"]
        assert {"backend", "n_trunc", "truncation_estimate", "s_max", "n_fft",
                "abel_nodes"} <= set(meta)

    @pytest.mark.parametrize(
        "args",
        [
            ("mehler-fock", "--dk", "0"),
            ("mehler-fock", "--k-max", "nan"),
            ("mehler-fock", "--k-max", "1e4", "--dk", "1"),
            ("wkb-table", "--alpha", "2", "--beta", "2", "--n", "-1"),
            ("spectrum", "--alpha", "0", "--beta", "0", "--backend", "galerkin"),
            ("spectrum", "--alpha", "0", "--beta", "0", "--backend", "pseudospectral"),
            ("spectrum", "--alpha", "2", "--beta", "2", "--n", "0"),
            ("eigenfunction", "--alpha", "2", "--beta", "2", "--n", "64", "--m-points", "64"),
            ("spectrum", "--alpha", "2", "--beta", "2", "--backend", "galerkin",
             "--n-trunc", "10000000"),
            ("evolve", "--tau", "1", "--n-trunc", "10000000"),
            ("evolve", "--tau", "1", "--n-trunc", "0"),
            ("evolve", "--tau", "1", "--points", "10000000"),
            ("eigenfunction", "--alpha", "2", "--beta", "2", "--m-points", "256",
             "--u-window", "-1"),
            ("eigenfunction", "--alpha", "2", "--beta", "2", "--m-points", "256",
             "--u-window", "nan"),
            ("evolve", "--tau", "1", "--n-trunc", "5000"),
            ("spectrum", "--alpha", "2", "--beta", "2", "--m-points", "256",
             "--output", "/nonexistent-dir/kab/spectrum.csv"),
        ],
    )
    def test_validation_exit_2(self, run_main, args):
        res = run_main(*args)
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "validation"

    @pytest.mark.parametrize(
        "name,args",
        [
            ("spectrum", ("spectrum", "--alpha", "2", "--beta", "2", "--n", "3",
                          "--m-points", "256", "--format", "json")),
            ("spectrum", ("spectrum", "--alpha", "2", "--beta", "2", "--n", "3",
                          "--backend", "galerkin", "--n-trunc", "32", "--format", "json")),
            ("mehler-fock", ("mehler-fock", "--k-max", "5", "--dk", "0.25",
                             "--format", "json")),
            ("evolve", ("evolve", "--tau", "0.5", "--points", "16", "--n-trunc", "32",
                        "--format", "json")),
            ("evolve", ("evolve", "--tau", "0.5", "--points", "16", "--backend",
                        "spectral", "--format", "json")),
            ("boundary-fit", ("boundary-fit", "--alpha", "2", "--beta", "2",
                              "--m-points", "1024")),
            ("error", ("mehler-fock", "--dk", "0")),
        ],
    )
    def test_emitted_keys_in_schema(self, capsys, name, args):
        # every top-level key a command writes is documented, and every
        # required one is written; errors go to stderr with exit 2
        from kab.cli import _SCHEMAS, main

        code = main(list(args))
        out, err = capsys.readouterr()
        assert code == (2 if name == "error" else 0)
        doc = json.loads(err if code else out)
        schema = _SCHEMAS[name]
        assert set(doc) <= set(schema["properties"])
        assert set(schema["required"]) <= set(doc)

    # "=v" is passed joined to its option, None leaves the option out; argparse
    # takes "-inf" for an option and rejects "abc", and those errors are
    # reported as JSON too
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "=-inf", "abc", None])
    @pytest.mark.parametrize("param", ["--alpha", "--beta"])
    @pytest.mark.parametrize(
        "command",
        [
            ("spectrum", "--m-points", "256"),
            ("spectrum", "--backend", "galerkin", "--n-trunc", "32"),
            ("wkb-table",),
            ("wkb-table", "--bohr-sommerfeld"),
            ("eigenfunction", "--m-points", "256"),
            ("boundary-fit", "--m-points", "256"),
        ],
    )
    def test_non_finite_params_exit_2(self, capsys, command, param, value):
        # every command taking alpha and beta refuses a non-finite one with
        # one JSON object on stderr and nothing on stdout
        from kab.cli import main

        params = {"--alpha": "2", "--beta": "2", param: value}
        argv = [command[0]]
        for option, v in params.items():
            if v is not None:
                argv += [option + v] if v.startswith("=") else [option, v]
        code = main([*argv, *command[1:]])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "validation"

    def test_non_finite_param_named(self, capsys):
        # the message names the function that refused the value and its
        # parameter
        from kab.cli import main

        assert main(["wkb-table", "--alpha", "nan", "--beta", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "wkb_eigenvalue: alpha must be finite, got nan"
        argv = ["wkb-table", "--alpha", "nan", "--beta", "2", "--bohr-sommerfeld"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == (
            "bohr_sommerfeld_solve: alpha must be finite, got nan"
        )

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["wkb-table", "--alpha", "0.0747", "--beta", "5e-324", "--n", "8",
              "--bohr-sommerfeld"], ": beta must be positive with a finite reciprocal, got "),
            (["boundary-fit", "--alpha", "2", "--beta", "2.2e-313", "--m-points", "128"],
             ": beta must be positive with a finite reciprocal, got "),
            (["wkb-table", "--alpha", "2", "--beta", "5e-324", "--n", "2"],
             ": beta must be positive with a finite reciprocal, got "),
            (["boundary-fit", "--alpha", "2", "--beta", "1e-308", "--m-points", "128"],
             "overflows at beta=1e-308, kappa_prime="),
        ],
        ids=["wkb-table-bohr-sommerfeld", "boundary-fit", "wkb-table", "boundary-fit-window"],
    )
    def test_denormal_param_named(self, capsys, argv, named):
        # a beta whose reciprocal, or whose fit window |kappa'|/beta, overflows
        # is refused by name; these once blamed an internal variable
        # ("big_g_inverse: y", "window ... >= inf") or printed -inf and exited 0
        from kab.cli import main

        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["kind"] == "validation"
        assert named in doc["error"]

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["spectrum", "--alpha", "1e308", "--beta", "1e308", "--n", "2",
              "--m-points", "256"], ("alpha=1e+308", "beta=1e+308", "u_max=40.0")),
            (["spectrum", "--backend", "galerkin", "--alpha", "1e308", "--beta", "1e308",
              "--n", "2", "--n-trunc", "64"], ("alpha=1e+308", "beta=1e+308")),
        ],
        ids=["pseudospectral", "galerkin"],
    )
    def test_huge_param_named(self, capfd, argv, named):
        # a potential or matrix entry that overflows is refused by name before
        # any solve: these once let LAPACK print to file descriptor 1 and
        # ARPACK fail with code -9999, or blamed "infs or NaNs" in an array
        from kab.cli import main

        assert main(argv) == 2
        out, err = capfd.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["kind"] == "validation"
        for part in named:
            assert part in doc["error"]

    @pytest.mark.parametrize("argv", [["--help"], ["evolve", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        # help is not an error: argparse prints it on stdout and exits 0
        from kab.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0
        assert out.startswith("usage: kab") and err == ""

    def test_no_command_exit_2(self, run_main):
        # like every other validation error: one JSON object on stderr and
        # nothing on stdout
        res = run_main()
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "command is required" in err["error"]


class TestClosedStdout:
    @pytest.mark.parametrize("args", [("table1",), ("--schema",)])
    def test_exit_1_silently(self, args):
        # the read end of the pipe is closed before the process starts, so
        # every write fails: exit 1 as after SIGPIPE, with no JSON report and
        # no error when Python flushes stdout at shutdown
        import os

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "kab.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=600,
            )
        finally:
            os.close(write_end)
        assert res.returncode == 1
        assert res.stderr == ""


class TestReadmeCommands:
    def test_seven_found(self):
        assert len(README_COMMANDS) == 7

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_no_warning(self, capfd, argv):
        # a default path prints its result and nothing on stderr: no library
        # warning is left on it
        from kab.cli import main

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capfd.readouterr()
        assert code == 0
        assert out and err == ""
        assert [str(w.message) for w in caught] == []
