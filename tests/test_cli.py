"""End-to-end tests of the command-line interface via subprocess.

Checks output formats, schemas, exit codes and byte-for-byte
reproducibility of repeated runs.
"""
import json
import math
import subprocess
import sys

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


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# {")
    meta = json.loads(lines[0][2:])
    columns = lines[1][2:].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, columns, rows


class TestTable1:
    def test_values_match_reference(self):
        res = run_cli("table1")
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["n", "numeric_22", "wkb_22", "h_n", "wkb_11"]
        assert len(rows) == 10
        for i, row in enumerate(rows):
            for j, col in enumerate(columns[1:], start=1):
                entry = TABLE1[col][i]
                assert abs(float(row[j]) - float(entry)) <= printed_tolerance(entry)

    def test_reproducible(self):
        # C-1: two runs emit byte-identical output
        a = run_cli("table1")
        b = run_cli("table1")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_resolution_env_override(self):
        res = run_cli("table1", env_extra={"KAB_U_MAX": "30", "KAB_M_POINTS": "1024"})
        meta, _, _ = parse_csv(res.stdout)
        assert meta["u_max"] == 30.0
        assert meta["m_points"] == 1024


class TestSpectrum:
    def test_json_output(self):
        res = run_cli(
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

    def test_csv_output(self):
        res = run_cli(
            "spectrum", "--alpha", "2", "--beta", "2", "--n", "3",
            "--backend", "galerkin", "--n-trunc", "256",
        )
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["n", "kappa"]
        assert abs(0.5 * float(rows[0][1]) - 0.2332) < 5e-3

    def test_galerkin_truncation_estimate(self):
        # the largest |lam_2N - lam_N| at 3 significant digits, in the JSON
        # document and the CSV header, identical over repeated runs
        args = ("spectrum", "--alpha", "0.7", "--beta", "1.9", "--n", "4",
                "--backend", "galerkin", "--n-trunc", "128")
        a = run_cli(*args, "--format", "json")
        b = run_cli(*args, "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        est = json.loads(a.stdout)["truncation_estimate"]
        assert math.isfinite(est) and est > 0
        assert est == float(f"{est:.3g}")
        meta, _, _ = parse_csv(run_cli(*args).stdout)
        assert meta["truncation_estimate"] == est

    @pytest.mark.parametrize(
        "backend_args,resolution",
        [
            (("--backend", "galerkin", "--n-trunc", "128"), {"n_trunc": 128}),
            (("--u-max", "30", "--m-points", "512"), {"u_max": 30.0, "m_points": 512}),
        ],
    )
    def test_states_resolution(self, backend_args, resolution):
        # the size each backend ran at, in the JSON document and the CSV header
        args = ("spectrum", "--alpha", "2", "--beta", "2", "--n", "3", *backend_args)
        doc = json.loads(run_cli(*args, "--format", "json").stdout)
        meta, _, _ = parse_csv(run_cli(*args).stdout)
        for key, value in resolution.items():
            assert doc[key] == meta[key] == value
        others = {"n_trunc", "u_max", "m_points"} - set(resolution)
        assert not others & (set(doc) | set(meta))

    def test_pseudospectral_has_no_truncation_estimate(self):
        res = run_cli("spectrum", "--alpha", "2", "--beta", "2", "--n", "3",
                      "--format", "json")
        assert res.returncode == 0
        assert "truncation_estimate" not in json.loads(res.stdout)

    def test_galerkin_size_names_callers_n(self):
        res = run_cli(
            "spectrum", "--alpha", "2", "--beta", "2", "--backend", "galerkin",
            "--n-trunc", "5000", timeout=30,
        )
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "n_trunc=5000 must lie in [1, 4096]" in err["error"]

    def test_invalid_params_exit_2(self):
        res = run_cli("spectrum", "--alpha", "-1", "--beta", "1")
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"

    def test_huge_grid_exit_2_promptly(self):
        # the grid is bounded, so an absurd size is refused before any work
        for args, env in (
            (("--m-points", "1073741824"), None),
            ((), {"KAB_M_POINTS": "1073741824"}),
        ):
            res = run_cli(
                "spectrum", "--alpha", "2", "--beta", "2", *args,
                env_extra=env, timeout=10,
            )
            assert res.returncode == 2
            assert json.loads(res.stderr)["kind"] == "validation"


class TestWkbTable:
    def test_with_bohr_sommerfeld(self):
        res = run_cli(
            "wkb-table", "--alpha", "2", "--beta", "2", "--n", "2",
            "--bohr-sommerfeld",
        )
        assert res.returncode == 0
        _, columns, rows = parse_csv(res.stdout)
        assert columns == ["n", "reference", "wkb_closed_form", "bohr_sommerfeld"]
        assert rows[0][1] == ""  # no reference requested
        assert abs(float(rows[0][3]) - 0.38785) < 5e-4
        assert abs(float(rows[1][2]) - 1.4343) < 1e-3


class TestEigenfunction:
    def test_columns_and_overlap(self):
        res = run_cli(
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

    def test_generic_parameters_leave_stderr_empty(self):
        res = run_cli(
            "eigenfunction", "--alpha", "0.7", "--beta", "1.9", "--m-points", "256",
        )
        assert res.returncode == 0
        assert res.stderr == ""


class TestMehlerFock:
    def test_slow_decay_exit_3(self):
        # a very small t_max leaves a visible integrand tail; dk is kept
        # large so the run stays fast
        res = run_cli(
            "mehler-fock", "--profile", "xi-sq", "--t-max", "10",
            "--dk", "1.0", "--k-max", "4",
        )
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["kind"] == "numerical"

    def test_huge_k_max_exit_2_promptly(self):
        # 2e7 wavenumbers are refused before any grid is formed
        res = run_cli("mehler-fock", "--k-max", "1e6", timeout=10)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "k_max/dk = 20000000 " in err["error"]

    def test_dk_not_dividing_k_max_exit_2(self):
        # 1/0.6 is not whole: the grid would be spaced 0.5, not 0.6
        res = run_cli("mehler-fock", "--k-max", "1", "--dk", "0.6", timeout=60)
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["kind"] == "validation"
        assert "k_max/dk = 1.666666667" in err["error"]

    def test_json_matches_schema_fields(self):
        res = run_cli(
            "mehler-fock", "--profile", "xi-sq-sq", "--k-max", "10",
            "--dk", "0.1", "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert set(doc) >= {"k", "c", "t_max", "meta"}
        assert len(doc["k"]) == len(doc["c"]) == 101

    def test_csv_header_has_r_quadrature_estimate(self):
        args = ("mehler-fock", "--profile", "xi-sq", "--k-max", "5", "--dk", "0.25")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        meta, columns, _ = parse_csv(first.stdout)
        assert columns == ["k", "c"]
        est = meta["r_quadrature_estimate"]
        assert math.isfinite(est)
        # rounded to 3 significant digits
        assert est == float(f"{est:.3g}")


class TestEvolve:
    def test_tau_zero_returns_profile(self):
        res = run_cli(
            "evolve", "--tau", "0", "--profile", "xi-cube", "--points", "32",
            "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        xi = np.array(doc["xi"])
        u = np.array(doc["u"])
        assert np.max(np.abs(u - xi**3 * (1.0 - xi))) < 1e-14

    def test_matrix_run_csv(self):
        res = run_cli(
            "evolve", "--tau", "0.2", "--points", "32", "--n-trunc", "192",
        )
        assert res.returncode == 0
        meta, columns, rows = parse_csv(res.stdout)
        assert columns == ["xi", "u"]
        assert meta["backend"] == "matrix"
        assert "truncation_estimate" in meta

    def test_default_truncation_meets_a8(self):
        # A-8: the default matrix run agrees with the spectral backend
        docs = [
            json.loads(run_cli("evolve", "--tau", "1", *extra, "--format", "json").stdout)
            for extra in ((), ("--backend", "spectral"))
        ]
        xi = np.array(docs[0]["xi"])
        um, us = (np.array(d["u"]) for d in docs)
        mask = (xi >= 0.05) & (xi <= 0.95)
        diff = np.max(np.abs(um[mask] - us[mask])) / np.max(np.abs(um[mask]))
        assert diff < 1e-3

    def test_spectral_run_states_resolution(self):
        res = run_cli("evolve", "--tau", "1", "--backend", "spectral", "--points", "16")
        assert res.returncode == 0
        meta, _, rows = parse_csv(res.stdout)
        assert len(rows) == 16
        assert meta["backend"] == "spectral"
        assert {"s_max", "n_fft", "abel_nodes"} <= set(meta)
        assert not {"k_max", "dk", "t_max", "tail_estimate"} & set(meta)

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
    def test_invalid_tau_exit_2(self, tau):
        res = run_cli(
            "evolve", "--tau", tau, "--points", "8", "--n-trunc", "32", timeout=60
        )
        assert res.returncode == 2
        assert json.loads(res.stderr)["kind"] == "validation"

    def test_reproducible(self):
        # repeated runs print the same bytes, the error estimate included
        args = ("evolve", "--tau", "1.0", "--n-trunc", "64", "--points", "16")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_reproducible_json(self):
        # JSON prints every value at full repr, so every random choice in the
        # step (the interpolant's node order, expm_multiply's norm estimate)
        # must be seeded, not only rounded away
        args = (
            "evolve", "--tau", "1.0", "--n-trunc", "64", "--points", "16",
            "--format", "json",
        )
        a, b = run_cli(*args), run_cli(*args)
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
    def test_json_fields(self):
        res = run_cli(
            "boundary-fit", "--alpha", "2", "--beta", "2",
            "--m-points", "2048", "--u-max", "40",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["d_beta_exact"] == -0.5
        assert abs(doc["d_beta_fitted"] - doc["d_beta_exact"]) < 0.05


class TestImport:
    def test_cold_import_skips_heavy_scipy_subpackages(self):
        # quadrature, interpolation and root finding are imported only by the
        # functions that need them, so a cold command does not pay for them
        heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
        code = f"import sys, kab.cli; print([m for m in {heavy!r} if m in sys.modules])"
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestSchemaAndErrors:
    def test_schema_dump(self):
        res = run_cli("--schema")
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
            ("mehler-fock", "--t-max", "0.5"),
            ("mehler-fock", "--t-max", "nan"),
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
    def test_validation_exit_2(self, args):
        res = run_cli(*args, timeout=60)
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
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
        argv = [command[0], *(a for kv in params.items() for a in kv), *command[1:]]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "validation"

    def test_no_command_exit_2(self):
        res = run_cli()
        assert res.returncode == 2
