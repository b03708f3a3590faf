"""The benchmark workloads: seeded inputs, one request, and its checks.

Each workload is closed loop with a single client.  ``plan`` draws the whole
request set from the seed before anything is timed; ``run`` performs one
request through the package's public API (or its CLI) and is the only timed
code; ``check`` runs after the timed region and returns, per checked
quantity, the measured error and its gate.  A request fails when it raises,
exits nonzero, returns output that cannot be checked, or when any error
exceeds its gate.

Where an acceptance criterion of ``tests/test_acceptance.py`` states a gate
(A-1, A-2, A-3, A-7, A-8, A-9, A-10), the same gate is used here.  Gates the
benchmark defines itself are marked as such where they are set.

Request counts are sized from ``--seconds`` with the per-request costs of
the seed commit on a 2-core x86 machine (``COST``), so every commit runs
the same request set for a given seed and run length.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Table 1 of the paper as printed (kappa_n / 2); each entry carries its own
# precision.  numeric_22 is the converged (2,2) spectrum, h_n the exact (1,1)
# spectrum, wkb_22 / wkb_11 the closed-form WKB values.
TABLE1 = {
    "numeric_22": ["0.2332", "1.4437", "1.9409", "2.2833", "2.5317",
                   "2.7342", "2.9000", "3.0440", "3.1686", "3.2803"],
    "wkb_22": ["0.3357", "1.4343", "1.9451", "2.2816", "2.5329",
               "2.7335", "2.9006", "3.0437", "3.1689", "3.2801"],
    "h_n": ["0", "1", "1.5", "1.8333", "2.0833",
            "2.2833", "2.45", "2.5929", "2.7179", "2.8290"],
    "wkb_11": ["-0.116", "0.9827", "1.4935", "1.83", "2.0813",
               "2.282", "2.449", "2.5921", "2.7173", "2.8285"],
}

# acceptance gates (tests/test_acceptance.py)
A2_GATE = 2e-3      # (2,2) pseudospectral column against TABLE1
A3_PS_GATE = 1e-4   # pseudospectral (1,1) against h_n
A3_GAL_GATE = 1e-12  # Galerkin (1,1) diagonal against 2 h_n
A7_GATE = 1e-4      # Mehler-Fock round trip
A8_AGREE = 1e-3     # matrix against spectral evolution, relative
A8_SEMI = 2e-3      # one step against two steps, relative
A8_LIN = 1e-8       # linearity, absolute
A9_OVERLAP = 0.01   # 1 - overlap of WKB and numerical states, n >= 5, (2,2)
A10_GATE = 0.05     # fitted boundary exponent

# Benchmark gate for the overlap at pairs other than (2,2), where A-9 states
# no gate: WKB is least accurate for small alpha or beta (the seed commit
# reaches 1 - overlap = 0.025 at alpha = 0.5), so the gate is five times A-9's.
OVERLAP_GATE = 0.05

ANCHOR_22 = (2.0, 2.0)
ANCHOR_11 = (1.0, 1.0)
PAIR_RANGE = (0.5, 3.0)
EVOLVE_TAU = (0.25, 2.5)
# A-8 states its semigroup gate at tau = 1.  The semigroup discrepancy grows
# with tau, so that gate also holds for tau < 1.  A-8 states no gate beyond
# tau = 1; there the benchmark gates the discrepancy by the matrix backend's
# own truncation estimate (the gap between its n_trunc and 2 n_trunc
# results), which grows with tau as the truncation error does.  On the seed
# commit the discrepancy at tau = 2.5 is 2.0e-2 against an estimate of
# 2.7e-2, where A-8's 2e-3 would fail on truncation alone.
A8_SEMI_TAU = 1.0

# Per-request seconds at the seed commit (2-core x86, OpenBLAS, 2 threads).
COST = {
    "spectra-scan": 4.4,   # one round: one request of each of the 3 calls
    "wkb-pair": 7.0,       # a generic (alpha, beta) pair
    "wkb-anchors": 6.3,    # (1,1) and (2,2) together
    "evolve-single": 7.5,
    "evolve-chained": 15.0,
    "cli-cold": 18.5,      # one round: each README command line once
}

SIZES = {
    "full": {
        "scale": "full",
        "u_max": 40.0, "m_points": 2048, "n_trunc": 1024, "n_eigs": 10,
        "ref_m_points": 1024, "ref_n_trunc": 256,
        "levels": 10, "window": 8.0,
        "evolve_n_trunc": 960, "xi_points": 96, "spectral": {},
    },
    "smoke": {
        "scale": "smoke",
        "u_max": 40.0, "m_points": 256, "n_trunc": 64, "n_eigs": 4,
        "ref_m_points": 128, "ref_n_trunc": 32,
        "levels": 2, "window": 8.0,
        "evolve_n_trunc": 32, "xi_points": 16, "spectral": {"k_max": 5.0, "dk": 0.25},
    },
}

PROFILES = {
    "xi-sq": lambda xi: xi * xi * (1.0 - xi),
    "xi-sq-sq": lambda xi: (xi * (1.0 - xi)) ** 2,
    "xi-cube": lambda xi: xi**3 * (1.0 - xi),
}

CLI_ARGV = {
    "full": {
        "table1": ["table1"],
        "spectrum": ["spectrum", "--alpha", "2", "--beta", "2", "--n", "10", "--format", "json"],
        "wkb-table": ["wkb-table", "--alpha", "2", "--beta", "2", "--bohr-sommerfeld"],
        "eigenfunction": ["eigenfunction", "--alpha", "2", "--beta", "2", "--n", "6"],
        "mehler-fock": ["mehler-fock", "--profile", "xi-sq"],
        "evolve": ["evolve", "--tau", "1.0", "--backend", "matrix", "--n-trunc", "960"],
        "boundary-fit": ["boundary-fit", "--alpha", "2", "--beta", "2"],
    },
    "smoke": {
        "table1": ["table1", "--m-points", "256"],
        "spectrum": ["spectrum", "--alpha", "2", "--beta", "2", "--n", "4",
                     "--format", "json", "--m-points", "256"],
        "wkb-table": ["wkb-table", "--alpha", "2", "--beta", "2", "--bohr-sommerfeld",
                      "--n", "2"],
        "eigenfunction": ["eigenfunction", "--alpha", "2", "--beta", "2", "--n", "1",
                          "--m-points", "256"],
        "mehler-fock": ["mehler-fock", "--profile", "xi-sq", "--k-max", "5", "--dk", "0.25"],
        "evolve": ["evolve", "--tau", "0.5", "--backend", "matrix", "--n-trunc", "32",
                   "--points", "16"],
        "boundary-fit": ["boundary-fit", "--alpha", "2", "--beta", "2", "--m-points", "256"],
    },
}
CLI_TIMEOUT_S = 150.0


def printed_tolerance(entry: str) -> float:
    """Half a unit in the last printed decimal place."""
    if "." not in entry:
        return 0.5
    return 0.5 * 10.0 ** (-len(entry.split(".")[1]))


def lhs_pairs(rng, k: int) -> list[list[float]]:
    """k (alpha, beta) pairs by Latin hypercube sampling of PAIR_RANGE^2:
    each of k equal strata of alpha, and of beta, holds exactly one pair, so
    every run covers the whole square and runs cost alike across seeds."""
    lo, hi = PAIR_RANGE
    width = (hi - lo) / k
    alpha = lo + width * (np.arange(k) + rng.random(k))
    beta = lo + width * (rng.permutation(k) + rng.random(k))
    return [[float(a), float(b)] for a, b in zip(alpha, beta)]


def worst(errs, gates) -> tuple[float, float]:
    """The (error, gate) pair with the largest error over gate."""
    errs, gates = np.broadcast_arrays(np.asarray(errs, dtype=float), np.asarray(gates, dtype=float))
    j = int(np.argmax(errs / gates))
    return float(errs[j]), float(gates[j])


def against_table1(values, col: str) -> tuple[float, float]:
    """Worst (error, gate) of kappa/2 values against a TABLE1 column at its
    printed precision (A-1's gate)."""
    ref = TABLE1[col][: len(values)]
    return worst(np.abs(np.asarray(values) - [float(e) for e in ref]),
                 [printed_tolerance(e) for e in ref])


def a2(half_kappa) -> tuple[float, float]:
    """A-2: the (2,2) spectrum (kappa/2) against TABLE1's numeric column."""
    ref = [float(v) for v in TABLE1["numeric_22"][: len(half_kappa)]]
    return worst(np.abs(np.asarray(half_kappa) - ref), A2_GATE)


def level_gates(kappa) -> np.ndarray:
    """Half the distance from each level to its nearest neighbour: an
    approximation of level n must land closer to level n than to any other
    (a benchmark gate; no acceptance criterion covers Bohr-Sommerfeld at
    general (alpha, beta))."""
    k = np.asarray(kappa, dtype=float)
    gaps = np.diff(k)
    near = np.minimum(np.concatenate(([np.inf], gaps)), np.concatenate((gaps, [np.inf])))
    return 0.5 * near


def overlaps(num: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """|cos| between matching columns of two (points, levels) arrays."""
    dots = np.abs(np.sum(num * sc, axis=0))
    return dots / np.sqrt(np.sum(num * num, axis=0) * np.sum(sc * sc, axis=0))


def rel_diff(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    """max |a - b| over the mask, relative to max |a| there (A-8's measure)."""
    return float(np.max(np.abs(a[mask] - b[mask])) / np.max(np.abs(a[mask])))


# ---------------------------------------------------------------------------
# spectra-scan


class SpectraScan:
    """Lowest-10 spectra of distinct (alpha, beta) pairs from the two
    discretizations in ``kab.operators``."""

    name = "spectra-scan"
    CALLS = ("pseudospectral_spectrum", "pseudospectral_eigensystem", "galerkin_spectrum")

    def plan(self, rng, seconds, size):
        rounds = max(1, int(seconds / COST[self.name]))
        # The anchors take fixed calls so every run makes the same mix of
        # calls: (2,2) the pseudospectral spectrum of A-2, (1,1) the Galerkin
        # spectrum of A-3.  The seed assigns the other calls to the pairs.
        calls = ([self.CALLS[0]] * (rounds - 1) + [self.CALLS[1]] * rounds
                 + [self.CALLS[2]] * (rounds - 1))
        calls = [calls[i] for i in rng.permutation(len(calls))]
        pairs = lhs_pairs(rng, len(calls))
        reqs = [
            {"alpha": 2.0, "beta": 2.0, "call": self.CALLS[0]},
            {"alpha": 1.0, "beta": 1.0, "call": self.CALLS[2]},
        ]
        reqs += [{"alpha": a, "beta": b, "call": c} for (a, b), c in zip(pairs, calls)]
        return reqs

    def setup(self, size):
        return {}

    def run(self, req, ctx, size):
        ops = kab.operators
        a, b, n = req["alpha"], req["beta"], size["n_eigs"]
        if req["call"] == "pseudospectral_spectrum":
            return {"kappa": ops.pseudospectral_spectrum(a, b, n, size["u_max"], size["m_points"])}
        if req["call"] == "pseudospectral_eigensystem":
            _, kappa, vecs = ops.pseudospectral_eigensystem(
                a, b, n, size["u_max"], size["m_points"]
            )
            return {"kappa": kappa, "vecs": vecs}
        kappa, est = ops.galerkin_spectrum(a, b, n, size["n_trunc"])
        return {"kappa": kappa, "est": est}

    def check(self, req, out, ctx, size):
        ops = kab.operators
        a, b, n = req["alpha"], req["beta"], size["n_eigs"]
        kappa = np.asarray(out["kappa"], dtype=float)
        if kappa.shape != (n,) or not np.all(np.isfinite(kappa)):
            raise ValueError(f"expected {n} finite eigenvalues, got {kappa!r}")
        if "vecs" in out and out["vecs"].shape != (size["m_points"], n):
            raise ValueError(f"eigenvector block has shape {out['vecs'].shape}")
        if (a, b) == ANCHOR_22:
            return {"A-2": a2(0.5 * kappa)}
        if (a, b) == ANCHOR_11:
            h = np.array([ops.harmonic(k) for k in range(n)])
            gate = A3_GAL_GATE if req["call"] == "galerkin_spectrum" else A3_PS_GATE
            return {"A-3": worst(np.abs(0.5 * kappa - h), gate)}
        # Other pairs: agreement with the other backend within Galerkin's own
        # truncation estimate |lam_2N - lam_N|.  The pseudospectral reference
        # (M = 1024) agrees with M = 2048 to ~1e-13; the Galerkin reference for
        # a pseudospectral request runs at a smaller N and brings its own
        # (larger) estimate.  1e-11 |kappa| is the rounding level of the dense
        # eigensolvers, below which the estimate is not resolved.
        if req["call"] == "galerkin_spectrum":
            ref = np.array(ops.pseudospectral_spectrum(a, b, n, size["u_max"], size["ref_m_points"]))
            est = np.asarray(out["est"], dtype=float)
        else:
            ref, est = ops.galerkin_spectrum(a, b, n, size["ref_n_trunc"])
            ref, est = np.array(ref), np.array(est)
        gate = np.maximum(est, 1e-11 * np.maximum(1.0, np.abs(ref)))
        return {"backend agreement": worst(np.abs(kappa - ref), gate)}


# ---------------------------------------------------------------------------
# wkb-scan


class WkbScan:
    """WKB, Bohr-Sommerfeld and semiclassical wavefunctions for n = 0..9 of
    distinct (alpha, beta) pairs plus the anchors (1,1) and (2,2)."""

    name = "wkb-scan"

    def plan(self, rng, seconds, size):
        k = max(1, round((seconds - COST["wkb-anchors"]) / COST["wkb-pair"]))
        pairs = [list(ANCHOR_11), list(ANCHOR_22)] + lhs_pairs(rng, k)
        return [{"alpha": pairs[i][0], "beta": pairs[i][1]} for i in rng.permutation(len(pairs))]

    def setup(self, size):
        # the u-nodes of the CLI's `eigenfunction` window |u| <= 8
        nodes = kab.operators.UGrid(size["u_max"], size["m_points"]).nodes
        window = np.abs(nodes) <= size["window"]
        return {"window": window, "u": nodes[window]}

    def run(self, req, ctx, size):
        sc = kab.semiclassics
        a, b = req["alpha"], req["beta"]
        levels, u = range(size["levels"]), ctx["u"]
        return {
            "wkb": [sc.wkb_eigenvalue(n, a, b) for n in levels],
            "bs": [sc.bohr_sommerfeld_solve(n, a, b) for n in levels],
            "psi": np.column_stack([sc.semiclassical_wavefunction(n, a, b, u) for n in levels]),
        }

    def check(self, req, out, ctx, size):
        a, b, levels = req["alpha"], req["beta"], size["levels"]
        wkb = np.asarray(out["wkb"], dtype=float)
        bs = np.asarray(out["bs"], dtype=float)
        psi = np.asarray(out["psi"], dtype=float)
        if not (np.all(np.isfinite(wkb)) and np.all(np.isfinite(bs)) and np.all(np.isfinite(psi))):
            raise ValueError("non-finite WKB output")
        checks = {}
        if (a, b) in (ANCHOR_11, ANCHOR_22):
            checks["A-1"] = against_table1(0.5 * wkb, "wkb_22" if (a, b) == ANCHOR_22 else "wkb_11")
        # reference eigenpairs on the same grid, computed outside the timed region
        _, kappa, vecs = kab.operators.pseudospectral_eigensystem(
            a, b, levels, size["u_max"], size["m_points"]
        )
        checks["Bohr-Sommerfeld level"] = worst(np.abs(bs - kappa), level_gates(kappa))
        miss = 1.0 - overlaps(vecs[ctx["window"]], psi)[5:]
        if miss.size:
            gate = A9_OVERLAP if (a, b) == ANCHOR_22 else OVERLAP_GATE
            checks["A-9 overlap" if (a, b) == ANCHOR_22 else "overlap"] = (float(miss.max()), gate)
        return checks


# ---------------------------------------------------------------------------
# evolve-stream


class EvolveStream:
    """K_01 multiplicity evolution of seeded profiles with both backends."""

    name = "evolve-stream"

    def plan(self, rng, seconds, size):
        # about a third of the time in chained requests, and at least one
        n_chained = max(1, round(seconds / (3 * COST["evolve-chained"])))
        n_single = max(1, round((seconds - n_chained * COST["evolve-chained"]) / COST["evolve-single"]))
        kinds = ["chained"] * n_chained + ["single"] * n_single
        names = sorted(PROFILES)
        # one tau in each of len(kinds) equal strata of EVOLVE_TAU: the cost
        # of both backends and the spectral k-grid grow with tau, so every
        # run covers the range and runs cost alike across seeds
        lo, hi = EVOLVE_TAU
        taus = lo + (hi - lo) * (rng.permutation(len(kinds)) + rng.random(len(kinds))) / len(kinds)
        reqs = []
        for i, tau in zip(rng.permutation(len(kinds)), taus):
            tau = float(tau)
            if rng.random() < 0.5:
                profile = [[1.0, names[int(rng.integers(len(names)))]]]
            else:
                p1, p2 = rng.choice(len(names), size=2, replace=False)
                profile = [
                    [float(0.5 + 1.5 * rng.random()), names[int(p1)]],
                    [float(-1.0 + 2.0 * rng.random()), names[int(p2)]],
                ]
            reqs.append({"kind": kinds[i], "tau": tau, "profile": profile})
        return reqs

    def setup(self, size):
        xi = kab.evolution.default_xi_grid(size["xi_points"])
        return {"xi": xi, "mask": (xi >= 0.05) & (xi <= 0.95)}

    @staticmethod
    def _values(profile, xi):
        return sum(c * PROFILES[name](xi) for c, name in profile)

    def _state(self, profile, ctx):
        return kab.evolution.EvolutionState(
            tau=0.0, xi_grid=ctx["xi"], u_values=self._values(profile, ctx["xi"])
        )

    def run(self, req, ctx, size):
        ev = kab.evolution
        tau, n_trunc = req["tau"], size["evolve_n_trunc"]
        state = self._state(req["profile"], ctx)
        if req["kind"] == "chained":
            half = ev.evolve_matrix(state, 0.5 * tau, n_trunc=n_trunc)
            matrix = ev.evolve_matrix(half, tau, n_trunc=n_trunc)
        else:
            matrix = ev.evolve_matrix(state, tau, n_trunc=n_trunc)
        spectral = ev.evolve_spectral(state, tau, **size["spectral"])
        return {"matrix": matrix.u_values, "spectral": spectral.u_values}

    def check(self, req, out, ctx, size):
        ev = kab.evolution
        tau, mask = req["tau"], ctx["mask"]
        um, us = np.asarray(out["matrix"]), np.asarray(out["spectral"])
        if not (np.all(np.isfinite(um)) and np.all(np.isfinite(us))):
            raise ValueError("non-finite evolved profile")
        if req["kind"] == "single":
            checks = {"A-8 agreement": (rel_diff(um, us, mask), A8_AGREE)}
        else:
            # A-8's own measures: the two-step result against one matrix step
            # (computed here, outside the timed region), and that step
            # against the spectral backend
            one = ev.evolve_matrix(self._state(req["profile"], ctx), tau, n_trunc=size["evolve_n_trunc"])
            if tau <= A8_SEMI_TAU:
                semi = ("A-8 semigroup", A8_SEMI)
            else:
                estimate = one.meta["truncation_estimate"] / np.max(np.abs(one.u_values[mask]))
                semi = ("semigroup within truncation estimate", float(estimate))
            checks = {
                "A-8 agreement": (rel_diff(one.u_values, us, mask), A8_AGREE),
                semi[0]: (rel_diff(one.u_values, um, mask), semi[1]),
            }
        if len(req["profile"]) > 1:
            # A-8 states its 1e-8 linearity gate for the matrix backend; the
            # benchmark holds the spectral output to it, whose components
            # cost a second each against seven for matrix ones
            parts = sum(
                c * ev.evolve_spectral(self._state([[1.0, p]], ctx), tau, **size["spectral"]).u_values
                for c, p in req["profile"]
            )
            checks["spectral linearity (benchmark gate)"] = (float(np.max(np.abs(us - parts))), A8_LIN)
        return checks


# ---------------------------------------------------------------------------
# cli-cold


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def parse_csv(text: str):
    lines = text.strip().split("\n")
    if not lines[0].startswith("# {"):
        raise ValueError("CSV output lacks its '# {json}' header")
    meta = json.loads(lines[0][2:])
    columns = lines[1][2:].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, columns, rows


def column(columns, rows, name) -> np.ndarray:
    j = columns.index(name)
    return np.array([float(r[j]) for r in rows])


class CliCold:
    """The README command lines, each a fresh ``python -m kab.cli`` process."""

    name = "cli-cold"

    def plan(self, rng, seconds, size):
        # whole rounds of every command, each round in its own seeded order,
        # so every run makes the same mix of commands
        names = list(CLI_ARGV["full"])
        rounds = max(1, int(seconds / COST[self.name]))
        return [{"command": names[i]} for _ in range(rounds) for i in rng.permutation(len(names))]

    def setup(self, size):
        return {"env": cli_env()}

    def argv(self, req, size):
        return CLI_ARGV[size["scale"]][req["command"]]

    def run(self, req, ctx, size, prefix=None):
        cmd = prefix or [sys.executable, "-m", "kab.cli"]
        proc = subprocess.run(
            cmd + self.argv(req, size),
            capture_output=True,
            text=True,
            env=ctx["env"],
            cwd=ROOT,
            timeout=CLI_TIMEOUT_S,
        )
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, req, out, ctx, size):
        if out["returncode"] != 0:
            raise ValueError(f"exit code {out['returncode']}: {out['stderr'][-500:]}")
        return getattr(self, "_check_" + req["command"].replace("-", "_"))(out["stdout"], size)

    def _check_table1(self, text, size):
        _, columns, rows = parse_csv(text)
        if len(rows) != 10:
            raise ValueError(f"table1 printed {len(rows)} rows")
        return {
            "A-2": a2(column(columns, rows, "numeric_22")),
            "A-1 wkb_22": against_table1(column(columns, rows, "wkb_22"), "wkb_22"),
            "A-1 wkb_11": against_table1(column(columns, rows, "wkb_11"), "wkb_11"),
            "h_n": against_table1(column(columns, rows, "h_n"), "h_n"),
        }

    def _check_spectrum(self, text, size):
        doc = json.loads(text)
        return {"A-2": a2(0.5 * np.array(doc["eigenvalues"]))}

    def _check_wkb_table(self, text, size):
        _, columns, rows = parse_csv(text)
        bs = column(columns, rows, "bohr_sommerfeld")
        kappa = np.array([float(v) for v in TABLE1["numeric_22"]])
        return {
            "A-1": against_table1(column(columns, rows, "wkb_closed_form"), "wkb_22"),
            "Bohr-Sommerfeld level": worst(np.abs(bs - kappa[: bs.size]), level_gates(kappa)[: bs.size]),
        }

    def _check_eigenfunction(self, text, size):
        meta, columns, rows = parse_csv(text)
        num = column(columns, rows, "psi_numeric")[:, None]
        sc = column(columns, rows, "psi_semiclassical")[:, None]
        miss = float(1.0 - overlaps(num, sc)[0])
        # A-9 states its gate for n >= 5
        return {"A-9 overlap": (miss, A9_OVERLAP if meta["n"] >= 5 else OVERLAP_GATE)}

    def _check_mehler_fock(self, text, size):
        meta, columns, rows = parse_csv(text)
        coeffs = kab.exact.MehlerFockCoeffs(
            k_grid=column(columns, rows, "k"), c=column(columns, rows, "c"), t_max=meta["t_max"]
        )
        xi = np.linspace(0.05, 1.0, 39)
        back = kab.exact.mehler_fock_inverse(coeffs, xi)
        return {"A-7": (float(np.max(np.abs(back - PROFILES[meta["profile"]](xi)))), A7_GATE)}

    def _check_evolve(self, text, size):
        meta, columns, rows = parse_csv(text)
        ev = kab.evolution
        xi, u = column(columns, rows, "xi"), column(columns, rows, "u")
        state = ev.EvolutionState(tau=0.0, xi_grid=xi, u_values=PROFILES[meta["profile"]](xi))
        spectral = ev.evolve_spectral(state, meta["tau"], **size["spectral"]).u_values
        return {"A-8 agreement": (rel_diff(u, spectral, (xi >= 0.05) & (xi <= 0.95)), A8_AGREE)}

    def _check_boundary_fit(self, text, size):
        doc = json.loads(text)
        return {"A-10": (abs(doc["d_beta_fitted"] - doc["d_beta_exact"]), A10_GATE)}


WORKLOADS = {w.name: w for w in (SpectraScan(), WkbScan(), EvolveStream(), CliCold())}
