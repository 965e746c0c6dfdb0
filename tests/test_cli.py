import contextlib
import copy
import ctypes
import dataclasses
import io
import json
import math
import os
import re
import reprlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrate import cli
from mixrate import ensembles as ens
from mixrate import entangling as ent
from mixrate import harness as hz
from mixrate import hermitian as hm
from mixrate import rates
from mixrate.cli import (
    EXIT_CONJECTURE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    guard_status,
    main,
)
from mixrate.ensembles import (
    matrix_to_json,
    parse_ensemble,
    parse_hamiltonian_set,
    serialize_ensemble,
)
from mixrate.errors import Fault
from mixrate.harness import CSV_HEADER, ExperimentConfig, TrialRecord
from mixrate.hermitian import HERM_TOL
from mixrate.rates import optimal_hamiltonians, rate_report

from conftest import random_ensemble, random_hamiltonian_set, rank_two_ensemble, rng
from golden.make_golden import _parse_csv
from reference import mismatches, qubit_rates, qubit_record, run_trial

REL = 1e-12  # of the d = 2 closed forms


@pytest.fixture
def ensemble_file(tmp_path):
    E = random_ensemble(3, 3, rng(700))
    path = tmp_path / "ensemble.json"
    path.write_bytes(serialize_ensemble(E))
    return path


@pytest.fixture
def hamiltonian_file(tmp_path):
    H = random_hamiltonian_set(3, 3, rng(701))
    path = tmp_path / "hams.json"
    obj = {"dim": 3, "hamiltonians": [matrix_to_json(h.matrix) for h in H]}
    path.write_text(json.dumps(obj))
    return path


class TestCompute:
    def test_a_rank_deficient_ensemble_has_no_fd_residual(self, tmp_path):
        # The FD oracle declines a rho of rank 2 at d = 4: compute still
        # reports every rate, bound and ratio, with fd_residual null.
        ensemble, out = tmp_path / "e.json", tmp_path / "r.json"
        ensemble.write_bytes(serialize_ensemble(rank_two_ensemble()))
        assert main(["compute", "--ensemble", str(ensemble), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report.pop("fd_residual") is None
        assert all(math.isfinite(v) for v in report.values()), report

    def test_report_fields(self, ensemble_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["compute", "--ensemble", str(ensemble_file), "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        for key in (
            "mixing_rate_at_H",
            "max_rate",
            "binary_max_rate",
            "bound_thm",
            "bound_conjecture",
            "fd_residual",
            "ratio_thm",
            "ratio_conjecture",
        ):
            assert key in report
        assert report["max_rate"] <= report["bound_thm"] + 1e-8
        assert report["fd_residual"] <= 1e-6
        # The report is made before --out is created, so --out may name the
        # input, and an input that parses but that the report refuses (a
        # 1e-20 member, below the rank cut) leaves that file as it was.
        argv = ["compute", "--ensemble", str(ensemble_file), "--out", str(ensemble_file)]
        assert main(argv) == EXIT_OK
        assert ensemble_file.read_text() == out.read_text()
        states = [matrix_to_json(np.diag(v)) for v in ([1.0, 0.0], [0.0, 1.0])]
        doc = {"dim": 2, "probabilities": [1.0, 1e-20], "states": states}
        ensemble_file.write_text(json.dumps(doc))
        before = ensemble_file.read_bytes()
        assert main(argv) == EXIT_USAGE
        assert "outside the support of rho" in capsys.readouterr().err
        assert ensemble_file.read_bytes() == before

    def test_with_hamiltonians_stdout(self, ensemble_file, hamiltonian_file, capsys):
        code = main(
            [
                "compute",
                "--ensemble",
                str(ensemble_file),
                "--hamiltonians",
                str(hamiltonian_file),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mixing_rate_at_H"] is not None
        assert abs(report["mixing_rate_at_H"]) <= report["max_rate"] + 1e-9

    def test_one_state_entropy_is_plus_zero(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_bytes(serialize_ensemble(random_ensemble(2, 1, rng(702))))
        assert main(["compute", "--ensemble", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["bound_conjecture"] == 0.0
        assert '"bound_conjecture": 0.0' in out  # not -0.0

    def test_nan_probability_is_a_usage_error(self, ensemble_file, tmp_path, capsys):
        obj = json.loads(ensemble_file.read_text())
        obj["probabilities"] = [0.5, math.nan, 0.5]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        assert main(["compute", "--ensemble", str(path)]) == EXIT_USAGE
        assert "NaN probability" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("with_h", [False, True])
    def test_qubit_reports_match_the_bloch_oracle(self, n, with_h, tmp_path, capsys):
        ep, hp = tmp_path / "e.json", tmp_path / "h.json"
        ep.write_bytes(serialize_ensemble(random_ensemble(2, n, rng(710 + n))))
        hams = [matrix_to_json(h.matrix) for h in random_hamiltonian_set(2, n, rng(720 + n))]
        hp.write_text(json.dumps({"dim": 2, "hamiltonians": hams}))
        argv = ["compute", "--ensemble", str(ep)] + (["--hamiltonians", str(hp)] if with_h else [])
        assert main(argv) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        E = parse_ensemble(ep.read_bytes())
        rep["shannon"], rep["ratio_conj"] = rep["bound_conjecture"], rep["ratio_conjecture"]
        assert mismatches(rep, qubit_record(E, "compute"), REL) == []
        max_rate, _, rate = qubit_rates(E, parse_hamiltonian_set(hp.read_bytes()))
        # At the maximizers the rate is max_rate. At given H it can cancel
        # toward 0, so its error is taken relative to max_rate.
        want = rate if with_h else max_rate
        assert abs(rep["mixing_rate_at_H"] - want) <= REL * max_rate

    def test_hamiltonians_pair_with_the_listed_states(self, tmp_path, capsys):
        # Member 1 has probability 0: the ensemble drops it, and its
        # Hamiltonian goes with it. The report is that of the file without both.
        E, H = random_ensemble(3, 3, rng(706)), random_hamiltonian_set(3, 3, rng(707))
        states = [matrix_to_json(s.matrix) for s in E.states]
        hams = [matrix_to_json(h.matrix) for h in H]

        def report(probs, keep, name):
            ep, hp = tmp_path / f"{name}_e.json", tmp_path / f"{name}_h.json"
            ep.write_text(json.dumps(
                {"dim": 3, "probabilities": probs, "states": [states[i] for i in keep]}
            ))
            hp.write_text(json.dumps({"dim": 3, "hamiltonians": [hams[i] for i in keep]}))
            code = main(["compute", "--ensemble", str(ep), "--hamiltonians", str(hp)])
            return code, capsys.readouterr()

        listed = report([0.5, 0.0, 0.5], [0, 1, 2], "listed")
        kept = report([0.5, 0.5], [0, 2], "kept")
        assert listed[0] == kept[0] == EXIT_OK
        assert listed[1].out == kept[1].out

    @pytest.mark.parametrize("dim, n", [(2, 2), (3, 3), (4, 2)])
    def test_the_two_evolution_routes_agree_at_the_maximizers(self, dim, n, tmp_path, capsys):
        # Plain compute evolves under the maximizers in closed form; given as
        # a file, the same matrices take the spectral route.
        E = random_ensemble(dim, n, rng(730 + dim + n))
        ep, hp = tmp_path / "e.json", tmp_path / "h.json"
        ep.write_bytes(serialize_ensemble(E))
        hams = [matrix_to_json(h.matrix) for h in optimal_hamiltonians(E)]
        hp.write_text(json.dumps({"dim": dim, "hamiltonians": hams}))
        assert main(["compute", "--ensemble", str(ep)]) == EXIT_OK
        closed = json.loads(capsys.readouterr().out)
        assert main(["compute", "--ensemble", str(ep), "--hamiltonians", str(hp)]) == EXIT_OK
        spectral = json.loads(capsys.readouterr().out)
        rate = spectral["mixing_rate_at_H"]
        assert abs(rate - spectral["max_rate"]) <= REL * spectral["max_rate"]
        assert abs(spectral["fd_residual"] - closed["fd_residual"]) <= 1e-9

    @pytest.mark.parametrize("n_hams", [2, 4])
    def test_hamiltonian_count_must_match_the_listed_states(self, n_hams, tmp_path, capsys):
        # Two Hamiltonians for the two kept members of three listed ones exit 1.
        E = random_ensemble(3, 3, rng(706))
        obj = json.loads(serialize_ensemble(E))
        obj["probabilities"] = [0.5, 0.0, 0.5]
        ep, hp = tmp_path / "e.json", tmp_path / "h.json"
        ep.write_text(json.dumps(obj))
        hams = [matrix_to_json(h.matrix) for h in random_hamiltonian_set(3, n_hams, rng(707))]
        hp.write_text(json.dumps({"dim": 3, "hamiltonians": hams}))
        out = tmp_path / "r.json"
        argv = ["compute", "--ensemble", str(ep), "--hamiltonians", str(hp), "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "need one Hamiltonian per listed ensemble member" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side, code", [(0.99, EXIT_OK), (1.01, EXIT_USAGE)])
    def test_hermiticity_tolerance_scales_with_the_norm(
        self, side, code, ensemble_file, tmp_path, capsys
    ):
        # At ||H||_F = 1e4, a residual ||H - H^dag||_F a hundred times HERM_TOL
        # is accepted up to HERM_TOL ||H||_F and refused just beyond it.
        g = rng(709)
        H = [h.matrix * (1e4 / hm.frobenius(h.matrix)) for h in random_hamiltonian_set(3, 3, g)]
        Y = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        K = Y - Y.conj().T  # anti-Hermitian: H + c K has residual 2c ||K||_F
        H[1] = H[1] + K * (side * HERM_TOL * 1e4 / (2 * hm.frobenius(K)))
        residual = hm.frobenius(H[1] - H[1].conj().T)
        assert 100 * HERM_TOL < residual
        assert (residual <= HERM_TOL * hm.frobenius(H[1])) == (code == EXIT_OK)
        hp = tmp_path / "h.json"
        hp.write_text(json.dumps({"dim": 3, "hamiltonians": [matrix_to_json(h) for h in H]}))
        argv = ["compute", "--ensemble", str(ensemble_file), "--hamiltonians", str(hp)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            why = f"Hermiticity residual {residual:.3e} exceeds tolerance (member 1)"
            assert err == f"mixrate: error: invariant violated: {why}\n"

    def test_hamiltonian_dim_must_match_the_ensemble(self, ensemble_file, tmp_path, capsys):
        # Refused as the report is made, before --out is created.
        hams = [matrix_to_json(h.matrix) for h in random_hamiltonian_set(2, 3, rng(707))]
        hp, out = tmp_path / "h.json", tmp_path / "r.json"
        hp.write_text(json.dumps({"dim": 2, "hamiltonians": hams}))
        argv = ["compute", "--ensemble", str(ensemble_file), "--hamiltonians", str(hp)]
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert "Hamiltonian dimension differs from ensemble dimension" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "probs, why",
        [
            ([True, False], "probability True is not a number"),
            (["0.5", 0.5], "probability '0.5' is not a number"),
            ([None, 1.0], "probability None is not a number"),
            ([10**400, 0], "int too large to convert to float"),
            # The sum of two of 1e308 overflowed, with a RuntimeWarning.
            ([1e308, 1e308], "probability 1e+308 above 1"),
        ],
    )
    def test_probabilities_must_be_json_numbers(self, probs, why, tmp_path, capsys):
        # float() would run true as 1, false as 0 and "0.5" as 0.5.
        obj = json.loads(serialize_ensemble(random_ensemble(2, 2, rng(708))))
        obj["probabilities"] = probs
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        assert main(["compute", "--ensemble", str(path)]) == EXIT_USAGE
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dim, d",
        [
            (2.9, 2), (True, 1), ("2", 2),
            pytest.param(10**400, 2, id="1e400"), pytest.param(-(10**400), 2, id="-1e400"),
        ],
    )
    def test_dim_must_be_a_json_integer(self, dim, d, tmp_path, capsys):
        # int() would run 2.9 as d = 2, true as d = 1 and "2" as d = 2; an
        # integer beyond sys.maxsize either way was once echoed in 400 digits.
        obj = json.loads(serialize_ensemble(random_ensemble(d, 2, rng(703))))
        obj["dim"] = dim
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(obj))
        assert main(["compute", "--ensemble", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        why = "out of range" if type(dim) is int else "is not an integer"
        assert f"dimension {reprlib.repr(dim)} {why}" in err and len(err) <= 160

    def test_hamiltonian_dim_must_be_a_json_integer(self, tmp_path, capsys):
        E = random_ensemble(2, 2, rng(704))
        ep, hp = tmp_path / "e.json", tmp_path / "h.json"
        ep.write_bytes(serialize_ensemble(E))
        hams = [matrix_to_json(h.matrix) for h in random_hamiltonian_set(2, 2, rng(705))]
        hp.write_text(json.dumps({"dim": 2.9, "hamiltonians": hams}))
        assert main(["compute", "--ensemble", str(ep), "--hamiltonians", str(hp)]) == EXIT_USAGE
        assert "dimension 2.9 is not an integer" in capsys.readouterr().err

    def test_rank_cut_is_not_an_option(self, ensemble_file, capsys):
        argv = ["compute", "--ensemble", str(ensemble_file), "--tol", "1e-12"]
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_rank_tol_must_be_positive_and_finite(self, ensemble_file, tol, capsys):
        # A negative tolerance once flipped every maximizer to -I; with the
        # rank cut a constant, no bad value gets past the argument parser.
        argv = ["compute", "--ensemble", str(ensemble_file), "--tol", tol]
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["compute", "--ensemble", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_malformed_ensemble_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compute", "--ensemble", str(bad)]) == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
        # The module docstring's subcommand table keeps one command per line.
        table = "  compute  rates/bounds for an ensemble file (optionally with Hamiltonians)"
        assert table in capsys.readouterr().out.splitlines()


class TestSharedParser:
    """main builds the parser on its first call and reuses it after."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usable_after_usage_errors_and_help(self, ensemble_file, tmp_path, capsys):
        # A usage error or --help inside argparse leaves the shared parser as it was.
        compute = ["compute", "--ensemble", str(ensemble_file), "--out"]
        verify = ["verify", "--dim", "3", "--states", "3", "--trials", "4", "--seed", "42"]
        c1, c2, v1, v2 = (tmp_path / name for name in ("c1.json", "c2.json", "v1.csv", "v2.csv"))
        assert main(compute + [str(c1)]) == EXIT_OK
        assert main(["compute", "--ensemble", str(ensemble_file), "--tol", "1e-12"]) == EXIT_USAGE
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert main(["--help"]) == EXIT_OK
        assert main([]) == EXIT_USAGE
        assert main(verify + ["--out", str(v1)]) == EXIT_OK
        assert main(compute + [str(c2)]) == EXIT_OK
        assert main(verify + ["--out", str(v2)]) == EXIT_OK
        assert c1.read_bytes() == c2.read_bytes()
        assert v1.read_bytes() == v2.read_bytes()

    def test_not_built_at_import(self):
        code = "import mixrate.cli as c; print(c.build_parser.cache_info().currsize)"
        assert _fresh_interpreter(code) == "0"

    # Each takes milliseconds to import that a command which does not use it
    # would wait for: numpy.random loads on the first draw, the process pool
    # (concurrent.futures, which pulls in multiprocessing) with the first
    # pooled verify, and entangling with the first sie.
    @pytest.mark.parametrize(
        "module", ["numpy.random", "concurrent.futures", "multiprocessing", "mixrate.entangling"]
    )
    def test_not_loaded_at_import(self, module):
        assert not _loaded("mixrate.cli", module)

    def test_load_probe_finds_a_planted_import(self):
        assert _loaded("mixrate.cli, mixrate.entangling", "mixrate.entangling")


def _fresh_interpreter(code: str) -> str:
    """The stripped stdout of a new Python process that runs code, with this
    mixrate on its path."""
    import mixrate

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixrate.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def _loaded(imports: str, module: str) -> bool:
    """Whether module is in sys.modules of a fresh interpreter once it has
    imported imports (a comma-separated list)."""
    return _fresh_interpreter(f"import sys, {imports}; print({module!r} in sys.modules)") == "True"


def _blas_threads() -> int:
    get = cli._openblas().scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


class TestVerify:
    ARGS = ["verify", "--dim", "3", "--states", "3", "--trials", "6", "--seed", "42"]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_csv_shape(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7

    def test_workers_agree(self, tmp_path, monkeypatch):
        # ARGS make one chunk, which runs without a pool whatever --workers
        # says; 4 trials at d = 32 are 2 chunks, and with 2 CPUs (forced
        # here) a pool of 2 runs them.
        multi = ["verify", "--dim", "32", "--states", "2", "--trials", "4", "--seed", "42"]
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        for args, workers in ((self.ARGS, "4"), (multi, "2")):
            serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
            assert main(args + ["--workers", "1", "--out", str(serial)]) == EXIT_OK
            assert main(args + ["--workers", workers, "--out", str(parallel)]) == EXIT_OK
            assert serial.read_bytes() == parallel.read_bytes()

    @staticmethod
    def fake_pool(monkeypatch, cpus: int):
        """Replace the process pool by one that runs each submitted chunk in
        this process when its result is asked for. Returns the max_workers of
        each pool started, and the most chunks ever in flight at once."""
        sizes, in_flight = [], [0, 0]  # [now, most]

        class Pending:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                in_flight[0] -= 1
                return self.fn(*self.args)

        class FakePool:
            def __init__(self, n_workers):
                sizes.append(n_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
                return Pending(fn, args)

        monkeypatch.setattr(cli, "_pool", FakePool)
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        return sizes, in_flight

    @pytest.mark.parametrize(
        "dim,trials,workers,cpus,started",
        [
            (4, 12, 6, 8, None),  # one chunk: no pool at all
            (64, 4, 100000, 8, 4),  # no more workers than chunks
            (64, 4, 100000, 3, 3),  # nor than usable CPUs
            (64, 4, 2, 8, 2),
        ],
    )
    def test_workers_are_capped(self, dim, trials, workers, cpus, started, tmp_path, monkeypatch):
        sizes, _ = self.fake_pool(monkeypatch, cpus)
        argv = ["verify", "--dim", str(dim), "--states", "2", "--trials", str(trials)]
        argv += ["--seed", "1", "--workers", str(workers), "--out", str(tmp_path / "v.csv")]
        assert main(argv) == EXIT_OK
        assert sizes == ([] if started is None else [started])
        assert len((tmp_path / "v.csv").read_text().splitlines()) == trials + 1

    def test_pool_holds_two_chunks_per_worker(self, tmp_path, monkeypatch):
        # 9 one-trial chunks on 2 workers: chunks are submitted as earlier
        # ones finish, never all at once, and the CSV is the serial one.
        _, in_flight = self.fake_pool(monkeypatch, 2)
        argv = ["verify", "--dim", "64", "--states", "2", "--trials", "9", "--seed", "3"]
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(argv + ["--workers", "2", "--out", str(pooled)]) == EXIT_OK
        assert in_flight == [0, 4]
        assert main(argv + ["--out", str(serial)]) == EXIT_OK
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_a_usage_error(self, workers, tmp_path, capsys):
        out = tmp_path / "v.csv"
        argv = self.ARGS + ["--workers", str(workers), "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dim", "16", "--states", "2", "--trials", "15", "--seed", "1"],
            ["scan", "--p-grid", "0.2:0.6:0.2", "--dim", "16", "--trials", "5", "--seed", "1"],
        ],
    )
    def test_rows_are_written_as_each_chunk_completes(self, argv, tmp_path, monkeypatch):
        # 15 trials at d = 16 are chunks of 8 and 7: --out exists before the
        # first chunk runs, and holds the first chunk's rows before the second.
        out = tmp_path / "v.csv"
        seen, run = [], hz.run_trials

        def spy(*args):
            seen.append(out.read_text().splitlines() if out.exists() else None)
            return run(*args)

        monkeypatch.setattr(hz, "run_trials", spy)
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()
        assert len(seen) == 2 and len(rows) == 16
        assert seen[0] is not None and seen[1] == rows[:9]

    def test_failed_trials_are_named_on_stderr(self, tmp_path, monkeypatch, capsys):
        # A trial whose evaluation raised writes a row of zeros: the exit
        # code says 2, and stderr says which trial and why.
        def no_convergence(*args):
            raise Fault("eigh did not converge")

        monkeypatch.setattr(hz, "_evaluate", no_convergence)
        out = tmp_path / "v.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_INVARIANT
        assert capsys.readouterr().err.splitlines() == [
            f"trial {i}: Fault: eigh did not converge" for i in range(6)
        ]
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # the CSV is unchanged
        cfg = ExperimentConfig(dim=3, n_states=3, seed=42)
        for i, line in enumerate(lines[1:]):
            probs = ";".join(map(repr, hz.trial_ensemble(cfg, i).probabilities.tolist()))
            assert line == f"{i},42,3,3,{probs},0.0,,0.0,0.0,,,0.0,true"

    def test_one_state_runs(self, tmp_path):
        # Unlike search, verify accepts a single state (S(X) = 0, no ratios),
        # and writes that entropy as 0.0, not -0.0.
        out = tmp_path / "v.csv"
        argv = ["verify", "--dim", "3", "--states", "1", "--trials", "3", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        header = CSV_HEADER.split(",")
        for row in out.read_text().splitlines()[1:]:
            cells = dict(zip(header, row.split(",")))
            assert cells["probs"] == "1.0"
            assert cells["shannon"] == "0.0"
            # No binary rate, and no ratio over a zero bound or entropy.
            assert cells["binary_max_rate"] == cells["ratio_thm"] == cells["ratio_conj"] == ""

    def test_conjecture_event_writes_each_trial_ensemble(self, tmp_path, monkeypatch, capsys):
        # Trial 57 of this run exceeds the conjectured bound: its offender
        # file holds the ensemble its row reports on.
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--dim", "4", "--states", "3", "--trials", "300", "--seed", "1"]
        assert main(argv + ["--out", "v.csv"]) == EXIT_CONJECTURE
        _assert_offenders_reproduce_rows(tmp_path, "trial", capsys)

    def test_qubit_rates_match_the_bloch_oracle(self, tmp_path):
        # Every float of each row: rates, bounds, S(p) and ratios.
        out = tmp_path / "v.csv"
        argv = ["verify", "--dim", "2", "--states", "2", "--trials", "20", "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        cfg = ExperimentConfig(dim=2, n_states=2, n_trials=20, seed=7)
        for row in _parse_csv(out.read_text()):
            want = qubit_record(hz.trial_ensemble(cfg, row["trial_id"]), "verify")
            assert mismatches(row, want, REL) == []

    def test_bad_dim_is_usage_error(self, capsys):
        code = main(
            ["verify", "--dim", "1", "--states", "2", "--trials", "1", "--seed", "0"]
        )
        assert code == EXIT_USAGE

    def test_too_many_states_is_a_usage_error(self, capsys):
        # Sampling 5000 probabilities clear of the floor would never end.
        argv = ["verify", "--dim", "2", "--states", "5000", "--trials", "1", "--seed", "1"]
        assert main(argv) == EXIT_USAGE
        assert "n_states 5000" in capsys.readouterr().err

    def test_pool_workers_run_one_blas_thread(self):
        lib = cli._openblas()
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is None or set_ is None:
            pytest.skip("numpy's OpenBLAS thread getter and setter are not available")
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        before = get()
        set_(2)  # workers start from the parent's setting
        try:
            parent = get()
            with cli._pool(1) as pool:
                assert pool.submit(_blas_threads).result() == 1
            assert get() == parent  # the parent keeps its threads
        finally:
            set_(before)


class TestScan:
    def test_grid_scan(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "scan",
                "--p-grid",
                "0.2:0.8:0.3",
                "--dim",
                "2",
                "--trials",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        # grid {0.2, 0.5, 0.8} x 2 trials
        assert len(lines) == 7
        header = CSV_HEADER.split(",")
        row = lines[3].split(",")
        assert float(row[header.index("bound_thm")]) == pytest.approx(2.0)
        err = capsys.readouterr().err
        assert "p=0.5 " in err

    def test_summary_names_each_p_as_its_rows_do(self, tmp_path, capsys):
        # Points below 5e-5 are distinct p, not one rounded value.
        out = tmp_path / "scan.csv"
        argv = ["scan", "--p-grid", "0.00001:0.00003:0.00001", "--dim", "2", "--trials", "1"]
        assert main(argv + ["--seed", "0", "--out", str(out)]) == EXIT_OK
        ps = [line.split()[0] for line in capsys.readouterr().err.splitlines()]
        assert ps == ["p=1e-05", "p=2e-05", "p=3e-05"]
        rows = _parse_csv(out.read_text())
        assert [f"p={row['probs'][0]!r}" for row in rows] == ps

    def test_conjecture_event_writes_each_trial_ensemble(self, tmp_path, monkeypatch, capsys):
        # No binary ratio is known to exceed 1, so a negative slack makes
        # every row an event.
        monkeypatch.setattr(hz, "CONJECTURE_SLACK", -1.0)
        monkeypatch.chdir(tmp_path)
        argv = ["scan", "--p-grid", "0.2:0.6:0.4", "--dim", "3", "--trials", "2", "--seed", "7"]
        assert main(argv + ["--out", "v.csv"]) == EXIT_CONJECTURE
        rows = _assert_offenders_reproduce_rows(tmp_path, "scan_trial", capsys)
        assert [row["probs"][0] for row in rows] == [0.2, 0.2, 0.6, 0.6]

    def test_deterministic_output(self, tmp_path):
        argv = ["scan", "--p-grid", "0.1:0.9:0.2", "--dim", "3", "--trials", "4", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid(self, capsys):
        code = main(
            ["scan", "--p-grid", "0.5", "--dim", "2", "--trials", "1", "--seed", "0"]
        )
        assert code == EXIT_USAGE
        # A grid with no point in (0, 1) would write a header-only CSV.
        argv = ["scan", "--p-grid", "1.2:1.5:0.1", "--dim", "2", "--trials", "1", "--seed", "0"]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("mixrate: error: bad p-grid '1.2:1.5:0.1'")

    @pytest.mark.parametrize(
        "spec,grid",
        [
            ("0.1:0.8:0.2", [0.1, 0.3, 0.5, 0.7]),
            ("0.1:0.66:0.2", [0.1, 0.3, 0.5]),
            # Points that round to 1.0 or 0.0 lie outside (0, 1): dropped.
            ("0.1:1.0:0.3", [0.1, 0.4, 0.7]),
            ("1e-13:0.5:0.25", [0.25, 0.5]),
        ],
    )
    def test_grid_stops_at_hi(self, spec, grid, capsys):
        argv = ["scan", "--p-grid", spec, "--dim", "2", "--trials", "1", "--seed", "0"]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert [float(line.split()[0][2:]) for line in err.splitlines()] == grid

    def test_qubit_rows_match_the_bloch_oracle(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--p-grid", "0.1:0.9:0.2", "--dim", "2", "--trials", "4", "--seed", "11"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        cfg = ExperimentConfig(dim=2, n_states=2, n_trials=4, seed=11)
        for row in _parse_csv(out.read_text()):
            E = hz.trial_ensemble(cfg, row["trial_id"], row["probs"][0])
            assert mismatches(row, qubit_record(E, "binary"), REL) == []

    @pytest.mark.parametrize("spec", ["0.1:0.9:nan", "nan:0.9:0.2", "0.1:inf:0.2"])
    def test_non_finite_grid_is_a_usage_error(self, spec, capsys):
        argv = ["scan", "--p-grid", spec, "--dim", "2", "--trials", "1", "--seed", "0"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"mixrate: error: bad p-grid {spec!r}\n"


def _assert_offenders_reproduce_rows(tmp_path, stem: str, capsys) -> list:
    """The rows of tmp_path/v.csv that stderr names as conjecture events,
    after checking that each one's conjecture_offender_<stem><id>.json holds
    its probabilities and that compute on it gives its max_rate."""
    rows = {row["trial_id"]: row for row in _parse_csv((tmp_path / "v.csv").read_text())}
    events = [line for line in capsys.readouterr().err.splitlines() if "ensemble written" in line]
    assert events
    offenders = []
    for line in events:
        row = rows[int(line.split(" at trial ")[1].split(";")[0])]
        path = tmp_path / f"conjecture_offender_{stem}{row['trial_id']}.json"
        assert line.endswith(f"written to {path.name}")
        assert tuple(parse_ensemble(path.read_bytes()).probabilities) == tuple(row["probs"])
        assert main(["compute", "--ensemble", str(path), "--out", "c.json"]) == EXIT_OK
        got = json.loads((tmp_path / "c.json").read_text())["max_rate"]
        assert abs(got - row["max_rate"]) <= 1e-12 * max(1.0, row["max_rate"])
        offenders.append(row)
    return offenders


class TestSearch:
    def test_binary_search(self, tmp_path):
        out = tmp_path / "search.json"
        code = main(
            [
                "search",
                "--dim",
                "2",
                "--states",
                "2",
                "--iters",
                "150",
                "--seed",
                "5",
                "--binary",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rec = json.loads(out.read_text())[0]
        assert rec["iterations"] == 150
        assert rec["ratio_thm"] <= 1.0 + 1e-8
        assert 0.0 < rec["ratio_conj"] <= 1.0 + 1e-6

    @pytest.mark.parametrize("binary", [[], ["--binary"]])
    def test_deterministic_output(self, binary, tmp_path):
        argv = ["search", "--dim", "3", "--iters", "60", "--seed", "5"] + binary
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


    def test_conjecture_event_writes_the_reported_ensemble(self, tmp_path, monkeypatch):
        # The golden search_n3_long case exits 3; its offender file holds the
        # ensemble the record reports on.
        monkeypatch.chdir(tmp_path)
        argv = ["search", "--dim", "3", "--states", "3", "--iters", "1000", "--seed", "7"]
        assert main(argv + ["--out", "s.json"]) == EXIT_CONJECTURE
        rec = json.loads((tmp_path / "s.json").read_text())[0]
        offender = tmp_path / "conjecture_offender_search.json"
        E = parse_ensemble(offender.read_bytes())
        assert tuple(E.probabilities) == tuple(rec["probabilities"])
        assert main(["compute", "--ensemble", str(offender), "--out", "c.json"]) == EXIT_OK
        report = json.loads((tmp_path / "c.json").read_text())
        assert abs(report["max_rate"] - rec["max_rate"]) <= 1e-12 * max(1.0, rec["max_rate"])

    @pytest.mark.parametrize("n, binary", [(2, True), (3, False)])
    def test_qubit_records_match_the_bloch_oracle(self, n, binary):
        # The record against the ensemble it reports on, the batch _search returns.
        cfg = ExperimentConfig(dim=2, n_states=n, seed=5, search_max_iters=200, binary=binary)
        rec, best = hz._search(cfg)
        E = ens._ensemble(best, 0)
        assert tuple(E.probabilities) == rec.probabilities
        want = qubit_record(E, "binary" if binary else "verify")
        assert mismatches(dataclasses.asdict(rec), want, REL) == []

    @pytest.mark.parametrize("iters", [0, -5])
    def test_iters_below_one_is_a_usage_error(self, iters, capsys):
        argv = ["search", "--dim", "3", "--iters", str(iters), "--seed", "1"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("mixrate: error:")

    def test_too_many_states_is_a_usage_error(self, capsys):
        argv = ["search", "--dim", "2", "--states", "5000", "--iters", "1", "--seed", "1"]
        assert main(argv) == EXIT_USAGE
        assert "n_states 5000" in capsys.readouterr().err

    def test_one_state_is_a_usage_error(self, capsys):
        # S(X) = 0 for one state: the objective would divide by zero.
        argv = ["search", "--dim", "3", "--states", "1", "--iters", "5", "--seed", "1"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("mixrate: error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dim", "2", "--states", "2", "--trials", "1"],
        ["scan", "--p-grid", "0.5:0.5:0.1", "--dim", "2", "--trials", "1"],
        ["search", "--dim", "2", "--iters", "1"],
    ],
)
def test_negative_seed_is_a_usage_error(argv, capsys):
    assert main(argv + ["--seed", "-3"]) == EXIT_USAGE
    assert "seed -3 must be >= 0" in capsys.readouterr().err


class TestSie:
    @staticmethod
    def _bell_files(tmp_path):
        amp = np.zeros(16, dtype=complex)
        amp[0b0000] = amp[0b0110] = 1 / math.sqrt(2)  # (|00>+|11>)_{AB}
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        sp = tmp_path / "psi.json"
        hp = tmp_path / "ham.json"
        amplitudes = [[z.real, z.imag] for z in amp.tolist()]
        sp.write_text(json.dumps({"dims": [2, 2, 2, 2], "amplitudes": amplitudes}))
        hp.write_text(json.dumps({"dims": [2, 2], "hamiltonian": matrix_to_json(swap)}))
        return sp, hp

    def test_bell_swap(self, tmp_path, capsys):
        sp, hp = self._bell_files(tmp_path)
        code = main(["sie", "--state", str(sp), "--ham", str(hp)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "reduction_residual=" in out
        residual = float(out.split("reduction_residual=")[1].splitlines()[0])
        assert residual <= 1e-8
        assert out.count("ok=True") == 11

    @pytest.mark.filterwarnings("error")
    def test_nan_amplitude_is_a_usage_error(self, tmp_path, capsys):
        sp, hp = self._bell_files(tmp_path)
        obj = json.loads(sp.read_text())
        obj["amplitudes"][0][0] = math.nan
        sp.write_text(json.dumps(obj))
        assert main(["sie", "--state", str(sp), "--ham", str(hp)]) == EXIT_USAGE
        assert "amplitude 0 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, i, dim",
        [
            ("state", 0, 2.9), ("state", 1, True), ("state", 3, "2"),
            ("ham", 0, 2.2), ("ham", 1, True),
        ],
    )
    def test_dims_must_be_json_integers(self, which, i, dim, tmp_path, capsys):
        # int() would run 2.9 and 2.2 as 2, true as 1 and "2" as 2.
        files = dict(zip(("state", "ham"), self._bell_files(tmp_path)))
        obj = json.loads(files[which].read_text())
        obj["dims"][i] = dim
        files[which].write_text(json.dumps(obj))
        argv = ["sie", "--state", str(files["state"]), "--ham", str(files["ham"])]
        assert main(argv) == EXIT_USAGE
        assert f"dimension {dim!r} is not an integer" in capsys.readouterr().err

    def test_missing_state_file(self, tmp_path, capsys):
        _, hp = self._bell_files(tmp_path)
        code = main(["sie", "--state", str(tmp_path / "nope.json"), "--ham", str(hp)])
        assert code == EXIT_USAGE


def _skewed_commutators(monkeypatch):
    """An anti-Hermitian part in every commutator leaves their spectra (of
    hermitian_part) as they were, but gives the rate at the maximizers an
    imaginary part: each evaluation stops at _rate's check."""
    commutators = rates._commutators

    def skewed(*args):
        C = commutators(*args)
        C[..., 0, 0] += 1e-6j
        return C

    monkeypatch.setattr(rates, "_commutators", skewed)


def _lapack_fails(monkeypatch):
    """Every eigendecomposition fails in LAPACK, through hermitian._lapack."""
    lapack = hm._lapack

    def diverge(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(hm, "_lapack", lambda f, A: lapack(diverge, A))


def _negative_reduced_state(monkeypatch):
    """rho_aA reaches sie's entangling rate with an eigenvalue of -1e-6, below
    -PSD_TOL: the Bell state's kernel (rows 2 and 3 of rho_aA) is split into
    +-1e-6, so the trace stays 1."""
    rate = ent._entangling_rate

    def planted(rho_aAB, rho_aA, H_lift, d_B):
        return rate(rho_aAB, rho_aA + np.diag([0.0, 0.0, 1e-6, -1e-6]), H_lift, d_B)

    monkeypatch.setattr(ent, "_entangling_rate", planted)


def _negative_reduced_aAB_state(monkeypatch):
    """rho_aAB reaches sie's reduction with an eigenvalue of -1e-6, below
    -PSD_TOL: +-1e-6 on the diagonal at |a A B> = |010> and |001>, both
    orthogonal to the Bell state's vector, so the trace stays 1 and mu stays
    a state."""
    reduced = ent._reduced

    def planted(psi):
        rho_aAB, rho_aA = reduced(psi)
        return rho_aAB + np.diag([0.0, -1e-6, 1e-6, 0.0, 0.0, 0.0, 0.0, 0.0]), rho_aA

    monkeypatch.setattr(ent, "_reduced", planted)


def _nan_in_envelope(monkeypatch):
    """The largest eigenvalue of rho_aA(t) at the last time of sie's STE
    envelope is NaN: only the eigvalsh of the envelope's stack is planted,
    not the reduction's."""
    entropies, eigvalsh = ent._entropies, hm._eigvalsh

    def nan_last(A):
        w = eigvalsh(A)
        w[..., -1, -1] = np.nan
        return w

    def planted(rho_t):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hm, "_eigvalsh", nan_last)
            return entropies(rho_t)

    monkeypatch.setattr(ent, "_entropies", planted)


_PLANTS = {
    None: lambda monkeypatch: None,
    "imaginary rate": _skewed_commutators,
    "lapack fails": _lapack_fails,
    # A general bound of 0 makes the search's first candidate violate it.
    "no general bound": lambda monkeypatch: monkeypatch.setattr(
        hz, "_general_bound", lambda p: np.zeros(np.shape(p)[:-1])
    ),
    "ste bound below": lambda monkeypatch: monkeypatch.setattr(ent, "CHECK_SLACK", -10.0),
    "negative reduced state": _negative_reduced_state,
    "negative reduced aAB state": _negative_reduced_aAB_state,
    "nan in envelope": _nan_in_envelope,
    "every ratio an event": lambda monkeypatch: monkeypatch.setattr(hz, "CONJECTURE_SLACK", -1.0),
}
_VERIFY = "verify --dim 3 --states 3 --trials 6 --seed 42 --out OUT"
_SCAN = "scan --p-grid 0.2:0.8:0.3 --dim 2 --trials 2 --seed 1 --out OUT"
_SEARCH = "search --dim 3 --iters 60 --seed 5 --out OUT"
_SIE = "sie --state STATE --ham HAM"
_ERROR = "mixrate: error: "
_IMAGINARY = "rate has imaginary residue"
_NO_CONVERGENCE = _ERROR + "Eigenvalues did not converge"


# Every exit code of every command: its argv (placeholders for the files),
# what is planted, the code, and the stderr lines that say why, as regexes
# (scan's per-p summary and the conjecture lines are left out). compute
# never exits 3: it reports ratios without guarding them, and sie has no
# conjectured bound.
@pytest.mark.parametrize(
    "argv, plant, code, why",
    [
        pytest.param("compute --ensemble ENSEMBLE", None, EXIT_OK, [], id="compute-0"),
        pytest.param("compute --ensemble MISSING", None, EXIT_USAGE,
                     [_ERROR + ".*No such file"], id="compute-1"),
        pytest.param("compute --ensemble ENSEMBLE", "imaginary rate", EXIT_INVARIANT,
                     [_ERROR + _IMAGINARY], id="compute-2-imaginary-rate"),
        pytest.param("compute --ensemble ENSEMBLE", "lapack fails", EXIT_INVARIANT,
                     [_NO_CONVERGENCE], id="compute-2-lapack"),
        pytest.param(_VERIFY, None, EXIT_OK, [], id="verify-0"),
        pytest.param(_VERIFY.replace("--dim 3", "--dim 1"), None, EXIT_USAGE,
                     [_ERROR + r"dim 1 outside supported range \[2, 64\]"], id="verify-1"),
        pytest.param(_VERIFY, "imaginary rate", EXIT_INVARIANT,
                     [f"trial {i}: Fault: {_IMAGINARY}" for i in range(6)],
                     id="verify-2-imaginary-rate"),
        pytest.param(_VERIFY, "lapack fails", EXIT_INVARIANT, [_NO_CONVERGENCE],
                     id="verify-2-lapack"),
        pytest.param(_VERIFY, "every ratio an event", EXIT_CONJECTURE, [], id="verify-3"),
        pytest.param(_SCAN, None, EXIT_OK, [], id="scan-0"),
        pytest.param(_SCAN.replace("0.2:0.8:0.3", "2:3:1"), None, EXIT_USAGE,
                     [_ERROR + "bad p-grid '2:3:1': no point in"], id="scan-1"),
        pytest.param(_SCAN, "imaginary rate", EXIT_INVARIANT,
                     [f"trial {i}: Fault: {_IMAGINARY}" for i in range(6)],
                     id="scan-2-imaginary-rate"),
        pytest.param(_SCAN, "every ratio an event", EXIT_CONJECTURE, [], id="scan-3"),
        pytest.param(_SEARCH, None, EXIT_OK, [], id="search-0"),
        pytest.param(_SEARCH + " --states 1", None, EXIT_USAGE,
                     [_ERROR + "search needs n_states >= 2, got 1"], id="search-1"),
        pytest.param(_SEARCH, "no general bound", EXIT_INVARIANT,
                     ["trial 0: BoundViolation: max rate .* exceeds the general bound"],
                     id="search-2-theorem-violation"),
        pytest.param(_SEARCH, "lapack fails", EXIT_INVARIANT, [_NO_CONVERGENCE],
                     id="search-2-lapack"),
        pytest.param(_SEARCH, "every ratio an event", EXIT_CONJECTURE, [], id="search-3"),
        pytest.param(_SIE, None, EXIT_OK, [], id="sie-0"),
        pytest.param(_SIE.replace("STATE", "MISSING"), None, EXIT_USAGE,
                     [_ERROR + ".*No such file"], id="sie-1"),
        pytest.param(_SIE, "lapack fails", EXIT_INVARIANT, [_NO_CONVERGENCE], id="sie-2-lapack"),
        pytest.param(_SIE, "ste bound below", EXIT_INVARIANT,
                     [_ERROR + r"entanglement above the STE bound at t=0\.00 \(11 times\)$"],
                     id="sie-2-ste"),
        pytest.param(_SIE, "negative reduced state", EXIT_INVARIANT,
                     [_ERROR + r"not PSD \(min eigenvalue -1\.000e-06\)$"],
                     id="sie-2-reduced-state"),
        pytest.param(_SIE, "negative reduced aAB state", EXIT_INVARIANT,
                     [_ERROR + r"rho_aAB is not a state: not PSD \(min eigenvalue -1\.000e-06\)$"],
                     id="sie-2-reduced-aAB-state"),
        pytest.param(_SIE, "nan in envelope", EXIT_INVARIANT,
                     [_ERROR + "trace nan differs from 1$"], id="sie-2-envelope-state"),
    ],
)
def test_exit_codes(argv, plant, code, why, ensemble_file, tmp_path, monkeypatch, capsys):
    state, ham = TestSie._bell_files(tmp_path)
    monkeypatch.chdir(tmp_path)  # offender files land in the cwd
    files = {
        "ENSEMBLE": ensemble_file, "STATE": state, "HAM": ham,
        "MISSING": tmp_path / "missing.json", "OUT": tmp_path / "out",
    }
    _PLANTS[plant](monkeypatch)
    assert main([str(files.get(a, a)) for a in argv.split()]) == code
    err = capsys.readouterr().err.splitlines()
    lines = [line for line in err if line.startswith((_ERROR, "trial "))]
    assert len(lines) == len(why) and all(map(re.match, why, lines)), err
    if plant == "no general bound":  # the record reports the first candidate
        assert json.loads(files["OUT"].read_text())[0]["iterations"] == 1


def _one_bad_pair(tmp_path, which: str, pair) -> list:
    """The argv that reads an ensemble, Hamiltonian-set, pure-state or
    operator file (`which`) whose one [re, im] pair is `pair`, the other
    three files being valid."""
    E, H = random_ensemble(2, 2, rng(740)), random_hamiltonian_set(2, 2, rng(741))
    ens = json.loads(serialize_ensemble(E))
    hams = {"dim": 2, "hamiltonians": [matrix_to_json(h.matrix) for h in H]}
    sp, op = TestSie._bell_files(tmp_path)
    state, operator = json.loads(sp.read_text()), json.loads(op.read_text())
    row, k = {
        "ensemble": (ens["states"][1][0], 0),
        "hamiltonians": (hams["hamiltonians"][1][0], 0),
        "state": (state["amplitudes"], 3),
        "operator": (operator["hamiltonian"][1], 0),
    }[which]
    row[k] = pair
    ep, hp = tmp_path / "e.json", tmp_path / "h.json"
    for path, obj in ((ep, ens), (hp, hams), (sp, state), (op, operator)):
        path.write_text(json.dumps(obj))
    compute = ["compute", "--ensemble", str(ep)]
    return {
        "ensemble": compute,
        "hamiltonians": compute + ["--hamiltonians", str(hp)],
    }.get(which, ["sie", "--state", str(sp), "--ham", str(op)])


@pytest.mark.parametrize(
    "which, message",
    [
        ("ensemble", "non-finite entries (member 1)"),
        ("hamiltonians", "non-finite entries (member 1)"),
        ("state", "amplitude 3 is not finite"),
        ("operator", "matrix has non-finite entries"),
    ],
)
def test_infinite_imaginary_part_is_refused_without_warnings(which, message, tmp_path):
    # An entry [0, Infinity] in one input file, run as a user runs it: numpy
    # must not warn on the way to the refusal.
    import mixrate

    argv = _one_bad_pair(tmp_path, which, [0.0, math.inf])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixrate.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "mixrate.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_USAGE
    assert message in run.stderr
    assert "Warning" not in run.stderr, run.stderr


def _refused(argv, message: str, capsys) -> None:
    """argv exits 1 with exactly one stderr line, the error, naming `message`."""
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mixrate: error: "), err
    assert message in err[0]


@pytest.mark.parametrize("which", ["ensemble", "hamiltonians", "state", "operator"])
@pytest.mark.parametrize(
    "pair, message",
    [
        (["1", 0.0], "entries must be JSON numbers"),
        ([0.0, "0"], "entries must be JSON numbers"),
        ([False, 0.0], "entries must be JSON numbers"),
        ([0.0, True], "entries must be JSON numbers"),
        ([None, 0.0], "entries must be JSON numbers"),
        ([10**400, 0.0], "not a numeric array"),  # beyond a float: once an OverflowError
        # 1e308 overflowed M + M† and the amplitudes' norm, with a RuntimeWarning.
        ([1e308, 0.0], "an entry above 1e+150 in magnitude"),
        ([0.0, -1.5e150], "an entry above 1e+150 in magnitude"),
    ],
)
def test_matrix_entries_must_be_json_numbers(which, pair, message, tmp_path, capsys):
    # np.asarray(..., dtype=float) alone reads "1" as 1.0, false as 0.0 and null as NaN.
    _refused(_one_bad_pair(tmp_path, which, pair), message, capsys)


@pytest.mark.parametrize(
    "which, edit, message",
    [
        ("ensemble", lambda o: o.update(states=o["states"][:1]),
         "probabilities and states have different lengths"),
        ("state", lambda o: o.update(amplitudes=[a + [0.0] for a in o["amplitudes"]]),
         "amplitudes must be a list of [re, im] pairs"),
        ("operator", lambda o: o.pop("dims"), "operator JSON missing or malformed field: 'dims'"),
        ("state", lambda o: o.update(dims=[0, 2, 2, 1]), "need four factor dimensions >= 1"),
        ("state", lambda o: o.update(dims=[1, -2, 2, 1]), "need four factor dimensions >= 1"),
    ],
)
def test_inconsistent_files_are_refused(which, edit, message, tmp_path, capsys):
    # Well-formed JSON whose fields disagree with each other: 2 probabilities
    # and 1 state, [re, im, ?] amplitudes, an operator without dims, a zero
    # or negative factor dimension.
    ep = tmp_path / "e.json"
    ep.write_bytes(serialize_ensemble(random_ensemble(2, 2, rng(742))))
    sp, op = TestSie._bell_files(tmp_path)
    path = {"ensemble": ep, "state": sp, "operator": op}[which]
    sie = ["sie", "--state", str(sp), "--ham", str(op)]
    argv = ["compute", "--ensemble", str(ep)] if which == "ensemble" else sie
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    _refused(argv, message, capsys)


class TestBoundary:
    """Inputs that once ended in a traceback or grew without bound. Each is
    refused before any trial or grid point is allocated; an oversized
    request is only ever tested by its refusal."""

    @staticmethod
    def forbid(monkeypatch, module, *names):
        """Make each named function of module fail the test if it is called."""

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the refusal")

        for name in names:
            monkeypatch.setattr(module, name, forbidden, raising=False)

    @pytest.mark.parametrize("which", ["ensemble", "hamiltonians", "state", "operator"])
    def test_deep_nesting_is_a_parse_error(self, which, ensemble_file, tmp_path, capsys):
        # 5000 open brackets made json.loads raise an uncaught RecursionError.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000)
        sp, hp = TestSie._bell_files(tmp_path)
        compute = ["compute", "--ensemble"]
        argv = {
            "ensemble": compute + [str(deep)],
            "hamiltonians": compute + [str(ensemble_file), "--hamiltonians", str(deep)],
            "state": ["sie", "--state", str(deep), "--ham", str(hp)],
            "operator": ["sie", "--state", str(sp), "--ham", str(deep)],
        }[which]
        _refused(argv, "malformed JSON: nested too deeply", capsys)

    @pytest.mark.parametrize("trials", ["99999999999999999999", str(hz.MAX_TRIALS + 1)])
    def test_verify_trials_above_the_ceiling(self, trials, monkeypatch, capsys):
        # 10**20 trials made trial_chunks raise an uncaught OverflowError.
        self.forbid(monkeypatch, hz, "trial_chunks", "run_trials")
        argv = ["verify", "--dim", "2", "--states", "2", "--trials", trials, "--seed", "1"]
        _refused(argv, f"n_trials {trials} above the limit of {hz.MAX_TRIALS}", capsys)

    def test_the_ceiling_admits_itself(self):
        assert ExperimentConfig(n_trials=hz.MAX_TRIALS).n_trials == hz.MAX_TRIALS

    @pytest.mark.parametrize("spec", ["0.1:0.9:1e-300", "0.1:0.9:1e-320", "0:1:1e-6"])
    def test_grid_above_the_ceiling(self, spec, monkeypatch, capsys):
        # A step of 1e-300 once built the grid until memory ran out; 1e-320
        # makes the point count infinite. The builtin range the grid is built
        # from is forbidden, so no grid is built whatever _parse_grid does.
        self.forbid(monkeypatch, cli, "range")
        argv = ["scan", "--p-grid", spec, "--dim", "2", "--trials", "1", "--seed", "1"]
        _refused(argv, f"more than {hz.MAX_TRIALS} points", capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dim", "4", "--states", "3", "--trials", "3000", "--seed", "1"],
            ["scan", "--p-grid", "0.01:0.99:0.07", "--dim", "4", "--trials", "200", "--seed", "3"],
            ["compute", "--ensemble", "ENSEMBLE", "--hamiltonians", "HAMILTONIANS"],
            ["search", "--dim", "8", "--states", "3", "--iters", "3000", "--seed", "1"],
        ],
    )
    def test_unwritable_out_fails_before_any_trial(
        self, argv, ensemble_file, hamiltonian_file, monkeypatch, tmp_path, capsys
    ):
        # verify once ran all 3000 trials, then failed to open --out and
        # wrote none of its offender files; search climbed for 1.8 s. compute
        # makes its report, a few milliseconds, before it creates --out.
        self.forbid(monkeypatch, hz, "run_trials", "_search")
        files = {"ENSEMBLE": str(ensemble_file), "HAMILTONIANS": str(hamiltonian_file)}
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = cwd / "missing" / "x.csv"
        argv = [files.get(a, a) for a in argv] + ["--out", str(out)]
        _refused(argv, "No such file or directory", capsys)
        assert list(cwd.iterdir()) == []

    def test_ceiling_edges(self, monkeypatch, tmp_path, capsys):
        # At a ceiling of 10: 10 grid points and 5 x 2 scan trials run, one
        # more of either is refused, and so is an 11-trial verify.
        monkeypatch.setattr(hz, "MAX_TRIALS", 10)
        assert len(cli._parse_grid("0.1:1:0.1")) == 9  # 10 points, 1.0 dropped
        with pytest.raises(cli.InputError, match="more than 10 points"):
            cli._parse_grid("0.1:1.1:0.1")
        scan = ["scan", "--p-grid", "0.1:0.5:0.1", "--dim", "2", "--seed", "1"]
        out = str(tmp_path / "s.csv")
        assert main(scan + ["--trials", "2", "--out", out]) in (EXIT_OK, EXIT_CONJECTURE)
        capsys.readouterr()
        _refused(scan + ["--trials", "3"], "5 grid points x 3 trials above the limit of 10", capsys)
        _refused(["verify", "--dim", "2", "--states", "2", "--trials", "11", "--seed", "1"],
                 "n_trials 11 above the limit of 10", capsys)


class TestEigenBudget:
    """Each quantity is diagonalized once: a second eigendecomposition of the
    same matrix shows up here as a higher count."""

    @staticmethod
    def _count(monkeypatch) -> list:
        """[all calls, full eigh calls], counted from here on."""
        calls = [0, 0]
        for name in ("eigh", "eigvalsh"):
            f = getattr(np.linalg, name)

            def counted(*args, _f=f, _full=name == "eigh", **kwargs):
                calls[0] += 1
                calls[1] += _full
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_rate_report_and_sie(self, tmp_path, monkeypatch, hamiltonian_file):
        E = random_ensemble(3, 3, rng(700))
        H = parse_hamiltonian_set(hamiltonian_file.read_bytes())
        sp, hp = TestSie._bell_files(tmp_path)
        calls = self._count(monkeypatch)
        rate_report(E)
        # rho, the stacked commutators, and one stacked trajectory for the
        # 4 FD times; the rank probe reads rho.
        assert calls[0] == 3
        calls[0] = 0
        rate_report(E, H)
        # The same three, and one stacked call for the three Hamiltonians.
        assert calls[0] == 4
        calls[:] = [0, 0]
        assert main(["sie", "--state", str(sp), "--ham", str(hp)]) == EXIT_OK
        # One stacked eigvalsh of mu and rho_aAB, the eigh of their expected
        # state rho = rho_aA ⊗ I/d_B for the binary rate, the eigh of rho_aA
        # for the entangling rate, then the STE check: the eigh of H and one
        # stacked eigvalsh of E(t) for t = 0 and the 11 times.
        assert calls == [5, 3]

    def test_verify_chunk(self, tmp_path, monkeypatch):
        # 32 trials at d = 4 are one chunk: the 96 sampled states, the 32
        # expected states, the 96 commutators and the 32 x 7 evolved states
        # each share one stacked call. Seed 1 has no conjecture event, which
        # would sample offenders again.
        calls = self._count(monkeypatch)
        argv = ["verify", "--dim", "4", "--states", "3", "--trials", "32", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "v.csv")]) == EXIT_OK
        assert calls[0] == 4

    def test_search_blocks(self, tmp_path, monkeypatch):
        # A block of 8 candidates costs 3 stacked calls (their Hamiltonians,
        # their expected states, their commutators), and every candidate of a
        # block is an iteration: well under one call per iteration, where one
        # candidate at a time made 3.
        calls = self._count(monkeypatch)
        argv = ["search", "--dim", "4", "--binary", "--iters", "400", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "s.json")]) == EXIT_OK
        assert calls[0] <= 400


class TestGuardStatus:
    @staticmethod
    def _record(**kw):
        base = dict(
            trial_id=0,
            seed=0,
            dim=2,
            n_states=2,
            probabilities=(0.5, 0.5),
            max_rate=1.0,
            bound_thm=2.0,
            shannon=math.log(2),
            ratio_thm=0.5,
            ratio_conj=0.9,
            fd_residual=1e-9,
            stm_ok=True,
        )
        base.update(kw)
        return TrialRecord(**base)

    def test_clean_batch(self, capsys):
        assert guard_status([self._record()]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_each_failed_record_gets_a_stderr_line(self, capsys):
        records = [
            self._record(trial_id=0, error="Fault: x"),
            self._record(trial_id=1),
            self._record(trial_id=2, ratio_thm=1.5),
            self._record(trial_id=3, fd_residual=1e-3),
            self._record(trial_id=4, stm_ok=False),
            self._record(trial_id=5, ratio_conj=2.0),
        ]
        assert guard_status(records) == EXIT_INVARIANT
        assert capsys.readouterr().err.splitlines() == [
            "trial 0: Fault: x",
            "trial 2: ratio_thm 1.5 exceeds 1",
            "trial 3: fd_residual 0.001 exceeds 1e-6",
            "trial 4: entropy outside the STM bounds",
        ]

    def test_conjecture_event_before_a_failure(self):
        records = [self._record(ratio_conj=2.0), self._record(stm_ok=False)]
        assert guard_status(records) == EXIT_INVARIANT

    def test_error_wins(self):
        records = [self._record(error="Fault: x"), self._record(ratio_conj=2.0)]
        assert guard_status(records) == EXIT_INVARIANT

    def test_theorem_violation(self):
        assert guard_status([self._record(ratio_thm=1.0 + 1e-6)]) == EXIT_INVARIANT

    def test_stm_failure(self):
        assert guard_status([self._record(stm_ok=False)]) == EXIT_INVARIANT

    def test_large_fd_residual(self):
        assert guard_status([self._record(fd_residual=1e-3)]) == EXIT_INVARIANT

    @pytest.mark.parametrize("field, bound", [("ratio_thm", "1"), ("fd_residual", "1e-6")])
    def test_nan_fails_the_theorem_guards(self, field, bound, capsys):
        assert guard_status([self._record(**{field: math.nan})]) == EXIT_INVARIANT
        assert capsys.readouterr().err == f"trial 0: {field} nan exceeds {bound}\n"

    def test_nan_in_the_evolved_states_exits_invariant(self, tmp_path, monkeypatch, capsys):
        # rho(t) goes to LAPACK with no finiteness test: a NaN in it makes
        # eigvalsh raise or return NaN eigenvalues, which the state's PSD and
        # trace tests refuse. Either way every trial errs with a Fault.
        involution_terms = rates._involution_terms

        def poisoned(*args):
            terms = involution_terms(*args)
            terms[..., 1, 0] = math.nan
            return terms

        monkeypatch.setattr(rates, "_involution_terms", poisoned)
        argv = ["verify", "--dim", "4", "--states", "3", "--trials", "3", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "v.csv")]) == EXIT_INVARIANT
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in lines] == ["trial 0", "trial 1", "trial 2"]
        assert all(line.split(": ")[1] == "Fault" for line in lines)

    def test_conjecture_event(self):
        assert guard_status([self._record(ratio_conj=1.01)]) == EXIT_CONJECTURE
        # Just past CONJECTURE_SLACK.
        assert guard_status([self._record(ratio_conj=1.0 + 2e-6)]) == EXIT_CONJECTURE

    def test_conjecture_within_slack_ok(self):
        assert guard_status([self._record(ratio_conj=1.0 + 1e-7)]) == EXIT_OK

    def test_offender_serialization(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = ExperimentConfig(dim=2, n_states=2, seed=11)
        rec = run_trial(cfg, 0)
        rec.ratio_conj = 1.5  # synthetic event to exercise the reporting path
        from mixrate.harness import trial_ensemble

        cli._flag_conjecture_offenders(
            [rec],
            lambda r: trial_ensemble(cfg, r.trial_id),
            lambda r: f"conjecture_offender_trial{r.trial_id}.json",
        )
        offender = tmp_path / "conjecture_offender_trial0.json"
        assert offender.exists()
        payload = json.loads(offender.read_text())
        assert payload["dim"] == 2
        assert len(payload["probabilities"]) == 2


def _says_why(code: int, err: str) -> list:
    """The `mixrate: error:` lines of stderr err, checked against the exit
    code: exit 1 prints exactly one; exit 2 one (a fault outside trials) or
    none but `trial <id>:` lines; other codes none."""
    errors = [line for line in err.splitlines() if line.startswith("mixrate: error:")]
    trials = [line for line in err.splitlines() if line.startswith("trial ")]
    if code == EXIT_INVARIANT:
        assert (len(errors), bool(trials)) in ((1, False), (0, True)), err
    else:
        assert (len(errors), trials) == (int(code == EXIT_USAGE), []), err
    return errors


# A small argv grammar for verify, scan and search. Every argv parses, so
# exit 1 can only come from a refused value; --workers stays <= 1, so no
# pool starts, and the grid tokens keep every grid under a dozen points.
# --out is absent, a fresh file or a file in a missing directory, both
# relative to the temporary working directory.
def _int_flag(name: str, lo: int, hi: int):
    return st.integers(lo, hi).map(lambda v: [f"--{name}", str(v)])


_NUMBER = st.sampled_from(["0", "1", "-0.5", "0.25", "0.5", "2", "nan", "inf", "-inf"])
_P_GRID = st.one_of(
    # lo:hi:step, well formed more often than not.
    st.tuples(
        st.sampled_from(["0", "0.25", "-0.5", "nan"]),
        st.sampled_from(["1", "0.75", "2", "-inf"]),
        st.sampled_from(["0.25", "0.5", "0", "inf"]),
    ).map(":".join),
    st.lists(_NUMBER | st.sampled_from(["", ":", "::", ",", ";", " "]), max_size=7).map("".join),
)
_DIM, _STATES = _int_flag("dim", 1, 5), _int_flag("states", 0, 4)
_TRIALS, _SEED = _int_flag("trials", -1, 3), _int_flag("seed", -1, 5)
_COMMAND = st.one_of(
    st.tuples(
        st.just(["verify"]), _DIM, _STATES, _TRIALS, _SEED,
        st.sampled_from([[], ["--workers", "-1"], ["--workers", "0"], ["--workers", "1"]]),
    ),
    st.tuples(st.just(["scan"]), _P_GRID.map(lambda g: [f"--p-grid={g}"]), _DIM, _TRIALS, _SEED),
    st.tuples(
        st.just(["search"]), _DIM, st.one_of(st.just([]), _STATES),
        _int_flag("iters", -1, 20), _SEED, st.sampled_from([[], ["--binary"]]),
    ),
).map(lambda parts: [a for part in parts for a in part])
_OUT = st.sampled_from([[], ["--out", "out"], ["--out", os.path.join("missing", "out")]])
_ARGV = st.tuples(_COMMAND, _OUT).map(lambda c: c[0] + c[1])


# One bug per report: shrinking every distinct failure took minutes.
@settings(max_examples=400, deadline=None, report_multiple_bugs=False)
@given(argv=_ARGV)
def test_every_argv_exits_with_a_documented_code(argv):
    # An uncaught exception would fail the test with its traceback.
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:  # offender files land in the cwd
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            wrote = os.path.exists(argv[-1])
        finally:
            os.chdir(cwd)
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_CONJECTURE)
    assert "Traceback" not in err
    _says_why(code, err)
    # --out is created after the checks, before the work: a refused run leaves none.
    if "--out" in argv:
        assert wrote == (code != EXIT_USAGE)


# A grammar over the four JSON input formats. A case is a valid document of
# each file a command reads (a small ensemble, perhaps with its Hamiltonian
# set, or a pure state and an operator), then up to three tree mutations of
# each (a wrong type, a non-finite or odd number, a changed shape), then
# perhaps a node buried deep in brackets and bytes that are not UTF-8.
_ODD = [
    None, True, False, "1", "x", {}, [], [[]], 0, -1, 2, 1.5, 10**400, -(10**400), 1e308, 1e150,
    -1e150, -0.0, 5e-324, math.nan, math.inf, -math.inf,
]
_TREE_MUTATION = st.one_of(
    st.sampled_from(_ODD).map(lambda v: ("replace", v)),
    st.sampled_from([1e308, 1e150, -1e151, 5e-324, 0]).map(lambda v: ("fill", v)),
    st.sampled_from(["drop", "duplicate", "wrap", "unwrap"]).map(lambda op: (op,)),
)
_NEST_MARK = "\x00nest\x00"
# Bytes spliced into a file, mostly none; b"" truncates it instead.
_JUNK = [None] * 10 + [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b""]
# The flag of each file a command reads, in the order of _json_documents.
_FLAGS = {
    "compute": ["--ensemble"],
    "compute --hamiltonians": ["--ensemble", "--hamiltonians"],
    "sie": ["--state", "--ham"],
}


def _json_documents(command: str, seed: int, dims: tuple) -> list:
    """Valid documents of the files command reads, drawn from seed."""
    g = rng(seed)
    if command == "sie":
        v = g.standard_normal(math.prod(dims)) + 1j * g.standard_normal(math.prod(dims))
        v /= np.linalg.norm(v)
        H = random_hamiltonian_set(dims[1] * dims[2], 1, g)[0]
        return [
            {"dims": list(dims), "amplitudes": [[z.real, z.imag] for z in v.tolist()]},
            {"dims": list(dims[1:3]), "hamiltonian": matrix_to_json(H.matrix)},
        ]
    d, n = dims
    docs = [json.loads(serialize_ensemble(random_ensemble(d, n, g)))]
    if command == "compute --hamiltonians":
        H = random_hamiltonian_set(d, n, g)
        docs.append({"dim": d, "hamiltonians": [matrix_to_json(h.matrix) for h in H]})
    return docs


def _paths(obj, path=()):
    """The path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, path + (key,))


def _at(doc, pick: int):
    """The parent, key and value of node pick (mod the node count) of doc;
    the root has parent None."""
    paths = list(_paths(doc))
    path = paths[pick % len(paths)]
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    return parent, path[-1] if path else None, node


def _filled(node, v):
    """node with every number in it replaced by v."""
    if isinstance(node, list):
        return [_filled(x, v) for x in node]
    if isinstance(node, dict):
        return {k: _filled(x, v) for k, x in node.items()}
    return v if type(node) in (int, float) else node


def _mutated(doc, pick: int, mutation):
    """doc with one node changed: replaced, its numbers all set to one value,
    dropped from its parent, duplicated next to itself, wrapped in a list, or
    replaced by its first item."""
    doc = copy.deepcopy(doc)
    parent, key, node = _at(doc, pick)
    op = mutation[0]
    if op == "replace":
        new = mutation[1]
    elif op == "fill":
        new = _filled(node, mutation[1])
    elif op == "wrap":
        new = [node]
    elif op == "unwrap" and isinstance(node, (list, dict)) and node:
        new = next(iter(node.values())) if isinstance(node, dict) else node[0]
    elif op in ("drop", "duplicate") and parent is not None:
        if op == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        return doc
    else:
        return doc
    if parent is None:
        return new
    parent[key] = new
    return doc


@st.composite
def _json_case(draw):
    """A command, and the bytes of each file it reads."""
    command = draw(st.sampled_from(list(_FLAGS)))
    if command == "sie":
        # (a, A, B, b): the reduction needs 2 <= dim(B) <= dim(A).
        dims = draw(st.tuples(st.integers(1, 2), st.integers(2, 3), st.just(2), st.integers(1, 2)))
    else:
        dims = (draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    files = []
    for doc in _json_documents(command, draw(st.integers(0, 99)), dims):
        for _ in range(draw(st.integers(0, 3))):
            doc = _mutated(doc, draw(st.integers(0, 10**4)), draw(_TREE_MUTATION))
        depth = draw(st.sampled_from([0, 0, 0, 0, 2, 100, 5000]))
        buried = None
        if depth:
            doc = copy.deepcopy(doc)
            parent, key, buried = _at(doc, draw(st.integers(0, 10**4)))
            if parent is None:
                doc = _NEST_MARK
            else:
                parent[key] = _NEST_MARK
        text = json.dumps(doc)
        if depth:
            deep = "[" * depth + json.dumps(buried) + "]" * depth
            text = text.replace(json.dumps(_NEST_MARK), deep)
        raw = text.encode("utf-8")
        junk = draw(st.sampled_from(_JUNK))
        if junk is not None:
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + junk + (raw[at:] if junk else b"")
        files.append(raw)
    return command, files


@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(case=_json_case())
def test_every_input_file_exits_with_a_documented_code(case):
    command, files = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"in{k}.json") for k in range(len(files))]
        for path, raw in zip(paths, files):
            with open(path, "wb") as fh:
                fh.write(raw)
        argv = command.split()[:1]
        for flag, path in zip(_FLAGS[command], paths):
            argv += [flag, path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_CONJECTURE)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    errors = _says_why(code, err)
    # The longest message of a valid refusal is about 110 bytes (malformed
    # JSON, with its position); a dim nested 900 deep was once echoed in 1.8 KB.
    assert all(len(line) <= 160 for line in errors)
