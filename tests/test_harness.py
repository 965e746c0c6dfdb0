import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from mixrate import cli
from mixrate import ensembles as ens
from mixrate import harness as hz
from mixrate import hermitian as hm
from mixrate.ensembles import DensityMatrix, Ensemble, _stack
from mixrate.errors import DomainError
from mixrate.harness import (
    ExperimentConfig,
    RNGSpec,
    TrialRecord,
    evaluate_batch,
    records_to_csv,
    records_to_json,
    run_trials,
    sample_ensemble,
    scan_binary,
    search_ratio,
)
from reference import run_trial, sample_density

# The golden corpus tolerances: rates, bounds, ratios and entropies relative,
# residuals absolute, everything else exact.
REL_TOL = 1e-12
RESIDUAL_TOL = 1e-9


def assert_records_match(got, want):
    a, b = vars(got), vars(want)
    assert a.keys() == b.keys()
    for key, w in b.items():
        g = a[key]
        if isinstance(w, float):
            tol = RESIDUAL_TOL if key == "fd_residual" else REL_TOL * max(1.0, abs(w))
            assert isinstance(g, float) and abs(g - w) <= tol, (key, g, w)
        else:
            assert g == w, (key, g, w)


class TestSampling:
    def test_density_is_valid_state(self):
        rho = sample_density(4, RNGSpec(1, 0))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] >= -1e-12
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_density_dim_one(self):
        rho = sample_density(1, RNGSpec(1, 0))
        assert np.allclose(rho.matrix, [[1.0]])

    def test_density_mean_is_maximally_mixed(self):
        # Monte-Carlo oracle: unitary invariance of the measure forces I/2.
        g = RNGSpec(2, 0).generator()
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            acc += sample_density(2, g).matrix
        assert np.abs(acc / n - np.eye(2) / 2).max() <= 0.02

    def test_hamiltonian_norm_exactly_one(self):
        for stream in range(5):
            w, V, _ = hz._climb_draws(1, 2, 5, RNGSpec(3, stream).generator())
            for H in hm.hermitian_part(hm.reconstruct(w, V))[0]:
                norm = np.max(np.abs(np.linalg.eigvalsh(H)))
                assert norm == pytest.approx(1.0, abs=1e-12)
                assert np.abs(H - H.conj().T).max() <= 1e-15

    def test_hamiltonian_set_is_one_stacked_draw(self, monkeypatch):
        # Reference: per candidate, each member drawn in order (real part,
        # then imaginary part) and diagonalized on its own, then the
        # candidate's probability noises.
        serial = RNGSpec(3, 9).generator()
        want, noises = [], []
        for _ in range(2):
            for _ in range(3):
                G = serial.standard_normal((4, 4)) + 1j * serial.standard_normal((4, 4))
                w, V = np.linalg.eigh((G + G.conj().T) / 2)
                norm = np.max(np.abs(w))
                want.append((V * (w / norm)) @ V.conj().T)
            noises.append(serial.standard_normal(3))
        calls = [0]
        eigh = np.linalg.eigh

        def counted(*args):
            calls[0] += 1
            return eigh(*args)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        g = RNGSpec(3, 9).generator()
        w, V, noise = hz._climb_draws(2, 3, 4, g)
        assert calls[0] == 1
        got = hm.reconstruct(w, V).reshape(6, 4, 4)
        for M, H in zip(got, want):
            assert np.allclose(M, H, atol=1e-15, rtol=0)
        assert np.array_equal(noise, noises)
        # The flat call leaves the generator where the serial draws leave it.
        assert g.bit_generator.state == serial.bit_generator.state

    def test_zero_norm_draw_raises_at_every_block_size(self, monkeypatch):
        unit_spectra = hz._unit_spectra

        def zero_norms(G):
            w, V, norms = unit_spectra(G)
            return w, V, np.zeros_like(norms)

        monkeypatch.setattr(hz, "_unit_spectra", zero_norms)
        for k in (1, 3):
            with pytest.raises(DomainError, match="zero-norm"):
                hz._climb_draws(k, 2, 3, RNGSpec(3, 9).generator())

    def test_hamiltonian_dim_one(self):
        w, V, _ = hz._climb_draws(1, 1, 1, RNGSpec(3, 7).generator())
        H = hm.reconstruct(w, V)[0, 0]
        assert abs(abs(H[0, 0]) - 1.0) <= 1e-12

    def test_ensemble_probabilities(self):
        cfg = ExperimentConfig(dim=3, n_states=4, seed=5)
        E = sample_ensemble(cfg, RNGSpec(5, 0))
        assert np.sum(E.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert np.all(E.probabilities > 1e-6)

    def test_singleton_ensemble(self):
        cfg = ExperimentConfig(dim=2, n_states=1, seed=5)
        E = sample_ensemble(cfg, RNGSpec(5, 0))
        assert len(E) == 1 and E.probabilities[0] == 1.0

    def test_determinism(self):
        cfg = ExperimentConfig(dim=3, n_states=3, seed=9)
        a = sample_ensemble(cfg, RNGSpec(9, 4))
        b = sample_ensemble(cfg, RNGSpec(9, 4))
        assert np.array_equal(a.probabilities, b.probabilities)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x.matrix, y.matrix)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(dim=1)
        with pytest.raises(DomainError):
            ExperimentConfig(dim=65)
        with pytest.raises(DomainError):
            ExperimentConfig(mode="explode")

    def test_states_limit(self):
        # Above hz.MAX_STATES the floor-clearing redraw of the probabilities
        # would run for ever; the limit itself is accepted.
        ExperimentConfig(n_states=hz.MAX_STATES)
        with pytest.raises(DomainError, match="n_states"):
            ExperimentConfig(n_states=hz.MAX_STATES + 1)


class TestRunTrial:
    def test_guards_hold(self):
        cfg = ExperimentConfig(dim=4, n_states=3, seed=11)
        rec = run_trial(cfg, 0)
        assert rec.error is None
        assert rec.ratio_thm <= 1.0 + 1e-8
        assert rec.fd_residual <= 1e-6
        assert rec.stm_ok

    def test_reproducible_minus_elapsed(self):
        cfg = ExperimentConfig(dim=3, n_states=2, seed=12)
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        assert a == b

    def test_binary_ratio_uses_binary_rate(self):
        cfg = ExperimentConfig(dim=2, n_states=2, seed=13)
        rec = run_trial(cfg, 1)
        assert rec.binary_max_rate is not None
        assert rec.ratio_conj == pytest.approx(rec.binary_max_rate / rec.shannon)

    def test_trial_ensemble_matches(self):
        cfg = ExperimentConfig(dim=3, n_states=2, seed=14)
        rec = run_trial(cfg, 5)
        E = hz.trial_ensemble(cfg, 5)
        assert tuple(float(p) for p in E.probabilities) == rec.probabilities


class TestRunTrials:
    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chunk_matches_single_trials(self, dim, n):
        cfg = ExperimentConfig(dim=dim, n_states=n, seed=15)
        ids = [3, 4, 5, 6, 7]
        for got, want in zip(run_trials(cfg, ids), [run_trial(cfg, i) for i in ids]):
            assert got.error is None
            assert_records_match(got, want)

    def test_trial_ensemble_is_what_the_chunk_evaluated(self, monkeypatch):
        cfg = ExperimentConfig(dim=4, n_states=3, seed=16)
        scan_cfg = ExperimentConfig(dim=4, n_states=2, n_trials=2, seed=16, mode="scan")
        seen = []
        evaluate = hz.evaluate_batch

        def spy(b, *args, **kwargs):
            seen.extend(b.one(k) for k in range(len(b.p)))
            return evaluate(b, *args, **kwargs)

        monkeypatch.setattr(hz, "evaluate_batch", spy)
        run_trials(cfg, [0, 1, 2, 3])
        grid = [0.25, 0.5]
        scan_binary(grid, scan_cfg)
        rebuilt = [hz.trial_ensemble(cfg, i) for i in range(4)]
        rebuilt += [hz.trial_ensemble(scan_cfg, i, grid[i // 2]) for i in range(4)]
        assert len(seen) == len(rebuilt) == 8
        for b, F in zip(seen, rebuilt):
            for got, want in zip(b, _stack([F])):
                assert np.array_equal(got, want)

    def test_error_stays_on_its_record(self):
        # Two pure states at d = 4 give a rank-2 expected state, which the FD
        # rank probe refuses; the chunk is retried one ensemble at a time.
        cfg = ExperimentConfig(dim=4, n_states=2, seed=17)
        good = [hz.trial_ensemble(cfg, i) for i in (0, 2)]
        g = RNGSpec(17, 99).generator()
        pure = []
        for _ in range(2):
            v = g.standard_normal(4) + 1j * g.standard_normal(4)
            v /= np.linalg.norm(v)
            pure.append(DensityMatrix(np.outer(v, v.conj())))
        bad = Ensemble([0.4, 0.6], pure)
        records = evaluate_batch(_stack([good[0], bad, good[1]]), cfg, [0, 1, 2])
        assert [r.trial_id for r in records] == [0, 1, 2]
        assert records[1].error.startswith("RankDeficient:")
        assert records[1].error == evaluate_batch(_stack([bad]), cfg, [1])[0].error
        for rec, E, i in ((records[0], good[0], 0), (records[2], good[1], 2)):
            assert rec.error is None
            assert_records_match(rec, evaluate_batch(_stack([E]), cfg, [i])[0])


class TestScanBinary:
    def test_records_bounds_and_ratios(self):
        cfg = ExperimentConfig(dim=2, n_states=2, n_trials=3, seed=21, mode="scan")
        records = scan_binary([0.25, 0.5], cfg)
        assert len(records) == 6
        half = records[3:]
        for r in half:
            assert r.bound_thm == pytest.approx(2.0)
            assert r.probabilities[0] == pytest.approx(0.5)
            assert r.ratio_thm is not None and r.ratio_thm <= 1.0
            assert r.ratio_conj == pytest.approx(r.binary_max_rate / math.log(2))

    def test_small_p_rates_shrink(self):
        cfg = ExperimentConfig(dim=2, n_states=2, n_trials=5, seed=22, mode="scan")
        records = scan_binary([1e-3], cfg)
        for r in records:
            assert r.bound_thm == pytest.approx(4 * math.sqrt(1e-3 * (1 - 1e-3)))
            assert r.binary_max_rate <= r.bound_thm + 1e-8

    def test_rejects_endpoint_p(self):
        cfg = ExperimentConfig(dim=2, n_states=2, seed=23, mode="scan")
        with pytest.raises(DomainError):
            scan_binary([0.0, 0.5], cfg)


class TestSearchRatio:
    def test_binary_search_beats_commuting_start(self):
        cfg = ExperimentConfig(
            dim=2,
            n_states=2,
            seed=31,
            mode="search",
            search_max_iters=300,
            binary=True,
        )
        rec = search_ratio(cfg)
        assert rec.iterations == 300
        assert rec.ratio_conj is not None and rec.ratio_conj > 0
        assert rec.ratio_thm <= 1.0 + 1e-8

    def test_general_search_reproducible(self):
        cfg = ExperimentConfig(
            dim=3, n_states=3, seed=32, mode="search", search_max_iters=120
        )
        a = search_ratio(cfg)
        b = search_ratio(cfg)
        assert a == b

    def test_binary_requires_two_states(self):
        with pytest.raises(DomainError):
            search_ratio(
                ExperimentConfig(
                    dim=2, n_states=3, seed=33, mode="search", binary=True
                )
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([2, 3]),
        binary=st.booleans(),
        iters=st.sampled_from([1, 7, 19, 20, 21, 333]),
    )
    def test_blocks_match_the_serial_climb(self, seed, dim, n, binary, iters):
        cfg = ExperimentConfig(
            dim=dim, n_states=n, seed=seed, search_max_iters=iters, binary=binary and n == 2
        )
        got, want = search_ratio(cfg), reference.search_ratio(cfg)
        assert got == want

    @pytest.mark.parametrize(
        "dim,n,seed,binary",
        [(3, 3, 2, False), (3, 3, 3, False), (2, 3, 1, False), (2, 3, 3, False), (4, 2, 4, True)],
    )
    def test_bound_violation_matches_the_serial_climb(self, dim, n, seed, binary, monkeypatch):
        # A quarter of the true bound: some candidate violates it mid-climb.
        true_bound = hz.bound_theorem_general
        monkeypatch.setattr(hz, "bound_theorem_general", lambda p: 0.25 * true_bound(p))
        cfg = ExperimentConfig(
            dim=dim, n_states=n, seed=seed, search_max_iters=300, binary=binary
        )
        got, want = search_ratio(cfg), reference.search_ratio(cfg)
        assert want.error is not None and want.error.startswith("BoundViolation: max rate")
        assert (got.error, got.iterations, got.probabilities) == (
            want.error, want.iterations, want.probabilities
        )
        assert got == want

    def test_failed_blocks_rerun_one_candidate_at_a_time(self, monkeypatch):
        # Every block of more than one candidate meets a zero-norm H, so the
        # climb rewinds and runs each block again at one candidate.
        unit_spectra, blocks = hz._unit_spectra, []

        def zero_norm_in_blocks(G):
            w, V, norms = unit_spectra(G)
            if G.shape[0] > 1:
                blocks.append(G.shape[0])
                norms = np.zeros_like(norms)
            return w, V, norms

        monkeypatch.setattr(hz, "_unit_spectra", zero_norm_in_blocks)
        cfg = ExperimentConfig(dim=3, n_states=2, seed=9, search_max_iters=120, binary=True)
        got, want = search_ratio(cfg), reference.search_ratio(cfg)
        assert blocks and max(blocks) == hz.SEARCH_BLOCK
        assert got == want


class TestNoObjectsOnTheHotPath:
    """Sampled trials and search restarts stay arrays: an Ensemble (whose
    constructor every Ensemble goes through) or a validated DensityMatrix is
    built only where one leaves the program."""

    @staticmethod
    def _count(monkeypatch) -> dict:
        counts = {"Ensemble": 0, "DensityMatrix": 0}
        for cls, meth in ((ens.Ensemble, "__init__"), (ens.DensityMatrix, "__post_init__")):
            original = getattr(cls, meth)

            def counted(self, *args, _f=original, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                return _f(self, *args, **kwargs)

            monkeypatch.setattr(cls, meth, counted)
        return counts

    def test_verify(self, tmp_path, monkeypatch):
        counts = self._count(monkeypatch)
        argv = ["verify", "--dim", "4", "--states", "3", "--trials", "32", "--seed", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "v.csv")]) == cli.EXIT_OK
        assert counts == {"Ensemble": 0, "DensityMatrix": 0}

    def test_search(self, tmp_path, monkeypatch):
        counts = self._count(monkeypatch)
        argv = ["search", "--dim", "4", "--states", "2", "--binary", "--iters", "400"]
        assert cli.main(argv + ["--seed", "1", "--out", str(tmp_path / "s.json")]) == cli.EXIT_OK
        assert counts["Ensemble"] <= 1 and counts["DensityMatrix"] == 0


class TestReports:
    def test_empty_records_header_only(self):
        assert records_to_csv([]) == hz.CSV_HEADER + "\n"

    def test_header_names_the_leading_fields(self):
        # records_to_csv writes a record's leading fields by position.
        names = [f.name for f in dataclasses.fields(TrialRecord)]
        header = hz.CSV_HEADER.split(",")
        assert header == ["probs" if k == "probabilities" else k for k in names[: len(header)]]

    def test_single_record_round_trip(self):
        cfg = ExperimentConfig(dim=2, n_states=2, seed=41)
        rec = run_trial(cfg, 0)
        lines = records_to_csv([rec]).splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        header = hz.CSV_HEADER.split(",")
        assert len(cells) == len(header)
        assert int(cells[0]) == rec.trial_id
        assert float(cells[header.index("max_rate")]) == rec.max_rate
        probs = [float(v) for v in cells[header.index("probs")].split(";")]
        assert probs == pytest.approx(list(rec.probabilities))
        assert cells[header.index("stm_ok")] == "true"

    def test_json_round_trip(self):
        cfg = ExperimentConfig(dim=2, n_states=3, seed=42)
        records = [run_trial(cfg, i) for i in range(3)]
        loaded = json.loads(records_to_json(records))
        assert len(loaded) == 3
        for obj, rec in zip(loaded, records):
            assert obj["trial_id"] == rec.trial_id
            assert obj["max_rate"] == rec.max_rate
            assert obj["probabilities"] == pytest.approx(list(rec.probabilities))

    def test_csv_determinism(self):
        cfg = ExperimentConfig(dim=2, n_states=2, seed=43)
        a = [run_trial(cfg, i) for i in range(4)]
        b = [run_trial(cfg, i) for i in range(4)]
        assert records_to_csv(a) == records_to_csv(b)
