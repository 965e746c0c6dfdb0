import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrate import cli
from mixrate import ensembles as ens
from mixrate import harness as hz
from mixrate import hermitian as hm
from mixrate import sampling
from mixrate.errors import Fault, InputError
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
from conftest import batch, rank_two_ensemble
import reference
from reference import run_trial, sample_density

# The golden corpus tolerances: rates, bounds, ratios and entropies relative,
# residuals absolute, everything else exact.
REL_TOL = 1e-12
RESIDUAL_TOL = 1e-9


def assert_records_match(got, want):
    a, b = got._asdict(), want._asdict()
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
        w = np.linalg.eigvalsh(rho)
        assert w[0] >= -1e-12
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_density_dim_one(self):
        rho = sample_density(1, RNGSpec(1, 0))
        assert np.allclose(rho, [[1.0]])

    def test_density_mean_is_maximally_mixed(self):
        # Monte-Carlo oracle: unitary invariance of the measure forces I/2.
        g = RNGSpec(2, 0).generator()
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            acc += sample_density(2, g)
        assert np.abs(acc / n - np.eye(2) / 2).max() <= 0.02

    @staticmethod
    def _window(k, block, n, dim, g):
        """The blocks of a window of k candidates, concatenated."""
        blocks = list(sampling._climb_window(k, block, n, dim, g))
        return [np.concatenate(a) for a in zip(*blocks)]

    def test_hamiltonian_norm_exactly_one(self):
        for stream in range(5):
            w, V, _ = self._window(1, 1, 2, 5, RNGSpec(3, stream).generator())
            for H in hm.hermitian_part(hm.reconstruct(w, V))[0]:
                norm = np.max(np.abs(np.linalg.eigvalsh(H)))
                assert norm == pytest.approx(1.0, abs=1e-12)
                assert np.abs(H - H.conj().T).max() <= 1e-15

    def test_hamiltonian_set_is_one_stacked_draw(self, monkeypatch):
        # Reference: per candidate, each member drawn in order (real part,
        # then imaginary part) and diagonalized on its own, then the
        # candidate's probability noises. A window of 5 candidates in blocks
        # of 2 is one draw and one eigh, made before any block is read.
        serial = RNGSpec(3, 9).generator()
        want, noises = [], []
        for _ in range(5):
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
        window = sampling._climb_window(5, 2, 3, 4, g)
        assert calls[0] == 1
        # The flat call leaves the generator where the serial draws leave it.
        assert g.bit_generator.state == serial.bit_generator.state
        blocks = list(window)
        assert [len(noise) for _, _, noise in blocks] == [2, 2, 1] and calls[0] == 1
        w, V, noise = (np.concatenate(a) for a in zip(*blocks))
        got = hm.reconstruct(w, V).reshape(15, 4, 4)
        for M, H in zip(got, want):
            assert np.allclose(M, H, atol=1e-15, rtol=0)
        assert np.array_equal(noise, noises)
        # Each block holds the bits a draw of it alone gives, from where it starts.
        g = RNGSpec(3, 9).generator()
        for bw, bV, bnoise in blocks:
            alone = reference.climb_draws(len(bnoise), 3, 4, g)
            assert all(np.array_equal(a, b) for a, b in zip(alone, (bw, bV, bnoise)))

    def test_zero_norm_draw_raises_at_every_block_size(self, monkeypatch):
        # Candidate 4 of a window of 6 has a zero-norm H: the window is drawn,
        # the blocks before candidate 4's are read, and its block raises.
        unit_spectra = sampling._unit_spectra

        def zero_norm(G):
            w, V, norms = unit_spectra(G)
            norms[4, 1] = 0.0
            return w, V, norms

        monkeypatch.setattr(sampling, "_unit_spectra", zero_norm)
        for block in (1, 3, 6):
            window = sampling._climb_window(6, block, 2, 3, RNGSpec(3, 9).generator())
            for _ in range(4 // block):
                next(window)
            with pytest.raises(Fault, match="zero-norm"):
                next(window)

    def test_hamiltonian_dim_one(self):
        w, V, _ = self._window(1, 1, 1, 1, RNGSpec(3, 7).generator())
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
        with pytest.raises(InputError):
            ExperimentConfig(dim=1)
        with pytest.raises(InputError):
            ExperimentConfig(dim=65)
        with pytest.raises(InputError):
            ExperimentConfig(mode="explode")

    def test_an_unpickled_config_is_checked_again(self):
        # _replace skips the checks of __new__; unpickling, as a pool worker
        # receives its config, makes them again.
        cfg = ExperimentConfig(dim=3, seed=7)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        with pytest.raises(InputError, match=r"^dim 1 outside supported range \[2, 64\]$"):
            pickle.loads(pickle.dumps(cfg._replace(dim=1)))

    def test_states_limit(self):
        # Above hz.MAX_STATES the floor-clearing redraw of the probabilities
        # would run for ever; the limit itself is accepted.
        ExperimentConfig(n_states=hz.MAX_STATES)
        with pytest.raises(InputError, match="n_states"):
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

    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("n, p", [(2, None), (3, None), (2, 0.3)])  # p: a scan's
    def test_records_do_not_depend_on_chunk_boundaries(self, dim, n, p):
        # Bit for bit: where the chunks are cut never shows in the output.
        cfg = ExperimentConfig(dim=dim, n_states=n, seed=18, binary=p is not None)
        ids = list(range(20))
        ps = None if p is None else [p] * len(ids)

        def cut(size):
            chunks = [slice(k, k + size) for k in range(0, len(ids), size)]
            return [r for c in chunks for r in run_trials(cfg, ids[c], ps and ps[c])]

        whole = run_trials(cfg, ids, ps)
        assert all(r.error is None for r in whole)
        assert cut(1) == whole
        assert cut(7) == whole

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
            for got, want in zip(b, batch(F)):
                assert np.array_equal(got, want)

    def test_error_stays_on_its_record(self):
        # Two pure states at d = 4 give a rank-2 expected state, which the FD
        # rank probe refuses; the chunk is retried one ensemble at a time.
        cfg = ExperimentConfig(dim=4, n_states=2, seed=17)
        good = [hz.trial_ensemble(cfg, i) for i in (0, 2)]
        bad = rank_two_ensemble()
        records = evaluate_batch(batch(good[0], bad, good[1]), cfg, [0, 1, 2])
        assert [r.trial_id for r in records] == [0, 1, 2]
        assert records[1].error == (
            "Fault: expected state eigenvalue 0.000e+00 too small for finite differences"
        )
        assert records[1].error == evaluate_batch(batch(bad), cfg, [1])[0].error
        for rec, E, i in ((records[0], good[0], 0), (records[2], good[1], 2)):
            assert rec.error is None
            assert_records_match(rec, evaluate_batch(batch(E), cfg, [i])[0])


class TestChunkSeeding:
    """Every chunk, of one trial too, seeds its trials' streams in one pass;
    each stream and every draw from it stays default_rng's."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, np.int64(7)]
    # Chunk sizes the program makes, named by a dimension that makes them:
    # 1 trial (every d >= 33), 7 (d = 17), 8 (d = 16) and 128 (d = 4).
    CHUNKS = [pytest.param(hz.chunk_size(d), id=f"d{d}") for d in (64, 17, 16, 4)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_default_rng(self, seed):
        ids = [0, 127, 128, 999_999]
        want = [np.random.default_rng((seed, i)).bit_generator.state for i in ids]
        got = sampling.pcg64_states(seed, ids)
        assert got == [(s["state"]["state"], s["state"]["inc"]) for s in want]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", CHUNKS)
    def test_streams_of_every_chunk_size(self, seed, size):
        ids = range(999_999 - size + 1, 1_000_000)
        got = [g.bit_generator.state for g in sampling.streams(seed, ids)]
        assert got == [np.random.default_rng((seed, i)).bit_generator.state for i in ids]

    @pytest.mark.parametrize("ids", [[], np.array([], np.int64)], ids=["list", "int64"])
    def test_no_ids_give_no_streams(self, ids):
        assert sampling.pcg64_states(2**96 + 5, ids) == []
        assert list(sampling.streams(2**96 + 5, ids)) == []

    @pytest.mark.parametrize("size", CHUNKS[:3])
    @pytest.mark.parametrize("p", [None, 0.3])  # p: a scan's
    def test_chunk_draws_what_each_trial_draws_alone(self, size, p):
        cfg = ExperimentConfig(dim=3, n_states=3, seed=2**64 + 3)
        ids = list(range(120, 120 + size))
        ps = None if p is None else [p] * size
        want = hz._batch([hz._trial_draw(cfg, RNGSpec(cfg.seed, i).generator(), p) for i in ids])
        for got, w in zip(hz._chunk_states(cfg, ids, ps), want):
            assert np.array_equal(got, w)

    @pytest.mark.parametrize("ids", [[2**32], [0, 2**40], [-1, 3], np.array([2**32, 5])])
    def test_ids_beyond_one_word_are_refused(self, ids):
        with pytest.raises(InputError, match="outside 0..4294967295"):
            sampling.pcg64_states(7, ids)
        # The largest id of one word is seeded as default_rng seeds it.
        want = np.random.default_rng((7, 2**32 - 1)).bit_generator.state["state"]
        assert sampling.pcg64_states(7, [2**32 - 1]) == [(want["state"], want["inc"])]

    def test_floor_redraws(self, monkeypatch):
        # At n = 1000 a flat Dirichlet draw often falls below PROB_FLOOR: 22
        # of these 40 trials redraw their probabilities.
        cfg = ExperimentConfig(dim=2, n_states=1000, seed=5)
        ids = list(range(40))
        redraws = []
        trial_draw = hz._trial_draw

        def spy(*args):
            redraws.append(args)
            return trial_draw(*args)

        monkeypatch.setattr(hz, "_trial_draw", spy)
        records = run_trials(cfg, ids)
        assert len(redraws) == 22
        monkeypatch.undo()
        for got, want in zip(records, [run_trial(cfg, i) for i in ids]):
            assert got.error is None
            assert_records_match(got, want)


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
        with pytest.raises(InputError):
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
        with pytest.raises(InputError):
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
        iters=st.sampled_from([1, 7, 8, 9, 333]),
    )
    def test_the_climb_counts_keeps_and_repeats(self, seed, dim, n, binary, iters):
        # Iterations 1, 7, 8 and 9 end inside, at and just past the first
        # block. The climb only moves up, so its record is at least as high as
        # the seeded start: trial 0 of the seed, the climb's first draw.
        cfg = ExperimentConfig(
            dim=dim, n_states=n, seed=seed, search_max_iters=iters, binary=binary and n == 2
        )
        rec = search_ratio(cfg)
        assert rec.error is None and rec.iterations == iters
        assert rec.ratio_conj >= run_trial(cfg, 0).ratio_conj
        assert rec.ratio_thm <= 1.0 + 1e-8
        assert search_ratio(cfg) == rec

    @pytest.mark.parametrize(
        "dim,n,seed,binary",
        [(3, 3, 2, False), (3, 3, 3, False), (2, 3, 1, False), (2, 3, 3, False), (4, 2, 4, True)],
    )
    def test_a_planted_violation_ends_the_search(self, dim, n, seed, binary, monkeypatch):
        # A quarter of the true bound: some candidate violates it mid-climb,
        # and the record is that candidate's, evaluated against the true bound.
        true_bound = hz._general_bound
        monkeypatch.setattr(hz, "_general_bound", lambda p: 0.25 * true_bound(p))
        cfg = ExperimentConfig(
            dim=dim, n_states=n, seed=seed, search_max_iters=300, binary=binary
        )
        rec = search_ratio(cfg)
        assert rec.iterations < 300
        pattern = r"BoundViolation: max rate (\S+) exceeds the general bound (\S+)"
        mx, bound = map(float, re.fullmatch(pattern, rec.error).groups())
        assert mx == pytest.approx(rec.max_rate, rel=1e-12)
        assert bound == pytest.approx(0.25 * true_bound(np.array(rec.probabilities)), rel=1e-12)
        assert mx > bound + hz.THEOREM_SLACK
        assert search_ratio(cfg) == rec

    @pytest.mark.parametrize("dim,n,binary", [(3, 3, False), (4, 2, True)])
    def test_a_violation_by_the_last_candidate_of_a_block(self, dim, n, binary, monkeypatch):
        # Only the last candidate of each block breaks the planted bound, so
        # the first block ends the search with its last candidate's record.
        cfg = ExperimentConfig(dim=dim, n_states=n, seed=6, search_max_iters=300, binary=binary)
        g = RNGSpec(cfg.seed, 0).generator()
        cur = hz._batch([hz._trial_draw(cfg, g)])
        V = hm._eigh(cur.rhos[0]).eigenvectors
        draws = next(sampling._climb_window(hz.SEARCH_BLOCK, hz.SEARCH_BLOCK, n, dim, g))
        cand = hz._climb_block(cur, np.log(cur.p[0]), V, hz.SEARCH_STEP, draws)[0]
        true_bound = hz._general_bound

        def last_broken(p):
            bound = true_bound(p)
            bound[-1] = 0.0
            return bound

        monkeypatch.setattr(hz, "_general_bound", last_broken)
        rec, best = hz._search(cfg)
        (want,) = evaluate_batch(cand.one(hz.SEARCH_BLOCK - 1), cfg, [0])
        assert rec.error.startswith("BoundViolation: max rate") and rec.error.endswith(" 0.0")
        assert rec.iterations == hz.SEARCH_BLOCK
        assert rec._replace(error=None, iterations=None) == want
        assert np.array_equal(best.rhos, cand.one(hz.SEARCH_BLOCK - 1).rhos)

    def test_a_fault_in_a_block_ends_the_search(self, monkeypatch):
        # Every block meets a zero-norm H; the Fault leaves the search (exit 2).
        unit_spectra = sampling._unit_spectra

        def zero_norms(G):
            w, V, norms = unit_spectra(G)
            return w, V, np.zeros_like(norms)

        monkeypatch.setattr(sampling, "_unit_spectra", zero_norms)
        cfg = ExperimentConfig(dim=3, n_states=2, seed=9, search_max_iters=120, binary=True)
        with pytest.raises(Fault, match="zero-norm Hamiltonian in a block"):
            search_ratio(cfg)


def assert_same_search(cfg):
    """harness._search and the block-at-a-time oracle give equal records and
    reported batches of equal bytes."""
    rec, best = hz._search(cfg)
    want, want_best = reference.search(cfg)
    assert rec == want
    assert all(a.tobytes() == b.tobytes() for a, b in zip(best, want_best, strict=True))


class TestSearchWindows:
    """The search draws each window of blocks in one pass, and gives what
    drawing each block as it runs gives (`reference.search`, which climbs
    the binary objective in binary mode: the one objective max_rate / S(p)
    takes its decisions)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([2, 3]),
        binary=st.booleans(),
        iters=st.sampled_from([1, 7, 8, 9, 65, 333]),
    )
    def test_windows_draw_what_blocks_draw(self, seed, dim, n, binary, iters):
        cfg = ExperimentConfig(
            dim=dim, n_states=n, seed=seed, search_max_iters=iters, binary=binary and n == 2
        )
        assert_same_search(cfg)

    @pytest.mark.parametrize("seed, iters", [(1, 4000), (2, 4000), (6, 5000)])
    def test_windows_span_restarts(self, seed, iters):
        # 6 or 7 climbs at d = 2: a window's blocks left when a climb ends
        # carry into the next climb, as the oracle's next blocks would draw.
        assert_same_search(
            ExperimentConfig(dim=2, n_states=2, seed=seed, search_max_iters=iters, binary=True)
        )

    @pytest.mark.parametrize("seed, iters", [(1, 4000), (2, 4000), (6, 5000)])
    def test_restart_k_starts_from_trial_k(self, seed, iters, monkeypatch):
        # Every restart's start ensemble (a _batch in _search) is trial k's,
        # bit for bit: restart 0 reads the fresh stream 0 that the climb then
        # reads on, and restart k >= 1 a fresh stream k.
        cfg = ExperimentConfig(dim=2, n_states=2, seed=seed, search_max_iters=iters, binary=True)
        starts, batch = [], hz._batch

        def recorded(draws):
            starts.append(batch(draws))
            return starts[-1]

        monkeypatch.setattr(hz, "_batch", recorded)
        hz._search(cfg)
        monkeypatch.undo()
        assert len(starts) >= 6
        for k, b in enumerate(starts):
            E = hz.trial_ensemble(cfg, k)
            want = (
                E.probabilities,
                np.stack([s.matrix for s in E.states]),
                np.stack([s.eigenvalues for s in E.states]),
            )
            assert [a[0].tobytes() for a in b] == [a.tobytes() for a in want], k

    def test_a_violation_comes_before_a_later_blocks_fault(self, monkeypatch):
        # Block 2 of the first window breaks the planted bound, and block 3
        # holds a zero-norm H: the search ends with the violation, at
        # iteration 9, and block 3's fault is never raised.
        unit_spectra, true_bound = sampling._unit_spectra, hz._general_bound
        drawn, bounds = [0], [0]

        def zero_in_block_3(G):
            w, V, norms = unit_spectra(G)
            ids = drawn[0] + np.arange(len(G))
            norms[(16 <= ids) & (ids < 24), 0] = 0.0
            drawn[0] += len(G)
            return w, V, norms

        def block_2_broken(p):
            bounds[0] += 1
            return true_bound(p) * (bounds[0] != 2)

        monkeypatch.setattr(sampling, "_unit_spectra", zero_in_block_3)
        monkeypatch.setattr(hz, "_general_bound", block_2_broken)
        cfg = ExperimentConfig(dim=2, n_states=2, seed=3, search_max_iters=300, binary=True)
        rec, best = hz._search(cfg)
        assert drawn[0] >= 24  # one window held blocks 1 to 3
        assert rec.error.startswith("BoundViolation: ") and rec.iterations == 9
        drawn[0] = bounds[0] = 0
        want, want_best = reference.search(cfg)
        assert rec == want
        assert all(a.tobytes() == b.tobytes() for a, b in zip(best, want_best, strict=True))


class TestNoObjectsOnTheHotPath:
    """Sampled trials and search restarts stay arrays: an Ensemble or a
    DensityMatrix record is built only where one leaves the program. The
    records are tuples, built by __new__ alone (they define no __init__)."""

    @staticmethod
    def _count(monkeypatch) -> dict:
        counts = {"Ensemble": 0, "DensityMatrix": 0}
        for cls in (ens.Ensemble, ens.DensityMatrix):

            def counted(cls_, *args, _f=cls.__new__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                return _f(cls_, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", counted)
        return counts

    def test_the_count_sees_a_planted_construction(self, monkeypatch):
        b = batch(rank_two_ensemble())
        counts = self._count(monkeypatch)
        E = ens._ensemble(b, 0)
        assert counts == {"Ensemble": 1, "DensityMatrix": len(E)} and len(E) == 2

    def test_verify(self, tmp_path, monkeypatch):
        counts = self._count(monkeypatch)
        argv = ["verify", "--dim", "4", "--states", "3", "--trials", "32", "--seed", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "v.csv")]) == cli.EXIT_OK
        assert counts == {"Ensemble": 0, "DensityMatrix": 0}

    def test_search(self, tmp_path, monkeypatch):
        counts = self._count(monkeypatch)
        argv = ["search", "--dim", "4", "--states", "2", "--binary", "--iters", "400"]
        assert cli.main(argv + ["--seed", "1", "--out", str(tmp_path / "s.json")]) == cli.EXIT_OK
        # At most the offender's two members, if the climb exits 3.
        assert counts["Ensemble"] <= 1 and counts["DensityMatrix"] == 2 * counts["Ensemble"]


class TestReports:
    def test_empty_records_header_only(self):
        assert records_to_csv([]) == hz.CSV_HEADER + "\n"

    def test_each_cell_holds_the_field_its_column_names(self):
        # An n = 3 row, whose binary cell is empty, and an error row, which
        # keeps the record's defaults. probs is the probabilities field.
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return ";".join(map(str, v)) if isinstance(v, tuple) else str(v)

        records = [
            run_trial(ExperimentConfig(dim=3, n_states=3, seed=44), 0),
            TrialRecord(5, 44, 3, 3, (0.5, 0.25, 0.25), error="Fault: x"),
        ]
        header = hz.CSV_HEADER.split(",")
        rows = [line.split(",") for line in records_to_csv(records, header=False).splitlines()]
        for rec, row in zip(records, rows, strict=True):
            cells = dict(zip(header, row, strict=True))
            for name, text in cells.items():
                assert text == cell(getattr(rec, "probabilities" if name == "probs" else name))
            assert cells["binary_max_rate"] == ""
        assert rows[1][header.index("max_rate")] == "0.0" and rows[1][-1] == "true"

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
