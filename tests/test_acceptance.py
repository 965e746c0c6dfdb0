"""End-to-end acceptance checks.

Each test prints a single machine-greppable PASS/FAIL line (written past
pytest's capture so the lines always appear in the run log) and then asserts
the same condition, so the printed verdict and the pytest verdict agree.
"""

import math
import time

import numpy as np
import pytest

from mixrate import cli
from mixrate import hermitian as hm
from mixrate.cli import EXIT_CONJECTURE, guard_status, main
from mixrate.ensembles import Ensemble, binary_entropy, parse_ensemble, shannon_entropy
from mixrate.entangling import (
    BipartiteOperator,
    PureState,
    bravyi_mu,
    entangling_rate,
    sie_to_sim,
    ste_check,
)
from mixrate.harness import (
    CONJECTURE_SLACK,
    ExperimentConfig,
    RNGSpec,
    TrialRecord,
    _batch,
    scan_binary,
    search_ratio,
)
from mixrate.rates import (
    _Spectra,
    binary_max_rate,
    bound_theorem_binary,
    bound_theorem_general,
    max_mixing_rate,
    mixing_rate,
    optimal_hamiltonians,
)
from reference import (
    ak_gap,
    expected_state,
    fd_mixing_rate,
    log_integral_check,
    sample_density,
    stm_check,
)

from conftest import unit_hamiltonians

SEED = 20260823
N_TRIALS = 1000

_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_stream(capfd):
    """Let _verdict print past pytest's capture so every criterion leaves
    one PASS/FAIL line in the run log."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}"
    if detail:
        line += f" ({detail})"
    with _CAPTURE.disabled():
        print(line, flush=True)
    assert ok, line


def _sample_trial(trial_id: int):
    g = RNGSpec(SEED, trial_id).generator()
    dim = int(g.integers(2, 9))
    n = int(g.integers(2, 6))
    while True:
        e = g.exponential(size=n)
        p = e / np.sum(e)
        if np.all(p > 1e-6):
            break
    states = [sample_density(dim, g) for _ in range(n)]
    return Ensemble(p, states)


@pytest.fixture(scope="module")
def trials():
    """1000 seeded ensembles (dims 2-8, 2-5 members) with their optimizers."""
    out = []
    for i in range(N_TRIALS):
        E = _sample_trial(i)
        H = optimal_hamiltonians(E)
        out.append(
            {
                "E": E,
                "H": H,
                "max_rate": max_mixing_rate(E),
                "rate_at_opt": mixing_rate(E, H),
                "ln_rho": hm.support_log(expected_state(E)),
            }
        )
    return out


@pytest.fixture(scope="module")
def sie_samples():
    """100 seeded (pure state, Hamiltonian) pairs with d_B in {2,3},
    d_A in {d_B..4}, d_a = d_b = 2."""
    samples = []
    for i in range(100):
        g = RNGSpec(SEED + 1, i).generator()
        d_B = int(g.integers(2, 4))
        d_A = int(g.integers(d_B, 5))
        dims = (2, d_A, d_B, 2)
        total = 2 * d_A * d_B * 2
        amp = g.standard_normal(total) + 1j * g.standard_normal(total)
        psi = PureState(amp / np.linalg.norm(amp), dims)
        H = BipartiteOperator(unit_hamiltonians(1, d_A * d_B, g)[0], (d_A, d_B))
        samples.append((psi, H))
    return samples


def test_criterion_01_gradient_agreement(trials):
    t0 = time.perf_counter()
    worst = 0.0
    for t in trials:
        fd = fd_mixing_rate(t["E"], t["H"], h=1e-4)
        worst = max(worst, abs(t["rate_at_opt"] - fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(
        1,
        "analytic rate matches central finite difference",
        ok,
        f"worst residual {worst:.3e} over {N_TRIALS} trials, {elapsed:.1f}s",
    )


def test_criterion_02_maximizer_exactness(trials):
    worst_gap = 0.0
    worst_excess = -math.inf
    worst_imag = 0.0
    for i, t in enumerate(trials):
        worst_gap = max(worst_gap, abs(t["rate_at_opt"] - t["max_rate"]))
        g = RNGSpec(SEED + 2, i).generator()
        E, L = t["E"], t["ln_rho"]
        n, d = len(E), E.dim
        # 100 random unit-norm Hamiltonian sets from one draw.
        H = unit_hamiltonians(100 * n, d, g)
        rhos = np.array([s.matrix for s in E.states])
        C = 1j * (rhos @ L - L @ rhos)
        rates = np.einsum("x,kxij,xji->k", E.probabilities, H.reshape(100, n, d, d), C)
        worst_imag = max(worst_imag, float(np.abs(rates.imag).max()))
        worst_excess = max(worst_excess, float(np.abs(rates.real).max()) - t["max_rate"])
    ok = worst_gap <= 1e-8 and worst_excess <= 1e-8 and worst_imag <= 1e-9
    _verdict(
        2,
        "optimal Hamiltonians attain the closed-form maximum",
        ok,
        f"gap {worst_gap:.3e}, best random excess {worst_excess:.3e}, "
        f"imaginary residue {worst_imag:.1e}",
    )


def test_criterion_03_binary_bound():
    t0 = time.perf_counter()
    p_grid = [round(0.01 * k, 2) for k in range(1, 100)]
    # Each trial draws its dim, then its two states (the normals that
    # sample_density draws); the trials of one dim are validated and
    # evaluated as one batch.
    by_dim = {}
    for pi, p in enumerate(p_grid):
        bound = bound_theorem_binary(p)
        for j in range(100):
            g = RNGSpec(SEED + 3, pi * 100 + j).generator()
            dim = int(g.integers(2, 9))
            draws, bounds = by_dim.setdefault(dim, ([], []))
            draws.append(([p, 1.0 - p], g.standard_normal((2, 2, dim, dim))))
            bounds.append(bound)
    worst = max(
        float(np.max(_Spectra(_batch(draws)).binary_rate - np.array(bounds)))
        for draws, bounds in by_dim.values()
    )
    elapsed = time.perf_counter() - t0
    exact_at_half = bound_theorem_binary(0.5) == 2.0
    ok = worst <= 1e-8 and exact_at_half and elapsed < 300.0
    _verdict(
        3,
        "binary rate bounded by 4*sqrt(p(1-p))",
        ok,
        f"worst margin {worst:.3e} over {len(p_grid) * 100} trials, "
        f"bound(1/2)==2 {exact_at_half}, {elapsed:.1f}s",
    )


def test_criterion_04_general_bound(trials):
    worst = -math.inf
    for t in trials:
        bound = bound_theorem_general(t["E"].probabilities)
        worst = max(worst, t["max_rate"] - bound)
    uniform3_exact = bound_theorem_general([1 / 3, 1 / 3, 1 / 3]) == 16 / 3
    ok = worst <= 1e-8 and uniform3_exact
    _verdict(
        4,
        "max rate bounded by the pairwise square-root sum",
        ok,
        f"worst margin {worst:.3e}, uniform-3 bound == 16/3 {uniform3_exact}",
    )


def test_criterion_05_small_total_mixing(trials):
    bad = 0
    for t in trials:
        if not all(pt.ok for pt in stm_check(t["E"], t["H"], (0.5, 1.0, 2.0))):
            bad += 1
    ok = bad == 0
    _verdict(
        5,
        "entropy stays in [avg, avg + Shannon] at t in {0.5, 1, 2}",
        ok,
        f"{bad} violations over {N_TRIALS} trials",
    )


def test_criterion_06_sie_to_sim_reduction(sie_samples):
    worst = 0.0
    for psi, H in sie_samples:
        bravyi_mu(psi)  # the reduction checks that mu is a state
        residual, _ = sie_to_sim(psi, H)
        worst = max(worst, residual)
    ok = worst <= 1e-8
    _verdict(
        6,
        "mixing rate equals d_B^-2 times the entangling rate",
        ok,
        f"worst residual {worst:.3e} over {len(sie_samples)} samples",
    )


def test_criterion_07_small_total_entangling(sie_samples):
    ts = [0.5 * k for k in range(11)]
    bad = 0
    for psi, H in sie_samples:
        if not all(pt.ok for pt in ste_check(psi, H, ts)):
            bad += 1
    ok = bad == 0
    _verdict(
        7,
        "entanglement gain at most 2*ln min(d_A, d_B) on t in [0, 5]",
        ok,
        f"{bad} violations over {len(sie_samples)} samples",
    )


def test_criterion_08_functional_consistency():
    worst_rate = 0.0
    worst_ent = 0.0
    for i in range(100):
        g = RNGSpec(SEED + 4, i).generator()
        dim = int(g.integers(2, 9))
        p = float(g.uniform(0.05, 0.95))
        rho1, rho2 = sample_density(dim, g), sample_density(dim, g)
        # The functional's two sides from the test-side oracle; the left one
        # is the trace norm of its commutator i[B, ln(A+B)].
        C, rhs = ak_gap(p * rho1.matrix, (1.0 - p) * rho2.matrix)
        lhs = hm.trace_norm(C)
        E = Ensemble([p, 1.0 - p], [rho1, rho2])
        worst_rate = max(worst_rate, abs(lhs - binary_max_rate(E)))
        worst_ent = max(worst_ent, abs(rhs - binary_entropy(p)))
    ok = worst_rate <= 1e-9 and worst_ent <= 1e-9
    _verdict(
        8,
        "commutator functional reproduces (binary rate, binary entropy)",
        ok,
        f"rate residual {worst_rate:.3e}, entropy residual {worst_ent:.3e}",
    )


def test_criterion_09_log_integral():
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 10.0):
        err = abs(log_integral_check(x, 1e6, 20_000) - math.log(x))
        worst = max(worst, err)
    ok = worst <= 1e-4
    _verdict(
        9,
        "integral representation converges to ln x",
        ok,
        f"worst quadrature error {worst:.3e} at cutoff 1e6",
    )


def test_criterion_10_conjecture_monitoring(tmp_path, monkeypatch):
    # Real scan and search runs must record the monitored ratios ...
    cfg = ExperimentConfig(dim=2, n_states=2, n_trials=5, seed=SEED, mode="scan")
    scanned = scan_binary([0.3, 0.5], cfg)
    ratios_recorded = all(r.ratio_conj is not None for r in scanned)
    searched = search_ratio(
        ExperimentConfig(
            dim=2, n_states=2, seed=SEED, mode="search", search_max_iters=100
        )
    )
    ratios_recorded = ratios_recorded and searched.ratio_conj is not None

    # ... and a ratio above 1 + 1e-6 must map to exit code 3 with the
    # offending ensemble serialized (synthesized: no real offender is known).
    monkeypatch.chdir(tmp_path)
    offender = TrialRecord(
        trial_id=0,
        seed=SEED,
        dim=2,
        n_states=2,
        probabilities=(0.5, 0.5),
        max_rate=1.0,
        bound_thm=2.0,
        shannon=math.log(2),
        ratio_thm=0.5,
        ratio_conj=1.0 + 10 * CONJECTURE_SLACK,
        fd_residual=1e-9,
        stm_ok=True,
    )
    exits_three = guard_status([offender]) == EXIT_CONJECTURE

    from mixrate.cli import _flag_conjecture_offenders
    from mixrate.harness import trial_ensemble

    vcfg = ExperimentConfig(dim=2, n_states=2, seed=SEED)
    _flag_conjecture_offenders(
        [offender],
        lambda r: trial_ensemble(vcfg, r.trial_id),
        lambda r: f"conjecture_offender_trial{r.trial_id}.json",
    )
    # The file holds the trial's ensemble, as compute would read it.
    path, want = tmp_path / "conjecture_offender_trial0.json", trial_ensemble(vcfg, 0)
    got = parse_ensemble(path.read_bytes()) if path.exists() else None
    serialized = got is not None and np.array_equal(got.probabilities, want.probabilities)
    serialized = serialized and all(
        np.allclose(a.matrix, b.matrix, rtol=0, atol=1e-12) for a, b in zip(got.states, want.states)
    )

    ok = ratios_recorded and exits_three and serialized
    _verdict(
        10,
        "ratio monitoring reports, exits 3, and serializes offenders",
        ok,
        f"ratios recorded {ratios_recorded}, exit-3 {exits_three}, "
        f"offender file {serialized}",
    )


def test_criterion_11_determinism(tmp_path, monkeypatch):
    args = ["verify", "--dim", "4", "--states", "3", "--trials", "12", "--seed", "42"]
    # 12 trials at d = 4 are one chunk, which runs without a pool whatever
    # --workers says; 4 trials at d = 32 are 2 chunks, which a pool of 2 runs
    # once 2 CPUs are usable (forced here).
    multi = ["verify", "--dim", "32", "--states", "2", "--trials", "4", "--seed", "42"]
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    a, b, ser, par = (tmp_path / n for n in ("a.csv", "b.csv", "ser.csv", "par.csv"))
    codes = [
        main(args + ["--out", str(a)]),
        main(args + ["--out", str(b)]),
        main(multi + ["--out", str(ser)]),
        main(multi + ["--workers", "8", "--out", str(par)]),
    ]
    repeat_identical = a.read_bytes() == b.read_bytes()
    workers_identical = ser.read_bytes() == par.read_bytes()
    ok = codes == [0, 0, 0, 0] and repeat_identical and workers_identical
    _verdict(
        11,
        "seeded verify runs are byte-identical and worker-count invariant",
        ok,
        f"exit codes {codes}, repeat {repeat_identical}, workers {workers_identical}",
    )
