"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ile import chain, fock, inverse, multimode, protocol
from oracles import (
    hand_hessian_three_ions,
    multi_mode_conditional,
    multi_mode_metrics,
    single_mode_conditional,
    two_mode_conditional,
    two_mode_metrics,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def draw_target(rng, n):
    while True:
        c = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
        bad = np.abs(c) > 1
        while np.any(bad):
            c[bad] = rng.uniform(-1, 1, bad.sum()) + 1j * rng.uniform(-1, 1, bad.sum())
            bad = np.abs(c) > 1
        if np.max(np.abs(c)) >= 0.1:
            return c


def test_criterion_1_roundtrip():
    with criterion(1, "inverse->forward roundtrip, 100 targets per n in 1..8, <= 1e-9, < 5 s"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for n in range(1, 9):
            for _ in range(100):
                c = draw_target(rng, n)
                sol = inverse.solve_weights(inverse.TargetCoefficients(c))[0]
                recon = protocol.forward_coeffs(sol.weights)
                scale = np.vdot(recon, c) / np.vdot(recon, recon)
                err = np.linalg.norm(scale * recon - c) / np.linalg.norm(c)
                assert err <= 1e-9, (n, err)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_worked_cat():
    with criterion(2, "target (1,0,1): branch {-i,i}, p_nominal 1/64, forward (2,0,2)"):
        sols = inverse.solve_weights(inverse.TargetCoefficients([1.0, 0.0, 1.0]))
        want = sorted(((0.0, -1.0), (0.0, 1.0)))
        found = [
            s
            for s in sols
            if sorted((round(w.real, 12), round(w.imag, 12)) for w in s.weights) == want
        ]
        assert found, "no branch with the balanced imaginary pair"
        assert found[0].p_nominal == pytest.approx(1 / 64, abs=1e-15)
        recon = protocol.forward_coeffs(np.array([-1j, 1j]))
        assert np.max(np.abs(recon - np.array([2.0, 0.0, 2.0]))) <= 1e-12


def _plan(weights_per_cycle, t=70.0):
    n = len(weights_per_cycle[0])
    params = protocol.PhysicalParams(eta=0.1, omega=0.02, delta=0.99, n_ions=n)
    return protocol.ProtocolPlan(
        params=params,
        alpha=0j,
        cycles=tuple(protocol.Cycle(duration=t, weights=w) for w in weights_per_cycle),
    )


def test_criterion_3_cycle_ion_equivalence():
    with criterion(3, "ions x cycles grouping leaves the coefficients unchanged, <= 1e-12"):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3, 4):
            w = rng.uniform(-1, 1, 2 * m) + 1j * rng.uniform(-1, 1, 2 * m)
            a = protocol.run_ideal(_plan([[x] for x in w])).state.coeffs
            b = protocol.run_ideal(_plan([w[2 * k : 2 * k + 2] for k in range(m)])).state.coeffs
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
        for n in (3, 4):
            w = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            a = protocol.run_ideal(_plan([list(w)])).state.coeffs
            b = protocol.run_ideal(_plan([[x] for x in w])).state.coeffs
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_criterion_4_binomial_row():
    with criterion(4, "zero weights: binomial coefficients <= 1e-12 and survival 4^-n exactly"):
        from math import comb

        for n in range(1, 11):
            c = protocol.forward_coeffs(np.zeros(n))
            expect = np.array([comb(n, k) for k in range(n + 1)], dtype=float)
            assert np.max(np.abs(c - expect)) <= 1e-12
            assert protocol.success_probability_nominal(np.zeros(n)) == 0.25**n


def test_criterion_5_fock_numerics():
    with criterion(5, "displacement unitarity/composition <= 1e-8, overlap oracle <= 1e-10"):
        rng = np.random.default_rng(5)
        betas = [0.5, -1.3 + 0.7j, 2.0j, 1.4 - 1.4j] + [
            complex(*v) for v in rng.uniform(-1.4, 1.4, (4, 2))
        ]
        eye = np.eye(65)
        for b in betas:
            assert abs(b) <= 2.0
            d = fock.displacement_matrix(b, 64).entries
            dm = fock.displacement_matrix(-b, 64).entries
            assert np.max(np.abs((d @ dm - eye)[:, :20])) <= 1e-8
        start = fock.coherent_fock(0.3 - 0.2j, 64)
        for b, g in [(0.6, 0.8j), (-0.5 + 0.5j, 0.9), (0.7j, -0.6 - 0.3j)]:
            two = fock.apply_displacement(fock.apply_displacement(start, g), b)
            one = fock.apply_displacement(start, b + g)
            phase = np.exp(0.5 * (b * np.conj(g) - np.conj(b) * g))
            assert np.max(np.abs(two.amps[:20] - phase * one.amps[:20])) <= 1e-8
        for g1, g2 in [(0.0, 1.0), (1.2, -0.5 + 1.0j), (2.0j, 1.9), (-1.5, -1.5)]:
            analytic = fock.coherent_overlap(g1, g2)
            truncated = fock.inner(fock.coherent_fock(g1, 64), fock.coherent_fock(g2, 64))
            assert abs(analytic - truncated) <= 1e-10


def test_criterion_6_chain_structure():
    with criterion(6, "mode table: mu_1 = 1, mu_2 = sqrt(3), uniform lowest vector, N=3 oracle"):
        for n in range(2, 11):
            table = chain.normal_modes(chain.equilibrium_positions(n))
            assert abs(table.frequencies[0] - 1.0) <= 1e-8
            assert abs(table.frequencies[1] - np.sqrt(3.0)) <= 1e-8
            assert np.max(np.abs(table.vectors[:, 0] - 1.0 / np.sqrt(n))) <= 1e-10
            assert np.max(np.abs(table.vectors.T @ table.vectors - np.eye(n))) <= 1e-10
        table3 = chain.normal_modes(chain.equilibrium_positions(3))
        oracle = np.sqrt(np.linalg.eigvalsh(hand_hessian_three_ions()))
        assert abs(table3.frequencies[2] - oracle[2]) <= 1e-6
        assert abs(table3.frequencies[2] - np.sqrt(29.0 / 5.0)) <= 1e-6


def test_criterion_7_multimode_oracle_equivalence():
    with criterion(7, "two-ion exact state vs number-basis oracle, <= 1e-6, < 10 s"):
        start = time.perf_counter()
        modes = chain.normal_modes(chain.equilibrium_positions(2))
        params = protocol.PhysicalParams(eta=0.1, omega=0.05, delta=0.97, n_ions=2)
        weights = [0.3 + 0.2j, -0.4j]
        plan = protocol.ProtocolPlan(
            params=params,
            alpha=0.3,
            cycles=(protocol.Cycle(duration=80.0, weights=weights),),
        )
        betas = multimode.cycle_displacements(modes, params, 80.0, integrated=False)
        assert 2 * np.max(np.abs(betas)) + 0.3 <= 1.5  # inside the oracle regime
        rep, p = multimode.analyze_plan(plan, modes, False)
        ideal = protocol.run_ideal(plan).state
        psi = two_mode_conditional(np.asarray(weights), betas, 0.3, 24)
        oracle = two_mode_metrics(psi, protocol.to_fock(ideal, 24).amps)
        assert abs(p - oracle["p_exact"]) <= 1e-6
        assert abs(rep.per_mode_mean_phonon[0] - oracle["mean_phonon"][0]) <= 1e-6
        assert abs(rep.per_mode_mean_phonon[1] - oracle["mean_phonon"][1]) <= 1e-6
        assert abs(rep.com_fidelity_vs_ideal - oracle["com_fidelity"]) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_8_isolation_probe():
    with criterion(8, "spectators average out at (1-delta)t = 1 with integrated windows"):
        # measured against the number-basis oracle during development:
        # infidelity 1.72e-13 (two ions) and 1.95e-13 (three ions)
        eps = 1e-12
        for n in (2, 3):
            modes = chain.normal_modes(chain.equilibrium_positions(n))
            params = protocol.PhysicalParams(eta=0.05, omega=0.01, delta=0.999, n_ions=n)
            plan = protocol.ProtocolPlan(
                params=params,
                alpha=0j,
                cycles=(protocol.Cycle(duration=1000.0, weights=[0.0] * n),),
            )
            rep, p = multimode.analyze_plan(plan, modes, integrated=True)
            assert rep.com_fidelity_vs_ideal >= 1 - eps

            # independent number-basis oracle for the same fidelity
            betas = multimode.cycle_displacements(modes, params, 1000.0, integrated=True)
            beta_com = complex(betas[0, 0])
            cutoffs = [fock.recommended_cutoff(n * abs(beta_com))] + [8] * (n - 1)
            ideal = protocol.LineSuperposition(0j, beta_com, protocol.forward_coeffs([0.0] * n))
            psi = multi_mode_conditional(np.zeros(n), betas, 0j, cutoffs)
            oracle = multi_mode_metrics(psi, protocol.to_fock(ideal, cutoffs[0]).amps)
            assert abs(rep.com_fidelity_vs_ideal - oracle["com_fidelity"]) <= 1e-6

            # gap vanishes exactly when the spectator columns are zeroed ...
            with pytest.MonkeyPatch.context() as patch:
                computed = multimode._displacements

                def masked(*args):
                    table = computed(*args)
                    table[:, :, 1:] = 0
                    return table

                patch.setattr(multimode, "_displacements", masked)
                rep0, _ = multimode.analyze_plan(plan, modes, integrated=True)
            assert rep0.factorization_gap <= 1e-12
        # ... and is genuinely nonzero for a strongly driven spectator
        modes2 = chain.normal_modes(chain.equilibrium_positions(2))
        params2 = protocol.PhysicalParams(eta=0.1, omega=0.05, delta=0.97, n_ions=2)
        plan2 = protocol.ProtocolPlan(
            params=params2,
            alpha=0j,
            cycles=(protocol.Cycle(duration=80.0, weights=[0.3 + 0.2j, -0.4j]),),
        )
        rep2, _ = multimode.analyze_plan(plan2, modes2, integrated=False)
        assert rep2.factorization_gap > 1e-6


def test_criterion_9_probability_discrepancy():
    with criterion(9, "single zero weight: exact survival 1/2 + e^{-2|b|^2}/2, nominal stays 1/4"):
        # The closed-form limit follows from the two-component overlap matrix:
        # the spec's own zero-displacement example (survival = 1) pins the
        # constant term at 1/2, twice the nominal product formula's 1/4.
        values = []
        for absb in (0.5, 1.0, 2.0, 3.0):
            t = absb / 0.01
            params = protocol.PhysicalParams(eta=0.1, omega=0.1, delta=1.0, n_ions=1)
            plan = protocol.ProtocolPlan(
                params=params, alpha=0j, cycles=(protocol.Cycle(duration=t, weights=[0.0]),)
            )
            p_exact, _ = protocol.success_probability_exact(plan)
            analytic = 0.5 * (1.0 + np.exp(-2.0 * absb**2))
            assert abs(p_exact - analytic) <= 1e-12
            assert protocol.success_probability_nominal([0.0]) == 0.25
            beta = protocol.beta_of(params, t)
            cutoff = fock.recommended_cutoff(abs(beta))
            psi = single_mode_conditional([0.0], beta, 0j, cutoff)
            assert abs(p_exact - np.real(np.vdot(psi, psi))) <= 1e-8
            values.append(p_exact)
        diffs = np.diff(values)
        assert np.all(diffs < 0), "must approach the separated-component limit monotonically"
        # at |b| = 3 the whole remaining deviation is the cross term e^{-18}/2
        assert abs(values[-1] - 0.5) <= 0.5 * np.exp(-18.0) + 1e-12


def test_criterion_10_trotter_self_convergence():
    with criterion(10, "midpoint rule shows order 2 and ranks the window forms correctly"):
        modes = chain.normal_modes(chain.equilibrium_positions(1))
        cfg = multimode.TrotterConfig(cutoff=16, steps=20)
        for delta in (0.99, 0.98):  # (1 - delta) t = 1 and 2
            params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=delta, n_ions=1)
            rep = multimode.trotter_validate(params, modes, 100.0, cfg, weights=[1.0])
            assert 3.5 <= rep.step_halving_ratio <= 4.5
            assert rep.fidelity_integrated >= rep.fidelity_endpoint
