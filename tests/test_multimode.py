import tracemalloc

import numpy as np
import pytest

from ile import chain, fock, multimode, protocol
from ile.errors import SolverError
from oracles import (
    exact_terms,
    factor_terms,
    gram_gap,
    gram_leakage_report,
    moment_tables,
    per_mode_walk,
    tensor_product_gap,
    two_mode_conditional,
    two_mode_metrics,
)


def params_for(n, eta=0.1, omega=0.05, delta=0.97):
    return protocol.PhysicalParams(eta=eta, omega=omega, delta=delta, n_ions=n)


def one_cycle_plan(weights, t=80.0, alpha=0j, **kw):
    params = params_for(len(weights), **kw)
    return protocol.ProtocolPlan(
        params=params, alpha=alpha, cycles=(protocol.Cycle(duration=t, weights=weights),)
    )


def use_tables(monkeypatch, edit):
    """Every displacement table ``multimode`` computes, passed through
    ``edit`` (points x ions x modes in, the same out)."""
    computed = multimode._displacements
    monkeypatch.setattr(multimode, "_displacements", lambda *args: edit(computed(*args)))


def spectators_off(betas):
    betas[:, :, 1:] = 0
    return betas


class TestCycleDisplacements:
    def test_com_column_equals_single_mode_formula(self, mode_tables):
        # one formula and an in-phase coupling of exactly eta: the endpoint
        # table's COM column is beta_of's value, bit for bit
        for n in (1, 2, 3):
            params = params_for(n)
            betas = multimode.cycle_displacements(mode_tables[n], params, 100.0, integrated=False)
            assert np.all(betas[:, 0] == protocol.beta_of(params, 100.0))
        modes = {n: chain.normal_modes(chain.equilibrium_positions(n)) for n in range(1, 9)}
        rng = np.random.default_rng(35)
        for _ in range(250):
            n, delta = int(rng.integers(1, 9)), rng.uniform(0.5, 1.5)
            params = params_for(n, eta=rng.uniform(1e-3, 0.1), omega=rng.uniform(1e-3, 0.1) * delta,
                                delta=delta)
            t = rng.uniform(0.0, 1000.0)
            betas = multimode.cycle_displacements(modes[n], params, t, integrated=False)
            assert np.all(betas[:, 0] == protocol.beta_of(params, t))

    def test_two_ion_stretch_magnitude(self, mode_tables):
        params = params_for(2, eta=0.1, omega=0.02, delta=0.99)
        betas = multimode.cycle_displacements(mode_tables[2], params, 100.0, integrated=False)
        expect = 0.2 * np.sqrt(2.0 / np.sqrt(3.0)) * (1.0 / np.sqrt(2.0))
        assert np.allclose(np.abs(betas[:, 1]), expect, atol=1e-12)

    def test_integrated_suppression_factor(self, mode_tables):
        params = params_for(2, eta=0.1, omega=0.02, delta=0.99)
        end = multimode.cycle_displacements(mode_tables[2], params, 100.0, integrated=False)
        mid = multimode.cycle_displacements(mode_tables[2], params, 100.0, integrated=True)
        detune = np.sqrt(3.0) - 0.99
        expect = abs(np.exp(1j * detune * 100.0) - 1.0) / (detune * 100.0)
        ratio = abs(mid[0, 1]) / abs(end[0, 1])
        assert ratio == pytest.approx(expect, abs=1e-12)
        assert ratio < 0.03  # far-detuned spectator drive averages out

    def test_variants_agree_at_zero_detuning(self, mode_tables):
        params = params_for(1, delta=1.0)
        end = multimode.cycle_displacements(mode_tables[1], params, 0.5, integrated=False)
        mid = multimode.cycle_displacements(mode_tables[1], params, 0.5, integrated=True)
        # COM detuning vanishes at delta = 1, windows coincide there
        assert abs(end[0, 0] - mid[0, 0]) <= 1e-12 * abs(end[0, 0])


class TestConditionalExact:
    def test_zero_displacement_is_pure_internal_projection(self, mode_tables, monkeypatch):
        plan = one_cycle_plan([0.4j, -0.3])
        use_tables(monkeypatch, np.zeros_like)
        rep, p = multimode.analyze_plan(plan, mode_tables[2], False)
        assert np.all(rep.per_mode_mean_phonon == 0)  # every term sits at the vacuum
        expect = 1.0 / ((1 + 0.16) * (1 + 0.09))
        assert p == pytest.approx(expect, rel=1e-12)

    def test_single_ion_matches_com_only_protocol(self, mode_tables):
        plan = protocol.ProtocolPlan(
            params=params_for(1, eta=0.1, omega=0.02, delta=0.99),
            alpha=0.2 + 0.1j,
            cycles=(
                protocol.Cycle(duration=60.0, weights=[0.4 - 0.3j]),
                protocol.Cycle(duration=60.0, weights=[0.2j]),
            ),
        )
        rep, p = multimode.analyze_plan(plan, mode_tables[1], False)
        res = protocol.run_ideal(plan)
        assert abs(p - res.p_exact) <= 1e-10
        # COM fidelity between the multimode state and the line state is 1
        assert rep.com_fidelity_vs_ideal >= 1 - 1e-10
        assert rep.factorization_gap <= 1e-12  # one mode: factorization is exact

    @pytest.mark.parametrize("n_ions, n_cycles", [(2, 1), (3, 2), (4, 1), (2, 3), (3, 3)])
    def test_spectators_zeroed_reduce_to_protocol(self, monkeypatch, n_ions, n_cycles):
        # the lattice's COM factor is the COM line's lag overlap at the total
        # lag: with the spectators off, the report is the line state's
        weights = np.array([0.3 + 0.2j, -0.4j, 0.2 - 0.1j, 0.5])[:n_ions]
        plan = protocol.ProtocolPlan(
            params=params_for(n_ions),
            alpha=0.3 + 0.1j,
            cycles=tuple(protocol.Cycle(80.0, np.roll(weights, j)) for j in range(n_cycles)),
        )
        modes = chain.normal_modes(chain.equilibrium_positions(n_ions))
        use_tables(monkeypatch, spectators_off)
        for integrated in (False, True):
            rep, p = multimode.analyze_plan(plan, modes, integrated)
            if not integrated:
                expect = protocol.success_probability_exact(plan)[0]
                assert abs(p - expect) <= 1e-12 * expect
            assert 1.0 - rep.com_fidelity_vs_ideal <= 1e-12
            assert 1.0 - rep.com_purity <= 1e-12
            assert rep.factorization_gap <= 1e-12

    def test_term_cap(self):
        # 5^10 lags: their sums would need 1.2 GiB
        modes = chain.normal_modes(chain.equilibrium_positions(10))
        weights = [0.3 + 0.2j, -0.4j, 0.1, 0.2j, -0.3, 0.5, 0.1 - 0.1j, 0.2, 0.4, -0.1j]
        plan = protocol.ProtocolPlan(
            params=params_for(10),
            alpha=0j,
            cycles=(protocol.Cycle(duration=80.0, weights=weights),) * 2,
        )
        with pytest.raises(SolverError, match="term"):
            multimode.analyze_plan(plan, modes, False)

    def test_long_plan_keeps_its_weight(self, mode_tables):
        # the nominal probability of these 200 slots underflows to 0
        plan = protocol.ProtocolPlan(
            params=params_for(1),
            alpha=0.3,
            cycles=(protocol.Cycle(duration=80.0, weights=[10.0]),) * 200,
        )
        assert protocol.success_probability_nominal(plan.all_weights) == 0.0
        _, p = multimode.analyze_plan(plan, mode_tables[1], False)
        assert p == pytest.approx(protocol.success_probability_exact(plan)[0], rel=1e-10)

    def test_mode_count_validated(self, mode_tables):
        plan = one_cycle_plan([0.1, 0.2])
        with pytest.raises(ValueError):
            multimode.analyze_plan(plan, mode_tables[3], False)


class TestAgainstFockOracle:
    def test_two_ion_one_cycle_metrics(self, mode_tables):
        weights = [0.3 + 0.2j, -0.4j]
        plan = one_cycle_plan(weights, alpha=0.3)
        betas = multimode.cycle_displacements(mode_tables[2], plan.params, 80.0, False)
        assert np.max(np.abs(betas)) * 2 + abs(plan.alpha) <= 1.5  # oracle regime

        rep, p = multimode.analyze_plan(plan, mode_tables[2], False)
        ideal = protocol.run_ideal(plan).state

        cutoff = 24
        psi = two_mode_conditional(np.asarray(weights), betas, plan.alpha, cutoff)
        oracle = two_mode_metrics(psi, protocol.to_fock(ideal, cutoff).amps)

        assert abs(p - oracle["p_exact"]) <= 1e-6
        assert abs(rep.per_mode_mean_phonon[0] - oracle["mean_phonon"][0]) <= 1e-6
        assert abs(rep.per_mode_mean_phonon[1] - oracle["mean_phonon"][1]) <= 1e-6
        assert abs(rep.com_fidelity_vs_ideal - oracle["com_fidelity"]) <= 1e-6
        assert abs(rep.com_purity - oracle["com_purity"]) <= 1e-6

    def test_energy_bookkeeping(self, mode_tables):
        weights = [0.5, -0.2 + 0.2j]
        plan = one_cycle_plan(weights, alpha=0.2j)
        betas = multimode.cycle_displacements(mode_tables[2], plan.params, 80.0, False)
        rep, _ = multimode.analyze_plan(plan, mode_tables[2], False)
        total_gram = sum(rep.per_mode_mean_phonon)
        psi = two_mode_conditional(np.asarray(weights), betas, plan.alpha, 24)
        oracle = two_mode_metrics(psi, np.eye(25)[0])
        total_fock = sum(oracle["mean_phonon"])
        assert abs(total_gram - total_fock) <= 1e-6

    def test_factorization_gap_against_fock(self, mode_tables):
        weights = [0.3 + 0.2j, -0.4j]
        plan = one_cycle_plan(weights, alpha=0.3)
        betas = multimode.cycle_displacements(mode_tables[2], plan.params, 80.0, False)
        rep, _ = multimode.analyze_plan(plan, mode_tables[2], False)
        assert rep.factorization_gap > 1e-4  # genuinely nonzero here

        cutoff = 24
        psi = two_mode_conditional(np.asarray(weights), betas, plan.alpha, cutoff).reshape(-1)
        psi_f = np.ones(1, dtype=complex)
        for fc, fg in factor_terms(plan, mode_tables[2], False):
            psi_f = np.kron(
                psi_f,
                sum(c * fock.coherent_fock(g, cutoff).amps for c, g in zip(fc, fg)),
            )
        fid = abs(np.vdot(psi_f, psi)) ** 2 / (
            np.vdot(psi_f, psi_f).real * np.vdot(psi, psi).real
        )
        assert abs(rep.factorization_gap - (1 - fid)) <= 1e-6


class TestFactorized:
    def test_single_coherent_term_mean_phonon(self, mode_tables, monkeypatch):
        # one ion over one cycle with all weight on k = 1 (p = -1), under a
        # hand-made table of two modes: 0.7j |0.3 + 0.4j>|-0.2j>
        plan = one_cycle_plan([-1.0], alpha=0.3 + 0.4j)
        use_tables(monkeypatch, lambda betas: np.array([[[0.0, -0.2j]]] * len(betas)))
        rep, _ = multimode.analyze_plan(plan, mode_tables[1], False)
        assert rep.per_mode_mean_phonon[0] == pytest.approx(0.25, abs=1e-12)
        assert rep.per_mode_mean_phonon[1] == pytest.approx(0.04, abs=1e-12)

    def test_exact_when_spectators_off(self, mode_tables, monkeypatch):
        plan = one_cycle_plan([0.2, -0.6j], alpha=0.4)
        use_tables(monkeypatch, spectators_off)
        rep, _ = multimode.analyze_plan(plan, mode_tables[2], False)
        assert rep.factorization_gap <= 1e-12
        assert np.max(rep.per_mode_mean_phonon[1:]) <= 1e-14
        assert rep.com_purity >= 1 - 1e-12

    def test_generic_gap_positive(self, mode_tables):
        plan = one_cycle_plan([0.3 + 0.2j, -0.4j])
        rep, _ = multimode.analyze_plan(plan, mode_tables[2], False)
        assert 0 < rep.factorization_gap < 1


class TestFactorizedOverlap:
    @pytest.mark.parametrize("n_ions, n_cycles", [(3, 1), (3, 2), (4, 1), (2, 4)])
    def test_gap_matches_tensor_product(self, n_ions, n_cycles):
        modes = chain.normal_modes(chain.equilibrium_positions(n_ions))
        weights = [0.3 + 0.2j, -0.4j, 0.2 - 0.1j, 0.5][:n_ions]
        plan = protocol.ProtocolPlan(
            params=params_for(n_ions),
            alpha=0.3,
            cycles=(protocol.Cycle(duration=80.0, weights=weights),) * n_cycles,
        )
        rep, _ = multimode.analyze_plan(plan, modes, False)
        assert rep.factorization_gap > 1e-4  # genuinely nonzero here
        gap = tensor_product_gap(factor_terms(plan, modes, False), *exact_terms(plan, modes, False))
        assert abs(rep.factorization_gap - gap) <= 1e-12


class TestAgainstGramForm:
    @pytest.mark.parametrize("integrated", [False, True])
    @pytest.mark.parametrize(
        "n_ions, n_cycles",
        [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (2, 8)],
    )
    def test_lag_sums_match_dense_grams(self, n_ions, n_cycles, integrated):
        rng = np.random.default_rng(100 * n_ions + n_cycles)
        modes = chain.normal_modes(chain.equilibrium_positions(n_ions))
        weights = rng.normal(0, 0.5, (n_cycles, n_ions)) + 0.5j * rng.normal(size=(n_cycles, n_ions))
        plan = protocol.ProtocolPlan(
            params=params_for(n_ions),
            alpha=0.3 - 0.2j,
            cycles=tuple(protocol.Cycle(duration=80.0, weights=w) for w in weights),
        )
        betas = multimode.cycle_displacements(modes, plan.params, 80.0, integrated)
        ideal = protocol.LineSuperposition(
            plan.alpha, betas[0, 0], protocol.forward_coeffs(plan.all_weights)
        )
        ref, ref_p = gram_leakage_report(plan, modes, integrated, ideal)
        rep, p = multimode.analyze_plan(plan, modes, integrated)
        assert abs(p - ref_p) <= 1e-12
        assert np.allclose(rep.per_mode_mean_phonon, ref.per_mode_mean_phonon, rtol=1e-12, atol=1e-12)
        assert abs(rep.com_fidelity_vs_ideal - ref.com_fidelity_vs_ideal) <= 1e-12
        assert abs(rep.com_purity - ref.com_purity) <= 1e-12
        assert abs(rep.factorization_gap - ref.factorization_gap) <= 1e-12


# Rows are cycles, columns ions.
CYCLE_WEIGHTS = np.array([
    [0.3 + 0.2j, -0.4j, 0.2 - 0.1j, 0.5],
    [-0.6 + 0.1j, 0.7, 0.1j, -0.2 - 0.3j],
    [0.4j, -0.1 - 0.5j, 0.8, 0.3 + 0.3j],
])


class TestFactorsAgainstPerModeWalk:
    @pytest.mark.parametrize("integrated", [False, True])
    @pytest.mark.parametrize(
        "n_ions, n_cycles, distinct",
        [(2, 3, False), (3, 2, False), (4, 1, False), (4, 2, False), (3, 2, True), (2, 3, True)],
        ids=["2-3", "3-2", "4-1", "4-2", "3-2-distinct", "2-3-distinct"],
    )
    def test_factors_match_phase_tracking_walk(self, n_ions, n_cycles, distinct, integrated):
        """The library's gap against the gap to the product of every mode's
        own walk, which tracks the composition phases slot by slot."""
        modes = chain.normal_modes(chain.equilibrium_positions(n_ions))
        rows = range(n_cycles) if distinct else [0] * n_cycles
        table = [CYCLE_WEIGHTS[r, :n_ions] for r in rows]
        plan = protocol.ProtocolPlan(
            params=params_for(n_ions),
            alpha=0.3 - 0.2j,
            cycles=tuple(protocol.Cycle(duration=80.0, weights=w) for w in table),
        )
        betas = multimode.cycle_displacements(modes, plan.params, 80.0, integrated)
        walk = per_mode_walk(table, betas, plan.alpha)
        assert len(walk) == n_ions
        rep, _ = multimode.analyze_plan(plan, modes, integrated)
        gap = gram_gap(walk, *exact_terms(plan, modes, integrated))
        assert abs(rep.factorization_gap - gap) <= 1e-12


class TestIonTables:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_tables_match_the_correlations(self, n):
        rng = np.random.default_rng(n)
        for c in range(1, 9):
            lines = rng.normal(size=(n, c + 1)) + 1j * rng.normal(size=(n, c + 1))
            tables = multimode._ion_tables(lines)[0]
            assert tables.shape == (n, 2 * c + 1, 4)
            for table, want in zip(tables, moment_tables(lines)):
                assert np.all(np.abs(table - want).max(0) <= 1e-13 * np.abs(want).max(0))


class TestCollinearityGuard:
    def test_computed_tables_pass(self):
        for n in range(1, 65):
            modes = chain.normal_modes(chain.equilibrium_positions(n))
            for integrated in (False, True):
                betas = multimode.cycle_displacements(modes, params_for(n), 80.0, integrated)
                assert betas.shape == (n, n) and not betas.flags.writeable


class TestLeakageAnalysis:
    def test_isolation_at_unit_detuning_window(self, mode_tables):
        # delta tuned so close to the COM sideband that a full window is one
        # radian of COM phase; spectators then average out in the integrated
        # picture and the COM preparation survives almost untouched.
        for n in (2, 3):
            params = params_for(n, eta=0.05, omega=0.01, delta=0.999)
            plan = protocol.ProtocolPlan(
                params=params,
                alpha=0j,
                cycles=(protocol.Cycle(duration=1000.0, weights=[0.0] * n),),
            )
            rep, p = multimode.analyze_plan(plan, mode_tables[n], integrated=True)
            assert rep.com_fidelity_vs_ideal >= 1 - 1e-10
            assert np.max(rep.per_mode_mean_phonon[1:]) <= 1e-10
            assert rep.com_purity >= 1 - 1e-10

    def test_endpoint_variant_reports_more_leakage(self, mode_tables):
        params = params_for(2, eta=0.05, omega=0.01, delta=0.999)
        plan = protocol.ProtocolPlan(
            params=params,
            alpha=0j,
            cycles=(protocol.Cycle(duration=1000.0, weights=[0.0, 0.0]),),
        )
        rep_mid, _ = multimode.analyze_plan(plan, mode_tables[2], integrated=True)
        rep_end, _ = multimode.analyze_plan(plan, mode_tables[2], integrated=False)
        assert rep_end.per_mode_mean_phonon[1] > 100 * rep_mid.per_mode_mean_phonon[1]


class TestAnalyzePoints:
    def test_grids_must_be_1d_and_of_one_length(self, mode_tables):
        plan = one_cycle_plan([0.1, 0.2])
        for deltas, ts in (([0.97, 0.98], [80.0]), ([0.97], [80.0, 90.0]),
                           ([[0.97]], [[80.0]]), (0.97, 80.0)):
            with pytest.raises(ValueError, match="1-D and of one length"):
                list(multimode.analyze_points(plan, mode_tables[2], True, deltas, ts))
        points = multimode.analyze_points(plan, mode_tables[2], True, [0.97, 0.98], [80.0, 90.0])
        assert len(list(points)) == 2

    @pytest.mark.parametrize(
        "deltas, ts, match",
        [
            ([0.98, 0.04], [80.0, 80.0], "omega must stay below"),
            ([0.98, np.nan], [80.0, 80.0], "delta must be positive"),
            ([0.98, 0.97], [80.0, -1.0], "duration must be positive"),
            ([0.98, 0.97], [np.nan, 80.0], "duration must be positive"),
        ],
        ids=["omega-above-delta", "nan-delta", "negative-t", "nan-t"],
    )
    def test_grid_points_checked_as_plans(self, mode_tables, deltas, ts, match):
        plan = one_cycle_plan([0.1, 0.2])
        with pytest.raises(ValueError, match=match):
            list(multimode.analyze_points(plan, mode_tables[2], True, deltas, ts))


class TestLatticeBudget:
    def test_admitted_and_refused_shapes(self):
        for n, c in ((14, 1), (9, 2), (7, 4), (6, 6), (5, 11), (4, 27), (3, 104)):
            multimode._check_lattice(n, c)
        for n, c in ((15, 1), (10, 2), (7, 5), (6, 7), (5, 12), (4, 28), (3, 105)):
            with pytest.raises(SolverError, match="budget 1 GiB"):
                multimode._check_lattice(n, c)

    @pytest.mark.parametrize("n_ions, n_cycles", [(1, 1000), (2, 150), (4, 8), (8, 2), (12, 1)])
    def test_need_bounds_the_traced_peak(self, n_ions, n_cycles):
        # the pre-flight estimate against what one point really allocates
        rng = np.random.default_rng(1000 * n_ions + n_cycles)
        weights = rng.normal(0.0, 0.5, (n_cycles, n_ions, 2)) @ [1.0, 1j]
        cycles = tuple(protocol.Cycle(duration=80.0, weights=w) for w in weights)
        params = params_for(n_ions, eta=0.05, omega=0.01, delta=0.99)
        plan = protocol.ProtocolPlan(params=params, alpha=0.3 + 0.1j, cycles=cycles)
        modes = chain.normal_modes(chain.equilibrium_positions(n_ions))
        tracemalloc.start()
        try:
            multimode.analyze_plan(plan, modes, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multimode._lattice_need(n_ions, n_cycles)

    def test_class_block_is_the_shapes_own(self):
        assert multimode._class_block(1, 1) == 2 * 3  # 2 classes of 3 lags
        assert multimode._class_block(4, 2) == 9 * 5**4
        # 25 of the 201 classes of 2 x 100 fill the block
        assert multimode._class_block(2, 100) == 25 * 201**2
        # one class past the block keeps the frontier's reservation
        assert multimode._class_block(9, 2) == multimode._BLOCK_ENTRIES

    def test_class_blocks_of_one_class_keep_the_bits(self, mode_tables, monkeypatch):
        # 3 x 2: 7 classes of 125 lags, one block; at 125 entries a class a block
        weights = ([0.3, -0.2j, 0.5 + 0.1j], [0.1, 0.4, -0.3 + 0.1j])
        cycles = tuple(protocol.Cycle(duration=80.0, weights=w) for w in weights)
        plan = protocol.ProtocolPlan(params=params_for(3), alpha=0.3 + 0.1j, cycles=cycles)
        whole, p_whole = multimode.analyze_plan(plan, mode_tables[3], True)
        monkeypatch.setattr(multimode, "_BLOCK_ENTRIES", 125)
        assert multimode._class_block(3, 2) == 125
        split, p_split = multimode.analyze_plan(plan, mode_tables[3], True)
        assert p_split == p_whole
        assert split.per_mode_mean_phonon.tobytes() == whole.per_mode_mean_phonon.tobytes()
        assert (split.com_fidelity_vs_ideal, split.com_purity, split.factorization_gap) == (
            whole.com_fidelity_vs_ideal,
            whole.com_purity,
            whole.factorization_gap,
        )

    def test_sweep_rows_match_points_across_blocks(self, mode_tables, monkeypatch):
        # 1 x 1 sweeps evaluate up to 10,922 points a block; three blocks of
        # 4 here, as single points would give them
        monkeypatch.setattr(multimode, "_BLOCK_LAGS", 12)
        ts = np.linspace(20.0, 90.0, 11)
        plans = [one_cycle_plan([0.3 + 0.2j], t=t) for t in ts]
        swept = list(multimode.analyze_points(plans[0], mode_tables[1], False, [0.97] * 11, ts))
        for plan, (report, p_exact) in zip(plans, swept):
            alone, p_alone = multimode.analyze_plan(plan, mode_tables[1], False)
            assert p_exact == p_alone
            assert report.per_mode_mean_phonon.tobytes() == alone.per_mode_mean_phonon.tobytes()
            assert report.com_fidelity_vs_ideal == alone.com_fidelity_vs_ideal
            assert (report.com_purity, report.factorization_gap) == (
                alone.com_purity,
                alone.factorization_gap,
            )
