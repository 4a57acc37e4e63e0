import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ile import fock, inverse, protocol
from ile.errors import SolverError
from conftest import complexes
from oracles import (
    coherent_gram,
    dyadic_p_exact,
    line_fock_per_component,
    per_cycle_p_exact,
    single_mode_conditional,
    unscaled_forward_coeffs,
)


# Real weights ending in two below -1: a product in their line has the
# imaginary part -0.0, which the unscaled loop's 0 + a turns into +0.0
SIGNED_ZERO_WEIGHTS = ([-3.0, -3.0], [0.5, -3.0, -3.0])

# (ions, cycles) of the random plans whose single pass is pinned bitwise
PINNED_SHAPES = [(1, 1), (1, 60), (2, 30), (5, 12), (20, 20), (3, 300)]


def make_plan(weights_per_cycle, eta=0.1, omega=0.02, delta=0.99, t=100.0, alpha=0j):
    n_ions = len(weights_per_cycle[0])
    params = protocol.PhysicalParams(eta=eta, omega=omega, delta=delta, n_ions=n_ions)
    cycles = tuple(protocol.Cycle(duration=t, weights=w) for w in weights_per_cycle)
    return protocol.ProtocolPlan(params=params, alpha=alpha, cycles=cycles)


class TestPhysicalParams:
    def test_regime_guards(self):
        with pytest.raises(ValueError):
            protocol.PhysicalParams(eta=0.3, omega=0.01, delta=1.0, n_ions=1)
        with pytest.raises(ValueError):
            protocol.PhysicalParams(eta=0.1, omega=1.0, delta=1.0, n_ions=1)
        with pytest.warns(protocol.RegimeWarning):
            protocol.PhysicalParams(eta=0.2, omega=0.01, delta=1.0, n_ions=1)
        with pytest.warns(protocol.RegimeWarning):
            protocol.PhysicalParams(eta=0.05, omega=0.5, delta=1.0, n_ions=1)

    def test_regime_warning_names_the_callers_line(self):
        with pytest.warns(protocol.RegimeWarning) as record:
            protocol.PhysicalParams(eta=0.05, omega=0.5, delta=1.0, n_ions=1)
        assert record[0].filename == __file__

    def test_quiet_in_regime(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            protocol.PhysicalParams(eta=0.1, omega=0.02, delta=1.0, n_ions=3)


class TestBetaOf:
    def test_on_resonance(self):
        p = protocol.PhysicalParams(eta=0.1, omega=0.02, delta=1.0, n_ions=1)
        assert protocol.beta_of(p, 100.0) == 0.2j

    def test_off_resonance_phase(self):
        p = protocol.PhysicalParams(eta=0.1, omega=0.02, delta=0.99, n_ions=1)
        b = protocol.beta_of(p, 100.0)
        assert abs(abs(b) - 0.2) < 1e-15
        assert abs(np.angle(b) - (np.pi / 2 + 1.0)) < 1e-12

    def test_zero_time(self):
        p = protocol.PhysicalParams(eta=0.1, omega=0.02, delta=0.99, n_ions=1)
        assert protocol.beta_of(p, 0.0) == 0.0


class TestForwardCoeffs:
    def test_binomial_row(self):
        for n in range(1, 11):
            c = protocol.forward_coeffs(np.zeros(n))
            expect = [comb(n, k) for k in range(n + 1)]
            assert np.max(np.abs(c - expect)) <= 1e-12

    def test_single_branch_annihilation(self):
        assert protocol.forward_coeffs([1.0]).tolist() == [2.0, 0.0]
        assert protocol.forward_coeffs([-1.0]).tolist() == [0.0, 2.0]

    def test_balanced_two_component(self):
        c = protocol.forward_coeffs([-1j, 1j])
        assert np.max(np.abs(c - np.array([2.0, 0.0, 2.0]))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.lists(complexes(2.0), min_size=2, max_size=6), st.randoms())
    def test_permutation_invariance(self, weights, pyrandom):
        shuffled = list(weights)
        pyrandom.shuffle(shuffled)
        a = protocol.forward_coeffs(weights)
        b = protocol.forward_coeffs(shuffled)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_matches_the_unscaled_recurrence_bitwise(self, rng):
        # the recurrence is rescaled by powers of two every 64 slots, which
        # must not move a bit while the unscaled one stays in range
        for n in [1, 2, 63, 64, 65, 200, 700]:
            weights = rng.normal(0, 0.7, n) + 1j * rng.normal(0, 0.7, n)
            weights[rng.random(n) < 0.1] = 0.0
            want = unscaled_forward_coeffs(weights)
            assert protocol.forward_coeffs(weights).tobytes() == want.tobytes()
        for weights in SIGNED_ZERO_WEIGHTS:
            want = unscaled_forward_coeffs(weights)
            assert protocol.forward_coeffs(weights).tobytes() == want.tobytes()

    def test_scaled_binomials_past_the_float_range(self):
        # 2,080 zero weights: binomials up to about 2^2074, twice the float range
        n = 2080
        c, e = protocol.scaled_coeffs(np.zeros(n))
        assert 0.5 <= np.max(np.abs(c)) < 1 and not np.any(c.imag)
        want = np.array([comb(n, k) / 2**e for k in range(n + 1)])  # exact, then rounded
        normal = want >= 2.0**-1000
        assert np.max(np.abs(c.real[normal] / want[normal] - 1)) <= 1e-12
        assert np.max(np.abs(c.real - want)) <= 1e-12 * np.max(want)

    def test_overflow_is_a_solver_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(protocol.forward_coeffs(np.zeros(1029))))
            with pytest.raises(SolverError, match="overflow at 1030 slots"):
                protocol.forward_coeffs(np.zeros(1030))


class TestLineNorm:
    @staticmethod
    def gram_form(state):
        a = state.phased_coeffs()
        return float(np.real(np.conj(a) @ coherent_gram(state.labels()) @ a))

    def test_lag_sum_matches_gram_form(self, rng):
        for trial in range(60):
            n = int(rng.integers(0, 301))
            alpha = complex(*rng.normal(0.0, 1.5, 2))
            # |labels| stay below about 10, where the Gram form's exponents
            # still carry 14 digits
            beta = 0j if trial % 5 == 0 else complex(*rng.normal(0.0, 1.0, 2)) * 3.0 / max(n, 1)
            coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            state = protocol.LineSuperposition(alpha, beta, coeffs)
            want = self.gram_form(state)
            assert abs(state.norm_sq() - want) <= 1e-12 * want

    def test_forty_digit_reference(self):
        # Dyadic inputs, so the float values are exact; the reference was
        # summed over all component pairs in 60-digit arithmetic.
        state = protocol.LineSuperposition(
            alpha=0.75 + 0.25j,
            beta=0.125 - 0.375j,
            coeffs=[1, -0.5 + 0.25j, 0.75j, 2, -1.25 - 0.5j, 0.375],
        )
        want = float("3.360442362719939732497325526335941142252")
        assert abs(state.norm_sq() - want) <= 1e-15 * want

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scaled_coefficients_keep_the_bits(self, scale):
        # in range, the sum over the unit coefficients scaled back by 4^e is
        # the direct sum, bit for bit
        state = protocol.LineSuperposition(0.1, 0.3, np.array([1.0, 0.5, 0.2]) * scale)
        overlaps = fock.line_overlaps(state.alpha, 2.0 * state.beta, state.n)
        assert state.norm_sq() == protocol._lag_norm_sq(state.coeffs, overlaps)

    @pytest.mark.parametrize("size", [1, 2, 7, 40])
    def test_gate_refuses_exactly_where_cancellation_errors_does(self, rng, size):
        # one lag-0 overlap x puts ||c||_1^2 / nsq within a few ulps of the
        # 1e8 limit on either side; x = 0, < 0 and NaN give nsq <= 0 and NaN
        c = fock._unit_parts(rng.normal(size=size) + 1j * rng.normal(size=size))[0]
        lags = np.correlate(c, c, "full")
        edge = np.sum(np.abs(c)) ** 2 / 1e8 / lags[size - 1].real
        xs = [edge * (1 + k * 2.0**-52) for k in range(-40, 41)] + [0.0, -edge, np.nan]
        outcomes = set()
        for x in xs:
            overlaps = np.zeros(2 * size - 1)
            overlaps[size - 1] = x
            nsq = float(np.real(lags @ overlaps))
            (want,) = protocol.cancellation_errors(np.array([nsq]), c)
            if want is None:
                assert protocol._lag_norm_sq(c, overlaps) == nsq
            else:
                with pytest.raises(SolverError) as got:
                    protocol._lag_norm_sq(c, overlaps)
                assert str(got.value) == str(want)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("exp2", [-600, 600])
    def test_squared_norm_past_the_float_range(self, exp2):
        # the squared norm 2.487 * 2^(2 exp2) is no float: refused as range,
        # not as cancellation, and with no RuntimeWarning on the way
        state = protocol.LineSuperposition(0.1, 0.3, np.array([1.0, 0.5, 0.2]) * 2.0**exp2)
        with pytest.raises(SolverError, match=r"outside the normal float range \[2\.23e-308, 1\.8e\+308\]"):
            state.norm_sq()


class TestCycleIonEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(complexes(1.5), min_size=2, max_size=8).filter(lambda w: len(w) % 2 == 0))
    def test_two_ions_vs_double_cycles(self, weights):
        m = len(weights) // 2
        one_ion = make_plan([[w] for w in weights])
        two_ions = make_plan([weights[2 * k : 2 * k + 2] for k in range(m)])
        a = protocol.run_ideal(one_ion).state.coeffs
        b = protocol.run_ideal(two_ions).state.coeffs
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_n_ions_single_cycle(self, rng):
        for n in (3, 4):
            weights = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            wide = make_plan([list(weights)])
            tall = make_plan([[w] for w in weights])
            a = protocol.run_ideal(wide).state.coeffs
            b = protocol.run_ideal(tall).state.coeffs
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


class TestNominalProbability:
    def test_values(self):
        assert protocol.success_probability_nominal([0, 0]) == 1 / 16
        assert protocol.success_probability_nominal([-1j, 1j]) == 1 / 64
        assert protocol.success_probability_nominal([1.0]) == 1 / 8

    def test_binomial_rows_are_exact_powers(self):
        for n in range(1, 11):
            assert protocol.success_probability_nominal(np.zeros(n)) == 0.25**n

    @settings(max_examples=30, deadline=None)
    @given(st.lists(complexes(3.0), min_size=1, max_size=8))
    def test_bounded_by_one(self, weights):
        assert 0.0 < protocol.success_probability_nominal(weights) <= 1.0


class TestExactProbability:
    def test_no_displacement_reduces_to_internal_projection(self):
        # delta = 1 and t -> tiny drives beta -> 0; survival is then set by the
        # internal preparation alone: 1/(1 + |p|^2), and exactly 1 for p = 0.
        plan = make_plan([[0.0]], delta=1.0, t=1e-9)
        p_exact, per_cycle = protocol.success_probability_exact(plan)
        assert abs(p_exact - 1.0) < 1e-12
        plan = make_plan([[0.7j]], delta=1.0, t=1e-9)
        p_exact, _ = protocol.success_probability_exact(plan)
        assert abs(p_exact - 1.0 / 1.49) < 1e-9

    def test_two_component_closed_form(self):
        # single zero weight: exact survival is 1/2 + e^{-2|beta|^2}/2,
        # approaching 1/2 (not the nominal 1/4) once the components separate
        for absb in (0.5, 1.0, 2.0, 3.0):
            plan = make_plan([[0.0]], eta=0.1, omega=0.1, delta=1.0, t=absb / 0.01)
            p_exact, _ = protocol.success_probability_exact(plan)
            assert abs(p_exact - 0.5 * (1.0 + np.exp(-2 * absb**2))) <= 1e-12

    def test_agrees_with_fock_oracle(self):
        plan = make_plan(
            [[0.3 - 0.2j], [0.5j]], eta=0.1, omega=0.05, delta=0.98, t=60.0, alpha=0.2 + 0.1j
        )
        p_exact, per_cycle = protocol.success_probability_exact(plan)
        beta = protocol.beta_of(plan.params, 60.0)
        cutoff = fock.recommended_cutoff(abs(plan.alpha) + 2 * abs(beta))
        psi1 = single_mode_conditional([0.3 - 0.2j], beta, plan.alpha, cutoff)
        psi2 = single_mode_conditional([0.3 - 0.2j, 0.5j], beta, plan.alpha, cutoff)
        n1 = float(np.real(np.vdot(psi1, psi1)))
        n2 = float(np.real(np.vdot(psi2, psi2)))
        assert abs(p_exact - n2) <= 1e-8
        assert abs(per_cycle[0] - n1) <= 1e-8
        assert abs(per_cycle[1] - n2 / n1) <= 1e-8

    def test_product_structure(self):
        plan = make_plan([[0.2], [0.4j], [-0.3]], t=50.0)
        p_exact, per_cycle = protocol.success_probability_exact(plan)
        assert p_exact == pytest.approx(np.prod(per_cycle), rel=1e-12)
        assert np.all(per_cycle >= 0) and np.all(per_cycle <= 1)

    def test_cross_term_bound(self, rng):
        # the deviation of the exact probability from its orthogonal-component
        # limit is controlled by e^{-2|beta|^2}
        weights = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        plan = make_plan([list(weights)], eta=0.1, omega=0.1, delta=1.0, t=250.0)
        beta = protocol.beta_of(plan.params, 250.0)
        coeffs = protocol.forward_coeffs(weights)
        aleph_sq = 0.25**3 * np.prod(1.0 / (1.0 + np.abs(weights) ** 2))
        orthogonal_limit = aleph_sq * float(np.sum(np.abs(coeffs) ** 2))
        p_exact, _ = protocol.success_probability_exact(plan)
        n = 3
        bound = (
            aleph_sq
            * (n + 1) ** 2
            * float(np.max(np.abs(coeffs)) ** 2)
            * np.exp(-2 * abs(beta) ** 2)
        )
        assert abs(p_exact - orthogonal_limit) <= bound + 1e-15


    def test_long_plan_stays_finite(self, rng):
        # 20 ions x 30 cycles: the nominal prefactor 4^-600 underflows and the
        # line coefficients reach ~1e180 in between
        weights = rng.uniform(-1, 1, (30, 20)) + 1j * rng.uniform(-1, 1, (30, 20))
        plan = make_plan(list(weights), eta=0.1, omega=0.05, delta=0.97, t=80.0)
        p_exact, per_cycle = protocol.success_probability_exact(plan)
        assert np.isfinite(p_exact) and 0 < p_exact <= 1
        assert p_exact == pytest.approx(np.prod(per_cycle), rel=1e-12)

    def test_single_pass_runs_past_the_coefficient_overflow(self):
        # 1,100 slots at p = 0: the coefficients (binomials up to ~2^1096)
        # leave the float range, the per-cycle prefixes carried by a power of
        # two do not; the value is that of the per-cycle rebuild of the line
        plan = make_plan(
            [[0.0]] * 1100, eta=0.05, omega=0.01, delta=0.99, t=80.0, alpha=0.3 + 0.1j
        )
        p_exact, per_cycle = protocol.success_probability_exact(plan)
        assert p_exact == pytest.approx(0.41598863585834184, rel=1e-12, abs=0)
        assert per_cycle.shape == (1100,)
        with pytest.raises(SolverError, match="^line coefficients overflow at 1100 slots$"):
            protocol.run_ideal(plan)

    def test_fifty_digit_lag_sum(self):
        # 300 cycles of one ion, dyadic weights: the reference line is exact
        rng = np.random.default_rng(7)
        weights = (rng.integers(-3, 4, (300, 1)) + 1j * rng.integers(-3, 4, (300, 1))) / 4
        plan = make_plan(list(weights), eta=0.05, omega=0.01, delta=0.99, t=80.0, alpha=0.3 + 0.1j)
        want = dyadic_p_exact(plan)
        assert abs(protocol.run_ideal(plan).p_exact - want) <= 1e-13 * want

    @pytest.mark.parametrize("n_ions, n_cycles", [(1, 40), (2, 100), (5, 8), (10, 20), (20, 10)])
    def test_rescaled_per_cycle_matches_dense_formula(self, rng, n_ions, n_cycles):
        weights = rng.uniform(-1, 1, (n_cycles, n_ions)) + 1j * rng.uniform(-1, 1, (n_cycles, n_ions))
        plan = make_plan(list(weights), eta=0.1, omega=0.05, delta=0.97, t=80.0, alpha=0.2 - 0.1j)
        _, per_cycle = protocol.success_probability_exact(plan)
        assert np.max(np.abs(per_cycle / dense_per_cycle(plan) - 1)) <= 1e-12


def dense_per_cycle(plan) -> np.ndarray:
    """Per-cycle probabilities from the unscaled coefficient recurrence and
    the plain prefactor aleph^2, fine while neither leaves the float range."""
    beta = protocol.beta_of(plan.params, plan.cycles[0].duration)
    coeffs = np.array([1.0 + 0.0j])
    aleph_sq = 1.0
    prev = 1.0
    out = []
    for cyc in plan.cycles:
        for p in cyc.weights:
            nxt = np.zeros(coeffs.size + 1, dtype=np.complex128)
            nxt[:-1] += (1 + p) * coeffs
            nxt[1:] += (1 - p) * coeffs
            coeffs = nxt
            aleph_sq *= 0.25 / (1.0 + abs(p) ** 2)
        cur = aleph_sq * protocol.LineSuperposition(plan.alpha, beta, coeffs).norm_sq()
        out.append(cur / prev)
        prev = cur
    return np.array(out)


class TestRunIdeal:
    def test_single_cycle_single_ion(self):
        plan = make_plan([[0.0]])
        res = protocol.run_ideal(plan)
        assert res.state.coeffs.tolist() == [1.0, 1.0]
        assert res.p_nominal == 0.25

    def test_balanced_two_ion_cat(self):
        plan = make_plan([[-1j, 1j]])
        res = protocol.run_ideal(plan)
        assert np.max(np.abs(res.state.coeffs - np.array([2.0, 0.0, 2.0]))) <= 1e-12
        assert res.p_nominal == 1 / 64

    @staticmethod
    def pinned_plans(rng):
        for n_ions, n_cycles in PINNED_SHAPES:
            weights = rng.normal(0, 0.7, (n_cycles, n_ions)) + 1j * rng.normal(0, 0.7, (n_cycles, n_ions))
            weights[rng.random(weights.shape) < 0.1] = 0.0
            yield make_plan(list(weights), t=80.0, alpha=0.2 - 0.1j)

    def test_coeffs_are_forward_coeffs_bitwise(self, rng):
        # the single pass carries its prefix scaled by powers of two, which
        # must not move a bit of the coefficients
        for plan in self.pinned_plans(rng):
            got = protocol.run_ideal(plan).state.coeffs
            assert got.tobytes() == protocol.forward_coeffs(plan.all_weights).tobytes()
        # and the signs of zero are those of the unscaled loop
        for weights in SIGNED_ZERO_WEIGHTS:
            got = protocol.run_ideal(make_plan([[p] for p in weights], t=80.0)).state.coeffs
            assert got.tobytes() == unscaled_forward_coeffs(weights).tobytes()

    def test_p_exact_is_the_allocating_loops_bitwise(self, rng):
        # the one-buffer walk and the scalar gate must not move a bit of the
        # per-cycle probabilities either
        plans = [*self.pinned_plans(rng), *(make_plan([w], t=80.0) for w in SIGNED_ZERO_WEIGHTS)]
        for plan in plans:
            want = per_cycle_p_exact(plan)
            assert protocol.success_probability_exact(plan)[1].tobytes() == want.tobytes()
            assert protocol.run_ideal(plan).p_exact == float(np.prod(want))

    def test_plan_validation(self):
        params = protocol.PhysicalParams(eta=0.1, omega=0.02, delta=0.99, n_ions=1)
        with pytest.raises(ValueError, match="at least one cycle"):
            protocol.ProtocolPlan(params=params, alpha=0j, cycles=())
        with pytest.raises(ValueError, match="durations must be equal"):
            protocol.ProtocolPlan(
                params=params,
                alpha=0j,
                cycles=(
                    protocol.Cycle(duration=10.0, weights=[0.0]),
                    protocol.Cycle(duration=11.0, weights=[0.0]),
                ),
            )
        with pytest.raises(ValueError, match="weights"):
            protocol.ProtocolPlan(
                params=params,
                alpha=0j,
                cycles=(protocol.Cycle(duration=10.0, weights=[0.0, 0.0]),),
            )


class TestToFock:
    def test_single_component(self):
        state = protocol.LineSuperposition(alpha=0.3, beta=1.0, coeffs=[1.0])
        out = protocol.to_fock(state, 32)
        assert np.max(np.abs(out.amps - fock.coherent_fock(0.3, 32).amps)) <= 1e-15

    def test_even_component_parity(self):
        state = protocol.LineSuperposition(alpha=0j, beta=1.0, coeffs=[1.0, 0.0, 1.0])
        out = protocol.to_fock(state, 40)
        assert np.max(np.abs(out.amps[1::2])) <= 1e-12

    def test_norm_matches_gram(self):
        state = protocol.LineSuperposition(
            alpha=0.4 - 0.2j, beta=0.5 + 0.3j, coeffs=[1.0, -0.5j, 0.25]
        )
        cutoff = fock.recommended_cutoff(abs(state.alpha) + 2 * abs(state.beta))
        assert abs(fock.norm(protocol.to_fock(state, cutoff)) ** 2 - state.norm_sq()) <= 1e-8

    def test_matches_operator_oracle(self):
        weights = [0.4 - 0.1j, -0.2 + 0.6j]
        plan = make_plan([weights], alpha=0.25j, t=80.0)
        res = protocol.run_ideal(plan)
        cutoff = fock.recommended_cutoff(abs(plan.alpha) + 2 * abs(res.state.beta))
        direct = single_mode_conditional(weights, res.state.beta, plan.alpha, cutoff)
        aleph = np.prod([0.5 / np.sqrt(1 + abs(p) ** 2) for p in weights])
        via_line = aleph * protocol.to_fock(res.state, cutoff).amps
        assert np.max(np.abs(via_line - direct)) <= 1e-10

    @pytest.mark.parametrize("block", [None, 50])
    def test_matches_per_component_oracle(self, rng, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(fock, "_ROW_BLOCK", block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            for trial in range(25):
                n = int(rng.integers(0, 40))
                coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
                coeffs[rng.random(n + 1) < 0.3] = 0.0  # skipped components
                coeffs[0] = 1.0
                # most trials' grids lose part of their squared norm at the cutoff
                state = protocol.LineSuperposition(
                    alpha=complex(*rng.normal(0, 1.0, 2)),
                    beta=complex(*rng.normal(0, 0.4, 2)),
                    coeffs=coeffs,
                )
                cutoff = int(rng.integers(1, 70))
                got = protocol.to_fock(state, cutoff).amps
                assert got.tobytes() == line_fock_per_component(state, cutoff).tobytes()

    def test_grid_of_several_row_blocks_matches_oracle(self, rng):
        # 521 components x 1,201 levels: two blocks of 436 rows at most
        coeffs = rng.normal(size=521) + 1j * rng.normal(size=521)
        state = protocol.LineSuperposition(alpha=0.5j, beta=0.04 + 0.01j, coeffs=coeffs)
        assert state.coeffs.size * 1201 > fock._ROW_BLOCK
        got = protocol.to_fock(state, 1200).amps
        assert got.tobytes() == line_fock_per_component(state, 1200).tobytes()

    def test_small_cutoff_warns(self):
        state = protocol.LineSuperposition(alpha=0j, beta=2.0, coeffs=[1.0, 0.0, 1.0])
        with pytest.warns(fock.TruncationWarning):
            protocol.to_fock(state, 8)

    def test_dump_far_below_its_state_warns(self):
        # |alpha| = 30 puts the state far above cutoff 40: the dump, whose
        # squared norm is subnormal, keeps next to nothing of the state's
        res = protocol.run_ideal(make_plan([[0.3]], eta=0.05, omega=0.01, t=80.0, alpha=30.0))
        with pytest.warns(fock.TruncationWarning, match=r"keeps 1\.63e-320 of the state's"):
            out = protocol.to_fock(res.state, 40)
        assert fock.norm(out) ** 2 < 1e-300

    def test_cancelled_exact_norm_warns_that_the_dump_is_unchecked(self):
        # two nearly equal components of opposite sign: the lag sum keeps
        # fewer than 8 digits and is refused, so the dump cannot be checked
        state = protocol.LineSuperposition(alpha=0j, beta=1e-5, coeffs=[1.0, -1.0])
        with pytest.warns(fock.TruncationWarning, match="unchecked.*cancelled"):
            protocol.to_fock(state, 10)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**1000])
    def test_dump_of_a_line_out_of_range_is_checked_at_scale(self, scale):
        # the power of two of the coefficients drops out of the comparison
        state = protocol.LineSuperposition(alpha=0.3, beta=0.4, coeffs=[scale, 0.5j * scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            protocol.to_fock(state, 40)

    def test_translation_collinear_with_line(self):
        # displacing the centre along the line's own direction is a rigid
        # translation: same state up to the tracked phases
        base = protocol.LineSuperposition(alpha=0j, beta=0.5 + 0.5j, coeffs=[1.0, 2.0j, -0.5])
        alpha = 1.2 * base.beta  # collinear, so the per-component phases agree
        moved = protocol.LineSuperposition(alpha=alpha, beta=base.beta, coeffs=base.coeffs)
        cutoff = 64
        translated = fock.apply_displacement(protocol.to_fock(base, cutoff), alpha)
        assert fock.fidelity_pure(protocol.to_fock(moved, cutoff), translated) >= 1 - 1e-8


class TestFidelityToTarget:
    def test_own_line_form(self):
        state = protocol.LineSuperposition(alpha=0.1, beta=0.8, coeffs=[1.0, 1.0])
        target = protocol.to_fock(state, 48)
        assert protocol.fidelity_to_target(state, target) >= 1 - 1e-10

    def test_even_cat_vs_vacuum_closed_form(self):
        state = protocol.LineSuperposition(alpha=0j, beta=1.0, coeffs=[1.0, 0.0, 1.0])
        vac = fock.coherent_fock(0j, 48)
        # |<0| (|-2> + |2>)|^2 / ||cat||^2 with <0|+-2> = e^{-2}
        cat_norm_sq = 2.0 + 2.0 * np.real(fock.coherent_overlap(-2.0, 2.0))
        expect = abs(2 * np.exp(-2.0)) ** 2 / cat_norm_sq
        assert protocol.fidelity_to_target(state, vac) == pytest.approx(expect, abs=1e-10)

    def test_global_phase_invariance(self):
        state = protocol.LineSuperposition(alpha=0j, beta=0.7, coeffs=[1.0, 1.0j])
        target = protocol.to_fock(state, 40)
        rotated = fock.FockVector(np.exp(0.4j) * target.amps)
        a = protocol.fidelity_to_target(state, target)
        b = protocol.fidelity_to_target(state, rotated)
        assert a == pytest.approx(b, abs=1e-12)

    def test_fitted_line_of_a_tiny_target(self):
        # fit works at any target scale; its own line's fidelity must too
        amps, beta = np.array([0.6, 0.3j, 0.5]), 0.3 + 0.1j
        fids = []
        for scale in (1.0, 1e-200):
            target = fock.FockVector(amps * scale)
            coeffs = inverse.fit_target(target, 6, 0j, beta)[0].coeffs
            line = protocol.LineSuperposition(alpha=0j, beta=beta, coeffs=coeffs)
            with pytest.warns(fock.TruncationWarning, match="cutoff 2 keeps"):
                fids.append(protocol.fidelity_to_target(line, target))
        assert abs(fids[1] - fids[0]) <= 1e-15
