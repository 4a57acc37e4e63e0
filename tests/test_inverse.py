import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ile import fock, inverse, protocol
from ile.errors import SolverError
from conftest import complexes
from oracles import (
    dense_gram_fit,
    fit_overlaps_per_component,
    polynomial_all_roots_weights,
    scipy_pencil_weights,
)


def coeff_arrays(n_min=1, n_max=6):
    return st.lists(complexes(1.0), min_size=n_min + 1, max_size=n_max + 1).filter(
        lambda c: max(abs(z) for z in c) >= 0.1
    )


def multiset(ws, digits=7):
    return sorted((round(w.real, digits), round(w.imag, digits)) for w in ws)


class TestWorkedExamples:
    def test_equal_pair(self):
        sols = inverse.solve_weights(inverse.TargetCoefficients([1.0, 1.0]))
        assert len(sols) == 1
        assert abs(sols[0].weights[0]) <= 1e-12

    def test_binomial_row(self):
        sols = inverse.solve_weights(inverse.TargetCoefficients([1.0, 2.0, 1.0]))
        assert np.max(np.abs(sols[0].weights)) <= 1e-7  # double root, sqrt(eps) splitting
        assert sols[0].p_nominal == pytest.approx(1 / 16, abs=1e-12)

    def test_balanced_cat(self):
        sols = inverse.solve_weights(inverse.TargetCoefficients([1.0, 0.0, 1.0]))
        assert any(multiset(s.weights, 12) == multiset([-1j, 1j], 12) for s in sols)
        best = sols[0]
        assert best.p_nominal == pytest.approx(1 / 64, abs=1e-15)
        recon = protocol.forward_coeffs(best.weights)
        assert np.max(np.abs(recon - np.array([2.0, 0.0, 2.0]))) <= 1e-12


def assert_forced(target, leading, trailing):
    """The solve gives ``leading`` weights -1 and ``trailing`` weights +1,
    each within 1e-12, and the target's residual is at most 1e-9."""
    sol = inverse.solve_weights(inverse.TargetCoefficients(target))[0]
    assert sol.residual <= 1e-9
    assert np.sum(np.abs(sol.weights + 1) <= 1e-12) == leading
    assert np.sum(np.abs(sol.weights - 1) <= 1e-12) == trailing
    return sol


class TestDegenerate:
    """Vanishing edge coefficients are roots of the same pencil: x = infinity
    (p = -1) for a zero leading coefficient, x = 0 (p = +1) for a zero
    trailing one."""

    def test_leading_zero(self):
        sol = assert_forced([0.0, 1.0], leading=1, trailing=0)
        assert sol.weights.size == 1

    def test_two_leading_zeros(self):
        assert_forced([0.0, 0.0, 1.0], leading=2, trailing=0)

    def test_both_edges(self):
        assert_forced([0.0, 1.0, 0.0], leading=1, trailing=1)

    def test_solutions_with_zero_or_tiny_edges(self):
        assert_forced([0.0, 1.0, 0.3, 0.0], leading=1, trailing=1)
        # a tiny nonzero edge is a weight -1 up to rounding
        assert_forced([7.5e-220, 1.0, 1.0], leading=1, trailing=0)
        assert_forced([1e-14j, 0.25j, 0.0, 0.0, 0.5j], leading=1, trailing=0)

    @settings(max_examples=20, deadline=None)
    @given(inner=st.lists(complexes(1.0), min_size=1, max_size=4))
    @example(inner=[1j, -1j])  # between its zero edges, the unreachable ratio (1, -1)
    @example(  # np.roots sees an x = 1 pole that the pencil does not
        inner=[
            1.6484651252188402e-126 - 3.892370750090797e-126j,
            1.696628176543999 - 0.4676558601913817j,
            -1.169120821145701e-182 + 6.123701406437337e-183j,
            -1.3789963363464095 + 1.3688753671503113j,
        ]
    )
    @example(inner=[2.225073858507203e-309j, 1j])  # np.roots overflows on the subnormal edge
    def test_zero_edged_targets(self, inner):
        # A realization, whenever one is returned, must reproduce the target
        # and carry both forced weights.  np.roots on the trimmed
        # coefficients is no oracle for the pole on ill-conditioned inner
        # entries, so it only licenses a refusal, and is taken only then.
        coeffs = np.array([0.0] + list(inner) + [0.0], dtype=complex)
        if not np.any(coeffs != 0):
            return
        try:
            sol = inverse.solve_weights(inverse.TargetCoefficients(coeffs))[0]
        except SolverError as exc:
            pole = np.any(np.abs(np.roots(np.trim_zeros(coeffs)) - 1.0) <= 1e-9)
            assert pole and "pure-" in str(exc)
            return
        assert sol.residual <= 1e-9
        assert np.min(np.abs(sol.weights + 1)) <= 1e-12
        assert np.min(np.abs(sol.weights - 1)) <= 1e-12


class TestRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(coeff_arrays())
    def test_forward_reproduces_target(self, coeffs):
        target = inverse.TargetCoefficients(np.array(coeffs))
        sols = inverse.solve_weights(target)
        best = sols[0]
        assert best.residual <= 1e-9
        recon = protocol.forward_coeffs(best.weights)
        t = np.asarray(coeffs)
        scale = np.vdot(recon, t) / np.vdot(recon, recon)
        assert np.linalg.norm(scale * recon - t) / np.linalg.norm(t) <= 1e-9

    @pytest.mark.parametrize("n", [24, 32, 40, 48, 64, 80, 96, 112])
    def test_frontier_targets(self, n):
        # weights r e^{i theta}, r ~ U(0.2, 2), up to the largest degree the
        # planner is stated to solve
        rng = np.random.default_rng(2024 + n)
        for _ in range(10):
            p = rng.uniform(0.2, 2.0, n) * np.exp(2j * np.pi * rng.random(n))
            t = protocol.forward_coeffs(p)
            sol = inverse.solve_weights(inverse.TargetCoefficients(t))[0]
            recon = protocol.forward_coeffs(sol.weights)
            scale = np.vdot(recon, t) / np.vdot(recon, recon)
            assert np.linalg.norm(scale * recon - t) / np.linalg.norm(t) <= 1e-9

    def test_nominal_matches_weights(self, rng):
        c = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        sol = inverse.solve_weights(inverse.TargetCoefficients(c))[0]
        assert sol.p_nominal == pytest.approx(
            protocol.success_probability_nominal(sol.weights), rel=1e-12
        )


class TestBranchCompleteness:
    @settings(max_examples=30, deadline=None)
    @given(coeff_arrays(n_min=1, n_max=3))
    def test_census_matches_one_shot_root_oracle(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        c = c / np.max(np.abs(c))
        inner = np.trim_zeros(c)
        if abs(inner[0]) < 1e-3 or abs(inner[-1]) < 1e-3:
            return  # ill-scaled edges belong to the degenerate tests
        # np.roots drops leading zeros; each is a weight -1 (trailing zeros
        # come back as roots x = 0, weights +1)
        leading = np.flatnonzero(c)[0]
        oracle = np.concatenate([polynomial_all_roots_weights(c), -np.ones(leading)])
        if np.any(np.abs(oracle) > 1e6):
            return  # effectively infinite weight, rejected by design
        sols = inverse.solve_weights(inverse.TargetCoefficients(np.array(coeffs)))
        assert any(multiset(s.weights, digits=5) == multiset(oracle, digits=5) for s in sols)


class TestEdgeCases:
    def test_all_zero_target_rejected(self):
        with pytest.raises(ValueError):
            inverse.TargetCoefficients([0.0, 0.0])

    def test_extreme_magnitudes_normalized(self):
        # subnormal magnitudes once overflowed the projective normalization
        tiny = inverse.solve_weights(
            inverse.TargetCoefficients([0.0, 2.225073858507e-311j, 0.0])
        )
        assert tiny[0].residual <= 1e-9
        huge = inverse.solve_weights(
            inverse.TargetCoefficients([1e308, 1e308, 0.0])
        )
        assert huge[0].residual <= 1e-9

    def test_target_whose_largest_modulus_overflows(self):
        # |-1.7e308 + 1e308 i| is inf: scaled by the power of two of its
        # largest part, the target solves bitwise as its 2^-1000 multiple
        c = np.array([1.7e308, -1.7e308 + 1e308j, 1e300])
        scaled = np.ldexp(c.view(float), -1000).view(complex)
        (got,) = inverse.solve_weights(inverse.TargetCoefficients(c))
        (want,) = inverse.solve_weights(inverse.TargetCoefficients(scaled))
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_unreachable_component_ratio(self):
        # (1, -1) demands an internal state of pure |0>, i.e. infinite weight
        with pytest.raises(SolverError, match="pure-"):
            inverse.solve_weights(inverse.TargetCoefficients([1.0, -1.0]))

    def test_single_coefficient_not_solvable(self):
        with pytest.raises(ValueError):
            inverse.solve_weights(inverse.TargetCoefficients([1.0]))

    def test_large_reconstruction_keeps_a_finite_residual(self):
        # The solved weights' forward coefficients are finite but the sum of
        # their squares overflows; the residual must still be a number, with
        # no RuntimeWarning on the way.
        rng = np.random.default_rng(501)
        target = inverse.TargetCoefficients(rng.normal(size=501) + 1j * rng.normal(size=501))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"residual 9\.998e-01"):
                inverse.solve_weights(target)

    def test_residual_past_the_coefficient_overflow(self, monkeypatch):
        # 1,100 binomial coefficients, of 1,099 zero weights, whose unscaled
        # line leaves the float range; the eigen-solve is replaced by its
        # exact roots x = -1, so only the residual check runs at full length
        n = 1099
        target = inverse.TargetCoefficients([comb(n, k) / 2**n for k in range(n + 1)])
        roots = (-np.ones(n, dtype=complex), np.ones(n, dtype=complex))
        monkeypatch.setattr(inverse, "_qz_eigvals", lambda a, b: roots)
        (sol,) = inverse.solve_weights(target)
        assert np.array_equal(sol.weights, np.zeros(n))
        assert sol.residual <= 1e-9

    def test_imaginary_weights_from_unit_circle_roots(self):
        # roots on the unit circle map to purely imaginary weights
        sols = inverse.solve_weights(inverse.TargetCoefficients([1.0, -2.0 * np.cos(0.7), 1.0]))
        for s in sols:
            assert np.max(np.abs(s.weights.real)) <= 1e-8


class TestQZ:
    """The QZ call gives the weights of scipy's public generalized
    eigensolver bit for bit: on random targets, on the tiny and the
    subnormal edge, and on roots on the unit circle."""

    TARGETS = [
        [0, 1j, 1j, 5.2e-121j],
        [2.225e-309j, 1j],
        [1, -2 * np.cos(0.7), 1],
    ]

    def assert_pinned(self, coeffs):
        target = inverse.TargetCoefficients(coeffs)
        (sol,) = inverse.solve_weights(target)
        assert sol.weights.tobytes() == scipy_pencil_weights(target).tobytes()

    @pytest.mark.parametrize("n", range(1, 41))
    def test_random_targets(self, n):
        rng = np.random.default_rng(n)
        weights = rng.uniform(0.2, 2, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        self.assert_pinned(protocol.forward_coeffs(weights))

    @pytest.mark.parametrize("coeffs", TARGETS)
    def test_edge_targets(self, coeffs):
        self.assert_pinned(coeffs)


class TestFitTarget:
    def test_coherent_target_on_grid(self):
        target = fock.coherent_fock(0.3, 48)
        coeffs, fid = inverse.fit_target(target, 2, 0.3, 0.9)
        assert fid >= 1 - 1e-10
        # never worse than the best single component
        best_single = max(
            fock.fidelity_pure(fock.coherent_fock(0.3 + (2 * k - 2) * 0.9, 48), target)
            for k in range(3)
        )
        assert fid >= best_single - 1e-12

    def test_fock_two_frozen_oracle(self):
        target = fock.FockVector(np.eye(65)[2])
        coeffs, fid = inverse.fit_target(target, 4, 0j, 0.5)
        # frozen from an independent dense least-squares solve at cutoff 64
        assert fid == pytest.approx(0.968790132021108, abs=1e-9)
        assert fid >= 0.9

    def test_nesting_never_hurts(self):
        target = fock.FockVector(np.eye(65)[2])
        fids = [inverse.fit_target(target, n, 0j, 0.5)[1] for n in (2, 4, 6, 8)]
        for small, big in zip(fids, fids[1:]):
            assert big >= small - 1e-10

    def test_scale_and_phase_invariance(self):
        base = fock.coherent_fock(0.4j, 48)
        scaled = fock.FockVector(3.7 * np.exp(1.1j) * base.amps)
        _, f1 = inverse.fit_target(base, 3, 0j, 0.6)
        _, f2 = inverse.fit_target(scaled, 3, 0j, 0.6)
        assert f1 == pytest.approx(f2, abs=1e-12)

    def test_rejects_bad_inputs(self):
        target = fock.coherent_fock(0.3, 32)
        with pytest.raises(ValueError, match="beta"):
            inverse.fit_target(target, 3, 0j, 0j)
        with pytest.raises(ValueError):
            inverse.fit_target(fock.FockVector(np.zeros(9)), 3, 0j, 0.5)
        with pytest.raises(ValueError):
            inverse.fit_target(target, -1, 0j, 0.5)

    def test_grid_size_as_float(self):
        # an integral float fits as its int; any other float is bad input
        target = fock.coherent_fock(0.3, 32)
        coeffs, fid = inverse.fit_target(target, 4.0, 0j, 0.3)
        ref, ref_fid = inverse.fit_target(target, 4, 0j, 0.3)
        np.testing.assert_array_equal(coeffs.coeffs, ref.coeffs)
        assert fid == ref_fid
        for bad in (4.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^n must be an integer, got "):
                inverse.fit_target(target, bad, 0j, 0.3)

    def test_tight_grid_survives_regularization(self):
        # |beta| well below the coherent resolution scale: raw Gram is
        # numerically singular, the eigenvalue floor must keep this solvable
        target = fock.coherent_fock(0.1, 48)
        _, fid = inverse.fit_target(target, 6, 0j, 0.05)
        assert 0.9 <= fid <= 1.0

    def test_far_grid_is_silent_and_exact(self):
        # Components that lose most of their squared norm at the cutoff
        # raise no TruncationWarning here: their overlaps with the target
        # are exact, since the target has no amplitude above its cutoff.
        # Padding the target with zeros, so that no component is past it,
        # gives the same fit.
        target = fock.coherent_fock(0.5 + 0.2j, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, fid = inverse.fit_target(target, 8, 0j, 0.6)  # grid out to |4.8|
        padded = fock.FockVector(np.concatenate([target.amps, np.zeros(120)]))
        ref, ref_fid = inverse.fit_target(padded, 8, 0j, 0.6)
        assert fid == pytest.approx(ref_fid, abs=1e-14)
        np.testing.assert_allclose(coeffs.coeffs, ref.coeffs, rtol=0, atol=1e-14)

    def test_reported_fidelity_is_that_of_the_coefficients(self):
        # a random low-number target on a grid tight enough that the
        # eigenvalue floor acts; the true fidelity of the returned line is
        # taken on the number basis, far enough out to hold the grid
        rng = np.random.default_rng(7)
        top = int(rng.integers(1, 9))
        amps = np.zeros(41, dtype=complex)
        amps[: top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
        coeffs, fid = inverse.fit_target(fock.FockVector(amps), 48, 0j, 0.2)
        padded = fock.FockVector(np.concatenate([amps, np.zeros(400)]))
        line = protocol.LineSuperposition(0j, 0.2, coeffs.coeffs)
        with warnings.catch_warnings():
            # the fitted line's lag-sum norm cancels past the gate, so the
            # dump's truncation goes unchecked; the dump itself is exact
            warnings.simplefilter("ignore", fock.TruncationWarning)
            assert abs(fid - protocol.fidelity_to_target(line, padded)) <= 1e-7

    def test_matches_dense_gram_fit(self, rng):
        # |beta| >= 0.25 keeps every eigenvalue of K above the 1e-12 floor
        # (at worst 2e-8 of the largest), so the least-squares fit is unique
        # and both forms must find its fidelity; |labels| stay below 10,
        # where the dense form's exponents still carry 14 digits.
        for trial in range(40):
            n = int(rng.integers(0, 33))
            size = min(rng.uniform(0.25, 0.6), max(0.25, 8 / max(n, 1)))
            beta = size * np.exp(2j * np.pi * rng.random())
            alpha = complex(*rng.normal(0.0, 0.5, 2))
            cutoff = int(rng.integers(4, 41))
            target = fock.FockVector(rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1))
            _, fid = inverse.fit_target(target, n, alpha, beta)
            _, dense, dense_fid = dense_gram_fit(target, n, alpha, beta)
            assert abs(fid - dense_fid) <= 1e-8
            # the phased Gram is Toeplitz in the lag overlaps
            k = np.arange(n + 1)
            lagged = fock.line_overlaps(alpha, 2 * beta, n)[n + k - k[:, None]]
            assert np.max(np.abs(lagged - dense)) <= 1e-10

    @pytest.mark.parametrize("block", [None, 40])
    def test_component_overlaps_match_per_component_oracle(self, rng, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(fock, "_ROW_BLOCK", block)
        for trial in range(25):
            n = int(rng.integers(0, 65))
            cutoff = int(rng.integers(1, 61))
            amps = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
            amps[rng.random(cutoff + 1) < 0.3] = 0.0
            target = fock.FockVector(amps)
            # most grids lose part of their squared norm at the cutoff
            grid = protocol.LineSuperposition(
                complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.4, 2)), np.ones(n + 1)
            )
            labels, phases = grid.labels(), grid.phased_coeffs()
            got = inverse._component_overlaps(target, labels, phases)
            _assert_overlaps_close(got, fit_overlaps_per_component(target, labels, phases), target)

    def test_grid_of_several_row_blocks_matches_oracle(self, rng):
        # 700 components x 801 levels: two blocks of 654 rows at most
        target = fock.FockVector(rng.normal(size=801) + 1j * rng.normal(size=801))
        grid = protocol.LineSuperposition(0.3, 0.03 - 0.01j, np.ones(700))
        assert grid.coeffs.size * (target.cutoff + 1) > fock._ROW_BLOCK
        labels, phases = grid.labels(), grid.phased_coeffs()
        got = inverse._component_overlaps(target, labels, phases)
        _assert_overlaps_close(got, fit_overlaps_per_component(target, labels, phases), target)


def _assert_overlaps_close(got, want, target):
    """One matrix-vector product per row block sums each overlap in another
    order than a dot product per component: each of the cutoff + 1 terms,
    at most |target[n]| in modulus (a truncated coherent state has unit norm
    at most), may round differently."""
    assert got.shape == want.shape
    bound = 4 * (target.cutoff + 1) * np.finfo(float).eps * np.sum(np.abs(target.amps))
    assert np.max(np.abs(got - want), initial=0.0) <= bound


class _Admitted(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Admitted


class TestMemoryBudget:
    """Solves whose arrays would pass 1 GiB are refused before the large
    allocation; one size less is admitted."""

    @pytest.mark.parametrize("n, admitted", [(4728, True), (4729, False)])
    def test_fit_refused_before_the_gram(self, monkeypatch, n, admitted):
        # Stopped at the grid, the first array the fit builds, so an
        # admitted call allocates nothing large.
        monkeypatch.setattr(inverse, "LineSuperposition", _stop)
        refused = pytest.raises(SolverError, match=r"needs 1\.01 GiB")
        with pytest.raises(_Admitted) if admitted else refused:
            inverse.fit_target(fock.coherent_fock(0.3, 8), n, 0j, 0.5)

    @pytest.mark.parametrize("n, admitted", [(3096, True), (3097, False)])
    def test_plan_refused_before_the_pencil(self, monkeypatch, n, admitted):
        # Stopped at the power-of-two scaling, the first array the solve
        # builds, so an admitted call allocates nothing large.
        monkeypatch.setattr(inverse, "_unit_parts", _stop)
        target = inverse.TargetCoefficients(np.ones(n + 1))
        refused = pytest.raises(SolverError, match=r"needs 1\.01 GiB")
        with pytest.raises(_Admitted) if admitted else refused:
            inverse.solve_weights(target)
