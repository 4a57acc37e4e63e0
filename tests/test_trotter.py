import warnings

import numpy as np
import pytest

from ile import fock, multimode, protocol
from ile.errors import IntegratorError

from oracles import sparse_trotter_validate, stepped_trotter_validate


def test_config_validation():
    with pytest.raises(ValueError):
        multimode.TrotterConfig(cutoff=0, steps=20)
    with pytest.raises(ValueError):
        multimode.TrotterConfig(cutoff=16, steps=5)


def test_vanishing_drive_is_identity(mode_tables):
    params = protocol.PhysicalParams(eta=1e-12, omega=0.005, delta=0.99, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=8, steps=10)
    rep = multimode.trotter_validate(params, mode_tables[1], 100.0, cfg, weights=[0.3 + 0.1j])
    assert rep.fidelity_integrated >= 1 - 1e-8
    assert rep.fidelity_endpoint >= 1 - 1e-8
    # survival probability is the internal projection alone
    assert rep.conditional_weight == pytest.approx(1.0 / 1.1, abs=1e-8)


def test_second_order_convergence_and_prediction_ranking(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=16, steps=20)
    rep = multimode.trotter_validate(params, mode_tables[1], 100.0, cfg, weights=[1.0])
    assert 3.5 <= rep.step_halving_ratio <= 4.5
    # the integrated window is the true first-order propagator; the endpoint
    # formula is only its stationary-phase snapshot
    assert rep.fidelity_integrated >= rep.fidelity_endpoint
    assert rep.fidelity_integrated >= 1 - 1e-9
    assert rep.fidelity_endpoint < 1 - 1e-5


def test_prediction_ranking_with_zero_weights(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=16, steps=20)
    rep = multimode.trotter_validate(params, mode_tables[1], 100.0, cfg)
    assert rep.fidelity_integrated >= rep.fidelity_endpoint


def test_fast_terms_effect_reported(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=16, steps=20, include_fast_terms=True)
    rep = multimode.trotter_validate(params, mode_tables[1], 100.0, cfg)
    assert rep.fast_terms_effect is not None
    assert 0 <= rep.fast_terms_effect < 1e-3  # small, but visibly nonzero
    assert rep.fast_terms_effect > 1e-12


def test_two_ion_referee(mode_tables):
    params = protocol.PhysicalParams(eta=0.08, omega=0.01, delta=0.98, n_ions=2)
    cfg = multimode.TrotterConfig(cutoff=10, steps=16)
    rep = multimode.trotter_validate(
        params, mode_tables[2], 50.0, cfg, weights=[0.5, -0.5j]
    )
    assert 3.0 <= rep.step_halving_ratio <= 5.0
    assert rep.fidelity_integrated >= rep.fidelity_endpoint
    assert rep.fidelity_integrated >= 1 - 1e-6


def test_predicted_component_past_the_cutoff_warns(mode_tables):
    """The initial ket |1.9i> and the predicted component of modulus 2.1
    (|beta| = 0.2) lose 1.2% and 3.6% of their squared norm at cutoff 8, and
    0.4% and 1.5% at cutoff 9: one warning each.  Cutoff 21 is the smallest
    that keeps both within 1e-8, and nothing warns."""
    params = protocol.PhysicalParams(eta=0.05, omega=0.01, delta=1.0, n_ions=1)
    assert abs(protocol.beta_of(params, 400.0)) == pytest.approx(0.2)
    for cutoff, kept in ((8, "0.964"), (9, "0.985")):
        with pytest.warns(fock.TruncationWarning, match=f"cutoff {cutoff} keeps {kept} ") as record:
            multimode.trotter_validate(
                params, mode_tables[1], 400.0, multimode.TrotterConfig(cutoff=cutoff, steps=10),
                alpha=1.9j,
            )
        assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", fock.TruncationWarning)
        multimode.trotter_validate(
            params, mode_tables[1], 400.0, multimode.TrotterConfig(cutoff=21, steps=10), alpha=1.9j
        )


def test_truncation_warning_names_the_callers_line(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.01, delta=1.0, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=8, steps=10)
    with pytest.warns(fock.TruncationWarning) as record:
        multimode.trotter_validate(params, mode_tables[1], 400.0, cfg, alpha=1.9j)
    assert record[0].filename == __file__


def test_desk_scale_guards(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=2)
    with pytest.raises(ValueError, match="desk scale"):
        multimode.trotter_validate(
            params, mode_tables[2], 100.0, multimode.TrotterConfig(cutoff=200, steps=10)
        )
    params3 = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=3)
    with pytest.raises(ValueError, match="n_ions"):
        multimode.trotter_validate(
            params3, mode_tables[3], 100.0, multimode.TrotterConfig(cutoff=8, steps=10)
        )


def test_weight_count_checked(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=8, steps=10)
    with pytest.raises(ValueError):
        multimode.trotter_validate(params, mode_tables[1], 100.0, cfg, weights=[0.1, 0.2])


def test_non_finite_weights_refused(mode_tables):
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=8, steps=10)
    for bad in (float("nan"), float("inf"), complex(0.0, float("-inf"))):
        with pytest.raises(ValueError, match="finite"):
            multimode.trotter_validate(params, mode_tables[1], 100.0, cfg, weights=[bad])


@pytest.mark.parametrize("cutoff", [8, 16, 40])
@pytest.mark.parametrize("steps", [10, 40, 160])
def test_exact_step_at_resonance_is_healthy(mode_tables, cutoff, steps):
    """At delta = 1 one ion's Hamiltonian is constant, so the midpoint rule is
    exact and both deviations are rounding noise (1-4 eps per step, just
    above 1e-13 at 40 base steps): no ratio is taken from them."""
    params = protocol.PhysicalParams(eta=0.05, omega=0.01, delta=1.0, n_ions=1)
    cfg = multimode.TrotterConfig(cutoff=cutoff, steps=steps)
    rep = multimode.trotter_validate(params, mode_tables[1], 20.0, cfg)
    assert rep.step_halving_ratio == 4.0
    assert rep.fidelity_integrated >= 1 - 1e-9


class _Admitted(Exception):
    pass


@pytest.mark.parametrize(
    "n_ions, cutoff, admitted",
    [(2, 99, True), (2, 100, False), (1, 1413, True), (1, 1414, False)],
)
def test_step_cost_guard_edge(mode_tables, monkeypatch, n_ions, cutoff, admitted):
    """2^n (cutoff + 1)^(n + 1) <= 4e6 is admitted, one cutoff more is not,
    and a refused call stops before the eigen-decomposition."""

    def stop(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(multimode, "_position_basis", stop)
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=n_ions)
    cfg = multimode.TrotterConfig(cutoff=cutoff, steps=10)
    expected = pytest.raises(_Admitted) if admitted else pytest.raises(ValueError, match="desk scale")
    with expected:
        multimode.trotter_validate(params, mode_tables[n_ions], 100.0, cfg)


@pytest.mark.parametrize(
    "n_ions, cutoff, steps, fast, admitted",
    [
        (1, 1413, 815, True, True),
        (1, 1413, 816, True, False),
        (2, 99, 61962, False, True),
        (2, 99, 61963, False, False),
        (1, 16, 1437355, False, True),
        (1, 16, 1437356, False, False),
        (1, 16, np.int64(2**61), False, False),  # wraps round to a negative cost in int64
    ],
)
def test_run_cost_guard_edge(mode_tables, monkeypatch, n_ions, cutoff, steps, fast, admitted):
    """A whole run of at most 3.6e10 multiply-adds, each step counted with its
    fixed cost, is admitted and one step more is not, at the largest step,
    at two ions and at the default cutoff, and a numpy step count is costed
    without wrapping; a refused call stops before the eigen-decomposition."""

    def stop(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(multimode, "_position_basis", stop)
    params = protocol.PhysicalParams(eta=0.05, omega=0.005, delta=0.99, n_ions=n_ions)
    cfg = multimode.TrotterConfig(cutoff=cutoff, steps=steps, include_fast_terms=fast)
    expected = pytest.raises(_Admitted) if admitted else pytest.raises(ValueError, match="desk scale")
    with expected:
        multimode.trotter_validate(params, mode_tables[n_ions], 100.0, cfg)


# (n_ions, eta, omega, delta, t, cutoff, steps, weights, alpha, fast terms)
_ORACLE_CASES = [
    (1, 0.05, 0.005, 0.99, 100.0, 16, 20, [1.0], 0j, False),
    (1, 0.05, 0.005, 0.99, 100.0, 16, 20, None, 0.3 + 0.2j, True),
    (1, 0.08, 0.01, 0.97, 60.0, 12, 10, [0.3 + 0.1j], 0j, True),
    (2, 0.08, 0.01, 0.98, 50.0, 10, 16, [0.5, -0.5j], 0j, False),
    (2, 0.08, 0.01, 0.98, 50.0, 8, 12, [0.5, -0.5j], 0.4 - 0.1j, True),
    (2, 0.05, 0.05, 0.99, 20.0, 8, 10, None, 0j, True),
    (2, 0.05, 0.005, 0.99, 100.0, 8, 10, None, 0.2j, False),
    # the benchmark's shapes: its largest two-ion full-terms run, and both
    # ends of its detuning ranges (one ion near resonance, two ions at 0.6)
    (2, 0.05, 0.02, 0.8, 6.0, 14, 30, [0.4 + 0.2j, -0.3j], 0.2 - 0.1j, True),
    (1, 0.05, 0.0005, 0.999, 1000.0, 12, 20, [0.5], 0j, True),
    (1, 0.05, 0.0005, 0.999, 1000.0, 12, 20, [0.5 - 0.5j], 0.1j, False),
    (2, 0.05, 0.03, 0.6, 3.0, 10, 20, [0.2, 0.3 + 0.3j], 0j, False),
    (2, 0.05, 0.03, 0.6, 3.0, 10, 20, None, 0.3, True),
]


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_structured_step_matches_sparse_krylov_referee(mode_tables, case):
    n, eta, omega, delta, t, cutoff, steps, weights, alpha, fast = case
    params = protocol.PhysicalParams(eta=eta, omega=omega, delta=delta, n_ions=n)
    cfg = multimode.TrotterConfig(cutoff=cutoff, steps=steps, include_fast_terms=fast)
    got = multimode.trotter_validate(params, mode_tables[n], t, cfg, weights=weights, alpha=alpha)
    ref = sparse_trotter_validate(params, mode_tables[n], t, cfg, weights=weights, alpha=alpha)
    assert got.step_halving_ratio == pytest.approx(ref.step_halving_ratio, rel=1e-7, abs=0)
    assert got.fidelity_integrated == pytest.approx(ref.fidelity_integrated, rel=0, abs=1e-12)
    assert got.fidelity_endpoint == pytest.approx(ref.fidelity_endpoint, rel=0, abs=1e-12)
    assert got.conditional_weight == pytest.approx(ref.conditional_weight, rel=1e-11, abs=0)
    if fast:
        assert got.fast_terms_effect == pytest.approx(ref.fast_terms_effect, rel=0, abs=1e-12)
    else:
        assert got.fast_terms_effect is None and ref.fast_terms_effect is None


def _stepped_case(seed: int):
    """Random referee inputs in the benchmark's healthy ranges: nonzero weights,
    alpha != 0, cutoffs 4-30, steps 10-41; odd seeds take two ions, and
    seeds 2-3 mod 4 reinstate the fast terms."""
    rng = np.random.default_rng([20261018, seed])
    n, fast = 1 + seed % 2, seed % 4 >= 2
    lo, hi = (0.95, 0.999) if n == 1 else (0.6, 0.9)
    delta = rng.uniform(lo, hi)
    t = rng.uniform(0.5, 2.0) / (1.0 - delta)
    omega = min(0.05, rng.uniform(0.05, 0.3) / (0.05 * t))
    weights = rng.normal(0.0, 0.5, n) + 1j * rng.normal(0.0, 0.5, n)
    alpha = complex(*rng.uniform(-0.5, 0.5, 2))
    params = protocol.PhysicalParams(eta=0.05, omega=omega, delta=delta, n_ions=n)
    cfg = multimode.TrotterConfig(
        cutoff=int(rng.integers(4, 31)), steps=int(rng.integers(10, 42)), include_fast_terms=fast
    )
    return params, t, cfg, weights, alpha


@pytest.mark.parametrize("seed", range(16))
def test_sector_run_matches_stepped_full_state_referee(mode_tables, seed):
    """The per-sector, per-mode rotating-wave run and the blocked fast-terms
    rotations against the referee that stepped the whole state one rotation
    at a time."""
    params, t, cfg, weights, alpha = _stepped_case(seed)
    modes = mode_tables[params.n_ions]
    got = multimode.trotter_validate(params, modes, t, cfg, weights=weights, alpha=alpha)
    ref = stepped_trotter_validate(params, modes, t, cfg, weights=weights, alpha=alpha)
    assert got.fidelity_integrated == pytest.approx(ref.fidelity_integrated, rel=0, abs=1e-13)
    assert got.fidelity_endpoint == pytest.approx(ref.fidelity_endpoint, rel=0, abs=1e-13)
    assert got.conditional_weight == pytest.approx(ref.conditional_weight, rel=0, abs=1e-12)
    assert got.step_halving_ratio == pytest.approx(ref.step_halving_ratio, rel=1e-7, abs=0)
    if cfg.include_fast_terms:
        assert got.fast_terms_effect == pytest.approx(ref.fast_terms_effect, rel=0, abs=1e-13)
    else:
        assert got.fast_terms_effect is None and ref.fast_terms_effect is None
