"""Every record keeps its arrays as read-only copies and refuses empty,
misshapen, non-finite and (where real) complex data with one message per
kind of fault; the two public readers of weights refuse the same data the
same way."""

import re

import numpy as np
import pytest

from ile import chain, fock, inverse, multimode, protocol

PARAMS = protocol.PhysicalParams(eta=0.05, omega=0.01, delta=0.99, n_ions=1)
MODES = chain.normal_modes(chain.equilibrium_positions(2))

# name of the checked array, its valid value, and a record built from a
# replacement value, as the array it stores
RECORDS = {
    "Cycle": ("weights", np.array([0.3 + 0.1j, -0.2j]), lambda v: protocol.Cycle(80.0, v).weights),
    "LineSuperposition": (
        "coeffs", np.array([1.0, 0.5j, 0.2]), lambda v: protocol.LineSuperposition(0.3, 0.1, v).coeffs
    ),
    "TargetCoefficients": (
        "coeffs", np.array([1.0, 0.5j, 0.2]), lambda v: inverse.TargetCoefficients(v).coeffs
    ),
    "WeightSolution": (
        "weights", np.array([0.3, -0.4j]), lambda v: inverse.WeightSolution(v, 0.01, 0.0).weights
    ),
    "FockVector": ("amplitudes", np.array([0.6, 0.3j, 0.5]), lambda v: fock.FockVector(v).amps),
    "DisplacementMatrix": (
        "entries", np.eye(3, dtype=complex), lambda v: fock.DisplacementMatrix(0.1, v).entries
    ),
    "LeakageReport": (
        "per_mode_mean_phonon",
        np.array([0.1, 0.02]),
        lambda v: multimode.LeakageReport(v, 0.9, 0.95, 0.01).per_mode_mean_phonon,
    ),
    "ChainGeometry": (
        "positions", chain.equilibrium_positions(3).positions, lambda v: chain.ChainGeometry(v).positions
    ),
    "ModeTable.frequencies": (
        "frequencies", MODES.frequencies, lambda v: chain.ModeTable(v, MODES.vectors).frequencies
    ),
    "ModeTable.vectors": (
        "vectors", MODES.vectors, lambda v: chain.ModeTable(MODES.frequencies, v).vectors
    ),
}
# the public readers of weights, which store nothing
READERS = {
    "scaled_coeffs": ("weights", np.array([0.3, -0.4j]), protocol.scaled_coeffs),
    "success_probability_nominal": (
        "weights", np.array([0.3, -0.4j]), protocol.success_probability_nominal
    ),
}
CASES = {**RECORDS, **READERS}


def _with(value: np.ndarray, bad: float) -> np.ndarray:
    """``value`` with its first entry replaced by ``bad``."""
    out = value.copy()
    out.flat[0] = bad
    return out


@pytest.mark.parametrize("case", list(RECORDS))
def test_stored_arrays_are_read_only_copies(case):
    _, good, build = RECORDS[case]
    given = good.copy()
    stored = build(given)
    assert not stored.flags.writeable and stored.flags.c_contiguous
    given.flat[1] = 7.0
    assert np.array_equal(stored, good)
    with pytest.raises(ValueError, match="read-only"):
        stored.flat[0] = 7.0


@pytest.mark.parametrize("fault", ["empty", "ndim", "nan", "inf"])
@pytest.mark.parametrize("case", list(CASES))
def test_bad_arrays_are_refused_with_one_message(case, fault):
    name, good, build = CASES[case]
    if fault in ("nan", "inf"):
        value, message = _with(good, np.nan if fault == "nan" else np.inf), f"{name} must be finite"
    else:
        empty = np.empty((0,) * good.ndim, dtype=good.dtype)
        value = empty if fault == "empty" else (good[None] if good.ndim == 1 else good[0])
        message = f"{name} must be a non-empty {good.ndim}-D sequence"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


@pytest.mark.parametrize("case", [case for case in RECORDS if RECORDS[case][1].dtype == float])
def test_real_records_refuse_complex_data(case):
    name, good, build = RECORDS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be real')}$"):
        build(good + 1e-3j)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be real')}$"):
        build((good + 1e-3j).tolist())


# name of the checked complex scalar and a build from a replacement value
SCALARS = {
    "ProtocolPlan.alpha": (
        "alpha", lambda z: protocol.ProtocolPlan(PARAMS, z, (protocol.Cycle(80.0, [0.3]),))
    ),
    "LineSuperposition.alpha": ("alpha", lambda z: protocol.LineSuperposition(z, 0.1, [1.0])),
    "LineSuperposition.beta": ("beta", lambda z: protocol.LineSuperposition(0.3, z, [1.0])),
    "DisplacementMatrix.beta": ("beta", lambda z: fock.DisplacementMatrix(z, np.eye(2))),
}


@pytest.mark.parametrize("z", [complex(np.nan, 0.0), complex(0.0, np.inf)], ids=["nan", "inf"])
@pytest.mark.parametrize("case", list(SCALARS))
def test_non_finite_complex_scalars_are_refused(case, z):
    name, build = SCALARS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be finite, got {z!r}')}$"):
        build(z)
    assert isinstance(getattr(build(0.5), name), complex)


def _plan(n_ions):
    params = protocol.PhysicalParams(eta=0.05, omega=0.01, delta=0.99, n_ions=n_ions)
    return protocol.ProtocolPlan(params, 0.3, (protocol.Cycle(80.0, [0.3 + 0.1j]),) * 2)


def test_integral_ion_count_is_stored_as_an_int():
    # a float count passed the integer check but was kept, and every runner
    # then raised a bare TypeError on it
    plan, plan_float = _plan(1), _plan(1.0)
    assert type(plan_float.params.n_ions) is int and plan_float.params == plan.params
    modes = chain.normal_modes(chain.equilibrium_positions(1))
    cfg = multimode.TrotterConfig(cutoff=8, steps=10)
    for p in (plan, plan_float):
        assert repr(protocol.run_ideal(p)) == repr(protocol.run_ideal(plan))
        assert repr(multimode.analyze_plan(p, modes, False)) == repr(
            multimode.analyze_plan(plan, modes, False)
        )
        report = multimode.trotter_validate(p.params, modes, 20.0, cfg, [0.3 + 0.1j])
        assert report == multimode.trotter_validate(plan.params, modes, 20.0, cfg, [0.3 + 0.1j])


@pytest.mark.parametrize("n_ions", [1.5, 0.0, -1.0, np.nan, np.inf])
def test_ion_count_that_is_not_a_positive_integer_is_refused(n_ions):
    with pytest.raises(ValueError, match="^n_ions must be (an integer|at least 1), got "):
        _plan(n_ions)


def test_integral_trotter_counts_are_stored_as_ints():
    modes = chain.normal_modes(chain.equilibrium_positions(1))
    cfg = multimode.TrotterConfig(cutoff=8.0, steps=10.0)
    assert (type(cfg.cutoff), type(cfg.steps)) == (int, int)
    assert cfg == multimode.TrotterConfig(cutoff=8, steps=10)
    reports = [multimode.trotter_validate(PARAMS, modes, 20.0, c, [0.3 + 0.1j])
               for c in (cfg, multimode.TrotterConfig(cutoff=8, steps=10))]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, kw", [
    ("cutoff", {"cutoff": 8.5, "steps": 10}),
    ("steps", {"cutoff": 8, "steps": 10.5}),
    ("cutoff", {"cutoff": np.inf, "steps": 10}),
    ("steps", {"cutoff": 8, "steps": np.nan}),
], ids=["cutoff-8.5", "steps-10.5", "cutoff-inf", "steps-nan"])
def test_trotter_counts_that_are_not_integers_are_refused(name, kw):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        multimode.TrotterConfig(**kw)
