"""The library's argument rule (:mod:`ile.errors`) at every public entry.

From a valid call of each public function or record, one scalar argument at a
time, a count, a real, a complex number or a flag, is set to each of
``VALUES``.  Every outcome is a return whose floats are all finite, a
ValueError or a :class:`ile.errors.SolverError`; never a TypeError, an
OverflowError or another escape.  A bool in a number's place, and anything
but a bool in a flag's place, raises the rule's ValueError, "<name> must be
<kind>, got <value>".  The probe is exhaustive, so it needs no random draw.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from ile import chain, fock, inverse, multimode, protocol
from ile.errors import SolverError

VALUES = [True, False, 1.5, 2.0, math.nan, math.inf, -math.inf, -1, 0, 10**400,
          1e308, -1e308, 5e-324, np.float32(2), np.int64(3)]
VALUE_IDS = ["True", "False", "1.5", "2.0", "nan", "inf", "-inf", "-1", "0", "10**400",
             "1e308", "-1e308", "5e-324", "float32(2)", "int64(3)"]

PARAMS = dict(eta=0.05, omega=0.01, delta=0.99, n_ions=1)
PARAMS1 = protocol.PhysicalParams(**PARAMS)
MODES1 = chain.normal_modes(chain.equilibrium_positions(1))
PLAN = protocol.ProtocolPlan(PARAMS1, 0.3 + 0.1j, (protocol.Cycle(80.0, [0.3 + 0.1j]),) * 2)
LINE = protocol.LineSuperposition(0.3, 0.1j, [1.0, 0.5])
TARGET = fock.coherent_fock(0.3, 12)
CFG = dict(cutoff=8, steps=10, include_fast_terms=False)
TROTTER = dict(params=PARAMS1, modes=MODES1, t=20.0, cfg=multimode.TrotterConfig(**CFG),
               weights=[0.3 + 0.1j], alpha=0j)
FIT = dict(target=TARGET, n=4, alpha=0j, beta=0.3)


def _with(call, base: dict, name: str):
    """``call(**base)`` with ``base[name]`` replaced by the probed value."""
    return lambda value: call(**{**base, name: value})


def _analyze_points(**kw):
    return list(multimode.analyze_points(PLAN, MODES1, deltas=[0.99], ts=[80.0], **kw))


def _displacements(t, integrated):
    return multimode.cycle_displacements(MODES1, PARAMS1, t, integrated)


def _trotter(**kw):
    return multimode.trotter_validate(**{**TROTTER, **kw})


# (entry, argument) -> (kind, call with the probed value)
CASES = {
    **{("PhysicalParams", a): (k, _with(protocol.PhysicalParams, PARAMS, a))
       for a, k in [("eta", "real"), ("omega", "real"), ("delta", "real"), ("n_ions", "count")]},
    ("Cycle", "duration"): ("real", lambda v: protocol.Cycle(v, [0.3])),
    ("ProtocolPlan", "alpha"): ("complex", lambda v: protocol.ProtocolPlan(PARAMS1, v, PLAN.cycles)),
    ("LineSuperposition", "alpha"): ("complex", lambda v: protocol.LineSuperposition(v, 0.1j, [1])),
    ("LineSuperposition", "beta"): ("complex", lambda v: protocol.LineSuperposition(0.3, v, [1])),
    ("beta_of", "t"): ("real", lambda v: protocol.beta_of(PARAMS1, v)),
    ("to_fock", "cutoff"): ("count", lambda v: protocol.to_fock(LINE, v)),
    ("DisplacementMatrix", "beta"): ("complex", lambda v: fock.DisplacementMatrix(v, np.eye(3))),
    ("recommended_cutoff", "gamma_max"): ("real", fock.recommended_cutoff),
    ("coherent_fock", "alpha"): ("complex", lambda v: fock.coherent_fock(v, 12)),
    ("coherent_fock", "cutoff"): ("count", lambda v: fock.coherent_fock(0.3, v)),
    ("coherent_table", "cutoff"): ("count", lambda v: fock.coherent_table([0.3, 0.1j], v)),
    ("coherent_blocks", "cutoff"): ("count", lambda v: list(fock.coherent_blocks([0.3, 1j], v))),
    ("displacement_matrix", "beta"): ("complex", lambda v: fock.displacement_matrix(v, 8)),
    ("displacement_matrix", "cutoff"): ("count", lambda v: fock.displacement_matrix(0.1, v)),
    ("apply_displacement", "beta"): ("complex", lambda v: fock.apply_displacement(TARGET, v)),
    ("coherent_overlap", "g1"): ("complex", lambda v: fock.coherent_overlap(v, 0.3)),
    ("coherent_overlap", "g2"): ("complex", lambda v: fock.coherent_overlap(0.3, v)),
    ("line_overlaps", "alpha"): ("complex", lambda v: fock.line_overlaps(v, 0.2 + 0.1j, 3)),
    ("line_overlaps", "n"): ("count", lambda v: fock.line_overlaps(0.3, 0.2 + 0.1j, v)),
    ("displacement_phase", "alpha"): ("complex", lambda v: fock.displacement_phase([0.2, 1j], v)),
    ("equilibrium_positions", "n_ions"): ("count", chain.equilibrium_positions),
    ("lamb_dicke", "eta"): ("real", lambda v: chain.lamb_dicke(MODES1, v)),
    **{("fit_target", a): (k, _with(inverse.fit_target, FIT, a))
       for a, k in [("n", "count"), ("alpha", "complex"), ("beta", "complex")]},
    ("cycle_displacements", "t"): ("real", lambda v: _displacements(v, True)),
    ("cycle_displacements", "integrated"): ("flag", lambda v: _displacements(80.0, v)),
    ("analyze_points", "integrated"): ("flag", lambda v: _analyze_points(integrated=v)),
    ("analyze_plan", "integrated"): ("flag", lambda v: multimode.analyze_plan(PLAN, MODES1, v)),
    **{("TrotterConfig", a): (k, _with(multimode.TrotterConfig, CFG, a))
       for a, k in [("cutoff", "count"), ("steps", "count"), ("include_fast_terms", "flag")]},
    ("trotter_validate", "t"): ("real", lambda v: _trotter(t=v)),
    ("trotter_validate", "alpha"): ("complex", lambda v: _trotter(alpha=v)),
}

# Public names the probe leaves out: each takes arrays or records alone, or
# is a record the library fills with its own results.
NO_SCALARS = {
    "RegimeWarning", "ProtocolResult", "forward_coeffs", "scaled_coeffs",
    "success_probability_nominal", "log_slot_nominal", "success_probability_exact", "run_ideal",
    "fidelity_to_target", "cancellation_errors", "TruncationWarning", "FockVector", "inner",
    "norm", "fidelity_pure", "ChainGeometry", "ModeTable", "potential_gradient", "normal_modes",
    "TargetCoefficients", "WeightSolution", "solve_weights", "LeakageReport", "TrotterReport",
}


def _finite(result) -> bool:
    """Every float and complex part in ``result`` (records, tuples, lists and
    arrays searched through) is finite."""
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(_finite(x) for x in result)
    if isinstance(result, (np.ndarray, float, complex, np.number)) and not isinstance(result, int):
        return bool(np.all(np.isfinite(result)))
    return True


def test_every_public_name_is_probed_or_listed():
    names = {entry for entry, _ in CASES} | NO_SCALARS
    public = {n for m in (protocol, fock, chain, inverse, multimode) for n in m.__all__}
    assert names == public


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("case", list(CASES), ids=[f"{e}.{a}" for e, a in CASES])
def test_scalar_argument_follows_the_rule(case, value):
    kind, call = CASES[case]
    # a bool for a number, or anything else for a flag: the rule's own refusal
    refused = (kind == "flag") != isinstance(value, (bool, np.bool_))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # regime and truncation warnings
        try:
            result = call(value)
        except (ValueError, SolverError) as exc:
            if refused:
                rule = f"must be an? [^,]+, got {re.escape(repr(value))}$"  # not "at least"
                assert isinstance(exc, ValueError) and re.search(rule, str(exc)), exc
            return
    assert not refused, f"{case} kept {value!r}"
    assert _finite(result), f"{case} at {value!r} returned a non-finite float"


@pytest.mark.parametrize("value", [None, "0.3", [0.3]], ids=["None", "str", "list"])
@pytest.mark.parametrize("name", ["eta", "n_ions"])
def test_non_number_raises_type_error(name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an? (number|integer), got "):
        protocol.PhysicalParams(**{**PARAMS, name: value})


# Regression cases: each was a silent wrong answer or an unnamed error.
def test_bool_ion_count_is_refused():
    with pytest.raises(ValueError, match="^n_ions must be an integer, got True$"):
        protocol.PhysicalParams(**{**PARAMS, "n_ions": True})


def test_string_fast_terms_flag_is_refused():
    with pytest.raises(ValueError, match="^include_fast_terms must be a bool, got 'no'$"):
        multimode.TrotterConfig(cutoff=8, steps=10, include_fast_terms="no")


def test_negative_block_cutoff_is_refused():
    with pytest.raises(ValueError, match="^cutoff must be at least 1, got -1$"):
        list(fock.coherent_blocks([0.3], -1))


def test_half_integer_lag_count_is_refused():
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
        fock.line_overlaps(0.3, 0.2, 2.5)


def test_nan_integrated_flag_is_refused():
    with pytest.raises(ValueError, match="^integrated must be a bool, got nan$"):
        multimode.analyze_plan(PLAN, MODES1, integrated=float("nan"))


def test_overlap_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match=re.escape("|g|^2 must lie in the float range")):
        fock.coherent_overlap(1e308, 1)


@pytest.mark.parametrize("name, call", [
    ("labels", lambda x: fock.coherent_table([x], 4)),
    ("labels", lambda x: list(fock.coherent_blocks([x], 4))),
    ("step", lambda x: fock.line_overlaps(0.3, x, 2)),
    ("beta", lambda x: fock.displacement_phase([x], 0.3)),
    ("weights", lambda x: protocol.Cycle(80.0, [x])),
    ("weights", lambda x: protocol.log_slot_nominal([x])),
    ("positions", lambda x: chain.potential_gradient([-x, x])),
    ("deltas", lambda x: list(multimode.analyze_points(PLAN, MODES1, True, [x], [80.0]))),
    ("ts", lambda x: list(multimode.analyze_points(PLAN, MODES1, True, [0.99], [x]))),
], ids=["coherent_table", "coherent_blocks", "line_overlaps", "displacement_phase", "Cycle",
        "log_slot_nominal", "potential_gradient", "analyze_points.deltas", "analyze_points.ts"])
def test_array_entry_past_the_float_range_is_refused(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        call(10**400)
