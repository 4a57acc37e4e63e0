import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from ile import fock, protocol
from ile.errors import SolverError
from conftest import complexes


def test_vacuum_coherent():
    v = fock.coherent_fock(0j, 8)
    assert v.amps[0] == 1.0
    assert np.all(v.amps[1:] == 0)


def test_coherent_ground_amplitude():
    v = fock.coherent_fock(1.0, 32)
    assert abs(v.amps[0] - np.exp(-0.5)) < 1e-15


def test_coherent_norm_converges():
    v = fock.coherent_fock(0.5 + 0.5j, 32)
    assert abs(fock.norm(v) - 1.0) < 1e-12


# (g, cutoff) whose ket loses more than 1e-8 of its squared norm, though
# |g| is within sqrt(cutoff / 2) in all but the first
LOSSY = [(3.0, 8), (0.9, 2), (2.0, 8), (2.0, 12), (3.0, 18), (39.0, 8000)]


def test_coherent_truncation_warning():
    for g, cutoff in LOSSY:
        with pytest.warns(fock.TruncationWarning, match=f"cutoff {cutoff} keeps") as record:
            fock.coherent_fock(g, cutoff)
        assert len(record) == 1


def _warnings_of(call, *args):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        call(*args)
    return [(w.category, str(w.message)) for w in record]


@pytest.mark.parametrize("g, cutoff", LOSSY[:3] + [(0.5, 40)])
def test_coherent_fock_and_to_fock_judge_one_component_alike(g, cutoff):
    line = protocol.LineSuperposition(alpha=g, beta=0.0, coeffs=[1.0])
    from_ket = _warnings_of(fock.coherent_fock, g, cutoff)
    assert from_ket == _warnings_of(protocol.to_fock, line, cutoff)
    assert len(from_ket) == (cutoff != 40)


def test_lost_share_is_reported():
    with pytest.warns(fock.TruncationWarning, match=r"off 1 by -0\.000274"):
        v = fock.coherent_fock(2.0, 12)
    # the lost share is the Poisson(4) weight above level 12
    poisson_tail = 1.0 - math.exp(-4.0) * math.fsum(4.0**n / math.factorial(n) for n in range(13))
    assert 1.0 - fock.norm(v) ** 2 == pytest.approx(poisson_tail, rel=1e-9)


def test_coherent_fock_bitwise_matches_array_recurrence(rng):
    amplitudes = [0j]
    amplitudes += [complex(x) for x in rng.uniform(-5, 5, 40)]
    amplitudes += [complex(0, y) for y in rng.uniform(-5, 5, 40)]
    amplitudes += list(rng.uniform(0, 5, 120) * np.exp(2j * np.pi * rng.random(120)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        for alpha in amplitudes:
            for cutoff in (1, 2, int(rng.integers(3, 80)), 80):
                want = oracles.coherent_fock_one_row(alpha, cutoff)
                assert np.array_equal(fock.coherent_fock(alpha, cutoff).amps, want)
                assert np.array_equal(fock.coherent_table([alpha], cutoff)[0], want)
        table = fock.coherent_table(amplitudes, 80)
        for alpha, row in zip(amplitudes, table):
            assert np.array_equal(row, oracles.coherent_fock_one_row(alpha, 80))


def _grid_labels(rng, size):
    """Random labels: zero, signed-zero parts, components that lose most of
    their squared norm at the cutoff, and moduli past 1e150 where every
    amplitude is 0."""
    labels = rng.uniform(0, 9, size) * np.exp(2j * np.pi * rng.random(size))
    labels[: size // 8] = 0j
    labels[size // 8 : size // 4] = [complex(-0.0, y) for y in rng.uniform(-3, 3, size // 4 - size // 8)]
    labels[size // 4 : size // 4 + 3] = [complex(0.0, -0.0), 1e160, -2e200j]
    return rng.permutation(labels)


def test_coherent_table_rows_are_coherent_fock_bitwise(rng):
    """Every row, signs of zero and moduli past 1e150 included, is the ratio
    recurrence run for its label alone, and so is ``coherent_fock``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        for trial in range(30):
            labels = _grid_labels(rng, int(rng.integers(8, 70)))
            cutoff = int(rng.integers(1, 90))
            table = fock.coherent_table(labels, cutoff)
            assert table.shape == (labels.size, cutoff + 1)
            for g, row in zip(labels, table):
                # tobytes: signs of zero count too
                want = oracles.coherent_fock_one_row(g, cutoff).tobytes()
                assert row.tobytes() == want
                assert fock.coherent_fock(g, cutoff).amps.tobytes() == want


def test_coherent_table_matches_mpmath(rng):
    """Every row at every cutoff up to 120 is within 1e-13 of its largest
    amplitude of the mpmath ket, rows past 1e150 are exactly 0, and
    ``coherent_fock`` is the row of the table bitwise."""
    labels = [0j]
    labels += [complex(x) for x in rng.uniform(-5, 5, 40)]
    labels += [complex(0, y) for y in rng.uniform(-5, 5, 40)]
    labels += list(rng.uniform(0, 5, 120) * np.exp(2j * np.pi * rng.random(120)))
    labels = np.array(labels + list(_grid_labels(rng, 64)))
    want = np.array([oracles.coherent_fock_mp(g, 120) for g in labels])
    far = np.abs(labels) > 1e150
    assert far.sum() == 2 and not want[far].any()
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        for cutoff in range(1, 121):
            table = fock.coherent_table(labels, cutoff)
            assert table.shape == (labels.size, cutoff + 1)
            assert np.all(np.abs(table - want[:, : cutoff + 1]) <= 1e-13 * scale)
            assert not table[far].any()
            for j in rng.choice(labels.size, 8, replace=False):
                assert fock.coherent_fock(labels[j], cutoff).amps.tobytes() == table[j].tobytes()


@pytest.mark.parametrize("block", [None, 1, 100])
def test_coherent_rows_match_the_table_across_blocks(rng, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(fock, "_ROW_BLOCK", block)
    labels = _grid_labels(rng, 41)
    for cutoff in (1, 9, 30):
        rows = np.concatenate(list(fock.coherent_blocks(labels, cutoff)))
        assert rows.tobytes() == fock.coherent_table(labels, cutoff).tobytes()


def test_coherent_table_rejects_bad_inputs():
    with pytest.raises(ValueError, match="finite"):
        fock.coherent_table([0.5, complex(np.inf, 0)], 4)
    with pytest.raises(ValueError, match="cutoff"):
        fock.coherent_table([0.5], 0)
    with pytest.raises(ValueError, match="1-D"):
        fock.coherent_table([[0.5]], 4)
    assert fock.coherent_table([], 4).shape == (0, 5)


@settings(max_examples=40, deadline=None)
@given(complexes(3.0), complexes(1.0))
def test_line_overlaps_are_displaced_overlaps(alpha, step):
    got = fock.line_overlaps(alpha, step, 3)
    for d, value in zip(range(-3, 4), got):
        g = d * step
        want = fock.displacement_phase(g, alpha) * fock.coherent_overlap(alpha, alpha + g)
        assert abs(value - want) <= 1e-13


@pytest.mark.parametrize("step", [2e154, 1e160, 1e300j])
def test_line_overlaps_past_the_squared_step_range(step):
    # |step|^2 overflows a Python float past about 1.3e154; the values are
    # then the exact limit: 1 at lag 0, 0 elsewhere
    got = fock.line_overlaps(0.3 + 0.1j, step, 2)
    assert np.array_equal(got, [0, 0, 1, 0, 0])


def test_line_overlaps_at_an_infinite_step():
    # a finite beta past 9e307 doubles to an infinite step; the limit stays
    # exact, and a NaN step is still refused
    got = fock.line_overlaps(0.3 + 0.1j, complex("inf"), 2)
    assert np.array_equal(got, [0, 0, 1, 0, 0])
    assert protocol.LineSuperposition(0.1, 1e308, [1.0]).norm_sq() == 1.0
    with pytest.raises(ValueError, match="step"):
        fock.line_overlaps(0.3, complex("nan"), 2)


def test_displacement_identity_at_zero():
    d = fock.displacement_matrix(0j, 16)
    assert np.array_equal(d.entries, np.eye(17))


def test_displacement_single_quantum_entry():
    d = fock.displacement_matrix(0.5, 16)
    assert abs(d.entries[1, 0] - 0.5 * np.exp(-0.125)) < 1e-15


def test_displacement_column_zero_is_coherent():
    for beta in (0.3, -1.2 + 0.4j, 1 + 1j):
        d = fock.displacement_matrix(beta, 48)
        assert np.array_equal(d.entries[:, 0], fock.coherent_fock(beta, 48).amps)


def test_displacement_matches_laguerre_closed_form():
    from scipy.special import genlaguerre
    from math import factorial

    for beta in (0.7, -0.4 + 0.9j, 1.3j):
        d = fock.displacement_matrix(beta, 16).entries
        x = abs(beta) ** 2
        for m in range(13):
            for n in range(13):
                if m >= n:
                    closed = (
                        np.sqrt(factorial(n) / factorial(m))
                        * beta ** (m - n)
                        * np.exp(-x / 2)
                        * genlaguerre(n, m - n)(x)
                    )
                else:
                    closed = (
                        np.sqrt(factorial(m) / factorial(n))
                        * (-np.conj(beta)) ** (n - m)
                        * np.exp(-x / 2)
                        * genlaguerre(m, n - m)(x)
                    )
                assert abs(d[m, n] - closed) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(beta=complexes(2.0))
def test_displacement_unitary_on_low_columns(beta):
    d = fock.displacement_matrix(beta, 64)
    dm = fock.displacement_matrix(-beta, 64)
    resid = (d.entries @ dm.entries - np.eye(65))[:, :20]
    assert np.max(np.abs(resid)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(beta=complexes(1.0), gamma=complexes(1.0))
def test_displacement_composition_phase(beta, gamma):
    start = fock.coherent_fock(0.2 - 0.1j, 64)
    twice = fock.apply_displacement(fock.apply_displacement(start, gamma), beta)
    once = fock.apply_displacement(start, beta + gamma)
    phase = np.exp(0.5 * (beta * np.conj(gamma) - np.conj(beta) * gamma))
    assert np.max(np.abs(twice.amps[:20] - phase * once.amps[:20])) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(beta=complexes(1.0), alpha=complexes(1.0))
def test_displacement_phase_of_displaced_coherent_state(beta, alpha):
    moved = fock.apply_displacement(fock.coherent_fock(alpha, 64), beta)
    target = fock.displacement_phase(beta, alpha) * fock.coherent_fock(alpha + beta, 64).amps
    assert np.max(np.abs(moved.amps[:20] - target[:20])) <= 1e-8


def test_apply_displacement_roundtrip():
    start = fock.coherent_fock(0.4 + 0.2j, 64)
    back = fock.apply_displacement(fock.apply_displacement(start, 1.5 - 0.5j), -1.5 + 0.5j)
    assert np.max(np.abs(back.amps[:20] - start.amps[:20])) <= 1e-8


def test_apply_displacement_vacuum_gives_coherent():
    vac = fock.coherent_fock(0j, 32)
    assert np.max(np.abs(fock.apply_displacement(vac, 0.7j).amps - fock.coherent_fock(0.7j, 32).amps)) < 1e-12


def test_coherent_overlap_values():
    assert abs(fock.coherent_overlap(0, 1) - np.exp(-0.5)) < 1e-15
    assert abs(fock.coherent_overlap(0.3 - 0.7j, 0.3 - 0.7j) - 1.0) < 1e-15
    assert abs(fock.coherent_overlap(1, -1) - np.exp(-2.0)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(g1=complexes(2.0), g2=complexes(2.0))
def test_overlap_matches_fock_inner(g1, g2):
    analytic = fock.coherent_overlap(g1, g2)
    truncated = fock.inner(fock.coherent_fock(g1, 64), fock.coherent_fock(g2, 64))
    assert abs(analytic - truncated) <= 1e-10


def test_coherent_gram_matches_pairwise_overlap():
    # the dense Gram oracle the lag sums are checked against
    a = np.array([0.0, 0.3 - 0.7j, -1.2 + 0.4j, 2.0j])
    b = np.array([1.0, -0.5 + 0.5j, 0.25j])
    g = oracles.coherent_gram(a, b)
    assert g.shape == (4, 3)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            assert abs(g[i, j] - fock.coherent_overlap(x, y)) <= 1e-14
    assert np.array_equal(oracles.coherent_gram(a), oracles.coherent_gram(a, a))


def test_fidelity_pure_basics():
    a = fock.coherent_fock(0.5, 32)
    assert fock.fidelity_pure(a, a) == pytest.approx(1.0)
    b = fock.coherent_fock(0j, 32)
    c = fock.coherent_fock(0.8, 32)
    assert fock.fidelity_pure(b, c) == pytest.approx(np.exp(-0.64), abs=1e-10)
    scaled = fock.FockVector(2j * c.amps)
    assert fock.fidelity_pure(b, scaled) == pytest.approx(np.exp(-0.64), abs=1e-10)


@pytest.mark.parametrize(
    "scale", [1e-170, 1e170, 2.0**-1000, 2.0**1000], ids=["1e-170", "1e170", "2^-1000", "2^1000"]
)
def test_norm_and_fidelity_at_any_scale(scale):
    a = np.array([1.0, 0.5j, 0.2])
    b = fock.FockVector([0.3, 1.0, -0.4j])
    scaled = fock.FockVector(a * scale)
    assert abs(fock.norm(scaled) / scale - fock.norm(fock.FockVector(a))) <= 1e-15
    want = fock.fidelity_pure(fock.FockVector(a), b)
    assert abs(fock.fidelity_pure(scaled, b) - want) <= 1e-15
    assert abs(fock.fidelity_pure(b, scaled) - want) <= 1e-15
    assert abs(fock.fidelity_pure(scaled, scaled) - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "parts",
    [
        [5e-324, -0.0, -1e-323, 0.0, 2.5e-320, -0.0],
        [1.7e308, -0.0, -1e308, 0.0, 1.5, -0.0],
        [-0.0, 0.0, 0.0, -0.0],
    ],
    ids=["subnormal", "near-max", "zeros"],
)
def test_unit_parts_split_exactly(parts):
    # x = units * 2**e bit for bit, signs of zero included, with no
    # RuntimeWarning on the way at either end of the float range
    x = np.array(parts).view(np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        units, e = fock._unit_parts(x)
    top = np.max(np.abs(units.view(np.float64)))
    assert 0.5 <= top < 1 or (top == 0 and e == 0)
    assert np.ldexp(units.view(np.float64), e).tobytes() == x.tobytes()


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)])
def test_unit_parts_refuse_a_part_past_the_float_range(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"^line coefficients overflow at 2 slots$"):
            fock._unit_parts(np.array([0.5, bad, 1j]))


def test_fidelity_zero_norm_rejected():
    a = fock.coherent_fock(0.5, 8)
    z = fock.FockVector(np.zeros(9))
    with pytest.raises(ValueError, match="zero-norm"):
        fock.fidelity_pure(a, z)


def test_inner_cutoff_mismatch():
    with pytest.raises(ValueError):
        fock.inner(fock.coherent_fock(0.1, 8), fock.coherent_fock(0.1, 9))


def test_vectors_reject_nonfinite():
    with pytest.raises(ValueError):
        fock.FockVector([1.0, np.nan])
    with pytest.raises(ValueError):
        fock.coherent_fock(complex(np.inf, 0), 8)


def test_vector_is_immutable():
    v = fock.coherent_fock(0.5, 8)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0


def test_recommended_cutoff_policy():
    assert fock.recommended_cutoff(0.0) == 10
    assert fock.recommended_cutoff(2.0) == 26
    # the ket keeps all but a negligible share of its squared norm there
    v = fock.coherent_fock(2.0, fock.recommended_cutoff(2.0))
    assert abs(fock.norm(v) ** 2 - 1.0) < 1e-10


@pytest.mark.parametrize("gamma_max", [np.nan, np.inf, -np.inf, 1.35e154, 1e160, -1e200])
def test_recommended_cutoff_refuses_by_name(gamma_max):
    with pytest.raises(ValueError, match="gamma_max"):
        fock.recommended_cutoff(gamma_max)


def test_recommended_cutoff_draws_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", fock.TruncationWarning)
        for g in np.linspace(0.0, 38.0, 191):
            fock.coherent_fock(g, fock.recommended_cutoff(g))
    # from |g| ~ 38.2 the seed exp(-g^2 / 2) is too small to hold the ket:
    # the kets are wrong, or all 0, and the warning says so
    for g in (38.2, 38.6, 39.0, 50.0):
        with pytest.warns(fock.TruncationWarning) as record:
            fock.coherent_fock(g, fock.recommended_cutoff(g))
        assert len(record) == 1
