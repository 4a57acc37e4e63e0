import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ile import chain
from ile.errors import SolverError
from oracles import hand_hessian_three_ions, loop_normal_modes, newton_equilibrium


def test_single_ion_at_centre():
    g = chain.equilibrium_positions(1)
    assert g.positions.tolist() == [0.0]


def test_two_ion_closed_form():
    g = chain.equilibrium_positions(2)
    u = (0.5) ** (2.0 / 3.0)  # solves 2u = 1/(2u)^2
    assert np.allclose(g.positions, [-u, u], atol=1e-12)


def test_three_ion_closed_form():
    g = chain.equilibrium_positions(3)
    u = (5.0 / 4.0) ** (1.0 / 3.0)
    assert np.allclose(g.positions, [-u, 0.0, u], atol=1e-12)


def test_two_and_three_ions_take_their_closed_forms():
    a2, a3 = 4.0 ** (-1.0 / 3.0), 1.25 ** (1.0 / 3.0)
    for n, closed in ((2, [-a2, a2]), (3, [-a3, 0.0, a3])):
        u = chain.equilibrium_positions(n).positions
        assert u.tobytes() == np.array(closed).tobytes()
        assert np.max(np.abs(u - newton_equilibrium(n))) <= 1e-14
        table = chain.normal_modes(chain.equilibrium_positions(n))
        mu, vectors = loop_normal_modes(newton_equilibrium(n))
        assert np.max(np.abs(table.frequencies - mu)) <= 1e-14
        assert np.max(np.abs(table.vectors - vectors)) <= 1e-14


def test_newton_solve_matches_the_oracle_bitwise():
    # one field evaluation per trial and the vectorized sign pick change no
    # bit of the iterates, frequencies or vectors, at the rounding floor too
    for n in [1, *range(4, 65)]:
        u = chain.equilibrium_positions(n).positions
        want = newton_equilibrium(n)
        assert u.tobytes() == want.tobytes(), n
        table = chain.normal_modes(chain.equilibrium_positions(n))
        mu, vectors = loop_normal_modes(want)
        assert table.frequencies.tobytes() == mu.tobytes(), n
        assert table.vectors.tobytes() == vectors.tobytes(), n


def _counted_solve(monkeypatch, n):
    """(field evaluations, Newton steps, rejected trials) of one solve: a
    trial is rejected when its max|gradient| does not fall below that of
    the last accepted iterate."""
    gmaxes, steps = [], []
    field, hessian = chain._pair_field, chain._hessian

    def counted_field(u):
        g, inv3 = field(u)
        gmaxes.append(np.max(np.abs(g)))
        return g, inv3

    def counted_hessian(inv3):
        steps.append(1)
        return hessian(inv3)

    monkeypatch.setattr(chain, "_pair_field", counted_field)
    monkeypatch.setattr(chain, "_hessian", counted_hessian)
    chain.equilibrium_positions(n)
    monkeypatch.undo()
    rejected, best = 0, np.inf
    for gmax in gmaxes:
        if gmax < best:
            best = gmax
        else:
            rejected += 1
    return len(gmaxes), len(steps), rejected


def test_one_field_evaluation_per_newton_step(monkeypatch):
    for n in range(1, 4):
        assert _counted_solve(monkeypatch, n) == (0, 0, 0)
    for n in range(4, 65):
        evaluations, steps, rejected = _counted_solve(monkeypatch, n)
        # only a rejected trial costs an evaluation past one per step
        assert evaluations <= steps + 1 + rejected, n
        if n <= 46:  # every full Newton step is accepted there
            assert rejected == 0 and evaluations <= steps + 1, n
        # no cache: a second solve evaluates the field as often
        assert _counted_solve(monkeypatch, n) == (evaluations, steps, rejected), n


@pytest.mark.parametrize("n", range(2, 65))
def test_equilibrium_invariants(n):
    g = chain.equilibrium_positions(n)
    u = g.positions
    assert np.all(np.diff(u) > 0)
    assert np.max(np.abs(u + u[::-1])) <= 1e-10
    assert np.max(np.abs(chain.potential_gradient(u))) <= 1e-10


def test_ion_count_bounds():
    with pytest.raises(ValueError):
        chain.equilibrium_positions(0)
    with pytest.raises(ValueError):
        chain.equilibrium_positions(65)


def test_two_ion_modes_by_hand():
    table = chain.normal_modes(chain.equilibrium_positions(2))
    assert abs(table.frequencies[0] - 1.0) <= 1e-8
    assert abs(table.frequencies[1] - np.sqrt(3.0)) <= 1e-8
    inv = 1.0 / np.sqrt(2.0)
    assert np.allclose(table.vectors[:, 0], [inv, inv], atol=1e-10)
    assert np.allclose(table.vectors[:, 1], [inv, -inv], atol=1e-10)


def test_three_ion_modes_against_hand_hessian():
    table = chain.normal_modes(chain.equilibrium_positions(3))
    evals = np.linalg.eigvalsh(hand_hessian_three_ions())
    assert np.allclose(table.frequencies, np.sqrt(evals), atol=1e-6)
    assert abs(table.frequencies[2] - np.sqrt(29.0 / 5.0)) <= 1e-6


@pytest.mark.parametrize("n", range(2, 11))
def test_mode_invariants(n):
    table = chain.normal_modes(chain.equilibrium_positions(n))
    assert abs(table.frequencies[0] - 1.0) <= 1e-8
    # the stretch mode frequency is the same for every ion count
    assert abs(table.frequencies[1] - np.sqrt(3.0)) <= 1e-8
    assert np.all(table.frequencies[1:] >= np.sqrt(3.0) - 1e-8)
    b = table.vectors
    assert np.max(np.abs(b.T @ b - np.eye(n))) <= 1e-10
    assert np.max(np.abs(b @ b.T - np.eye(n))) <= 1e-10
    assert np.allclose(b[:, 0], 1.0 / np.sqrt(n), atol=1e-10)


def test_mode_sign_convention_deterministic():
    a = chain.normal_modes(chain.equilibrium_positions(5))
    b = chain.normal_modes(chain.equilibrium_positions(5))
    assert np.array_equal(a.vectors, b.vectors)
    for l in range(5):
        col = a.vectors[:, l]
        lead = col[np.abs(col) > 1e-10][0]
        assert lead > 0


def test_lamb_dicke_com_column_is_eta():
    for n in (1, 2, 5):
        table = chain.normal_modes(chain.equilibrium_positions(n))
        ld = chain.lamb_dicke(table, 0.07)
        assert np.allclose(ld[:, 0], 0.07, atol=1e-12)


def test_lamb_dicke_com_column_is_one_value_next_to_eta():
    # eta sqrt(N) (1/sqrt(N)) rounds, so the column need not equal eta, but
    # it is one value for every ion, within 2.2e-16 relative of it
    eta = 0.05
    for n in range(1, 65):
        column = chain.lamb_dicke(chain.normal_modes(chain.equilibrium_positions(n)), eta)[:, 0]
        assert np.all(column == column[0])
        assert abs(column[0] - eta) <= 2.2e-16 * eta


def test_lamb_dicke_two_ion_stretch_value():
    table = chain.normal_modes(chain.equilibrium_positions(2))
    ld = chain.lamb_dicke(table, 0.1)
    expect = 0.1 * np.sqrt(2.0) * (1.0 / np.sqrt(2.0)) / 3.0**0.25
    assert np.allclose(np.abs(ld[:, 1]), expect, atol=1e-12)


def test_lamb_dicke_formula_everywhere():
    table = chain.normal_modes(chain.equilibrium_positions(4))
    eta = 0.03
    ld = chain.lamb_dicke(table, eta)
    n = 4
    for i in range(n):
        for l in range(n):
            expect = eta * np.sqrt(n) * table.vectors[i, l] / np.sqrt(table.frequencies[l])
            assert abs(ld[i, l] - expect) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(eta=st.floats(1e-4, 0.3), scale=st.floats(1.5, 4.0))
def test_lamb_dicke_scales_linearly(eta, scale):
    table = chain.normal_modes(chain.equilibrium_positions(3))
    small = chain.lamb_dicke(table, eta)
    big = chain.lamb_dicke(table, scale * eta)
    assert np.allclose(big, scale * small, rtol=1e-12)


def test_lamb_dicke_rejects_nonpositive_eta():
    table = chain.normal_modes(chain.equilibrium_positions(2))
    with pytest.raises(ValueError):
        chain.lamb_dicke(table, 0.0)


def test_geometry_validates_equilibrium():
    with pytest.raises(ValueError):
        chain.ChainGeometry(np.array([-1.0, 1.0]))  # not a stationary point


class TestModeTableOwnsTheComFacts:
    """The table refuses what would break the COM classes and the
    collinearity that the leakage metrics read from it unchecked."""

    def test_complex_vectors_refused(self):
        table = chain.normal_modes(chain.equilibrium_positions(2))
        vectors = table.vectors.astype(complex)
        vectors[1, 1] += 1e-3j
        with pytest.raises(ValueError, match="real"):
            chain.ModeTable(table.frequencies, vectors)

    def test_com_frequency_one_ulp_off_refused(self):
        table = chain.normal_modes(chain.equilibrium_positions(3))
        for mu0 in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
            mu = table.frequencies.copy()
            mu[0] = mu0
            with pytest.raises(ValueError, match="lowest mode frequency"):
                chain.ModeTable(mu, table.vectors)

    def test_com_entry_one_ulp_off_refused(self):
        table = chain.normal_modes(chain.equilibrium_positions(3))
        vectors = table.vectors.copy()
        vectors[2, 0] = np.nextafter(vectors[2, 0], 1.0)
        with pytest.raises(ValueError, match="lowest mode vector"):
            chain.ModeTable(table.frequencies, vectors)
