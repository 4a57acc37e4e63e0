#!/usr/bin/env python3
"""End-to-end walkthrough: plan a balanced two-component superposition,
simulate the conditional protocol that prepares it, and check the result.

Run:  python3 scripts/plan_cat.py
"""

import numpy as np

from ile import fock, inverse, protocol

TARGET = [1.0, 0.0, 1.0]  # equal weight on the two outer components
ETA, OMEGA, DELTA, T = 0.1, 0.05, 0.99, 60.0


def main():
    target = inverse.TargetCoefficients(np.array(TARGET, dtype=complex))
    best = inverse.solve_weights(target)[0]
    print(f"target coefficients : {TARGET}")
    print(f"internal weights    : {np.round(best.weights, 12)}")
    print(f"nominal survival    : {best.p_nominal}  (product formula)")
    print(f"reconstruction error: {best.residual:.3e}")

    params = protocol.PhysicalParams(eta=ETA, omega=OMEGA, delta=DELTA, n_ions=2)
    plan = protocol.ProtocolPlan(
        params=params,
        alpha=0j,
        cycles=(protocol.Cycle(duration=T, weights=best.weights),),
    )
    result = protocol.run_ideal(plan)
    print(f"\ndisplacement step   : beta = {result.state.beta:.6f}")
    print(f"coefficients out    : {np.round(result.state.coeffs, 12)}")
    print(f"exact survival      : {result.p_exact:.6f}  (vs nominal {result.p_nominal})")

    cutoff = fock.recommended_cutoff(2 * abs(result.state.beta))
    ideal = protocol.LineSuperposition(0j, result.state.beta, np.array(TARGET, dtype=complex))
    fidelity = protocol.fidelity_to_target(result.state, protocol.to_fock(ideal, cutoff))
    print(f"fidelity to target  : {1 - (1 - fidelity):.12f}")
    parity = protocol.to_fock(result.state, cutoff).amps[1::2]
    print(f"odd-level residue   : {np.max(np.abs(parity)):.3e}  (even superposition)")


if __name__ == "__main__":
    main()
