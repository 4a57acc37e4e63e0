#!/usr/bin/env python3
"""How much do the spectator modes corrupt the COM-mode preparation?

Sweeps the detuning toward the COM sideband for two and three ions and
prints the leakage metrics for both displacement-window conventions: the
bounded time-integrated windows and the endpoint formula whose spectator
amplitudes keep growing with t.

Run:  python3 scripts/spectator_leakage.py
"""

import numpy as np

from ile import chain, multimode, protocol

ETA, OMEGA = 0.05, 0.01
DELTAS = (0.95, 0.98, 0.99, 0.999)


def main():
    ts = [1.0 / (1.0 - delta) for delta in DELTAS]  # keeps (1 - delta) t = 1
    for n in (2, 3):
        modes = chain.normal_modes(chain.equilibrium_positions(n))
        params = protocol.PhysicalParams(eta=ETA, omega=OMEGA, delta=DELTAS[0], n_ions=n)
        plan = protocol.ProtocolPlan(
            params=params,
            alpha=0j,
            cycles=(protocol.Cycle(duration=ts[0], weights=[0.0] * n),),
        )
        sweeps = [multimode.analyze_points(plan, modes, integrated, DELTAS, ts)
                  for integrated in (True, False)]
        print(f"\n=== {n} ions, window tuned to one radian of COM phase ===")
        print(f"{'delta':>7} {'t':>8} {'variant':>10} {'1-com_fid':>11} "
              f"{'max spectator <n>':>18} {'gap':>10} {'p_exact':>9}")
        for delta, t, *points in zip(DELTAS, ts, *sweeps):
            for (rep, p), tag in zip(points, ("integrated", "endpoint")):
                spec = float(np.max(rep.per_mode_mean_phonon[1:]))
                print(f"{delta:7.3f} {t:8.1f} {tag:>10} "
                      f"{1 - rep.com_fidelity_vs_ideal:11.3e} {spec:18.3e} "
                      f"{rep.factorization_gap:10.2e} {p:9.5f}")


if __name__ == "__main__":
    main()
