"""Seeded op pools for the four benchmark workloads.

Each workload is a fixed-composition pool of CLI invocations ("ops").  The
composition (how many ops of each shape, size and flag set) is the same for
every seed, and so is the multiset of the sizes that set an op's cost (slot
counts, polynomial degrees, grid sizes, cutoffs, step counts): two seeds
exercise the same cost distribution and the run-to-run spread stays small.
The seed draws everything else (weights, detunings, windows, grid steps,
targets), which sizes pair with which inputs, and the op order; only the
referee's cutoffs and step counts are paired the same way for every seed.

Seeded inputs stay where the package's present outcome is fixed by their
shape (leakage at 4 x 2 and 5 x 1 always fails, simulate below 400 slots
never does).  Inputs whose outcome depends on the draw (planner targets of
degree 12-32, coarse-step integrator runs) are frontier markers: drawn once
from a constant stream, identical for every seed, so the count of known
failures is the same in every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("leakage-mix", "line-state", "planner", "referee")

# Stream for the seed-independent frontier markers.
_FRONTIER_SEED = 20001017

ETA = 0.05
OMEGA_MAX = 0.09  # keeps omega below delta / 10, outside RegimeWarning


@dataclass
class Op:
    """One CLI invocation: ``argv`` for ``ile.cli.main`` plus what the
    post-run checks need to know about its inputs."""

    kind: str
    argv: list
    ctx: dict = field(default_factory=dict)


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k values in [0, 1), one per equal-width stratum, in random order."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _ladder(rng: np.random.Generator, k: int) -> np.ndarray:
    """The k stratum midpoints of [0, 1), in random order."""
    return rng.permutation((np.arange(k) + 0.5) / k)


def _int_ladder(rng: np.random.Generator, k: int, lo: int, hi: int) -> np.ndarray:
    """k integers spread evenly over [lo, hi], in random order."""
    return lo + np.floor(_ladder(rng, k) * (hi - lo + 1)).astype(int)


def _flags(rng: np.random.Generator, k: int, share: float) -> np.ndarray:
    """Exactly round(share * k) of k booleans set, at random positions."""
    out = np.zeros(k, dtype=bool)
    out[: int(round(share * k))] = True
    return rng.permutation(out)


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex normal internal-state weights, sigma 0.5 per quadrature."""
    return rng.normal(0.0, 0.5, n) + 1j * rng.normal(0.0, 0.5, n)


def _omega(t: float, beta: float) -> float:
    """Rabi frequency giving a COM displacement |beta| = eta omega t."""
    return min(OMEGA_MAX, beta / (ETA * t))


def _plan_doc(rng, n_ions: int, n_cycles: int, delta: float, phase: float) -> dict:
    t = phase / (1.0 - delta)
    omega = _omega(t, rng.uniform(0.05, 0.3))
    alpha = rng.uniform(0.0, 0.5) * np.exp(2j * np.pi * rng.random())
    return {
        "eta": ETA,
        "omega": omega,
        "delta": delta,
        "n_ions": n_ions,
        "alpha": _pair(alpha),
        "cycles": [
            {"t": t, "p": [_pair(p) for p in _weights(rng, n_ions)]} for _ in range(n_cycles)
        ],
    }


class _Pool:
    """Collects ops and the input files they read."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[Op] = []

    def write(self, doc) -> str:
        path = self.workdir / f"in{len(self.ops):04d}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def add(self, kind: str, argv: list, **ctx) -> None:
        self.ops.append(Op(kind, [str(a) for a in argv], ctx))


# (ions, cycles): ops per pool.  4 x 2 and 5 x 1 ask for 19 GiB and 147 GiB
# of product-coherent Gram at present and fail with MemoryError.  The 4 x 1
# sweeps and the 5 x 1 ops are the slowest; with eight 5 x 1 ops op_p90_ms
# falls inside the 5 x 1 group rather than on its edge, where a small
# change of cost would move it far.
_LEAKAGE_SHAPES = {
    (2, 1): 14, (2, 2): 14, (2, 3): 14,
    (3, 1): 14, (3, 2): 14, (3, 3): 12,
    (4, 1): 12, (4, 2): 6, (5, 1): 8,
}


def leakage_mix(rng, pool: _Pool) -> None:
    for (ions, cycles), count in _LEAKAGE_SHAPES.items():
        deltas = 0.95 + 0.049 * _strata(rng, count)
        phases = 0.5 + 1.5 * _strata(rng, count)
        sweeps = _flags(rng, count, 0.4)
        papers = _flags(rng, count, 0.3)
        for k in range(count):
            doc = _plan_doc(rng, ions, cycles, float(deltas[k]), float(phases[k]))
            argv = ["leakage", "--input", pool.write(doc)]
            if sweeps[k]:
                t = doc["cycles"][0]["t"]
                if k % 2:
                    spec = f"t={t / 2!r}:{t!r}:4"
                else:
                    spec = f"delta={doc['delta']!r}:{min(0.999, doc['delta'] + 0.02)!r}:4"
                argv += ["--sweep", spec]
            else:
                argv += ["--format", "json"]
            if papers[k]:
                argv.append("--paper-beta")
            pool.add("leakage", argv, plan=doc, paper=bool(papers[k]))


def _simulate(rng, pool: _Pool, ions: int, slots: float, delta: float, phase: float) -> None:
    cycles = max(1, round(slots / ions))
    doc = _plan_doc(rng, ions, cycles, delta, phase)
    argv = ["simulate", "--input", pool.write(doc)]
    if ions * cycles <= 20:
        argv += ["--fock", 40]
    pool.add("simulate", argv, plan=doc)


def line_state(rng, pool: _Pool) -> None:
    # Slot counts log-uniform on 16-400, below the ~425 slots where the
    # present p_exact turns NaN for these weights, plus 600-slot plans that
    # always lie past it (not at 2 ions, where one such op takes ~2 s).
    for ions in (2, 5, 10, 20):
        count = 20
        slots = 16 * 25 ** _ladder(rng, count)
        deltas = 0.95 + 0.049 * _strata(rng, count)
        phases = 0.5 + 1.5 * _strata(rng, count)
        for k in range(count):
            _simulate(rng, pool, ions, float(slots[k]), float(deltas[k]), float(phases[k]))
        if ions > 2:
            _simulate(rng, pool, ions, 600, rng.uniform(0.95, 0.999), rng.uniform(0.5, 2.0))

    # Grid sizes 8-64, every other size with an on-grid target.  The
    # largest fits form a plateau of similar cost just below the tail of the
    # big simulate ops, and their count puts op_p90_ms on that plateau
    # rather than at the knee where the cost rises steeply.
    count = 180
    ns = np.sort(_int_ladder(rng, count, 8, 64))
    betas = 0.15 + 0.35 * _strata(rng, count)
    on_grid = np.arange(count) % 2 == 0
    for k in range(count):
        n = int(ns[k])
        beta = betas[k] * np.exp(2j * np.pi * rng.random())
        alpha = rng.uniform(0.0, 0.5) * np.exp(2j * np.pi * rng.random())
        if on_grid[k]:
            # A few grid components near the grid centre, so a cutoff of 60
            # holds them to 1e-16 and the fit must reach fidelity 1.
            labels = alpha + (2 * np.arange(n + 1) - n) * beta
            near = np.flatnonzero(np.abs(labels) <= 2.5)
            picks = rng.choice(near, size=min(near.size, int(rng.integers(2, 5))), replace=False)
            coeffs = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
            amps = sum(c * coherent_amps(labels[j], 60) for c, j in zip(coeffs, picks))
        else:
            top = int(rng.integers(1, 9))
            amps = np.zeros(41, dtype=complex)
            amps[: top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
        path = pool.write([_pair(a) for a in amps])
        argv = ["fit", "--input", path, "--n", n,
                "--alpha={!r},{!r}".format(*_pair(alpha)),
                "--beta={!r},{!r}".format(*_pair(beta))]
        pool.add("fit", argv, n=n, on_grid=bool(on_grid[k]))


def _target(rng, n: int) -> np.ndarray:
    """Line coefficients of weights r e^{i theta}, r ~ U(0.2, 2)."""
    p = rng.uniform(0.2, 2.0, n) * np.exp(2j * np.pi * rng.random(n))
    return forward_recurrence(p)


def _plan(pool: _Pool, coeffs: np.ndarray, census: bool) -> None:
    doc = {"coeffs": [_pair(c) for c in coeffs]}
    argv = ["plan", "--input", pool.write(doc)] + (["--all"] if census else [])
    pool.add("plan", argv, target=doc["coeffs"])


def planner(rng, pool: _Pool) -> None:
    # Seeded targets stop at degree 10: from degree 12 up some random
    # targets already fail (about 1 in 400 at n = 12), which would make the
    # failure count depend on the seed.
    for n in range(4, 11):
        for k in range(12):
            _plan(pool, _target(rng, n), census=k % 2 == 0)

    for n_ions in _int_ladder(rng, 40, 2, 40):
        pool.add("modes", ["modes", int(n_ions)], n_ions=int(n_ions))

    # Frontier: degree 12-32, where the present peel walk starts to fail
    # after a 1-3 s retry and n = 32 nearly always fails.
    frontier = np.random.default_rng(_FRONTIER_SEED)
    _plan(pool, _target(frontier, 12), census=True)
    for n in (12, 16, 20, 24, 28, 32):
        _plan(pool, _target(frontier, n), census=False)


def _validate_argv(ions, cutoff, steps, delta, phase, beta, full) -> list:
    t = phase / (1.0 - delta)
    omega = _omega(t, beta)
    argv = ["validate", "--eta", repr(ETA), "--omega", repr(omega), "--delta", repr(delta),
            "--t", repr(t), "--n-ions", ions, "--cutoff", cutoff, "--steps", steps]
    return argv + (["--full-terms"] if full else [])


def referee(rng, pool: _Pool) -> None:
    for ions, count in ((1, 60), (2, 37)):
        # An op's cost grows with cutoff^ions x steps, so which cutoff goes
        # with which step count is drawn from a constant stream: every seed
        # runs the same (cutoff, steps, --full-terms) triples.
        cutoffs = _int_ladder(np.random.default_rng([_FRONTIER_SEED, ions]), count, 8, 14)
        steps = np.sort(_int_ladder(rng, count, 10, 30))
        phases = 0.5 + 1.5 * _strata(rng, count)
        full = np.arange(count) % 4 == 0
        # Two ions also drive the stretch mode at sqrt(3) - delta; delta up
        # to 0.9 keeps its phase per step within the midpoint rule's
        # asymptotic range (step-halving ratio near 4).
        lo, hi = (0.95, 0.999) if ions == 1 else (0.6, 0.9)
        deltas = lo + (hi - lo) * _strata(rng, count)
        for k in range(count):
            pool.add("validate", _validate_argv(
                ions, int(cutoffs[k]), int(steps[k]), float(deltas[k]), float(phases[k]),
                rng.uniform(0.05, 0.3), bool(full[k])))
    # Frontier: two-ion runs whose steps are far coarser than the stretch
    # mode's detuning period; at present they are refused with IntegratorError.
    for delta, phase, steps in ((0.98, 2.0, 14), (0.99, 1.5, 10), (0.99, 2.0, 10)):
        pool.add("validate", _validate_argv(2, 8, steps, delta, phase, 0.2, False))


_BUILDERS = {
    "leakage-mix": leakage_mix,
    "line-state": line_state,
    "planner": planner,
    "referee": referee,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files under ``workdir`` and return its ops
    in their fixed, seed-shuffled order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pool = _Pool(workdir)
    _BUILDERS[workload](rng, pool)
    return [pool.ops[i] for i in rng.permutation(len(pool.ops))]


# ---------------------------------------------------------------------------
# Reference formulas shared with the checks; independent of the package.
# ---------------------------------------------------------------------------


def forward_recurrence(weights) -> np.ndarray:
    """Coefficients of prod_m [(1 + p_m) + (1 - p_m) z], lowest power first."""
    c = np.array([1.0 + 0.0j])
    for p in np.asarray(weights, dtype=complex):
        c = np.concatenate([(1 + p) * c, [0.0]]) + np.concatenate([[0.0], (1 - p) * c])
    return c


def coherent_amps(g: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of the coherent state |g>, levels 0..cutoff."""
    n = np.arange(cutoff + 1)
    if g == 0:
        return (n == 0).astype(complex)
    lg = np.array([math.lgamma(k + 1) for k in n])
    mag = np.exp(-0.5 * abs(g) ** 2 + n * math.log(abs(g)) - 0.5 * lg)
    return mag * np.exp(1j * n * np.angle(g))
