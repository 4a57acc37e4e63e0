"""Post-run correctness checks, one set per op kind.

Every op's captured output goes through ``check_output`` after the timed
phase, outside op latency.  It returns ``None`` when the output is valid and
correct, or ``(reason, detail)`` with reason ``"invalid"`` (not strict JSON,
or a CSV row that is empty, non-finite or marked complete=false) or
``"check"`` (well-formed output that disagrees with the benchmark's own
references).  The references here use only numpy and scipy, never the
package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.linalg import expm

from workloads import coherent_amps, forward_recurrence

_SQRT3 = math.sqrt(3.0)


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, rel: float, floor: float = 1e-300) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _unit(value: float, name: str) -> None:
    _require(0.0 <= value <= 1.0, f"{name} = {value!r} outside [0, 1]")


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("CSV has no data rows")
    header, out = rows[0], []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError("CSV row length differs from header")
        rec = dict(zip(header, row))
        if rec.get("complete") != "true":
            raise ValueError("CSV row marked complete=false")
        for key, val in rec.items():
            if val == "":
                raise ValueError(f"CSV field {key} is empty")
            if key not in ("variant", "complete"):
                if not math.isfinite(float(val)):
                    raise ValueError(f"CSV field {key} is not finite")
                rec[key] = float(val)
        out.append(rec)
    return out


# --- plan -------------------------------------------------------------------


def _nominal(weights: np.ndarray) -> float:
    return float(np.exp(weights.size * math.log(0.25) - np.sum(np.log1p(np.abs(weights) ** 2))))


def _check_solution(sol: dict, target: np.ndarray) -> None:
    w = _complex(sol["weights"])
    _require(w.size == target.size - 1, "weight count does not match target degree")
    r = forward_recurrence(w)
    scale = np.vdot(r, target) / np.vdot(r, r)
    res = np.linalg.norm(scale * r - target) / np.linalg.norm(target)
    _require(res <= 1e-6, f"weights reproduce the target to {res:.3e} only")
    _require(_close(sol["p_nominal"], _nominal(w), 1e-9),
             "p_nominal disagrees with its closed form")


def check_plan(doc: dict, ctx: dict) -> None:
    target = _complex(ctx["target"])
    _check_solution(doc, target)
    for sol in doc.get("solutions", []):
        _check_solution(sol, target)


# --- simulate ---------------------------------------------------------------


def check_simulate(doc: dict, ctx: dict) -> None:
    plan = ctx["plan"]
    weights = np.concatenate([_complex(c["p"]) for c in plan["cycles"]])
    _unit(doc["p_exact"], "p_exact")
    per_cycle = doc["per_cycle"]
    _require(len(per_cycle) == len(plan["cycles"]), "per_cycle length differs from the cycle count")
    for p in per_cycle:
        _unit(p, "per_cycle entry")
    _require(_close(doc["p_exact"], float(np.prod(per_cycle)), 1e-9),
             "p_exact is not the product of per_cycle")
    _require(_close(doc["p_nominal"], _nominal(weights), 1e-9),
             "p_nominal disagrees with its closed form")
    ref = forward_recurrence(weights)
    got = _complex(doc["coeffs"])
    _require(got.size == ref.size, "coefficient count differs from slots + 1")
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    _require(err <= 1e-9, f"coefficients differ from the recurrence by {err:.3e}")


# --- leakage ----------------------------------------------------------------


def _displacement(beta: complex, size: int) -> np.ndarray:
    """D(beta) on levels 0..size-1, exponentiated with 30 levels of headroom."""
    k = size + 30
    a = np.diag(np.sqrt(np.arange(1, k)), 1)
    return expm(beta * a.T - np.conj(beta) * a)[:size, :size]


def two_ion_reference(plan: dict, delta: float, t: float, paper: bool) -> dict:
    """Number-basis reference for a two-ion plan: both longitudinal modes on
    truncated Fock spaces, every conditional branch applied as matrices.

    Mode 1 is the in-phase mode (frequency 1, vector (1, 1)/sqrt 2), mode 2
    the stretch mode (sqrt 3, (-1, 1)/sqrt 2); the stretch vector's sign
    leaves every reported quantity unchanged.
    """
    mu = np.array([1.0, _SQRT3])
    b = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    detune = mu - delta
    if paper:
        window = t * np.exp(1j * detune * t)
    else:
        window = t * np.exp(0.5j * detune * t) * np.sinc(detune * t / (2.0 * np.pi))
    betas = 1j * plan["eta"] * plan["omega"] * np.sqrt(2.0 / mu)[None, :] * b * window[None, :]
    alpha = complex(*plan["alpha"])
    weights = [complex(*p) for c in plan["cycles"] for p in c["p"]]
    slots_per_ion = len(plan["cycles"])

    sizes = []
    for l in range(2):
        reach = (abs(alpha) if l == 0 else 0.0) + slots_per_ion * np.sum(np.abs(betas[:, l]))
        sizes.append(int(min(160, reach**2 + 8 * reach + 25)) + 1)
    d = {(i, l, s): _displacement(s * betas[i, l], sizes[l])
         for i in range(2) for l in range(2) for s in (1, -1)}

    psi = np.outer(coherent_amps(alpha, sizes[0] - 1), np.eye(sizes[1])[0])
    phi = coherent_amps(alpha, sizes[0] - 1)
    for k, p in enumerate(weights):
        i = k % 2
        pref = 0.5 / math.sqrt(1.0 + abs(p) ** 2)
        psi = pref * ((1 - p) * d[i, 0, 1] @ psi @ d[i, 1, 1].T
                      + (1 + p) * d[i, 0, -1] @ psi @ d[i, 1, -1].T)
        phi = pref * ((1 - p) * d[i, 0, 1] @ phi + (1 + p) * d[i, 0, -1] @ phi)

    prob = np.abs(psi) ** 2
    nsq = float(prob.sum())
    rho = psi @ psi.conj().T / nsq
    return {
        "p_exact": nsq,
        "mean_phonon": [float(prob.sum(axis=1) @ np.arange(sizes[0])) / nsq,
                        float(prob.sum(axis=0) @ np.arange(sizes[1])) / nsq],
        "com_fidelity": float(np.real(phi.conj() @ rho @ phi)) / float(np.vdot(phi, phi).real),
        "com_purity": float(np.real(np.trace(rho @ rho))),
    }


def _check_leakage_point(point: dict, plan: dict, delta: float, t: float, paper: bool) -> None:
    for key in ("p_exact", "com_fidelity", "com_purity", "gap"):
        _unit(point[key], key)
    for m in point["mean_phonon"]:
        _require(m >= 0.0, f"mean_phonon {m!r} is negative")
    if plan["n_ions"] != 2:
        return
    ref = two_ion_reference(plan, delta, t, paper)
    _require(_close(point["p_exact"], ref["p_exact"], 1e-6),
             "p_exact disagrees with the Fock reference")
    for key in ("com_fidelity", "com_purity"):
        _require(abs(point[key] - ref[key]) <= 1e-7, f"{key} disagrees with the Fock reference")
    for got, want in zip(point["mean_phonon"], ref["mean_phonon"]):
        _require(_close(got, want, 1e-6, 1e-9), "mean_phonon disagrees with the Fock reference")


def check_leakage(text: str, ctx: dict) -> None:
    plan, paper = ctx["plan"], ctx["paper"]
    if text.lstrip().startswith("{"):
        doc = parse_json(text)
        point = {"p_exact": doc["p_exact"], "com_fidelity": doc["com_fidelity"],
                 "com_purity": doc["com_purity"], "gap": doc["factorization_gap"],
                 "mean_phonon": doc["mean_phonon"]}
        _require(len(point["mean_phonon"]) == plan["n_ions"], "one mean_phonon per mode expected")
        _check_leakage_point(point, plan, plan["delta"], plan["cycles"][0]["t"], paper)
        return
    rows = parse_csv(text)
    for row in rows:
        phonons = [row[f"mean_phonon_{l + 1}"] for l in range(plan["n_ions"])]
        point = {key: row[key] for key in ("p_exact", "com_fidelity", "com_purity", "gap")}
        point["mean_phonon"] = phonons
        _check_leakage_point(point, plan, row["delta"], row["t"], paper)


# --- fit, modes, validate ---------------------------------------------------


def check_fit(doc: dict, ctx: dict) -> None:
    _unit(doc["fidelity"], "fidelity")
    _require(len(doc["coeffs"]) == ctx["n"] + 1, "fit returned the wrong coefficient count")
    if ctx["on_grid"]:
        _require(doc["fidelity"] >= 1.0 - 1e-8,
                 f"on-grid target fitted to fidelity {doc['fidelity']!r} only")


def check_modes(doc: dict, ctx: dict) -> None:
    mu = doc["mu"]
    _require(len(mu) == ctx["n_ions"], "one frequency per ion expected")
    _require(abs(mu[0] - 1.0) <= 1e-9, f"mu_1 = {mu[0]!r}, expected 1")
    _require(abs(mu[1] - _SQRT3) <= 1e-9, f"mu_2 = {mu[1]!r}, expected sqrt(3)")


def check_validate(doc: dict, ctx: dict) -> None:
    ratio = doc["step_halving_ratio"]
    _require(2.0 < ratio < 8.0, f"step-halving ratio {ratio!r} outside (2, 8)")
    _unit(doc["fidelity_integrated"], "fidelity_integrated")
    _unit(doc["fidelity_endpoint"], "fidelity_endpoint")


_JSON_CHECKS = {
    "plan": check_plan,
    "simulate": check_simulate,
    "fit": check_fit,
    "modes": check_modes,
    "validate": check_validate,
}


def check_output(kind: str, text: str, ctx: dict):
    """None when ``text`` is a valid, correct output of an op of ``kind``."""
    try:
        if kind == "leakage":
            check_leakage(text, ctx)
        else:
            _JSON_CHECKS[kind](parse_json(text), ctx)
    except CheckFailed as exc:
        return "check", str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "invalid", f"{type(exc).__name__}: {exc}"
    return None
