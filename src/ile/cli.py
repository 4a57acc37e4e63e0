"""Command-line front end.

Subcommands: plan, simulate, leakage, modes, fit, validate.  Inputs and
outputs are JSON (CSV for tables); identical inputs produce byte-identical
outputs at a fixed BLAS thread count, which can move the last digits of
BLAS sums (of ``validate`` at large cutoffs, for one).  Each ``cmd_*``
returns its output text and writes nothing; :func:`main` writes it to
stdout or to ``--output``.  JSON documents have
the layout of ``json.dumps(indent=2)``, written by this module's own
encoder, which emits runs of floats and of [re, im] pairs in one join.
Floats are written with ``float.__repr__``, Python's shortest round-trip
repr (at most 17 significant digits), and every JSON document embeds the
fully resolved parameter set plus the library version, so no default is
hidden.

Exit codes: 0 success, 2 invalid input (an unwritable --output included),
3 numerical or solver failure, running out of memory and numpy's
``LinAlgError`` included.  A leakage
plan too large for the multimode memory budget, whose Gram sums cancel past
float precision, or whose fields are not finite (displacements past about
1e154) is a solver failure: exit 3 for JSON output, a complete=false row in
CSV output.  A sweep whose rows, or a ``--fock`` dump whose levels, would
pass the same budget is refused before anything is allocated (exit 3); a
dump whose displacement phases or amplitudes pass the float range exits 3.
While a command runs, a warning prints on stderr as one line,
``Category: message``, without the package's file and source line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, chain, inverse, multimode, protocol
from .errors import SolverError, check_memory
from .fock import FockVector
from .protocol import Cycle, PhysicalParams, ProtocolPlan

_EXIT_BAD_INPUT = 2
_EXIT_SOLVER = 3
# Memory of one CLI result, refused up front past the 1 GiB budget.  A
# `simulate --fock` level holds its amplitude, its [re, im] list and its
# JSON text: 216 B at the peak (tracemalloc at cutoffs 1e5 and 4e5, 2 and 4
# components).  A `leakage --sweep` row is counted as 1280 + 128 N bytes for
# N ions, an upper bound: the rows go into the CSV text a block of points at
# a time, so a row holds its grid value and its CSV text, 0.35 KB at 1 ion
# and 0.44 KB at 2 (tracemalloc, 20,000 rows).
_FOCK_LEVEL_BYTES = 224
_SWEEP_ROW_BYTES = 1280
_SWEEP_ION_BYTES = 128


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pairs(seq) -> list[list[float]]:
    return np.ascontiguousarray(seq, np.complex128).view(np.float64).reshape(-1, 2).tolist()


_JSON_NUMBERS = frozenset((int, float))  # what json.load gives a number; bool is apart


def _real(obj, name: str, kind: str = "a number") -> float:
    """A JSON number as a float, booleans excluded; anything else, an integer
    literal past the float range included, raises "<name> must be <kind>"."""
    if type(obj) in _JSON_NUMBERS:
        try:
            return float(obj)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be {kind}")


def _complex_from_pair(obj, name: str) -> complex:
    """A JSON [re, im] pair: a list of exactly two numbers as :func:`_real` reads them."""
    kind = "a [re, im] pair"
    if type(obj) is not list or len(obj) != 2:
        raise ValueError(f"{name} must be {kind}")
    return complex(_real(obj[0], name, kind), _real(obj[1], name, kind))


def _parse_complex_arg(text: str, name: str) -> complex:
    """CLI complex syntax: 'RE' or 'RE,IM'."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"{name} must look like 'RE' or 'RE,IM', got {text!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc}") from exc


def _document(fields: dict) -> str:
    """One command's JSON document: the library version, then ``fields``."""
    return _json_text({"version": __version__, **fields})


def _csv_text(header: list, rows) -> str:
    """RFC 4180 CSV with CRLF line ends: the header row, then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_scalar = json.JSONEncoder(allow_nan=False).encode
_float = float.__repr__


def _json_text(document: dict) -> str:
    """Strict JSON; a non-finite number is a numerical failure, not output.

    The bytes are those of ``json.dumps(document, indent=2, allow_nan=False)``
    plus a newline, whose encoder is the pure-Python one once an indent is
    set.  :func:`_write` builds the same text from joins over whole lists.
    """
    try:
        return _write(document, "\n") + "\n"
    except ValueError as exc:
        raise SolverError(f"result is not finite ({exc})") from exc


def _finite(text: str, values) -> str:
    """``text`` holds the reprs of ``values``; a finite float's has no 'n'."""
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return text


def _write(obj, nl: str) -> str:
    """``obj`` as indented JSON, nested where newline-plus-indent is ``nl``."""
    if isinstance(obj, float):
        return _finite(_float(obj), (obj,))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            # Other keys (int, float, bool, None) are json's to convert.
            return json.dumps(obj, indent=2, allow_nan=False).replace("\n", nl)
        inner = nl + "  "
        items = (_scalar(key) + ": " + _write(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not isinstance(obj, (list, tuple)):
        return _scalar(obj)  # str, int, bool, None; TypeError for anything else
    if not obj:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    kinds = set(map(type, obj))
    if kinds == {float}:
        return "[" + inner + _finite(sep.join(map(_float, obj)), obj) + nl + "]"
    if kinds == {list} and set(map(len, obj)) == {2}:
        flat = tuple(itertools.chain.from_iterable(obj))
        if set(map(type, flat)) == {float}:
            pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
            return "[" + inner + _finite(sep.join([pair] * len(obj)) % flat, flat) + nl + "]"
    return "[" + inner + sep.join([_write(item, inner) for item in obj]) + nl + "]"


def _plan_from_json(doc) -> ProtocolPlan:
    if not isinstance(doc, dict):
        raise ValueError("plan must be a JSON object")
    for key in ("eta", "omega", "delta", "n_ions", "alpha", "cycles"):
        if key not in doc:
            raise ValueError(f"plan is missing {key!r}")
    n_ions = doc["n_ions"]
    if type(n_ions) not in _JSON_NUMBERS or (type(n_ions) is float and not n_ions.is_integer()):
        raise ValueError(f"n_ions must be an integer, got {n_ions!r}")
    params = PhysicalParams(
        eta=_real(doc["eta"], "eta"),
        omega=_real(doc["omega"], "omega"),
        delta=_real(doc["delta"], "delta"),
        n_ions=int(n_ions),
    )
    cycles = []
    if not isinstance(doc["cycles"], list) or not doc["cycles"]:
        raise ValueError("plan needs a non-empty cycle list")
    for k, cyc in enumerate(doc["cycles"]):
        if not isinstance(cyc, dict) or "t" not in cyc or "p" not in cyc:
            raise ValueError(f"cycle {k} must be an object with 't' and 'p'")
        if type(cyc["p"]) is not list:
            raise ValueError(f"cycle {k}'s 'p' must be a list of [re, im] pairs")
        weights = [_complex_from_pair(p, f"cycle {k} weight") for p in cyc["p"]]
        cycles.append(Cycle(duration=_real(cyc["t"], f"cycle {k} t"), weights=weights))
    return ProtocolPlan(
        params=params,
        alpha=_complex_from_pair(doc["alpha"], "alpha"),
        cycles=tuple(cycles),
    )


def _plan_params_doc(plan: ProtocolPlan) -> dict:
    return {
        "eta": plan.params.eta,
        "omega": plan.params.omega,
        "delta": plan.params.delta,
        "n_ions": plan.params.n_ions,
        "alpha": _pair(plan.alpha),
        "cycles": [
            {"t": c.duration, "p": _pairs(c.weights)} for c in plan.cycles
        ],
    }


def cmd_plan(args) -> str:
    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise ValueError("target must be a JSON object with a 'coeffs' list")
    if not isinstance(doc["coeffs"], list):
        raise ValueError("target's 'coeffs' must be a list of [re, im] pairs")
    coeffs = [_complex_from_pair(c, "coefficient") for c in doc["coeffs"]]
    target = inverse.TargetCoefficients(np.array(coeffs))
    sol = inverse.solve_weights(target)[0]
    found = {"weights": _pairs(sol.weights), "p_nominal": sol.p_nominal, "residual": sol.residual}
    out = {"params": {"coeffs": _pairs(coeffs)}, **found}
    if args.all:
        out["solutions"] = [found]
    return _document(out)


def cmd_simulate(args) -> str:
    plan = _plan_from_json(_load_json(args.input))
    result = protocol.run_ideal(plan)
    out = {
        "params": _plan_params_doc(plan),
        "beta": _pair(result.state.beta),
        "coeffs": _pairs(result.state.coeffs),
        "p_nominal": result.p_nominal,
        "p_exact": result.p_exact,
        "per_cycle": result.per_cycle_p_exact.tolist(),
    }
    if args.fock is not None:
        levels = args.fock + 1
        check_memory(_FOCK_LEVEL_BYTES * levels, f"{levels}-level number-basis dump needs")
        out["fock"] = _pairs(protocol.to_fock(result.state, args.fock).amps)
    return _document(out)


def _parse_sweep(spec: str, n_ions: int) -> tuple[str, np.ndarray]:
    try:
        name, rng = spec.split("=", 1)
        start, stop, count = rng.split(":")
        name = name.strip()
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ValueError(
            f"sweep must look like NAME=START:STOP:COUNT, got {spec!r}"
        ) from exc
    if name not in ("delta", "t"):
        raise ValueError(f"sweep parameter must be 'delta' or 't', got {name!r}")
    if count < 2:
        raise ValueError("sweep count must be at least 2")
    # Also catches a span past the float range, which numpy would warn about.
    if not math.isfinite(stop - start):
        raise ValueError(f"sweep bounds and their span must be finite, got {spec!r}")
    row = _SWEEP_ROW_BYTES + _SWEEP_ION_BYTES * n_ions
    check_memory(count * row, f"{count}-point sweep needs")
    return name, np.linspace(start, stop, count)


def cmd_leakage(args) -> str:
    plan = _plan_from_json(_load_json(args.input))
    modes = chain.normal_modes(chain.equilibrium_positions(plan.params.n_ions))
    integrated = not args.paper_beta
    variant = "integrated" if integrated else "paper"
    if args.format == "json":
        if args.sweep is not None:
            raise ValueError("JSON output is for single points; sweeps emit CSV")
        report, p_exact = multimode.analyze_plan(plan, modes, integrated)
        return _document({
            "params": {**_plan_params_doc(plan), "variant": variant},
            "mean_phonon": report.per_mode_mean_phonon.tolist(),
            "com_fidelity": report.com_fidelity_vs_ideal,
            "com_purity": report.com_purity,
            "factorization_gap": report.factorization_gap,
            "p_exact": p_exact,
        })

    n = plan.params.n_ions
    deltas, ts = [plan.params.delta], [plan.cycles[0].duration]
    if args.sweep is not None:
        name, values = _parse_sweep(args.sweep, n)
        grid = values.tolist()
        if name == "delta":
            deltas, ts = grid, ts * len(grid)
        else:
            deltas, ts = deltas * len(grid), grid
    results = multimode.analyze_points(plan, modes, integrated, deltas, ts)
    fixed = [repr(plan.params.eta), repr(plan.params.omega), repr(n),
             repr(plan.alpha.real), repr(plan.alpha.imag), variant]

    def row(delta: float, t: float, result) -> list:
        base = [repr(delta), repr(t)] + fixed
        if isinstance(result, SolverError):
            return base + ["false"] + [""] * (4 + n)
        report, p_exact = result
        return (
            base
            + ["true"]
            + [
                repr(p_exact),
                repr(report.com_fidelity_vs_ideal),
                repr(report.com_purity),
                repr(report.factorization_gap),
            ]
            + [repr(float(m)) for m in report.per_mode_mean_phonon]
        )

    header = (
        ["delta", "t", "eta", "omega", "n_ions", "alpha_re", "alpha_im", "variant", "complete"]
        + ["p_exact", "com_fidelity", "com_purity", "gap"]
        + [f"mean_phonon_{l + 1}" for l in range(n)]
    )
    return _csv_text(header, map(row, deltas, ts, results))


def cmd_modes(args) -> str:
    geometry = chain.equilibrium_positions(args.n_ions)
    table = chain.normal_modes(geometry)
    if args.format == "json":
        return _document({
            "params": {"n_ions": args.n_ions},
            "mu": table.frequencies.tolist(),
            "b": table.vectors.T.tolist(),
            "positions": geometry.positions.tolist(),
        })
    return _csv_text(
        ["n_ions", "mode", "mu"] + [f"b_{i + 1}" for i in range(table.n_ions)],
        (
            [repr(args.n_ions), repr(l + 1), repr(float(table.frequencies[l]))]
            + [repr(float(x)) for x in table.vectors[:, l]]
            for l in range(table.n_ions)
        ),
    )


def cmd_fit(args) -> str:
    pairs = _load_json(args.input)
    if not isinstance(pairs, list):
        raise ValueError("fit target must be a JSON list of [re, im] pairs")
    target = FockVector([_complex_from_pair(p, f"amplitude {k}") for k, p in enumerate(pairs)])
    alpha = _parse_complex_arg(args.alpha, "--alpha")
    beta = _parse_complex_arg(args.beta, "--beta")
    coeffs, fidelity = inverse.fit_target(target, args.n, alpha, beta)
    return _document({
        "params": {
            "n": args.n,
            "alpha": _pair(alpha),
            "beta": _pair(beta),
            "cutoff": target.cutoff,
        },
        "coeffs": _pairs(coeffs.coeffs),
        "fidelity": fidelity,
    })


def cmd_validate(args) -> str:
    params = PhysicalParams(
        eta=args.eta, omega=args.omega, delta=args.delta, n_ions=args.n_ions
    )
    modes = chain.normal_modes(chain.equilibrium_positions(args.n_ions))
    cfg = multimode.TrotterConfig(
        cutoff=args.cutoff, steps=args.steps, include_fast_terms=args.full_terms
    )
    weights = None
    if args.weights is not None:
        weights = [_parse_complex_arg(w, "--weights") for w in args.weights.split(";")]
    report = multimode.trotter_validate(params, modes, args.t, cfg, weights=weights)
    return _document({
        "params": {
            "eta": args.eta,
            "omega": args.omega,
            "delta": args.delta,
            "n_ions": args.n_ions,
            "t": args.t,
            "cutoff": args.cutoff,
            "steps": args.steps,
            "full_terms": args.full_terms,
            "weights": _pairs(weights) if weights is not None else _pairs([0j] * args.n_ions),
        },
        "fidelity_integrated": report.fidelity_integrated,
        "fidelity_endpoint": report.fidelity_endpoint,
        "step_halving_ratio": report.step_halving_ratio,
        "fast_terms_effect": report.fast_terms_effect,
        "conditional_weight": report.conditional_weight,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ile",
        description="Plan and simulate line superpositions of coherent states "
        "on the COM mode of a trapped-ion string.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve a coefficient target for internal-state weights")
    p.add_argument("--input", required=True, help="target JSON with a 'coeffs' list")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("--all", action="store_true",
                   help="also list the (unique) realization under 'solutions'")

    p = sub.add_parser("simulate", help="run a plan on the COM mode alone")
    p.add_argument("--input", required=True, help="plan JSON")
    p.add_argument("--output", default=None)
    p.add_argument("--fock", type=int, default=None, metavar="CUTOFF",
                   help="also dump the state on the number basis at this cutoff")

    p = sub.add_parser("leakage", help="spectator-mode leakage report (CSV)")
    p.add_argument("--input", required=True, help="plan JSON")
    p.add_argument("--output", default=None)
    p.add_argument("--sweep", default=None, metavar="NAME=START:STOP:COUNT",
                   help="sweep 'delta' or 't' over a linear grid")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="json is available for single points only")
    p.add_argument("--paper-beta", action="store_true",
                   help="endpoint-form displacement amplitudes, beta ~ t e^{i(mu-delta)t}, "
                   "in place of the bounded time-integrated ones")

    p = sub.add_parser("modes", help="chain normal-mode table")
    p.add_argument("n_ions", type=int)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("fit", help="fit a number-basis target by a line superposition")
    p.add_argument("--input", required=True,
                   help="target JSON: list of [re, im] amplitude pairs")
    p.add_argument("--output", default=None)
    p.add_argument("--n", type=int, required=True, help="component count minus one")
    p.add_argument("--alpha", default="0", help="grid centre, 'RE' or 'RE,IM'")
    p.add_argument("--beta", required=True, help="grid half-step, 'RE' or 'RE,IM'")

    p = sub.add_parser("validate", help="integrator referee for the displacement formulas")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n-ions", type=int, default=1)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--cutoff", type=int, default=16)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--full-terms", action="store_true",
                   help="also measure the effect of the fast terms dropped by the RWA")
    p.add_argument("--weights", default=None,
                   help="semicolon-separated internal weights, each 'RE' or 'RE,IM'")
    p.add_argument("--output", default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as "Category: message" on one line: the user sees what was
    warned about, not where in the package."""
    return f"{category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The handler is looked up at call time, so a wrapped cmd_* still runs.
    handler = globals()[f"cmd_{args.command}"]
    formatter, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        _emit(handler(args), args.output)
    except (np.linalg.LinAlgError, SolverError) as exc:  # LinAlgError is a ValueError
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except MemoryError as exc:
        print(f"solver error: out of memory ({exc})", file=sys.stderr)
        return _EXIT_SOLVER
    finally:
        warnings.formatwarning = formatter
    return 0


if __name__ == "__main__":
    sys.exit(main())
