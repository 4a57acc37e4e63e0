import csv
import json
import math
import pathlib
import sys
import tempfile
import types
import warnings

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ile import chain, cli, errors, fock, inverse, multimode, protocol
from ile.errors import SolverError

PLAN = {
    "eta": 0.1,
    "omega": 0.05,
    "delta": 0.97,
    "n_ions": 2,
    "alpha": [0.3, 0.0],
    "cycles": [{"t": 80.0, "p": [[0.3, 0.2], [0.0, -0.4]]}],
}

# Heavily overlapping components with large alternating coefficients: the
# coherent Gram sums cancel far past float precision (a 50-digit evaluation
# gives p_exact 3.0e-24 for simulate, 2.6e-26 and COM purity 0.9999 for
# leakage, where float sums gave 1.1e-21, 4.9e-22 and 0.0).
CANCELLING_PLAN = {
    "eta": 0.05,
    "omega": 0.01,
    "delta": 0.99,
    "n_ions": 2,
    "alpha": [0.3, 0.0],
    "cycles": [{"t": 200.0, "p": [[2.0, 0.0], [-2.0, 0.0]]}] * 20,
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


def assert_layout(text):
    """JSON output is laid out exactly as ``json.dumps(indent=2)`` lays it out."""
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def run_capped(argv, address_space=2 << 30, timeout=None):
    """``python -m ile.cli argv`` run to its end, or past ``timeout`` seconds
    to a TimeoutExpired, in a fresh process whose address space is capped
    (2 GiB by default); its stderr is kept as text."""
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import ile

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    here = Path(ile.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "ile.cli", *argv], cwd=here, preexec_fn=cap,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


class TestPlanCommand:
    def test_balanced_cat(self, tmp_path, capsys):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0, 0], [1, 0]]})
        out = tmp_path / "sol.json"
        assert run(["plan", "--input", target, "--output", str(out)]) == 0
        assert_layout(out.read_text())
        doc = json.loads(out.read_text())
        weights = [complex(re, im) for re, im in doc["weights"]]
        assert sorted(w.imag for w in weights) == [-1.0, 1.0]
        assert max(abs(w.real) for w in weights) <= 1e-12
        assert doc["p_nominal"] == 1 / 64
        assert doc["residual"] <= 1e-9

    def test_binomial_target(self, tmp_path):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [2, 0], [1, 0]]})
        out = tmp_path / "sol.json"
        assert run(["plan", "--input", target, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["p_nominal"] == pytest.approx(1 / 16, abs=1e-12)
        assert max(abs(complex(re, im)) for re, im in doc["weights"]) <= 1e-7

    def test_all_flag_lists_solutions(self, tmp_path):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0, 0], [1, 0]]})
        out = tmp_path / "sol.json"
        assert run(["plan", "--input", target, "--output", str(out), "--all"]) == 0
        assert_layout(out.read_text())
        doc = json.loads(out.read_text())
        assert "solutions" in doc and len(doc["solutions"]) >= 1

    def test_malformed_json_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "never.json"
        assert run(["plan", "--input", str(bad), "--output", str(out)]) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unsolvable_target_exits_3(self, tmp_path, capsys):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [-1, 0]]})
        assert run(["plan", "--input", target]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_coeffs_not_a_list_exits_2(self, tmp_path, capsys):
        target = write_json(tmp_path / "t.json", {"coeffs": 5})
        assert run(["plan", "--input", target]) == 2
        err = capsys.readouterr().err
        assert err == "error: target's 'coeffs' must be a list of [re, im] pairs\n"

    def test_qz_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # LAPACK's zggev reports info = 1 (the QZ iteration did not converge)
        def zggev(a, b, **kwargs):
            n = len(a)
            return np.ones(n, complex), np.ones(n, complex), None, None, np.ones(1, complex), 1

        monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", types.SimpleNamespace(zggev=zggev))
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0.4, 0.3], [0.9, -0.2]]})
        assert run(["plan", "--input", target]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: QZ solve") and "info 1" in err and "Traceback" not in err

    def test_oversized_target_exits_3(self, tmp_path):
        # a 20,000-square companion pencil; refused before it is allocated
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0]] * 20001})
        out = tmp_path / "sol.json"
        assert run_capped(["plan", "--input", target, "--output", str(out)]).returncode == 3
        assert not out.exists()


class TestSimulateCommand:
    def test_single_ion_single_cycle(self, tmp_path):
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[0, 0]]}])
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.json"
        assert run(["simulate", "--input", path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["p_nominal"] == 0.25
        coeffs = [complex(re, im) for re, im in doc["coeffs"]]
        assert coeffs == [1, 1]
        assert doc["per_cycle"] and abs(np.prod(doc["per_cycle"]) - doc["p_exact"]) < 1e-12

    def test_plan_simulate_roundtrip(self, tmp_path):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0, 0], [1, 0]]})
        sol_path = tmp_path / "sol.json"
        assert run(["plan", "--input", target, "--output", str(sol_path)]) == 0
        sol = json.loads(sol_path.read_text())
        plan = dict(PLAN, n_ions=2, cycles=[{"t": 80.0, "p": sol["weights"]}])
        out = tmp_path / "r.json"
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan), "--output", str(out)]) == 0
        coeffs = np.array([complex(re, im) for re, im in json.loads(out.read_text())["coeffs"]])
        want = np.array([1.0, 0.0, 1.0])
        scale = np.vdot(coeffs, want) / np.vdot(coeffs, coeffs)
        assert np.linalg.norm(scale * coeffs - want) / np.linalg.norm(want) <= 1e-9

    def test_fock_dump_norm_matches_gram(self, tmp_path):
        path = write_json(tmp_path / "p.json", PLAN)
        out = tmp_path / "r.json"
        assert run(["simulate", "--input", path, "--output", str(out), "--fock", "64"]) == 0
        assert_layout(out.read_text())
        doc = json.loads(out.read_text())
        vec = fock.FockVector([complex(re, im) for re, im in doc["fock"]])
        plan = cli._plan_from_json(PLAN)
        state = protocol.run_ideal(plan).state
        assert abs(fock.norm(vec) ** 2 - state.norm_sq()) <= 1e-8

    def test_non_finite_result_exits_3_without_output(self, tmp_path, capsys):
        # 20 ions x 60 cycles: the line coefficients overflow the float range
        plan = dict(PLAN, n_ions=20, cycles=[{"t": 80.0, "p": [[0.3, 0.2]] * 20}] * 60)
        out = tmp_path / "r.json"
        path = write_json(tmp_path / "p.json", plan)
        assert run(["simulate", "--input", path, "--output", str(out)]) == 3
        assert not out.exists()
        assert "solver error" in capsys.readouterr().err

    def test_cancelled_gram_sum_exits_3_without_output(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        path = write_json(tmp_path / "p.json", CANCELLING_PLAN)
        assert run(["simulate", "--input", path, "--output", str(out)]) == 3
        assert not out.exists()
        assert "cancelled" in capsys.readouterr().err

    @pytest.mark.parametrize("n_ions", [2.7, True])
    def test_non_integer_ion_count_exits_2(self, tmp_path, capsys, n_ions):
        # each plan is otherwise valid for int(n_ions) ions
        plan = dict(PLAN, n_ions=n_ions, cycles=[{"t": 80.0, "p": [[0.3, 0.2]] * int(n_ions)}])
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan)]) == 2
        assert "n_ions" in capsys.readouterr().err

    @pytest.mark.parametrize("n_ions", ["2", "2.0", [2]])
    def test_ion_count_not_a_json_number_exits_2(self, tmp_path, capsys, n_ions):
        plan = dict(PLAN, n_ions=n_ions)
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan)]) == 2
        assert f"n_ions must be an integer, got {n_ions!r}" in capsys.readouterr().err

    def test_detuning_phase_past_float_range_exits_2(self, tmp_path, capsys):
        plan = dict(PLAN, n_ions=1, delta=1e300, cycles=[{"t": 1e10, "p": [[0.3, 0.0]]}])
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan)]) == 2
        assert "detuning phase" in capsys.readouterr().err

    def test_weight_whose_modulus_passes_the_float_range_exits_3(self, tmp_path, capsys):
        # each part of the second weight is finite, its modulus is not: the
        # recurrence scales by the largest part, so the line overflows at
        # once, without an overflow warning on the way
        plan = dict(PLAN, eta=0.05, omega=0.01, delta=0.99, n_ions=1,
                    cycles=[{"t": 80.0, "p": [[0.5, 0.5]]},
                            {"t": 80.0, "p": [[1.7e308, 1.7e308]]}])
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan)]) == 3
        assert capsys.readouterr().err == "solver error: line coefficients overflow at 2 slots\n"

    def test_fock_dump_whose_phase_passes_the_float_range_exits_3(self, tmp_path, capsys):
        # |alpha| |beta| = 1e154 x 1e157: the displacement phase of each
        # component is past the float range, so the dump has no amplitudes
        # (the plan without --fock, and at t = 1e10, still runs)
        plan = dict(PLAN, eta=0.1, omega=0.01, delta=0.99, n_ions=1, alpha=[1e154, 0.0],
                    cycles=[{"t": 1e160, "p": [[0.3, 0.0]]}])
        path = write_json(tmp_path / "p.json", plan)
        assert run(["simulate", "--input", path, "--fock", "5"]) == 3
        assert capsys.readouterr().err == (
            "solver error: displacement phase Im(beta conj(alpha)) passes the float range\n"
        )
        assert run(["simulate", "--input", path]) == 0
        near = dict(plan, cycles=[{"t": 1e10, "p": [[0.3, 0.0]]}])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            assert run(["simulate", "--input", write_json(tmp_path / "n.json", near),
                        "--fock", "5"]) == 0

    def test_fock_amplitudes_near_the_float_range(self, tmp_path, capsys):
        # p = 1.7e308 makes line coefficients near the largest float.  At
        # |beta| = 1 and alpha = 0 the components' level-1 amplitudes add to
        # about 2.1e308, past it (exit 3); at |beta| = 0.4 and alpha = (-0.066,
        # 0.32) each amplitude stays in range, although numpy's vector
        # multiply flags an overflow on the way (exit 0)
        far = dict(PLAN, eta=0.05, omega=0.01, delta=0.99, n_ions=1, alpha=[0.0, 0.0],
                   cycles=[{"t": 2000.0, "p": [[1.7e308, 0.0]]}])
        near = dict(PLAN, eta=0.05, omega=0.05, delta=0.6, n_ions=1, alpha=[-0.066, 0.32],
                    cycles=[{"t": 200.0, "p": [[1.7e308, -0.375]]}])
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert run(["simulate", "--input", write_json(tmp_path / "f.json", far),
                        "--fock", "2"]) == 3
            assert capsys.readouterr().err == (
                "solver error: number amplitudes at cutoff 2 pass the float range\n"
            )
            assert run(["simulate", "--input", write_json(tmp_path / "n.json", near),
                        "--fock", "2", "--output", str(out)]) == 0
        assert len(_strict_json(out)["fock"]) == 3

    def test_far_coherent_amplitude_warns_of_truncation(self, tmp_path, capsys):
        # |alpha| = 30 puts the state far above cutoff 40: the dump keeps
        # next to none of its squared norm, and a TruncationWarning says so
        plan = dict(PLAN, eta=0.05, omega=0.01, delta=0.99, n_ions=1, alpha=[30.0, 0.0],
                    cycles=[{"t": 80.0, "p": [[0.3, 0.0]]}])
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["simulate", "--input", path, "--fock", "40", "--output", str(out)]) == 0
        assert [w.category for w in record] == [fock.TruncationWarning]
        assert str(record[0].message).startswith("cutoff 40 keeps ")
        assert len(_strict_json(out)["fock"]) == 41

    @pytest.mark.parametrize("cutoff", ["-1", "-2"])
    def test_negative_fock_cutoff_exits_2(self, tmp_path, capsys, cutoff):
        path = write_json(tmp_path / "p.json", PLAN)
        assert run(["simulate", "--input", path, "--fock", cutoff]) == 2
        assert "cutoff must be at least 1" in capsys.readouterr().err

    def test_oversized_fock_dump_refused_at_once(self, tmp_path):
        # 2e7 levels: a 4.2 GiB dump, refused before minutes of recurrence
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[0.3, 0.2]]}])
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.json"
        done = run_capped(["simulate", "--input", path, "--output", str(out), "--fock", "20000000"],
                          timeout=20)
        assert done.returncode == 3
        assert "budget 1 GiB" in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()

    def test_refused_need_rounds_up(self, tmp_path, capsys):
        # 4,793,491 levels need 224 B each, 171 bytes past 1 GiB: the message
        # rounds the need up rather than to the budget itself
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[0.3, 0.2]]}])
        path = write_json(tmp_path / "p.json", plan)
        assert run(["simulate", "--input", path, "--fock", "4793490"]) == 3
        err = capsys.readouterr().err
        assert "4793491-level number-basis dump needs 1.01 GiB (budget 1 GiB)" in err
        errors.check_memory(224 * 4793490, "the largest admitted dump")
        with pytest.raises(SolverError, match=r"needs 1\.01 GiB"):
            errors.check_memory((1 << 30) + 1, "one byte past the budget needs")

    def test_unequal_durations_exit_2(self, tmp_path, capsys):
        # one ulp apart too: the state would be built at the first window alone
        for t in (81.0, 80.00000000000001):
            plan = dict(
                PLAN,
                n_ions=1,
                cycles=[{"t": 80.0, "p": [[0, 0]]}, {"t": t, "p": [[0, 0]]}],
            )
            path = write_json(tmp_path / "p.json", plan)
            assert run(["simulate", "--input", path]) == 2
            assert capsys.readouterr().err == "error: all cycle durations must be equal\n"

    @pytest.mark.parametrize("weights", [5, None, True, {"re": 0.3}], ids=["int", "null", "bool", "object"])
    def test_cycle_weights_not_a_list_exit_2(self, tmp_path, capsys, weights):
        plan = dict(PLAN, cycles=[PLAN["cycles"][0], {"t": 80.0, "p": weights}])
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan)]) == 2
        assert capsys.readouterr().err == "error: cycle 1's 'p' must be a list of [re, im] pairs\n"

    def test_warning_prints_as_one_line(self, tmp_path, capsys, monkeypatch):
        # omega above delta / 10 draws a RegimeWarning from the plan's parameters
        plan = dict(PLAN, eta=0.05, omega=0.09, delta=0.68)
        path = write_json(tmp_path / "p.json", plan)

        # the default hook, which pytest's own warning capture replaces here
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        before = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            monkeypatch.setattr(warnings, "showwarning", show)
            assert run(["simulate", "--input", path, "--output", str(tmp_path / "r.json")]) == 0
        assert warnings.formatwarning is before
        assert capsys.readouterr().err == (
            "RegimeWarning: omega = 0.09 is not small against delta = 0.68; "
            "the weak-drive elimination is marginal\n"
        )


class TestLeakageCommand:
    def test_sweep_two_points(self, tmp_path):
        path = write_json(tmp_path / "p.json", PLAN)
        out = tmp_path / "r.csv"
        assert run([
            "leakage", "--input", path, "--output", str(out),
            "--sweep", "delta=0.95:0.99:2",
        ]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 3  # header + 2 points
        header = rows[0]
        for col in ("delta", "t", "com_fidelity", "gap", "mean_phonon_1", "mean_phonon_2"):
            assert col in header
        deltas = [float(r[header.index("delta")]) for r in rows[1:]]
        assert deltas == [0.95, 0.99]

    def test_single_ion_gap_is_zero(self, tmp_path):
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[0.3, 0.2]]}])
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.csv"
        assert run(["leakage", "--input", path, "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        gap = float(rows[1][rows[0].index("gap")])
        assert gap <= 1e-12

    def test_variant_column(self, tmp_path):
        path = write_json(tmp_path / "p.json", PLAN)
        out = tmp_path / "r.csv"
        assert run(["leakage", "--input", path, "--output", str(out), "--paper-beta"]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][rows[0].index("variant")] == "paper"

    def test_term_cap_marks_row_incomplete(self, tmp_path):
        # 10 ions x 2 cycles: 5^10 lags, over the lag-lattice memory budget
        cycle = {"t": 80.0, "p": [[0.3, 0.2], [0.0, -0.4]] * 5}
        path = write_json(tmp_path / "p.json", dict(PLAN, n_ions=10, cycles=[cycle, cycle]))
        out = tmp_path / "r.csv"
        assert run(["leakage", "--input", path, "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        idx = rows[0].index("complete")
        assert rows[1][idx] == "false"
        assert rows[1][rows[0].index("p_exact")] == ""

    @pytest.mark.parametrize("n_ions, n_cycles", [(4, 2), (5, 1), (8, 2), (4, 8)])
    def test_past_the_tensor_product_frontier(self, tmp_path, n_ions, n_cycles):
        weights = [[0.3, 0.2], [0.0, -0.4], [0.2, -0.1], [0.5, 0.0], [-0.1, 0.3], [0.4, 0.1],
                   [-0.3, -0.2], [0.1, 0.6]]
        cycle = {"t": 80.0, "p": weights[:n_ions]}
        plan = dict(PLAN, n_ions=n_ions, cycles=[cycle] * n_cycles)
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.json"
        argv = ["leakage", "--input", path, "--output", str(out), "--format", "json"]
        assert run_capped(argv).returncode == 0
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
        assert 0.0 <= doc["factorization_gap"] <= 1.0
        assert len(doc["mean_phonon"]) == n_ions

    def test_cancelled_gram_sum_exits_3_or_marks_row_incomplete(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", CANCELLING_PLAN)
        out = tmp_path / "r.json"
        assert run(["leakage", "--input", path, "--output", str(out), "--format", "json"]) == 3
        assert not out.exists()
        assert "cancelled" in capsys.readouterr().err
        out = tmp_path / "r.csv"
        assert run(["leakage", "--input", path, "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][rows[0].index("complete")] == "false"

    def test_long_binomial_line_runs_past_the_coefficient_overflow(self, tmp_path):
        # 1 ion x 1,100 cycles at p = 0: the binomial line coefficients leave
        # the float range, the lines leakage carries scaled by powers of two
        # do not; the endpoint variant's p_exact is that of the COM mode alone
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[0.0, 0.0]]}] * 1100)
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["leakage", "--input", path, "--output", str(out), "--format", "json"]
            assert run(argv + ["--paper-beta"]) == 0
            doc = json.loads(out.read_text(), parse_constant=pytest.fail)
            out = tmp_path / "r.csv"
            assert run(["leakage", "--input", path, "--output", str(out)]) == 0
        p_exact = protocol.success_probability_exact(cli._plan_from_json(plan))[0]
        assert abs(doc["p_exact"] - p_exact) <= 1e-10
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][rows[0].index("complete")] == "true"

    def test_long_single_ion_plan_matches_simulate(self, tmp_path):
        # 1 ion x 200 cycles at p = 10: line coefficients near 1e208, whose
        # squared l1 norm overflows; with one ion leakage's p_exact is simulate's
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[10.0, 0.0]]}] * 200)
        path = write_json(tmp_path / "p.json", plan)
        leak, sim = tmp_path / "l.json", tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["leakage", "--input", path, "--output", str(leak), "--format", "json"]
            assert run(argv + ["--paper-beta"]) == 0
            assert run(["simulate", "--input", path, "--output", str(sim)]) == 0
        p_leak = json.loads(leak.read_text())["p_exact"]
        assert p_leak == pytest.approx(json.loads(sim.read_text())["p_exact"], rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, -1.0])
    def test_line_below_the_float_range(self, tmp_path, p):
        # 1 ion x 1,100 cycles at p = +-1: the line is one coherent state of
        # amplitude 2^-550, whose square underflows; it is the whole state,
        # so the COM mode holds the ideal line and p_exact underflows to 0
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[p, 0.0]]}] * 1100)
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.json"
        assert run(["leakage", "--input", path, "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert doc["p_exact"] == 0.0
        assert doc["com_fidelity"] >= 1 - 1e-12 and doc["com_purity"] >= 1 - 1e-12

    def test_line_whose_scale_underflows_keeps_its_fields(self, tmp_path):
        # at 2,200 cycles the line's one amplitude, 2^-1100, is 0 in floats;
        # the line keeps its power of two apart, so only p_exact underflows
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[1.0, 0.0]]}] * 2200)
        path = write_json(tmp_path / "p.json", plan)
        out, table = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(["leakage", "--input", path, "--format", "json", "--output", str(out)]) == 0
        assert run(["leakage", "--input", path, "--output", str(table)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert doc["p_exact"] == 0.0
        assert doc["com_fidelity"] >= 1 - 1e-12 and doc["com_purity"] >= 1 - 1e-12
        rows = list(csv.reader(table.read_text().splitlines()))
        assert rows[1][rows[0].index("complete")] == "true"

    def test_point_of_zero_norm_is_refused_silently(self, tmp_path, capsys):
        # the point's squared norm is exactly 0; the cancellation gate
        # refuses it without a division warning on the way
        plan = {"eta": 0.25, "omega": 1e-300, "delta": 0.95, "n_ions": 1, "alpha": [0.0, 0.0],
                "cycles": [{"t": 1e160, "p": [[0.5, 1e300]]}]}
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", protocol.RegimeWarning)
            argv = ["leakage", "--paper-beta", "--input", path]
            assert run(argv + ["--format", "json"]) == 3
            assert "cancelled" in capsys.readouterr().err
            assert run(argv + ["--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][rows[0].index("complete")] == "false"

    @pytest.mark.parametrize("p, n_cycles", [(1e200, 3), (1e300, 2), (1e5, 70)])
    def test_large_weights_keep_the_lines_in_range(self, tmp_path, p, n_cycles):
        """A slot of weight p grows the line by up to 2 (1 + |p|), so these
        lines pass the float range within a few slots or within 64."""
        plan = {"eta": 0.05, "omega": 0.09, "delta": 0.99, "n_ions": 1, "alpha": [0.0, 0.0],
                "cycles": [{"t": 200.0, "p": [[p, 0.0]]}] * n_cycles}
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "leak.json"
        assert run(["leakage", "--input", path, "--format", "json", "--paper-beta",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
        ref = protocol.success_probability_exact(cli._plan_from_json(plan))[0]
        assert doc["p_exact"] == pytest.approx(ref, rel=1e-10, abs=0)

    def test_oversized_sweep_refused_before_the_grid(self, tmp_path):
        # a billion-point grid: 7.5 GiB of values, 1.3 TiB of rows
        plan = dict(PLAN, n_ions=1, cycles=[{"t": 80.0, "p": [[0.3, 0.2]]}])
        path = write_json(tmp_path / "p.json", plan)
        out = tmp_path / "r.csv"
        done = run_capped(["leakage", "--input", path, "--output", str(out),
                           "--sweep", "t=1:2:1000000000"], timeout=20)
        assert done.returncode == 3
        assert "budget 1 GiB" in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()

    def test_bad_sweep_spec(self, tmp_path):
        path = write_json(tmp_path / "p.json", PLAN)
        assert run(["leakage", "--input", path, "--sweep", "delta=0:1:1"]) == 2
        assert run(["leakage", "--input", path, "--sweep", "omega=0:1:3"]) == 2

    @pytest.mark.parametrize(
        "spec", ["delta=0.9:inf:3", "t=1:-inf:2", "t=nan:90:2", "t=-1e308:1.7e308:3"]
    )
    def test_non_finite_sweep_bounds_exit_2(self, tmp_path, capsys, spec):
        # refused before np.linspace, which warns on each of these
        path = write_json(tmp_path / "p.json", PLAN)
        assert run(["leakage", "--input", path, "--sweep", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep bounds") and err.count("\n") == 1

    def test_json_single_point(self, tmp_path):
        path = write_json(tmp_path / "p.json", PLAN)
        out = tmp_path / "r.json"
        assert run(["leakage", "--input", path, "--output", str(out), "--format", "json"]) == 0
        assert_layout(out.read_text())
        doc = json.loads(out.read_text())
        for key in ("mean_phonon", "com_fidelity", "com_purity", "factorization_gap", "p_exact"):
            assert key in doc
        assert len(doc["mean_phonon"]) == 2
        assert run(["leakage", "--input", path, "--format", "json", "--sweep", "t=1:2:2"]) == 2


class TestHugeWeights:
    # |p| = 1e300 squares past the float range; every command must agree with
    # |p| = 1e10, whose results differ from the limit by O(1/|p|)
    FIELDS = {
        "simulate": ("p_exact", "per_cycle"),
        "leakage": ("mean_phonon", "com_fidelity", "com_purity", "factorization_gap", "p_exact"),
        "validate": ("fidelity_integrated", "fidelity_endpoint", "step_halving_ratio",
                     "conditional_weight"),
    }

    @staticmethod
    def outputs(tmp_path, p):
        plan = dict(PLAN, cycles=[{"t": 80.0, "p": [[p, 0.0], [-0.2, 0.4]]}])
        path = write_json(tmp_path / f"plan{p:g}.json", plan)
        argvs = {
            "simulate": ["simulate", "--input", path],
            "leakage": ["leakage", "--input", path, "--format", "json"],
            "validate": ["validate", "--eta", "0.05", "--omega", "0.005", "--delta", "0.99",
                         "--t", "100", "--steps", "10", "--cutoff", "12", "--weights", repr(p)],
        }
        docs = {}
        for cmd, argv in argvs.items():
            out = tmp_path / f"{cmd}{p:g}.json"
            assert run(argv + ["--output", str(out)]) == 0
            docs[cmd] = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
        return docs

    def test_match_a_large_finite_weight(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = self.outputs(tmp_path, 1e300)
        ref = self.outputs(tmp_path, 1e10)
        for cmd, keys in self.FIELDS.items():
            for key in keys:
                assert np.allclose(huge[cmd][key], ref[cmd][key], rtol=1e-9, atol=0), (cmd, key)


class TestModesCommand:
    def test_json_at_every_ion_count(self, tmp_path):
        # n = 1..64: n modes, the in-phase one first at mu = 1 exactly
        for n in range(1, 65):
            out = tmp_path / f"m{n}.json"
            assert run(["modes", str(n), "--output", str(out)]) == 0
            assert_layout(out.read_text())
            doc = json.loads(out.read_text())
            assert doc["mu"][0] == 1.0
            assert len(doc["mu"]) == len(doc["b"]) == len(doc["positions"]) == n
        assert abs(json.loads((tmp_path / "m2.json").read_text())["mu"][1] - np.sqrt(3)) < 1e-8

    def test_json_three_ions(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["modes", "3", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["mu"][2] - np.sqrt(29 / 5)) < 1e-6

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["modes", "3", "--format", "csv", "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["n_ions", "mode", "mu", "b_1", "b_2", "b_3"]
        assert len(rows) == 4  # header + one row per mode

    def test_degenerate_spectrum_is_a_solver_failure(self, monkeypatch, capsys):
        # ChainGeometry rules degeneracy out; a spectrum that has it all the
        # same ends in exit 3 with an error line, not in a traceback
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (np.ones(len(h)), np.eye(len(h))))
        assert run(["modes", "3"]) == 3
        err = capsys.readouterr().err
        assert "near-degenerate mode spectrum" in err and "Traceback" not in err

    def test_unconverged_eigensolve_is_a_solver_failure(self, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError, but not a sign of bad input
        def eigh(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert run(["modes", "4"]) == 3
        err = capsys.readouterr().err
        assert err == "solver error: Eigenvalues did not converge\n"


class TestFitCommand:
    def test_coherent_on_own_grid(self, tmp_path):
        target = fock.coherent_fock(0.3, 48)
        path = write_json(tmp_path / "t.json", cli._pairs(target.amps))
        out = tmp_path / "f.json"
        assert run([
            "fit", "--input", path, "--output", str(out),
            "--n", "2", "--alpha", "0.3", "--beta", "0.9",
        ]) == 0
        assert_layout(out.read_text())
        doc = json.loads(out.read_text())
        assert doc["fidelity"] >= 1 - 1e-10

    def test_complex_beta_argument(self, tmp_path):
        target = fock.coherent_fock(0.2j, 32)
        path = write_json(tmp_path / "t.json", cli._pairs(target.amps))
        out = tmp_path / "f.json"
        assert run([
            "fit", "--input", path, "--output", str(out),
            "--n", "2", "--alpha", "0,0.2", "--beta", "0,0.5",
        ]) == 0
        assert json.loads(out.read_text())["fidelity"] >= 1 - 1e-10

    def test_far_grid_leaves_stderr_empty(self, tmp_path, capsys):
        target = fock.coherent_fock(0.5 + 0.2j, 8)
        path = write_json(tmp_path / "t.json", cli._pairs(target.amps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--input", path, "--n", "8", "--beta", "0.6"]) == 0
        got = capsys.readouterr()
        assert got.err == ""
        coeffs, fidelity = inverse.fit_target(target, 8, 0j, 0.6)
        doc = json.loads(got.out)
        assert doc["coeffs"] == cli._pairs(coeffs.coeffs)
        assert doc["fidelity"] == fidelity

    def test_object_target_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", {"amplitudes": [[0.6, 0], [0, 0.3]]})
        assert run(["fit", "--input", path, "--n", "4", "--beta", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: fit target must be a JSON list of [re, im] pairs\n"

    def test_target_past_the_squared_range(self, tmp_path):
        # |target|^2 overflows, and fit is projective: it fits the target as
        # it fits the same target times 2^-1000
        huge = [[1e300, 0.5], [0.01, 1e5], [0.5, 1e155]]
        tame = [[math.ldexp(x, -1000) for x in pair] for pair in huge]
        docs = []
        for name, target in (("huge", huge), ("tame", tame)):
            out = tmp_path / f"{name}.json"
            argv = ["fit", "--input", write_json(tmp_path / f"{name}-t.json", target),
                    "--n", "4", "--beta", "0.3", "--output", str(out)]
            assert run(argv) == 0
            docs.append(json.loads(out.read_text(), parse_constant=pytest.fail))
        assert docs[0]["fidelity"] == docs[1]["fidelity"] == pytest.approx(1.0, abs=1e-12)
        big = np.array([complex(*c) for c in docs[0]["coeffs"]])
        small = np.array([complex(*c) for c in docs[1]["coeffs"]])
        assert np.array_equal(np.ldexp(big.real, -1000) + 1j * np.ldexp(big.imag, -1000), small)

    def test_target_whose_square_underflows(self, tmp_path):
        tiny = [[1e-320, 0.0], [0.0, 2e-320], [3e-320, 1e-320]]
        out = tmp_path / "f.json"
        argv = ["fit", "--input", write_json(tmp_path / "t.json", tiny),
                "--n", "4", "--beta", "0.3", "--output", str(out)]
        assert run(argv) == 0
        target = fock.FockVector([math.ldexp(re, 1000) + 1j * math.ldexp(im, 1000)
                                  for re, im in tiny])
        assert json.loads(out.read_text())["fidelity"] == inverse.fit_target(target, 4, 0j, 0.3)[1]

    def test_oversized_grid_exits_3(self, tmp_path):
        # a 20,001-square component Gram; refused before it is allocated
        path = write_json(tmp_path / "t.json", cli._pairs(fock.coherent_fock(0.3, 8).amps))
        out = tmp_path / "f.json"
        argv = ["fit", "--input", path, "--output", str(out), "--n", "20000", "--beta", "0.5"]
        assert run_capped(argv).returncode == 3
        assert not out.exists()

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(inverse, "fit_target", refuse)
        path = write_json(tmp_path / "t.json", cli._pairs(fock.coherent_fock(0.3, 8).amps))
        out = tmp_path / "f.json"
        argv = ["fit", "--input", path, "--output", str(out), "--n", "200000", "--beta", "0.5"]
        assert run(argv) == 3
        assert not out.exists()
        assert "out of memory" in capsys.readouterr().err


class TestValidateCommand:
    @pytest.mark.parametrize("t, fast", [("20", []), ("1e-300", []), ("20", ["--full-terms"])],
                             ids=["20", "1e-300", "20-full"])
    def test_exact_resonance_is_healthy(self, tmp_path, t, fast):
        # at delta = 1 the one-ion midpoint step is exact: the step-halving
        # probe sees rounding noise only, which is no integrator failure
        out = tmp_path / "v.json"
        assert run([
            "validate", "--eta", "0.05", "--omega", "0.01", "--delta", "1", "--t", t,
            "--output", str(out), *fast,
        ]) == 0
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
        assert doc["step_halving_ratio"] == 4.0

    def test_conditional_weight_is_a_probability(self, tmp_path):
        # an identity evolution at t = 1e-300 leaves rounding noise that
        # summed to 1 + 2.3e-13 before the weight was clipped
        out = tmp_path / "v.json"
        assert run([
            "validate", "--eta", "0.05", "--omega", "0.01", "--delta", "1", "--t", "1e-300",
            "--output", str(out),
        ]) == 0
        weight = json.loads(out.read_text())["conditional_weight"]
        assert 1 - 1e-12 <= weight <= 1.0

    def test_report_fields(self, tmp_path):
        out = tmp_path / "v.json"
        assert run([
            "validate", "--eta", "0.05", "--omega", "0.005", "--delta", "0.99",
            "--t", "100", "--steps", "10", "--cutoff", "12", "--weights", "1",
            "--output", str(out),
        ]) == 0
        assert_layout(out.read_text())
        doc = json.loads(out.read_text())
        assert doc["fidelity_integrated"] >= doc["fidelity_endpoint"]
        assert 3.0 <= doc["step_halving_ratio"] <= 5.0
        assert doc["fast_terms_effect"] is None

    @pytest.mark.parametrize("weights", ["nan", "inf", "0.3;nan"])
    def test_non_finite_weights_exit_2(self, tmp_path, capsys, weights):
        out = tmp_path / "v.json"
        n_ions = str(weights.count(";") + 1)
        assert run([
            "validate", "--eta", "0.05", "--omega", "0.05", "--delta", "0.99",
            "--t", "20", "--cutoff", "4", "--steps", "10", "--n-ions", n_ions,
            "--weights", weights, "--output", str(out),
        ]) == 2
        assert not out.exists()
        assert "weights must be finite" in capsys.readouterr().err

    def test_detuning_phase_past_float_range_exits_2(self, tmp_path, capsys):
        assert run(["validate", "--eta", "0.05", "--omega", "0.01", "--delta", "1e300",
                    "--t", "1e10"]) == 2
        assert "betas must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--delta", "0.7", "--t", "1.7e308", "--cutoff", "2", "--n-ions", "2"],
        ["--delta", "1.7e308", "--t", "0.865", "--cutoff", "4"],
        ["--delta", "1.7e308", "--t", "0.865", "--cutoff", "4", "--full-terms"],
        ["--delta", "1.7e308", "--t", "1e-300", "--cutoff", "5", "--full-terms"],
    ], ids=["stretch-turns", "detuning-turns", "fast-terms", "partial-products"])
    def test_step_phase_past_float_range_exits_2(self, tmp_path, capsys, args):
        # (1 - delta) t is finite; the phases the steps form, up to t cutoff
        # |mu - delta|, are not, or (at t = 1e-300) their partial products
        # such as cutoff |mu - delta| are not
        out = tmp_path / "v.json"
        code = run(["validate", "--eta", "0.05", "--omega", "0.005", "--steps", "12",
                    "--output", str(out)] + args)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: integrator phase max(1, t) max(cutoff |mu - delta|, ")
        assert err.endswith(") must be finite, got inf\n")

    def test_step_phases_in_range_reach_the_integrator(self, tmp_path, capsys):
        # t cutoff |mu - delta| = 1.7e308 x 6 x 0.01 and t 8 (cutoff + 1)
        # omega = 1.7e308 x 0.28 are finite: the run is admitted, and its
        # step-halving probe fails
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            assert run(["validate", "--eta", "0.05", "--omega", "0.005", "--delta", "0.99",
                        "--t", "1.7e308", "--cutoff", "6", "--steps", "12"]) == 3
        assert capsys.readouterr().err.startswith("solver error: step-halving ratio")

    def test_weight_whose_modulus_passes_the_float_range_keeps_its_spin_state(self, tmp_path):
        # |p| is inf, its parts are not: the spin (i p, 1) is normalized over
        # its largest part, so the run matches one at a weight in range
        docs = []
        for p in ("-1.7e308", "-1e300"):
            out = tmp_path / f"v{p}.json"
            assert run(["validate", "--eta", "0.05", "--omega", "0.005", "--delta", "0.99",
                        "--t", "2.35", "--cutoff", "2", "--steps", "10", "--n-ions", "2",
                        "--weights", f"1.85,-0.68;{p},{p}", "--output", str(out)]) == 0
            docs.append(_strict_json(out))
        for key in ("fidelity_integrated", "fidelity_endpoint"):
            assert docs[0][key] == pytest.approx(docs[1][key], rel=0, abs=1e-12)

    def test_faint_conditional_state_keeps_its_fidelities(self, tmp_path):
        # |p| = 1e160 leaves a conditional state of squared norm 1.4e-34,
        # whose squared norms multiply to 0: each fidelity is taken over the
        # vectors' powers of two, so none is 0 / 0
        out = tmp_path / "v.json"
        assert run(["validate", "--eta", "5e-324", "--omega", "0.005", "--delta", "0.6",
                    "--t", "2.35", "--cutoff", "1", "--steps", "10", "--n-ions", "2",
                    "--weights", "0.251;0.022,1e+160", "--full-terms",
                    "--output", str(out)]) == 0
        doc = _strict_json(out)
        assert doc["fidelity_integrated"] == doc["fidelity_endpoint"] == 1.0
        assert 0 < doc["conditional_weight"] < 1e-30

    def test_three_ions_exit_2(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run(["validate", "--eta", "0.05", "--omega", "0.01", "--delta", "0.99",
                    "--t", "20", "--n-ions", "3", "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: the referee is a desk-scale tool; n_ions <= 2 only\n"
        )

    def test_oversized_step_refused_quickly(self, tmp_path, capsys):
        import time

        out = tmp_path / "v.json"
        start = time.perf_counter()
        code = run([
            "validate", "--eta", "0.05", "--omega", "0.005", "--delta", "0.99",
            "--t", "100", "--cutoff", "1414", "--output", str(out),
        ])
        assert code == 2
        assert time.perf_counter() - start < 0.5
        assert not out.exists()
        assert "desk scale" in capsys.readouterr().err

    def test_overlong_run_refused_quickly(self, tmp_path, capsys):
        import time

        out = tmp_path / "v.json"
        start = time.perf_counter()
        code = run([
            "validate", "--eta", "0.05", "--omega", "0.01", "--delta", "0.99",
            "--t", "20", "--steps", "100000000", "--output", str(out),
        ])
        assert code == 2
        assert time.perf_counter() - start < 0.5
        assert not out.exists()
        assert "whole integrator run beyond desk scale" in capsys.readouterr().err


class TestHugeCoherentAmplitudes:
    """|alpha| whose square overflows a float ends in a documented exit
    code, never in an OverflowError traceback."""

    def test_fit_far_grid_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", [[1, 0], [0, 0], [0.5, 0]])
        out = tmp_path / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            code = run(["fit", "--input", path, "--n", "4", "--alpha", "1e300", "--beta", "0.3",
                        "--output", str(out)])
        assert code == 3
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err

    def test_simulate_fock_dump_far_from_origin(self, tmp_path):
        plan = write_json(tmp_path / "p.json", {**PLAN, "alpha": [1e200, 0.0]})
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            code = run(["simulate", "--input", plan, "--fock", "10", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["fock"] == [[0.0, 0.0]] * 11  # nothing of |1e200> below n = 11


def _strict_json(path):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _sweep_plan(n_ions, n_cycles):
    rng = np.random.default_rng(100 * n_ions + n_cycles)
    cycles = [{"t": 80.0, "p": rng.normal(0.0, 0.5, (n_ions, 2)).tolist()} for _ in range(n_cycles)]
    return dict(PLAN, n_ions=n_ions, alpha=[0.3, -0.2], cycles=cycles)


def _point_fields(plan, integrated):
    """The CSV fields after ``complete`` of ``plan`` run alone through
    ``analyze_plan``, or None where it refuses the point."""
    modes = chain.normal_modes(chain.equilibrium_positions(plan.params.n_ions))
    try:
        report, p_exact = multimode.analyze_plan(plan, modes, integrated)
    except SolverError:
        return None
    values = [p_exact, report.com_fidelity_vs_ideal, report.com_purity, report.factorization_gap]
    return [repr(v) for v in values] + [repr(float(m)) for m in report.per_mode_mean_phonon]


def _point_plan(plan, name, value):
    """``plan`` at one point of its sweep over ``name``, as a plan of its own."""
    if name == "delta":
        return dataclasses.replace(plan, params=dataclasses.replace(plan.params, delta=value))
    cycles = tuple(dataclasses.replace(c, duration=value) for c in plan.cycles)
    return dataclasses.replace(plan, cycles=cycles)


@pytest.fixture
def block_sizes(monkeypatch):
    """The number of points in each block a run evaluates."""
    sizes = []
    report = multimode._report
    monkeypatch.setattr(multimode, "_report", lambda *a: sizes.append(len(a[1])) or report(*a))
    return sizes


class TestSweepPoints:
    """A sweep evaluates its points together, in blocks; each row still
    carries exactly what its point gives alone."""

    @pytest.mark.parametrize("paper", [False, True], ids=["integrated", "paper"])
    @pytest.mark.parametrize("grid", ["t=40:120", "delta=0.95:0.99"], ids=["t", "delta"])
    @pytest.mark.parametrize(
        "n_ions, n_cycles, count", [(1, 1, 40), (2, 3, 5), (3, 2, 5), (4, 1, 5)],
        ids=["1x1", "2x3", "3x2", "4x1"],
    )
    def test_row_equals_its_own_point(self, tmp_path, n_ions, n_cycles, count, grid, paper):
        # 40 one-ion points fill more than one 31-point block
        doc = _sweep_plan(n_ions, n_cycles)
        path = write_json(tmp_path / "p.json", doc)
        out = tmp_path / "r.csv"
        argv = ["leakage", "--input", path, "--output", str(out), "--sweep", f"{grid}:{count}"]
        assert run(argv + (["--paper-beta"] if paper else [])) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        header, rows = rows[0], rows[1:]
        assert len(rows) == count
        name = grid.split("=")[0]
        base = cli._plan_from_json(doc)
        complete = header.index("complete")
        for row in rows:
            point = _point_plan(base, name, float(row[header.index(name)]))
            want = _point_fields(point, not paper)
            assert want is not None and row[complete] == "true"
            assert row[complete + 1:] == want

    def test_mixed_complete_and_refused_rows(self, tmp_path):
        # past about 1e154 the endpoint displacements square out of float
        # range: the first point completes, the other three are refused
        doc = _sweep_plan(2, 2)
        path = write_json(tmp_path / "p.json", doc)
        out = tmp_path / "r.csv"
        argv = ["leakage", "--input", path, "--output", str(out), "--paper-beta",
                "--sweep", "t=80:1e160:4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        header, rows = rows[0], rows[1:]
        complete = header.index("complete")
        assert [row[complete] for row in rows] == ["true", "false", "false", "false"]
        base = cli._plan_from_json(doc)
        for row in rows:
            want = _point_fields(_point_plan(base, "t", float(row[header.index("t")])), False)
            assert row[complete + 1:] == (want or [""] * (4 + 2))

    def test_blocks_of_one_point_give_the_same_bytes(self, tmp_path, monkeypatch, block_sizes):
        path = write_json(tmp_path / "p.json", _sweep_plan(4, 1))
        argv = ["leakage", "--input", path, "--sweep", "t=60:100:3"]

        def sweep(out):
            assert run(argv + ["--output", str(out)]) == 0
            return out.read_bytes()

        whole = sweep(tmp_path / "whole.csv")
        assert block_sizes == [3]
        # room for one 4 x 1 point but not for two
        monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", 3 * multimode._lattice_need(4, 1) // 2)
        block_sizes.clear()
        assert sweep(tmp_path / "split.csv") == whole
        assert block_sizes == [1, 1, 1]
        # an 8 x 2 point, admitted at 1 GiB, passes that budget: every row is refused
        path = write_json(tmp_path / "p8.json", _sweep_plan(8, 2))
        out = tmp_path / "eight.csv"
        assert run(["leakage", "--input", path, "--output", str(out), "--sweep", "t=60:100:3"]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        complete = rows[0].index("complete")
        assert [row[complete] for row in rows[1:]] == ["false"] * 3

    def test_blocks_span_a_bounded_lattice(self, tmp_path, block_sizes):
        # a 6 x 2 point spans 5^6 = 15,625 lags: two points to a block, well
        # within the memory budget's 30
        path = write_json(tmp_path / "p.json", _sweep_plan(6, 2))
        assert run(["leakage", "--input", path, "--output", str(tmp_path / "r.csv"),
                    "--sweep", "t=60:100:5"]) == 0
        assert block_sizes == [2, 2, 1]


_OMEGA = 0.05
# Sweep bounds at and around 0, omega and 1e160, negative ones among them.
_SWEEP_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _OMEGA, -_OMEGA, math.nextafter(_OMEGA, 0.0),
                     math.nextafter(_OMEGA, 1.0), -1.0, 0.97, 80.0, 1e160, -1e160]),
    st.builds(lambda x, r: x * (1.0 + r), st.sampled_from([_OMEGA, 1e160, -1e160]),
              st.floats(-1e-3, 1e-3)),
    st.floats(-2.0, 2.0),
)


class TestSweepGridChecks:
    """The points of a sweep are checked at the grid's extremes; that
    refuses exactly the grids that hold a point a plan of its own refuses."""

    DOC = {"eta": 0.05, "omega": _OMEGA, "delta": 0.97, "n_ions": 1, "alpha": [0.3, 0.0],
           "cycles": [{"t": 80.0, "p": [[0.3, 0.2]]}]}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["delta", "t"]), _SWEEP_BOUNDS, _SWEEP_BOUNDS, st.integers(2, 40))
    @example("delta", 0.01, 1.0, 3)  # a point below omega
    @example("t", 0.0, 1.0, 3)  # a window of 0
    def test_exit_2_exactly_when_a_point_plan_is_refused(self, name, start, stop, count):
        base = cli._plan_from_json(self.DOC)
        values = np.linspace(start, stop, count).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", protocol.RegimeWarning)
            refused = False
            for value in values:
                try:
                    _point_plan(base, name, value)
                except ValueError:
                    refused = True
            with tempfile.TemporaryDirectory() as tmp:
                path = write_json(pathlib.Path(tmp) / "p.json", self.DOC)
                out = pathlib.Path(tmp) / "r.csv"
                code = run(["leakage", "--input", path, "--output", str(out),
                            "--sweep", f"{name}={start!r}:{stop!r}:{count}"])
                text = out.read_text() if code == 0 else ""
        assert code in (0, 2, 3)
        assert (code == 2) == refused
        if code == 0:
            rows = list(csv.reader(text.splitlines()))[1:]
            assert len(rows) == count
            for row in rows:  # the variant and complete columns are words
                assert all(f == "" or math.isfinite(float(f)) for f in row[:7] + row[9:])

    def test_delta_sweep_warns_at_its_extremes(self, tmp_path):
        # omega = 0.05 is not small against delta = 0.3 or 0.4; only the
        # smallest detuning warns
        path = write_json(tmp_path / "p.json", PLAN)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run(["leakage", "--input", path, "--output", str(tmp_path / "r.csv"),
                        "--sweep", "delta=0.3:0.6:4"]) == 0
        assert [str(w.message).split(";")[0] for w in record] == [
            "omega = 0.05 is not small against delta = 0.3"
        ]

    def test_delta_sweep_warns_about_eta_once(self, tmp_path):
        # eta is the plan's and the same at every point: the plan warns
        # about it when it is read, the grid check does not again
        path = write_json(tmp_path / "p.json", dict(PLAN, eta=0.15))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run(["leakage", "--input", path, "--output", str(tmp_path / "r.csv"),
                        "--sweep", "delta=0.3:0.99:3"]) == 0
        assert [str(w.message).split(";")[0] for w in record] == [
            "eta = 0.15 stretches the small-recoil expansion",
            "omega = 0.05 is not small against delta = 0.3",
        ]


class TestHugeDisplacements:
    """A line step |2 beta| whose square overflows a float (past about
    1.3e154) ends in exit 0 with strict output or in exit 3, never in an
    OverflowError traceback."""

    @pytest.fixture(params=[1e160, 1e300])
    def plan(self, request, tmp_path):
        doc = dict(PLAN, n_ions=1, cycles=[{"t": request.param, "p": [[0.5, 0.0]]}])
        return write_json(tmp_path / "p.json", doc)

    @pytest.mark.parametrize("fock_args", [[], ["--fock", "10"]])
    def test_simulate(self, plan, tmp_path, fock_args):
        out = tmp_path / "s.json"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["simulate", "--input", plan, "--output", str(out)] + fock_args) == 0
        # both components lie far above the dump's cutoff, which keeps none of the state
        expected = ["cutoff 10 keeps 0 of the state's squared norm"] if fock_args else []
        assert [str(w.message) for w in record] == expected
        assert all(w.category is fock.TruncationWarning for w in record)
        doc = _strict_json(out)
        # the two components are orthogonal: half of each surviving weight
        assert doc["p_exact"] == pytest.approx(0.5, abs=1e-12)

    def test_paper_beta_leakage_json(self, plan, tmp_path, capsys):
        out = tmp_path / "l.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["leakage", "--paper-beta", "--format", "json", "--input", plan]
            code = run(argv + ["--output", str(out)])
        if code == 0:
            _strict_json(out)
        else:
            assert code == 3 and not out.exists()
            assert "not finite" in capsys.readouterr().err

    def test_paper_beta_leakage_sweep(self, plan, tmp_path):
        out = tmp_path / "l.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["leakage", "--paper-beta", "--sweep", "delta=0.9:0.99:3", "--input", plan]
            assert run(argv + ["--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 4
        complete = rows[0].index("complete")
        for row in rows[1:]:
            fields = row[complete + 1:]
            if row[complete] == "true":
                assert all(np.isfinite(float(x)) for x in fields)
            else:
                assert row[complete] == "false" and fields == [""] * len(fields)

    @pytest.mark.parametrize("t", ["1e160", "1e300"])
    @pytest.mark.parametrize("ions", [[], ["--n-ions", "2", "--full-terms"]], ids=["1", "2-full"])
    def test_validate_exits_3_without_overflow(self, tmp_path, capsys, t, ions):
        # displacements past about 1e154 square out of the float range; the
        # finiteness check of their tables must not overflow on the way
        out = tmp_path / "v.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            code = run([
                "validate", "--eta", "0.05", "--omega", "0.01", "--delta", "0.99", "--t", t,
                "--cutoff", "6", "--steps", "10", "--output", str(out),
            ] + ions)
        assert code == 3 and not out.exists()
        assert capsys.readouterr().err.startswith("solver error:")


class TestStrictPairs:
    """Complex inputs are lists of exactly two JSON numbers, booleans excluded."""

    BAD = [["12", "34"], [True, False], [1, 2, 3], [1], 1.5, None, {"re": 1, "im": 0},
           [1, "0"], [None, 0]]

    @pytest.mark.parametrize("pair", BAD)
    def test_plan_coefficient(self, tmp_path, capsys, pair):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], pair, [1, 0]]})
        assert run(["plan", "--input", target]) == 2
        assert "coefficient must be a [re, im] pair" in capsys.readouterr().err

    def test_plan_string_coefficients(self, tmp_path, capsys):
        # each string unpacked into two characters once solved for 1+2j, 3+4j
        target = write_json(tmp_path / "t.json", {"coeffs": ["12", "34"]})
        assert run(["plan", "--input", target]) == 2
        assert "coefficient must be a [re, im] pair" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", BAD)
    def test_plan_weight_and_alpha(self, tmp_path, capsys, pair):
        weights = dict(PLAN, cycles=[{"t": 80.0, "p": [[0.3, 0.2], pair]}])
        assert run(["simulate", "--input", write_json(tmp_path / "w.json", weights)]) == 2
        assert "cycle 0 weight must be a [re, im] pair" in capsys.readouterr().err
        alpha = dict(PLAN, alpha=pair)
        assert run(["leakage", "--input", write_json(tmp_path / "a.json", alpha)]) == 2
        assert "alpha must be a [re, im] pair" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", BAD + [[[1, 0], [0, 1]]])
    def test_fit_amplitude(self, tmp_path, capsys, pair):
        path = write_json(tmp_path / "t.json", [[0.6, 0], pair, [0.5, 0]])
        assert run(["fit", "--input", path, "--n", "4", "--beta", "0.3"]) == 2
        assert "amplitude 1 must be a [re, im] pair" in capsys.readouterr().err

    def test_fit_bare_numbers(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", [1, 2])
        assert run(["fit", "--input", path, "--n", "4", "--beta", "0.3"]) == 2
        assert "amplitude 0 must be a [re, im] pair" in capsys.readouterr().err

    def test_integer_past_float_range(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"coeffs": [[1, 0], [1' + "0" * 400 + ', 0]]}')
        assert run(["plan", "--input", str(path)]) == 2
        assert "coefficient must be a [re, im] pair" in capsys.readouterr().err

    def test_integer_pairs_stay_valid(self, tmp_path):
        plan = dict(PLAN, alpha=[1, 0], cycles=[{"t": 80.0, "p": [[1, 0], [0, -1]]}])
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", plan)]) == 0
        path = write_json(tmp_path / "t.json", [[1, 0], [0, 0], [1, 0]])
        assert run(["fit", "--input", path, "--n", "4", "--beta", "0.3"]) == 0


class TestStrictScalars:
    """Scalar plan fields are JSON numbers within the float range, booleans
    and strings excluded, as in a [re, im] pair."""

    @pytest.mark.parametrize("field", ["eta", "omega", "delta", "t"])
    @pytest.mark.parametrize(
        "value", ["1" + "0" * 400, '"0.05"', "true"], ids=["past-float-range", "string", "boolean"]
    )
    def test_plan_scalar(self, tmp_path, capsys, field, value):
        doc = dict(PLAN, cycles=[dict(PLAN["cycles"][0])])
        (doc["cycles"][0] if field == "t" else doc)[field] = "VALUE"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        assert run(["simulate", "--input", str(path)]) == 2
        name = "cycle 0 t" if field == "t" else field
        assert f"{name} must be a number" in capsys.readouterr().err


class TestUnwritableOutput:
    def test_missing_directory_and_directory_exit_2(self, tmp_path, capsys):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            assert run(["modes", "2", "--output", str(target)]) == 2
            assert f"cannot write {target}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


def _float_items():
    """Python floats and np.float64 that json.dumps writes with float.__repr__."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1.0]
    )
    return finite | finite.map(np.float64)


def _documents():
    floats = st.floats(allow_nan=False, allow_infinity=False)
    numbers = floats | st.integers(-(2**70), 2**70)
    scalars = (
        st.none() | st.booleans() | st.integers() | _float_items()
        | st.text() | st.sampled_from(["é\u2028\x00\x1f\"\\", "\U0001f600", ""])
    )
    leaves = (
        scalars
        | st.lists(_float_items(), max_size=8)
        | st.lists(st.lists(floats, min_size=2, max_size=2), max_size=6)
        | st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=6)
        | st.lists(st.lists(floats, min_size=3, max_size=3), max_size=4)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    )


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_documents())
    def test_bytes_match_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def test_non_string_keys_and_tuples(self):
        doc = {"a": {1: [0.5, 0.25], None: (1.0, 2.0), 2.5: True}, "b": ((0.1, 0.2),)}
        assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), np.float64("nan")])
    def test_non_finite_raises_solver_error(self, bad):
        docs = [
            bad,
            {"p_exact": bad},
            {"per_cycle": [0.5, bad, 0.25]},
            {"coeffs": [[1.0, 0.0], [0.0, bad]]},
            {"coeffs": [[bad, 0]]},
            {"b": [[0.5, 0.5, bad]]},
            [{"x": [{"y": bad}]}],
        ]
        for doc in docs:
            with pytest.raises(SolverError, match="result is not finite"):
                cli._json_text(doc)

    def test_unknown_type_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"n": [np.int64(3)]})

    def test_non_finite_result_exits_3(self, tmp_path, capsys, monkeypatch):
        real = protocol.run_ideal

        def nan_cycle(plan):
            result = real(plan)
            return dataclasses.replace(result, per_cycle_p_exact=np.array([np.nan]))

        monkeypatch.setattr(protocol, "run_ideal", nan_cycle)
        out = tmp_path / "r.json"
        assert run(["simulate", "--input", write_json(tmp_path / "p.json", PLAN),
                    "--output", str(out)]) == 3
        assert not out.exists()
        assert "result is not finite" in capsys.readouterr().err


class TestOutputSinks:
    """Each command's text reaches stdout and --output byte for byte alike."""

    CASES = {
        "plan": ("json", ["plan", "--input", "{target}"]),
        "plan-all": ("json", ["plan", "--input", "{target}", "--all"]),
        "simulate": ("json", ["simulate", "--input", "{plan}"]),
        "simulate-fock": ("json", ["simulate", "--input", "{plan}", "--fock", "16"]),
        "leakage-json": ("json", ["leakage", "--input", "{plan}", "--format", "json"]),
        "leakage-csv-point": ("csv", ["leakage", "--input", "{plan}"]),
        "leakage-csv-sweep": ("csv", ["leakage", "--input", "{plan}", "--sweep", "t=60:80:3"]),
        "modes-json": ("json", ["modes", "3"]),
        "modes-csv": ("csv", ["modes", "3", "--format", "csv"]),
        "fit": ("json", ["fit", "--input", "{fock}", "--n", "6", "--beta", "0.3,0.1"]),
        "validate": ("json", ["validate", "--eta", "0.05", "--omega", "0.05", "--delta", "0.99",
                              "--t", "20", "--cutoff", "6", "--steps", "10"]),
    }

    @pytest.mark.parametrize("kind, argv", CASES.values(), ids=CASES)
    def test_stdout_equals_output_file(self, tmp_path, capsysbinary, kind, argv):
        files = {
            "target": write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0.4, 0.3], [0.9, -0.2]]}),
            "plan": write_json(tmp_path / "p.json", PLAN),
            "fock": write_json(tmp_path / "f.json", [[0.6, 0], [0, 0.3], [0.5, 0]]),
        }
        argv = [arg.format(**files) for arg in argv]
        assert run(argv) == 0
        printed = capsysbinary.readouterr().out
        out = tmp_path / "out"
        assert run(argv + ["--output", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == printed
        if kind == "json":
            assert_layout(printed.decode())
        else:
            # RFC 4180: every row ends in CRLF and no bare LF appears
            assert printed.endswith(b"\r\n") and printed.count(b"\n") == printed.count(b"\r\n")
            rows = list(csv.reader(printed.decode().splitlines()))
            assert len(rows) > 1 and len(set(map(len, rows))) == 1


class TestParser:
    def test_built_once_across_calls(self, tmp_path, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for n in (1, 2, 3):
                assert run(["modes", str(n), "--output", str(tmp_path / f"m{n}.json")]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_handler_resolved_at_call_time(self, monkeypatch):
        run(["modes", "1", "--format", "csv"])  # the parser is built by now
        seen = []
        monkeypatch.setattr(cli, "cmd_modes", lambda args: seen.append(args.n_ions) or "")
        assert run(["modes", "4"]) == 0
        assert seen == [4]

    def test_leakage_has_no_integrated_flag(self, capsys):
        # the integrated window is the default; --paper-beta is the one switch
        with pytest.raises(SystemExit) as exc:
            run(["leakage", "--input", "p.json", "--integrated"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --integrated" in capsys.readouterr().err


class TestInstalledEntryPoint:
    def test_exit_codes_from_subprocess(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import ile

        # run from the directory holding the package, so `-m ile.cli` resolves
        # in a bare checkout as well as in an installed environment
        here = Path(ile.__file__).resolve().parents[1]
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0, 0], [1, 0]]})
        ok = subprocess.run(
            [sys.executable, "-m", "ile.cli", "plan", "--input", target],
            capture_output=True,
            cwd=here,
        )
        assert ok.returncode == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        invalid = subprocess.run(
            [sys.executable, "-m", "ile.cli", "plan", "--input", str(bad)],
            capture_output=True,
            cwd=here,
        )
        assert invalid.returncode == 2
        unsolvable = write_json(tmp_path / "u.json", {"coeffs": [[1, 0], [-1, 0]]})
        failed = subprocess.run(
            [sys.executable, "-m", "ile.cli", "plan", "--input", unsolvable],
            capture_output=True,
            cwd=here,
        )
        assert failed.returncode == 3
        assert b"solver error" in failed.stderr


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        target = write_json(tmp_path / "t.json", {"coeffs": [[1, 0], [0.4, 0.3], [0.9, -0.2]]})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["plan", "--input", target, "--output", str(a), "--all"]) == 0
        assert run(["plan", "--input", target, "--output", str(b), "--all"]) == 0
        assert a.read_bytes() == b.read_bytes()

        plan_path = write_json(tmp_path / "p.json", PLAN)
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        for out in (c, d):
            assert run([
                "leakage", "--input", plan_path, "--output", str(out),
                "--sweep", "t=50:90:3",
            ]) == 0
        assert c.read_bytes() == d.read_bytes()
