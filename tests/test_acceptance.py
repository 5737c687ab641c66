"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single verdict line and
fails with the list of violated checks.  Reference values are the recorded
four-stage run and the fixed-domain check, at pinned tolerances.
"""

import time

import pytest

from quenchstage.drivers import (
    DirectConfig,
    StagewiseConfig,
    run_direct,
    run_stagewise,
)
from quenchstage.energy import DefectLedger, continuation_check
from quenchstage.verify import run_suite

# stage m, A_m, N_m, h_m, A_m^2 h_m^2, scaled time, min W_m,
# accumulated time, E_start, E_end
TABLE2 = [
    (0, 6.000000e-1, 9, 2.39073046e-1, 2.05761317e-2, 0.139155092,
     0.629960525, 0.0300574999, 10.3614604375, 9.9453726799),
    (1, 3.779763e-1, 18, 2.39073046e-1, 8.16564327e-3, 0.129075841,
     0.629960525, 0.0370275953, 9.5551471290, 9.4090656585),
    (2, 2.381102e-1, 36, 2.39073046e-1, 3.24053768e-3, 0.182219797,
     0.629960525, 0.0394875626, 9.2352717791, 9.1292667294),
    (3, 1.500000e-1, 72, 2.39073046e-1, 1.28600823e-3, 0.165448773,
     0.629960525, 0.0400459522, 9.0483919516, 8.9867082217),
]

# stage m, K_start, K_end, lam*K_start^-2, lam*K_end^-2
TABLE3 = [
    (0, 2.0058835332, 2.2215508842, 4.9707116366, 4.0524481366),
    (1, 2.3246248742, 2.4192042689, 3.7010438831, 3.4173142322),
    (2, 2.4728313793, 2.5409465219, 3.2707020972, 3.0976970784),
    (3, 2.5682440201, 2.6042191097, 3.0321970753, 2.9490012240),
]

JUMPS = [-0.39022555, -0.17379388, -0.08087478]

DIRECT_E0 = 7.545273587988
DIRECT_ET = 7.456582304139
DIRECT_MIN_V = 0.362574574560


@pytest.fixture(scope="module")
def stagewise():
    t0 = time.perf_counter()
    report = run_stagewise(StagewiseConfig())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def direct():
    t0 = time.perf_counter()
    report = run_direct(DirectConfig())
    return report, time.perf_counter() - t0


def _verdict(name, failures):
    print(f"[ACCEPTANCE] {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, "; ".join(failures)


def _check(failures, label, ok):
    if not ok:
        failures.append(label)


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_stagewise_reference_table(stagewise):
    report, elapsed = stagewise
    failures = []
    _check(failures, f"runtime {elapsed:.1f}s > 120s", elapsed <= 120.0)
    _check(failures, "expected 4 stage records", len(report.records) == 4)
    for row, record in zip(TABLE2, report.records):
        m, A, N, h, A2h2, s_star, min_w, t_acc, e_start, e_end = row
        _check(failures, f"stage {m}: index", record.m == m)
        _check(failures, f"stage {m}: N_m exact", record.N == N)
        _check(
            failures,
            f"stage {m}: A_m exact",
            record.A == 0.6 * 2.0 ** (-2.0 * m / 3.0) and _rel(record.A, A) <= 1e-6,
        )
        _check(failures, f"stage {m}: h_m", abs(record.h - h) <= 1e-9)
        _check(failures, f"stage {m}: A_m^2 h_m^2", abs(record.A2h2 - A2h2) <= 1e-9)
        _check(
            failures, f"stage {m}: scaled time", _rel(record.scaled_time, s_star) <= 1e-6
        )
        _check(failures, f"stage {m}: min W_m", _rel(record.min_W, min_w) <= 1e-6)
        _check(
            failures,
            f"stage {m}: accumulated time",
            _rel(record.accumulated_time, t_acc) <= 1e-6,
        )
        _check(failures, f"stage {m}: E_start", _rel(record.E_start, e_start) <= 1e-6)
        _check(failures, f"stage {m}: E_end", _rel(record.E_end, e_end) <= 1e-6)
    _check(failures, "final amplitude 0.15 exact", report.records[3].A == 0.15)
    _verdict("stagewise reference table", failures)


def test_feedback_reference_table(stagewise):
    report, _ = stagewise
    failures = []
    for row, record in zip(TABLE3, report.records):
        m, k_start, k_end, c_start, c_end = row
        _check(failures, f"stage {m}: K_start", _rel(record.K_start, k_start) <= 1e-6)
        _check(failures, f"stage {m}: K_end", _rel(record.K_end, k_end) <= 1e-6)
        _check(
            failures,
            f"stage {m}: lam*K_start^-2",
            _rel(record.coeff_start, c_start) <= 1e-6,
        )
        _check(
            failures,
            f"stage {m}: lam*K_end^-2",
            _rel(record.coeff_end, c_end) <= 1e-6,
        )
    _verdict("feedback reference table", failures)


def test_stage_switch_energy_jumps(stagewise):
    report, _ = stagewise
    failures = []
    _check(failures, "expected 3 transitions", len(report.transitions) == 3)
    for want, transition in zip(JUMPS, report.transitions):
        label = f"jump {transition.m_from}->{transition.m_to}"
        _check(
            failures,
            f"{label} value",
            abs(transition.delta_sw - want) <= 1e-6,
        )
        _check(failures, f"{label} negative", transition.delta_sw < 0.0)
    _verdict("stage-switch energy jumps", failures)


def test_fixed_domain_reference_run(direct):
    report, elapsed = direct
    failures = []
    _check(failures, f"runtime {elapsed:.1f}s > 10s", elapsed <= 10.0)
    _check(failures, "E at t=0", _rel(report.E_start, DIRECT_E0) <= 1e-6)
    _check(failures, "E at t=T", _rel(report.E_end, DIRECT_ET) <= 1e-6)
    _check(failures, "min v", _rel(report.min_v, DIRECT_MIN_V) <= 1e-6)
    _check(
        failures,
        "max u complements min v",
        abs(report.max_u - (1.0 - report.min_v)) <= 1e-14,
    )
    _verdict("fixed-domain reference run", failures)


def test_property_suites_and_ledger_balance(stagewise):
    report, _ = stagewise
    failures = []
    for check in run_suite("all"):
        _check(
            failures,
            f"suite check {check.name}: {check.measured:.3e} vs {check.tolerance:.0e}",
            check.passed,
        )
    lam = report.config.lam
    for row in report.ledger.rows:
        _check(
            failures,
            f"ledger row {row.m_from}->{row.m_to} balance",
            row.E_start <= row.E_end + row.eps_sw + lam * row.eps_out + 1e-12,
        )
    _verdict("property suites and ledger balance", failures)


def test_continuation_diagnostics(stagewise):
    report, _ = stagewise
    failures = []
    rep = report.continuation
    _check(failures, "continuation report present", rep is not None)
    if rep is not None:
        _check(failures, "full-domain flag", rep.full_domain)
        _check(
            failures,
            "flagged outside the bounded-window hypothesis",
            "outside the bounded-window hypothesis" in rep.note,
        )
        _check(failures, "one q per stage", len(rep.q_values) == 4)
        _check(
            failures,
            "defect budget is the switch-defect sum",
            rep.D_star == sum(r.eps_sw for r in report.ledger.rows)
            and all(r.eps_out == 0.0 for r in report.ledger.rows),
        )
        _check(
            failures,
            "threshold is lam*q*/2",
            rep.threshold == 0.5 * report.config.lam * rep.q_star,
        )
    synthetic = continuation_check(
        1.0, DefectLedger(lam=20.0), [2.0], full_domain=False
    )
    _check(failures, "synthetic D* = 0", synthetic.D_star == 0.0)
    _check(
        failures,
        "synthetic threshold 2.5",
        abs(synthetic.threshold - 2.5) <= 1e-12,
    )
    _check(failures, "synthetic verdict true", synthetic.verdict is True)
    _verdict("continuation diagnostics", failures)
