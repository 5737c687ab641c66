"""Nonlocal energy, defect arithmetic, and continuation-criterion checks."""

import math

import numpy as np
import pytest

from quenchstage.drivers import StagewiseConfig, initial_rescaled_profile
from quenchstage.energy import (
    DefectLedger,
    DefectRow,
    continuation_check,
    discrete_energy,
    reciprocal_K,
    switch_jump,
)
from quenchstage.grid import Field, Grid, build_rescaled_grid, grad_norm_sq


def single_node_field(value, g=1.0, A=1.0):
    # rescaled grid with h = 1: N = 2 and L = 1
    grid = Grid(L=1.0, N=2)
    return Field(grid=grid, interior=np.array([[value]]), g=g)


class TestReciprocalK:
    def test_single_node(self):
        Y = single_node_field(1.0)
        assert reciprocal_K(Y, A=1.0) == pytest.approx(2.0, rel=1e-15)

    def test_vanishing_branch(self):
        Y = single_node_field(0.0)
        assert math.isinf(reciprocal_K(Y, A=1.0))
        Yneg = single_node_field(-0.5)
        assert math.isinf(reciprocal_K(Yneg, A=1.0))

    def test_reference_start_value(self):
        cfg = StagewiseConfig()
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        assert reciprocal_K(W, cfg.A0) == pytest.approx(2.0058835332, rel=1e-6)

    def test_monotone_in_values(self):
        rng = np.random.default_rng(11)
        grid = build_rescaled_grid(0.6, 5)
        interior = 1.0 + rng.uniform(0.0, 1.0, (4, 4))
        Y = Field(grid=grid, interior=interior, g=1.0 / 0.6)
        K0 = reciprocal_K(Y, 0.6)
        bumped = interior.copy()
        bumped[2, 1] += 0.25
        K1 = reciprocal_K(Field(grid=grid, interior=bumped, g=Y.g), 0.6)
        assert K1 < K0


class TestDiscreteEnergy:
    def test_single_node_total(self):
        Y = single_node_field(1.0, g=1.0)
        eb = discrete_energy(Y, A=1.0, lam=20.0)
        assert eb.dirichlet == 0.0
        assert eb.K == pytest.approx(2.0)
        assert eb.total == pytest.approx(10.0, rel=1e-14)

    def test_reference_start_energy(self):
        cfg = StagewiseConfig()
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        eb = discrete_energy(W, cfg.A0, cfg.lam)
        assert eb.total == pytest.approx(10.3614604375, rel=1e-6)
        # same number assembled from the two pieces directly
        manual = 0.5 * cfg.A0**2 * grad_norm_sq(W) + cfg.lam / reciprocal_K(W, cfg.A0)
        assert eb.total == pytest.approx(manual, rel=1e-15)

    def test_vanishing_branch_consistency(self):
        Y = single_node_field(0.0)
        eb = discrete_energy(Y, A=1.0, lam=20.0)
        assert math.isinf(eb.K)
        assert eb.reciprocal == 0.0
        assert eb.total == eb.dirichlet


class TestFeedback:
    def test_single_node(self):
        sample = discrete_energy(single_node_field(1.0), A=1.0, lam=20.0)
        assert sample.K == pytest.approx(2.0)
        assert sample.coeff == pytest.approx(5.0)

    def test_vanishing_branch_report(self):
        sample = discrete_energy(single_node_field(-1.0), A=1.0, lam=20.0)
        assert math.isinf(sample.K)
        assert sample.coeff == 0.0

    def test_coeff_bounded_by_lam(self):
        rng = np.random.default_rng(12)
        grid = build_rescaled_grid(0.6, 5)
        for _ in range(10):
            Y = Field(
                grid=grid,
                interior=0.5 + rng.uniform(0.0, 2.0, (4, 4)),
                g=1.0 / 0.6,
            )
            sample = discrete_energy(Y, 0.6, 20.0)
            assert 1.0 <= sample.K
            assert 0.0 < sample.coeff <= 20.0


class TestSwitchJump:
    def test_zero_jump(self):
        assert switch_jump(1.0, 1.0) == (0.0, 0.0)

    def test_reference_first_switch(self):
        delta, eps = switch_jump(9.9453726799, 9.5551471290)
        assert delta == pytest.approx(-0.3902255509, abs=1e-10)
        assert eps == 0.0

    def test_reference_last_switch(self):
        delta, eps = switch_jump(9.1292667294, 9.0483919516)
        assert delta == pytest.approx(-0.0808747777, abs=1e-9)
        assert eps == 0.0

    def test_positive_jump_scores(self):
        delta, eps = switch_jump(1.0, 1.25)
        assert delta == pytest.approx(0.25)
        assert eps == pytest.approx(0.25)


class TestDefectLedger:
    def make_row(self, eps_sw=0.0, eps_out=0.0):
        return DefectRow(
            m_from=0, m_to=1, E_end=1.0, E_id=1.0, E_start=1.0,
            delta_sw=-0.1, eps_sw=eps_sw, eps_out=eps_out,
        )

    def test_budget_accumulates(self):
        ledger = DefectLedger(lam=20.0)
        assert ledger.D_star == 0.0
        ledger.append(self.make_row(eps_sw=0.5))
        ledger.append(self.make_row(eps_sw=0.25, eps_out=0.1))
        assert ledger.D_star == pytest.approx(0.75 + 20.0 * 0.1, rel=1e-14)

    def test_negative_parts_rejected(self):
        ledger = DefectLedger(lam=20.0)
        with pytest.raises(ValueError):
            ledger.append(self.make_row(eps_sw=-0.1))


class TestContinuationCheck:
    def test_small_window_branch(self):
        report = continuation_check(1.0, DefectLedger(lam=20.0), [0.25], 20.0)
        assert report.q_values == (1.0,)

    def test_large_window_branch(self):
        report = continuation_check(1.0, DefectLedger(lam=20.0), [2.0], 20.0)
        assert report.q_values == (0.25,)

    def test_threshold_arithmetic(self):
        # q* = 0.25 with E0 = 1 and an empty ledger: E0 + D* = 1 < 2.5
        report = continuation_check(1.0, DefectLedger(lam=20.0), [2.0], 20.0)
        assert report.q_star == pytest.approx(0.25)
        assert report.threshold == pytest.approx(2.5)
        assert report.verdict is True

    def test_empty_area_list_rejected(self):
        with pytest.raises(ValueError):
            continuation_check(1.0, DefectLedger(lam=20.0), [], 20.0)

    def test_growing_windows_flagged(self):
        report = continuation_check(
            1.0, DefectLedger(lam=20.0), [1.0, 4.0, 16.0], 20.0
        )
        assert not report.windows_bounded
        assert "diagnostic" in report.note

    def test_full_domain_flag(self):
        report = continuation_check(
            1.0, DefectLedger(lam=20.0), [1.0], 20.0, full_domain=True
        )
        assert report.full_domain
        assert "outside the bounded-window hypothesis" in report.note

