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
    switch_jump,
)
from quenchstage.grid import Field, Grid
from quenchstage.stepper import movement_penalty


def reciprocal_K(Y):
    """The feedback K of a Field; it does not depend on lam."""
    return discrete_energy(Y, lam=1.0).K


def interior(Y):
    """The whole interior of a Field: its frame values mirrored out."""
    return Y.grid.expand(Y.values, 1, Y.grid.N)


def single_node_field(value):
    # the A = 1 grid with one interior node: N = 2, L = 1/2, h = 1/2, g = 1
    grid = Grid(1.0, 2)
    return Field(grid, np.array([[value]]))


class TestReciprocalK:
    def test_single_node(self):
        # K = 1 + A^2 h^2 / y = 1 + 1/4 at y = 1
        Y = single_node_field(1.0)
        assert reciprocal_K(Y) == 1.25

    def test_vanishing_branch(self):
        Y = single_node_field(0.0)
        assert math.isinf(reciprocal_K(Y))
        Yneg = single_node_field(-0.5)
        assert math.isinf(reciprocal_K(Yneg))

    def test_reference_start_value(self):
        cfg = StagewiseConfig()
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        assert reciprocal_K(W) == pytest.approx(2.0058835332, rel=1e-6)

    def test_monotone_in_values(self):
        rng = np.random.default_rng(11)
        grid = Grid(0.6, 5)
        values = 1.0 + rng.uniform(0.0, 1.0, grid.shape)
        K0 = reciprocal_K(Field(grid, values))
        bumped = values.copy()
        bumped[1, 0] += 0.25
        K1 = reciprocal_K(Field(grid, bumped))
        assert K1 < K0


class TestDiscreteEnergy:
    def test_single_node_total(self):
        Y = single_node_field(1.0)
        eb = discrete_energy(Y, lam=20.0)
        assert eb.dirichlet == 0.0
        assert eb.K == 1.25
        assert eb.total == 16.0  # lam / K

    def test_reference_start_energy(self):
        cfg = StagewiseConfig()
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        eb = discrete_energy(W, cfg.lam)
        assert eb.total == pytest.approx(10.3614604375, rel=1e-6)
        # same number assembled from the two pieces directly, by plain sums
        # over the whole interior
        F = np.pad(interior(W), 1, constant_values=W.grid.g)
        grad = float(np.sum(np.diff(F, axis=0) ** 2) + np.sum(np.diff(F, axis=1) ** 2))
        K = 1.0 + W.grid.A2h2 * float(np.sum(1.0 / interior(W)))
        manual = 0.5 * cfg.A0**2 * grad + cfg.lam / K
        assert eb.total == pytest.approx(manual, rel=1e-15)

    def test_vanishing_branch_consistency(self):
        Y = single_node_field(0.0)
        eb = discrete_energy(Y, lam=20.0)
        assert math.isinf(eb.K)
        assert eb.reciprocal == 0.0
        assert eb.total == eb.dirichlet


class TestFrameEnergy:
    @staticmethod
    def symmetric_state(N, seed, restricted):
        """A positive state symmetric about both mid-lines on Grid(0.6, N),
        and its whole interior: the quarter of a random symmetric interior,
        or a random quarter and its mirror expansion."""
        grid = Grid(0.6, N)
        rng = np.random.default_rng(seed)
        if not restricted:
            Y = Field(grid, rng.uniform(0.5, 1.5, grid.shape))
            return Y, interior(Y)
        a = rng.uniform(0.5, 1.5, (N - 1, N - 1))
        a = a + a[::-1]
        full = a + a[:, ::-1]
        return Field(grid, grid.restrict(full)), full

    # the stage loop scores each step on the quarter, which gives the
    # full-grid energy, K and penalty
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 18, 19, 72])
    @pytest.mark.parametrize("restricted", [True, False])
    def test_frame_scores_are_the_full_grid_scores(self, N, restricted):
        lam, ds = 20.0, 1e-3
        Y, y = self.symmetric_state(N, N, restricted)
        Z, z = self.symmetric_state(N, N + 1, restricted)
        got = discrete_energy(Y, lam)
        # the full-grid values by plain sums over every node and node pair
        F = np.pad(y, 1, constant_values=Y.grid.g)
        grad = float(np.sum(np.diff(F, axis=0) ** 2) + np.sum(np.diff(F, axis=1) ** 2))
        K = 1.0 + Y.grid.A2h2 * float(np.sum(1.0 / y))
        total = 0.5 * Y.grid.A ** 2 * grad + lam / K
        assert got.K == pytest.approx(K, rel=1e-14)
        assert got.total == pytest.approx(total, rel=1e-14)
        A, h = Y.grid.A, Y.grid.h
        sq = float(np.sum((y - z) ** 2))
        want = (A * A / (2.0 * ds)) * h * h * sq
        assert movement_penalty(Y, Z, ds) == pytest.approx(want, rel=1e-14)

    def test_vanishing_branch_from_the_given_minimum(self):
        # the minimum the Field took when it was built picks the branch, for
        # an odd and an even N
        for N in (4, 5):
            grid = Grid(1.0, N)
            values = np.ones(grid.shape)
            values[1, 1] = 0.0
            eb = discrete_energy(Field(grid, values), lam=20.0)
            assert math.isinf(eb.K) and eb.reciprocal == 0.0 and eb.coeff == 0.0


class TestFeedback:
    def test_single_node(self):
        sample = discrete_energy(single_node_field(1.0), lam=20.0)
        assert sample.K == 1.25
        assert sample.coeff == pytest.approx(12.8, rel=1e-15)  # lam / K^2

    def test_vanishing_branch_report(self):
        sample = discrete_energy(single_node_field(-1.0), lam=20.0)
        assert math.isinf(sample.K)
        assert sample.coeff == 0.0

    def test_coeff_bounded_by_lam(self):
        rng = np.random.default_rng(12)
        grid = Grid(0.6, 5)
        for _ in range(10):
            Y = Field(grid, 0.5 + rng.uniform(0.0, 2.0, grid.shape))
            sample = discrete_energy(Y, 20.0)
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
        assert DefectLedger(lam=20.0).D_star == 0.0
        rows = [self.make_row(eps_sw=0.5), self.make_row(eps_sw=0.25, eps_out=0.1)]
        ledger = DefectLedger(lam=20.0, rows=rows)
        assert ledger.D_star == pytest.approx(0.75 + 20.0 * 0.1, rel=1e-14)


class TestContinuationCheck:
    def test_small_window_branch(self):
        report = continuation_check(1.0, DefectLedger(lam=20.0), [0.25])
        assert report.q_values == (1.0,)

    def test_large_window_branch(self):
        report = continuation_check(1.0, DefectLedger(lam=20.0), [2.0])
        assert report.q_values == (0.25,)

    def test_threshold_arithmetic(self):
        # q* = 0.25 with E0 = 1 and an empty ledger: E0 + D* = 1 < 2.5
        report = continuation_check(1.0, DefectLedger(lam=20.0), [2.0])
        assert report.q_star == pytest.approx(0.25)
        assert report.threshold == pytest.approx(2.5)
        assert report.verdict is True

    def test_threshold_reads_the_ledger_lam(self):
        # one lam sets both sides: D* and the threshold lam*q*/2
        row = DefectRow(m_from=0, m_to=1, E_end=1.0, E_id=1.0, E_start=1.0,
                        delta_sw=-0.1, eps_sw=0.0, eps_out=0.1)
        ledger = DefectLedger(lam=3.0, rows=[row])
        report = continuation_check(1.0, ledger, [2.0])
        assert report.D_star == pytest.approx(0.3, rel=1e-14)
        assert report.threshold == 0.5 * ledger.lam * report.q_star

    def test_empty_area_list_rejected(self):
        with pytest.raises(ValueError):
            continuation_check(1.0, DefectLedger(lam=20.0), [])

    def test_growing_windows_flagged(self):
        report = continuation_check(1.0, DefectLedger(lam=20.0), [1.0, 4.0, 16.0])
        assert not report.windows_bounded
        assert "diagnostic" in report.note

    def test_full_domain_flag(self):
        report = continuation_check(
            1.0, DefectLedger(lam=20.0), [1.0], full_domain=True
        )
        assert report.full_domain
        assert "outside the bounded-window hypothesis" in report.note

