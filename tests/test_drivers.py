"""Stagewise and direct reference runs: triggers, transfers, bookkeeping."""

import itertools
import logging
from pathlib import Path

import numpy as np
import pytest

from quenchstage import stepper
from quenchstage.cli import main
from quenchstage.drivers import (
    DirectConfig,
    StagewiseConfig,
    StageRunawayError,
    StageState,
    TransferError,
    detect_trigger,
    initial_rescaled_profile,
    run_direct,
    run_stage,
    run_stagewise,
    stage_transition,
)
from quenchstage.energy import discrete_energy
from quenchstage.grid import Field, build_rescaled_grid
from quenchstage.prolongation import make_transfer
from quenchstage.stepper import DirichletSolver

THR = 2.0 ** (-2.0 / 3.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def stage0_state(cfg):
    Z = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    return StageState(m=0, A=cfg.A0, Z=Z, t=0.0)


@pytest.fixture(scope="module")
def reference_run():
    return run_stagewise(StagewiseConfig())


class TestStagewiseConfig:
    def test_threshold(self):
        assert StagewiseConfig().threshold == pytest.approx(THR, abs=1e-15)
        assert StagewiseConfig(k=4).threshold == pytest.approx(
            4.0 ** (-2.0 / 3.0), abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            StagewiseConfig(lam=-1.0)
        with pytest.raises(ValueError):
            StagewiseConfig(u0_amplitude=1.0)
        with pytest.raises(ValueError):
            StagewiseConfig(A0=0.0)
        with pytest.raises(ValueError):
            StagewiseConfig(k=1)
        with pytest.raises(ValueError):
            StagewiseConfig(N0=1)
        with pytest.raises(ValueError):
            StagewiseConfig(max_stages=-1)
        with pytest.raises(ValueError):
            StagewiseConfig(step_cap=0)
        # nodes sit at i/9: min W = (1 - 0.8 sin(4 pi/9)^2)/0.6, below 2^(-2/3)
        below = r"min W = 0\.373538 <= k\^\(-2/3\) = 0\.629961"
        with pytest.raises(ValueError, match=below):
            StagewiseConfig(u0_amplitude=0.8)


class TestDirectConfig:
    def test_steps(self):
        assert DirectConfig().steps == 160

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectConfig(T=0.0801)  # not an integral multiple of dt
        with pytest.raises(ValueError):
            DirectConfig(dt=0.0)
        with pytest.raises(ValueError):
            DirectConfig(u0_amplitude=0.0)


class TestInitialProfile:
    def test_center_node_on_even_grid(self):
        # N0 = 8 puts a node at xi = 0, which maps to the unit-square center
        cfg = StagewiseConfig(N0=8)
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        assert W.interior[3, 3] == pytest.approx(1.0, abs=1e-14)
        assert W.min_interior() == pytest.approx(1.0, abs=1e-14)

    def test_boundary_value(self):
        W = initial_rescaled_profile(0.6, 9, 0.4)
        assert W.g == pytest.approx(1.6666666667, abs=1e-9)

    def test_matches_pointwise_loop(self):
        cfg = StagewiseConfig()
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        xi = W.grid.interior_nodes_1d()
        scale = cfg.A0 ** 1.5
        for i in range(cfg.N0 - 1):
            for j in range(cfg.N0 - 1):
                x = 0.5 + scale * xi[i]
                y = 0.5 + scale * xi[j]
                u0 = 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)
                assert W.interior[i, j] == pytest.approx(
                    (1.0 - u0) / cfg.A0, rel=1e-13
                )
        assert W.min_interior() >= 1.0


class TestDetectTrigger:
    def constant_pair(self, a, b):
        grid = build_rescaled_grid(0.6, 4)
        g = 1.0 / 0.6
        prev = Field(grid=grid, interior=np.full((3, 3), a), g=g)
        nxt = Field(grid=grid, interior=np.full((3, 3), b), g=g)
        return prev, nxt

    def test_crossing_fraction(self):
        prev, nxt = self.constant_pair(0.65, 0.60)
        tau, event = detect_trigger(prev, nxt, THR)
        assert tau == pytest.approx((0.65 - THR) / 0.05, rel=1e-14)
        assert tau == pytest.approx(0.4007895011, abs=1e-9)
        # constant states interpolate to the threshold exactly
        assert event.min_interior() == pytest.approx(THR, abs=1e-15)

    def test_no_crossing(self):
        prev, nxt = self.constant_pair(0.64, 0.64)
        assert detect_trigger(prev, nxt, THR) is None

    def test_missed_trigger_rejected(self):
        prev, nxt = self.constant_pair(0.62, 0.60)
        with pytest.raises(ValueError):
            detect_trigger(prev, nxt, THR)


class TestRunStage:
    def test_stage0_reference_values(self):
        cfg = StagewiseConfig()
        state = stage0_state(cfg)
        record, event = run_stage(state, cfg)
        assert record.scaled_time == pytest.approx(0.139155092, rel=1e-6)
        assert record.E_start == pytest.approx(10.3614604375, rel=1e-6)
        assert record.E_end == pytest.approx(9.9453726799, rel=1e-6)
        assert record.min_W == pytest.approx(0.629960525, abs=1e-9)
        assert abs(record.trigger_gap) < 1e-9
        assert event.min_interior() == record.min_W

    def test_lam_zero_never_triggers(self):
        # source-free flow rises toward the boundary value, so the cap fires
        cfg = StagewiseConfig(lam=0.0, step_cap=50)
        state = stage0_state(cfg)
        with pytest.raises(StageRunawayError):
            run_stage(state, cfg)

    def test_rejects_state_below_threshold(self):
        cfg = StagewiseConfig()
        grid = build_rescaled_grid(cfg.A0, cfg.N0)
        low = Field(
            grid=grid, interior=np.full((8, 8), 0.5), g=1.0 / cfg.A0
        )
        with pytest.raises(ValueError):
            run_stage(StageState(m=0, A=cfg.A0, Z=low, t=0.0), cfg)


class TestMarch:
    @pytest.mark.parametrize(
        "command, config, where",
        [
            ("stagewise", "stagewise.cfg", "stage 0, step 1"),
            ("direct", "direct.cfg", "direct run, step 1"),
        ],
    )
    def test_nonconvergence_exit_code(
        self, monkeypatch, tmp_path, capsys, command, config, where
    ):
        # one sweep never meets the stopping test from a moving start
        monkeypatch.setattr(stepper, "PICARD_MAX", 1)
        monkeypatch.setenv("QUENCHSTAGE_OUT", str(tmp_path))
        path = CONFIGS / config
        assert main([command, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {where}: Picard did not converge" in err
        assert "within 1 sweeps" in err
        assert list(tmp_path.iterdir()) == []


class TestStageTransition:
    def test_reference_first_transition(self):
        cfg = StagewiseConfig()
        state = stage0_state(cfg)
        stage, event = run_stage(state, cfg)
        spec = make_transfer(cfg.A0, cfg.k)
        nxt, record = stage_transition(event, spec, cfg.lam, 0, stage.E_end)
        assert record.E_end == stage.E_end
        assert spec.A_to == pytest.approx(0.37797631496846196, rel=1e-14)
        assert nxt.grid.N == 18
        assert nxt.grid.h == pytest.approx(event.grid.h, rel=1e-12)
        assert record.E_start == pytest.approx(9.5551471290, rel=1e-6)
        assert record.E_id == record.E_start
        assert record.delta_sw == pytest.approx(-0.39022555, abs=1e-6)
        assert record.eps_sw == 0.0

    def test_amplitude_cascade_hits_exact_value(self):
        A = 0.6
        for _ in range(3):
            A = make_transfer(A, 2).A_to
        assert A == 0.15

    def test_constant_event_closed_form_jump(self):
        A, N, k, lam = 0.6, 6, 2, 20.0
        spec = make_transfer(A, k)
        grid = build_rescaled_grid(A, N)
        event = Field(
            grid=grid, interior=np.full((N - 1, N - 1), 1.0 / A), g=1.0 / A
        )
        E_end = discrete_energy(event, A, lam).total
        nxt, record = stage_transition(event, spec, lam, 0, E_end)
        h = grid.h
        K_end = 1.0 + A ** 3 * h * h * (N - 1) ** 2
        K_start = 1.0 + spec.A_to ** 3 * h * h * (k * N - 1) ** 2
        assert np.max(np.abs(nxt.interior - 1.0 / spec.A_to)) < 1e-13
        assert record.E_end == pytest.approx(lam / K_end, rel=1e-13)
        assert record.E_start == pytest.approx(lam / K_start, rel=1e-13)
        assert record.delta_sw == pytest.approx(
            lam / K_start - lam / K_end, rel=1e-12
        )

    def test_undershoot_aborts(self):
        A = 0.6
        spec = make_transfer(A, 2)
        grid = build_rescaled_grid(A, 6)
        # small flat interior against the large boundary: the cubic patches
        # undershoot below zero near the boundary ring
        event = Field(grid=grid, interior=np.full((5, 5), 0.1), g=1.0 / A)
        with pytest.raises(TransferError):
            stage_transition(event, spec, 20.0, 0, E_end=0.0)

    def test_one_energy_evaluation(self, monkeypatch):
        A, lam = 0.6, 20.0
        spec = make_transfer(A, 2)
        grid = build_rescaled_grid(A, 6)
        event = Field(grid=grid, interior=np.full((5, 5), 1.0 / A), g=1.0 / A)
        E_end = discrete_energy(event, A, lam).total
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return discrete_energy(*args, **kwargs)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", counting)
        nxt, record = stage_transition(event, spec, lam, 0, E_end)
        # only E_start of the prolonged state; E(event) comes from the stage
        assert len(calls) == 1
        assert calls[0] is nxt
        assert record.E_end == E_end


class TestRunStagewise:
    def test_accumulated_times(self, reference_run):
        times = [r.accumulated_time for r in reference_run.records]
        expect = [0.0300574999, 0.0370275953, 0.0394875626, 0.0400459522]
        assert times == pytest.approx(expect, rel=1e-6)

    def test_times_match_accumulate_time(self, reference_run):
        # physical time: partial sums of s*_m * A_m^3
        records = reference_run.records
        partial_sums = itertools.accumulate(r.scaled_time * r.A ** 3 for r in records)
        assert [r.accumulated_time for r in records] == pytest.approx(
            list(partial_sums), rel=1e-15
        )

    def test_recorded_jumps(self, reference_run):
        jumps = [t.delta_sw for t in reference_run.transitions]
        assert jumps == pytest.approx(
            [-0.39022555, -0.17379388, -0.08087478], abs=1e-6
        )
        assert all(j < 0.0 for j in jumps)
        assert all(t.eps_sw == 0.0 for t in reference_run.transitions)

    def test_geometric_amplitude_law(self, reference_run):
        for m, record in enumerate(reference_run.records):
            assert record.A == 0.6 * 2.0 ** (-2.0 * m / 3.0)
            assert record.A ** 3 == pytest.approx(
                0.6 ** 3 * 2.0 ** (-2 * m), rel=1e-14
            )

    def test_physical_increments_decrease(self, reference_run):
        times = [0.0] + [r.accumulated_time for r in reference_run.records]
        increments = np.diff(times)
        assert np.all(np.diff(increments) < 0.0)

    def test_stage_monotonicity_and_feedback_bounds(self, reference_run):
        lam = reference_run.config.lam
        for r in reference_run.records:
            assert r.E_end <= r.E_start
            assert 1.0 <= r.K_start < r.K_end
            assert 0.0 < r.coeff_end < r.coeff_start <= lam
            assert r.dissipation_sum >= 0.0

    def test_grid_cascade(self, reference_run):
        Ns = [r.N for r in reference_run.records]
        assert Ns == [9, 18, 36, 72]
        hs = [r.h for r in reference_run.records]
        assert hs == pytest.approx([hs[0]] * 4, rel=1e-12)

    def test_ledger_balances_transitions(self, reference_run):
        rows = reference_run.ledger.rows
        assert len(rows) == 3
        for row, tr in zip(rows, reference_run.transitions):
            assert row.delta_sw == tr.delta_sw
            assert row.eps_sw == max(row.delta_sw, 0.0)
            assert row.eps_out == 0.0
        assert reference_run.ledger.D_star == 0.0

    def test_cumulative_energy_budget(self, reference_run):
        # last stage's starting energy plus all earlier within-stage
        # dissipation stays below E0 plus the defect budget
        records = reference_run.records
        lhs = records[-1].E_start + sum(r.dissipation_sum for r in records[:-1])
        rhs = reference_run.E0 + reference_run.ledger.D_star
        assert lhs <= rhs + 1e-12

    def test_continuation_flagged_full_domain(self, reference_run):
        rep = reference_run.continuation
        assert rep is not None
        assert rep.full_domain
        assert not rep.windows_bounded
        assert "outside the bounded-window hypothesis" in rep.note
        # |Q| grows by k^2 per stage, so q = 1/(2|Q|) shrinks accordingly
        assert len(rep.q_values) == 4
        assert rep.q_values[0] == pytest.approx(
            1.0 / (2.0 * reference_run.areas[0]), rel=1e-12
        )

    def test_picard_sweeps_count_solves(self, monkeypatch):
        solves = []
        solve = DirichletSolver.solve

        def counting(self, rhs):
            solves.append(rhs.shape)
            return solve(self, rhs)

        monkeypatch.setattr(DirichletSolver, "solve", counting)
        report = run_stagewise(StagewiseConfig())
        assert [r.steps for r in report.records] == [139, 129, 182, 165]
        assert sum(r.picard_sweeps for r in report.records) == len(solves)
        # the extrapolated seed halves the sweeps (3117 when seeding from Z)
        assert len(solves) <= 1500
        # every record counts its own grid's solves, crossing step included
        for r in report.records:
            assert solves.count((r.N - 1, r.N - 1)) == r.picard_sweeps

    def test_areas(self, reference_run):
        h = reference_run.records[0].h
        assert reference_run.areas[0] == pytest.approx(h * h * 100.0, rel=1e-12)
        ratios = np.array(reference_run.areas[1:]) / np.array(
            reference_run.areas[:-1]
        )
        # h is fixed, so the measure grows by ((kN+1)/(N+1))^2 per stage
        expect = [((2 * N + 1) / (N + 1)) ** 2 for N in (9, 18, 36)]
        assert ratios == pytest.approx(expect, rel=1e-12)

    def test_no_energy_warnings(self, caplog):
        with caplog.at_level(logging.WARNING, logger="quenchstage.drivers"):
            run_stagewise(StagewiseConfig(max_stages=2))
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == []

    def test_empty_run(self):
        report = run_stagewise(StagewiseConfig(max_stages=0))
        assert report.records == []
        assert report.transitions == []
        assert report.continuation is None
        assert report.E0 == pytest.approx(10.3614604375, rel=1e-6)


class TestRunDirect:
    def test_reference_values(self):
        report = run_direct(DirectConfig())
        assert report.E_start == pytest.approx(7.545273587988, rel=1e-6)
        assert report.E_end == pytest.approx(7.456582304139, rel=1e-6)
        assert report.min_v == pytest.approx(0.362574574560, rel=1e-6)
        assert report.max_u == pytest.approx(0.637425425440, rel=1e-6)
        assert report.max_u == pytest.approx(1.0 - report.min_v, rel=1e-14)

    def test_seeded_solves(self, monkeypatch):
        solves = []
        solve = DirichletSolver.solve

        def counting(self, rhs):
            solves.append(1)
            return solve(self, rhs)

        monkeypatch.setattr(DirichletSolver, "solve", counting)
        run_direct(DirectConfig())
        # 160 steps; seeding from the previous state takes 952 solves
        assert len(solves) <= 500

    def test_start_is_stage0_at_unit_amplitude(self, monkeypatch):
        starts = []

        def recording(*args):
            starts.append(args)
            return discrete_energy(*args)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", recording)
        cfg = DirectConfig(T=0.0)
        run_direct(cfg)
        [(v, A, _)] = starts
        N, a = cfg.N, cfg.u0_amplitude
        assert A == 1.0
        assert v.grid == build_rescaled_grid(1.0, N)
        assert v.g == 1.0
        for j in range(1, N):
            for l in range(1, N):
                want = 1.0 - a * np.sin(np.pi * j / N) * np.sin(np.pi * l / N)
                assert abs(v.interior[j - 1, l - 1] - want) <= 1e-15
        # the A = 1 grid is the unit square: h = 2 * (1/2) / N is 1/N exactly
        for n in range(2, 600):
            assert build_rescaled_grid(1.0, n).h == 1.0 / n

    def test_one_energy_evaluation_per_step(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return discrete_energy(*args)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", counting)
        monkeypatch.setattr("quenchstage.stepper.discrete_energy", counting)
        cfg = DirectConfig(T=0.01)
        report = run_direct(cfg)
        # E(start), then E(next) once per step; E_end is the last step's
        assert len(calls) == cfg.steps + 1
        assert report.E_end == discrete_energy(calls[-1], 1.0, cfg.lam).total
        assert report.min_v == calls[-1].min_interior()

    def test_lam_zero_energy_decreases(self):
        report = run_direct(DirectConfig(lam=0.0, N=8, dt=1e-3, T=0.02))
        assert report.E_end < report.E_start

    def test_zero_horizon_is_identity(self):
        report = run_direct(DirectConfig(T=0.0))
        assert report.E_end == report.E_start
        # initial minimum from a direct loop over the nodes
        N = report.config.N
        vals = []
        for i in range(1, N):
            for j in range(1, N):
                vals.append(
                    1.0
                    - 0.45 * np.sin(np.pi * i / N) * np.sin(np.pi * j / N)
                )
        assert report.min_v == pytest.approx(min(vals), rel=1e-14)
