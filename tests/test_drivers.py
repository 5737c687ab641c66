"""Stagewise and direct reference runs: triggers, transfers, bookkeeping."""

import dataclasses
import itertools
import logging
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from quenchstage import drivers, stepper
from quenchstage.cli import main
from quenchstage.drivers import (
    MAX_N,
    MAX_STEPS,
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
    scored_march,
)
from quenchstage.energy import discrete_energy, switch_jump
from quenchstage.grid import Field, Frame, Grid
from quenchstage.prolongation import prolong_stage
from quenchstage.stepper import DirichletSolver, picard_implicit_step

THR = 2.0 ** (-2.0 / 3.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def interior(Y):
    """The whole interior of a Field: its frame values mirrored out."""
    return Y.frame.expand(Y.values, 1, Y.grid.N)


def stage0_state(cfg):
    Z = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    return StageState(m=0, Z=Z, t=0.0)


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
        assert StagewiseConfig(step_cap=MAX_STEPS).step_cap == MAX_STEPS
        above = "step_cap = 1000001, above MAX_STEPS = 1000000"
        with pytest.raises(ValueError, match=above):
            StagewiseConfig(step_cap=MAX_STEPS + 1)
        with pytest.raises(ValueError, match=f"step_cap = {10 ** 12}, above"):
            StagewiseConfig(step_cap=10 ** 12)
        # nodes sit at i/9: min W = (1 - 0.8 sin(4 pi/9)^2)/0.6, below 2^(-2/3)
        below = r"min W = 0\.373538 <= k\^\(-2/3\) = 0\.629961"
        with pytest.raises(ValueError, match=below):
            StagewiseConfig(u0_amplitude=0.8)

    def test_admits_last_stage_at_cap(self):
        # only the config is built: its last stage sits exactly at the cap
        cfg = StagewiseConfig(max_stages=8)
        assert cfg.N0 * cfg.k ** (cfg.max_stages - 1) == MAX_N == 1152

    def test_rejects_last_stage_above_cap(self):
        above = r"stage 8 needs a grid of N = N0\*k\^8 = 2304 .* MAX_N = 1152"
        with pytest.raises(ValueError, match=above):
            StagewiseConfig(max_stages=9)
        with pytest.raises(ValueError, match=r"N = N0\*k\^0 = 1153"):
            StagewiseConfig(N0=1153, max_stages=1)

    @pytest.mark.parametrize("key", ["lam", "ds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, key, value):
        # NaN passes the sign checks, which compare false; the message names
        # the config key, which spells the field lam as lambda
        named = "lambda" if key == "lam" else key
        with pytest.raises(ValueError, match=f"^{named} = {value} is not finite$"):
            StagewiseConfig(**{key: value})

    def test_rejects_huge_stage_count_quickly(self):
        # k^(max_stages - 1) is never formed: 2^(10^9) has 10^9 bits
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_N"):
            StagewiseConfig(max_stages=1_000_000_000)
        assert time.perf_counter() - t0 < 1.0


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

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"lam": float("nan")}, "lam"),
            ({"lam": float("inf")}, "lam"),
            ({"dt": float("inf"), "T": 0.0}, "dt"),  # would give 0 steps
        ],
    )
    def test_rejects_nonfinite(self, kwargs, key):
        named = "lambda" if key == "lam" else key  # the config key
        with pytest.raises(ValueError, match=f"^{named} = .* is not finite$"):
            DirectConfig(**kwargs)

    def test_step_cap(self):
        assert MAX_STEPS == StagewiseConfig().step_cap == 1_000_000
        assert DirectConfig(dt=1e-6, T=1.0).steps == MAX_STEPS
        above = "1000001 steps, above MAX_STEPS = 1000000"
        with pytest.raises(ValueError, match=above):
            DirectConfig(dt=1e-6, T=1.000001)
        with pytest.raises(ValueError, match=f"{10 ** 20} steps, above"):
            DirectConfig(dt=1e-300, T=1e-280)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lam": -1.0}, "lambda must be nonnegative"),
            ({"N": 1}, "N must be at least 2"),
            ({"dt": 0.0}, "dt must be positive"),
            ({"dt": -5e-4}, "dt must be positive"),
            ({"T": -0.08}, "T must be nonnegative"),
        ],
    )
    def test_message_names_the_key(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DirectConfig(**kwargs)

    def test_grid_cap(self):
        assert DirectConfig(N=MAX_N).N == 1152
        with pytest.raises(ValueError, match="N = 1153 is above MAX_N = 1152"):
            DirectConfig(N=MAX_N + 1)


class TestInitialProfile:
    def test_stagewise_run_builds_the_start_once(self, monkeypatch):
        # the config checks the minimum of the one stage-0 profile (a
        # quarter), and the run builds its start once more
        calls = []

        def counting(*args):
            calls.append(args)
            return initial_rescaled_profile(*args)

        monkeypatch.setattr(
            "quenchstage.drivers.initial_rescaled_profile", counting
        )
        cfg = StagewiseConfig()
        assert calls == [(0.6, 9, 0.4)]
        run_stagewise(cfg)
        assert calls == [(0.6, 9, 0.4)] * 2

    def test_center_node_on_even_grid(self):
        # N0 = 8 puts a node at xi = 0, which maps to the unit-square center
        cfg = StagewiseConfig(N0=8)
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        # the quarter of an even N holds the centre line
        assert W.values[3, 3] == pytest.approx(1.0, abs=1e-14)
        assert W.min_interior() == pytest.approx(1.0, abs=1e-14)

    def test_boundary_value(self):
        W = initial_rescaled_profile(0.6, 9, 0.4)
        assert W.grid.g == pytest.approx(1.6666666667, abs=1e-9)

    def test_matches_pointwise_loop(self):
        cfg = StagewiseConfig()
        W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        scale, h, L = cfg.A0 ** 1.5, W.grid.h, W.grid.L
        full = interior(W)
        for i in range(cfg.N0 - 1):
            for j in range(cfg.N0 - 1):
                x = 0.5 + scale * ((i + 1) * h - L)
                y = 0.5 + scale * ((j + 1) * h - L)
                u0 = 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)
                assert full[i, j] == pytest.approx((1.0 - u0) / cfg.A0, rel=1e-13)
        assert W.min_interior() >= 1.0

    # N = 2 is the single node; an even N has a middle line of weight 1
    @pytest.mark.parametrize("N", [2, 3, 9, 15])
    def test_folded_profile_is_the_restricted_dense_one(self, N):
        # the profile is built on the frame from the quarter's nodes only,
        # to the bit the quarter of the construction on every interior node
        A, a = 0.6, 0.4
        W = initial_rescaled_profile(A, N, a)
        grid = Grid(A, N)
        x = 0.5 + A ** 1.5 * (np.arange(1, N) * grid.h - grid.L)
        X, Y = np.meshgrid(x, x, indexing="ij")
        dense = (1.0 - a * np.sin(np.pi * X) * np.sin(np.pi * Y)) / A
        assert W.values.shape == (N // 2, N // 2)
        assert np.array_equal(W.values, W.frame.restrict(dense))


class TestDetectTrigger:
    # the trigger reads only the two minima, which run_stage takes in the frame
    def test_crossing_fraction(self):
        tau = detect_trigger(0.65, 0.60, THR)
        assert tau == pytest.approx((0.65 - THR) / 0.05, rel=1e-14)
        assert tau == pytest.approx(0.4007895011, abs=1e-9)
        # constant states interpolate to the threshold exactly
        event = (1.0 - tau) * np.full((3, 3), 0.65) + tau * np.full((3, 3), 0.60)
        assert event.min() == pytest.approx(THR, abs=1e-15)

    def test_no_crossing(self):
        assert detect_trigger(0.64, 0.64, THR) is None

    def test_missed_trigger_rejected(self):
        with pytest.raises(ValueError, match="trigger missed"):
            detect_trigger(0.62, 0.60, THR)
        with pytest.raises(ValueError, match="trigger missed"):
            detect_trigger(THR, 0.60, THR)

    @pytest.mark.parametrize("thr", [THR, 0.0], ids=["stage", "direct"])
    def test_reaching_the_threshold_is_a_crossing(self, thr):
        # the stage trigger and the direct run's positivity follow one rule
        assert detect_trigger(0.65, thr, thr) == 1.0
        assert np.isnan(detect_trigger(0.65, float("nan"), thr))


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
        frame = Frame(Grid(cfg.A0, cfg.N0))
        low = Field(frame, np.full(frame.shape, 0.5))
        below = (
            r"stage 0 starts at or below the trigger threshold: "
            r"min W = 0\.5 <= k\^\(-2/3\) = 0\.629961"
        )
        with pytest.raises(TransferError, match=below):
            run_stage(StageState(m=0, Z=low, t=0.0), cfg)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_or_nan_start(self, value):
        cfg = StagewiseConfig()
        frame = Frame(Grid(cfg.A0, cfg.N0))
        values = np.full(frame.shape, 2.0)
        values[3, 2] = value
        Z = Field(frame, values)
        with pytest.raises(TransferError, match="stage 2 starts at or below"):
            run_stage(StageState(m=2, Z=Z, t=0.0), cfg)


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
        report = run_stagewise(StagewiseConfig(max_stages=2))
        stage0, stage1 = report.records
        [row] = report.ledger.rows
        assert row.E_end == stage0.E_end
        assert stage1.A == pytest.approx(0.37797631496846196, rel=1e-14)
        assert stage1.N == 18
        assert stage1.h == pytest.approx(stage0.h, rel=1e-12)
        assert row.E_start == pytest.approx(9.5551471290, rel=1e-6)
        assert row.E_id == row.E_start == stage1.E_start
        assert row.delta_sw == pytest.approx(-0.39022555, abs=1e-6)
        assert row.eps_sw == 0.0

    def test_amplitude_cascade_hits_exact_value(self):
        frame = Frame(Grid(0.6, 3))
        Z = Field(frame, np.full(frame.shape, frame.grid.g))
        for _ in range(3):
            Z = prolong_stage(Z, 2)
        assert Z.grid.A == 0.15

    def test_constant_event_closed_form_jump(self):
        A, N, k, lam = 0.6, 6, 2, 20.0
        A_to = k ** (-2.0 / 3.0) * A
        frame = Frame(Grid(A, N))
        grid = frame.grid
        event = Field(frame, np.full(frame.shape, grid.g))
        nxt = prolong_stage(event, k)
        E_end = discrete_energy(event, lam).total
        E_start = discrete_energy(nxt, lam).total
        delta, eps = switch_jump(E_end, E_start)
        h = grid.h
        K_end = 1.0 + A ** 3 * h * h * (N - 1) ** 2
        K_start = 1.0 + A_to ** 3 * h * h * (k * N - 1) ** 2
        assert np.max(np.abs(nxt.values - 1.0 / A_to)) < 1e-13
        assert E_end == pytest.approx(lam / K_end, rel=1e-13)
        assert E_start == pytest.approx(lam / K_start, rel=1e-13)
        assert delta == pytest.approx(lam / K_start - lam / K_end, rel=1e-12)
        assert eps == 0.0

    def test_undershoot_aborts(self):
        frame = Frame(Grid(0.6, 6))
        # small flat interior against the large boundary: the cubic patches
        # undershoot below zero near the boundary ring
        event = Field(frame, np.full(frame.shape, 0.1))
        nxt = prolong_stage(event, 2)
        assert nxt.min_interior() < 0.0
        with pytest.raises(TransferError, match="stage 1 starts at or below"):
            run_stage(StageState(m=1, Z=nxt, t=0.0), StagewiseConfig())

    def test_one_energy_evaluation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return discrete_energy(*args, **kwargs)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", counting)
        report = run_stagewise(StagewiseConfig(max_stages=2))
        lam = report.config.lam
        # each state once per stage, in run_stage: the start, every completed
        # step and the event; E0 and the switch rows are read off the records
        for r in report.records:
            start, *steps, event = calls[: r.steps + 2]
            del calls[: r.steps + 2]
            assert len(steps) == r.steps and len({id(Y) for Y in steps}) == r.steps
            assert start.grid.N == event.grid.N == r.N
            assert discrete_energy(start, lam).total == r.E_start
            assert discrete_energy(event, lam).total == r.E_end
            assert event.min_interior() == r.min_W
        assert calls == []
        assert report.ledger.rows[0].E_start == report.records[1].E_start

    def test_E0_is_the_first_start(self, reference_run):
        assert reference_run.E0 == reference_run.records[0].E_start


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
        # |Q| is the nodal measure h^2 (N+1)^2 at fixed h, which grows by
        # ((kN+1)/(N+1))^2 per stage, so q = 1/(2|Q|) shrinks accordingly
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
        # the degree-6 source seed leaves about 1.06 sweeps per step (701
        # solves at degree 5, 1127 with the cubic state seed, 3117 when
        # starting from Z), and the certified stop saves the confirming
        # solve; pinned, so a lost sweep shows
        assert [r.picard_sweeps for r in report.records] == [155, 139, 190, 173]
        assert len(solves) == 657
        # every record counts its own grid's solves, crossing step included;
        # every stage folds, so each sweep solves on the N//2 quarter
        for r in report.records:
            assert solves.count((r.N // 2, r.N // 2)) == r.picard_sweeps

    def test_energy_evaluations_per_run(self, monkeypatch):
        shapes = []

        def on_field(Y, *args):
            shapes.append(Y.values.shape)
            return discrete_energy(Y, *args)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", on_field)
        monkeypatch.setattr("quenchstage.stepper.discrete_energy", None)
        report = run_stagewise(StagewiseConfig())
        # per stage the start, then one E(next) per completed step and the
        # event, all on the quarter (N//2 a side), none for the crossing
        # steps; E0 is the stage-0 start
        completed = sum(r.steps for r in report.records)
        stages = len(report.records)
        assert len(shapes) == completed + 2 * stages == 623
        for r in report.records:
            assert shapes.count((r.N // 2, r.N // 2)) == r.steps + 2

    def test_switch_rows_come_from_records(self, reference_run):
        records, rows = reference_run.records, reference_run.ledger.rows
        pairs = itertools.pairwise(records)
        for row, (end, start) in zip(rows, pairs, strict=True):
            assert (row.m_from, row.m_to) == (end.m, start.m)
            assert row.E_end == end.E_end
            assert row.E_start == row.E_id == start.E_start

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

    def test_no_energy_increases(self, reference_run):
        # the certified Picard stop keeps every stage monotone
        assert [r.energy_increases for r in reference_run.records] == [0] * 4

    def test_energy_increases_counted(self, monkeypatch, caplog):
        calls = []

        def rising(*args, **kwargs):
            calls.append(1)
            eb = discrete_energy(*args, **kwargs)
            return dataclasses.replace(eb, total=eb.total + len(calls))

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", rising)
        cfg = StagewiseConfig()
        with caplog.at_level(logging.WARNING, logger="quenchstage.drivers"):
            record, _ = run_stage(stage0_state(cfg), cfg)
        # every completed step rose (the start and the event are scored too,
        # but compared with nothing); the crossing step is not scored
        assert record.energy_increases == record.steps == 139
        assert len(caplog.records) == record.steps

    def test_dissipation_sum_from_recorded_states(self, monkeypatch):
        # sum of (A^2/2ds)*||Y_{n+1} - Y_n||^2_{2,h} over the completed steps
        # plus tau times the crossing step's penalty, by a loop over the nodes
        states = []

        def recording(Z, solver, *args):
            Y, sweeps, F = picard_implicit_step(Z, solver, *args)
            states.append((interior(Z), interior(Y)))
            return Y, sweeps, F

        monkeypatch.setattr("quenchstage.stepper.picard_implicit_step", recording)
        cfg = StagewiseConfig()
        record, _ = run_stage(stage0_state(cfg), cfg)
        assert len(states) == record.steps + 1
        A, h, n = record.A, record.h, record.N - 1

        def penalty(Y, Z):
            sq = 0.0
            for i in range(n):
                for j in range(n):
                    sq += h * h * (Y[i, j] - Z[i, j]) ** 2
            return (A * A / (2.0 * cfg.ds)) * sq

        *completed, (prev, crossing) = states
        min_prev, min_next = prev.min(), crossing.min()
        tau = (min_prev - THR) / (min_prev - min_next)
        want = sum(penalty(Y, Z) for Z, Y in completed) + tau * penalty(crossing, prev)
        assert record.dissipation_sum == pytest.approx(want, rel=1e-12)

    def test_empty_run(self, monkeypatch, tmp_path, capsys):
        # every run has a stage 0: E0 and the continuation test read it
        with pytest.raises(ValueError, match="max_stages must be >= 1"):
            StagewiseConfig(max_stages=0)
        monkeypatch.setenv("QUENCHSTAGE_OUT", str(tmp_path / "out"))
        text = (CONFIGS / "stagewise.cfg").read_text()
        path = tmp_path / "s.cfg"
        path.write_text(text.replace("max_stages = 4", "max_stages = 0"))
        assert main(["stagewise", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: max_stages must be >= 1")
        assert not (tmp_path / "out").exists()


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
        # 160 steps; the degree-6 source seed takes 190 solves, degree 5
        # 215, the cubic state seed 392 and seeding from the previous state
        # 952
        assert len(solves) == 190

    def test_stage0_is_the_direct_run(self):
        # on the full domain W = v/A0 and s = t/A0^3 change variables exactly:
        # the stage-0 steps of the reference config are direct steps on the
        # physical profile at N0 with dt = ds*A0^3
        cfg = StagewiseConfig()
        A0, N0, u0 = cfg.A0, cfg.N0, cfg.u0_amplitude
        stage = stepper.march(
            initial_rescaled_profile(A0, N0, u0), cfg.ds, cfg.lam, "stage 0"
        )
        direct = stepper.march(
            initial_rescaled_profile(1.0, N0, u0), cfg.ds * A0 ** 3, cfg.lam,
            "direct run",
        )
        for W, v in itertools.islice(zip(stage, direct), 139):
            Wn, vn = A0 * W.next.values, v.next.values
            assert np.max(np.abs(Wn - vn)) <= 1e-13 * np.max(np.abs(vn))
            assert W.picard_iters == v.picard_iters

    def test_start_is_stage0_at_unit_amplitude(self, monkeypatch):
        starts = []

        def recording(*args):
            starts.append(args)
            return discrete_energy(*args)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", recording)
        cfg = DirectConfig(T=0.0)
        run_direct(cfg)
        v, _ = starts[0]
        N, a = cfg.N, cfg.u0_amplitude
        assert v.grid == Grid(1.0, N)
        assert v.grid.g == 1.0
        for j in range(1, N):
            for l in range(1, N):
                want = 1.0 - a * np.sin(np.pi * j / N) * np.sin(np.pi * l / N)
                assert abs(interior(v)[j - 1, l - 1] - want) <= 1e-15
        # the A = 1 grid is the unit square: h = 2 * (1/2) / N is 1/N exactly
        for n in range(2, 600):
            assert Grid(1.0, n).h == 1.0 / n

    def test_one_energy_evaluation_per_step(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return discrete_energy(*args)

        monkeypatch.setattr("quenchstage.drivers.discrete_energy", counting)
        monkeypatch.setattr("quenchstage.stepper.discrete_energy", counting)
        cfg = DirectConfig(T=0.01)
        report = run_direct(cfg)
        # E(start) and E of every completed step, the last one the final state
        assert cfg.steps == report.steps == 20
        start, *steps, end = calls
        assert len({id(Y) for Y in steps + [end]}) == cfg.steps
        assert report.E_start == discrete_energy(start, cfg.lam).total
        assert report.E_end == discrete_energy(end, cfg.lam).total
        assert report.min_v == end.min_interior()

    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan")])
    def test_quench_names_the_step(self, monkeypatch, tmp_path, capsys, value):
        # a step whose minimum is at or below 0 ends the run before another
        # Picard step starts from it, and the run exits 3
        def quenching(Z, *args):
            for step, rep in enumerate(stepper.march(Z, *args), 1):
                if step == 3:
                    values = rep.next.values.copy()
                    values[-1, -1] = value
                    rep = stepper.StepReport(rep.prev, Field(Z.frame, values), 1)
                yield rep

        monkeypatch.setattr("quenchstage.drivers.march", quenching)
        quench = (
            "direct run, step 3: the state left the positive cone "
            f"(min v = {value:.6e})"
        )
        with pytest.raises(stepper.NumericalError) as exc:
            run_direct(DirectConfig())
        assert str(exc.value) == quench
        monkeypatch.setenv("QUENCHSTAGE_OUT", str(tmp_path))
        assert main(["direct", "--config", str(CONFIGS / "direct.cfg")]) == 3
        assert f"numerical failure: {quench}" in capsys.readouterr().err

    def test_physical_stage0_is_the_scored_stage0_march(self):
        # the stage-0 steps on the physical profile (W = v/A0, dt = ds*A0^3)
        # score what the loop scores on the stage-0 start: E and the penalty
        # are invariant under the change of variables
        cfg = StagewiseConfig()
        A0, ds = cfg.A0, cfg.ds
        dt = ds * A0 ** 3
        direct = run_direct(DirectConfig(
            lam=cfg.lam, N=cfg.N0, dt=dt, T=139 * dt, u0_amplitude=cfg.u0_amplitude
        ))
        Z = stage0_state(cfg).Z
        E_start = discrete_energy(Z, cfg.lam).total
        steps = itertools.islice(stepper.march(Z, ds, cfg.lam, "stage 0"), 139)
        stage, crossing = scored_march(
            steps, Z.min_interior(), E_start, ds, cfg.lam, cfg.threshold, "stage 0"
        )
        assert crossing is None
        assert direct.steps == stage.steps == 139
        assert direct.picard_sweeps == stage.picard_sweeps
        for key in ("E_start", "E_end", "dissipation_sum"):
            got, want = getattr(direct, key), getattr(stage, key)
            assert got == pytest.approx(want, rel=1e-12)

    def test_lam_zero_energy_decreases(self):
        report = run_direct(DirectConfig(lam=0.0, N=8, dt=1e-3, T=0.02))
        assert report.E_end < report.E_start

    def test_zero_horizon_is_identity(self):
        cfg = DirectConfig(T=0.0)
        report = run_direct(cfg)
        assert report.E_end == report.E_start
        # initial minimum from a direct loop over the nodes
        N = cfg.N
        vals = []
        for i in range(1, N):
            for j in range(1, N):
                vals.append(
                    1.0
                    - 0.45 * np.sin(np.pi * i / N) * np.sin(np.pi * j / N)
                )
        assert report.min_v == pytest.approx(min(vals), rel=1e-14)


@pytest.mark.parametrize(
    "run, cfg, evaluations, gradient_sums",
    [
        (run_stagewise, StagewiseConfig(), 623, 8),
        (run_stagewise, StagewiseConfig(max_stages=6), 912, 12),
        (run_direct, DirectConfig(), 161, 1),
        (run_direct, DirectConfig(T=0.0), 1, 1),
    ],
    ids=["stagewise-ref", "stagewise-deep", "direct-ref", "direct-no-steps"],
)
def test_counts_per_run(monkeypatch, run, cfg, evaluations, gradient_sums):
    # every state a driver records is scored once, on its own frame; the
    # transfer reads a window of each event's quarter, never all N - 1 lines
    # of the interior; and the Fields, each of which takes its minimum once,
    # are the start (the stage-0 profile or the transfer's output), every
    # accepted state and each event.  Only the states no Picard step built,
    # each stage's start and event and the direct run's start, are summed
    # by Frame.grad_norm_sq; an accepted state carries its solve's sum
    evaluated, read, built, summed = [], [], [], []
    expand, post_init = Frame.expand, Field.__post_init__
    grad_norm_sq = Frame.grad_norm_sq

    def on_gradient(self, Y):
        summed.append(Y)
        return grad_norm_sq(self, Y)

    def on_energy(Y, *args):
        evaluated.append(Y)
        return discrete_energy(Y, *args)

    def on_expand(self, Y, start, stop):
        out = expand(self, Y, start, stop)
        read.append(out.shape)
        return out

    def on_field(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr("quenchstage.drivers.discrete_energy", on_energy)
    monkeypatch.setattr(Frame, "expand", on_expand)
    monkeypatch.setattr(Field, "__post_init__", on_field)
    monkeypatch.setattr(Frame, "grad_norm_sq", on_gradient)
    report = run(cfg)
    assert len(evaluated) == evaluations
    assert len(summed) == gradient_sums
    if run is run_direct:
        assert read == []
        assert len(built) == cfg.steps + 1
    else:
        records = report.records
        # cells = (k N / 2) // k + 1 read nodes -1 .. cells + 1 of the end
        assert read == [(r.N // 2 + 4,) * 2 for r in records[:-1]]
        assert len(built) == sum(r.steps + 1 + 2 for r in records)


@pytest.mark.parametrize(
    "run, crossed",
    [
        (lambda: run_stage(stage0_state(StagewiseConfig()), StagewiseConfig())[0], 1),
        (lambda: run_direct(DirectConfig()), 0),
    ],
    ids=["run_stage", "run_direct"],
)
def test_previous_report_is_freed_before_the_next_step(monkeypatch, run, crossed):
    # the scored loop keeps no report past its body: when march computes step
    # j + 1, the report of step j, and with it the start of step j, is gone
    refs, alive = [], []
    report, picard = stepper.StepReport, stepper.picard_implicit_step

    def recording_report(*args):
        rep = report(*args)
        refs.append(weakref.ref(rep))
        return rep

    def stepping(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return picard(*args)

    monkeypatch.setattr(stepper, "StepReport", recording_report)
    monkeypatch.setattr(stepper, "picard_implicit_step", stepping)
    report = run()
    assert len(alive) == report.steps + crossed
    assert alive == [0] * len(alive)


def test_stage_start_and_event_are_freed(monkeypatch):
    # run_stagewise hands each stage start on to march, which drops it once
    # step 1 has been scored, and keeps no event once the next start is
    # built from it: from step 2 of a stage on, neither the stage's start
    # nor an earlier event is alive
    starts, events, seen = [], [], []
    march, prolong = drivers.march, drivers.prolong_stage
    picard = stepper.picard_implicit_step

    def recording_march(Z, *args):
        starts.append(weakref.ref(Z))
        return march(Z, *args)

    def recording_prolong(event, *args):
        events.append(weakref.ref(event))
        return prolong(event, *args)

    def stepping(Z, *args):
        start = starts[-1]()
        alive = sum(ref() is not None for ref in events)
        seen.append((len(starts) - 1, Z is start, start is not None, alive))
        del start
        return picard(Z, *args)

    monkeypatch.setattr(drivers, "march", recording_march)
    monkeypatch.setattr(drivers, "prolong_stage", recording_prolong)
    monkeypatch.setattr(stepper, "picard_implicit_step", stepping)
    report = run_stagewise(StagewiseConfig())
    assert len(events) == len(report.records) - 1
    want = []
    for m, r in enumerate(report.records):
        want += [(m, True, True, 0)] + [(m, False, False, 0)] * r.steps
    assert seen == want


def test_runs_read_no_full_grid_state(monkeypatch):
    # every stage is built, stepped, scored and transferred on its quarter:
    # with any window of a state that covers its whole interior refused,
    # the 6-stage run and the direct run complete with the same reports
    def runs():
        return run_stagewise(StagewiseConfig(max_stages=6)), run_direct(DirectConfig())

    want = runs()
    expand = Frame.expand

    def refuse(self, Y, start, stop):
        if start <= 1 and stop >= self.grid.N:
            raise AssertionError("a run read the whole interior of a state")
        return expand(self, Y, start, stop)

    monkeypatch.setattr(Frame, "expand", refuse)
    assert runs() == want
