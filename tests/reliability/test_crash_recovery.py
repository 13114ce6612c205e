"""Tests for power-loss injection and crash-consistent FTL recovery.

The durability contract under test (E19): after a power loss at *any*
virtual instant, the remounted device serves every acknowledged write
and never resurrects a half-written one -- for every FTL, with either
recovery strategy, whether or not the write buffer is battery-backed.
The simulator enforces the contract itself (the post-mount divergence
check and durability audit raise :class:`SanitizerError`), so most of
these tests simply drive a crash and assert the run completed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    FaultPlan,
    FtlKind,
    GridExperiment,
    GridResult,
    Parameter,
    RecoveryStrategy,
    Simulation,
    small_config,
)
from repro.core.sanitize import SanitizerError
from repro.reliability import ParityTracker
from repro.reliability.crash import DurabilityAuditor, PowerCycleCoordinator
from repro.reliability.recovery import JOURNAL_CAPACITY_RECORDS, JOURNAL_RECORD_BYTES
from repro.workloads import MixedWorkloadThread, RandomWriterThread

from tests.hardware.test_array import make_array, program_page

FTLS = ["page", "dftl", "hybrid"]
STRATEGIES = [RecoveryStrategy.OOB_SCAN, RecoveryStrategy.CHECKPOINT_JOURNAL]


def crash_config(
    ftl="page",
    strategy=RecoveryStrategy.OOB_SCAN,
    battery=True,
    at_ns=3_000_000,
    off_ns=500_000,
    seed=42,
    sanitize=True,
):
    config = small_config(seed=seed)
    config.controller.ftl = FtlKind(ftl)
    config.controller.write_buffer_pages = 16
    config.controller.write_buffer_battery_backed = battery
    config.crash.strategy = strategy
    config.sanitize = sanitize
    config.reliability.fault_plan = FaultPlan().power_loss(
        at_ns=at_ns, off_ns=off_ns
    )
    return config


def run_crash(count=600, **kwargs):
    simulation = Simulation(crash_config(**kwargs))
    simulation.add_thread(RandomWriterThread("writer", count=count))
    return simulation.run()


def crash_workload(config):
    """Module-level workload factory for sweep-based tests."""
    return [RandomWriterThread("writer", count=400)]


class TestEveryCombination:
    @pytest.mark.parametrize("ftl", FTLS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("battery", [True, False])
    def test_crash_recover_and_finish(self, ftl, strategy, battery):
        """Every FTL x strategy x durability combination survives a
        mid-workload power loss: the device remounts, the audit passes
        (or SanitizerError would have been raised), and the workload
        runs to completion afterwards."""
        result = run_crash(ftl=ftl, strategy=strategy, battery=battery)
        assert result.incomplete is False
        assert result.crash_stats.power_losses == 1
        assert len(result.mount_reports) == 1
        report = result.mount_reports[0]
        assert report.mapping_matches is True
        assert report.mount_time_ns > 0
        assert report.loss_ns == 3_000_000
        assert report.ready_ns >= report.restore_ns

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_many_crash_points(self, strategy):
        """The audit holds wherever the axe falls, including before the
        first write completes and after the workload has drained."""
        for at_ns in [50_000, 500_000, 1_000_000, 2_250_000, 4_000_000]:
            result = run_crash(strategy=strategy, at_ns=at_ns, count=400)
            assert result.incomplete is False
            assert result.crash_stats.power_losses == 1

    def test_multiple_losses_in_one_run(self):
        config = crash_config()
        config.reliability.fault_plan = (
            FaultPlan()
            .power_loss(at_ns=1_500_000, off_ns=200_000)
            .power_loss(at_ns=4_000_000, off_ns=200_000)
        )
        simulation = Simulation(config)
        simulation.add_thread(RandomWriterThread("writer", count=600))
        result = simulation.run()
        assert result.incomplete is False
        assert result.crash_stats.power_losses == 2
        assert len(result.mount_reports) == 2


#: Overload summary keys and the governor attribute each one reports.
OVERLOAD_COUNTERS = {
    "device_busy_rejections": "busy_rejections",
    "shed_ios": "shed_ios",
    "throttled_ios": "throttled_ios",
    "command_timeouts": "command_timeouts",
    "degraded_entries": "degraded_entries",
}


class TestCountersSurviveRemount:
    @pytest.mark.parametrize("ftl", FTLS)
    def test_overload_and_scheduler_counters_carry_over(self, ftl, monkeypatch):
        """The summary counts the whole run: what the governor and the
        scheduler counted before the power loss is not dropped with the
        old controller."""
        config = small_config(seed=11)
        config.controller.ftl = FtlKind(ftl)
        config.controller.write_buffer_pages = 16
        config.host.max_outstanding = 64
        overload = config.overload
        overload.enabled = True
        overload.device_queue_bound = 6
        overload.host_queue_bound = 24
        overload.command_timeout_ns = 2_000_000
        overload.max_retries = 2
        config.reliability.fault_plan = FaultPlan().power_loss(
            at_ns=6_000_000, off_ns=500_000
        )
        pre_loss: dict[str, int] = {}
        at_mount: dict[str, int] = {}
        power_cycle = PowerCycleCoordinator.power_cycle

        def recording_power_cycle(coordinator, loss):
            old = coordinator.simulation.controller
            pre_loss.update(
                {key: getattr(old.overload, attr) for key, attr in OVERLOAD_COUNTERS.items()}
            )
            pre_loss["watermark"] = old.scheduler.max_queue_high_watermark()
            report = power_cycle(coordinator, loss)
            new = coordinator.simulation.controller
            at_mount.update(
                {key: getattr(new.overload, attr) for key, attr in OVERLOAD_COUNTERS.items()}
            )
            return report

        monkeypatch.setattr(PowerCycleCoordinator, "power_cycle", recording_power_cycle)
        simulation = Simulation(config)
        simulation.add_thread(RandomWriterThread("writer", count=1500, depth=32))
        simulation.add_thread(MixedWorkloadThread("mixed", count=600, read_fraction=0.5))
        result = simulation.run()
        assert result.crash_stats.power_losses == 1
        assert pre_loss["device_busy_rejections"] > 0
        summary = result.summary()
        governor = simulation.controller.overload
        for key, attr in OVERLOAD_COUNTERS.items():
            # What the new governor counted itself, after the remount.
            own = getattr(governor, attr) - at_mount[key]
            assert summary[key] == pre_loss[key] + own, key
        assert summary["device_queue_high_watermark"] >= pre_loss["watermark"]


class TestRecoveryEconomics:
    def test_checkpoint_mounts_faster_than_oob_scan(self):
        """The whole point of checkpoint+journal: mount cost scales with
        the journal, not with every written page."""
        oob = run_crash(strategy=RecoveryStrategy.OOB_SCAN)
        ckpt = run_crash(strategy=RecoveryStrategy.CHECKPOINT_JOURNAL)
        assert (
            ckpt.crash_stats.mount_time_ns < oob.crash_stats.mount_time_ns
        )
        assert oob.crash_stats.scanned_pages > 0
        assert ckpt.crash_stats.replayed_records > 0
        assert ckpt.crash_stats.checkpoints_taken > 0

    def test_checkpointing_costs_runtime_write_amplification(self):
        oob = run_crash(strategy=RecoveryStrategy.OOB_SCAN)
        ckpt = run_crash(strategy=RecoveryStrategy.CHECKPOINT_JOURNAL)
        assert (
            ckpt.summary()["checkpoint_pages_written"]
            > oob.summary()["checkpoint_pages_written"]
        )

    def test_journal_reserves_its_capacity_in_battery_ram(self):
        config = crash_config(strategy=RecoveryStrategy.CHECKPOINT_JOURNAL)
        battery_ram = Simulation(config).controller.memory.battery_ram
        assert (
            battery_ram.allocations["mapping journal"]
            == JOURNAL_CAPACITY_RECORDS * JOURNAL_RECORD_BYTES
            == 64 * 1024
        )

    def test_full_journal_forces_a_checkpoint(self):
        """With the periodic timer out of reach, filling the journal is
        what takes the checkpoint, so a mount never replays more than
        one journal's worth of records."""
        config = crash_config(
            strategy=RecoveryStrategy.CHECKPOINT_JOURNAL, at_ns=10**10
        )
        config.crash.checkpoint_interval_ns = 10**12
        config.trace_enabled = True
        simulation = Simulation(config)
        simulation.add_thread(
            RandomWriterThread("writer", count=JOURNAL_CAPACITY_RECORDS + 500)
        )
        result = simulation.run()
        reasons = [
            record.detail.split(":")[0]
            for record in simulation.tracer.filter(layer="crash", event="checkpoint")
        ]
        assert reasons == ["journal-full"]
        assert 0 < result.crash_stats.replayed_records <= JOURNAL_CAPACITY_RECORDS

    def test_battery_backed_buffer_loses_fewer_writes(self):
        """E14's durability axis meets E19: volatile buffered writes die
        with the power, battery-backed ones survive."""
        durable = run_crash(battery=True)
        volatile = run_crash(battery=False)
        assert durable.crash_stats.lost_writes < volatile.crash_stats.lost_writes


class TestDurabilityAudit:
    """Every recovered mapping entry must name an intact page holding
    exactly its token."""

    @staticmethod
    def _two_pages():
        """An array holding tokens (5, 1) and (6, 1), and their addresses."""
        sim, array = make_array()
        first = program_page(sim, array, token=(5, 1))
        second = program_page(sim, array, token=(6, 1))
        return array, first, second

    def test_intact_pages_pass(self):
        array, first, second = self._two_pages()
        auditor = DurabilityAuditor()
        auditor.audit({5: (first, 1), 6: (second, 1)}, [], array)
        assert auditor.audits_passed == 1

    def test_mapping_onto_a_torn_page_raises(self):
        array, first, _ = self._two_pages()
        array.luns[(first.channel, first.lun)].mark_torn(first.block, first.page)
        with pytest.raises(SanitizerError, match="durability-audit") as excinfo:
            DurabilityAuditor().audit({5: (first, 1)}, [], array)
        assert excinfo.value.context["torn"] is True
        assert excinfo.value.context["found"] is None

    def test_mapping_onto_a_foreign_page_raises(self):
        array, _, second = self._two_pages()
        with pytest.raises(SanitizerError, match="durability-audit") as excinfo:
            DurabilityAuditor().audit({5: (second, 1)}, [], array)
        assert excinfo.value.context["torn"] is False
        assert excinfo.value.context["found"] == (6, 1)


class TestParityAcrossRemount:
    @pytest.mark.parametrize("ftl", FTLS)
    def test_resync_equals_a_fresh_recompute(self, ftl, monkeypatch):
        """The mount rebuilds the parity signatures from the flash
        contents: they must equal what programming every surviving page
        into an empty tracker gives."""
        mounts = []
        power_cycle = PowerCycleCoordinator.power_cycle

        def recording_power_cycle(coordinator, loss):
            report = power_cycle(coordinator, loss)
            controller = coordinator.simulation.controller
            array, state = controller.array, controller.array.state
            fresh = ParityTracker()
            for block_id in range(state.num_blocks):
                for page in range(state.mv_write_pointer[block_id]):
                    content = state.page_content(block_id, page)
                    if content is not None:
                        ppn = block_id * state.pages_per_block + page
                        fresh.on_program(array.codec.decode(ppn), content)
            resynced = controller.reliability.parity._stripes
            mounts.append(({key: list(entry) for key, entry in resynced.items()}, fresh._stripes))
            return report

        monkeypatch.setattr(PowerCycleCoordinator, "power_cycle", recording_power_cycle)
        config = crash_config(ftl=ftl)
        config.reliability.enabled = True
        config.reliability.parity = True
        simulation = Simulation(config)
        simulation.add_thread(RandomWriterThread("writer", count=600))
        result = simulation.run()
        assert result.crash_stats.power_losses == 1
        [(resynced, fresh)] = mounts
        assert resynced and resynced == fresh
        simulation.controller.check_invariants()


class TestPayForWhatYouUse:
    def test_no_power_loss_means_nothing_armed(self):
        config = small_config()
        simulation = Simulation(config)
        assert simulation._coordinator is None
        assert simulation.controller.checkpointer is None
        assert simulation.os.track_inflight is False

    def test_summary_keys_always_present_and_zero_without_crash(self):
        simulation = Simulation(small_config())
        simulation.add_thread(RandomWriterThread("writer", count=200))
        summary = simulation.run().summary()
        for key in [
            "power_losses",
            "mount_time_ms",
            "recovery_scanned_pages",
            "recovery_replayed_records",
            "lost_writes",
            "torn_pages",
            "checkpoints_taken",
            "checkpoint_pages_written",
        ]:
            assert summary[key] == 0.0

    def test_sanitize_is_bit_identical_with_recovery(self):
        checked = run_crash(sanitize=True).summary()
        unchecked = run_crash(sanitize=False).summary()
        assert checked == unchecked


class TestMetricsExport:
    def test_to_csv_carries_recovery_counters(self, tmp_path):
        grid = GridExperiment(
            name="crash-export",
            base_config=crash_config(strategy=RecoveryStrategy.CHECKPOINT_JOURNAL),
            parameters=[Parameter("interval", path="crash.checkpoint_interval_ns")],
            values=[[10_000_000, 50_000_000]],
            workload=crash_workload,
        )
        sweep = grid.run()
        path = tmp_path / "sweep.csv"
        sweep.to_csv(str(path))
        header = path.read_text().splitlines()[0].split(",")
        for column in [
            "power_losses",
            "mount_time_ms",
            "lost_writes",
            "torn_pages",
            "checkpoints_taken",
        ]:
            assert column in header
        assert len(path.read_text().splitlines()) == 3

    def test_to_csv_with_no_runs_writes_a_bare_header(self, tmp_path):
        """PR 2's empty-runs path: an aborted sweep still exports."""
        empty = GridResult("aborted", [Parameter("x", path="seed")], runs=[])
        path = tmp_path / "empty.csv"
        empty.to_csv(str(path))
        assert path.read_text().strip() == "x"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    at_ns=st.integers(min_value=50_000, max_value=6_000_000),
    ftl=st.sampled_from(FTLS),
    strategy=st.sampled_from(STRATEGIES),
    battery=st.booleans(),
)
def test_property_no_acknowledged_write_is_ever_lost(
    at_ns, ftl, strategy, battery
):
    """Property: wherever the power fails, for any FTL and either
    durability mode, the remounted device passes the durability audit
    (every acknowledged write readable at its acknowledged version, no
    torn page visible) -- the audit raises SanitizerError otherwise."""
    result = run_crash(
        ftl=ftl,
        strategy=strategy,
        battery=battery,
        at_ns=at_ns,
        count=300,
        sanitize=True,
    )
    assert result.incomplete is False
    assert result.crash_stats.power_losses == 1
    assert result.mount_reports[0].mapping_matches is True
