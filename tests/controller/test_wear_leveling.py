"""Tests for static wear leveling."""

from repro.hardware.commands import CommandSource

from tests.controller.conftest import ControllerHarness, make_harness


def wl_harness(
    enabled=True,
    check_interval=8,
    erase_threshold=0,  # any below-average block qualifies (short runs)
    idle_factor=0.1,
    mutate=None,
) -> ControllerHarness:
    def apply(config):
        wl = config.controller.wear_leveling
        wl.enabled = enabled
        wl.check_interval_erases = check_interval
        wl.erase_count_threshold = erase_threshold
        wl.idle_factor = idle_factor
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


def hot_cold_workload(harness: ControllerHarness, rounds=12):
    """A cold region written once plus a small hot region hammered
    repeatedly -- the canonical wear-leveling stressor."""
    pages = harness.config.logical_pages
    for lpn in range(pages):
        harness.write(lpn)
    harness.run()
    hot = range(0, pages // 8)
    for round_ in range(rounds):
        for lpn in hot:
            harness.write(lpn)
        harness.run()


class TestStaticWl:
    def test_migrations_happen_under_skew(self):
        harness = wl_harness()
        hot_cold_workload(harness)
        assert harness.controller.wear_leveler.migrations_started > 0
        assert harness.controller.wear_leveler.migrated_pages > 0
        harness.controller.check_invariants()

    def test_one_migration_runs_at_a_time(self):
        harness = wl_harness()
        gc = harness.controller.gc
        original = gc.migrate
        running_at_start = []

        def migrate(lun_key, block_id):
            running_at_start.append(
                sum(
                    job.source is CommandSource.WEAR_LEVELING
                    for job in gc.evacuating.values()
                )
            )
            original(lun_key, block_id)

        gc.migrate = migrate
        hot_cold_workload(harness)
        assert running_at_start, "the skewed workload never migrated"
        assert set(running_at_start) == {0}

    def test_scan_starts_nothing_while_a_migration_runs(self):
        harness = wl_harness(enabled=False)
        hot_cold_workload(harness)
        leveler = harness.controller.wear_leveler
        leveler._scan()
        assert leveler.migrations_started == 1
        leveler._scan()
        assert leveler.migrations_started == 1
        harness.run()
        leveler._scan()
        assert leveler.migrations_started == 2
        harness.run()
        harness.controller.check_invariants()

    def test_disabled_wl_never_migrates(self):
        harness = wl_harness(enabled=False)
        hot_cold_workload(harness)
        assert harness.controller.wear_leveler.migrations_started == 0

    def test_wl_commands_tagged_with_source(self):
        harness = wl_harness()
        hot_cold_workload(harness)
        flash = harness.controller.stats.flash_commands
        assert flash.get(("WEAR_LEVELING", "READ"), 0) > 0
        assert flash.get(("WEAR_LEVELING", "PROGRAM"), 0) > 0
        assert flash.get(("WEAR_LEVELING", "ERASE"), 0) > 0

    def test_wl_reduces_wear_spread(self):
        with_wl = wl_harness(enabled=True)
        without_wl = wl_harness(enabled=False)
        hot_cold_workload(with_wl, rounds=16)
        hot_cold_workload(without_wl, rounds=16)
        spread_with = with_wl.controller.wear_leveler.wear_statistics()["stddev"]
        spread_without = without_wl.controller.wear_leveler.wear_statistics()["stddev"]
        assert spread_with <= spread_without

    def test_migrated_pages_marked_cold(self):
        from repro.core.config import TemperatureDetector

        harness = wl_harness(
            mutate=lambda c: setattr(
                c.controller.temperature, "detector", TemperatureDetector.STATIC_WL
            )
        )
        hot_cold_workload(harness)
        detector = harness.controller.temperature
        assert harness.controller.wear_leveler.migrated_pages > 0
        assert len(detector._cold) > 0

    def test_data_survives_migrations(self):
        harness = wl_harness()
        versions = {}
        pages = harness.config.logical_pages
        for lpn in range(pages):
            harness.write(lpn)
            versions[lpn] = 1
        harness.run()
        hot = range(0, pages // 8)
        for round_ in range(12):
            for lpn in hot:
                harness.write(lpn)
                versions[lpn] += 1
            harness.run()
        assert harness.controller.wear_leveler.migrated_pages > 0
        for lpn in range(pages - 1, pages - 40, -3):  # cold, likely migrated
            assert harness.read_sync(lpn).data == (lpn, versions[lpn])


class TestWearStatistics:
    def test_wear_statistics_shape(self, harness):
        stats = harness.controller.wear_leveler.wear_statistics()
        assert set(stats) == {"min", "max", "mean", "stddev", "spread"}
        assert stats["spread"] == 0.0  # fresh device

    def test_erase_counter_tracks(self):
        harness = wl_harness(enabled=False)
        hot_cold_workload(harness, rounds=6)
        leveler = harness.controller.wear_leveler
        erases = sum(
            count
            for (_, kind), count in harness.controller.stats.flash_commands.items()
            if kind == "ERASE"
        )
        assert leveler.total_erases == erases > 0
