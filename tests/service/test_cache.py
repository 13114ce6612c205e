"""Tests for the content-addressed result store (repro.service.cache).

The contract: a stored result comes back with a bit-identical summary;
a config or code-version change makes old entries unreachable; nothing
uncacheable or corrupt ever poisons a sweep (both degrade to a miss).
"""

import functools
import json
import os

import pytest

from repro import RunSpec, small_config
from repro.core.statistics import serialize_summary
from repro.service import (
    CachedResult,
    CacheWriteError,
    ResultCache,
)
from repro.service.cache import JOBS_DIR, QUARANTINE_DIR
from repro.service.grids import mixed_workload

IOS = 150


def make_spec(ios: int = IOS, greediness: int = 2) -> RunSpec:
    config = small_config()
    config.controller.gc_greediness = greediness
    return RunSpec(
        config=config, workload=functools.partial(mixed_workload, ios=ios)
    )


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path, fingerprint="test-version")


@pytest.fixture(scope="module")
def fresh_result():
    return make_spec().execute()


def test_lookup_on_empty_store_is_a_miss(cache):
    assert cache.lookup(make_spec()) is None
    assert cache.misses == 1
    assert cache.hits == 0


def test_roundtrip_summary_is_bit_identical(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    cached = cache.lookup(spec)
    assert isinstance(cached, CachedResult)
    assert serialize_summary(cached.summary()) == serialize_summary(
        fresh_result.summary()
    )
    assert cached.elapsed_ns == fresh_result.elapsed_ns
    assert cached.processed_events == fresh_result.processed_events


def test_stored_bytes_are_deterministic(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    path = cache.path_for(cache.key_for(spec))
    first = path.read_bytes()
    cache.store(spec, fresh_result)
    assert path.read_bytes() == first


def test_different_config_different_entry(cache, fresh_result):
    cache.store(make_spec(greediness=2), fresh_result)
    assert cache.lookup(make_spec(greediness=3)) is None


def test_fingerprint_change_invalidates(tmp_path, fresh_result):
    spec = make_spec()
    old = ResultCache(tmp_path, fingerprint="version-1")
    old.store(spec, fresh_result)
    new = ResultCache(tmp_path, fingerprint="version-2")
    assert new.lookup(spec) is None
    assert new.stats()["stale_entries"] == 1


def test_cached_result_is_not_restored(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    cached = cache.lookup(spec)
    cache.store(spec, cached)  # a hit fed back in must not re-store
    assert cache.stores == 1


def test_uncacheable_workload_bypasses_the_store(cache, fresh_result):
    spec = RunSpec(config=small_config(), workload=lambda config: [])
    assert cache.key_for(spec) is None
    assert cache.lookup(spec) is None
    cache.store(spec, fresh_result)
    assert cache.uncacheable == 2
    assert cache.stores == 0
    assert cache.entries() == 0


def test_corrupt_entry_degrades_to_miss(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    cache.path_for(cache.key_for(spec)).write_text("{ not json", encoding="utf-8")
    assert cache.lookup(spec) is None
    # The fresh result overwrites the corrupt entry.
    cache.store(spec, fresh_result)
    assert cache.lookup(spec) is not None


def test_invalidate_and_clear(cache, fresh_result):
    a, b = make_spec(greediness=1), make_spec(greediness=2)
    cache.store(a, fresh_result)
    cache.store(b, fresh_result)
    assert cache.entries() == 2
    assert cache.invalidate(a) is True
    assert cache.invalidate(a) is False  # already gone
    assert cache.entries() == 1
    assert cache.clear() == 1
    assert cache.entries() == 0


def test_clear_all_versions(tmp_path, fresh_result):
    spec = make_spec()
    ResultCache(tmp_path, fingerprint="version-1").store(spec, fresh_result)
    new = ResultCache(tmp_path, fingerprint="version-2")
    new.store(spec, fresh_result)
    assert new.clear() == 1  # current version only
    assert new.clear(all_versions=True) == 1  # the stranded old entry


def test_stats_report(cache, fresh_result):
    spec = make_spec()
    cache.lookup(spec)  # miss
    cache.store(spec, fresh_result)
    cache.lookup(spec)  # hit
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["stores"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["entry_bytes"] > 0
    assert stats["fingerprint"] == "test-version"
    assert stats["corrupt_entries"] == 0
    assert stats["quarantined"] == 0
    assert stats["tmp_reaped"] == 0


# ----------------------------------------------------------------------
# Integrity: checksums, quarantine, verify/repair
# ----------------------------------------------------------------------
def _corrupt(cache, spec, text="{ not json") -> None:
    cache.path_for(cache.key_for(spec)).write_text(text, encoding="utf-8")


def test_corrupt_entry_is_counted_and_quarantined(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    _corrupt(cache, spec)
    assert cache.lookup(spec) is None
    assert cache.corrupt_entries == 1
    assert cache.misses == 1
    # The evidence moved aside instead of lingering as a live entry.
    assert not cache.path_for(cache.key_for(spec)).exists()
    assert cache.stats()["quarantined"] == 1
    assert cache.entries() == 0


def test_truncated_entry_degrades_to_miss(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    path = cache.path_for(cache.key_for(spec))
    path.write_bytes(path.read_bytes()[:-25])  # torn write
    assert cache.lookup(spec) is None
    assert cache.corrupt_entries == 1


def test_bit_flip_fails_the_checksum(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    path = cache.path_for(cache.key_for(spec))
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["elapsed_ns"] = int(envelope["elapsed_ns"]) + 1  # stale checksum
    path.write_text(json.dumps(envelope), encoding="utf-8")
    assert cache.lookup(spec) is None
    assert cache.corrupt_entries == 1


def test_legacy_unchecksummed_entry_still_reads(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    path = cache.path_for(cache.key_for(spec))
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope.pop("checksum")
    envelope["version"] = 1
    path.write_text(json.dumps(envelope), encoding="utf-8")
    cached = cache.lookup(spec)
    assert cached is not None
    assert serialize_summary(cached.summary()) == serialize_summary(
        fresh_result.summary()
    )


def test_verify_and_repair_audit_the_store(cache, fresh_result):
    good, bad_a, bad_b = make_spec(1), make_spec(2), make_spec(3)
    for spec in (good, bad_a, bad_b):
        cache.store(spec, fresh_result)
    _corrupt(cache, bad_a)
    _corrupt(cache, bad_b, text='{"version": 2, "key": "wrong"}')

    report = cache.verify()
    assert report["checked"] == 3
    assert report["ok"] == 1
    assert len(report["corrupt"]) == 2
    assert report["quarantined"] == 0  # verify never modifies

    report = cache.repair()
    assert report["repaired"] == 2
    assert report["quarantined"] == 2

    clean = cache.verify()
    assert clean["corrupt"] == []
    assert clean["checked"] == 1  # only the healthy entry remains live
    assert cache.lookup(good) is not None


def test_verify_all_versions(tmp_path, fresh_result):
    spec = make_spec()
    old = ResultCache(tmp_path, fingerprint="version-1")
    old.store(spec, fresh_result)
    old.path_for(old.key_for(spec)).write_text("garbage", encoding="utf-8")
    new = ResultCache(tmp_path, fingerprint="version-2")
    new.store(spec, fresh_result)
    assert new.verify()["corrupt"] == []
    assert len(new.verify(all_versions=True)["corrupt"]) == 1


# ----------------------------------------------------------------------
# Stale tmp files and disk headroom
# ----------------------------------------------------------------------
def _strand_tmp(cache, age_s: float, name: str = ".deadbeef.12345.tmp") -> str:
    version_dir = cache.path_for("x").parent
    version_dir.mkdir(parents=True, exist_ok=True)
    path = version_dir / name
    path.write_text("half-written entry", encoding="utf-8")
    stamp = path.stat().st_mtime - age_s
    os.utime(path, (stamp, stamp))
    return str(path)


def test_stale_tmp_reaped_on_open(tmp_path, cache):
    stale = _strand_tmp(cache, age_s=7200.0)  # two hours: a dead process
    fresh = _strand_tmp(cache, age_s=0.0, name=".cafef00d.67890.tmp")
    reopened = ResultCache(tmp_path, fingerprint="test-version")
    assert reopened.tmp_reaped == 1
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)  # a live concurrent publish is spared


def test_reap_tmp_and_clear_sweep_leftovers(cache, fresh_result):
    _strand_tmp(cache, age_s=7200.0)
    assert cache.reap_tmp() == 1
    cache.store(make_spec(), fresh_result)
    _strand_tmp(cache, age_s=0.0)
    assert cache.clear() == 1  # the entry; the fresh tmp goes too
    assert cache.tmp_reaped == 2
    version_dir = cache.path_for("x").parent
    assert list(version_dir.glob(".*.tmp")) == []


def test_store_refuses_without_headroom(cache, fresh_result, monkeypatch):
    monkeypatch.setattr("repro.service.cache._free_bytes", lambda path: 1024)
    with pytest.raises(CacheWriteError):
        cache.store(make_spec(), fresh_result)
    assert cache.entries() == 0
    assert cache.stores == 0
    # No torn files left behind by the refused store.
    version_dir = cache.path_for("x").parent
    assert not version_dir.is_dir() or list(version_dir.glob(".*.tmp")) == []


def test_quarantine_dir_excluded_from_entries(cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    _corrupt(cache, spec)
    cache.lookup(spec)  # quarantines
    quarantine = cache.path_for("x").parent / QUARANTINE_DIR
    assert len(list(quarantine.glob("*.json"))) == 1
    assert cache.entries() == 0
    assert cache.stats()["entries"] == 0


# ----------------------------------------------------------------------
# Job manifests
# ----------------------------------------------------------------------
def test_job_manifests_are_not_entries(tmp_path, cache, fresh_result):
    spec = make_spec()
    cache.store(spec, fresh_result)
    ResultCache(tmp_path, fingerprint="version-1").store(spec, fresh_result)
    cache.write_job("job-0001", "grid", [cache.key_for(spec)])
    cache.write_job("job-0002", "grid", [cache.key_for(spec)])
    assert cache.job_path("job-0001") == tmp_path / JOBS_DIR / "job-0001.json"

    assert cache.entries() == 1
    stats = cache.stats()
    assert (stats["entries"], stats["stale_entries"]) == (1, 1)
    assert cache.verify()["checked"] == 1
    report = cache.verify(all_versions=True)
    assert (report["checked"], report["corrupt"]) == (2, [])
    assert cache.repair(all_versions=True)["repaired"] == 0
    assert cache.clear(all_versions=True) == 2
    assert cache.job_path("job-0001").exists()
