"""Tests for a job's durable record: the manifest a submitted job leaves
under ``<cache root>/jobs/`` (repro.service.cache, repro.service.jobs).

The contract: a fresh process reads back a job's manifest and serves
every cell it names with a byte-identical summary; a missing, truncated
or tampered manifest is refused, never trusted; a manifest can never be
resumed into a different grid (other cells, another count or order).
"""

import functools
import json

import pytest

from repro import RunSpec, small_config
from repro.core.statistics import serialize_summary
from repro.service import (
    CachedResult,
    CacheIntegrityError,
    ExperimentService,
    ResultCache,
    ResumeMismatchError,
)
from repro.service.grids import mixed_workload

IOS = 150
FINGERPRINT = "test-version"


def make_specs(count: int = 3, ios: int = IOS) -> list:
    specs = []
    for index in range(count):
        config = small_config()
        config.controller.gc_greediness = index + 1
        specs.append(
            RunSpec(
                config=config,
                workload=functools.partial(mixed_workload, ios=ios),
                index=index,
                label=f"greed={index + 1}",
            )
        )
    return specs


@pytest.fixture(scope="module")
def specs():
    return make_specs()


@pytest.fixture(scope="module")
def results(specs):
    return [spec.execute() for spec in specs]


def write_job(path, specs) -> ResultCache:
    cache = ResultCache(path, fingerprint=FINGERPRINT)
    keys = [cache.key_for(spec) for spec in specs]
    cache.write_job("job-0001", "test", keys, grid={"kind": "grid"})
    return cache


def test_roundtrip_is_bit_identical(tmp_path, specs, results):
    cache = write_job(tmp_path, specs)
    for spec, result in zip(specs, results):
        cache.store(spec, result)

    loaded = ResultCache(tmp_path, fingerprint=FINGERPRINT)
    manifest = loaded.read_job("job-0001")
    assert manifest["job_id"] == "job-0001"
    assert manifest["name"] == "test"
    assert manifest["fingerprint"] == FINGERPRINT
    assert manifest["grid"] == {"kind": "grid"}
    assert manifest["keys"] == [loaded.key_for(spec) for spec in specs]
    for spec, result in zip(specs, results):
        cached = loaded.lookup(spec)
        assert isinstance(cached, CachedResult)
        assert serialize_summary(cached.summary()) == serialize_summary(
            result.summary()
        )
        assert cached.elapsed_ns == result.elapsed_ns
        assert cached.processed_events == result.processed_events


def test_checksum_tamper_ends_the_journal(tmp_path, specs):
    cache = write_job(tmp_path, specs)
    path = cache.job_path("job-0001")
    text = path.read_text(encoding="utf-8")
    for field, value in (
        ("keys", ["0" * 64]),
        ("fingerprint", "other-version"),
        ("grid", None),
    ):
        manifest = json.loads(text)
        manifest[field] = value  # edited without resealing: stale checksum
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CacheIntegrityError):
            cache.read_job("job-0001")


def test_missing_or_headless_journal_raises(tmp_path, specs):
    cache = ResultCache(tmp_path, fingerprint=FINGERPRINT)
    with pytest.raises(CacheIntegrityError):
        cache.read_job("job-0001")  # never written
    write_job(tmp_path, specs)
    path = cache.job_path("job-0001")
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-30], encoding="utf-8")  # torn write
    with pytest.raises(CacheIntegrityError):
        cache.read_job("job-0001")
    unsealed = json.loads(text)
    del unsealed["checksum"]
    path.write_text(json.dumps(unsealed), encoding="utf-8")
    with pytest.raises(CacheIntegrityError):
        cache.read_job("job-0001")


def test_wrong_grid_is_rejected(tmp_path, specs):
    with ExperimentService(
        cache=ResultCache(tmp_path, fingerprint=FINGERPRINT)
    ) as service:
        job_id = service.submit(specs)
        service.wait(job_id)
    other = ExperimentService(cache=ResultCache(tmp_path, fingerprint=FINGERPRINT))
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=specs[:2])  # wrong cell count
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=make_specs(ios=IOS * 2))  # different cells
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=list(reversed(specs)))  # different order
    other.shutdown()
