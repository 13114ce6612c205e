"""The content-addressed result store.

Every materialised :class:`~repro.core.parallel.RunSpec` reduces to a
canonical description (:mod:`repro.core.canonical`) that is hashed --
together with a fingerprint of the simulator's own source code -- into a
SHA-256 key.  A completed run's summary is persisted under that key, so
an *equivalent* run submitted later (same config, same workload
identity, same time limit, same code version) is served from disk
instead of being simulated again.

Invalidation is entirely structural -- nothing expires by time:

* change any configuration field -> different canonical form -> new key
  (only the affected cells of a sweep re-run);
* change the simulator's code -> new fingerprint -> every old key is
  unreachable (stale entries linger on disk until ``clear(all_versions=
  True)``, but can never be served);
* ``clear()`` drops the current code version's entries explicitly.

Layout on disk (human-greppable JSON, one file per result)::

    <root>/<fingerprint[:16]>/<key>.json
    <root>/jobs/<job_id>.json        # job manifests (see write_job)

The payload stores the spec's canonical description next to the summary
so entries are auditable, and files are written atomically (tmp +
``os.replace``) so concurrent sweeps sharing one cache directory never
observe a torn entry.  Payload bytes are deterministic: storing the same
result twice writes identical files.

Integrity (long campaigns trust this store for hours of work):

* every envelope carries a SHA-256 ``checksum`` over its own canonical
  bytes, verified on ``lookup`` -- a truncated, bit-rotted or
  hand-mangled entry counts as a miss (``corrupt_entries``), is moved
  to a ``quarantine/`` subdirectory for post-mortem, and the fresh
  result overwrites it;
* :meth:`ResultCache.verify` audits a whole directory without touching
  it, :meth:`ResultCache.repair` quarantines everything corrupt (the
  ``cache verify`` / ``cache repair`` CLI subcommands);
* mutations take an advisory ``.lock`` file per version directory, so
  concurrent sweeps sharing a store never interleave a publish with a
  quarantine sweep;
* stores check free disk space first and fail loudly
  (:class:`CacheWriteError`) instead of writing a torn entry, and stale
  ``*.tmp`` files left by a process killed mid-publish are reaped on
  open and on ``clear()``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.core.canonical import (
    UncacheableWorkloadError,
    canonical_json,
    code_fingerprint,
)
from repro.core.parallel import RunSpec
from repro.core.simulation import SimulationResult
from repro.core.statistics import (
    SummaryValue,
    deserialize_summary,
    serialize_summary,
)

__all__ = [
    "CacheIntegrityError",
    "CacheWriteError",
    "CachedResult",
    "ResultCache",
    "default_cache_root",
    "ensure_headroom",
]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory (per version dir) corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Subdirectory of the root holding job manifests (not result entries).
JOBS_DIR = "jobs"

#: Stale ``*.tmp`` files older than this are reaped on cache open; the
#: age guard keeps a concurrent process's in-flight publish safe.
TMP_MAX_AGE_S = 3600.0

#: Free space demanded beyond the payload itself before writing.
STORE_HEADROOM_BYTES = 1 << 20


class CacheIntegrityError(ValueError):
    """A stored entry failed its structural or checksum validation."""


class CacheWriteError(OSError):
    """A store was refused up front (e.g. the disk is nearly full)
    instead of risking a torn entry."""


def _free_bytes(path: Path) -> int:
    """Free bytes on the filesystem holding ``path`` (monkeypatchable
    seam for tests)."""
    return shutil.disk_usage(path).free


def ensure_headroom(path: Path, payload_bytes: int) -> None:
    """Raise :class:`CacheWriteError` unless ``path``'s filesystem has
    room for ``payload_bytes`` plus :data:`STORE_HEADROOM_BYTES`."""
    needed = payload_bytes + STORE_HEADROOM_BYTES
    try:
        free = _free_bytes(path)
    except OSError:
        return  # cannot measure: let the write itself surface the error
    if free < needed:
        raise CacheWriteError(
            f"refusing to write {payload_bytes} bytes under {path}: "
            f"only {free} bytes free (< {needed} required headroom)"
        )


def _publish(path: Path, payload: str) -> None:
    """Write ``payload`` to ``path`` atomically and durably.

    tmp file + ``fsync`` + ``os.replace``: a concurrent reader sees the
    old file or the new one, never a torn one, and a process killed
    mid-publish strands only a ``.*.tmp``.  Raises
    :class:`CacheWriteError` first when the disk lacks headroom.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    ensure_headroom(path.parent, len(payload.encode("utf-8")))
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.stem[:16]}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def envelope_checksum(envelope: dict) -> str:
    """SHA-256 over the envelope's canonical bytes, ``checksum`` field
    excluded -- the self-certifying seal every entry carries."""
    body = {key: value for key, value in envelope.items() if key != "checksum"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-results``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-results"


class CachedResult:
    """A result summary served from the store.

    Duck-types the slice of :class:`~repro.core.simulation.
    SimulationResult` the experiment layer consumes -- ``summary()``
    (bit-identical to the fresh run's, floats round-tripped exactly),
    ``elapsed_ns`` and ``processed_events`` -- but carries no
    time-series, traces or per-thread statistics: those are the price of
    a fresh run.
    """

    def __init__(
        self,
        summary: dict[str, SummaryValue],
        elapsed_ns: int,
        processed_events: int,
        key: str,
    ) -> None:
        self._summary = summary
        self.elapsed_ns = elapsed_ns
        self.processed_events = processed_events
        #: The content key this result was served under.
        self.key = key

    def summary(self) -> dict[str, SummaryValue]:
        return dict(self._summary)

    def report(self) -> str:
        lines = [f"== cached result {self.key[:16]} =="]
        for name in ("completed_ios", "throughput_iops", "write_amplification"):
            if name in self._summary:
                lines.append(f"{name:<20}: {self._summary[name]}")
        lines.append(f"{'virtual time ns':<20}: {self.elapsed_ns}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CachedResult(key={self.key[:16]}..., metrics={len(self._summary)})"


class ResultCache:
    """Content-addressed, on-disk store of simulation result summaries.

    Implements the :class:`repro.core.parallel.ResultSource` protocol
    (``lookup``/``store``), so it plugs directly into
    ``SweepExecutor.map(specs, cache=...)``, ``GridExperiment.run
    (cache=...)`` and the :class:`~repro.service.jobs.ExperimentService`.

    A spec whose workload has no stable identity (lambda, closure,
    ``__main__`` function) is *uncacheable*: ``lookup`` returns ``None``
    and ``store`` declines, both counting ``uncacheable`` -- the sweep
    still runs, it just never touches the store.

    Hit/miss/store counters accumulate over the cache object's lifetime
    and feed :meth:`stats` (the ``cache_stats`` report).
    """

    def __init__(
        self,
        root: "str | os.PathLike[str] | None" = None,
        *,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        #: Code-version fingerprint mixed into every key.  Overridable
        #: for tests; defaults to the hash of the simulator's sources.
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.uncacheable = 0
        #: Entries that failed decode/checksum validation on lookup
        #: (each was quarantined and counted as a miss).
        self.corrupt_entries = 0
        #: Stale ``*.tmp`` files removed by this object.
        self.tmp_reaped = 0
        # A process killed between NamedTemporaryFile and os.replace
        # leaves its tmp behind forever; sweep old ones on open.
        if self._version_dir().is_dir():
            self.reap_tmp(max_age_s=TMP_MAX_AGE_S)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_for(self, spec: RunSpec) -> Optional[str]:
        """The spec's content key, or ``None`` when it is uncacheable."""
        try:
            return spec.cache_key(self.fingerprint)
        except UncacheableWorkloadError:
            return None

    def path_for(self, key: str) -> Path:
        return self.root / self.fingerprint[:16] / f"{key}.json"

    # ------------------------------------------------------------------
    # ResultSource protocol
    # ------------------------------------------------------------------
    def lookup(self, spec: RunSpec) -> Optional[CachedResult]:
        """The stored result for an equivalent spec, or ``None``."""
        key = self.key_for(spec)
        if key is None:
            self.uncacheable += 1
            return None
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            entry = self._decode(text, key)
        except (ValueError, KeyError, TypeError):
            # A torn or hand-edited entry must never poison a sweep:
            # treat it as a miss, move the evidence aside, and let the
            # fresh result overwrite it.
            self.corrupt_entries += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return entry

    def store(self, spec: RunSpec, result: SimulationResult) -> None:
        """Persist ``result``'s summary under the spec's content key.

        Raises :class:`CacheWriteError` (without touching the store)
        when the disk lacks headroom for the entry -- a full disk must
        fail one store loudly, not strand torn files.
        """
        if isinstance(result, CachedResult):
            return  # already on disk; a hit re-stored would be a no-op
        key = self.key_for(spec)
        if key is None:
            self.uncacheable += 1
            return
        # The version-dir lock keeps a concurrent repair/clear from
        # sweeping the tmp mid-publish.
        with self._locked():
            _publish(self.path_for(key), self._encode(spec, result, key))
        self.stores += 1

    # ------------------------------------------------------------------
    # Job manifests
    # ------------------------------------------------------------------
    def job_path(self, job_id: str) -> Path:
        return self.root / JOBS_DIR / f"{job_id}.json"

    def write_job(
        self,
        job_id: str,
        name: str,
        keys: list[str],
        grid: Optional[dict] = None,
    ) -> None:
        """Publish the manifest of a job whose cells are ``keys``.

        The manifest names a job's cells; their results are ordinary
        entries, so resuming a job is re-running its specs against this
        store.  ``grid`` (a :func:`~repro.service.grids.grid_manifest`)
        lets a fresh process rebuild the specs from the job id alone.
        """
        manifest = {
            "version": 1,
            "job_id": job_id,
            "name": name,
            "fingerprint": self.fingerprint,
            "keys": keys,
            "grid": grid,
        }
        manifest["checksum"] = envelope_checksum(manifest)
        _publish(self.job_path(job_id), canonical_json(manifest) + "\n")

    def read_job(self, job_id: str) -> dict:
        """The job's manifest; raises :class:`CacheIntegrityError` when
        it is missing or fails its checksum."""
        path = self.job_path(job_id)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            raise CacheIntegrityError(f"no manifest {path}") from None
        try:
            manifest = json.loads(text)
            if manifest["checksum"] != envelope_checksum(manifest):
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError):
            raise CacheIntegrityError(f"manifest {path} is corrupt") from None
        return manifest

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(spec: RunSpec, result: SimulationResult, key: str) -> str:
        summary_text = serialize_summary(result.summary())
        envelope = {
            "version": 2,
            "key": key,
            "spec": spec.canonical(),
            "elapsed_ns": int(result.elapsed_ns),
            "processed_events": int(result.processed_events),
            # Stored pre-serialized so the summary's byte encoding is
            # exactly serialize_summary's, envelope formatting aside.
            "summary": summary_text,
        }
        envelope["checksum"] = envelope_checksum(envelope)
        return canonical_json(envelope) + "\n"

    @staticmethod
    def _decode(text: str, key: str) -> CachedResult:
        envelope = json.loads(text)
        if not isinstance(envelope, dict):
            raise CacheIntegrityError("entry is not a JSON object")
        if envelope.get("key") != key:
            raise CacheIntegrityError(f"entry key mismatch (expected {key})")
        if int(envelope.get("version", 0)) >= 2:
            # A version-2 entry vouches for its own bytes; any
            # truncation or bit flip breaks the checksum.
            stated = envelope.get("checksum")
            if stated != envelope_checksum(envelope):
                raise CacheIntegrityError("entry checksum mismatch")
        return CachedResult(
            summary=deserialize_summary(envelope["summary"]),
            elapsed_ns=int(envelope["elapsed_ns"]),
            processed_events=int(envelope["processed_events"]),
            key=key,
        )

    # ------------------------------------------------------------------
    # Maintenance and reporting
    # ------------------------------------------------------------------
    def _version_dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def _quarantine_dir(self) -> Path:
        return self._version_dir() / QUARANTINE_DIR

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory cross-process lock on the version directory.

        Mutations (publish, quarantine, repair, clear, tmp reap) hold
        it so two processes sharing one store never interleave; readers
        stay lock-free (``os.replace`` keeps them torn-proof).  On
        platforms without ``fcntl`` this degrades to a no-op.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            yield
            return
        version_dir = self._version_dir()
        version_dir.mkdir(parents=True, exist_ok=True)
        with open(version_dir / ".lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _quarantine(self, path: Path) -> bool:
        """Move a corrupt entry into ``quarantine/`` (never deleted:
        it is evidence).  Best-effort; returns True when moved."""
        quarantine = self._quarantine_dir()
        try:
            with self._locked():
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(path, quarantine / path.name)
            return True
        except OSError:
            return False

    def _version_dirs(self, all_versions: bool) -> list[Path]:
        """Version directories in deterministic order (``jobs/`` holds
        manifests, not entries)."""
        if not all_versions:
            return [self._version_dir()]
        if not self.root.is_dir():
            return []
        return sorted(
            child
            for child in self.root.iterdir()
            if child.is_dir() and child.name != JOBS_DIR
        )

    def _entry_paths(self, all_versions: bool = False) -> list[Path]:
        """Live entry files, quarantine excluded, deterministic order."""
        paths: list[Path] = []
        for root in self._version_dirs(all_versions):
            if root.is_dir():
                paths.extend(sorted(root.glob("*.json")))
        return paths

    def verify(self, *, all_versions: bool = False) -> dict[str, object]:
        """Audit the store without modifying it.

        Every entry is re-validated exactly as ``lookup`` would
        (decode, key-vs-filename, checksum); the report lists the
        corrupt files so ``repair`` -- or a human -- can act on them.
        """
        corrupt: list[str] = []
        checked = 0
        for path in self._entry_paths(all_versions):
            checked += 1
            try:
                self._decode(path.read_text(encoding="utf-8"), path.stem)
            except (OSError, ValueError, KeyError, TypeError):
                corrupt.append(str(path))
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
            "quarantined": self._quarantined_count(),
        }

    def repair(self, *, all_versions: bool = False) -> dict[str, object]:
        """Quarantine every corrupt entry; returns the audit report
        with a ``repaired`` count added.  After a clean ``repair``,
        ``verify`` reports zero corrupt entries."""
        report = self.verify(all_versions=all_versions)
        repaired = 0
        for text in list(report["corrupt"]):  # type: ignore[arg-type]
            if self._quarantine(Path(text)):
                repaired += 1
                self.corrupt_entries += 1
        report["repaired"] = repaired
        report["quarantined"] = self._quarantined_count()
        return report

    def reap_tmp(self, max_age_s: float = 0.0) -> int:
        """Remove stale ``*.tmp`` files (a process killed between
        ``NamedTemporaryFile`` and ``os.replace`` strands one per
        in-flight store).  Only files older than ``max_age_s`` are
        touched, so a live concurrent publish is never swept."""
        version_dir = self._version_dir()
        if not version_dir.is_dir():
            return 0
        cutoff = time.time() - max_age_s
        reaped = 0
        with self._locked():
            for path in sorted(version_dir.glob(".*.tmp")):
                try:
                    if path.stat().st_mtime <= cutoff:
                        path.unlink()
                        reaped += 1
                except OSError:
                    continue
        self.tmp_reaped += reaped
        return reaped

    def _quarantined_count(self) -> int:
        quarantine = self._quarantine_dir()
        if not quarantine.is_dir():
            return 0
        return sum(1 for _ in quarantine.glob("*.json"))

    def invalidate(self, spec: RunSpec) -> bool:
        """Drop the entry for one spec; True when something was removed."""
        key = self.key_for(spec)
        if key is None:
            return False
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def clear(self, *, all_versions: bool = False) -> int:
        """Remove stored entries; returns how many files were deleted.

        Default scope is the current code version; ``all_versions=True``
        also sweeps entries stranded by old fingerprints.  Quarantined
        entries and stale ``*.tmp`` leftovers (any age) go with them; job
        manifests stay.
        """
        removed = 0
        with self._locked():
            for root in self._version_dirs(all_versions):
                if not root.is_dir():
                    continue
                for path in sorted(root.rglob("*.json")):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
                for path in sorted(root.rglob(".*.tmp")):
                    try:
                        path.unlink()
                        self.tmp_reaped += 1
                    except OSError:
                        pass
        return removed

    def entries(self) -> int:
        """Stored results for the current code version."""
        version_dir = self._version_dir()
        if not version_dir.is_dir():
            return 0
        return sum(1 for _ in version_dir.glob("*.json"))

    def stats(self) -> dict[str, object]:
        """The ``cache_stats`` report: store shape plus this object's
        lifetime hit/miss counters."""
        version_dir = self._version_dir()
        entry_bytes = 0
        entry_count = 0
        stale = 0
        for child in self._version_dirs(all_versions=True):
            count = sum(1 for _ in child.glob("*.json"))
            if child == version_dir:
                entry_count = count
                entry_bytes = sum(
                    path.stat().st_size for path in child.glob("*.json")
                )
            else:
                stale += count
        total = self.hits + self.misses
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "entries": entry_count,
            "entry_bytes": entry_bytes,
            "stale_entries": stale,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "corrupt_entries": self.corrupt_entries,
            "quarantined": self._quarantined_count(),
            "tmp_reaped": self.tmp_reaped,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, "
            f"fingerprint={self.fingerprint[:16]}..., "
            f"hits={self.hits}, misses={self.misses})"
        )
