"""Garbage collection and block evacuation (paper Section 2.2).

"The default GC module strives to fulfill these goals by triggering GC
so that a given number of blocks (GC Greediness parameter) are always
free on each LUN."

GC and static wear leveling share one mechanism, *evacuating* a block:
every page live in it when the job starts is relocated, then the block
is erased (the scheduler holds the erase until no in-flight read
targets the block).  One :class:`_Evacuation` job runs all five kinds;
what differs is set when the job is created:

* **collection** -- a victim picked by the configured policy (greedy /
  cost-benefit / random / oldest), relocated within the LUN with the
  copyback command when the chip supports it, otherwise with a read
  followed by a program (stream ``gc``, any LUN when ``gc_same_lun`` is
  off);
* **rebalancing** -- the least-live block of a LUN full of live data,
  relocated to other LUNs (stream ``rebalance``);
* **condemnation** -- a block that reported a program failure, relocated
  like a collection but never by copyback, then retired, not erased;
* **erase-only reclaim** -- a fully dead block, erased at once;
* **static-WL migration** -- a young block chosen by
  :class:`~repro.controller.wear_leveling.WearLeveler`, relocated to an
  old block (stream ``wl_cold``, pages marked cold), commands tagged
  ``WEAR_LEVELING``.

``evacuating`` holds every job by ``(lun_key, block_id)``: victim
selection, erase-only reclaim and the WL scan skip those blocks.  A LUN
runs at most one collection, rebalancing or condemnation job at a time
(``active_jobs``); erase-only reclaims and WL migrations run beside it.

Races with the application are resolved by the FTL: a page overwritten
while its relocation was in flight yields an orphan copy, which
``ftl.on_relocation`` invalidates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.config import GcVictimPolicy
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.flash import Lun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


class _Evacuation:
    """One block being evacuated; the fields say which kind."""

    __slots__ = (
        "lun_key",
        "block_id",
        "on_erased",
        "source",
        "stream",
        "copyback",
        "retire",
        "on_page",
        "pending",
    )

    def __init__(
        self,
        lun_key: tuple[int, int],
        block_id: int,
        on_erased: Optional[Callable[["_Evacuation"], None]] = None,
        source: CommandSource = CommandSource.GC,
        stream: Optional[str] = None,
        copyback: bool = False,
        retire: bool = False,
        on_page: Optional[Callable[[bool, tuple[int, int]], None]] = None,
    ):
        self.lun_key = lun_key
        self.block_id = block_id
        #: Runs once the block's erase completed (never for ``retire``).
        self.on_erased = on_erased
        #: The source every command of the job carries.
        self.source = source
        #: Where relocated pages go: ``None`` keeps them on the LUN (the
        #: allocator's ``gc_stream_for``); otherwise the stream handed to
        #: ``place_internal``, ``"rebalance"`` leaving the LUN.
        self.stream = stream
        #: Relocate with copyback instead of read + program.
        self.copyback = copyback
        #: Retire the block after relocation instead of erasing it.
        self.retire = retire
        #: ``on_page(live, content)`` after each relocation; ``None``
        #: counts the page in ``relocated_pages``.
        self.on_page = on_page
        self.pending = 0


class GarbageCollector:
    """Per-LUN greedy space reclamation with a free-block watermark."""

    def __init__(self, controller: "SsdController"):
        self.controller = controller
        config = controller.config.controller
        self.greediness = config.gc_greediness
        self.policy = config.gc_victim_policy
        #: Relocation stream of collections and condemnations.
        self._gc_stream = None if config.gc_same_lun else "gc"
        self.use_copyback = (
            config.enable_copyback
            and controller.config.timings.supports_copyback
            and config.gc_same_lun
        )
        self._rng = controller.rng.stream("gc")
        #: Proactive idle-time collection (0 disables).
        self.idle_target = config.gc_idle_target
        self.idle_threshold_ns = config.gc_idle_threshold_ns
        #: The arm token of each LUN's idle timer: a timer whose token is
        #: not the current one is stale and returns when it fires.
        self._idle_armed: dict[tuple[int, int], int] = {}
        self._last_app_activity: dict[tuple[int, int], int] = {}
        #: Every block being evacuated, by ``(lun_key, block_id)``.
        self.evacuating: dict[tuple[tuple[int, int], int], _Evacuation] = {}
        #: The running collection, rebalancing or condemnation job per LUN.
        self.active_jobs: dict[tuple[int, int], _Evacuation] = {}
        #: Condemnations waiting for their LUN's job slot.
        self._condemn_queue: dict[tuple[int, int], list[_Evacuation]] = {}
        self.condemned_retirements = 0
        self.collected_blocks = 0
        self.relocated_pages = 0
        self.copyback_relocations = 0
        self.balancing_jobs = 0
        self.erase_only_reclaims = 0
        self.idle_jobs = 0

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def maybe_trigger(self, lun_key: tuple[int, int]) -> None:
        """Start a job on ``lun_key`` if it fell below the watermark.

        The watermark counts *usable* free blocks: the greediness target
        sits on top of the allocator's GC-reserve block, otherwise a
        greediness of 1 could never fire (the reserve keeps one block
        free at all times) and writers would stall.
        """
        if self.controller.ftl.manages_physical_space:
            return  # the FTL's own merges reclaim space
        lun = self.controller.array.luns[lun_key]
        watermark = self.greediness + self.controller.allocator.gc_reserve
        if len(lun.free_block_ids) >= watermark:
            return
        # Fully-dead blocks cost nothing to reclaim and must never wait
        # behind a relocation job (whose own space needs they may unblock).
        self._reclaim_fully_dead(lun_key, lun)
        if lun_key in self.active_jobs:
            return
        victim = self._select_victim(lun_key, lun)
        if victim is not None:
            self._start_job(lun_key, lun, victim)
            return
        # No block holds a single dead page: the LUN is overcommitted
        # with live data (possible under skewed allocation, since GC
        # relocations stay local).  Rebalance by evicting the block with
        # the fewest live pages to other LUNs, so this LUN regains free
        # blocks.  Two guards keep this safe and rare:
        #
        # * only rebalance when a queued program is actually blocked here
        #   (a merely-full-but-unwritten LUN is fine as it is);
        # * at most ONE rebalancing job device-wide -- concurrent
        #   cross-LUN jobs can block on each other's target space.
        if self._cross_lun_job_active():
            return
        if not self._has_blocked_program(lun_key, lun):
            return
        victim = self._select_balancing_victim(lun_key, lun)
        if victim is not None:
            self.balancing_jobs += 1
            self._start_job(lun_key, lun, victim, rebalance=True)

    def _cross_lun_job_active(self) -> bool:
        return any(job.stream == "rebalance" for job in self.active_jobs.values())

    def _has_blocked_program(self, lun_key: tuple[int, int], lun: Lun) -> bool:
        allocator = self.controller.allocator
        if len(lun.free_block_ids) > allocator.gc_reserve:
            return False  # new blocks are still openable; nothing stuck
        return any(
            cmd.kind is CommandKind.PROGRAM and not allocator.can_bind(cmd)
            for cmd in self.controller.scheduler.queued(lun_key)
        )

    def _candidate_mask(
        self, lun_key: tuple[int, int], lun: Lun, require_dead: bool
    ) -> np.ndarray:
        """Boolean victim-candidate mask over the LUN's local block ids.

        Vectorized equivalent of the former per-block Python loop: a
        candidate is occupied (not free), not open, not bad, programmed,
        (optionally) holds dead pages, and is not already being
        evacuated.
        """
        state = lun.state
        start, stop = state.block_range(lun.lun_index)
        mask = (
            (state.block_free[start:stop] == 0)
            & (state.bad[start:stop] == 0)
            & (state.write_pointer[start:stop] > 0)
        )
        if require_dead:
            mask &= state.dead_count[start:stop] > 0
        for block_id in self.controller.allocator.open_block_ids(lun_key):
            mask[block_id] = False
        for key, block_id in sorted(self.evacuating):
            if key == lun_key:
                mask[block_id] = False
        return mask

    def _select_victim(self, lun_key: tuple[int, int], lun: Lun) -> Optional[int]:
        candidates = np.nonzero(self._candidate_mask(lun_key, lun, True))[0]
        if candidates.size == 0:
            return None
        state = lun.state
        start, _ = state.block_range(lun.lun_index)
        now = self.controller.sim.now
        if self.policy is GcVictimPolicy.GREEDY:
            # min over (live_count, block_id): argmax of the first-min
            # picks the lowest block id among minimal live counts.
            live = state.live_count[start + candidates]
            return int(candidates[int(np.argmax(live == live.min()))])
        if self.policy is GcVictimPolicy.COST_BENEFIT:
            # max over (cost_benefit, -block_id): float64 element-wise ops
            # match the former per-block Python float arithmetic exactly.
            live = state.live_count[start + candidates]
            utilisation = live / float(self.controller.config.geometry.pages_per_block)
            age = np.maximum(
                1, now - state.last_write_ns[start + candidates]
            ).astype(np.float64)
            benefit = (1.0 - utilisation) / (1.0 + utilisation) * age
            return int(candidates[int(np.argmax(benefit == benefit.max()))])
        if self.policy is GcVictimPolicy.RANDOM:
            return self._rng.choice(candidates.tolist())
        if self.policy is GcVictimPolicy.OLDEST:
            written = state.last_write_ns[start + candidates]
            return int(candidates[int(np.argmax(written == written.min()))])
        raise ValueError(f"unknown GC victim policy {self.policy!r}")

    # ------------------------------------------------------------------
    # Proactive (idle-time) collection
    # ------------------------------------------------------------------
    def note_app_activity(self, lun_key: tuple[int, int]) -> None:
        """Controller hook: an application command was queued for this
        LUN.  (Re)arms the idle timer when proactive GC is enabled."""
        if self.idle_target <= 0 or self.controller.ftl.manages_physical_space:
            return
        self._last_app_activity[lun_key] = self.controller.sim.now
        self._arm_idle_timer(lun_key)

    def _arm_idle_timer(self, lun_key: tuple[int, int]) -> None:
        """Post the LUN's idle check one threshold from now; every timer
        armed before it goes stale."""
        token = self._idle_armed.get(lun_key, 0) + 1
        self._idle_armed[lun_key] = token
        self.controller.sim.post(self.idle_threshold_ns, self._idle_check, lun_key, token)

    def _idle_check(self, lun_key: tuple[int, int], token: int) -> None:
        if token != self._idle_armed.get(lun_key, 0):
            return  # a later arm superseded this timer
        now = self.controller.sim.now
        last = self._last_app_activity.get(lun_key, 0)
        if now - last < self.idle_threshold_ns:
            return  # the timer that activity armed checks later
        lun = self.controller.array.luns[lun_key]
        if lun.is_busy or self._has_pending_app_work(lun_key):
            # Not actually idle: the backlog keeps the LUN occupied.
            # Try again one threshold later.
            self._arm_idle_timer(lun_key)
            return
        if len(lun.free_block_ids) >= self.idle_target:
            return
        if lun_key in self.active_jobs:
            return
        victim = self._select_victim(lun_key, lun)
        if victim is None:
            return
        self.idle_jobs += 1
        self._start_job(lun_key, lun, victim)

    def _has_pending_app_work(self, lun_key: tuple[int, int]) -> bool:
        return any(
            cmd.source is CommandSource.APPLICATION
            for cmd in self.controller.scheduler.queued(lun_key)
        )

    def _reclaim_fully_dead(self, lun_key: tuple[int, int], lun: Lun) -> None:
        # Fully-dead = programmed but zero live pages: the LUN's
        # ``fully_dead`` set, kept as blocks die.  Bad blocks are
        # excluded: runtime-retired blocks keep their dead contents
        # (stale reads and parity stay valid); they are gone for good.
        state = lun.state
        fully_dead = state.fully_dead[lun.lun_index]
        if not fully_dead:
            return  # common case: nothing fully dead, skip the rest
        base = lun.lun_index * state.blocks_per_lun
        live, bad, free = state.mv_live_count, state.mv_bad, state.mv_block_free
        evacuating = self.evacuating
        candidates = []
        for global_id in sorted(fully_dead):
            if live[global_id] or bad[global_id]:
                # Programmed again since it died, or retired.
                fully_dead.discard(global_id)
                continue
            block_id = global_id - base
            if not free[global_id] and (lun_key, block_id) not in evacuating:
                candidates.append(block_id)
        if not candidates:
            return  # only blocks already being erased
        open_ids = self.controller.allocator.open_block_ids(lun_key)
        for block_id in [b for b in candidates if b not in open_ids]:
            # Checked per block: each enqueue may start commands, whose
            # program bindings may re-enter ``maybe_trigger``.
            if (lun_key, block_id) in evacuating:
                continue
            job = _Evacuation(lun_key, block_id, on_erased=self._reclaimed)
            evacuating[(lun_key, block_id)] = job
            self._finish(job)

    def _reclaimed(self, job: _Evacuation) -> None:
        self.collected_blocks += 1
        self.erase_only_reclaims += 1

    def _select_balancing_victim(self, lun_key: tuple[int, int], lun: Lun) -> Optional[int]:
        candidates = np.nonzero(self._candidate_mask(lun_key, lun, False))[0]
        if candidates.size == 0:
            return None
        state = lun.state
        start, _ = state.block_range(lun.lun_index)
        live = state.live_count[start + candidates]
        return int(candidates[int(np.argmax(live == live.min()))])

    # ------------------------------------------------------------------
    # Condemnation (reliability subsystem: program failures)
    # ------------------------------------------------------------------
    def condemn(self, lun_key: tuple[int, int], block_id: int) -> None:
        """Drain and retire a block that reported a program failure.

        The block's live pages are relocated with read+program
        (copyback is avoided: it would re-read the failing block without
        controller-side checking), and the block is then *retired*,
        never erased back into the free pool.  Condemnation uses the
        one-job-per-LUN slot, queueing behind an in-progress collection
        if necessary; queued or draining, the block is in
        ``evacuating``, which keeps victim selection, WL and erase-only
        reclaim away from it.  A block already being evacuated is left
        to its job.
        """
        key = (lun_key, block_id)
        if key in self.evacuating:
            return
        lun = self.controller.array.luns[lun_key]
        if lun.state.mv_bad[lun.lun_index * lun.blocks_per_lun + block_id]:
            return  # already retired (e.g. a second failure raced in)
        job = _Evacuation(lun_key, block_id, stream=self._gc_stream, retire=True)
        self.evacuating[key] = job
        self._condemn_queue.setdefault(lun_key, []).append(job)
        self._pump_condemn(lun_key)

    def _pump_condemn(self, lun_key: tuple[int, int]) -> None:
        if lun_key in self.active_jobs:
            return  # runs when the current job's erase/retire completes
        queue = self._condemn_queue.get(lun_key)
        if not queue:
            return
        job = queue.pop(0)
        self.active_jobs[lun_key] = job
        live_pages = self.controller.array.luns[lun_key].live_page_indexes(job.block_id)
        tracer = self.controller.tracer
        if tracer.enabled:
            tracer.record(
                self.controller.sim.now,
                "controller",
                "gc-condemn",
                f"draining (c{lun_key[0]},l{lun_key[1]},b{job.block_id}) "
                f"live={len(live_pages)}",
            )
        self._evacuate(job, live_pages)

    def _retire_block(self, job: _Evacuation) -> None:
        lun_key, block_id = job.lun_key, job.block_id
        controller = self.controller
        lun = controller.array.luns[lun_key]
        # Retire without erasing: dead contents stay readable for any
        # in-flight stale read and the parity tracker stays consistent.
        lun.retire_block(block_id)
        controller.array.retired_blocks += 1
        self.active_jobs.pop(lun_key, None)
        self.evacuating.pop((lun_key, block_id), None)
        self.condemned_retirements += 1
        if controller.tracer.enabled:
            controller.tracer.record(
                controller.sim.now,
                "controller",
                "gc-retired",
                f"condemned (c{lun_key[0]},l{lun_key[1]},b{block_id}) left service",
            )
        if controller.reliability is not None:
            controller.reliability.on_runtime_retirement(
                lun_key, block_id, "program failure"
            )
        self._pump_condemn(lun_key)
        # Usable capacity shrank: the LUN may now be below the watermark.
        self.maybe_trigger(lun_key)

    # ------------------------------------------------------------------
    # Static-WL migration (the wear leveler decides which block)
    # ------------------------------------------------------------------
    def migrate(self, lun_key: tuple[int, int], block_id: int) -> None:
        """Move a young block's (cold) live data to old blocks, then
        erase it so hot writes can use it."""
        job = _Evacuation(
            lun_key,
            block_id,
            on_erased=self._migrated,
            source=CommandSource.WEAR_LEVELING,
            stream="wl_cold",
            on_page=self._page_migrated,
        )
        self.evacuating[(lun_key, block_id)] = job
        lun = self.controller.array.luns[lun_key]
        live_pages = lun.live_page_indexes(block_id)
        tracer = self.controller.tracer
        if tracer.enabled:
            erases = lun.state.mv_erase_count[lun.lun_index * lun.blocks_per_lun + block_id]
            tracer.record(
                self.controller.sim.now,
                "controller",
                "wl-start",
                f"young block (c{lun_key[0]},l{lun_key[1]},b{block_id}) "
                f"erases={erases} live={len(live_pages)}",
            )
        self._evacuate(job, live_pages)

    def _page_migrated(self, live: bool, content: tuple[int, int]) -> None:
        if live and content[0] >= 0:
            # Migrated data is cold by assumption (paper, option 1).
            self.controller.temperature.mark_cold(content[0])
        self.controller.wear_leveler.migrated_pages += 1

    def _migrated(self, job: _Evacuation) -> None:
        tracer = self.controller.tracer
        if tracer.enabled:
            tracer.record(
                self.controller.sim.now,
                "controller",
                "wl-done",
                f"freed (c{job.lun_key[0]},l{job.lun_key[1]},b{job.block_id})",
            )

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _start_job(
        self, lun_key: tuple[int, int], lun: Lun, victim_id: int, rebalance: bool = False
    ) -> None:
        if rebalance:
            job = _Evacuation(lun_key, victim_id, self._collected, stream="rebalance")
        else:
            job = _Evacuation(
                lun_key,
                victim_id,
                self._collected,
                stream=self._gc_stream,
                copyback=self.use_copyback,
            )
        self.active_jobs[lun_key] = self.evacuating[(lun_key, victim_id)] = job
        live_pages = lun.live_page_indexes(victim_id)
        tracer = self.controller.tracer
        if tracer.enabled:
            tracer.record(
                self.controller.sim.now,
                "controller",
                "gc-start",
                f"victim (c{lun_key[0]},l{lun_key[1]},b{victim_id}) "
                f"live={len(live_pages)}{' rebalance' if rebalance else ''}",
            )
        self._evacuate(job, live_pages)

    def _evacuate(self, job: _Evacuation, live_pages: list[int]) -> None:
        """Relocate ``live_pages`` of the job's block, or finish the job
        at once when there are none."""
        if not live_pages:
            self._finish(job)
            return
        job.pending = len(live_pages)
        if job.copyback:
            kind, stream, done = CommandKind.COPYBACK, "gc", self._copyback_done
        else:  # a read binds no block: it keeps the command's default stream
            kind, stream, done = CommandKind.READ, "default", self._relocation_read_done
        channel, lun = job.lun_key
        enqueue = self.controller.enqueue_command
        for page_index in live_pages:
            enqueue(
                FlashCommand(
                    kind,
                    job.source,
                    PhysicalAddress(channel, lun, job.block_id, page_index),
                    stream=stream,
                    context=job,
                    on_complete=done,
                )
            )

    def _copyback_done(self, cmd: FlashCommand) -> None:
        assert cmd.target_address is not None and cmd.content is not None
        self.copyback_relocations += 1
        self._relocation_done(cmd.context, cmd.content, cmd.address, cmd.target_address)

    def _relocation_read_done(self, cmd: FlashCommand) -> None:
        assert cmd.content is not None
        job = cmd.context
        stream = job.stream
        if stream is None:
            lun_key = cmd.lun_key
            stream = self.controller.allocator.gc_stream_for(cmd.content[0])
        else:
            # A balancing eviction must leave this LUN.  Stream
            # "rebalance" is not reserve-exempt, so other LUNs keep their
            # GC headroom.
            lun_key = self.controller.allocator.place_internal(
                stream, exclude=job.lun_key if stream == "rebalance" else None
            )
        program = FlashCommand(
            CommandKind.PROGRAM,
            job.source,
            PhysicalAddress(lun_key[0], lun_key[1], -1, -1),
            lpn=cmd.content[0],
            content=cmd.content,
            stream=stream,
            context=(job, cmd.address),
            on_complete=self._relocation_program_done,
        )
        self.controller.enqueue_command(program)

    def _relocation_program_done(self, cmd: FlashCommand) -> None:
        job, source = cmd.context
        assert cmd.content is not None
        self._relocation_done(job, cmd.content, source, cmd.address)

    def _relocation_done(
        self,
        job: _Evacuation,
        content: tuple[int, int],
        old_address: PhysicalAddress,
        new_address: PhysicalAddress,
    ) -> None:
        live = self.controller.ftl.on_relocation(content, old_address, new_address)
        if job.on_page is None:
            self.relocated_pages += 1
        else:
            job.on_page(live, content)
        job.pending -= 1
        if job.pending == 0:
            self._finish(job)

    def _finish(self, job: _Evacuation) -> None:
        """Retire the emptied block or erase it."""
        if job.retire:
            self._retire_block(job)
            return
        cmd = FlashCommand(
            CommandKind.ERASE,
            job.source,
            PhysicalAddress(job.lun_key[0], job.lun_key[1], job.block_id, 0),
            context=job,
            on_complete=self._erase_done,
        )
        self.controller.enqueue_command(cmd)

    def _erase_done(self, cmd: FlashCommand) -> None:
        job = cmd.context
        self.evacuating.pop((job.lun_key, job.block_id), None)
        job.on_erased(job)

    def _collected(self, job: _Evacuation) -> None:
        self.active_jobs.pop(job.lun_key, None)
        self.collected_blocks += 1
        tracer = self.controller.tracer
        if tracer.enabled:
            tracer.record(
                self.controller.sim.now,
                "controller",
                "gc-done",
                f"erased (c{job.lun_key[0]},l{job.lun_key[1]},b{job.block_id})",
            )
        # Condemned blocks (reliability) jump ahead of further
        # collection: their space is unusable until they retire.
        self._pump_condemn(job.lun_key)
        # The LUN may still be below the watermark: chain the next job.
        self.maybe_trigger(job.lun_key)
        if job.stream == "rebalance":
            # The device-wide rebalancing slot is free again: other LUNs
            # may have been waiting for it.
            for lun_key in self.controller.array.luns:
                self.maybe_trigger(lun_key)
        if self.idle_target > 0:
            # Chain proactive collection while the LUN stays idle.  The
            # check shares the pending timer's token: a busy LUN re-arms
            # and so retires that timer instead of adding a second poll.
            self.controller.sim.post(
                0, self._idle_check, job.lun_key, self._idle_armed.get(job.lun_key, 0)
            )
