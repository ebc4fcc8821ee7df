"""Trace-driven Dir_i_NB coherence simulator (Section 2 methodology).

Protocol summary (invalidation-based, write-back, no broadcast):

- **Read miss**: two network transactions (request + data).  If the
  block is dirty in another cache, the owner writes it back (two more
  transactions) and the block becomes shared.  If the directory entry
  already holds ``i`` pointers, sharers are invalidated (one message,
  hence one transaction, each) until a pointer is free — the
  "invalidations forced to limit the cached copies of a block to i".
  Victims are chosen lowest cpu id first, so runs are reproducible.
- **Write hit to a clean block**: one ownership-request transaction plus
  one invalidation message per other sharer.  These events populate the
  Figure 1 histogram.
- **Write miss**: two transactions; a dirty remote copy is recalled and
  invalidated (two transactions + one invalidation), or every sharer is
  invalidated (one transaction each).
- **Replacement** of a dirty block costs one writeback transaction.

Synchronization references are either run through the protocol like any
other reference (Table 1 / Figure 1 configuration) or declared
uncacheable, in which case each one costs two transactions —
request out, response back (Table 2 configuration).

All traffic generated while processing a reference is attributed to
that reference's class (synchronization vs data).

State is sparse, so nothing is allocated per cache line up front: each
cpu's direct-mapped cache is a dict from set index to resident block
plus a set of the set indices whose block is dirty, and the directory
(Agarwal et al., ISCA '88: at most ``i`` pointers per block) is a dict
from block to sharer set plus a dict from block to dirty owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import not_, truth
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.memory.stats import CoherenceStats
from repro.obs.tracer import get_tracer
from repro.trace.record import Op, TraceRecord


def _check_geometry(num_cpus: int, cache_bytes: int, block_bytes: int) -> None:
    if num_cpus < 1:
        raise ValueError("num_cpus must be >= 1")
    if cache_bytes <= 0 or block_bytes <= 0:
        raise ValueError("cache and block sizes must be positive")
    if block_bytes & (block_bytes - 1):
        raise ValueError("block_bytes must be a power of two")
    if cache_bytes % block_bytes:
        raise ValueError("cache_bytes must be a multiple of block_bytes")


@dataclass(frozen=True)
class CoherenceConfig:
    """Configuration of one coherence run.

    Defaults mirror the paper: 64 processors, 256 KB direct-mapped
    caches, 16-byte blocks.
    """

    num_cpus: int = 64
    cache_bytes: int = 256 * 1024
    block_bytes: int = 16
    num_pointers: int = 64
    cache_sync: bool = True

    def __post_init__(self) -> None:
        _check_geometry(self.num_cpus, self.cache_bytes, self.block_bytes)
        if self.num_pointers < 1:
            raise ValueError("num_pointers must be >= 1")


class SparseCaches:
    """Per-cpu direct-mapped tag state shared by both simulators.

    ``_lines[cpu]`` maps a set index to the block resident there and
    ``_dirty[cpu]`` holds the set indices whose block is dirty;
    ``_sharers`` maps a block to the cpus holding it.
    """

    def _init_caches(self, num_cpus: int, cache_bytes: int, block_bytes: int) -> None:
        self._sets = cache_bytes // block_bytes
        self._block_shift = block_bytes.bit_length() - 1
        self._lines: List[Dict[int, int]] = [{} for __ in range(num_cpus)]
        self._dirty: List[Set[int]] = [set() for __ in range(num_cpus)]
        self._sharers: Dict[int, Set[int]] = {}

    def block_of(self, address: int) -> int:
        return address >> self._block_shift

    def holds(self, cpu: int, block: int) -> bool:
        """True if ``block`` is resident in cpu's cache."""
        return self._lines[cpu].get(block % self._sets) == block

    def is_dirty(self, cpu: int, block: int) -> bool:
        """True if ``block`` is resident and dirty in cpu's cache."""
        index = block % self._sets
        return self._lines[cpu].get(index) == block and index in self._dirty[cpu]

    def sharers(self, block: int) -> FrozenSet[int]:
        """The cpus the directory (or snoop state) lists for ``block``."""
        return frozenset(self._sharers.get(block, ()))

    @staticmethod
    def _columns(trace: Iterable[TraceRecord]) -> tuple:
        """``(cpus, op codes, addresses, sync flags)`` of a trace.

        A :class:`~repro.trace.scheduler.ScheduledTrace` hands over its
        columns (op codes ``{0: READ, 1: WRITE, 2: RMW}``); any other
        iterable of records is encoded (0 for a read, 1 otherwise).
        """
        raw = getattr(trace, "raw_columns", None)
        if callable(raw):
            return raw()
        cpus, op_codes, addresses, sync_flags = [], [], [], []
        for record in trace:
            cpus.append(record.cpu)
            op_codes.append(0 if record.op is Op.READ else 1)
            addresses.append(record.address)
            sync_flags.append(record.is_sync)
        return cpus, op_codes, addresses, sync_flags


class CoherenceSimulator(SparseCaches):
    """Runs a multiprocessor reference trace through caches + directory."""

    def __init__(self, config: CoherenceConfig) -> None:
        self.config = config
        self.num_pointers = min(config.num_pointers, config.num_cpus)
        self._init_caches(config.num_cpus, config.cache_bytes, config.block_bytes)
        self._owner: Dict[int, int] = {}
        self.stats = CoherenceStats()
        self._published_invalidations = 0

    def owner(self, block: int) -> Optional[int]:
        """The cpu holding ``block`` dirty, if any."""
        return self._owner.get(block)

    def run(self, trace: Iterable[TraceRecord]) -> CoherenceStats:
        """Process every record of ``trace`` and return the statistics.

        Statistics accumulate across calls on one simulator.
        """
        self._replay(*self._columns(trace))
        self._publish()
        return self.stats

    def run_columns(self, cpus, op_codes, addresses, sync_flags) -> CoherenceStats:
        """Process a trace given as parallel columns (see :meth:`run`)."""
        self._replay(cpus, op_codes, addresses, sync_flags)
        self._publish()
        return self.stats

    def process(self, record: TraceRecord) -> None:
        """Apply one reference to the memory system."""
        self._process(
            record.cpu, record.op is Op.READ, record.address, record.is_sync
        )

    def _process(self, cpu: int, is_read: bool, address: int, is_sync: bool) -> None:
        self._replay((cpu,), (0 if is_read else 1,), (address,), (is_sync,))

    def _publish(self) -> None:
        """Emit a snapshot of this simulator's statistics to the tracer.

        Stats are cumulative per simulator instance, so the snapshot
        event carries totals; counters are charged with the deltas
        since the previous publish.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        stats = self.stats
        invalidations = stats.total_invalidations
        tracer.count(
            "coherence.invalidations", invalidations - self._published_invalidations
        )
        self._published_invalidations = invalidations
        tracer.emit(
            "coherence.run",
            refs=stats.refs,
            sync_refs=stats.sync_refs,
            hits=stats.hits,
            misses=stats.misses,
            invalidations_on_write=stats.invalidations_on_write,
            invalidations_on_overflow=stats.invalidations_on_overflow,
            writebacks=stats.writebacks,
            sync_traffic=stats.sync_traffic,
            data_traffic=stats.data_traffic,
            pointers=self.num_pointers,
        )

    def _replay(self, cpus, op_codes, addresses, sync_flags) -> None:
        """The protocol, applied to a trace given as columns.

        The loop leans on the invariants :meth:`check_invariants`
        asserts: every listed sharer holds the block; a block with a
        dirty owner has that owner as its only sharer; and a line is
        dirty exactly when its cpu owns the block.  So an invalidated
        copy is always resident and, unless it is the owner's, clean.
        """
        tracer = get_tracer()
        traced = tracer.enabled
        cache_sync = self.config.cache_sync
        shift = self._block_shift
        sets = self._sets
        limit = self.num_pointers
        lines = self._lines
        dirty = self._dirty
        sharers = self._sharers
        owners = self._owner
        histogram: Dict[int, int] = {}
        refs = len(cpus)
        sync_refs = sum(map(truth, sync_flags))
        rows = zip(cpus, op_codes, addresses, sync_flags)
        probes = refs  # each cached reference is one hit or one miss
        sync_traffic = 0
        if not cache_sync:
            # An uncacheable synchronization reference costs a request
            # and a response and never reaches a cache.
            sync_traffic = 2 * sync_refs
            probes -= sync_refs
            rows = compress(rows, map(not_, sync_flags))
        sync_invalidating = data_invalidating = data_traffic = 0
        on_write = on_overflow = misses = writebacks = 0

        for cpu, code, address, is_sync in rows:
            block = address >> shift
            index = block % sets
            line = lines[cpu]
            resident = line.get(index)

            if resident == block:
                if code == 0:
                    continue
                mine = dirty[cpu]
                if index in mine:
                    continue  # the exclusive owner writes again
                # Write hit to a previously clean block (the Figure 1
                # event): every other sharer's clean copy is invalidated.
                holders = sharers[block]
                for other in holders:
                    if other != cpu:
                        del lines[other][index]
                invalidations = len(holders) - 1
                on_write += invalidations
                histogram[invalidations] = histogram.get(invalidations, 0) + 1
                sharers[block] = {cpu}
                owners[block] = cpu
                mine.add(index)
                traffic = 1 + invalidations  # ownership request + messages
            else:
                misses += 1
                traffic = 2  # request + data
                invalidations = 0
                holders = sharers.get(block)
                if code == 0:
                    if holders is None:
                        sharers[block] = {cpu}
                    else:
                        owner = owners.pop(block, None)
                        if owner is not None:
                            # Recall the dirty copy; the owner keeps a clean one.
                            traffic += 2
                            writebacks += 1
                            dirty[owner].discard(index)
                        if len(holders) == limit:
                            # Free one pointer: sharers never exceed i, so
                            # one victim, the lowest cpu id.
                            victim = min(holders)
                            if traced:
                                tracer.count("directory.overflow_invalidations", 1)
                                tracer.emit(
                                    "directory.overflow",
                                    block=block,
                                    requester=cpu,
                                    victims=1,
                                    sharers=limit,
                                )
                            del lines[victim][index]
                            holders.discard(victim)
                            invalidations = 1
                            on_overflow += 1
                            traffic += 1
                        holders.add(cpu)
                else:  # WRITE and RMW both need exclusive ownership.
                    if holders is not None:
                        owner = owners.get(block)
                        if owner is not None:
                            # Recall and invalidate the dirty copy.
                            traffic += 2
                            writebacks += 1
                            del lines[owner][index]
                            dirty[owner].discard(index)
                            invalidations = 1
                        else:
                            for other in holders:
                                del lines[other][index]
                            invalidations = len(holders)
                            traffic += invalidations
                        on_write += invalidations
                    sharers[block] = {cpu}
                    owners[block] = cpu

                # Install the block; a displaced block leaves the directory
                # and, if dirty, costs a writeback transaction.
                if resident is not None:
                    left = sharers[resident]
                    left.discard(cpu)
                    if not left:
                        del sharers[resident]
                    mine = dirty[cpu]
                    if index in mine:
                        del owners[resident]
                        writebacks += 1
                        traffic += 1
                        if code == 0:
                            mine.discard(index)
                    elif code:
                        mine.add(index)
                elif code:
                    dirty[cpu].add(index)
                line[index] = block

            if is_sync:
                sync_traffic += traffic
                if invalidations:
                    sync_invalidating += 1
            else:
                data_traffic += traffic
                if invalidations:
                    data_invalidating += 1

        stats = self.stats
        stats.refs += refs
        stats.sync_refs += sync_refs
        stats.data_refs += refs - sync_refs
        stats.sync_refs_invalidating += sync_invalidating
        stats.data_refs_invalidating += data_invalidating
        stats.invalidations_on_write += on_write
        stats.invalidations_on_overflow += on_overflow
        stats.sync_traffic += sync_traffic
        stats.data_traffic += data_traffic
        stats.hits += probes - misses
        stats.misses += misses
        stats.writebacks += writebacks
        for width, count in histogram.items():
            stats.write_invalidation_histogram.add(width, count)

    # ------------------------------------------------------------------
    # Invariant checks (used by tests).
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if protocol invariants are violated."""
        for block, holders in self._sharers.items():
            assert len(holders) <= self.num_pointers, (
                f"block {block}: {len(holders)} sharers exceed "
                f"{self.num_pointers} pointers"
            )
            for cpu in holders:
                assert self.holds(cpu, block), (
                    f"block {block}: directory lists cpu {cpu} but the "
                    f"cache does not hold the block"
                )
        # A dirty owner is the only sharer and holds the only dirty line
        # of its block; no other line is dirty.
        for block, owner in self._owner.items():
            holders = self._sharers.get(block, set())
            assert holders == {owner} and self.is_dirty(owner, block), (
                f"block {block}: dirty owner {owner} but sharers "
                f"{sorted(holders)}"
            )
        dirty_lines = sum(len(indices) for indices in self._dirty)
        assert dirty_lines == len(self._owner), (
            f"{dirty_lines} dirty lines but {len(self._owner)} dirty owners"
        )
