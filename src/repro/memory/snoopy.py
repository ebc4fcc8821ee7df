"""Snoopy-bus cache coherence (invalidate and update protocols).

Section 2.1:

    "The widespread sharing that occurs with synchronization variables
    is not a problem when used in bus-based snoopy-cache
    multiprocessors.  Because snoopy-cache-based protocols perform
    broadcast invalidates or updates, a variable shared among all
    processors generates no more traffic on the shared bus than a
    variable shared among only two processors."

and Section 5.1 prices barriers on such machines: an invalidating bus
at roughly 3 accesses per processor per barrier, an updating bus (or an
invalidating scheme "that can detect a fetch with intent to write") at
roughly 2.  This module implements both protocol families over the same
trace-driven interface as the directory simulator, so those constants
can be *simulated* instead of quoted (see
:mod:`repro.barrier.coherent`).

Protocol summary (MSI-style, write-back):

- **read miss** — one bus read; a dirty remote copy flushes (one more
  transaction) and downgrades to clean; the block becomes shared.
- **write to a clean shared block** — *invalidate* protocol: one
  upgrade transaction, every other copy is invalidated by the snoop
  (a broadcast: one transaction regardless of copy count); *update*
  protocol: one update transaction, other copies stay valid with the
  new value.
- **write miss** — *invalidate* protocol: a read transaction followed
  by an upgrade, or a single read-exclusive when
  ``fetch_intent_write=True`` (the optimization Section 5.1 credits
  with the updating bus's count); *update*: a read plus an update when
  other copies exist.
- **dirty eviction** — one writeback transaction.

Bus transactions are the traffic unit (the bus serializes them; there
is no per-copy invalidation cost, which is exactly the scalability
contrast with the directory of :mod:`repro.memory.coherence`).  The
per-cpu tag state is the same sparse layout the directory simulator
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import truth
from typing import Iterable

from repro.memory.coherence import SparseCaches, _check_geometry
from repro.trace.record import Op, TraceRecord


@dataclass(frozen=True)
class SnoopyConfig:
    """Configuration of a snoopy-bus run."""

    num_cpus: int = 16
    cache_bytes: int = 256 * 1024
    block_bytes: int = 16
    protocol: str = "invalidate"  # or "update"
    fetch_intent_write: bool = False

    def __post_init__(self) -> None:
        _check_geometry(self.num_cpus, self.cache_bytes, self.block_bytes)
        if self.protocol not in ("invalidate", "update"):
            raise ValueError(
                f"protocol must be 'invalidate' or 'update', got {self.protocol!r}"
            )
        if self.protocol == "update" and self.fetch_intent_write:
            raise ValueError("fetch_intent_write applies to the invalidate protocol")


@dataclass
class SnoopyStats:
    """Counters accumulated over one snoopy-bus run."""

    refs: int = 0
    sync_refs: int = 0
    bus_transactions: int = 0
    sync_bus_transactions: int = 0
    reads_on_bus: int = 0
    upgrades: int = 0
    updates: int = 0
    flushes: int = 0
    writebacks: int = 0
    copies_invalidated: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def transactions_per_ref(self) -> float:
        if not self.refs:
            return 0.0
        return self.bus_transactions / self.refs


class SnoopySimulator(SparseCaches):
    """Runs a multiprocessor reference trace over a snoopy bus.

    ``_sharers`` is perfect snoop knowledge: which caches hold each block.
    """

    def __init__(self, config: SnoopyConfig) -> None:
        self.config = config
        self._init_caches(config.num_cpus, config.cache_bytes, config.block_bytes)
        self.stats = SnoopyStats()

    def run(self, trace: Iterable[TraceRecord]) -> SnoopyStats:
        """Process every record of ``trace``; stats accumulate across calls."""
        self._replay(*self._columns(trace))
        return self.stats

    def run_columns(self, cpus, op_codes, addresses, sync_flags) -> SnoopyStats:
        """Process a trace given as parallel columns (see :meth:`run`)."""
        self._replay(cpus, op_codes, addresses, sync_flags)
        return self.stats

    def process(self, record: TraceRecord) -> None:
        self._process(
            record.cpu, record.op is Op.READ, record.address, record.is_sync
        )

    def _process(self, cpu: int, is_read: bool, address: int, is_sync: bool) -> None:
        self._replay((cpu,), (0 if is_read else 1,), (address,), (is_sync,))

    def _replay(self, cpus, op_codes, addresses, sync_flags) -> None:
        """The protocol, applied to a trace given as columns.

        Every listed sharer holds the block (:meth:`check_invariants`),
        so a snooped copy is always resident.
        """
        update_protocol = self.config.protocol == "update"
        # Invalidate protocol write miss: one read-exclusive, or a read
        # followed by a separate upgrade.
        fetch_intent = self.config.fetch_intent_write
        shift = self._block_shift
        sets = self._sets
        lines = self._lines
        dirty = self._dirty
        sharers = self._sharers
        bus = sync_bus = reads = upgrades = updates = 0
        flushes = writebacks = invalidated = misses = 0

        for cpu, code, address, is_sync in zip(cpus, op_codes, addresses, sync_flags):
            block = address >> shift
            index = block % sets
            line = lines[cpu]
            resident = line.get(index)

            if resident == block:
                if code == 0:
                    continue
                mine = dirty[cpu]
                holders = sharers[block]
                if len(holders) == 1:  # only this cpu holds the block
                    mine.add(index)  # exclusive: a silent upgrade
                    continue
                transactions = 1
                if update_protocol:
                    # Broadcast the new word; other copies stay valid and
                    # memory is updated too, so the writer stays clean.
                    updates += 1
                else:
                    # One broadcast upgrade kills every other copy.
                    upgrades += 1
                    for other in holders:
                        if other != cpu:
                            del lines[other][index]
                            dirty[other].discard(index)
                            invalidated += 1
                    holders.intersection_update((cpu,))
                    mine.add(index)
            else:
                misses += 1
                reads += 1
                transactions = 1
                mine = dirty[cpu]
                holders = sharers.get(block)
                if holders is None:
                    holders = sharers[block] = set()
                # At most one copy is dirty; it flushes onto the bus.
                flusher = None
                for other in holders:
                    if index in dirty[other]:
                        flusher = other
                        break
                if flusher is not None:
                    transactions += 1
                    flushes += 1
                keep_clean = True
                if code == 0 or update_protocol:
                    if flusher is not None:
                        dirty[flusher].discard(index)  # downgrade
                    if code != 0:
                        if holders:
                            transactions += 1
                            updates += 1
                        else:
                            keep_clean = False
                    holders.add(cpu)
                else:
                    if not fetch_intent:
                        transactions += 1
                        upgrades += 1
                    for other in holders:
                        del lines[other][index]
                        dirty[other].discard(index)
                        invalidated += 1
                    holders.clear()
                    holders.add(cpu)
                    keep_clean = False

                # Install the block; a dirty victim is written back.
                line[index] = block
                if resident is not None:
                    left = sharers[resident]
                    left.discard(cpu)
                    if not left:
                        del sharers[resident]
                    if index in mine:
                        transactions += 1
                        writebacks += 1
                if keep_clean:
                    mine.discard(index)
                else:
                    mine.add(index)

            bus += transactions
            if is_sync:
                sync_bus += transactions

        stats = self.stats
        stats.refs += len(cpus)
        stats.sync_refs += sum(map(truth, sync_flags))
        stats.bus_transactions += bus
        stats.sync_bus_transactions += sync_bus
        stats.reads_on_bus += reads
        stats.upgrades += upgrades
        stats.updates += updates
        stats.flushes += flushes
        stats.writebacks += writebacks
        stats.copies_invalidated += invalidated
        stats.hits += len(cpus) - misses
        stats.misses += misses

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """At most one dirty copy per block; sharer sets match caches."""
        for block, holders in self._sharers.items():
            dirty = [cpu for cpu in holders if self.is_dirty(cpu, block)]
            assert len(dirty) <= 1, f"block {block}: multiple dirty copies {dirty}"
            for cpu in holders:
                assert self.holds(cpu, block), (
                    f"block {block}: sharer {cpu} lost its copy"
                )
