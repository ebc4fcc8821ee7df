"""Post-mortem scheduling of SPMD programs onto P processors.

Implements the paper's Appendix A methodology:

    "In EPEX/FORTRAN, synchronization constructs at the beginning of
    parallel and serial sections perform F&As on shared variables to
    determine task assignments to processes.  Barriers and waits at the
    end of loops and serial sections are simulated by arriving
    processors first incrementing a shared variable through a F&A and
    then polling a barrier flag until it is set by the last arriving
    processor. ... Our scheduler simulates a parallel execution of this
    trace, assigning processors references from the trace on a
    round-robin basis.  We assume that processors make a memory
    reference every cycle."

Every active processor issues exactly one memory reference per cycle.
Loop iterations are claimed by fetch&add on a per-loop index variable;
each loop and serial section ends in a barrier.  Two barrier styles are
supported:

- ``barrier_style="flat"`` (default): the Tang–Yew two-variable barrier
  the paper studies — fetch&add on the barrier variable, per-cycle
  polling of the barrier flag, last arrival writes the flag.
- ``barrier_style="tree"``: a software combining tree (Yew, Tseng &
  Lawrie) of Tang–Yew barriers with ``tree_degree``-way nodes.  The
  paper proposes this as the fix for directory-pointer overflow: "as
  long as the degree of the nodes in the combining tree is less than
  the number of pointers in the cache-directory, then synchronization
  variables will not result in extra invalidation traffic."

Internally the flat barrier *is* a one-node tree, so both styles share
one code path.  Barrier synchronization words alternate between two
address sets (the standard sense-reversal trick), so the same words are
re-shared across the whole run — exactly the widespread sharing the
paper studies.

Fetch&adds are atomic read-modify-writes of one memory word: only one
is granted per cycle per variable; a denied processor stalls and
retries, and only the granted operation enters the trace.  This is the
serialization the paper observes "at the loop index assignment" in FFT.

The scheduler records, per barrier: every processor's arrival time at
the (leaf) barrier variable, the first flag-poll time, and the
flag-set time.  These yield the paper's A and E intervals (Table 3)
and the arrival distribution within A (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import get_tracer
from repro.trace.program import (
    ParallelLoop,
    Program,
    ReplicateSection,
    SerialSection,
)
from repro.trace.record import Op, TraceRecord

# Per-cpu state machine codes.
_FETCH = 0  # issue F&A on the loop index variable
_BODY = 1  # issue the next body reference
_BAR_INC = 2  # issue F&A on the current barrier node's variable
_SET_FLAG = 3  # issue a flag write (node release)
_POLL = 4  # issue a flag read at the current barrier node
_TICKET = 5  # issue F&A on a serial-section ticket
_SERIAL_BODY = 6  # issue the next serial-body reference

_OPS = {0: Op.READ, 1: Op.WRITE, 2: Op.RMW}


@dataclass
class BarrierObservation:
    """What the scheduler saw at one barrier instance.

    Arrivals are recorded at the *leaf* barrier variable (for a flat
    barrier, the only one); ``flag_set_cycle`` is the root release.
    """

    section_name: str
    variable_address: int
    flag_address: int
    arrivals: List[Tuple[int, int]] = field(default_factory=list)  # (cpu, cycle)
    first_poll_cycle: Optional[int] = None
    flag_set_cycle: Optional[int] = None

    @property
    def first_arrival(self) -> int:
        return min(cycle for __, cycle in self.arrivals)

    @property
    def last_arrival(self) -> int:
        return max(cycle for __, cycle in self.arrivals)

    @property
    def interval_a(self) -> int:
        """Paper's A: first flag poll to flag set (clamped at 0)."""
        if self.flag_set_cycle is None:
            raise ValueError("barrier never completed")
        if self.first_poll_cycle is None:
            return 0  # single processor: nobody polled
        return max(self.flag_set_cycle - self.first_poll_cycle, 0)

    @property
    def arrival_span(self) -> int:
        """Last arrival minus first arrival at the barrier variable."""
        return self.last_arrival - self.first_arrival

    def arrival_offsets(self) -> List[int]:
        """Per-processor arrival offsets from the first arrival (Fig. 3)."""
        first = self.first_arrival
        return sorted(cycle - first for __, cycle in self.arrivals)


class ScheduledTrace:
    """The output of the post-mortem scheduler.

    Stores the trace compactly (parallel lists of ints) and yields
    :class:`TraceRecord` objects on iteration.
    """

    def __init__(self, num_cpus: int, program_name: str) -> None:
        self.num_cpus = num_cpus
        self.program_name = program_name
        self._cpus: List[int] = []
        self._ops: List[int] = []
        self._addresses: List[int] = []
        self._sync: List[bool] = []
        self.barriers: List[BarrierObservation] = []
        self.cycles = 0
        self.sync_refs = 0

    def __len__(self) -> int:
        return len(self._cpus)

    def __iter__(self) -> Iterator[TraceRecord]:
        for cpu, op, address, sync in zip(
            self._cpus, self._ops, self._addresses, self._sync
        ):
            yield TraceRecord(cpu=cpu, op=_OPS[op], address=address, is_sync=sync)

    def raw_columns(self) -> Tuple[List[int], List[int], List[int], List[bool]]:
        """The compact storage: (cpus, op codes, addresses, sync flags).

        Op codes follow ``{0: READ, 1: WRITE, 2: RMW}``.  Used by the
        trace persistence layer; most callers should iterate records.
        """
        return self._cpus, self._ops, self._addresses, self._sync

    @property
    def sync_fraction(self) -> float:
        """Fraction of references that are synchronization references."""
        if not self._cpus:
            return 0.0
        return self.sync_refs / len(self._cpus)

    # ------------------------------------------------------------------
    # Table 3 / Figure 3 measurements.
    # ------------------------------------------------------------------

    def interval_a_values(self) -> List[int]:
        """A for every barrier (first poll to flag set)."""
        return [barrier.interval_a for barrier in self.barriers]

    def interval_e_values(self) -> List[int]:
        """E between consecutive barriers (last arrival to next first arrival)."""
        values = []
        for previous, current in zip(self.barriers, self.barriers[1:]):
            values.append(max(current.first_arrival - previous.last_arrival, 0))
        return values

    def mean_interval_a(self) -> float:
        values = self.interval_a_values()
        return sum(values) / len(values) if values else 0.0

    def mean_interval_e(self) -> float:
        values = self.interval_e_values()
        return sum(values) / len(values) if values else 0.0

    def arrival_offsets(self) -> List[int]:
        """Pooled per-barrier arrival offsets (Figure 3 raw data)."""
        offsets: List[int] = []
        for barrier in self.barriers:
            offsets.extend(barrier.arrival_offsets())
        return offsets


class _BarrierNode:
    """One node of a barrier's (possibly one-node) combining tree."""

    __slots__ = (
        "parent",
        "expected",
        "count",
        "variable_address",
        "flag_address",
        "flag_set_cycle",
    )

    def __init__(
        self,
        parent: Optional[int],
        expected: int,
        variable_address: int,
        flag_address: int,
    ) -> None:
        self.parent = parent
        self.expected = expected
        self.count = 0
        self.variable_address = variable_address
        self.flag_address = flag_address
        self.flag_set_cycle: Optional[int] = None


class _BarrierTree:
    """Barrier instance state: nodes, leaf assignment, observation."""

    __slots__ = ("nodes", "leaf_of", "observation")

    def __init__(
        self,
        nodes: List[_BarrierNode],
        leaf_of: List[int],
        observation: BarrierObservation,
    ) -> None:
        self.nodes = nodes
        self.leaf_of = leaf_of
        self.observation = observation

    def child_toward(self, node_id: int, cpu: int) -> int:
        """The child of ``node_id`` on cpu's path up from its leaf."""
        current = self.leaf_of[cpu]
        while (
            self.nodes[current].parent is not None
            and self.nodes[current].parent != node_id
        ):
            current = self.nodes[current].parent
        if self.nodes[current].parent != node_id:
            raise AssertionError(
                f"cpu {cpu} is not a descendant of node {node_id}"
            )
        return current


class _SectionRuntime:
    """Shared state of one section instance (index counter + barrier)."""

    __slots__ = ("counter", "index_address", "tree")

    def __init__(self, index_address: int, tree: Optional[_BarrierTree]):
        self.counter = 0
        self.index_address = index_address
        self.tree = tree


class PostMortemScheduler:
    """Replays a :class:`~repro.trace.program.Program` onto P processors.

    Args:
        program: the SPMD program to schedule.
        num_cpus: processor count.
        barrier_style: ``"flat"`` (Tang-Yew, the paper's subject) or
            ``"tree"`` (software combining tree).
        tree_degree: fan-in of each combining-tree node (>= 2), used
            only when ``barrier_style="tree"``.
    """

    def __init__(
        self,
        program: Program,
        num_cpus: int,
        barrier_style: str = "flat",
        tree_degree: int = 4,
    ) -> None:
        if num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        if barrier_style not in ("flat", "tree"):
            raise ValueError(
                f"barrier_style must be 'flat' or 'tree', got {barrier_style!r}"
            )
        if barrier_style == "tree" and tree_degree < 2:
            raise ValueError("tree_degree must be >= 2")
        self.program = program
        self.num_cpus = num_cpus
        self.barrier_style = barrier_style
        self.tree_degree = tree_degree if barrier_style == "tree" else num_cpus
        self._barrier_index = 0
        # Barrier node words, keyed (parity, level, group) and allocated
        # lazily: two alternating sets give sense-reversing reuse, so
        # the same words stay widely re-shared across the run.
        self._node_addresses: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        # Per-section synchronization words, allocated on first entry.
        self._section_sync_addr: Dict[int, int] = {}
        self._rmw_last_grant: Dict[int, int] = {}
        # Denied fetch&adds of the last run, reported when tracing.
        self._rmw_stalls = 0

    #: Cycles between ``sched.progress`` events while tracing.
    PROGRESS_INTERVAL = 4096

    # ------------------------------------------------------------------
    # Address management.
    # ------------------------------------------------------------------

    def _sync_addr_for(self, section_idx: int, kind: str) -> int:
        if section_idx not in self._section_sync_addr:
            self._section_sync_addr[section_idx] = (
                self.program.address_space.alloc_sync(f"{kind}-{section_idx}")
            )
        return self._section_sync_addr[section_idx]

    def _node_addr(self, parity: int, level: int, group: int) -> Tuple[int, int]:
        key = (parity, level, group)
        if key not in self._node_addresses:
            space = self.program.address_space
            label = f"barrier-{parity}-L{level}G{group}"
            self._node_addresses[key] = (
                space.alloc_sync(f"{label}-var"),
                space.alloc_sync(f"{label}-flag"),
            )
        return self._node_addresses[key]

    def _build_barrier_tree(self, section_name: str) -> _BarrierTree:
        """Create the (possibly one-node) tree for a new barrier."""
        parity = self._barrier_index % 2
        self._barrier_index += 1
        degree = max(self.tree_degree, 2)
        nodes: List[_BarrierNode] = []
        level_start: List[int] = []
        level_shapes: List[Tuple[int, int]] = []  # (participants, groups)
        participants = self.num_cpus
        while True:
            groups = -(-participants // degree)
            level_shapes.append((participants, groups))
            if groups == 1:
                break
            participants = groups
        for level, (count, groups) in enumerate(level_shapes):
            level_start.append(len(nodes))
            for group in range(groups):
                lo = group * degree
                hi = min(lo + degree, count)
                var_addr, flag_addr = self._node_addr(parity, level, group)
                nodes.append(
                    _BarrierNode(
                        parent=None,
                        expected=hi - lo,
                        variable_address=var_addr,
                        flag_address=flag_addr,
                    )
                )
        for level in range(len(level_shapes) - 1):
            __, groups = level_shapes[level]
            for group in range(groups):
                child = nodes[level_start[level] + group]
                child.parent = level_start[level + 1] + group // degree
        leaf_of = [level_start[0] + cpu // degree for cpu in range(self.num_cpus)]
        root = nodes[level_start[-1]]
        observation = BarrierObservation(
            section_name=section_name,
            variable_address=nodes[leaf_of[0]].variable_address,
            flag_address=root.flag_address,
        )
        return _BarrierTree(nodes, leaf_of, observation)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 5_000_000) -> ScheduledTrace:
        """Execute the program; returns the multiprocessor trace.

        Raises RuntimeError if the program does not finish within
        ``max_cycles`` (a safety net against mis-specified programs).

        Each cycle steps the active processors in cpu order, and each
        issues at most one reference.  Fetch&adds are granted at most
        once per variable per cycle, so ties go to the lowest-numbered
        contender — a deterministic stand-in for the unspecified
        arbitration of the paper's network model; a denied processor
        stalls and retries next cycle.
        """
        program = self.program
        num_cpus = self.num_cpus
        trace = ScheduledTrace(num_cpus, program.name)
        sections = program.sections
        # Trace columns, appended to directly (op codes 0 READ, 1 WRITE,
        # 2 RMW, see ScheduledTrace).
        put_cpu = trace._cpus.append
        put_op = trace._ops.append
        put_address = trace._addresses.append
        put_sync = trace._sync.append
        read, write = Op.READ, Op.WRITE

        state = [0] * num_cpus
        section_idx = [0] * num_cpus
        body: List[Optional[List[Tuple[Op, int]]]] = [None] * num_cpus
        body_pos = [0] * num_cpus
        bar_node = [0] * num_cpus  # current barrier-tree node per cpu
        done = [False] * num_cpus
        # A section's shared state is made when a processor first steps
        # in it; that order fixes sync addresses and barrier order.
        runtimes: List[Optional[_SectionRuntime]] = [None] * len(sections)
        is_loop = [isinstance(section, ParallelLoop) for section in sections]
        last_grant = self._rmw_last_grant
        stalls = 0
        active = num_cpus

        def runtime_for(idx: int) -> _SectionRuntime:
            section = sections[idx]
            if isinstance(section, (ParallelLoop, SerialSection)):
                kind = "index" if is_loop[idx] else "ticket"
                index_address = self._sync_addr_for(idx, kind)
                tree = self._build_barrier_tree(section.name)
                trace.barriers.append(tree.observation)
                runtime = _SectionRuntime(index_address, tree)
            else:
                runtime = _SectionRuntime(index_address=0, tree=None)
            runtimes[idx] = runtime
            return runtime

        def enter_section(cpu: int, idx: int) -> None:
            nonlocal active
            if idx >= len(sections):
                done[cpu] = True
                active -= 1
                return
            section_idx[cpu] = idx
            section = sections[idx]
            if is_loop[idx]:
                state[cpu] = _FETCH
            elif isinstance(section, SerialSection):
                state[cpu] = _TICKET
            else:  # ReplicateSection
                refs = list(section.body_for(cpu))
                if refs:
                    body[cpu] = refs
                    body_pos[cpu] = 0
                    state[cpu] = _BODY
                else:
                    enter_section(cpu, idx + 1)

        for cpu in range(num_cpus):
            enter_section(cpu, 0)

        tracer = get_tracer()
        trace_on = tracer.enabled
        cpu_ids = range(num_cpus)

        cycle = 0
        while active:
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"program {program.name!r} exceeded {max_cycles} cycles "
                    f"({active} processors still active)"
                )
            for cpu in cpu_ids:
                if done[cpu]:
                    continue
                idx = section_idx[cpu]
                runtime = runtimes[idx]
                if runtime is None:
                    runtime = runtime_for(idx)
                current = state[cpu]

                if current == _BODY or current == _SERIAL_BODY:
                    refs = body[cpu]
                    pos = body_pos[cpu]
                    op, address = refs[pos]
                    put_cpu(cpu)
                    put_op(0 if op is read else 1 if op is write else 2)
                    put_address(address)
                    put_sync(False)
                    pos += 1
                    body_pos[cpu] = pos
                    if pos >= len(refs):
                        body[cpu] = None
                        if current == _SERIAL_BODY:
                            tree = runtime.tree
                            bar_node[cpu] = tree.leaf_of[cpu]
                            state[cpu] = _BAR_INC
                        elif is_loop[idx]:
                            state[cpu] = _FETCH
                        else:  # replicate section body finished
                            enter_section(cpu, idx + 1)
                    continue

                if current == _FETCH or current == _TICKET:
                    address = runtime.index_address
                    if last_grant.get(address) == cycle:
                        stalls += 1  # lost the atomic; retry next cycle
                        continue
                    last_grant[address] = cycle
                    put_cpu(cpu)
                    put_op(2)
                    put_address(address)
                    put_sync(True)
                    claimed = runtime.counter
                    runtime.counter += 1
                    section = sections[idx]
                    if current == _FETCH:
                        if claimed < section.iterations:
                            refs = list(section.refs_for(claimed))
                            if refs:
                                body[cpu] = refs
                                body_pos[cpu] = 0
                                state[cpu] = _BODY
                            # An empty body loops straight back to _FETCH.
                            continue
                    elif claimed == 0:  # the serial section's one runner
                        body[cpu] = list(section.body)
                        body_pos[cpu] = 0
                        state[cpu] = _SERIAL_BODY
                        continue
                    bar_node[cpu] = runtime.tree.leaf_of[cpu]
                    state[cpu] = _BAR_INC
                    continue

                tree = runtime.tree
                node_id = bar_node[cpu]
                node = tree.nodes[node_id]
                observation = tree.observation

                if current == _POLL:
                    put_cpu(cpu)
                    put_op(0)
                    put_address(node.flag_address)
                    put_sync(True)
                    if observation.first_poll_cycle is None:
                        observation.first_poll_cycle = cycle
                    released = node.flag_set_cycle
                    if released is not None and released < cycle:
                        if node_id == tree.leaf_of[cpu]:
                            enter_section(cpu, idx + 1)
                        else:
                            # A winner at an interior node: release the
                            # child it ascended from.
                            bar_node[cpu] = tree.child_toward(node_id, cpu)
                            state[cpu] = _SET_FLAG
                    continue

                if current == _BAR_INC:
                    address = node.variable_address
                    if last_grant.get(address) == cycle:
                        stalls += 1  # lost the atomic; retry next cycle
                        continue
                    last_grant[address] = cycle
                    put_cpu(cpu)
                    put_op(2)
                    put_address(address)
                    put_sync(True)
                    if node_id == tree.leaf_of[cpu]:
                        observation.arrivals.append((cpu, cycle))
                    node.count += 1
                    if node.count == node.expected:
                        if node.parent is None:
                            state[cpu] = _SET_FLAG  # release the root
                        else:
                            bar_node[cpu] = node.parent  # ascend
                    else:
                        state[cpu] = _POLL
                    continue

                if current == _SET_FLAG:
                    put_cpu(cpu)
                    put_op(1)
                    put_address(node.flag_address)
                    put_sync(True)
                    node.flag_set_cycle = cycle
                    if node.parent is None:
                        observation.flag_set_cycle = cycle
                    if node_id == tree.leaf_of[cpu]:
                        enter_section(cpu, idx + 1)
                    else:
                        bar_node[cpu] = tree.child_toward(node_id, cpu)
                    continue

                raise AssertionError(f"unknown scheduler state {current}")
            cycle += 1
            if trace_on and cycle % self.PROGRESS_INTERVAL == 0:
                tracer.emit(
                    "sched.progress",
                    cycle=cycle,
                    active=active,
                    refs=len(trace),
                    barriers=len(trace.barriers),
                )
        trace.cycles = cycle
        trace.sync_refs = len(trace) - trace._sync.count(False)
        self._rmw_stalls = stalls
        if trace_on:
            self._publish(tracer, trace)
        return trace

    def _publish(self, tracer, trace: ScheduledTrace) -> None:
        """Report the finished schedule to the active tracer."""
        tracer.count("sched.runs")
        tracer.count("sched.cycles", trace.cycles)
        tracer.count("sched.refs", len(trace))
        tracer.count("sched.sync_refs", trace.sync_refs)
        tracer.count("sched.rmw_stalls", self._rmw_stalls)
        tracer.count("sched.barriers", len(trace.barriers))
        issued: Dict[int, int] = {}
        for cpu in trace.raw_columns()[0]:
            issued[cpu] = issued.get(cpu, 0) + 1
        for cpu in range(self.num_cpus):
            tracer.observe("sched.refs_per_cpu", issued.get(cpu, 0))
        for observation in trace.barriers:
            if observation.flag_set_cycle is None or not observation.arrivals:
                continue
            tracer.observe("sched.barrier_interval_a", observation.interval_a)
            tracer.observe("sched.barrier_arrival_span", observation.arrival_span)
            tracer.emit(
                "sched.barrier",
                section=observation.section_name,
                arrivals=len(observation.arrivals),
                first_arrival=observation.first_arrival,
                last_arrival=observation.last_arrival,
                flag_set=observation.flag_set_cycle,
                interval_a=observation.interval_a,
            )
        tracer.emit(
            "sched.run",
            program=trace.program_name,
            cpus=self.num_cpus,
            barrier_style=self.barrier_style,
            cycles=trace.cycles,
            refs=len(trace),
            sync_refs=trace.sync_refs,
            rmw_stalls=self._rmw_stalls,
            barriers=len(trace.barriers),
        )
