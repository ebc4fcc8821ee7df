"""Vectorized episode kernel: all episodes of a shard as numpy arrays.

The reference event loop (:meth:`repro.barrier.simulator
.BarrierSimulator.run_once`) pops one ``(time, seq, cpu, kind)`` event
at a time off a heap.  This kernel reproduces the *same* pop order —
and therefore bit-identical episode summaries — while processing whole
batches of events across every episode of a shard at once:

**Batched draws and episode dedup.**  Uniform arrival draws happen
directly in numpy — the same generator stream and the same
``integers`` call as the event loop, sorted as an array — and because
an episode summary is a pure function of its arrival vector (each
repetition's stream is spent on the draw), duplicate arrival rows
simulate once and fan back out, collapsing e.g. every ``A == 0``
repetition to a single row.

**Variable phase, closed form.**  Arrival processes draw sorted times,
so the barrier-variable events pop in arrival order and the variable
module's grants collapse to a prefix recurrence: with sorted arrivals
``a_i`` the i-th grant is ``g_i = i + max_{j<=i}(a_j - j)`` (a running
maximum), the fetch&add cost is ``g_i - a_i + 1``, the i-th arrival
reads value ``i + 1``, and the last arrival's flag write is presented
at ``g_{n-1} + 1``.

**Flag phase, closed form (unit waits).**  For the no-backoff regime —
every retry wait exactly one cycle, no degraded-mode bounds, strictly
increasing first polls all before the write — the whole flag phase
also collapses: the module serves one request per cycle from the
first poll to the last release, so total cost, the flag-set time, and
every per-poller wait follow from the first-service cycles alone (see
:func:`_unit_wait_closed_form`).  This covers the paper's figure-4
family without running any rounds; everything below is the general
path.

**Flag phase, guarded batches.**  Each processor owns at most one
pending flag event, so an episode's pending set fits one array row,
kept sorted by ``(ready, tie key)`` — the heap's pop order: each round
every row that is out of order gets one full-width stable sort.  Each
round the kernel serves the longest prefix for which no failed poll's
retry would overtake a later pending event (a retry at a strictly
earlier time always pops first; at equal times a pending first poll or
write is deferred one round so the tie resolves through the sort),
computes the batch grants with the same prefix recurrence, and defers
the rest.  Finished rows are compacted out of the working arrays.

**Tie keys.**  The heap breaks time ties by push order (``seq``).  A
pending flag event's seq is determined by its *parent* pop — the
variable event that scheduled the first poll, or the failed poll that
scheduled the retry — so each event carries the parent pop time plus a
packed word ``kind << 41 | is_write << 40 | index`` (variable parents:
arrival slot; flag parents: a per-episode pop counter).  Variable pops
beat flag pops at equal times because their heap seqs (0..n-1) are
smaller than any flag event's, and the write's slot ``n - 1`` is the
largest variable seq, which is exactly what the packed word encodes.

**Dense wait-1 skip.**  One exact fast-forward keeps the rounds few
where the event loop degenerates into thousands of polls: when every
served event is a failing poll with unit retry wait and the batch's
grants are consecutive, the module is saturated and the next rounds
repeat the same round-robin one cycle later each — the kernel jumps
``M`` rounds in closed form, stopping short of the first deferred
event's ready time.

The kernel refuses — :class:`KernelUnsupported`, and the caller falls
back to the reference loop — whenever the configuration's semantics
are owned by that loop: an enabled tracer (per-event emission), an
installed fault plan, the single-variable barrier (variable and flag
share one module, so the closed-form variable phase does not apply),
stateful policies (draw order *is* their semantics), or an arrival
process that returns unsorted times.  ``docs/vectorization.md`` is the
written contract for all of this.
"""

from __future__ import annotations

import math
from typing import List, Optional

try:  # pragma: no cover - exercised via backend.numpy_available()
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.barrier.arrivals import UniformArrivals
from repro.barrier.metrics import EpisodeSummary
from repro.faults.plan import get_fault_plan
from repro.obs.tracer import get_tracer
from repro.sim.rng import derive_seed, spawn_stream

#: Sentinel "time" for departed processors / absent retries; far above
#: any reachable cycle count but with headroom for int64 arithmetic.
_SENTINEL = 1 << 62

#: Waits at or above this bound fall back to the event loop rather than
#: risk int64 overflow in the batched time arithmetic (the built-in
#: policies cap waits at ``1 << 20``).
_MAX_WAIT = 1 << 40

#: Packed tie-word bits: bit 41 = flag-pop parent (heap seqs above all
#: variable pops), bit 40 = the flag write (slot n-1, the largest
#: variable seq), low bits = parent pop index.
_KIND_BIT = 1 << 41
_WRITE_BIT = 1 << 40

#: Caps on one dense skip (rounds) and on the wait table the unit-wait
#: closed form may grow.
_MAX_SKIP = 1 << 20
_TABLE_CAP = 1 << 20


class KernelUnsupported(Exception):
    """The configuration's semantics require the reference event loop."""


def unsupported_reason(simulator) -> Optional[str]:
    """Why this simulator cannot run vectorized (None when it can)."""
    if np is None:
        return "numpy is not importable"
    if get_tracer().enabled:
        return "tracing enabled (per-event streams belong to the event loop)"
    if get_fault_plan() is not None:
        return "fault plan installed (plans are episode-ordered)"
    if not simulator.barrier.separate_modules:
        return "single-variable barrier (variable and flag share a module)"
    if getattr(simulator.barrier.backoff, "stateful", False):
        return "stateful policy (draw order is part of its semantics)"
    return None


class _FlagWaitTable:
    """Memoized ``max(policy.flag_wait(k), 1)`` lookups as an array.

    Alongside the raw table it maintains the length of the leading
    all-ones prefix (eligibility for the unit-wait closed form and the
    dense wait-1 skip).
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self._values = [0]  # index 0 unused: polls are counted from 1
        self._ones = 0
        self._ones_capped = False
        self._array = None

    def ensure(self, polls: int) -> None:
        if self._array is not None and polls < len(self._values):
            return
        while len(self._values) <= polls:
            wait = max(self._policy.flag_wait(len(self._values)), 1)
            if wait >= _MAX_WAIT:
                raise KernelUnsupported(
                    f"flag wait {wait} exceeds the vectorized bound"
                )
            self._values.append(wait)
        self._array = np.asarray(self._values, dtype=np.int64)
        while not self._ones_capped and self._ones + 1 < len(self._values):
            if self._values[self._ones + 1] != 1:
                self._ones_capped = True
            else:
                self._ones += 1

    def ensure_ones(self, target: int) -> None:
        """Extend until the all-ones prefix covers ``target`` (or caps)."""
        while not self._ones_capped and self._ones < target:
            self.ensure(min(max(2 * len(self._values), 64), target + 1))

    @property
    def array(self):
        return self._array

    @property
    def ones_prefix(self) -> int:
        return self._ones


def shard_summaries(
    simulator, rep_start: int, rep_stop: int
) -> List[EpisodeSummary]:
    """Simulate repetitions ``[rep_start, rep_stop)`` as one batch.

    Bit-identical to ``[EpisodeSummary.from_run(simulator.run_once(...))
    for each rep]`` for every configuration it accepts; raises
    :class:`KernelUnsupported` otherwise.
    """
    reason = unsupported_reason(simulator)
    if reason is not None:
        raise KernelUnsupported(reason)

    n = simulator.barrier.num_processors
    policy = simulator.barrier.backoff
    poll_budget = simulator.barrier.poll_budget
    timeout_cycles = simulator.barrier.timeout_cycles
    bounds_active = poll_budget is not None or timeout_cycles is not None
    episodes = range(rep_start, rep_stop)
    total_rows = len(episodes)
    if total_rows == 0:
        return []

    # Arrival draws are value-equal to the event loop's: each repetition
    # draws from its own derived stream (``barrier-rep-<rep>``), and that
    # stream serves no other purpose, so only the drawn values matter.
    # The uniform process is drawn directly — the same Generator stream
    # (``Generator(PCG64(seed))`` and ``default_rng(seed)`` are the same
    # construction) and the same ``integers`` call, sorted in numpy
    # instead of Python — and an A == 0 draw is ``[0] * n`` with no
    # randomness at all.  Other processes go through their own ``draw``.
    if isinstance(simulator.arrivals, UniformArrivals):
        interval = simulator.arrivals.interval
        arrivals = np.zeros((total_rows, n), dtype=np.int64)
        if interval:
            for i, rep in enumerate(episodes):
                rng = np.random.Generator(np.random.PCG64(
                    derive_seed(simulator.seed, f"barrier-rep-{rep}")
                ))
                arrivals[i] = rng.integers(0, interval + 1, size=n)
            arrivals.sort(axis=1)
    else:
        drawn = []
        for rep in episodes:
            rng = spawn_stream(simulator.seed, f"barrier-rep-{rep}")
            drawn.append(
                [int(when) for when in simulator.arrivals.draw(n, rng)]
            )
        arrivals = np.asarray(drawn, dtype=np.int64)
        if n > 1 and bool(np.any(arrivals[:, 1:] < arrivals[:, :-1])):
            raise KernelUnsupported("arrival process returned unsorted times")

    # An episode summary is a pure function of the arrival vector (the
    # per-rep stream is spent on the draw), so duplicate rows — every
    # row when A == 0 — simulate once and fan back out at the end.
    # The unique pass itself costs a few ms on a paper-scale shard, so
    # only look for duplicates where they are plausible: a degenerate
    # draw (every row identical, e.g. A == 0 or fixed arrivals) found
    # by a cheap comparison, or a draw space small enough
    # ((A + 1) ** n below ~2^40) for birthday collisions to matter.
    row_of = None
    if total_rows > 1:
        if not bool(np.any(arrivals[1:] != arrivals[:1])):
            arrivals = arrivals[:1]
            row_of = np.zeros(total_rows, dtype=np.intp)
        elif n * math.log2(float(arrivals.max()) + 2.0) < 40.0:
            uniq, inverse = np.unique(arrivals, axis=0, return_inverse=True)
            if uniq.shape[0] < total_rows:
                arrivals = uniq
                row_of = inverse.reshape(-1)
    work_rows = arrivals.shape[0]

    # Per-slot first-poll waits: slot i (the i-th arrival) reads value
    # i + 1, and waits max(variable_wait(i + 1, n), 1) before poll 1.
    wait_var = np.asarray(
        [max(policy.variable_wait(i + 1, n), 1) for i in range(max(n - 1, 0))],
        dtype=np.int64,
    )
    if wait_var.size and int(wait_var.max()) >= _MAX_WAIT:
        raise KernelUnsupported("variable wait exceeds the vectorized bound")
    flag_waits = _FlagWaitTable(policy)
    flag_waits.ensure(1)

    pos = np.arange(n, dtype=np.int64)
    # Variable phase (closed form, see module docstring).
    grant_var = pos + np.maximum.accumulate(arrivals - pos, axis=1)
    acc_total = (grant_var - arrivals + 1).sum(axis=1)

    # Unbounded unit-wait configurations (no-backoff polling) admit a
    # closed form for the whole flag phase — no rounds at all.
    if not bounds_active and n >= 2:
        fast = _unit_wait_closed_form(
            n, grant_var, arrivals, wait_var, acc_total, flag_waits
        )
        if fast is not None:
            acc_fast, waiting_fast = fast
            return _assemble(
                n,
                total_rows,
                row_of,
                acc_fast,
                waiting_fast,
                np.zeros(work_rows, dtype=np.int64),
            )

    # Pending flag event per slot.  Slot n-1 is the last arrival: its
    # pending event is the flag *write*, presented one cycle after its
    # fetch&add grant.  From here on the rows are event lists in pop
    # order, permuted in place whenever an update disturbs a row.
    ready = np.empty((work_rows, n), dtype=np.int64)
    if n > 1:
        ready[:, : n - 1] = grant_var[:, : n - 1] + wait_var[None, :]
    ready[:, n - 1] = grant_var[:, n - 1] + 1
    tie_time = arrivals.copy()  # parent pop time (var events: arrival)
    tie_word = np.broadcast_to(pos, (work_rows, n)).copy()
    tie_word[:, n - 1] += _WRITE_BIT
    polls = np.zeros((work_rows, n), dtype=np.int32)
    arr_ev = arrivals  # permuted alongside the events from here on

    flag_next_free = np.zeros(work_rows, dtype=np.int64)
    flag_set = np.full(work_rows, _SENTINEL, dtype=np.int64)  # unset
    flag_pops = np.zeros(work_rows, dtype=np.int64)
    timed_out = np.zeros(work_rows, dtype=np.int64)
    waiting_work = np.zeros((work_rows, n), dtype=np.int64)
    wait_fill = np.zeros(work_rows, dtype=np.int64)
    episode_id = np.arange(work_rows)

    # Finished rows drain into fixed buffers indexed by episode id, so
    # the working arrays can be compacted as episodes complete.
    acc_final = np.zeros(work_rows, dtype=np.int64)
    timeout_final = np.zeros(work_rows, dtype=np.int64)
    waiting_final = np.zeros((work_rows, n), dtype=np.int64)

    def finalize(mask) -> None:
        ids = episode_id[mask]
        acc_final[ids] = acc_total[mask]
        timeout_final[ids] = timed_out[mask]
        waiting_final[ids] = waiting_work[mask]

    while True:
        rows = ready.shape[0]
        row_ix = np.arange(rows)

        # -- sort maintenance: each out-of-order row (a descending pair,
        # or a live tie whose tie keys may be out of order) gets one
        # stable full-width lexsort over (ready, parent time, tie word)
        # — the heap's exact pop order, so ties need no separate repair
        # pass.
        if n > 1:
            left = ready[:, :-1]
            right = ready[:, 1:]
            dirty = (
                (right < left) | ((right == left) & (right < _SENTINEL))
            ).any(axis=1)
            if bool(dirty.any()):
                ids = np.nonzero(dirty)[0]
                order = np.lexsort(
                    (tie_word[ids], tie_time[ids], ready[ids]), axis=1
                )
                for arr in (ready, tie_time, tie_word, polls, arr_ev):
                    arr[ids] = np.take_along_axis(arr[ids], order, axis=1)

        r = ready  # this round's readies; `ready` is rebound below
        act = r < _SENTINEL
        # Module grants: prefix recurrence with the carried next_free.
        g = np.maximum(
            pos + np.maximum.accumulate(r - pos, axis=1),
            flag_next_free[:, None] + pos,
        )

        is_w = ((tie_word & _WRITE_BIT) != 0) & act
        # Polls at batch positions after the write see the flag set at
        # its grant; grants strictly increase, so they all release.
        after_w = np.logical_or.accumulate(is_w, axis=1)
        released = act & ~is_w & (after_w | (g > flag_set[:, None]))
        fail = act & ~is_w & ~released
        polls_new = polls + fail
        if bounds_active:
            give_up = np.zeros_like(fail)
            if poll_budget is not None:
                give_up |= fail & (polls_new >= poll_budget)
            if timeout_cycles is not None:
                give_up |= fail & (g - arr_ev >= timeout_cycles)
            retrying = fail & ~give_up
        else:
            retrying = fail

        flag_waits.ensure(int(polls_new.max()))
        retry_at = np.where(
            retrying, g + flag_waits.array[polls_new], _SENTINEL
        )

        # The batch is valid up to the first pending event that a retry
        # generated before it would overtake.  A retry at a strictly
        # earlier time always pops first.  At *equal* times the heap
        # seq decides: pending retries were pushed in an earlier round
        # and keep their place, but a pending first poll or write was
        # pushed by a *variable* pop that may postdate the retry's
        # parent — defer it conservatively; the next round's sort
        # orders the tie exactly.
        earliest = np.empty_like(retry_at)
        earliest[:, 0] = _SENTINEL
        if n > 1:
            np.minimum.accumulate(
                retry_at[:, :-1], axis=1, out=earliest[:, 1:]
            )
        from_var_pop = (tie_word & _KIND_BIT) == 0
        violated = (r > earliest) | ((r == earliest) & from_var_pop)
        has_violation = violated.any(axis=1)
        batch_len = np.where(has_violation, np.argmax(violated, axis=1), n)
        serve = act & (pos < batch_len[:, None])
        done = serve & ~retrying  # released, timed out, or the write

        acc_total += np.sum(g - r + 1, axis=1, where=serve)
        if bounds_active:
            timed_out += np.sum(serve & give_up, axis=1)
        if bool(done.any()):
            ranks = np.cumsum(done, axis=1)
            d_row, d_col = np.nonzero(done)
            slot = wait_fill[d_row] + ranks[d_row, d_col] - 1
            waiting_work[d_row, slot] = (
                g[d_row, d_col] - arr_ev[d_row, d_col]
            )
            wait_fill += done.sum(axis=1)

        served_counts = serve.sum(axis=1)
        any_served = served_counts > 0
        last_grant = g[row_ix, np.maximum(served_counts - 1, 0)]
        flag_next_free = np.where(
            any_served, last_grant + 1, flag_next_free
        )
        write_served = is_w & serve
        ws_rows = write_served.any(axis=1)
        if bool(ws_rows.any()):
            g_w = np.max(np.where(write_served, g, -1), axis=1)
            flag_set = np.where(ws_rows, g_w, flag_set)

        # Served events sit at positions 0..count-1, so the per-episode
        # pop counter plus the position is the parent pop index.
        served_retry = serve & retrying
        ready = np.where(served_retry, retry_at, np.where(done, _SENTINEL, r))
        tie_time = np.where(served_retry, r, tie_time)
        tie_word = np.where(
            served_retry, _KIND_BIT + flag_pops[:, None] + pos, tie_word
        )
        polls = np.where(serve, polls_new, polls)
        flag_pops = flag_pops + served_counts

        if not bounds_active:
            # -- dense wait-1 skip (see module docstring).  Applies to
            # rows where the whole batch failed with unit retry waits
            # into a saturated module: the next rounds are the same
            # round-robin shifted one cycle, so jump M of them, staying
            # strictly clear of the first deferred event at r_next.
            cand = (flag_set == _SENTINEL) & any_served
            cand &= batch_len < n
            if bool(cand.any()):
                g_first = g[:, 0]
                r_next = r[row_ix, np.minimum(batch_len, n - 1)]
                cand &= (last_grant - g_first) == (served_counts - 1)
                cand &= r_next < _SENTINEL
            if bool(cand.any()):
                k = np.maximum(served_counts, 1)
                skips = np.clip(
                    (r_next - last_grant - 2) // k, 0, _MAX_SKIP
                )
                max_polls = np.max(
                    polls_new, axis=1, where=serve, initial=0
                ).astype(np.int64)
                need = int(np.max(np.where(cand, max_polls + skips, 0)))
                flag_waits.ensure_ones(need)
                skips = np.minimum(
                    skips, flag_waits.ones_prefix - max_polls
                )
                cand &= skips >= 1
                if bool(cand.any()):
                    jump = np.where(cand, skips * k, 0)
                    batch = cand[:, None] & serve
                    ready = np.where(batch, ready + jump[:, None], ready)
                    tie_time = np.where(
                        batch, ready - k[:, None], tie_time
                    )
                    tie_word = np.where(
                        batch, tie_word + jump[:, None], tie_word
                    )
                    polls = np.where(
                        batch,
                        polls
                        + np.where(cand, skips, 0).astype(np.int32)[:, None],
                        polls,
                    )
                    acc_total += jump * k
                    flag_next_free = flag_next_free + jump
                    flag_pops = flag_pops + jump

        complete = wait_fill >= n
        finished = int(complete.sum())
        if finished == rows:
            finalize(complete)
            break
        if finished and rows >= 16 and (rows - finished) * 8 < rows * 5:
            finalize(complete)
            keep = ~complete
            ready = ready[keep]
            tie_time = tie_time[keep]
            tie_word = tie_word[keep]
            polls = polls[keep]
            arr_ev = arr_ev[keep]
            waiting_work = waiting_work[keep]
            wait_fill = wait_fill[keep]
            flag_next_free = flag_next_free[keep]
            flag_set = flag_set[keep]
            flag_pops = flag_pops[keep]
            acc_total = acc_total[keep]
            timed_out = timed_out[keep]
            episode_id = episode_id[keep]

    return _assemble(
        n, total_rows, row_of, acc_final, waiting_final, timeout_final
    )


def _assemble(n, total_rows, row_of, acc_final, waiting_final, timeout_final):
    """Episode summaries from the per-row totals (shared tail).

    Summary floats use the same int/int division the event loop does;
    deduplicated repetitions fan back out through ``row_of``.
    """
    waiting_total = waiting_final.sum(axis=1)
    waiting_sorted = np.sort(waiting_final, axis=1)
    # The exact index arithmetic of BarrierRunResult.waiting_percentile.
    p95_index = min(int(round(95.0 / 100.0 * (n - 1))), n - 1)
    p95 = waiting_sorted[:, p95_index]

    summaries = [
        EpisodeSummary(
            mean_accesses=int(acc_final[e]) / n,
            mean_waiting_time=int(waiting_total[e]) / n,
            waiting_p95=float(int(p95[e])),
            queued_processes=0,
            timed_out=int(timeout_final[e]),
        )
        for e in range(len(acc_final))
    ]
    if row_of is None:
        return summaries
    return [summaries[row_of[e]] for e in range(total_rows)]


def _unit_wait_closed_form(n, grant_var, arrivals, wait_var, acc_var,
                           flag_waits):
    """The flag phase in closed form for unbounded unit-wait polling.

    Applies when every flag retry wait is exactly one cycle (no-backoff
    polling, ``max(flag_wait(k), 1) == 1`` for every reachable k), there
    are no degraded-mode bounds, and each episode's first polls
    ``p_i = g_i + variable_wait`` are strictly increasing and all before
    the write's presentation ``W = g_{n-1} + 1``.  Then:

    - From ``p_0`` on, the flag module serves exactly one request per
      cycle until the last release: a served poller is ready again the
      next cycle, so the module never idles while a poller lives.
    - Poller ``j``'s initial poll is served at ``c_j = b_j - 1 +
      loss_j`` with ``b_0 = p_0 + 1`` and ``b_j = p_j + j``: at cycle
      ``p_j`` exactly ``j`` older instances are pending, ``j - 1`` of
      them strictly earlier and one recirculation tied at ready
      ``p_j``.  The tie breaks on push time — the initial carries its
      variable-pop time ``arrival_j``, the recirculation the ready
      ``r'`` of the event served at cycle ``p_j - 1`` (its parent) —
      so ``loss_j = [arrival_j > r']`` (exact ties go to the initial:
      variable words sort before flag words).
    - The write (ready ``W``, tie key the writer's variable-pop time)
      waits behind ``n - 2`` strictly-earlier recirculations and ties
      with the one created at cycle ``W - 1``:
      ``T_w = W + n - 2 + [r'(W - 1) < arrival_{n-1}]``.
    - Recirculations are consumed in creation order, so the pollers
      pending at ``T_w`` are exactly the ones served at cycles
      ``T_w - n + 1 .. T_w - 1``, with consecutive readies: releases
      land at cycles ``T_w + 1 .. T_w + n - 1`` in that same order.
    - Total flag cost sums in closed form, and per-poller waits need
      only the identity of the poller served at each of those last
      ``n - 1`` pre-write cycles.  That identity follows the recursion
      ``served(c) = served(c - F(c))`` — ``F(c)`` counts first services
      at or before ``c`` — resolved for all targets at once with
      geometric jumps (each iteration either resolves a target or
      crosses one ``F`` level).

    Returns ``(accesses, waits)`` per row, or None when the
    configuration does not qualify (the caller falls back to rounds).
    """
    m = n - 1
    p = grant_var[:, :m] + wait_var[None, :]
    w_ready = grant_var[:, n - 1] + 1
    if n > 2 and not bool(np.all(p[:, 1:] > p[:, :-1])):
        return None
    if not bool(np.all(p[:, m - 1] < w_ready)):
        return None
    p0 = p[:, 0]
    # Every retry wait up to the largest possible poll count must be 1
    # (conservative: the busiest poller is served at most once per cycle
    # from p0 through the last release <= W + 2n - 2).
    bound = int((w_ready + 2 * n - p0).max())
    if bound >= _TABLE_CAP:
        return None
    try:
        flag_waits.ensure_ones(bound)
    except KernelUnsupported:
        return None
    if flag_waits.ones_prefix < bound:
        return None

    rows = grant_var.shape[0]
    row_idx = np.arange(rows)

    # Base service cycles b_j (c_j = b_j - 1 + loss_j) and the tie
    # losses, resolved sequentially over j — loss_j only looks at
    # indices k < j (b_k <= p_j - 1 < b_j) — vectorized over rows via
    # one flat searchsorted per j (rows separated by a stride).
    b = p.copy()
    b[:, 0] += 1
    if m > 1:
        b[:, 1:] += np.arange(1, m, dtype=np.int64)[None, :]
    loss = np.zeros((rows, m), dtype=np.int64)
    stride_b = max(int(b.max()), int(w_ready.max())) + 2
    base_b = row_idx.astype(np.int64) * stride_b
    b_flat = (b + base_b[:, None]).ravel()

    def parent_ready(x):
        # Ready time of the event served at cycle x (per row, x >= p0).
        # If that cycle is a first service c_k, the ready is p_k; else
        # it is a recirculation whose poller was previously served
        # F(x) cycles earlier, so its ready is x - F(x) + 1 with
        # F(x) = #{c_k <= x} = #{b_k <= x} + [b_k == x + 1, loss_k == 0].
        cnt = np.searchsorted(b_flat, x + base_b, side="right") - row_idx * m
        k1 = np.maximum(cnt - 1, 0)
        first1 = (cnt > 0) & (b[row_idx, k1] == x) & (loss[row_idx, k1] == 1)
        k2 = np.minimum(cnt, m - 1)
        first0 = (
            (cnt < m)
            & (b[row_idx, k2] == x + 1)
            & (loss[row_idx, k2] == 0)
        )
        r_prime = x + 1 - (cnt + first0.astype(np.int64))
        r_prime = np.where(first1, p[row_idx, k1], r_prime)
        r_prime = np.where(first0, p[row_idx, k2], r_prime)
        return r_prime

    # Resolve every loss_j at once: the counts and boundary candidates
    # (a b_k equal to p_j - 1 or p_j) never depend on losses, so only
    # pairs with a candidate need its loss value — resolved in rounds,
    # each round settling every pair whose candidates are settled.  The
    # smallest unsettled j always qualifies (candidates sit below j),
    # and in practice chains halve (candidate k has b_k ~ 2k near
    # p_j ~ j), so the rounds are logarithmic, not linear.
    if m > 1:
        rows2 = row_idx[:, None]
        x_all = p[:, 1:] - 1
        cnt = (
            np.searchsorted(
                b_flat, (x_all + base_b[:, None]).ravel(), side="right"
            ).reshape(rows, m - 1)
            - (row_idx * m)[:, None]
        )
        k1 = np.maximum(cnt - 1, 0)
        has1 = (cnt > 0) & (b[rows2, k1] == x_all)
        k2 = np.minimum(cnt, m - 1)
        has2 = (cnt < m) & (b[rows2, k2] == x_all + 1)
        arr_j = arrivals[:, 1:m]
        nodep = ~(has1 | has2)
        loss[:, 1:][nodep] = (arr_j > x_all + 1 - cnt)[nodep]
        settled = np.zeros((rows, m), dtype=bool)
        settled[:, 0] = True
        settled[:, 1:][nodep] = True
        settled_flat = settled.ravel()
        loss_flat = loss.ravel()
        # The unsettled pairs, compressed to flat per-pair arrays so
        # each round costs only the remaining work.
        pr, pc = np.nonzero(~nodep)
        f_tgt = pr * m + pc + 1
        f_k1 = pr * m + k1[pr, pc]
        f_k2 = pr * m + k2[pr, pc]
        f_has1 = has1[pr, pc]
        f_has2 = has2[pr, pc]
        f_base = x_all[pr, pc] + 1 - cnt[pr, pc]
        f_arr = arr_j[pr, pc]
        f_p1 = p[pr, k1[pr, pc]]
        f_p2 = p[pr, k2[pr, pc]]
        while f_tgt.size:
            ready_now = (~f_has1 | settled_flat[f_k1]) & (
                ~f_has2 | settled_flat[f_k2]
            )
            r = np.nonzero(ready_now)[0]
            first1 = f_has1[r] & (loss_flat[f_k1[r]] == 1)
            first0 = f_has2[r] & (loss_flat[f_k2[r]] == 0)
            r_prime = np.where(
                first1,
                f_p1[r],
                np.where(
                    first0,
                    f_p2[r],
                    f_base[r] - first0.astype(np.int64),
                ),
            )
            loss_flat[f_tgt[r]] = f_arr[r] > r_prime
            settled_flat[f_tgt[r]] = True
            keep = ~ready_now
            f_tgt = f_tgt[keep]
            f_k1 = f_k1[keep]
            f_k2 = f_k2[keep]
            f_has1 = f_has1[keep]
            f_has2 = f_has2[keep]
            f_base = f_base[keep]
            f_arr = f_arr[keep]
            f_p1 = f_p1[keep]
            f_p2 = f_p2[keep]

    extra = parent_ready(w_ready - 1) < arrivals[:, n - 1]
    t_w = w_ready + n - 2 + extra.astype(np.int64)

    last = t_w + n - 1  # final release grant
    serves = last - p0 + 1
    sum_grants = (p0 + last) * (last - p0 + 1) // 2
    # Ready times: the first polls, one recirculation per poll-serving
    # cycle (ready c + 1 for c in [p0, t_w - 1]), and the write at W.
    sum_ready = (
        p.sum(axis=1) + (p0 + 1 + t_w) * (t_w - p0) // 2 + w_ready
    )
    accesses = acc_var + sum_grants - sum_ready + serves

    waits = np.empty((rows, n), dtype=np.int64)
    waits[:, n - 1] = t_w - arrivals[:, n - 1]

    # Who is released r-th: the poller served at window cycle
    # T0 + r, T0 = t_w - (n - 1).  Each window cycle serves a distinct
    # poller (their recirculations are the n - 1 instances pending at
    # the write), so a poller whose FIRST service falls in the window
    # places directly at rank c_j - T0.  Every other rank follows the
    # recursion ``served(c) = served(c - F(c))`` — ``F(c)`` counts
    # first services at or before ``c`` — resolved for all remaining
    # targets at once with geometric jumps (each iteration either
    # resolves a target or crosses one ``F`` level).
    arange_m = np.arange(m, dtype=np.int64)
    rows2m = row_idx[:, None]
    c_all = b - 1 + loss  # first-service cycles, strictly increasing
    t0_win = t_w - m
    stride_c = int(t_w.max()) + 2
    base_c = row_idx.astype(np.int64) * stride_c
    c_flat = (c_all + base_c[:, None]).ravel()
    j_lo = (
        np.searchsorted(c_flat, t0_win + base_c, side="left") - row_idx * m
    )
    poller_at = np.empty((rows, m), dtype=np.int64)
    taken = np.zeros((rows, m), dtype=bool)
    rs, js = np.nonzero(arange_m[None, :] >= j_lo[:, None])
    rank_direct = c_all[rs, js] - t0_win[rs]
    taken[rs, rank_direct] = True
    poller_at[rs, rank_direct] = js
    rs2, free_rank = np.nonzero(~taken)
    cycle = t0_win[rs2] + free_rank
    block = rs2 * m
    base_f = base_c[rs2]
    poller = np.empty(rs2.size, dtype=np.int64)
    idx = np.arange(rs2.size)
    while idx.size:
        c = cycle[idx]
        count = (
            np.searchsorted(c_flat, c + base_f[idx], side="right")
            - block[idx]
        )
        c_first = c_flat[block[idx] + count - 1] - base_f[idx]
        done = c == c_first
        if bool(done.any()):
            poller[idx[done]] = count[done] - 1
            keep = ~done
            idx = idx[keep]
            c = c[keep]
            count = count[keep]
            c_first = c_first[keep]
        if idx.size:
            jump = np.maximum(1, (c - c_first) // count)
            cycle[idx] = c - jump * count
    poller_at[rs2, free_rank] = poller
    waits[rows2m, poller_at] = (
        t_w[:, None] + 1 + arange_m[None, :] - arrivals[rows2m, poller_at]
    )
    return accesses, waits
