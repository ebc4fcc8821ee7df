"""Differential oracles: metamorphic relations on backoff policies.

Transformations of a policy or a configuration with a known effect:
zero backoff degenerates to the base polling loop bit-for-bit; traffic
predictions and simulated A=0 traffic are monotone in N; exponential
waits are monotone in base and cap; and flag backoff saves traffic
when A >> N.
"""

from __future__ import annotations

from repro.barrier.models import model1_accesses, model2_accesses
from repro.barrier.simulator import build_simulator, simulate_barrier
from repro.check.runner import CheckContext, CheckFailure, check
from repro.core.backoff import (
    ExponentialFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.sim.rng import spawn_stream


@check("differential")
def metamorphic_zero_backoff(ctx: CheckContext) -> int:
    """Zero-amount backoff is bit-identical to the base polling loop.

    ``VariableBackoff(multiplier=0, offset=0)`` waits zero cycles
    everywhere, exactly like ``NoBackoff``; episodes simulated with
    identical seeds must match in every per-process field.
    """
    rng = ctx.rng("metamorphic-zero-backoff")
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        n = int(rng.integers(2, 33))
        interval_a = int(rng.integers(0, 501))
        seed = int(rng.integers(0, 2**32))
        single = bool(rng.integers(0, 2))
        results = []
        for policy in (NoBackoff(), VariableBackoff(multiplier=0, offset=0)):
            simulator = build_simulator(
                n, interval_a, policy, seed=seed, single_variable=single
            )
            results.append(
                simulator.run_once(spawn_stream(seed, "barrier-rep-0"))
            )
        base, degenerate = results
        same = (
            base.accesses_per_process == degenerate.accesses_per_process
            and base.waiting_times == degenerate.waiting_times
            and base.completion_time == degenerate.completion_time
            and base.flag_set_time == degenerate.flag_set_time
        )
        if not same:
            raise CheckFailure(
                f"zero backoff diverged from base polling at N={n}, "
                f"A={interval_a}, seed={seed}, single_variable={single}: "
                f"accesses {base.accesses_per_process} vs "
                f"{degenerate.accesses_per_process}"
            )
        cases += 1
    return cases


@check("differential")
def metamorphic_monotonicity(ctx: CheckContext) -> int:
    """Monotone relations in N and in the backoff bound.

    More processors can never predict less traffic (Models 1-2 are
    monotone in N; the A=0 deterministic simulation agrees); an
    exponential flag wait is monotone in base and cap; and flag backoff
    saves traffic vs no backoff in the A >> N regime where the paper
    claims the largest wins.  (Monotone in polls and bounded by the
    cap: ``tests/test_properties.py``.)
    """
    rng = ctx.rng("metamorphic-monotonicity")
    cases = 0
    for __ in range(ctx.budget.cases):
        # -- analytic monotonicity in N.
        interval_a = int(rng.integers(0, 2001))
        smaller = int(rng.integers(1, 128))
        larger = smaller + int(rng.integers(1, 65))
        for model, label in (
            (model1_accesses, "Model 1"),
            (lambda n: model2_accesses(n, interval_a), "Model 2"),
        ):
            if model(larger) < model(smaller):
                raise CheckFailure(
                    f"{label} not monotone in N: f({smaller})="
                    f"{model(smaller):.2f} > f({larger})={model(larger):.2f} "
                    f"at A={interval_a}"
                )
        # -- simulated monotonicity at A=0 (deterministic).
        small_sim = simulate_barrier(smaller % 48 + 2, 0, NoBackoff(),
                                     repetitions=1)
        large_sim = simulate_barrier(smaller % 48 + 2 + 8, 0, NoBackoff(),
                                     repetitions=1)
        if large_sim.mean_accesses < small_sim.mean_accesses:
            raise CheckFailure(
                "simulated A=0 traffic decreased when N grew: "
                f"N={smaller % 48 + 2} -> {small_sim.mean_accesses:.2f}, "
                f"N={smaller % 48 + 10} -> {large_sim.mean_accesses:.2f}"
            )
        # -- exponential wait monotone in base and cap.
        base = int(rng.choice([2, 4, 8]))
        cap = int(rng.integers(4, 1 << 12))
        policy = ExponentialFlagBackoff(base=base, cap=cap)
        wider = ExponentialFlagBackoff(base=base, cap=2 * cap)
        steeper = ExponentialFlagBackoff(base=2 * base, cap=cap)
        for polls in range(1, 20):
            wait = policy.flag_wait(polls)
            if wider.flag_wait(polls) < wait:
                raise CheckFailure(
                    f"raising the cap lowered the wait at base={base}, "
                    f"polls={polls}"
                )
            if steeper.flag_wait(polls) < wait:
                raise CheckFailure(
                    f"raising the base lowered the wait at cap={cap}, "
                    f"polls={polls}"
                )
        # -- backoff saves traffic in the A >> N regime.
        n = int(rng.integers(16, 65))
        interval_a = int(rng.integers(1000, 3001))
        seed = int(rng.integers(0, 2**32))
        baseline = simulate_barrier(
            n, interval_a, NoBackoff(),
            repetitions=ctx.budget.repetitions, seed=seed,
        )
        backed_off = simulate_barrier(
            n, interval_a, ExponentialFlagBackoff(base=2),
            repetitions=ctx.budget.repetitions, seed=seed,
        )
        if backed_off.mean_accesses >= baseline.mean_accesses:
            raise CheckFailure(
                f"base-2 flag backoff saved nothing at N={n}, "
                f"A={interval_a}, seed={seed}: "
                f"{backed_off.mean_accesses:.2f} vs baseline "
                f"{baseline.mean_accesses:.2f}"
            )
        cases += 1
    return cases
