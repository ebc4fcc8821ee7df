"""``barrier``: simulate one barrier configuration."""

from __future__ import annotations

from repro.cli.common import (
    add_backend_arg,
    build_policy,
    int_arg,
    repetitions_arg,
    seed_arg,
)


def add_parser(sub) -> None:
    p = sub.add_parser("barrier", help="simulate one barrier configuration")
    p.add_argument("--n", type=int_arg("n", 1), default=64,
                   help="processors")
    p.add_argument("--interval-a", type=int_arg("interval-a", 0),
                   default=1000, help="arrival interval A")
    p.add_argument(
        "--policy",
        choices=("none", "variable", "linear", "exponential"),
        default="exponential",
    )
    p.add_argument("--base", type=int, default=2, help="exponential base")
    p.add_argument("--step", type=int, default=1, help="linear step")
    p.add_argument("--repetitions", type=repetitions_arg, default=100)
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--barrier-style", choices=("flat", "tree"),
                   default="flat",
                   help="flat Tang-Yew barrier or a combining tree")
    p.add_argument("--degree", type=int, default=4,
                   help="combining-tree fan-in (with --barrier-style tree)")
    add_backend_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    if args.barrier_style == "tree":
        from repro.barrier.tree import simulate_tree_barrier

        policy = build_policy(args.policy, args.base, args.step)
        aggregate = simulate_tree_barrier(
            args.n, args.interval_a, degree=args.degree, policy=policy,
            repetitions=args.repetitions, seed=args.seed,
        )
        print(
            f"N={args.n} A={args.interval_a} policy={args.policy} "
            f"tree degree={args.degree} (reps={aggregate.repetitions})"
        )
        print(f"  accesses/process : {aggregate.mean_accesses:.2f}")
        print(f"  waiting cycles   : {aggregate.mean_waiting_time:.2f}")
        print(f"  relative sigma   : {aggregate.relative_stddev_accesses:.3f}")
        return 0
    from repro.barrier.simulator import simulate_barrier

    policy = build_policy(args.policy, args.base, args.step)
    aggregate = simulate_barrier(
        args.n, args.interval_a, policy, repetitions=args.repetitions,
        seed=args.seed,
    )
    print(
        f"N={args.n} A={args.interval_a} policy={args.policy} "
        f"(reps={aggregate.repetitions})"
    )
    print(f"  accesses/process : {aggregate.mean_accesses:.2f}")
    print(f"  waiting cycles   : {aggregate.mean_waiting_time:.2f}")
    print(f"  relative sigma   : {aggregate.relative_stddev_accesses:.3f}")
    return 0
