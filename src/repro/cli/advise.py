"""``advise``: recommend a backoff policy from an application profile."""

from __future__ import annotations

from repro.cli.common import repetitions_arg, seed_arg


def add_parser(sub) -> None:
    p = sub.add_parser("advise",
                       help="recommend a backoff policy from a profile")
    p.add_argument("--app", choices=("FFT", "SIMPLE", "WEATHER"),
                   default="SIMPLE")
    p.add_argument("--cpus", type=int, default=64)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--waiting-weight", type=float, default=0.1)
    p.add_argument("--repetitions", type=repetitions_arg, default=30)
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--no-simulate", action="store_true",
                   help="skip the empirical ranking")
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    from repro.core.selection import PolicyAdvisor, SynchronizationProfile
    from repro.trace.apps import build_app
    from repro.trace.scheduler import PostMortemScheduler

    program = build_app(args.app, scale=args.scale)
    trace = PostMortemScheduler(program, args.cpus).run()
    profile = SynchronizationProfile.from_trace(trace)
    advisor = PolicyAdvisor(waiting_weight=args.waiting_weight)
    print(f"profile: N={profile.num_processors}, A~{profile.interval_a:.0f}, "
          f"A/N={profile.spread_ratio:.2f}")
    print(f"analytic   : {advisor.recommend(profile)}")
    if not args.no_simulate:
        recommendation = advisor.select(
            profile, repetitions=args.repetitions, seed=args.seed
        )
        print(f"empirical  : {recommendation}")
    return 0
