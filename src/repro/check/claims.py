"""The paper's headline claims: the ``claims`` suite of the check runner.

DESIGN.md lists the claims this reproduction must show.  Each one is a
small, self-contained check that runs the actual simulators (at reduced
but sufficient fidelity) and returns its measured conditions, so a user
can audit the reproduction in one command:

    python -m repro verify

Each claim is seeded and states its provenance (which paper
section/figure it comes from).  Most read one registry experiment's
data at the smallest scale where the paper's shape holds; the
parameters ``REPS`` and ``SEED`` take the run's repetitions and seed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.barrier.models import model1_accesses, model2_accesses
from repro.barrier.simulator import simulate_barrier
from repro.check.runner import (
    Budget,
    CheckContext,
    CheckReport,
    check,
    run_checks,
)
from repro.core.backoff import (
    ExponentialFlagBackoff,
    NoBackoff,
    RandomizedExponentialBackoff,
    VariableBackoff,
)

#: One measured statement and whether it holds.
Condition = Tuple[str, bool]

REPS, SEED = object(), object()


def _check(label: str, value: float, op: str, bound: Any) -> Condition:
    """``value op bound``; ``op`` is ``<``, ``<=``, ``>`` or ``in`` (an
    open ``(low, high)`` interval)."""
    if op == "in":
        low, high = bound
        return f"{label} {value:.3g} in ({low:g}, {high:g})", low < value < high
    ok = {"<": value < bound, "<=": value <= bound, ">": value > bound}[op]
    return f"{label} {value:.3g} {op} {bound:.3g}", ok


def _claim(provenance: str, experiment: str = "", **params: Any):
    """Register the decorated function as a check of the ``claims`` suite.

    The function's name, dashed, is the claim id and its docstring the
    statement.  It returns its conditions, computed from ``experiment``'s
    result data when one is named, else from ``(repetitions, seed)``.
    """

    def register(fn: Callable[..., List[Condition]]):
        def conditions(ctx: CheckContext) -> List[Condition]:
            if not experiment:
                return fn(ctx.budget.repetitions, ctx.seed)
            from repro.registry import run

            kwargs = {
                key: ctx.budget.repetitions if value is REPS
                else ctx.seed if value is SEED else value
                for key, value in params.items()
            }
            return fn(run(experiment, **kwargs).data)

        check(
            "claims",
            fn.__name__.replace("_", "-"),
            statement=" ".join(fn.__doc__.split()),
            provenance=provenance,
        )(conditions)
        return fn

    return register


def _sim(n: int, interval_a: int, policy, repetitions: int, seed: int):
    return simulate_barrier(n, interval_a, policy, repetitions=repetitions, seed=seed)


def _saved(curve: Dict[Any, float], base: Dict[Any, float], n: Any) -> float:
    return 1 - curve[n] / base[n]


_NONE, _VAR = "Without Backoff", "Backoff on Barrier Var."


def _flag(base: int) -> str:
    return f"Base {base} Backoff on Barrier Flag"


# -- the headline claims, on the barrier simulator directly ---------------


@_claim("Figure 5 / Section 6.2")
def variable_20pct(repetitions: int, seed: int) -> List[Condition]:
    """barrier-variable backoff saves ~20% when N >> A"""
    base = _sim(256, 0, NoBackoff(), repetitions, seed)
    var = _sim(256, 0, VariableBackoff(), repetitions, seed)
    return [_check("savings at N=256, A=0", var.savings_vs(base), "in", (0.15, 0.25))]


@_claim("Section 7 (N=64, A=1000)")
def base2_tradeoff(repetitions: int, seed: int) -> List[Condition]:
    """base 2 is the favourable tradeoff (97% savings, ~16% waiting)"""
    base = _sim(64, 1000, NoBackoff(), repetitions, seed)
    b2 = _sim(64, 1000, ExponentialFlagBackoff(2), repetitions, seed)
    return [
        _check("savings", b2.savings_vs(base), ">", 0.9),
        _check("waiting increase", b2.waiting_increase_vs(base), "<", 0.35),
    ]


@_claim("Section 7 / Figure 10")
def base8_overshoot(repetitions: int, seed: int) -> List[Condition]:
    """large bases overshoot the release (paper: +350% waiting)"""
    base = _sim(64, 1000, NoBackoff(), repetitions, seed)
    b8 = _sim(64, 1000, ExponentialFlagBackoff(8), repetitions, seed)
    return [_check("base-8 waiting increase at N=64, A=1000",
                   b8.waiting_increase_vs(base), ">", 2.0)]


@_claim("Section 7 / Figure 10")
def waiting_peak(repetitions: int, seed: int) -> List[Condition]:
    """backoff waiting time peaks near N=64 then declines (A=1000)"""
    waits = {
        n: _sim(n, 1000, ExponentialFlagBackoff(8), repetitions, seed).mean_waiting_time
        for n in (16, 64, 512)
    }
    return [_check("wait N=64", waits[64], ">", waits[16]),
            _check("wait N=512", waits[512], "<", waits[64])]


@_claim("Figure 4 / Section 5.1")
def models_fit(repetitions: int, seed: int) -> List[Condition]:
    """Model 1 fits A<<N and Model 2 fits A>>N"""
    sim_a0 = _sim(128, 0, NoBackoff(), max(repetitions // 4, 2), seed).mean_accesses
    sim_a1000 = _sim(16, 1000, NoBackoff(), repetitions, seed).mean_accesses
    return [
        _check("Model 1 error at N=128",
               abs(sim_a0 - model1_accesses(128)) / model1_accesses(128), "<", 0.05),
        _check("Model 2 error at N=16, A=1000",
               abs(sim_a1000 - model2_accesses(16, 1000)) / model2_accesses(16, 1000),
               "<", 0.08),
    ]


@_claim("Section 4.2")
def determinism(repetitions: int, seed: int) -> List[Condition]:
    """deterministic backoff beats randomized (serialization preserved)"""
    det = _sim(64, 1000, ExponentialFlagBackoff(2), repetitions, seed)
    rnd = _sim(64, 1000, RandomizedExponentialBackoff(2, seed=seed), repetitions, seed)
    return [_check("accesses deterministic vs randomized",
                   det.mean_accesses, "<=", rnd.mean_accesses)]


@_claim("Table 1 / Figure 1", "table1", scale=0.2, num_cpus=16,
        pointers=(2, 16), apps=("SIMPLE",))
def sync_invalidations(data) -> List[Condition]:
    """sync refs invalidate far more than data; full map collapses it"""
    (data2, sync2), (__, full) = data["SIMPLE"][2], data["SIMPLE"][16]
    return [_check("i=2 sync %", sync2, ">", 3 * data2),
            _check("full map sync %", full, "<", sync2 / 3)]


@_claim("Table 2", "table2", scale=0.2, num_cpus=16, pointers=(2,))
def traffic_ordering(data) -> List[Condition]:
    """uncached sync traffic ranks FFT << SIMPLE, WEATHER"""
    return [_check("FFT %", data["FFT"][2], "<", data[app][2])
            for app in ("SIMPLE", "WEATHER")]


# -- the shape of each paper artifact, on its registry experiment ---------


@_claim("Figure 4 / Section 5.1", "figure4", repetitions=100, seed=SEED)
def figure4_models(d) -> List[Condition]:
    """Model 1 fits A=0 at every N, Model 2 fits A=1000 up to N=128, and
    A=0 and A=100 cross between N=8 and N=256"""
    return [
        _check(f"A=0 error vs Model 1 at N={n}", abs(sim - d["model1"][n]), "<=",
               max(0.05 * sim, 2.0))
        for n, sim in d["sim_A0"].items()
    ] + [
        _check(f"A=1000 error vs Model 2 at N={n}",
               abs(sim - d["model2_A1000"][n]), "<=", 0.1 * sim)
        for n, sim in d["sim_A1000"].items() if n <= 128
    ] + [
        _check("N=8: A=0", d["sim_A0"][8], "<", d["sim_A100"][8]),
        _check("N=256: A=100", d["sim_A100"][256], "<", d["sim_A0"][256]),
    ]


@_claim("Figure 5 / Section 6.2", "figure5", repetitions=REPS, seed=SEED,
        n_values=(64,))
def figure5_shape(d) -> List[Condition]:
    """at A=0 variable backoff saves ~20% and flag backoff adds little"""
    return [
        _check("variable savings at N=64", _saved(d[_VAR], d[_NONE], 64), "in",
               (0.15, 0.25)),
        _check("base-8 accesses at N=64", d[_flag(8)][64], ">", 0.9 * d[_VAR][64]),
    ]


@_claim("Figure 6 / Section 6.2", "figure6", repetitions=REPS, seed=SEED,
        n_values=(16, 64, 512))
def figure6_shape(d) -> List[Condition]:
    """at A=100 flag backoff saves >85% at small N and less as N grows"""
    return [
        _check("base-4 savings at N=16", _saved(d[_flag(4)], d[_NONE], 16), ">", 0.85),
        _check("base-8 savings at N=64", _saved(d[_flag(8)], d[_NONE], 64), "in",
               (0.45, 0.9)),
        _check("base-8 savings at N=512", _saved(d[_flag(8)], d[_NONE], 512), "<", 0.5),
    ]


@_claim("Figure 7 / Section 6.2", "figure7", repetitions=REPS, seed=SEED,
        n_values=(16, 64))
def figure7_shape(d) -> List[Condition]:
    """at A=1000 variable backoff alone does nothing at small N, while
    base-2 flag backoff saves >95%"""
    return [
        _check("variable savings at N=16", _saved(d[_VAR], d[_NONE], 16), "<", 0.1),
    ] + [
        _check(f"base-2 savings at N={n}", _saved(d[_flag(2)], d[_NONE], n), ">", 0.95)
        for n in (16, 64)
    ]


@_claim("Figure 8 / Section 7", "figure8", repetitions=REPS, seed=SEED,
        n_values=(16, 64, 256))
def figure8_shape(d) -> List[Condition]:
    """at A=0 the waiting times of all policies nearly coincide"""
    return [
        _check(f"base-8 wait gap at N={n}", abs(d[_flag(8)][n] - d[_NONE][n]), "<",
               0.3 * d[_NONE][n])
        for n in (16, 64, 256)
    ]


@_claim("Figure 9 / Section 7", "figure9", repetitions=REPS, seed=SEED,
        n_values=(64, 256))
def figure9_shape(d) -> List[Condition]:
    """at A=100 backoff never doubles the waiting time"""
    return [_check(f"base-8 wait at N={n}", d[_flag(8)][n], "<", 2.0 * d[_NONE][n])
            for n in (64, 256)]


@_claim("Section 5.1", "hardware", repetitions=REPS, seed=SEED, n_values=(4, 128))
def hardware_compare(d) -> List[Condition]:
    """base-2 flag backoff rivals hardware barriers at small N and loses
    badly at large N"""
    backoff, directory = d["backoff"], d["full-map directory"]
    return [_check("backoff at N=4", backoff[4], "<", 3 * directory[4]),
            _check("backoff at N=128", backoff[128], ">", 5 * directory[128])]


@_claim("Sections 4/6", "combining", repetitions=REPS, seed=SEED,
        n_values=(64, 256), a_values=(100,), degrees=(4,))
def combining_tree(d) -> List[Condition]:
    """combining trees beat the flat barrier once N is large against A"""
    flat, tree = d["flat"], d["tree-4"]
    return [
        _check("tree-4 at N=256, A=100", tree[256, 100], "<", flat[256, 100] / 3),
        _check("tree-4 at N=64, A=100", tree[64, 100], "<", flat[64, 100]),
    ]


@_claim("Section 3", "coupling", repetitions=REPS, seed=SEED)
def coupling_acceptance(d) -> List[Condition]:
    """backoff raises the network's acceptance probability with the
    traffic it removes"""
    none, b2, b8 = (d[label]["acceptance"] for label in (_NONE, _flag(2), _flag(8)))
    return [_check("acceptance base 2", b2, ">", none),
            _check("acceptance base 8", b8, ">", b2),
            _check("least relief", min(d["relief"].values()), ">", 0)]


@_claim("Section 4.2", "determinism", repetitions=REPS, seed=SEED)
def determinism_ablation(d) -> List[Condition]:
    """deterministic backoff makes no more accesses than randomized
    backoff at any point"""
    return [_check(f"deterministic at N={n}, A={a}", out["deterministic"][0], "<=",
                   1.02 * out["randomized"][0])
            for (n, a), out in d.items()]


@_claim("Sections 4/7", "queueing", repetitions=REPS, seed=SEED, a_values=(0, 10_000))
def queueing_hybrid(d) -> List[Condition]:
    """spin wins at tight arrivals, blocking at spread ones, and the
    hybrid tracks the better of the two"""
    spin, block, hybrid = d["spin-b2"], d["block"], d["hybrid"]
    return [
        _check("A=0 spin wait", spin[0][1], "<", block[0][1]),
        _check("A=10000 block wait", block[10_000][1], "<", spin[10_000][1]),
    ] + [
        _check(f"A={a} hybrid wait", hybrid[a][1], "<=",
               1.25 * min(spin[a][1], block[a][1]))
        for a in (0, 10_000)
    ]


@_claim("Section 8", "resource", repetitions=REPS, seed=SEED, n_values=(16, 32, 64))
def resource_backoff(d) -> List[Condition]:
    """proportional backoff removes most polling without hurting the
    makespan"""
    tas, backoff = d["test-and-set"], d["backoff"]
    return [_check(f"accesses at N={n}", backoff[n][0], "<", tas[n][0] / 3)
            for n in (16, 32, 64)] + [
            _check(f"makespan at N={n}", backoff[n][1], "<", 1.25 * tas[n][1])
            for n in (16, 32, 64)]


@_claim("Section 4.2", "schedules", repetitions=REPS, seed=SEED, num_processors=16)
def schedules_ablation(d) -> List[Condition]:
    """exponential flag backoff beats linear by a margin that grows with A"""
    exp2, lin1, none = (
        {a: row[0] for a, row in d[label].items()}
        for label in ("exp b=2", "linear c=1", "none")
    )
    return [
        _check(f"exp b=2 at A={a}", exp2[a], "<", lin1[a]) for a in (1000, 10_000)
    ] + [
        _check(f"linear c=1 at A={a}", lin1[a], "<", none[a]) for a in (1000, 10_000)
    ] + [_check("linear/exp margin at A=10000", lin1[10_000] / exp2[10_000], ">",
                lin1[100] / exp2[100])]


@_claim("Sections 6/7 (application model)", "application", repetitions=REPS,
        seed=SEED, num_processors=32, rounds=5)
def application_rounds(d) -> List[Condition]:
    """end to end, variable backoff is free and base-2 backoff cuts
    traffic tenfold at bounded slowdown"""
    none, var, b2, b8 = d[_NONE], d[_VAR], d[_flag(2)], d[_flag(8)]
    return [
        _check("variable completion", var["completion"], "<=",
               1.01 * none["completion"]),
        _check("variable accesses", var["accesses"], "<", none["accesses"]),
        _check("base-2 traffic rate", b2["traffic_rate"], "<",
               none["traffic_rate"] / 10),
        _check("base-2 completion", b2["completion"], "<", 2.0 * none["completion"]),
        _check("base-8 completion", b8["completion"], ">", b2["completion"]),
    ]


@_claim("Section 5.1 (by simulation)", "coherent_barrier", repetitions=REPS,
        seed=SEED, num_processors=16)
def coherent_barrier(d) -> List[Condition]:
    """barrier cost through coherence protocols: update < invalidate <
    directory << uncached, and backoff closes most of the gap"""
    return [
        _check("snoopy-update", d["snoopy-update"], "<", d["snoopy-invalidate"]),
        _check("snoopy-invalidate-fiw", d["snoopy-invalidate-fiw"], "<",
               d["snoopy-invalidate"]),
        _check("snoopy-invalidate", d["snoopy-invalidate"], "<", d["directory"]),
        _check("directory", d["directory"], "<", d["uncached"] / 5),
        _check("uncached-b2", d["uncached-b2"], "<", d["uncached"] / 5),
        _check("uncached-b2", d["uncached-b2"], "<", 4 * d["directory"]),
    ]


@_claim("Table 1", "table1", scale=0.2, num_cpus=16, pointers=(2, 16))
def table1_shape(d) -> List[Condition]:
    """in every application sync refs invalidate more than data at i=2,
    and the full map collapses them"""
    return [
        _check(f"{app} i=2 sync %", per[2][1], ">", per[2][0]) for app, per in d.items()
    ] + [
        _check(f"{app} full map sync %", per[16][1], "<", per[2][1] / 4)
        for app, per in d.items()
    ]


@_claim("Table 2", "table2", scale=0.5, pointers=(2,))
def table2_shape(d) -> List[Condition]:
    """uncached sync traffic: FFT well under half of SIMPLE and WEATHER,
    and WEATHER worst"""
    fft, simple, weather = (d[app][2] for app in ("FFT", "SIMPLE", "WEATHER"))
    return [_check("FFT %", fft, "<", simple / 2),
            _check("FFT %", fft, "<", weather / 2),
            _check("WEATHER %", weather, ">", 0.9 * simple)]


@_claim("Table 3", "table3", scale=0.5)
def table3_shape(d) -> List[Condition]:
    """FFT's E dwarfs its A and its A grows with P; SIMPLE and WEATHER
    have A and E of one magnitude"""
    (a16, __), (a64, e64) = d["FFT"][16], d["FFT"][64]
    return [_check("FFT E at 64", e64, ">", 5 * a64),
            _check("FFT A growth 16 -> 64", a64 / max(a16, 1), ">", 2)] + [
        _check(f"{app} E at 64", d[app][64][1], "<", 10 * d[app][64][0])
        for app in ("SIMPLE", "WEATHER")
    ]


@_claim("Figure 1", "figure1", scale=0.2)
def figure1_histogram(d) -> List[Condition]:
    """over 95% of invalidations hit at most three caches, and the wide
    ones exist"""
    return [_check("% hitting <= 3 caches", d["at_most_3_pct"], ">", 95.0),
            _check("widest class", max(d["fractions"]), ">", 10)]


@_claim("Figure 3", "figure3", scale=0.2)
def figure3_arrivals(d) -> List[Condition]:
    """arrival histograms are distributions, and FFT's has no majority bin"""
    return [_check(f"{app} |sum - 1|", abs(sum(bins) - 1.0), "<", 1e-6)
            for app, bins in d.items()] + [
        _check("largest FFT bin", max(d["FFT"]), "<", 0.75)]


@_claim("Section 1", "tree_coherence", scale=0.1, num_cpus=32)
def tree_coherence(d) -> List[Condition]:
    """a combining tree of degree below the pointer count adds no sync
    invalidations"""
    return [_check("tree-3 sync invalidations", d["tree-3"][0], "<", d["flat"][0] / 4),
            _check("tree-3 sync invalidations", d["tree-3"][0], "<", d["tree-8"][0])]


@_claim("Section 2.1", "bus_vs_directory", scale=0.1)
def bus_vs_directory(d) -> List[Condition]:
    """the broadcast bus keeps sync traffic below the limited-pointer
    directory's"""
    bus, directory = d["snoopy-invalidate"], d["directory-2ptr"]
    return [_check("bus sync share %", bus[0], "<", directory[0]),
            _check("bus traffic per reference", bus[1], "<", directory[1])]


@_claim("Sections 5/7.1", "validation", repetitions=REPS, seed=SEED, scale=0.2)
def validation_uniform(d) -> List[Condition]:
    """the uniform-arrival model stays within 2x of measured arrivals"""
    return [
        _check(f"{app} model error %", error, "<", 100.0) for app, error in d.items()
    ] + [_check("best model error %", min(d.values()), "<", 25.0)]


@_claim("Section 8", "netbackoff", seed=SEED, num_ports=16,
        hot_fractions=(0.0, 0.05, 0.2), horizon=2000)
def netbackoff_hotspot(d) -> List[Condition]:
    """a hot spot collapses immediate retry; every backoff strategy cuts
    attempts"""
    eager = d["immediate"]
    return [
        _check("immediate throughput at 20% hot", eager[0.2][0], "<", eager[0.0][0]),
    ] + [
        _check(f"{name} attempts at 5% hot", per[0.05][1], "<", eager[0.05][1])
        for name, per in d.items() if name != "immediate"
    ] + [
        _check(f"{name} attempts at 20% hot", d[name][0.2][1], "<", eager[0.2][1])
        for name in ("exponential", "depth-proportional", "queue-feedback")
    ]


@_claim("Section 1 (Pfister-Norton) / Section 8", "tree_saturation", seed=SEED,
        num_ports=32, horizon=700)
def tree_saturation(d) -> List[Condition]:
    """a few percent of hot traffic collapses cold bandwidth; proactive
    feedback cuts latency"""
    immediate = d["immediate"]
    throughputs = [immediate[f][0] for f in sorted(immediate)]
    return [
        _check("throughput at 16% hot", immediate[0.16][0], "<",
               0.4 * immediate[0.0][0]),
        ("throughput falls monotonically (10% slack): "
         + ", ".join(f"{t:.3f}" for t in throughputs),
         all(a >= b * 0.9 for a, b in zip(throughputs, throughputs[1:]))),
        _check("proactive latency at 16% hot", d["feedback-proactive"][0.16][1], "<",
               0.8 * immediate[0.16][1]),
    ]


def verify(repetitions: int = 30, seed: int = 0) -> CheckReport:
    """Run every claim at ``repetitions`` episodes per aggregate."""
    budget = Budget("verify", cases=1, examples=1, repetitions=repetitions)
    return run_checks(["claims"], budget=budget, seed=seed, out_dir=None)


def render(report: CheckReport) -> str:
    """The printable pass/fail report ``python -m repro verify`` shows."""
    lines = [str(outcome) for outcome in report.outcomes]
    passed = sum(outcome.passed for outcome in report.outcomes)
    lines.append(f"\n{passed}/{len(report.outcomes)} headline claims verified")
    return "\n".join(lines)
