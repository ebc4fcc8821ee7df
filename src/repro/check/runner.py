"""The one check registry and runner behind ``repro check`` and ``verify``.

Every check is a function of a :class:`CheckContext` registered with
the :func:`check` decorator into :data:`CHECKS` under a suite.  A check
returns its case count, or (claims) a list of measured
``(statement, holds)`` conditions, or raises :class:`CheckFailure` with
a detail and a single-line repro command.  :func:`run_checks` imports
the requested suites, runs each check into a :class:`CheckOutcome`,
and for ``repro check`` writes ``report.json`` (the
:class:`CheckReport`, which CI uploads) next to ``manifest.json`` (an
obs :class:`~repro.obs.manifest.RunManifest` over the runner's own
events and counters).
"""

from __future__ import annotations

import importlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.sim.rng import spawn_stream

#: Suites in execution order, and the module that registers each.
SUITE_MODULES = {
    "invariants": "repro.check.invariants",
    "differential": "repro.check.oracles",
    "fuzz": "repro.check.fuzz",
    "claims": "repro.check.claims",
}
SUITES = tuple(SUITE_MODULES)

#: The suites ``python -m repro check`` runs by default.
CHECK_SUITES = SUITES[:3]

#: Default directory for report + manifest artifacts.
DEFAULT_OUT_DIR = "checks"


@dataclass(frozen=True)
class Budget:
    """How much work one check run may spend.

    ``cases`` drives the randomized invariant / differential checks,
    ``examples`` is hypothesis examples per fuzzed experiment, and
    ``repetitions`` is episodes per simulated aggregate.
    """

    name: str
    cases: int
    examples: int
    repetitions: int

    def __post_init__(self) -> None:
        if min(self.cases, self.examples, self.repetitions) < 1:
            raise ValueError("budget values must all be >= 1")


#: Named budget profiles.
BUDGETS: Dict[str, Budget] = {
    "small": Budget("small", cases=2, examples=1, repetitions=8),
    "default": Budget("default", cases=4, examples=2, repetitions=16),
    "large": Budget("large", cases=10, examples=6, repetitions=40),
}


def resolve_budget(value: Any) -> Budget:
    """A :class:`Budget` from a profile name, an int, or a Budget.

    An integer ``n`` means "n cases / n examples" with repetitions
    scaled to keep the statistical checks meaningful.
    """
    if isinstance(value, Budget):
        return value
    text = str(value)
    if text in BUDGETS:
        return BUDGETS[text]
    try:
        n = int(text)
    except ValueError:
        raise ValueError(
            f"unknown budget {value!r}; use one of "
            f"{', '.join(sorted(BUDGETS))} or a positive integer"
        ) from None
    if n < 1:
        raise ValueError(f"budget must be >= 1, got {n}")
    return Budget(str(n), cases=n, examples=n, repetitions=max(8, 4 * n))


class CheckFailure(AssertionError):
    """A check found a violated property.

    Args:
        detail: what was violated, with the observed values.
        repro: a single-line shell command reproducing the failure.
    """

    def __init__(self, detail: str, repro: str = "") -> None:
        super().__init__(detail)
        self.detail = detail
        self.repro = repro


@dataclass
class CheckContext:
    """Ambient state handed to every check function."""

    seed: int
    budget: Budget

    def rng(self, name: str) -> np.random.Generator:
        """A named RNG stream derived from the run's root seed."""
        return spawn_stream(self.seed, f"check:{name}")

    def suite_repro(self, suite: str) -> str:
        """The single-line command that re-runs one suite of this run."""
        if suite == "claims":
            return (
                f"PYTHONPATH=src python -m repro verify "
                f"--repetitions {self.budget.repetitions} --seed {self.seed}"
            )
        return (
            f"PYTHONPATH=src python -m repro check --suite {suite} "
            f"--seed {self.seed} --budget {self.budget.name}"
        )


@dataclass(frozen=True)
class Check:
    """One registered check."""

    suite: str
    name: str
    fn: Callable[[CheckContext], Any]
    #: Claims: the statement and the paper section it comes from.
    statement: str = ""
    provenance: str = ""
    #: Fuzz checks: the experiment id ``--ids`` selects them by.
    experiment: str = ""

    @property
    def key(self) -> str:
        return f"{self.suite}/{self.name}"


#: The registry: ``suite/name`` -> check, in registration order.
CHECKS: Dict[str, Check] = {}


def check(
    suite: str,
    name: str = "",
    statement: str = "",
    provenance: str = "",
    experiment: str = "",
):
    """Register the decorated function as a check of ``suite``.

    The name defaults to the function's name with dashes for
    underscores.
    """

    def register(fn: Callable[[CheckContext], Any]):
        entry = Check(
            suite,
            name or fn.__name__.replace("_", "-"),
            fn,
            statement,
            provenance,
            experiment,
        )
        if entry.key in CHECKS:
            raise ValueError(f"duplicate check {entry.key!r}")
        CHECKS[entry.key] = entry
        return fn

    return register


@dataclass
class CheckOutcome:
    """The result of one check."""

    suite: str
    check: str
    passed: bool
    cases: int = 0
    detail: str = ""
    repro: str = ""
    seconds: float = 0.0
    statement: str = ""
    provenance: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "check": self.check,
            "passed": self.passed,
            "cases": self.cases,
            "detail": self.detail,
            "repro": self.repro,
            "seconds": round(self.seconds, 4),
        }

    def __str__(self) -> str:
        """The claim block ``python -m repro verify`` prints."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check}: {self.statement}\n" \
               f"       {self.provenance}\n       evidence: {self.detail}"


@dataclass
class CheckReport:
    """Everything one run of the checks produced."""

    seed: int
    budget: str
    suites: List[str]
    outcomes: List[CheckOutcome] = field(default_factory=list)
    manifest_digest: str = ""
    wall_time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def failures(self) -> List[CheckOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "suites": list(self.suites),
            "ok": self.ok,
            "checks_run": len(self.outcomes),
            "checks_failed": len(self.failures),
            "wall_time_seconds": round(self.wall_time_seconds, 3),
            "manifest_digest": self.manifest_digest,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        """Human-readable summary (``repro check``'s stdout)."""
        lines = []
        for outcome in self.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            lines.append(
                f"{status}  {outcome.suite}/{outcome.check} "
                f"({outcome.cases} case(s), {outcome.seconds:.2f}s)"
            )
            if not outcome.passed:
                for detail_line in outcome.detail.strip().splitlines():
                    lines.append(f"      {detail_line}")
                if outcome.repro:
                    lines.append(f"      repro: {outcome.repro}")
        failed = len(self.failures)
        lines.append(
            f"{'FAIL' if failed else 'PASS'}: {len(self.outcomes)} check(s), "
            f"{failed} failure(s), seed={self.seed}, "
            f"budget={self.budget}, {self.wall_time_seconds:.2f}s"
        )
        return "\n".join(lines)


def run_check(entry: Check, ctx: CheckContext) -> CheckOutcome:
    """Run one check into an outcome.

    A :class:`CheckFailure` becomes a failed outcome carrying the
    check's own repro command; any other exception is a failed outcome
    carrying the suite-level repro and a trimmed traceback — a crashing
    check must never take down the whole run.
    """
    outcome = CheckOutcome(
        entry.suite,
        entry.name,
        passed=False,
        statement=entry.statement,
        provenance=entry.provenance,
    )
    start = time.perf_counter()
    try:
        value = entry.fn(ctx)
    except CheckFailure as failure:
        outcome.detail = failure.detail
        outcome.repro = failure.repro or ctx.suite_repro(entry.suite)
    except Exception:
        tail = traceback.format_exc().strip().splitlines()[-3:]
        outcome.detail = "check crashed:\n" + "\n".join(tail)
        outcome.repro = ctx.suite_repro(entry.suite)
    else:
        if isinstance(value, list):
            outcome.passed = all(ok for __, ok in value)
            outcome.cases = len(value)
            outcome.detail = "; ".join(
                text if ok else f"NOT {text}" for text, ok in value
            )
            if not outcome.passed:
                outcome.repro = ctx.suite_repro(entry.suite)
        else:
            outcome.passed = True
            outcome.cases = int(value)
    outcome.seconds = time.perf_counter() - start
    return outcome


def run_checks(
    suites: Optional[Sequence[str]] = None,
    budget: object = "default",
    seed: int = 0,
    ids: Optional[Sequence[str]] = None,
    out_dir: Optional[str] = DEFAULT_OUT_DIR,
) -> CheckReport:
    """Run the requested suites; returns the populated report.

    Args:
        suites: subset of :data:`SUITES` (default: :data:`CHECK_SUITES`).
        budget: a named profile (small/default/large), an integer, or a
            :class:`Budget`.
        seed: root seed; every randomized case derives from it.
        ids: experiment-id filter for the fuzz suite.  Unknown ids
            raise :class:`repro.registry.UnknownExperimentError`.
        out_dir: where to write ``report.json`` / ``manifest.json``;
            None skips writing.
    """
    from repro.obs.manifest import build_manifest
    from repro.obs.tracer import Tracer

    selected = list(suites) if suites else list(CHECK_SUITES)
    for suite in selected:
        if suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}"
            )
    resolved_budget = resolve_budget(budget)
    resolved_ids = None
    if ids is not None:
        from repro.registry import get_spec

        resolved_ids = [get_spec(experiment_id).id for experiment_id in ids]
    ctx = CheckContext(seed=seed, budget=resolved_budget)
    report = CheckReport(
        seed=seed, budget=resolved_budget.name, suites=selected
    )

    # The runner's own events and counters feed the manifest.  The
    # tracer is not installed as the ambient one: the checks run
    # exactly as the shipped code does (a live tracer would push every
    # barrier run off the numpy kernel onto the event loop).
    tracer = Tracer(run_id=f"check-{seed}")
    start = time.perf_counter()
    for suite in (suite for suite in SUITES if suite in selected):
        importlib.import_module(SUITE_MODULES[suite])
        entries = [
            entry for entry in CHECKS.values()
            if entry.suite == suite
            and (resolved_ids is None or not entry.experiment
                 or entry.experiment in resolved_ids)
        ]
        tracer.emit("check.suite_start", suite=suite, checks=len(entries))
        with tracer.timer(f"check.suite.{suite}"):
            for entry in entries:
                outcome = run_check(entry, ctx)
                tracer.count("check.cases", outcome.cases)
                tracer.count(
                    "check.passed" if outcome.passed else "check.failed"
                )
                tracer.emit(
                    "check.outcome",
                    suite=outcome.suite,
                    check=outcome.check,
                    passed=outcome.passed,
                    cases=outcome.cases,
                )
                report.outcomes.append(outcome)
        tracer.emit("check.suite_end", suite=suite)
    report.wall_time_seconds = time.perf_counter() - start

    manifest = build_manifest(
        tracer,
        experiment_id="check",
        config={
            "suites": selected,
            "budget": resolved_budget.name,
            "ids": resolved_ids,
        },
        seed=seed,
        wall_time_seconds=report.wall_time_seconds,
    )
    report.manifest_digest = manifest.deterministic_digest()

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        manifest.write(os.path.join(out_dir, "manifest.json"))
        with open(
            os.path.join(out_dir, "report.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
