"""Schema-derived fuzzing: Param fuzz domains -> hypothesis strategies.

Every :class:`~repro.registry.spec.ExperimentSpec` declares a typed
parameter schema; each :class:`~repro.registry.spec.Param` resolves to
a declarative *fuzz domain* (:meth:`Param.fuzz_domain`) — plain data
describing a small, cheap value space.  This module turns domains into
hypothesis strategies, so every registered experiment gets seeded,
shrinking, budgeted fuzzing with zero per-experiment boilerplate:

- :func:`strategy_for_domain` / :func:`kwargs_strategy` — domain ->
  strategy, spec -> full-kwargs strategy.
- :func:`fuzz_experiment` — run one spec under ``@given`` with a
  derived seed; on failure returns the *shrunk* minimal kwargs, which
  :func:`run_repro_command` turns into a single-line repro.
- :func:`backoff_policy_strategy` — the shared policy generator the
  property-test suite draws from.

Importing this module registers one ``fuzz`` check per experiment id.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from hypothesis import HealthCheck, given, seed as hypothesis_seed, settings
from hypothesis import strategies as st

from repro.core.backoff import (
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.check.runner import CheckContext, CheckFailure, check
from repro.registry.spec import ExperimentSpec, Param, all_specs


def strategy_for_domain(domain: Dict[str, Any]) -> st.SearchStrategy:
    """A hypothesis strategy drawing from one declarative fuzz domain."""
    kind = domain["type"]
    if kind == "const":
        return st.just(domain["value"])
    if kind == "int":
        return st.integers(min_value=domain["lo"], max_value=domain["hi"])
    if kind == "float":
        return st.floats(
            min_value=domain["lo"],
            max_value=domain["hi"],
            allow_nan=False,
            allow_infinity=False,
        )
    if kind == "choice":
        return st.sampled_from(list(domain["values"]))
    if kind == "seq":
        return st.lists(
            strategy_for_domain(domain["element"]),
            min_size=domain.get("min_size", 1),
            max_size=domain.get("max_size", 3),
            unique=domain.get("unique", False),
        ).map(tuple)
    if kind == "pairs":
        pair = st.tuples(
            strategy_for_domain(domain["first"]),
            strategy_for_domain(domain["second"]),
        )
        return st.lists(
            pair,
            min_size=domain.get("min_size", 1),
            max_size=domain.get("max_size", 2),
            unique=True,
        ).map(tuple)
    raise ValueError(f"unknown fuzz domain type {kind!r}")


def param_strategy(param: Param) -> st.SearchStrategy:
    """The strategy for one declared parameter."""
    return strategy_for_domain(param.fuzz_domain())


def kwargs_strategy(spec: ExperimentSpec) -> st.SearchStrategy:
    """A strategy over *complete* kwargs for ``spec``.

    Every declared parameter is drawn from its fuzz domain — including
    the ones with expensive production defaults (``repetitions=100``,
    full-size traces), which is what keeps fuzzing inside the budget.
    """
    return st.fixed_dictionaries(
        {param.name: param_strategy(param) for param in spec.params}
    )


def run_repro_command(
    experiment_id: str, kwargs: Dict[str, Any], spec: ExperimentSpec
) -> str:
    """The single-line CLI command reproducing one fuzzed configuration."""
    parts = [f"PYTHONPATH=src python -m repro run {experiment_id}"]
    for name in spec.param_names():
        if name in kwargs:
            value = spec.get_param(name).format(kwargs[name])
            parts.append(f"-p {name}={value}")
    return " ".join(parts)


def backoff_policy_strategy() -> st.SearchStrategy:
    """Backoff policies with schema-typical knob ranges.

    The shared generator behind both the fuzz oracles and the
    property-based test suite (tests/test_properties.py), so new policy
    shapes get picked up by every consumer at once.
    """
    return st.one_of(
        st.just(NoBackoff()),
        st.builds(
            VariableBackoff,
            multiplier=st.integers(min_value=0, max_value=4),
            offset=st.integers(min_value=0, max_value=8),
        ),
        st.builds(LinearFlagBackoff, step=st.integers(min_value=1, max_value=8)),
        st.builds(
            ExponentialFlagBackoff, base=st.sampled_from([2, 4, 8])
        ),
    )


def _derived_seed(root_seed: int, label: str) -> int:
    """A stable per-label hypothesis seed derived from the root seed."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


def fuzz_experiment(
    spec: ExperimentSpec, root_seed: int, max_examples: int
) -> Tuple[int, Optional[Tuple[Dict[str, Any], BaseException]]]:
    """Fuzz one experiment through its schema-derived strategy.

    Runs ``max_examples`` randomized complete configurations through
    the registry runner and asserts the invariants every experiment
    must satisfy: it runs without raising, renders a non-empty report,
    and produces JSON-native result data (the cache/process-boundary
    contract).

    Returns ``(cases_run, failure)`` where ``failure`` is None on
    success or ``(shrunk_kwargs, error)`` — hypothesis replays the
    minimal failing example last before raising, so the captured
    kwargs are the shrunk repro.
    """
    from repro.exec.cache import canonical_payload
    from repro.obs.manifest import jsonable
    from repro.registry import run

    state: Dict[str, Any] = {"cases": 0, "last": None}

    @settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )
    @hypothesis_seed(_derived_seed(root_seed, spec.id))
    @given(kwargs=kwargs_strategy(spec))
    def execute(kwargs: Dict[str, Any]) -> None:
        state["last"] = kwargs
        state["cases"] += 1
        result = run(spec.id, **kwargs)
        assert str(result).strip(), "experiment rendered an empty report"
        # The payload must survive JSON (cache and pool workers depend
        # on it); canonical_payload raises on anything non-native.
        canonical_payload(jsonable(result.data))

    try:
        execute()
    except BaseException as error:  # noqa: BLE001 — reported, not hidden
        return state["cases"], (state["last"] or {}, error)
    return state["cases"], None


def _fuzz_check(spec: ExperimentSpec):
    def fuzz(ctx: CheckContext) -> int:
        cases, failure = fuzz_experiment(spec, ctx.seed, ctx.budget.examples)
        if failure is not None:
            kwargs, error = failure
            raise CheckFailure(
                f"{type(error).__name__}: {error}\n"
                f"shrunk config: {kwargs}",
                repro=run_repro_command(spec.id, kwargs, spec),
            )
        return cases

    return fuzz


for _spec in all_specs():
    check("fuzz", _spec.id, experiment=_spec.id)(_fuzz_check(_spec))
