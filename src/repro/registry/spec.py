"""Declarative experiment specs and the registry that holds them.

An :class:`ExperimentSpec` declares everything the repo needs to know
about one paper artifact:

- identity (``id``, ``title``, the paper ``section`` it reproduces,
  and a one-line ``summary``),
- a typed parameter schema (:class:`Param`) with defaults, so the CLI
  can parse values and reject unknown names instead of silently
  dropping them,
- the sweep ``axis`` whose values decompose the experiment into
  independently runnable points (the unit of parallelism, caching and
  fault checkpointing),
- ``run_point``, a callable producing one point's JSON-native payload,
- ``aggregate``, which folds the payload mapping back into the
  :class:`~repro.registry.result.ExperimentResult` the seed runners
  produced — byte-identical text and data.

Spec modules under :mod:`repro.registry.experiments` call
:func:`register` at import time; :func:`load_specs` imports them
lazily so ``import repro`` stays cheap and cycle-free.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.registry.result import ExperimentResult


class ParameterError(ValueError):
    """An unknown or malformed experiment parameter."""


class UnknownExperimentError(KeyError):
    """An experiment id that is not in the registry.

    Subclasses ``KeyError`` so historical ``except KeyError`` callers
    keep working; carries did-you-mean ``suggestions`` so the CLI can
    print one consistent, helpful error across subcommands.
    """

    def __init__(self, experiment_id: str, known: Sequence[str]) -> None:
        self.experiment_id = experiment_id
        self.known = list(known)
        self.suggestions = difflib.get_close_matches(
            experiment_id, self.known, n=3, cutoff=0.5
        )
        message = f"unknown experiment {experiment_id!r}"
        if self.suggestions:
            message += "; did you mean " + " or ".join(
                repr(s) for s in self.suggestions
            ) + "?"
        message += f"; known: {', '.join(self.known)}"
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError wraps its message in quotes; undo that.
        return self.args[0]


#: Parameter kinds the schema understands: scalars, comma-separated
#: sequences, and ``N:A`` pair lists (the ``determinism`` sweep axis).
PARAM_KINDS = ("int", "float", "str", "ints", "floats", "strs", "pairs")

_SEQUENCE_KINDS = ("ints", "floats", "strs", "pairs")

#: Default fuzz domains by parameter *name*.  The registry's parameter
#: vocabulary is deliberately shared across experiments (``seed`` is
#: always a root seed, ``scale`` always a trace-size multiplier), so a
#: name-keyed table gives every experiment a safe, *cheap* domain for
#: schema-derived fuzzing (see repro.check.fuzz) without per-spec
#: boilerplate.  A spec can override any entry via ``Param(fuzz=...)``.
#: Values mirror the miniature configurations the tier-1 tests use.
DEFAULT_FUZZ_DOMAINS: Dict[str, Dict[str, Any]] = {
    "repetitions": {"type": "int", "lo": 1, "hi": 3},
    "seed": {"type": "int", "lo": 0, "hi": 2**32 - 1},
    # Choices (not a float range) so the per-process trace cache is
    # shared across fuzz examples.
    "scale": {"type": "choice", "values": [0.05, 0.1, 0.2]},
    "num_cpus": {"type": "choice", "values": [4, 8, 16]},
    "num_processors": {"type": "int", "lo": 1, "hi": 16},
    "interval_a": {"type": "int", "lo": 0, "hi": 200},
    "cpu_counts": {
        "type": "seq", "min_size": 1, "max_size": 2, "unique": True,
        "element": {"type": "choice", "values": [4, 8, 16]},
    },
    "n_values": {
        "type": "seq", "min_size": 1, "max_size": 3, "unique": True,
        "element": {"type": "int", "lo": 1, "hi": 16},
    },
    "a_values": {
        "type": "seq", "min_size": 1, "max_size": 3, "unique": True,
        "element": {"type": "int", "lo": 0, "hi": 200},
    },
    "points": {
        "type": "pairs", "min_size": 1, "max_size": 2,
        "first": {"type": "int", "lo": 1, "hi": 8},
        "second": {"type": "int", "lo": 0, "hi": 200},
    },
    "hot_fractions": {
        "type": "seq", "min_size": 1, "max_size": 2, "unique": True,
        "element": {"type": "choice", "values": [0.0, 0.05, 0.1, 0.2]},
    },
    "apps": {
        "type": "seq", "min_size": 1, "max_size": 2, "unique": True,
        "element": {"type": "choice", "values": ["FFT", "SIMPLE", "WEATHER"]},
    },
    "app": {"type": "choice", "values": ["FFT", "SIMPLE", "WEATHER"]},
    "pointers": {
        "type": "seq", "min_size": 1, "max_size": 2, "unique": True,
        "element": {"type": "int", "lo": 1, "hi": 8},
    },
    "degrees": {
        "type": "seq", "min_size": 1, "max_size": 2, "unique": True,
        "element": {"type": "int", "lo": 2, "hi": 4},
    },
    "bins": {"type": "int", "lo": 1, "hi": 6},
    "horizon": {"type": "int", "lo": 200, "hi": 1000},
    "num_ports": {"type": "choice", "values": [4, 8, 16]},
    "injection_rate": {"type": "float", "lo": 0.05, "hi": 0.5},
    "hold_time": {"type": "int", "lo": 1, "hi": 8},
    "threshold": {"type": "int", "lo": 16, "hi": 256},
    "overhead": {"type": "int", "lo": 10, "hi": 100},
    "work_interval": {"type": "int", "lo": 50, "hi": 300},
    "rounds": {"type": "int", "lo": 1, "hi": 3},
    "jitter": {"type": "float", "lo": 0.0, "hi": 0.3},
    "barrier_period": {"type": "float", "lo": 500.0, "hi": 2000.0},
    "background_rate": {"type": "float", "lo": 0.0, "hi": 0.5},
    "base": {"type": "int", "lo": 2, "hi": 8},
    "num_pointers": {"type": "int", "lo": 1, "hi": 8},
    # Never "numpy": an explicit numpy request errors when the [fast]
    # extra is missing, and fuzzing must stay runnable without it
    # ("" defers to the ambient default).
    "backend": {"type": "choice", "values": ["", "auto", "python"]},
}


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter.

    ``fuzz`` optionally overrides the parameter's fuzz domain — the
    declarative value space schema-derived fuzzing draws from (see
    :meth:`fuzz_domain`).  It stays plain data (no hypothesis import)
    so the registry remains dependency-free; :mod:`repro.check.fuzz`
    turns domains into strategies.
    """

    name: str
    kind: str
    default: Any
    doc: str = ""
    fuzz: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}; "
                f"valid kinds: {', '.join(PARAM_KINDS)}"
            )

    def parse(self, text: str) -> Any:
        """Parse a CLI string into this parameter's type."""
        try:
            if self.kind == "int":
                return int(text)
            if self.kind == "float":
                return float(text)
            if self.kind == "str":
                return text
            parts = [part for part in text.split(",") if part]
            if self.kind == "ints":
                return tuple(int(part) for part in parts)
            if self.kind == "floats":
                return tuple(float(part) for part in parts)
            if self.kind == "strs":
                return tuple(parts)
            pairs = []
            for part in parts:
                first, _, second = part.partition(":")
                pairs.append((int(first), int(second)))
            return tuple(pairs)
        except ValueError:
            raise ParameterError(
                f"parameter {self.name!r} expects {self.kind} "
                f"(e.g. {self.example()}), got {text!r}"
            ) from None

    def example(self) -> str:
        """A sample CLI value, for error messages and ``--describe``."""
        return {
            "int": "64",
            "float": "0.5",
            "str": "FFT",
            "ints": "4,8,16",
            "floats": "0.0,0.1",
            "strs": "FFT,SIMPLE",
            "pairs": "16:1000,64:1000",
        }[self.kind]

    def format(self, value: Any) -> str:
        """Render ``value`` back into the CLI text :meth:`parse` accepts.

        The inverse of :meth:`parse`; lets tooling (the fuzz suite's
        shrunk-failure repro lines) turn any schema value into a
        ``--param NAME=VALUE`` argument.
        """
        if self.kind in ("int", "float", "str"):
            return str(value)
        if self.kind == "pairs":
            return ",".join(f"{int(a)}:{int(b)}" for a, b in value)
        return ",".join(str(item) for item in value)

    def fuzz_domain(self) -> Dict[str, Any]:
        """The declarative fuzz domain for this parameter.

        Resolution order: an explicit ``fuzz=`` override on the Param,
        then the name-keyed :data:`DEFAULT_FUZZ_DOMAINS` table, then a
        constant domain pinning the declared default (so fuzzing a spec
        with a brand-new parameter name is safe-by-default until a
        domain is declared for it).
        """
        if self.fuzz is not None:
            return dict(self.fuzz)
        domain = DEFAULT_FUZZ_DOMAINS.get(self.name)
        if domain is not None:
            return dict(domain)
        if self.kind in _SEQUENCE_KINDS:
            return {"type": "const", "value": self.coerce(self.default)}
        return {"type": "const", "value": self.default}

    def coerce(self, value: Any) -> Any:
        """Normalise an API-supplied value (sequences become tuples)."""
        if self.kind not in _SEQUENCE_KINDS:
            return value
        try:
            items = tuple(value)
        except TypeError:
            raise ParameterError(
                f"parameter {self.name!r} expects a sequence ({self.kind}), "
                f"got {value!r}"
            ) from None
        if self.kind == "pairs":
            return tuple(tuple(item) for item in items)
        return items


#: Key label for each recognised sweep axis: the point keys
#: (``"N=64"``) the fault checkpoints are stored under.
AXIS_KEY_FORMATS: Dict[str, Callable[[Any], str]] = {
    "n_values": lambda v: f"N={v}",
    "a_values": lambda v: f"A={v}",
    "cpu_counts": lambda v: f"P={v}",
    "hot_fractions": lambda v: f"hot={v}",
    "apps": lambda v: f"app={v}",
    "points": lambda v: f"N={v[0]},A={v[1]}",
}


@dataclass
class ExperimentSpec:
    """A declaratively registered experiment."""

    id: str
    title: str
    section: str
    summary: str
    params: Tuple[Param, ...]
    run_point: Callable[..., dict]
    aggregate: Callable[[Dict[str, dict], Dict[str, Any]], ExperimentResult]
    axis: Optional[str] = None

    def __post_init__(self) -> None:
        names = [param.name for param in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"experiment {self.id!r}: duplicate parameters")
        if self.axis is not None:
            if self.axis not in names:
                raise ValueError(
                    f"experiment {self.id!r}: axis {self.axis!r} is not a "
                    "declared parameter"
                )
            if self.axis not in AXIS_KEY_FORMATS:
                raise ValueError(
                    f"experiment {self.id!r}: axis {self.axis!r} has no "
                    "point-key format"
                )

    # -- parameter schema ------------------------------------------------

    def param_names(self) -> List[str]:
        return [param.name for param in self.params]

    def get_param(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise ParameterError(
            f"experiment {self.id!r} has no parameter {name!r}; "
            f"valid parameters: {', '.join(sorted(self.param_names()))}"
        )

    def resolve(self, overrides: Dict[str, Any]) -> Dict[str, Any]:
        """Defaults merged with ``overrides``; unknown names rejected."""
        resolved = {param.name: param.coerce(param.default)
                    for param in self.params}
        for name, value in overrides.items():
            resolved[name] = self.get_param(name).coerce(value)
        return resolved

    # -- sweep decomposition ---------------------------------------------

    def axis_key(self, value: Any) -> str:
        assert self.axis is not None
        return AXIS_KEY_FORMATS[self.axis](value)

    def points(self, full_params: Dict[str, Any]) -> Dict[str, dict]:
        """Decompose fully resolved params into per-point kwargs.

        Returns an ordered ``{point_key: run_point_kwargs}`` mapping;
        each entry pins the sweep axis to a single value.  Experiments
        with no axis run as one point keyed ``"all"``.
        """
        if self.axis is None:
            return {"all": dict(full_params)}
        values = list(full_params[self.axis])
        if not values:
            raise ValueError(
                f"experiment {self.id!r}: axis {self.axis!r} has no values"
            )
        return {
            self.axis_key(value): {**full_params, self.axis: (value,)}
            for value in values
        }

    def sparse_points(self, overrides: Dict[str, Any]) -> Dict[str, dict]:
        """Decompose into points carrying only the caller's overrides.

        The unit of checkpointing for fault-plan sweeps
        (:func:`repro.faults.runner.run_plan_resilient`), kept sparse
        because fault checkpoints digest their point kwargs: every
        point's kwargs are ``overrides`` with the sweep axis pinned to
        one value, defaults left implicit; experiments with no axis run
        as one point keyed ``"all"``.
        """
        base = {
            name: self.get_param(name).coerce(value)
            for name, value in overrides.items()
        }
        if self.axis is None:
            return {"all": base}
        values = base.pop(self.axis, None)
        if values is None:
            values = self.get_param(self.axis).coerce(
                self.get_param(self.axis).default
            )
        values = list(values)
        if not values:
            raise ValueError(
                f"experiment {self.id!r}: axis {self.axis!r} has no values"
            )
        return {
            self.axis_key(value): {**base, self.axis: (value,)}
            for value in values
        }

    # -- presentation ----------------------------------------------------

    def describe(self) -> str:
        """A human-readable schema dump for ``--describe``."""
        lines = [
            f"experiment : {self.id}",
            f"title      : {self.title}",
            f"section    : {self.section}",
            f"summary    : {self.summary}",
            "sweep axis : "
            + (f"{self.axis} (one point per value)"
               if self.axis else "none (single point)"),
            "parameters :",
        ]
        width = max(len(param.name) for param in self.params)
        for param in self.params:
            line = (
                f"  {param.name.ljust(width)}  {param.kind:<7}"
                f" default={param.default!r}"
            )
            if param.doc:
                line += f"  — {param.doc}"
            lines.append(line)
        return "\n".join(lines)


# -- the registry --------------------------------------------------------

_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (spec modules call this on import)."""
    if spec.id in _REGISTRY:
        raise ValueError(f"duplicate experiment id {spec.id!r}")
    _REGISTRY[spec.id] = spec
    return spec


def load_specs() -> None:
    """Import every spec module exactly once (idempotent, reentrant)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    import repro.registry.experiments  # noqa: F401  (registers on import)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up a spec by id.

    Raises :class:`UnknownExperimentError` (a ``KeyError``) listing the
    known ids and carrying did-you-mean suggestions.
    """
    load_specs()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise UnknownExperimentError(experiment_id, sorted(_REGISTRY)) from None


def experiment_ids() -> List[str]:
    """Sorted ids of every registered experiment."""
    load_specs()
    return sorted(_REGISTRY)


def all_specs() -> List[ExperimentSpec]:
    """Every registered spec, sorted by id."""
    return [_REGISTRY[experiment_id] for experiment_id in experiment_ids()]
