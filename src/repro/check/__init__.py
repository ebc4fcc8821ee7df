"""repro.check — one verification system behind ``check`` and ``verify``.

:mod:`repro.check.runner` holds the one registry (the ``@check``
decorator), the one outcome type and the one runner; the suites
register into it:

- ``invariants`` (:mod:`repro.check.invariants`) — conservation laws;
- ``differential`` (:mod:`repro.check.oracles`) — metamorphic relations;
- ``fuzz`` (:mod:`repro.check.fuzz`) — schema-derived fuzzing of every
  registered experiment;
- ``claims`` (:mod:`repro.check.claims`) — the paper's headline claims.

``python -m repro check`` runs the first three, ``python -m repro
verify`` the claims.  The runner imports a suite's module only when the
suite runs, so importing this package costs nothing until then::

    from repro.check.runner import run_checks

    report = run_checks(suites=["invariants"], budget="small", seed=0)
    assert report.ok, report.render()
"""
