"""Tests for the headline-claims suite behind ``repro verify``."""

import pytest

from repro.check.runner import (
    CHECKS,
    Budget,
    CheckContext,
    CheckOutcome,
    run_check,
)
from repro.check import claims

CLAIMS = {
    entry.name: entry for entry in CHECKS.values() if entry.suite == "claims"
}


@pytest.fixture(scope="module")
def results_at_5():
    """One low-fidelity pass over every claim, shared by the tests of
    the aggregate entry points (each claim's own pass is tested above
    them at modest fidelity)."""
    return claims.verify(repetitions=5)


class TestClaimChecks:
    def test_registry_nonempty(self):
        assert len(CLAIMS) >= 9

    @pytest.mark.parametrize("claim_id", sorted(CLAIMS))
    def test_each_claim_passes_at_modest_fidelity(self, claim_id):
        ctx = CheckContext(seed=0, budget=Budget("modest", 1, 1, 15))
        result = run_check(CLAIMS[claim_id], ctx)
        assert result.check == claim_id
        assert result.statement
        assert result.provenance
        assert result.detail
        assert result.passed, f"{claim_id} failed: {result.detail}"

    def test_verify_claims_runs_all(self, results_at_5):
        assert [r.check for r in results_at_5.outcomes] == list(CLAIMS)

    def test_report_counts(self, results_at_5):
        report = claims.render(results_at_5)
        passed = sum(r.passed for r in results_at_5.outcomes)
        assert f"{passed}/{len(CLAIMS)} headline claims verified" in report
        assert "[PASS]" in report

    def test_str_format(self):
        result = CheckOutcome(
            suite="claims",
            check="x",
            passed=False,
            statement="s",
            provenance="p",
            detail="e",
        )
        text = str(result)
        assert text.startswith("[FAIL] x: s")
        assert "evidence: e" in text
