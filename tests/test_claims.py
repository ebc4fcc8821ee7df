"""Tests for the headline-claims verifier."""

import pytest

from repro.analysis import claims
from repro.analysis.claims import (
    CLAIM_CHECKS,
    ClaimResult,
    verify_claims,
    verify_report,
)


@pytest.fixture(scope="module")
def results_at_5():
    """One low-fidelity pass over every claim, shared by the tests of
    the aggregate entry points (each claim's own pass is tested above
    them at modest fidelity)."""
    return verify_claims(repetitions=5)


class TestClaimChecks:
    def test_registry_nonempty(self):
        assert len(CLAIM_CHECKS) >= 9

    @pytest.mark.parametrize("claim_id", sorted(CLAIM_CHECKS))
    def test_each_claim_passes_at_modest_fidelity(self, claim_id):
        result = CLAIM_CHECKS[claim_id](15, 0)
        assert isinstance(result, ClaimResult)
        assert result.claim_id == claim_id
        assert result.provenance
        assert result.evidence
        assert result.passed, f"{claim_id} failed: {result.evidence}"

    def test_verify_claims_runs_all(self, results_at_5):
        assert len(results_at_5) == len(CLAIM_CHECKS)
        assert [r.claim_id for r in results_at_5] == list(CLAIM_CHECKS)

    def test_report_counts(self, results_at_5, monkeypatch):
        monkeypatch.setattr(
            claims, "verify_claims", lambda **kwargs: results_at_5
        )
        report = verify_report(repetitions=5)
        passed = sum(r.passed for r in results_at_5)
        assert f"{passed}/{len(CLAIM_CHECKS)} headline claims verified" in report
        assert "[PASS]" in report

    def test_str_format(self):
        result = ClaimResult(
            claim_id="x",
            statement="s",
            provenance="p",
            passed=False,
            evidence="e",
        )
        text = str(result)
        assert text.startswith("[FAIL] x")
        assert "evidence: e" in text
