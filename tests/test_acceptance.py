"""Acceptance grid: one test per criterion, each printed as a
pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete; the same grid backs ``ramify selftest``.
"""

import pytest

from ramify.selftest import run_all

CRITERIA = [
    (1, "swan_conductor_table"),
    (2, "best_f_oracle_agreement"),
    (3, "norm_ideal_identity_defectless"),
    (4, "norm_ideal_identity_defect_tower"),
    (5, "tower_recursion_closed_form"),
    (6, "rewrite_step_identity"),
    (7, "trace_identities"),
    (8, "difference_operator_laws"),
    (9, "refined_swan_stability"),
    (10, "norm_additivity_and_diagram"),
    (11, "different_vs_trace_dual"),
    (12, "principality_chain"),
]


@pytest.fixture(scope="module")
def results():
    out = {r.ident: r for r in run_all()}
    assert len(out) == len(CRITERIA)
    return out


@pytest.mark.parametrize("ident,name", CRITERIA)
def test_criterion(results, ident, name):
    res = results[ident]
    print(res.line())
    assert res.name == name
    assert res.ok, res.detail


def test_selftest_rerun_is_deterministic(results):
    again = {r.ident: r for r in run_all()}
    for ident, res in results.items():
        assert again[ident].ok == res.ok
        assert again[ident].detail == res.detail
