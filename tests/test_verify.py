"""The suite table behind `charclass verify`."""

import pytest

from charclass.report import EXPECTED_MISMATCH, FAIL, PASS, Report
from charclass.verify import SUITES, run_suite


def test_report_check_carries_a_detail_only_on_failure():
    report = Report("s")
    report.check("a", {"k": 1}, True, "not shown")
    report.check("b", {"k": 2}, False, "shown")
    report.check("c", {}, 0)
    report.add("d", {}, EXPECTED_MISMATCH, "kept")
    assert [(c.id, c.params, c.status, c.detail) for c in report.cases] == [
        ("a", {"k": 1}, PASS, ""),
        ("b", {"k": 2}, FAIL, "shown"),
        ("c", {}, FAIL, ""),
        ("d", {}, EXPECTED_MISMATCH, "kept"),
    ]
    assert report.failures == 2


def test_unknown_suite_names_every_choice():
    with pytest.raises(ValueError) as err:
        run_suite("bogus")
    assert str(err.value) == (
        "unknown suite 'bogus'; choose from theorem1, lemma3, relations, identities, all"
    )


def test_all_runs_every_suite_in_table_order():
    assert list(SUITES) == ["theorem1", "lemma3", "relations", "identities"]
    caps = {"degree": 12, "rank": 4, "seed": 7}
    ids = [c.id for name in SUITES for c in run_suite(name, **caps).cases]
    merged = run_suite("all", **caps)
    assert merged.suite == "all[degree<=12,rank<=4,seed=7]"
    assert [c.id for c in merged.cases] == ids
