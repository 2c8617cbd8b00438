"""The suite table behind `charclass verify`."""

import hashlib

import pytest

from charclass import feshbach, verify
from charclass.complexifiability import lemma3_lhs
from charclass.errors import CharclassError, NotInIdealError
from charclass.feshbach import IntClass
from charclass.report import EXPECTED_MISMATCH, FAIL, PASS, Report
from charclass.verify import SUITES, run_suite
from charclass.wring import EXT, SW, MPoly2, w


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


class _Unformattable:
    def __format__(self, spec):
        raise AssertionError("a passing case formatted its values")


def test_report_check_formats_a_detail_only_on_failure():
    report = Report("s")
    report.check("a", {}, True, "x={}", _Unformattable())
    report.check("b", {}, False, "x={} y={!r}", 1, "z")
    report.check("c", {}, False, "kept {} as {0}")
    assert [c.detail for c in report.cases] == ["", "x=1 y='z'", "kept {} as {0}"]


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


def _raises(exc):
    def refuse(*args):
        raise exc
    return refuse


# Each row breaks the route one check compares against, so that check's
# cases fail and print their failure details: (module, name, replacement,
# suite, degree, rank, a detail the report must hold, sha256 of its text).
# The digests were taken before failure details were formatted lazily.
FAILURE_PINS = {
    "theorem1-oracle": (
        verify, "invariance_oracle", lambda c, ctx: False, "theorem1", 8, 0,
        "membership=True oracle=False on ",
        "094da35b19155d0178f03f5af24103de451d3cebbba2acbfe925a29294006f4c"),
    "lemma3-zero-rhs": (
        verify, "lemma3_rhs", lambda iset, b, ctx, mode: MPoly2.zero(SW),
        "lemma3", 0, 0, " rhs=0",
        "7b13d60fa799e58da44a4a7759d18fa8e745d3ab296bb2bad2e1edb8ac2f7796"),
    "lemma3-rhs-is-lhs": (
        verify, "lemma3_rhs", lambda iset, b, ctx, mode: lemma3_lhs(iset, b, ctx),
        "lemma3", 0, 0, "expected a mismatch",
        "768dc82848781cbb2171bac0537ad4b939ca53572e362d4726a2c1aee5ce3278"),
    "relations-rho": (
        feshbach, "_rho", lambda a, ctx: w(1), "relations", 16, 6,
        "rho = w1",
        "9cf324b995b135b39037ef87fc1bfbdaa571ad8a54f45fb7b0449741123cc595"),
    "relations-free": (
        feshbach, "_relation_lhs", lambda k, i, j, n: IntClass.p(1),
        "relations", 16, 6, "free part is nonzero",
        "09464dbdab314e549254d7f6a34ff1ba3b270f0c6a02462af944f1151257d288"),
    "squares": (
        verify, "underlying_of_complexification", lambda a, ctx: a,
        "identities", 8, 0, "doubled-bundle square identity failed",
        "0ccbbbc8e46df5c570daa8a0688d4452e59b9e85423a50fb6fa84ca1838f0359"),
    "sq1-laws": (
        verify, "sq1", lambda x: x, "identities", 8, 0,
        "sq1 twice is nonzero; sq1 of a square is nonzero; inhomogeneous image; "
        "Leibniz rule failed",
        "f44bd7eadeddf8cf80edb98af9f4327546338f1f5abecec14650720e1a611df4"),
    "cartan-restrict": (
        verify, "cartan_restrict", lambda c: MPoly2.zero(EXT), "identities", 8, 0,
        "square-free class mishandled: ",
        "944a26b92a7186fdd0cac736639ed2ccbc6d450458cb8941d48ba3e3f94b9d98"),
    "cartan-decomposition": (
        verify, "ideal_decomposition", lambda c: [], "identities", 8, 0,
        "ideal member mishandled: ",
        "7fd0c86c31851c33e3429143e896f0c297dccd60bb634f8483b644f10cb1effa"),
    "cartan-refusal": (
        verify, "ideal_decomposition", _raises(NotInIdealError("refused", "")),
        "identities", 8, 0, "ideal member mishandled: ",
        "528ff6bc307d63daa8375a837ab49152df9daf05e06ea01cc522bc0e2d42e05d"),
    "theorem2-criterion": (
        verify, "is_complexifiable_integral", lambda cl, ctx: False,
        "identities", 8, 0, "criterion rejected ",
        "6f1a4d99215805d9c2bbe81c23e62936438562986144f7714008fb016b5f5e22"),
    "theorem2-oracle": (
        verify, "invariance_oracle", lambda c, ctx: False, "identities", 8, 0,
        "oracle rejected rho(",
        "3a9f3c4455998cb79246f13dcfdd340131933b824efabd0427c7df4bd048b8eb"),
    "theorem3-parse": (
        verify, "parse", _raises(CharclassError("refused")), "identities", 8, 0,
        "free part round trip failed: ",
        "ac7662157da752d0bd3f41c310efa5abeabbe1f917407e6c7a8746e5528476da"),
    "theorem3-torsion": (
        verify, "rho", lambda a, ctx: w(1), "identities", 8, 0,
        "torsion rho-image round trip failed",
        "cb54a678e54e2cd0451022563ce4b477be63d6023dbeef26b4a2d7522d9e1d1c"),
}


@pytest.fixture
def cold_relation_table():
    """An empty relation sweep table and rho memo before and after the test,
    so a warm one serves no result made before a patch and keeps none made
    under it."""
    feshbach._stable_table.cache_clear()
    feshbach._rho_memo.cache_clear()
    yield
    feshbach._stable_table.cache_clear()
    feshbach._rho_memo.cache_clear()


@pytest.mark.parametrize("row", FAILURE_PINS.values(), ids=FAILURE_PINS)
def test_failure_details_pinned(monkeypatch, cold_relation_table, row):
    module, name, replacement, suite, degree, rank, detail, digest = row
    monkeypatch.setattr(module, name, replacement)
    report = run_suite(suite, degree=degree, rank=rank, seed=0)
    text = str(report)
    assert report.failures
    assert any(c.status == FAIL and detail in c.detail for c in report.cases), detail
    assert hashlib.sha256(text.encode()).hexdigest() == digest
