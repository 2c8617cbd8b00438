"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every check runs at its stated tolerance (exact equality throughout;
this is symbolic algebra) and asserts its stated time budget.
"""

import random
import time

from charclass.cli import main as cli_main
from charclass.expr import parse_integral, parse_mod2
from charclass.report import EXPECTED_MISMATCH, Report
from charclass.serialize import dumps, loads
from charclass.verify import (
    check_cartan,
    check_integral,
    check_sq1_laws,
    check_squares,
    random_integral_complexifiable,
    random_mod2,
    suite_lemma3,
    suite_relations,
    suite_theorem1,
)
from charclass.wring import SW, MPoly2, mul

SEED = 2024


def _report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    extra = f", {detail}" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s{extra})")


def _section(check, *args) -> tuple:
    """The report of one verify section run alone, and its time."""
    report = Report(check.__name__)
    t0 = time.perf_counter()
    check(report, *args)
    return report, time.perf_counter() - t0


def test_criterion_1_squared_class_reduction():
    report, elapsed = _section(check_squares)
    assert len(report.cases) == 12  # n = 1..12, even and odd identities
    assert report.failures == 0, str(report)
    assert elapsed < 5.0
    _report(1, "squared-class reduction", elapsed, "n=1..12 exact")


def test_criterion_2_sq1_laws():
    report, elapsed = _section(check_sq1_laws, random.Random(SEED))
    assert len(report.cases) == 200
    assert report.failures == 0, str(report)
    assert elapsed < 5.0
    _report(2, "Sq1 laws", elapsed, "200 samples, 0 failures")


def test_criterion_3_cartan_kernel():
    report, elapsed = _section(check_cartan, random.Random(SEED), 20)
    assert len(report.cases) == 200  # 100 ideal members, 100 square-free
    assert report.failures == 0, str(report)
    assert elapsed < 5.0
    _report(3, "Cartan kernel", elapsed, "100+100 samples, 0 failures")


def test_criterion_4_theorem1_biconditional():
    t0 = time.perf_counter()
    report = suite_theorem1(degree=16, seed=SEED)
    members = sum(c.params["member"] for c in report.cases)
    elapsed = time.perf_counter() - t0
    assert len(report.cases) == 200
    assert report.failures == 0, str(report)  # membership == oracle throughout
    assert 0 < members < 200  # the sample really mixes both kinds
    assert members == 109
    assert elapsed < 30.0
    _report(4, "Theorem 1 biconditional", elapsed,
            f"200 samples ({members} members), 0 disagreements")


def test_criterion_5_lemma3():
    t0 = time.perf_counter()
    report = suite_lemma3()
    elapsed = time.perf_counter() - t0
    assert len(report.cases) == 28  # 14 index sets, derived and verbatim
    assert report.failures == 0, str(report)
    # every half-index verbatim case, recorded as expected
    assert report.summary() == {"pass": 21, "fail": 0, "expected_mismatch": 7}
    mismatched = [c.params for c in report.cases if c.status == EXPECTED_MISMATCH]
    assert all(p["mode"] == "verbatim" and "1/2" in p["I"] for p in mismatched)
    assert elapsed < 30.0
    _report(5, "Lemma 3 expansion", elapsed,
            "14 cases, derived exact, 7 expected verbatim mismatches")


def test_criterion_6_feshbach_relations():
    t0 = time.perf_counter()
    report = suite_relations(max_rank=8, degree=24)
    elapsed = time.perf_counter() - t0
    assert report.failures == 0, str(report)
    total = len(report.cases)
    assert total == 212
    assert elapsed < 60.0
    _report(6, "Feshbach relations", elapsed, f"{total} cases, 0 failures")


def _integral_report(prefix: str) -> tuple:
    """The cases of one check_integral run whose id starts with prefix,
    and the run's time."""
    report, elapsed = _section(check_integral, random.Random(SEED), 24)
    report.cases = [c for c in report.cases if c.id.startswith(prefix)]
    return report, elapsed


def test_criterion_7_theorem2_closure():
    report, elapsed = _integral_report("theorem2[")
    assert len(report.cases) == 100
    assert report.failures == 0, str(report)
    assert elapsed < 30.0
    _report(7, "Theorem 2 closure", elapsed, "100 samples, 0 failures")


def test_criterion_8_theorem3_round_trip():
    report, elapsed = _integral_report("theorem3[")
    assert len(report.cases) == 100
    assert report.failures == 0, str(report)
    assert elapsed < 10.0
    _report(8, "Theorem 3 round trip", elapsed, "100 samples, 0 failures")


def test_criterion_9_parser_and_serialization():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    failures = 0
    for _ in range(250):
        x = random_mod2(rng, 16)
        if parse_mod2(str(x)) != x:
            failures += 1
        blob = dumps(x)
        if loads(blob) != x or dumps(loads(blob)) != blob:
            failures += 1
    for _ in range(250):
        y = random_integral_complexifiable(rng, 24)
        if parse_integral(str(y)) != y:
            failures += 1
        blob = dumps(y)
        if loads(blob) != y or dumps(loads(blob)) != blob:
            failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 5.0
    _report(9, "parser and serialization", elapsed, "500 classes, 0 failures")


def _dense_poly(nvars: int, maxdeg: int, shift: tuple = ()) -> MPoly2:
    keys = []

    def rec(i, rem, acc):
        if i == nvars:
            keys.append(tuple((j + 1, e) for j, e in enumerate(acc) if e))
            return
        weight = i + 1
        for e in range(rem // weight + 1):
            acc.append(e)
            rec(i + 1, rem - e * weight, acc)
            acc.pop()

    rec(0, maxdeg, [])
    if shift:
        from charclass.wring import mono_mul

        keys = [mono_mul(k, shift) for k in keys]
    return MPoly2(frozenset(keys), SW)


def test_criterion_10_performance_floor(capsys):
    a = _dense_poly(10, 20)
    b = _dense_poly(10, 20, shift=((2, 1),))
    assert len(a.monomials) == len(b.monomials) == 2430
    t0 = time.perf_counter()
    product = mul(a, b)
    product_time = time.perf_counter() - t0
    assert not product.is_zero()
    assert product_time < 1.0, f"dense product took {product_time:.2f}s"

    t0 = time.perf_counter()
    code = cli_main(["verify", "--suite", "all", "--degree", "24", "--rank", "8"])
    verify_time = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail" in out.splitlines()[-1]
    assert verify_time < 120.0, f"verify all took {verify_time:.1f}s"
    _report(10, "performance floor", product_time + verify_time,
            f"dense product {product_time:.2f}s, verify all {verify_time:.2f}s")
