"""Mutation checks: faults planted one at a time, each with the tests that
must catch it.

Each row of MUTANTS replaces one snippet, which occurs exactly once, in one
source file, and names the tests that must fail once it is planted.  For
each mutant the script copies the repository (without .git and bench/out)
to a temporary directory, plants that one mutant there and runs only its
tests.  The mutant is killed when they fail and survives when they pass.
First, all the mutants' tests run once with no mutant planted, and must
pass.

    python tools/mutants.py

Prints one line per mutant and exits 1 if any survived.  Stdlib only; the
tests run under the interpreter running this script, which needs pytest.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, any of which failing kills the mutant


MUTANTS = [
    # Sq1's w1*m term for every monomial with an odd exponent, where an even
    # count of odd exponents cancels it.
    Mutant("sq1-w1-term-per-odd-exponent", "src/charclass/steenrod.py",
           "if len(odd) % 2 else []", "if odd else []",
           ("tests/test_steenrod.py::test_leibniz_cancellation_example",
            "tests/test_steenrod.py::test_leibniz_rule_random")),
    # The Wu formula without its w_{j+1} term: still a derivation that
    # kills squares and squares to zero.
    Mutant("sq1-no-wu-swap", "src/charclass/steenrod.py",
           "if j % 2 == 0:", "if False:",
           ("tests/test_steenrod.py::test_generator_rule",
            "tests/test_steenrod.py::test_root_oracle_agrees")),
    # No squared exterior generator is ever dropped.
    Mutant("repeats-v-never", "src/charclass/wring.py",
           'the scan stops at the first w."""\n',
           'the scan stops at the first w."""\n    return False\n',
           ("tests/test_acceptance.py::test_criterion_3_cartan_kernel",
            "tests/test_bundlecalc.py::test_cartan_restrict_examples")),
    # rho(V_I) as the square of prod w_{2i} instead of its Sq1.
    Mutant("rho-image-squares-v", "src/charclass/feshbach.py",
           "return sq1(doubled_w_monomial(", "return square(doubled_w_monomial(",
           ("tests/test_acceptance.py::test_criterion_5_lemma3",
            "tests/test_complexifiability.py::test_lemma3_spot_cases")),
    # Packed products lose their constant monomials.
    Mutant("decode-drops-empty-rows", "src/charclass/wring.py",
           "keys, lo = [()] * sizes[0], sizes[0]", "keys, lo = [], sizes[0]",
           ("tests/test_wring.py::test_decode_matches_a_per_row_decode",)),
    # The free part keeps coefficients that sum to zero.
    Mutant("collect-free-keeps-zeros", "src/charclass/feshbach.py",
           "for k, c in acc.items() if c]", "for k, c in acc.items()]",
           ("tests/test_feshbach.py::test_int_ring_axioms_random",
            "tests/test_expr.py::test_json_rejects_malformed_and_noncanonical")),
    # The free part sorted by key alone, not by degree first.
    Mutant("collect-free-sorts-by-key", "src/charclass/feshbach.py",
           "key=lambda kc: (_p_degree(kc[0]), kc[0])", "key=lambda kc: kc[0]",
           ("tests/test_feshbach.py::test_int_mul_and_rho_match_brute_force",)),
    # One relation sweep table for every degree cap: a call at one cap reads
    # the cases another cap's calls left.
    Mutant("sweep-table-shared-by-caps", "src/charclass/feshbach.py",
           "_stable_table(degree_cap)", "_stable_table(0)",
           ("tests/test_feshbach.py::test_shared_table_never_changes_a_report",)),
    # Stable left-hand sides keyed without J, so cases sharing a family and
    # an I read one another's.  (Keyed by (I, J) without the family is an
    # equivalent mutant: families 2, 3 and 4 ask disjoint conditions of the
    # pair and family 5 has no J, so the pair names the family.)
    Mutant("sweep-images-keyed-without-j", "src/charclass/feshbach.py",
           "key = k, i, j", "key = k, i",
           ("tests/test_feshbach.py::test_shared_table_never_changes_a_report",)),
    # One rho memo for every rank cap at a degree cap: a call at one rank
    # reads products made from another rank's images.
    Mutant("rho-memo-keyed-by-degree-cap", "src/charclass/feshbach.py",
           "_rho_memo(ctx)", "_rho_memo(RingContext(ctx.degree_cap))",
           ("tests/test_feshbach.py::test_shared_rho_memo_never_changes_an_answer",)),
    # A rho memo kept for a context with no degree cap, where nothing bounds
    # its products.
    Mutant("rho-memo-kept-uncapped", "src/charclass/feshbach.py",
           "(None, None) if ctx.degree_cap is None else ", "",
           ("tests/test_feshbach.py::test_shared_rho_memo_never_changes_an_answer",)),
    # A parse error placed at the token after the one it names.
    Mutant("parse-error-position-off-by-one", "src/charclass/expr.py",
           "ParseError(message, starts[k])", "ParseError(message, starts[k + 1])",
           ("tests/test_expr.py::test_parse_error_positions",
            "tests/test_expr.py::test_parse_outcomes_match_the_pinned_corpus")),
    # The atom read in place accepts index 0, as in w0.
    Mutant("in-place-atom-skips-index-check", "src/charclass/expr.py",
           'raise self.error("index must be positive", k + 1)', "pass",
           ("tests/test_expr.py::test_parse_rejects_zero_index",
            "tests/test_expr.py::test_parse_outcomes_match_the_pinned_corpus")),
]


def _ignore(folder: str, names: list) -> list:
    skip = {".git", "__pycache__", ".pytest_cache"}
    if Path(folder) == ROOT / "bench":
        skip.add("out")  # benchmark results, tens of MB
    return [n for n in names if n in skip]


def _fails(tests: tuple, mutant: Mutant | None = None) -> bool:
    """Whether the tests fail in a copy of the repository, with the mutant
    planted there when one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_ignore)
        if mutant is not None:
            path = tree / mutant.file
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
            path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if done.returncode not in (0, 1):  # 1: tests failed; else none ran
            raise SystemExit(f"pytest exited {done.returncode} on {' '.join(tests)}")
        return done.returncode == 1


def main() -> int:
    if _fails(tuple({t: None for m in MUTANTS for t in m.tests})):
        raise SystemExit("the mutants' tests fail with no mutant planted")
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed = _fails(mutant.tests, mutant)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':8}  {mutant.name}"
              f"  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
