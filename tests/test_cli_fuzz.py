"""Seeded CLI fuzz: argv built from the expression grammar, run in-process.

Every run must end in a documented exit code (0 answer, 1 usage, 2 domain)
with no exception, and a second run of the same argv list in the same
process must give the same exit codes and output.  Exponents on
parenthesized groups reach 10**11 in `eval` and `sq1`, which read their
expression under the degree cap; the other commands elaborate a power in
full, so their group exponents stay at most 3.
"""

import random
import time

from charclass.cli import main
from charclass.feshbach import MAX_V_INDEX

RUNS = 1000
NON_ASCII = ("٣", "３", "२", "²")  # Arabic-Indic, fullwidth, Devanagari, superscript
# the atoms each command reads; c atoms and mixed letters are refused
MOD2, INTEGRAL = "w", "pV"
OTHER = ("c", "wp", "wV", "wpcV")
# (subcommand, weight): verify runs whole suites, so it is drawn rarely
COMMANDS = (("eval", 30), ("sq1", 15), ("rho", 15), ("complexifiable", 20),
            ("decompose", 15), ("chern-express", 15), ("verify", 1))


def _nat(rng) -> str:
    r = rng.random()
    if r < 0.02:
        return "0"
    if r < 0.04:
        return str(MAX_V_INDEX + rng.choice((1, 2, 10**6, 10**11)))
    if r < 0.05:
        return rng.choice(NON_ASCII)
    return str(rng.randint(1, 12))


def _atom(rng, letters: str) -> str:
    kind = rng.choice(letters + "1")
    if kind == "1":
        return str(rng.randint(0, 5))
    if kind == "V":
        idx = ["1/2" if rng.random() < 0.2 else _nat(rng) for _ in range(rng.randint(1, 3))]
        return "V{" + ",".join(idx) + "}"
    return kind + _nat(rng)


def _expr(rng, letters: str, depth: int = 0, capped: bool = False) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            if depth < 3 and rng.random() < 0.3:
                group = "(" + _expr(rng, letters, depth + 1, capped) + ")"
                if rng.random() < 0.4:
                    top = 10**11 if capped and rng.random() < 0.5 else 3
                    group += f"^{rng.randint(0, top)}"
                factors.append(group)
            else:
                atom = _atom(rng, letters)
                if rng.random() < 0.3:
                    atom += f"^{rng.randint(0, 99)}"  # at most 2 digits
                factors.append(atom)
        terms.append("*".join(factors))
    text = rng.choice(("", "-")) + rng.choice(("+", "-")).join(terms)
    if rng.random() < 0.03:  # a non-ASCII digit anywhere
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(NON_ASCII) + text[at:]
    return text


def _argv(rng) -> list:
    command = rng.choices([c for c, _ in COMMANDS], [w for _, w in COMMANDS])[0]
    degree = str(rng.randint(0, 24)) if rng.random() < 0.97 else rng.choice(NON_ASCII)
    if command == "verify":
        return ["verify", "--suite", rng.choice(("theorem1", "lemma3", "relations",
                                                 "identities", "all")),
                "--degree", degree, "--rank", str(rng.randint(0, 8)),
                "--seed", str(rng.randint(-3, 99))]
    integral = command in ("rho", "chern-express") or (
        command == "complexifiable" and rng.random() < 0.5)
    letters = INTEGRAL if integral else MOD2
    if rng.random() < 0.1:
        letters = rng.choice(OTHER)
    capped = command in ("eval", "sq1")
    argv = [command, "--expr=" + _expr(rng, letters, capped=capped)]  # text may start with '-'
    if command != "decompose":
        argv += ["--degree", degree]
        if rng.random() < 0.3:
            argv += ["--rank", str(rng.randint(0, 8))]
    if command == "eval" and rng.random() < 0.5:
        argv += ["--bundle", rng.choice(("universal", "trivial", "fiber",
                                         f"roots:{rng.randint(0, 5)}", "roots:٣"))]
    if command in ("eval", "sq1", "rho") and rng.random() < 0.3:
        argv.append("--json")
    if command == "complexifiable" and integral:
        argv.append("--integral")
    if command == "decompose" and rng.random() < 0.5:
        argv.append("--ideal")
    return argv


def test_cli_fuzz_exits_with_a_documented_code(capsys):
    rng = random.Random(2011)
    codes = {}
    start = time.perf_counter()
    runs = []
    for _ in range(RUNS):
        argv = _argv(rng)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes.setdefault(argv[0], set()).add(code)
        runs.append((argv, (code, out, err)))
    assert time.perf_counter() - start < 10
    # every subcommand ran, and every exit code occurred
    assert set(codes) == {c for c, _ in COMMANDS}
    assert set().union(*codes.values()) == {0, 1, 2}
    # a replay in the same process answers alike: the parser, built once per
    # process, keeps nothing from one call to the next
    for argv, first in runs:
        code = main(argv)
        assert (code, *capsys.readouterr()) == first, argv
