"""CLI behavior: commands, exit codes, determinism, and report files."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charclass
from charclass import cli
from charclass.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout=60, **environ):
    """A fresh interpreter with the package on its path, and `environ` set."""
    env = dict(os.environ, **environ)
    src = str(Path(charclass.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_complexifiable_true(capsys):
    code, out, _ = run(capsys, "complexifiable", "--expr", "w1^2*w3^2")
    assert (code, out) == (0, "true\n")


def test_complexifiable_false_is_a_decision(capsys):
    code, out, _ = run(capsys, "complexifiable", "--expr", "w1")
    assert (code, out) == (0, "false\n")


def test_complexifiable_integral(capsys):
    code, out, _ = run(capsys, "complexifiable", "--expr", "V{1}^2", "--integral")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "complexifiable", "--expr", "V{1}", "--integral")
    assert (code, out) == (0, "false\n")


def test_chern_express(capsys):
    code, out, _ = run(capsys, "chern-express", "--expr", "p1")
    assert (code, out) == (0, "-c2\n")


def test_eval_bundles(capsys):
    code, out, _ = run(capsys, "eval", "--expr", "w2^2", "--bundle", "universal",
                       "--degree", "8")
    assert (code, out) == (0, "w2^2\n")
    code, out, _ = run(capsys, "eval", "--expr", "w1", "--bundle", "fiber",
                       "--degree", "8")
    assert (code, out) == (0, "v1\n")
    code, out, _ = run(capsys, "eval", "--expr", "w1", "--bundle", "roots:3",
                       "--degree", "8")
    assert (code, out) == (0, "r1 + r2 + r3\n")
    code, out, _ = run(capsys, "eval", "--expr", "w1", "--bundle", "trivial",
                       "--degree", "4")
    assert (code, out) == (0, "0\n")
    # a rank cap truncates the w_i, not the bundle's roots: all of e3
    e3 = " + ".join("*".join(f"r{i}" for i in c)
                    for c in itertools.combinations(range(1, 6), 3)) + "\n"
    for rank in ((), ("--rank", "3")):
        code, out, _ = run(capsys, "eval", "--expr", "w3", "--bundle", "roots:5",
                           "--degree", "24", *rank)
        assert (code, out) == (0, e3), rank
    code, out, _ = run(capsys, "eval", "--expr", "w4", "--bundle", "roots:5",
                       "--degree", "24", "--rank", "3")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "eval", "--expr", "w1^2 + w2", "--json",
                       "--degree", "8")
    assert code == 0
    assert json.loads(out) == {"type": "mod2", "monomials": [[[1, 2]], [[2, 1]]]}


def test_sq1_and_rho(capsys):
    code, out, _ = run(capsys, "sq1", "--expr", "w2", "--degree", "10")
    assert (code, out) == (0, "w1*w2 + w3\n")
    code, out, _ = run(capsys, "rho", "--expr", "V{1}", "--degree", "10")
    assert (code, out) == (0, "w1*w2 + w3\n")
    code, out, _ = run(capsys, "rho", "--expr", "V{1}", "--degree", "10",
                       "--rank", "2")
    assert (code, out) == (0, "w1*w2\n")


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--expr", "w2^4 + w1^2*w3^2")
    assert (code, out) == (0, "u1*u3 + u2^2\n")
    code, out, _ = run(capsys, "decompose", "--expr", "w1^2*w2", "--ideal")
    assert (code, out) == (0, "w1^2*(w2)\n")
    code, out, _ = run(capsys, "decompose", "--expr", "1", "--ideal")
    assert (code, out) == (0, "0\n")


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "--expr", "w0")
    assert code == 1
    assert "positive" in err
    # the end of the text is named as such, at its position
    for argv, message in [
        (["eval", "--expr", "w1 +"], "expected an atom, found end of input (at position 4)"),
        (["eval", "--expr", ""], "expected an atom, found end of input (at position 0)"),
        (["eval", "--expr", "(w1"], "expected ')', found end of input (at position 3)"),
        (["rho", "--expr", "V{1/2"], "expected ',' or '}', found end of input (at position 5)"),
        (["rho", "--expr", "V{0}"], "index must be positive (at position 2)"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert message in err, argv


def test_roots_bundle_needs_ascii_digits(capsys):
    for raw in ("\u0663", "\u00b2", "", "0", "-2", " 3"):
        code, out, err = run(capsys, "eval", "--expr", "w1", "--bundle", f"roots:{raw}",
                             "--degree", "8")
        assert (code, out) == (1, ""), raw
        assert "roots:<m> needs a positive integer" in err, raw


def test_over_long_digit_strings_exit_1(capsys):
    # int() refuses strings of more than 4,300 digits by default
    nines = "9" * 5000
    for argv, message in [
        (["eval", "--expr", f"w{nines}"], "number of 5000 digits is too long"),
        (["rho", "--expr", f"V{{{nines}}}"], "number of 5000 digits is too long"),
        (["rho", "--expr", f"{nines}*p1"], "number of 5000 digits is too long"),
        (["eval", "--expr", "w1", "--bundle", f"roots:{nines}"],
         "roots:<m> needs a positive integer"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv[:2]
        assert message in err and "int_max_str_digits" not in err, argv[:2]


def test_mixed_expression_exit_1(capsys):
    code, _, err = run(capsys, "eval", "--expr", "w1 + p1")
    assert code == 1
    # the first problem in text order is reported: a term is built, and its
    # atoms refused, before the syntax after it is read
    code, out, err = run(capsys, "complexifiable", "--expr", "p1+(")
    assert (code, out) == (1, "")
    assert "p1 is not a mod-2 atom" in err
    # but the whole text is tokenized first, so a lexical error wins anywhere
    code, out, err = run(capsys, "complexifiable", "--expr", "p1+@")
    assert (code, out) == (1, "")
    assert "unexpected character '@'" in err


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "decompose", "--expr", "w1")
    assert code == 2
    assert "odd exponent" in err
    code, _, err = run(capsys, "decompose", "--expr", "w1*w2", "--ideal")
    assert code == 2
    code, _, err = run(capsys, "chern-express", "--expr", "V{1}")
    assert code == 2
    # rho refuses an index set that is not a class of the rank-n ring
    for expr, shown in (("V{3}", "{3}"), ("V{1/2,2}", "{1/2,2}")):
        code, out, err = run(capsys, "rho", "--expr", expr, "--rank", "4")
        assert (code, out) == (2, ""), expr
        assert f"index set {shown} is not valid at rank 4" in err, expr


def test_caps_too_small_exit_2(capsys):
    code, _, err = run(capsys, "complexifiable", "--expr", "V{5}^2",
                       "--integral", "--degree", "4")
    assert code == 2
    # at degree 0 a square-free witness has no variable to contain
    for suite in ("identities", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--degree", "0")
        assert (code, out) == (2, ""), suite
        assert "identities suite needs degree_cap >= 1, got 0" in err, suite


def test_usage_error_exit_1(capsys):
    code, _, _ = run(capsys, "eval")  # missing --expr
    assert code == 1
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1
    code, _, err = run(capsys, "eval", "--expr", "w1", "--bundle", "moebius")
    assert code == 1
    # a negative cap, also one the suite does not read, and an unknown suite
    for argv in (["--suite", "relations", "--rank", "-3"],
                 ["--suite", "lemma3", "--degree", "-7"],
                 ["--suite", "theorem1", "--degree", "-1"],
                 ["--suite", "bogus"]):
        code, out, _ = run(capsys, "verify", *argv)
        assert (code, out) == (1, ""), argv


def test_negative_caps_exit_1_in_every_command(capsys):
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    checked = []
    for name, sub in commands.choices.items():
        required = []
        for action in sub._actions:
            if action.required:
                required += [action.option_strings[0],
                             action.choices[0] if action.choices else "1"]
        options = {s for action in sub._actions for s in action.option_strings}
        for cap in ("--degree", "--rank"):
            if cap in options:
                code, out, err = run(capsys, name, *required, cap, "-1")
                assert (code, out) == (1, ""), (name, cap)
                assert "must be a nonnegative integer" in err, (name, cap)
                checked.append(name)
    assert "complexifiable" in checked and "verify" in checked


def test_default_degree_env(capsys, monkeypatch):
    # the default degree cap is 24 whatever the environment holds
    for env in ("4", "not-a-number"):
        monkeypatch.setenv("CHARCLASS_DEFAULT_DEGREE", env)
        assert run(capsys, "eval", "--expr", "w1^3*w2") == (0, "w1^3*w2\n", ""), env
        assert run(capsys, "eval", "--expr", "w24 + w25") == (0, "w24\n", ""), env


def test_verify_deterministic_and_report(capsys, tmp_path):
    args = ["verify", "--suite", "lemma3", "--degree", "24", "--rank", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0  # expected mismatches do not fail the suite
    assert out1 == out2
    assert "expected-mismatch" in out1

    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--degree", "16",
                       "--rank", "4", "--report", str(path))
    assert code == 0
    blob = json.loads(path.read_text())
    assert blob["suite"].startswith("relations")
    assert blob["summary"]["fail"] == 0
    assert blob["summary"]["pass"] == len(blob["cases"])
    assert all(c["status"] == "pass" for c in blob["cases"])


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    report = tmp_path / "report.json"
    commands = [
        ["verify", "--suite", "all", "--degree", "24", "--rank", "8", "--report", str(report)],
        ["eval", "--expr", "w2*w3 + w1^3*w4 + w5*w6 + w7", "--bundle", "fiber", "--degree", "16"],
        ["rho", "--expr", "V{1/2,2}^2 + p1*V{3} + V{1,2,3} + p2"],
    ]
    outputs = []
    for seed in ("0", "12345"):
        procs = [run_python("-m", "charclass", *argv, PYTHONHASHSEED=seed) for argv in commands]
        assert [p.returncode for p in procs] == [0, 0, 0], [p.stderr for p in procs]
        outputs.append(([p.stdout for p in procs], report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_report_to_unwritable_path_exit_1(capsys, tmp_path):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "verify", "--suite", "lemma3", "--degree", "12",
                             "--rank", "4", "--report", str(path))
        assert code == 1
        assert "suite lemma3" in out
        assert err.startswith("charclass: error: cannot write report")
        assert err.count("\n") == 1


def test_verify_all_smoke(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--degree", "12",
                       "--rank", "4", "--seed", "7")
    assert code == 0
    assert "suite all" in out


def test_deep_nesting_exit_1(capsys):
    deep = "(" * 5000 + "w1" + ")" * 5000
    for argv in (["eval", "--expr", deep],
                 ["complexifiable", "--integral", "--expr", deep.replace("w", "p")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "nest deeper" in err and "Traceback" not in err
    nested = "(" * 100 + "w1+w2" + ")" * 100
    assert run(capsys, "eval", "--expr", nested)[:2] == (0, "w1 + w2\n")


def test_non_ascii_digit_exit_1(capsys):
    code, out, err = run(capsys, "eval", "--expr", "w\u00b2")
    assert (code, out) == (1, "")
    assert "unexpected character" in err and "position 1" in err
    assert "Traceback" not in err


def test_integer_options_read_ascii_digits_only(capsys):
    # int() would read each of these: Arabic-Indic, fullwidth and Devanagari
    # digits, '_' separators and surrounding spaces
    for raw in ("٣", "３", "२", " 1_0 ", "1_0", " 3", "3 ", "+3", "-", ""):
        for option, argv in (("--degree", ["eval", "--expr", "w1"]),
                             ("--rank", ["rho", "--expr", "V{1}"]),
                             ("--seed", ["verify", "--suite", "theorem1"])):
            code, out, err = run(capsys, *argv, option, raw)
            assert (code, out) == (1, ""), (option, raw)
            assert f"argument {option}: invalid integer value" in err
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--degree", "4",
                       "--seed", "-3")
    assert code == 0 and "seed=-3" in out
    assert run(capsys, "eval", "--expr", "w1^3*w2", "--degree", "04")[:2] == (0, "0\n")


def test_v_index_limit(capsys):
    from charclass.feshbach import MAX_V_INDEX

    code, out, _ = run(capsys, "rho", "--expr", f"V{{{MAX_V_INDEX}}}")
    assert (code, out) == (0, "0\n")  # degree 1 + 2 * MAX_V_INDEX is above the cap
    for expr in (f"V{{1,{MAX_V_INDEX + 1}}}", f"V{{{MAX_V_INDEX + 1}}}+("):
        code, out, err = run(capsys, "rho", "--expr", expr)
        assert (code, out) == (2, ""), expr
        assert f"V index {MAX_V_INDEX + 1} is above the limit {MAX_V_INDEX}" in err, expr


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--suite", "relations", "--rank", "4"]
    proc = run_python("-m", "charclass", *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out and proc.stdout == out


def test_parser_built_once_per_process(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        first = run(capsys, "eval", "--expr", "w2 + w1", "--degree", "8")
        assert first == (0, "w1 + w2\n", "")
        assert run(capsys, "eval", "--degree", "8")[0] == 1  # missing --expr
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "eval", "--expr", "w2 + w1", "--degree", "8") == first
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


def test_parser_reuse_after_usage_error_and_help(capsys):
    assert run(capsys, "eval", "--degree", "8")[0] == 1  # missing --expr
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: charclass")
    code, out, _ = run(capsys, "eval", "--help")
    assert code == 0 and "--bundle" in out
    assert run(capsys, "eval", "--expr", "w2 + w1", "--degree", "8") == (0, "w1 + w2\n", "")


def test_numpy_loads_only_for_packed_products():
    code = (
        "import sys\n"
        "from charclass import cli, wring\n"
        "assert cli.main(['eval', '--expr', 'w3 + w1*w2', '--degree', '8']) == 0\n"
        "print('numpy' in sys.modules)\n"
        "a = wring.add_all(wring.w(i) for i in range(1, 66))\n"
        "wring.mul(a, a)  # 65 * 65 = 4,225 term pairs: the packed kernel\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "w1*w2 + w3\nFalse\nTrue\n"


@pytest.mark.parametrize("atom, degree", [("p1", 399999999996), ("V{1}", 299999999997)])
@pytest.mark.parametrize("command", [["rho"], ["chern-express"],
                                     ["complexifiable", "--integral"]])
def test_huge_atom_powers_answer_at_once(command, atom, degree):
    # a power of an atom is one monomial: no e-fold product, so no hang; a
    # subprocess with a timeout makes a regression fail instead of block
    argv = [*command, "--expr", f"{atom}^99999999999", "--degree", "24"]
    proc = run_python("-m", "charclass", *argv, timeout=20)
    if command == ["rho"]:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"needs degree_cap >= {degree}, got 24" in proc.stderr


def test_degree_help_shows_the_default_in_use(capsys):
    for command in ("eval", "verify"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "degree cap (default 24)" in out, command


@pytest.mark.parametrize("argv, out", [
    (["eval", "--expr", "(w1+w2)^99999999999"], "0\n"),
    (["eval", "--expr", "(w1+w2)^99999999999", "--bundle", "fiber"], "0\n"),
    # 100000000037 ends in binary 100101, so by Lucas's theorem the binomial
    # coefficients below degree 24 are odd at k = 0, 1, 4, 5 only
    (["eval", "--expr", "(1+w1)^100000000037"], "1 + w1 + w1^4 + w1^5\n"),
    (["sq1", "--expr", "(1+w2)^100000000037"], "w1*w2 + w3 + w1*w2^5 + w2^4*w3\n"),
    (["sq1", "--expr", "w1*(w1+w2+w3)^99999999999", "--rank", "2"], "0\n"),
])
def test_huge_group_powers_answer_under_the_degree_cap(argv, out):
    # eval and sq1 read their expression in the degree-capped quotient, so a
    # power of a sum stops growing at the cap; the child's address space and
    # time are limited, so a regression fails instead of filling memory
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from charclass.cli import main; "
            f"sys.exit(main({[*argv, '--degree', '24']!r}))")
    proc = run_python("-c", code, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
