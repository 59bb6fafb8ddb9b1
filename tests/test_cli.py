"""Command-line interface: output text, record format, and exit codes."""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

from baxtertrees.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, build_parser, main
from baxtertrees.scalars import MAX_DEGREE

import pytest


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse ends usage errors and help this way
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- products ---------------------------------------------------------------

def test_product_pinned_example(capsys):
    code, out, err = run(
        capsys, "product", "--family", "inf,2", "1(. 2 .)", "1(. 3 .)"
    )
    assert code == EXIT_OK
    assert out.strip() == "1(1(. 2 .) 3 .) + 1(. 2 1(. 3 .)) + l*1(. 5 .)"


def test_product_at_concrete_weight(capsys):
    code, out, _ = run(
        capsys, "product", "--family", "inf,2", "--lambda", "-1",
        "1(. 2 .)", "1(. 3 .)",
    )
    assert code == EXIT_OK
    assert "l" not in out
    assert "- 1(. 5 .)" in out


def test_star_includes_weighted_term(capsys):
    code, out, _ = run(capsys, "star", "--family", "inf,2", "1(. 1 .)", "1(. 1 .)")
    assert code == EXIT_OK
    assert "l" in out


def test_a_200_level_chain_first_product_answers(capsys):
    # Only the outermost product call pauses the collector, and circle and
    # star recurse through each other's memo: with a pausing wrapper at
    # every level the interpreter's recursion limit ended this near 160.
    chain = "."
    for _ in range(200):
        chain = f"1(. 1 {chain})"
    code, out, err = run(capsys, "product", "--family", "inf,inf", chain, "1(. 1 .)")
    assert (code, err) == (EXIT_OK, "")
    assert out.count(" + ") == 400  # 2k + 1 terms at k levels


def test_product_records_format(capsys):
    code, out, _ = run(
        capsys, "product", "--family", "inf,2", "--format", "records",
        "1(. 2 .)", "1(. 3 .)",
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    assert all(l.startswith("term\t") for l in lines)


# -- tables and series ------------------------------------------------------

def test_dims_pinned_row(capsys):
    code, out, _ = run(
        capsys, "dims", "--family", "2,2", "--max-n", "3", "--max-m", "3"
    )
    assert code == EXIT_OK
    rows = out.splitlines()
    assert rows[0].split()[0] == "n\\m"
    assert rows[3].split() == ["3", "0", "1", "6", "5"]


def test_dims_records(capsys):
    code, out, _ = run(
        capsys, "dims", "--family", "inf,2", "--max-n", "2", "--max-m", "2",
        "--format", "records",
    )
    assert code == EXIT_OK
    table = dict(l.split("\t") for l in out.splitlines() if l)
    assert table["2,1"] == "3"


def test_series_matches_dims(capsys):
    _, s_out, _ = run(
        capsys, "series", "--family", "2,2", "--max-n", "4", "--max-m", "4",
        "--format", "records",
    )
    _, d_out, _ = run(
        capsys, "dims", "--family", "2,2", "--max-n", "4", "--max-m", "4",
        "--format", "records",
    )
    assert dict(l.split("\t") for l in s_out.splitlines() if l) == dict(
        l.split("\t") for l in d_out.splitlines() if l
    )


def test_enumerate_lists_and_counts(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "2,2", "2", "2", "--format", "records"
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l]
    assert lines[-1] == "count\t2"
    assert len(lines) == 3
    assert all(l.startswith("tree\t") for l in lines[:-1])


# -- paths ------------------------------------------------------------------

def test_tree_to_path_pinned(capsys):
    code, out, _ = run(capsys, "tree-to-path", "1(. 1 1(. 1 .) 1 1(. 1 .))")
    assert code == EXIT_OK
    assert out.strip() == "HDHVVHV"


def test_tree_to_path_records(capsys):
    code, out, _ = run(capsys, "tree-to-path", "--format", "records",
                       "1(. 1 1(. 1 .) 1 1(. 1 .))")
    assert (code, out) == (EXIT_OK, "path\tHDHVVHV\nn\t4\nm\t3\n")


def test_path_round_trip(capsys):
    _, tree_out, _ = run(capsys, "path-to-tree", "HDHVVHV")
    code, path_out, _ = run(capsys, "tree-to-path", tree_out.strip())
    assert code == EXIT_OK
    assert path_out.strip() == "HDHVVHV"


def test_t_map_frozen_pair(capsys):
    _, out, _ = run(capsys, "t-map", "HDHVV")
    assert out.strip() == "DHVD"
    _, back, _ = run(capsys, "t-map", "DHVD")
    assert back.strip() == "HDHVV"


def test_classify_rows(capsys):
    code, out, _ = run(capsys, "classify", "HDHVV", "--format", "records")
    assert code == EXIT_OK
    rec = dict(l.split("\t") for l in out.splitlines() if l)
    assert rec["valid"] == "True"
    assert (rec["n"], rec["m"]) == ("3", "2")
    assert rec["plus_class"] == "True"

    code, out, _ = run(capsys, "classify", "UUD", "--format", "records")
    assert code == EXIT_OK
    rec = dict(l.split("\t") for l in out.splitlines() if l)
    assert rec["valid"] == "False"


def test_classify_infers_motzkin_from_colored_steps(capsys):
    for path in ("Hr Hb", "U D", "Ub Hr D"):
        _, out, _ = run(capsys, "classify", path, "--format", "records")
        assert out.startswith("kind\tmotzkin\n")
    _, out, _ = run(capsys, "classify", "H D V", "--format", "records")
    assert out.startswith("kind\tschroder\n")


def test_unknown_step_points_at_its_token(capsys):
    code, _, err = run(capsys, "classify", "HDVr")
    assert code == EXIT_PARSE
    assert err == "parse error: unknown step 'Vr' (at position 2: 'Vr')\n"
    code, _, err = run(capsys, "classify", "H V Vr")
    assert code == EXIT_PARSE
    assert err == "parse error: unknown step 'Vr' (at position 4: 'Vr')\n"
    code, _, err = run(capsys, "path-to-tree", " H  Xb V")
    assert code == EXIT_PARSE
    assert err == "parse error: unknown step 'Xb' (at position 3: 'Xb V')\n"


def test_rotate_directions(capsys):
    _, out, _ = run(capsys, "rotate", "HDHVV")
    assert out.strip() == "UHUDD"
    _, back, _ = run(capsys, "rotate", "UHUDD")
    assert back.strip() == "HDHVV"
    code, _, err = run(capsys, "rotate", "DD")
    assert code == EXIT_DOMAIN
    assert "domain error" in err


def test_to_motzkin_colored_reading(capsys):
    code, out, _ = run(capsys, "to-motzkin", "1(1(. 1 .) 1 1(. 1 .))")
    assert code == EXIT_OK
    assert all(step in ("Ur", "Ub", "Hr", "Hb", "D", "U", "H") for step in out.split())


# -- algebra commands -------------------------------------------------------

def test_beta_symbolic_and_at_weight(capsys):
    _, out, _ = run(capsys, "beta", "--family", "inf,2", "1(. 2 .)")
    assert out.strip() == "-l*1(. 2 .)"
    _, out, _ = run(capsys, "beta", "--family", "inf,2", "--lambda", "-1", "1(. 2 .)")
    assert out.strip() == "1(. 2 .)"


def test_morphism_example(capsys):
    code, out, _ = run(
        capsys, "morphism", "--family", "inf,inf", "--target", "2,2",
        "0(. 4 1(. 2 .) 1 1(. 5 .))",
    )
    assert code == EXIT_OK
    assert out.strip() == "0(. 1 1(. 1 .) 1 1(. 1 .))"


def test_morphism_wrong_direction(capsys):
    code, _, err = run(
        capsys, "morphism", "--family", "2,2", "--target", "inf,inf", "1(. 1 .)"
    )
    assert code == EXIT_DOMAIN
    assert "domain error" in err


def test_decompose_check(capsys):
    code, out, _ = run(
        capsys, "decompose-check", "--family", "inf,inf", "2(1(. 1 .) 3 .)"
    )
    assert code == EXIT_OK
    assert "ok" in out.lower()
    code, out, _ = run(
        capsys, "decompose-check", "--family", "inf,2", "1(1(. 1 .) 3 .)"
    )
    assert code == EXIT_OK


def test_decompose_check_records(capsys):
    code, out, _ = run(capsys, "decompose-check", "--family", "inf,inf",
                       "--format", "records", "1(1(. 1 .) 3 .)")
    assert code == EXIT_OK
    assert out.splitlines() == ["power\t1", "piece\t1(. 1 .)", "piece\t.",
                                "angle\t3", "recomposed\tok"]


def test_pi_closed_formula(capsys):
    code, out, _ = run(capsys, "pi", "--family", "inf,2", "0(. 2 1(. 3 .))")
    assert code == EXIT_OK
    assert out.strip() == "x0^2 x1^3"


def test_word_actions(capsys):
    _, out, _ = run(capsys, "word", "quotient", "x1^2 x0^2 x1")
    assert out.strip() == "x1 x0 x1"
    _, out, _ = run(capsys, "word", "concat", "x1 x0", "x0 x1", "--variant", "two")
    assert out.strip() == "x1 x0 x1"
    _, out, _ = run(capsys, "word", "beta", "x0 x1 x0")
    assert out.strip() == "x1^3"
    _, out, _ = run(capsys, "word", "degree", "x1^2 x0 x1", "--format", "records")
    rec = dict(l.split("\t") for l in out.splitlines() if l)
    assert (rec["n"], rec["m"]) == ("4", "2")


def test_twenty_digit_exponents_and_angles_print(capsys):
    big = "99999999999999999999"
    assert run(capsys, "word", "degree", f"x1^{big}") == (EXIT_OK, f"{big} 1\n", "")
    assert run(capsys, "pi", "--family", "inf,2", f"0(. {big} .)") == (
        EXIT_OK, f"x0^{big}\n", "")


@pytest.mark.parametrize("argv, err", [
    (["word", "normalize", "x1", "x0"], "normalize takes one word"),
    (["word", "degree", "x1", "x0^2"], "degree takes one word"),
    (["word", "concat", "x1"], "concat needs two words"),
])
def test_word_operand_count_is_a_domain_error(capsys, argv, err):
    assert run(capsys, *argv) == (EXIT_DOMAIN, "", f"domain error: {err}\n")


def test_dendriform_free_and_induced(capsys):
    _, out, _ = run(capsys, "dendriform", "--op", "left", "--variant", "trialgebra",
                    "((. .) .)", "(. .)")
    assert out.strip() == "((. .) (. .))"
    _, out, _ = run(capsys, "dendriform", "--op", "left", "--family", "inf,2",
                    "0(. 1 .)", "0(. 1 .)")
    assert out.strip() == "0(. 1 1(. 1 .))"


def test_embed_variants(capsys):
    _, out, _ = run(capsys, "embed", "((. .) .)")
    assert out.strip() == "0(1(. 1 .) 1 .)"
    _, out, _ = run(capsys, "embed", "--variant", "dialgebra", "((. .) .)")
    assert out.strip() == "0(1(. 1 .) 1 .)"
    _, out, _ = run(capsys, "embed", "(. . .)")
    assert out.strip() == "0(. 2 .)"


# -- exit codes -------------------------------------------------------------

def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["product", "--family", "3,2", "1(. 1 .)", "1(. 1 .)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parse_error_is_exit_3(capsys):
    code, _, err = run(capsys, "product", "--family", "2,2", "1(. 1", "1(. 1 .)")
    assert code == EXIT_PARSE
    assert "parse error" in err


LONG = "7" * 5000  # more digits than int() converts


@pytest.mark.parametrize("argv", [
    ["product", "--family", "inf,inf", "1(. ² .)", "1(. 1 .)"],
    ["word", "normalize", "x1^²"],
    ["beta", "--family", "inf,inf", f"1(. {LONG} .)"],
    ["product", "--family", "inf,inf", f"l^{LONG}*1(. 1 .)", "1(. 1 .)"],
    ["word", "normalize", f"x1^{LONG}"],
    ["word", "normalize", f"x1^{LONG}a"],
])
def test_non_decimal_and_overlong_numbers_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert len(err) < 100  # a long token is quoted cut short
    if argv[-1] == f"x1^{LONG}":
        assert err == f"parse error: number too long (at position 3: '{LONG[:12]}')\n"
    elif argv[0] == "word":
        assert err.startswith("parse error: bad exponent '")


# One command for each parse-error line that malformed commands of the
# benchmark's cli-session pool print; their stderr is part of its goldens.
@pytest.mark.parametrize("argv, line", [
    (["word", "normalize", "x1^a", "--variant", "infinity"],
     "parse error: bad exponent 'a' (at position 0: 'x1^a')"),
    (["word", "normalize", "x0^0", "--variant", "infinity"],
     "parse error: bad exponent '0' (at position 0: 'x0^0')"),
    (["word", "normalize", "x2", "--variant", "infinity"],
     "parse error: unknown letter 'x2' (at position 0: 'x2')"),
    (["rotate", "HXV"],
     "parse error: unknown step letter (at position 1: 'XV')"),
    (["beta", "--family", "inf,2", "0x(. 3 .)"],
     "parse error: expected '(' after node label (at position 1: 'x(. 3 .)')"),
    (["beta", "--family", "2,inf", "1x(. 1 .)"],
     "parse error: expected '(' after node label (at position 1: 'x(. 1 .)')"),
    (["beta", "--family", "inf,inf", "1x(. 3 3(. 1 .) 1 .)"],
     "parse error: expected '(' after node label (at position 1: 'x(. 3 3(. 1 ')"),
    (["beta", "--family", "2,2", "1x(1(. 1 .) 1 .)"],
     "parse error: expected '(' after node label (at position 1: 'x(1(. 1 .) 1')"),
    (["beta", "--family", "2,inf", "1x(. 1 2(. 1 .) 1 .)"],
     "parse error: expected '(' after node label (at position 1: 'x(. 1 2(. 1 ')"),
    (["beta", "--family", "inf,2", "0x(. 1 1(. 2 .))"],
     "parse error: expected '(' after node label (at position 1: 'x(. 1 1(. 2 ')"),
    (["product", "--family", "inf,2", "1(. 3 .", "1(. 3 .)"],
     "parse error: unterminated node (missing ')') (at position 7: '')"),
    (["product", "--family", "inf,2", "0(. 2 1(. 3 .)", "0(. 2 1(. 3 .))"],
     "parse error: unterminated node (missing ')') (at position 14: '')"),
    (["product", "--family", "2,2", "1(. 1 1(. 1 .) 1 .", "1(. 1 1(. 1 .) 1 .)"],
     "parse error: unterminated node (missing ')') (at position 18: '')"),
    (["product", "--family", "inf,inf", "(2*x)*1(. 1 .)", "1(. 1 .)"],
     "parse error: expected 'l' after '*' (at position 3: 'x)*1(. 1 .)')"),
    # Errors inside a later term of a combination report their offset in
    # the whole operand.
    (["product", "--family", "inf,inf", "1(. 1 .) + 1(. x .)", "1(. 1 .)"],
     "parse error: expected a number (at position 15: 'x .)')"),
    (["product", "--family", "inf,inf", "1(. 1 .) + (l+)*1(. 1 .)", "1(. 1 .)"],
     "parse error: expected a term (at position 14: ')*1(. 1 .)')"),
    (["product", "--family", "inf,inf", "1(. 1 .) + 2*1(. 1 .) x", "1(. 1 .)"],
     "parse error: trailing input after tree (at position 22: 'x')"),
])
def test_pinned_parse_error_lines(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_PARSE, "", line + "\n")


def test_domain_error_is_exit_4(capsys):
    # A free-angle tree handed to the forced-angle family.
    code, _, err = run(capsys, "product", "--family", "2,2", "1(. 2 .)", "1(. 1 .)")
    assert code == EXIT_DOMAIN
    assert "domain error" in err


@pytest.mark.parametrize("argv, line", [
    (["dims", "--family", "inf,inf", "--max-n", "0"],
     "domain error: the table needs max-n >= 1 and max-m >= 0"),
    (["series", "--family", "inf,inf", "--max-n", "13"],
     "domain error: orders must be between 1 and 12"),
    (["dendriform", "--op", "left", "--variant", "trialgebra", "--family", "inf,2",
      "(. .)", "(. .)"],
     "domain error: pass exactly one of --variant or --family"),
    (["pi", "--family", "inf,inf", "1(. 1 .)"],
     "domain error: word images exist for the collapsed-operator families only"),
    (["to-motzkin", "0(. 1 .)"],
     "domain error: root label must be 1 (raise a root-0 tree first)"),
])
def test_pinned_domain_error_lines(capsys, argv, line):
    assert run(capsys, *argv) == (EXIT_DOMAIN, "", line + "\n")


def test_weight_that_is_not_a_number_is_a_usage_error(capsys):
    code, out, err = run(capsys, "product", "--lambda", "foo", "--family", "inf,inf",
                         "1(. 1 .)", "1(. 1 .)")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("baxtertrees product: error: argument --lambda: "
                                    "expected 'sym' or an integer, got 'foo'")


NINES = "9" * 4300  # the most digits int() and str() convert


@pytest.mark.parametrize("argv", [
    # Two 4300-digit angles sum to a 4301-digit one.
    ["product", "--family", "inf,inf", f"1(. {NINES} .)", f"1(. {NINES} .)"],
    ["product", "--family", "inf,inf", "--format", "records",
     f"1(. {NINES} .)", f"1(. {NINES} .)"],
    # The operator raises a 4300-digit root label by one.
    ["beta", "--family", "inf,inf", f"{NINES}(. 1 .)"],
    # A coefficient squared.
    ["product", "--family", "inf,inf", f"{NINES}*1(. 1 .)", f"{NINES}*1(. 1 .)"],
    # Two 4300-digit exponents of x1 add up to a 4301-digit one.
    ["word", "concat", f"x1^{NINES}", f"x1^{NINES}"],
    ["word", "degree", f"x1^{NINES} x1^{NINES}"],
])
def test_numbers_too_long_to_print_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == ("domain error: a number of more than 4300 digits "
                   "is too long to print\n")


def test_numbers_of_4300_digits_still_print(capsys):
    eights = "8" * 4300
    code, out, _ = run(capsys, "beta", "--family", "inf,inf", f"{eights}(. 1 .)")
    assert (code, out) == (EXIT_OK, f"{eights[:-1]}9(. 1 .)\n")
    # At weight 0 the l-term, whose angle would have 4301 digits, drops.
    code, out, _ = run(capsys, "product", "--family", "inf,inf", "--lambda", "0",
                       f"1(. {NINES} .)", "1(. 1 .)")
    assert (code, out) == (EXIT_OK, f"1(1(. {NINES} .) 1 .) + 1(. {NINES} 1(. 1 .))\n")


BIG = "9" * 20  # a power of l far past MAX_DEGREE


@pytest.mark.parametrize("argv", [
    # The label excess becomes the weight power (-l)^excess.
    ["morphism", "--family", "inf,inf", "--target", "inf,2", f"{BIG}(. 1 .)"],
    # A coefficient names the power directly.
    ["product", "--family", "inf,inf", f"l^{BIG}*1(. 1 .)", "1(. 1 .)"],
    ["star", "--family", "inf,2", f"(1 - l^{BIG})*1(. 1 .)", "1(. 1 .)"],
])
def test_weight_powers_past_the_degree_limit_are_domain_errors(argv):
    # In a child process with capped memory and a timeout, so that a dense
    # power of this degree fails fast instead of filling the machine.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cap = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "baxtertrees", *argv], env=env,
        capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (done.returncode, done.stdout) == (EXIT_DOMAIN, "")
    assert done.stderr == (f"domain error: powers of l above l^{MAX_DEGREE} "
                           "are not supported\n")


def test_weight_powers_up_to_the_degree_limit_still_answer(capsys):
    code, out, _ = run(capsys, "morphism", "--family", "inf,inf", "--target", "inf,2",
                       "4000000(. 1 .)")
    assert (code, out) == (EXIT_OK, "-l^3999999*1(. 1 .)\n")


# -- parser reuse -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["product", "--family", "3,2", "1(. 1 .)", "1(. 1 .)"],
    ["enumerate", "--family", "2,2", "x", "1"],
    ["--help"],
    ["product", "--help"],
])
def test_repeated_usage_errors_and_help_print_the_same(capsys, argv):
    others = [
        ["product", "--family", "inf,2", "1(. 2 .)", "1(. 3 .)"],
        ["rotate", "HXV"],
        ["enumerate", "--family", "2,2", "1", "1", "--format", "records"],
        ["no-such-command"],
    ]
    first = run(capsys, *argv)
    for other in others:
        run(capsys, *other)
    assert run(capsys, *argv) == first
    code, out, err = first
    assert (out if code == 0 else err).startswith("usage: baxtertrees")


def test_build_parser_is_fresh_and_main_keeps_its_own(capsys):
    assert build_parser() is not build_parser()
    argv = ["--extra", "x", "dims", "--family", "2,2"]
    before = run(capsys, *argv)
    extended = build_parser()
    extended.add_argument("--extra")
    assert extended.parse_args(argv).extra == "x"
    assert run(capsys, *argv) == before
    assert before[0] == 2


def test_verify_quick_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples", "--budget", "quick")
    assert code == EXIT_OK
    assert "examples" in out and "0 failed" in out


def test_verify_quick_suite_records(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples", "--budget", "quick",
                       "--format", "records")
    assert code == EXIT_OK
    assert re.sub(r"time=\d+\.\d\ds", "time=…s", out) == (
        "examples\tpass=14 fail=0 time=…s\ntotal\tpass=14 fail=0\n")
