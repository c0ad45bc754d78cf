import gc
import io
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from optsort import aspif
from optsort.analysis import binomial_document
from optsort.cli import main

from conftest import aspif_texts, enumerate_answer_sets

TWO_TERM_DOC = "asp 1 0 0\n1 1 2 1 2 0 0\n2 0 2 1 40 2 70\n0\n"


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRewriteCommand:
    def test_stdin_to_stdout(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin=TWO_TERM_DOC)
        assert code == 0
        assert err == ""
        assert out.startswith("asp 1 0 0\n") and out.endswith("\n0\n")
        assert "2 0 3 2 30 3 40 4 40" in out

    def test_depth_zero_is_byte_identical_to_canonical_input(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["rewrite", "--depth", "0"], stdin=TWO_TERM_DOC
        )
        assert code == 0 and out == TWO_TERM_DOC

    def test_identical_runs_produce_identical_bytes(self, capsys, monkeypatch):
        runs = [
            run(capsys, monkeypatch, ["rewrite", "--sparseness", "2"], stdin=TWO_TERM_DOC)[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_file_arguments_and_report(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "in.aspif"
        source.write_text(TWO_TERM_DOC)
        target = tmp_path / "out.aspif"
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["rewrite", str(source), "-o", str(target), "--report", str(report)],
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("asp 1 0 0\n")
        assert report.read_text() == (
            "priority 0: terms 2 -> 3 (wired 2, passed 0), "
            "network 2x1 size 1, atoms +2 (3..4), rules +3\n"
        )

    def test_a_negative_depth_is_refused_before_the_document_is_read(
        self, capsys, monkeypatch
    ):
        # at a terminal a read of stdin would wait, so even a malformed or
        # empty document gets the depth error
        refused = "error: depth limit must be >= 0, got -1\n"
        for stdin in [
            TWO_TERM_DOC,
            "asp 1 0 0\n0\n",
            "asp 1 0 0\n1 1 1 1 0 0\n",
            "asp 1 0 0\n1 0 1 x 0 0\n0\n",
            "",
        ]:
            assert run(capsys, monkeypatch, ["rewrite", "--depth", "-1"], stdin) == (2, "", refused)

    @pytest.mark.parametrize("command", ["rewrite", "render 4"])
    def test_a_sparseness_below_one_is_refused(self, capsys, monkeypatch, command):
        with pytest.raises(SystemExit) as stop:
            run(capsys, monkeypatch, [*command.split(), "--sparseness", "0"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --sparseness: sparseness must be >= 1\n"
        )

    @pytest.mark.parametrize("option", ["--report"])
    def test_an_unwritable_side_file_leaves_stdout_empty(
        self, tmp_path, capsys, monkeypatch, option
    ):
        path = tmp_path / "missing" / "side.txt"
        code, out, err = run(
            capsys, monkeypatch, ["rewrite", option, str(path)], stdin=TWO_TERM_DOC
        )
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_missing_terminator_warns_on_stderr_only(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["rewrite"], stdin="asp 1 0 0\n1 0 1 1 0 0\n"
        )
        assert code == 0
        assert "warning" in err
        assert "warning" not in out
        aspif.parse(out)

    def test_parse_errors_exit_with_two(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin="garbage\n")
        assert code == 2 and out == "" and "error" in err

    @pytest.mark.parametrize("command", ["rewrite", "verify"])
    @pytest.mark.parametrize("line", ["1 0 1 1 0 1 0", "2 0 2 0 5 1 -3"])
    def test_literal_zero_is_a_parse_error(self, capsys, monkeypatch, command, line):
        doc = f"asp 1 0 0\n1 1 1 1 0 0\n{line}\n0\n"
        code, out, err = run(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: ") and err.count("\n") == 1
        assert "literal 0 is not allowed" in err

    @pytest.mark.parametrize("command", ["rewrite", "verify"])
    @pytest.mark.parametrize(
        "line", ["1 0 -1 0 0", "1 0 1 1 1 -5 -1", "2 0 -3", "4 1 a -2"]
    )
    def test_negative_count_is_a_parse_error(self, capsys, monkeypatch, command, line):
        doc = f"asp 1 0 0\n1 1 1 1 0 0\n{line}\n0\n"
        code, out, err = run(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: negative ") and err.count("\n") == 1

    @pytest.mark.parametrize("code_token", ["04", "+4"])
    def test_output_code_spelled_differently_is_rewritten(
        self, capsys, monkeypatch, code_token
    ):
        doc = f"asp 1 0 0\n{code_token} 1 a 0\n0\n"
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        assert code == 0 and err == ""
        assert out == "asp 1 0 0\n4 1 a 0\n0\n"

    @pytest.mark.parametrize(
        "line,literal,weight",
        [
            ("2 0 2 1 2147483647 1 1", "1", "2147483648"),
            ("2 0 2 -1 -2147483648 -1 -1", "-1", "-2147483649"),
        ],
    )
    def test_merged_weight_overflow_is_refused(
        self, capsys, monkeypatch, line, literal, weight
    ):
        doc = f"asp 1 0 0\n{line}\n0\n"
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        assert code == 2 and out == ""
        assert err == (
            f"error: merged weight {weight} of literal {literal} leaves the 32-bit range\n"
        )

    def test_oversized_rewrite_is_refused_up_front(self, capsys, monkeypatch):
        terms = " ".join(f"{a} 1" for a in range(1, 100_001))
        doc = f"asp 1 0 0\n2 0 100000 {terms}\n0\n"
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: wiring 100000 objective terms")
        assert "budget" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "atoms,highest",
        [
            ((2147483644, 2147483645), None),
            ((2147483645, 2147483646), 2147483648),
            ((2147483643, 2147483644, 2147483645), 2147483654),
        ],
    )
    def test_fresh_atoms_stay_in_the_32_bit_range(self, capsys, monkeypatch, atoms, highest):
        # two terms take two wire atoms above the input's highest atom, three
        # terms take nine
        terms = " ".join(f"{a} 1" for a in atoms)
        doc = f"asp 1 0 0\n2 0 {len(atoms)} {terms}\n0\n"
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        if highest is None:
            assert code == 0 and err == "" and " 2147483647 " in out
        else:
            assert (code, out) == (2, "")
            assert err == f"error: fresh atom {highest} leaves the 32-bit range\n"

    def test_fresh_atoms_above_an_input_atom_past_32_bits_are_the_users(
        self, capsys, monkeypatch
    ):
        doc = "asp 1 0 0\n2 0 2 5 1 3000000000 1\n0\n"
        code, out, err = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        assert code == 0 and err == "" and "\n1 0 1 3000000001 0 2 5 3000000000\n" in out

    def test_unknown_statements_pass_through(self, capsys, monkeypatch):
        doc = "asp 1 0 0\n3 4 2\n1 1 2 1 2 0 0\n2 0 2 1 4 2 9\n0\n"
        code, out, _ = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        assert code == 0 and "\n3 4 2\n" in out


@given(aspif_texts())
@settings(max_examples=100, deadline=None)
def test_random_documents_exit_cleanly(text):
    for command in ("rewrite", "verify"):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = main([command])
        assert code in (0, 1, 2), (command, code)
        assert "Traceback" not in err.getvalue()
        if command == "rewrite" and code == 0:
            aspif.parse(out.getvalue())


class TestGenerators:
    def test_gen_binomial_round_trips(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["gen-binomial", "4", "2", "--opt"])
        assert code == 0 and err == ""
        doc = aspif.parse(out)
        assert any(isinstance(s, aspif.Minimize) for s in doc.statements)

    def test_gen_binomial_warns_on_unsatisfiable_bounds(self, capsys, monkeypatch):
        # the always-firing constraint's bound is written as 0, never negative
        huge = "99999999999999999999999"
        for n, k in [("2", "3"), ("0", "3"), ("3", "5"), ("3", huge)]:
            code, out, err = run(capsys, monkeypatch, ["gen-binomial", n, k])
            assert code == 0 and "no answer sets" in err
            (constraint,) = [line for line in out.split("\n") if line.startswith("1 0 0 1 ")]
            assert constraint.split(" ")[4] == "0", (n, k)
            program, _ = aspif.to_ground_program(aspif.parse(out))
            assert enumerate_answer_sets(program) == [], (n, k)

    def test_an_oversized_binomial_is_refused_before_it_is_built(self):
        # a child capped at 1 GiB of address space: building the document
        # would need tens of GB
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(__file__).resolve().parents[1] / "src"
        argv = [sys.executable, "-m", "optsort.cli", "gen-binomial", "100000000", "1"]
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        done = subprocess.run(
            argv, capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60
        )
        assert time.perf_counter() - start < 10
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: gen-binomial 100000000 could print 3500000064 bytes, "
            "over the budget of 33554432\n"
        )

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 100, 1000, 10_000])
    def test_the_binomial_byte_bound_covers_what_is_printed(self, capsys, monkeypatch, n):
        # a budget of exactly the bound admits every k, one byte less refuses
        bound = n * (3 * len(str(n)) + 8) + 64
        monkeypatch.setattr("optsort.analysis.GEN_BYTE_BUDGET", bound)
        for k in {0, n // 2, n, n + 1}:
            code, out, _ = run(capsys, monkeypatch, ["gen-binomial", str(n), str(k), "--opt"])
            assert code == 0 and len(out.encode()) <= bound
        monkeypatch.setattr("optsort.analysis.GEN_BYTE_BUDGET", bound - 1)
        code, out, err = run(capsys, monkeypatch, ["gen-binomial", str(n), "0"])
        assert (code, out) == (2, "")
        assert err == (
            f"error: gen-binomial {n} could print {bound} bytes, over the budget of {bound - 1}\n"
        )

    def test_gen_sorter_stats(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen-sorter", "8"])
        assert code == 0
        assert out.strip() == "width=8 depth=6 comparators=19"

    def test_gen_sorter_depth_limit(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen-sorter", "8", "--depth", "1"])
        assert code == 0 and "depth=1" in out

    @pytest.mark.parametrize("command", ["gen-sorter", "render"])
    def test_oversized_sorter_is_refused_up_front(self, capsys, monkeypatch, command):
        # the rule budget that rewrite applies to the same sorter
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, [command, "100000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: a sorter on 100000 wires")
        assert "budget" in err and "Traceback" not in err


class TestVerifyCommand:
    def test_pipe_pattern_succeeds_end_to_end(self, capsys, monkeypatch):
        _, generated, _ = run(capsys, monkeypatch, ["gen-binomial", "5", "2", "--opt"])
        _, rewritten, _ = run(
            capsys, monkeypatch, ["rewrite", "--depth", "4"], stdin=generated
        )
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=rewritten)
        assert code == 0, err
        assert "FAIL" not in out
        assert out.count("ok") == 30

    def test_random_sweep_is_deterministic_and_green(self, capsys, monkeypatch):
        args = ["verify", "--random", "--count", "3", "--seed", "7"]
        code1, out1, _ = run(capsys, monkeypatch, args)
        code2, out2, _ = run(capsys, monkeypatch, args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "verified 3 programs x 30 configurations" in out1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--seed", "3"], "--seed applies only with --random"),
            (["verify", "--count", "5"], "--count applies only with --random"),
            (["verify", "--seed", "3", "--count", "5"], "--seed applies only with --random"),
            (
                ["verify", "missing.aspif", "--random"],
                "verify --random reads no input, got the file 'missing.aspif'",
            ),
        ],
    )
    def test_a_flag_that_does_not_apply_is_refused_before_any_input_is_read(
        self, capsys, monkeypatch, argv, message
    ):
        # at a terminal a read of stdin would wait; the file does not exist
        class Unread(io.StringIO):
            def read(self, *args):
                raise AssertionError("stdin was read")

        monkeypatch.setattr("sys.stdin", Unread())
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    def test_a_terminal_stdin_is_read_as_the_document(self, capsys, monkeypatch):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setattr("sys.stdin", Terminal(TWO_TERM_DOC))
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 30 and out.count(" ok answer_sets=4\n") == 30

    def test_seventeen_over_eight_verifies_at_default_flags(self, capsys, monkeypatch):
        # 272 atoms (17 input, 255 full-depth wire atoms) over 2^17 lanes:
        # 3.6e7 lane bits, well inside the lane budget
        _, generated, _ = run(capsys, monkeypatch, ["gen-binomial", "17", "8", "--opt"])
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=generated)
        assert (code, err) == (0, "")
        assert out.count(" ok answer_sets=") == 30 and "FAIL" not in out

    def test_weights_past_two_to_the_53_are_summed_exactly(self, capsys, monkeypatch):
        # the three terms reach at most 3 * 10^16, below the bound, so the
        # constraint never fires and all 8 subsets of the choice are answer
        # sets; a bound divided as a float rounds to three terms and drops one
        doc = (
            "asp 1 0 0\n1 1 3 1 2 3 0 0\n1 0 0 1 30000000000000001 3 "
            "1 10000000000000000 2 10000000000000000 3 10000000000000000\n0\n"
        )
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=doc)
        assert (code, err) == (0, "")
        assert out.count("\n") == 30 and out.count(" ok answer_sets=8\n") == 30

    def test_sum_constraints_with_negative_zero_and_repeated_weights_verify(
        self, capsys, monkeypatch
    ):
        # a choice over 1..6 under 3[1] + 2[2] + 2[not 3] + [4] + [4] + 4[5]
        # + 0[not 6] >= 7 and [1] - [not 2] + 2[3] >= 2, each forbidden
        doc = (
            "asp 1 0 0\n1 1 6 1 2 3 4 5 6 0 0\n1 0 0 1 7 7 1 3 2 2 -3 2 4 1 4 1 5 4 -6 0\n"
            "1 0 0 1 2 3 1 1 -2 -1 3 2\n2 0 4 1 2 -2 3 5 1 6 4\n0\n"
        )
        program, _ = aspif.to_ground_program(aspif.parse(doc))
        assert len(enumerate_answer_sets(program)) == 20
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=doc)
        assert (code, err) == (0, "")
        assert out.count("\n") == 30 and out.count(" ok answer_sets=20\n") == 30
        _, rewritten, _ = run(capsys, monkeypatch, ["rewrite"], stdin=doc)
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=rewritten)
        assert (code, err) == (0, "")
        assert out.count(" ok ") == 30

    def test_max_atoms_is_a_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as stop:
            run(capsys, monkeypatch, ["verify", "--max-atoms", "16"], stdin=TWO_TERM_DOC)
        captured = capsys.readouterr()
        assert stop.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --max-atoms\n")

    def test_more_guessed_atoms_than_the_guard_are_refused(self, capsys, monkeypatch):
        _, generated, _ = run(capsys, monkeypatch, ["gen-binomial", "25", "12", "--opt"])
        code, out, err = run(
            capsys, monkeypatch, ["verify"], stdin=generated
        )
        assert (code, out) == (2, "")
        assert err == "error: 25 atoms exceed the brute-force guard of 24\n"

    def test_an_input_whose_lanes_cannot_fit_is_refused_before_the_grid_starts(
        self, capsys, monkeypatch
    ):
        # 20 guessed atoms, 256 rules h :- a, b and one minimize over their
        # heads: 276 input atoms plus 36 sorter columns of 256 wire atoms at
        # full depth, each over 2^20 lanes
        rng = random.Random(5)
        heads = range(21, 277)
        lines = ["asp 1 0 0", "1 1 20 " + " ".join(map(str, range(1, 21))) + " 0 0"]
        for h in heads:
            a, b = rng.sample(range(1, 21), 2)
            lines.append(f"1 0 1 {h} 0 2 {a} {b}")
        lines += ["2 0 256 " + " ".join(f"{h} {rng.randint(1, 9)}" for h in heads), "0"]

        def started(*args):
            raise AssertionError("the grid started")

        monkeypatch.setattr("optsort.rewrite.enumerate_answer_sets_layered", started)
        monkeypatch.setattr("optsort.rewrite.verify_rewrite", started)
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin="\n".join(lines))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: closing 9492 atoms over 2^20 answer lanes would take "
            "9953083392 lane bits, over the budget of 4294967296\n"
        )

    @pytest.mark.parametrize("budget,refused", [(110 << 10, False), ((110 << 10) - 1, True)])
    def test_the_lane_budget_counts_input_and_wire_atoms(
        self, capsys, monkeypatch, budget, refused
    ):
        # gen-binomial 10 5 --opt: 10 input atoms and 10 full-depth sorter
        # columns of 10 wire atoms, over 2^10 lanes
        monkeypatch.setattr("optsort.rewrite.VERIFY_LANE_BUDGET", budget)
        _, generated, _ = run(capsys, monkeypatch, ["gen-binomial", "10", "5", "--opt"])
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=generated)
        if refused:
            assert (code, out) == (2, "")
            assert err.startswith("error: closing 110 atoms over 2^10 answer lanes")
        else:
            assert (code, err) == (0, "") and out.count(" ok ") == 30

    def test_an_over_budget_rewrite_is_refused_before_the_grid_starts(
        self, capsys, monkeypatch
    ):
        # nothing is enumerated, verified or built: the full-depth rewrite's
        # rule budget refuses 20 000 terms with the error rewrite gives
        def started(*args):
            raise AssertionError("the grid started")

        monkeypatch.setattr("optsort.rewrite.enumerate_answer_sets_layered", started)
        monkeypatch.setattr("optsort.rewrite.verify_rewrite", started)
        monkeypatch.setattr("optsort.rewrite.oe_sorter", started)
        terms = " ".join(f"{a} 1" for a in range(1, 20_001))
        doc = f"asp 1 0 0\n2 0 20000 {terms}\n0\n"
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=doc)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == (
            "error: wiring 20000 objective terms into sorting networks could add "
            "3600000 rules, over the budget of 2097152\n"
        )
        monkeypatch.undo()
        assert run(capsys, monkeypatch, ["rewrite"], stdin=doc)[2] == err

    @pytest.mark.parametrize(
        "first,budget,error",
        [
            (1, 300, "wiring 64 objective terms into sorting networks could add 2016 rules, "
             "over the budget of 300"),
            (2**31 - 201, None, "fresh atom 2147484854 leaves the 32-bit range"),
        ],
        ids=["rule-budget", "32-bit"],
    )
    def test_verify_refuses_with_the_line_rewrite_prints(
        self, capsys, monkeypatch, first, budget, error
    ):
        # 64 unit terms: the depth-4 rewrite alone would refuse with another
        # line, at 384 rules or at fresh atom 2147483766
        if budget is not None:
            monkeypatch.setattr("optsort.rewrite.REWRITE_RULE_BUDGET", budget)
        terms = " ".join(f"{a} 1" for a in range(first, first + 64))
        doc = f"asp 1 0 0\n2 0 64 {terms}\n0\n"
        for command in ("rewrite", "verify"):
            assert run(capsys, monkeypatch, [command], doc) == (2, "", f"error: {error}\n")

    def test_negative_count_is_refused(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["verify", "--random", "--count", "-3"])
        assert code == 2 and out == ""
        assert err == "error: --count must be >= 0, got -3\n"

    def test_an_over_budget_count_is_refused_before_any_program_is_checked(
        self, capsys, monkeypatch
    ):
        def checked(document):
            raise AssertionError("a program was checked")

        monkeypatch.setattr("optsort.cli.verify_grid", checked)
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["verify", "--random", "--count", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: verify --random --count 100000000 would check 100000000 x 30 "
            "configurations, over the budget of 32768\n"
        )

    def test_a_count_of_exactly_the_budget_is_admitted(self, capsys, monkeypatch):
        monkeypatch.setattr("optsort.rewrite.RANDOM_VERIFY_BUDGET", 60)
        code, out, _ = run(capsys, monkeypatch, ["verify", "--random", "--count", "2"])
        assert code == 0 and out.endswith("verified 2 programs x 30 configurations\n")
        code, out, err = run(capsys, monkeypatch, ["verify", "--random", "--count", "3"])
        assert (code, out) == (2, "")
        assert err.endswith("would check 3 x 30 configurations, over the budget of 60\n")


class TestPchCommand:
    def test_bare_binomial_table_value(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["pch", "10", "5", "--network", "none"])
        assert code == 0
        assert out.strip() == "m=252 complete=true"

    def test_full_network_is_linear(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["pch", "8", "4", "--network", "full"])
        assert code == 0
        m = int(out.split("m=")[1].split()[0])
        assert m <= 5

    def test_depth_limited_network(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["pch", "6", "3", "--network", "depth:2"])
        assert code == 0 and out.startswith("m=")

    def test_trace_lines(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["pch", "4", "2", "--trace"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7  # six calls plus the summary
        assert lines[0].startswith("call 1:")

    def test_bad_bounds_exit_with_two(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["pch", "3", "5"])
        assert code == 2 and "error" in err

    def test_unknown_network_kind(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["pch", "3", "2", "--network", "magic"])
        assert code == 2 and "unknown network kind" in err

    @pytest.mark.parametrize("kind", ["depth:x", "depth:-1", "depth:", "depth", "Full"])
    def test_malformed_network_names_the_option_and_its_forms(
        self, capsys, monkeypatch, kind
    ):
        code, out, err = run(capsys, monkeypatch, ["pch", "3", "1", "--network", kind])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"{kind!r} for --network" in err
        assert "'none', 'full' or 'depth:D'" in err

    def test_over_budget_enumeration_is_refused(self, capsys, monkeypatch):
        for n in ("24", "25"):
            code, out, err = run(capsys, monkeypatch, ["pch", n, "12"])
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "budget" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["100000000", "1"],
                "closing 2^100000000 choice subsets over 0 rules costs about "
                "2^100000000 x 100000000 steps, over the budget of 4194304",
            ),
            (
                ["20000", "1"],
                "closing 2^20000 choice subsets over 0 rules costs about "
                "2^20000 x 20000 steps, over the budget of 4194304",
            ),
            (
                ["30000000", "1", "--network", "full"],
                "a sorter on 30000000 wires could add 14625000000 rules, "
                "over the budget of 2097152",
            ),
        ],
        ids=["bare-1e8", "bare-20000", "full-3e7"],
    )
    def test_an_oversized_pch_is_refused_before_anything_is_built(self, argv, error):
        # a child capped at 1 GiB of address space: the program or the
        # sorter would need tens of GB, and 2^20000 has more digits than
        # Python prints
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "optsort.cli", "pch", *argv],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {error}\n")

    def test_over_budget_network_is_refused_before_it_is_attached(self, capsys, monkeypatch):
        # 2048 wires x 66 levels plus 58 367 comparators: 193 535 rules
        def attach(*args):
            raise AssertionError("attach_network ran")

        monkeypatch.setattr("optsort.cli.attach_network", attach)
        code, out, err = run(capsys, monkeypatch, ["pch", "2048", "1024", "--network", "full"])
        assert code == 2 and out == ""
        assert err.startswith("error: closing 2^2048 choice subsets over 193535 rules costs about ")
        assert err.endswith(" steps, over the budget of 4194304\n")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["15", "7", "--network", "full"],
                "closing 2^15 choice subsets over 209 rules costs about 7340032 steps, "
                "over the budget of 4194304",
            ),
            (
                ["18", "9"],
                "closing 2^18 choice subsets over 0 rules costs about 4718592 steps, "
                "over the budget of 4194304",
            ),
        ],
        ids=["full-15", "bare-18"],
    )
    def test_the_pre_check_alone_refuses_just_past_the_budget(
        self, capsys, monkeypatch, argv, error
    ):
        # run_pch checks no cost itself: the CLI refuses before it builds
        def attach(*args):
            raise AssertionError("attach_network ran")

        monkeypatch.setattr("optsort.cli.attach_network", attach)
        code, out, err = run(capsys, monkeypatch, ["pch", *argv])
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_a_full_sorter_just_within_the_budget_runs(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["pch", "14", "7", "--network", "full"])
        assert (code, out, err) == (0, "m=8 complete=true\n", "")


class TestRenderCommand:
    def test_bare_diagram(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["render", "4"])
        assert code == 0
        assert len(out.rstrip("\n").split("\n")) == 4

    @pytest.mark.parametrize("n,drawing", [(0, "\n"), (1, "--\n"), (2, "-o--\n-o--\n")])
    def test_the_drawing_ends_in_one_newline(self, capsys, monkeypatch, n, drawing):
        code, out, _ = run(capsys, monkeypatch, ["render", str(n)])
        assert code == 0 and out == drawing

    def test_weight_annotations_show_propagated_values(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["render", "4", "--weights", "40,50,90,70"]
        )
        assert code == 0
        for label in ("10", "20", "30", "40"):
            assert label in out

    def test_weight_count_must_match_width(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["render", "4", "--weights", "1,2"])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("extra", [[], ["--no-propagate"]])
    def test_weight_count_is_checked_before_drawing(self, capsys, monkeypatch, extra):
        code, out, err = run(capsys, monkeypatch, ["render", "3", "--weights", "1,2", *extra])
        assert code == 2 and out == ""
        assert err == "error: expected 3 weights, got 2\n"

    @pytest.mark.parametrize("weights", ["a,b,c", "1,,3", ""])
    def test_non_integer_weights_name_the_option(self, capsys, monkeypatch, weights):
        code, out, err = run(capsys, monkeypatch, ["render", "3", "--weights", weights])
        assert code == 2 and out == ""
        assert err == (
            f"error: --weights expects 3 comma-separated integers, got {weights!r}\n"
        )


    def test_an_oversized_drawing_is_refused_before_it_is_drawn(self, capsys, monkeypatch):
        monkeypatch.setattr("optsort.network.RENDER_BYTE_BUDGET", 1000)
        code, out, err = run(capsys, monkeypatch, ["render", "32"])
        assert code == 2 and out == ""
        assert err == "error: a drawing of 32 wires would take 3744 bytes, over the budget of 1000\n"

    def test_an_oversized_drawing_is_refused_before_its_weights_propagate(
        self, capsys, monkeypatch
    ):
        def place(*args):
            raise AssertionError("place_weights ran")

        monkeypatch.setattr("optsort.cli.place_weights", place)
        monkeypatch.setattr("optsort.network.RENDER_BYTE_BUDGET", 1000)
        code, out, err = run(capsys, monkeypatch, ["render", "32", "--weights", ",".join("1" * 32)])
        assert code == 2 and out == ""
        assert err == "error: a drawing of 32 wires would take 3744 bytes, over the budget of 1000\n"

    def test_labels_that_pass_the_budget_are_refused_after_propagation(
        self, capsys, monkeypatch
    ):
        # the bare drawing fits exactly; its labels push it over
        monkeypatch.setattr("optsort.network.RENDER_BYTE_BUDGET", 3744)
        code, out, err = run(capsys, monkeypatch, ["render", "32", "--weights", ",".join("1" * 32)])
        assert code == 2 and out == ""
        assert err.startswith("error: a drawing of 32 wires would take ")
        assert err.endswith(" bytes, over the budget of 3744\n") and " 3744 bytes" not in err


class TestCyclicCollector:
    """``main`` runs with the cyclic collector off and hands it back."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, stdin, outcome",
        [
            (["rewrite"], TWO_TERM_DOC, 0),
            (["rewrite"], "xxx\n", 2),
            ([], "", SystemExit),
        ],
    )
    def test_main_restores_the_callers_setting(
        self, capsys, monkeypatch, enabled, argv, stdin, outcome
    ):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome is SystemExit:
                with pytest.raises(SystemExit):
                    run(capsys, monkeypatch, argv, stdin)
            else:
                assert run(capsys, monkeypatch, argv, stdin)[0] == outcome
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def garbage_left_by(capsys, monkeypatch, argv, stdin):
        """Objects only the cyclic collector could free after one call."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, monkeypatch, argv, stdin)[0] == 0
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    @staticmethod
    def binomial_with_rules(n, k, rules):
        """``gen-binomial n k --opt`` plus a normal and a weight rule per extra atom."""
        lines = aspif.write(binomial_document(n, k, opt=True)).split("\n")[:-2]
        for a in range(n + 1, n + rules + 1):
            lines += [f"1 0 1 {a} 0 1 -{a - 1}", f"1 0 0 1 1 1 {a} 1"]
        return "\n".join([*lines, "0", ""])

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["rewrite"], [(8, 4, 0), (64, 32, 0)]),
            (["rewrite"], [(8, 4, 8), (8, 4, 512)]),
            (["verify"], [(4, 2, 0), (8, 4, 0)]),
        ],
    )
    def test_garbage_does_not_grow_with_the_input(self, capsys, monkeypatch, argv, sizes):
        # every statement is acyclic, so what is left for the collector is a
        # fixed per-call amount (the argument parser), not a per-rule one
        texts = [self.binomial_with_rules(*size) for size in sizes]
        self.garbage_left_by(capsys, monkeypatch, argv, texts[0])  # warm up
        counts = [self.garbage_left_by(capsys, monkeypatch, argv, text) for text in texts]
        assert counts[0] == counts[1]


class TestUsage:
    def test_missing_subcommand_exits_with_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_with_two(self, capsys, monkeypatch):
        # the last three are options that were removed
        for argv in (
            ["rewrite", "--bogus"],
            ["verify", "--jobs", "2"],
            ["rewrite", "--sort-inputs"],
            ["gen-sorter", "4", "--diagram"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            captured = capsys.readouterr()
            assert excinfo.value.code == 2, argv
            assert captured.out == "", argv
            assert "unrecognized arguments" in captured.err, argv
            assert "Traceback" not in captured.err, argv


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """Each ``$ optsort ...`` line in a README code block, with the lines shown under it."""
    examples, current, fenced = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ optsort "):
            current = (line.removeprefix("$ optsort ").split(), [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


class TestReadmeExamples:
    def test_the_readme_shows_pch_and_a_weighted_drawing(self):
        commands = [argv[0] for argv, _ in readme_examples()]
        assert commands.count("pch") >= 2 and "render" in commands

    @pytest.mark.parametrize(
        "argv,shown", [pytest.param(*case, id=" ".join(case[0])) for case in readme_examples()]
    )
    def test_each_example_prints_what_the_readme_shows(self, capsys, monkeypatch, argv, shown):
        code, out, err = run(capsys, monkeypatch, argv)
        assert (code, err) == (0, "")
        assert out.splitlines() == shown
