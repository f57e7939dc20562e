"""Command-line surface: flags, formats, exit codes, determinism."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from klingen import chartab, cli, dims, errors, groupfq, verify_lemmas


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestDim:
    def test_example_level_four(self):
        code, out, _ = run_cli("dim", "--q", "2", "--n", "4", "--sigma", "chi5",
                               "--mode", "both")
        assert code == 0
        assert "total 11" in out
        assert "agree true" in out

    def test_iwahori_vanishing(self):
        code, out, _ = run_cli("dim", "--q", "2", "--n", "1", "--sigma", "chi5")
        assert code == 0
        assert "total 0" in out

    def test_parity_mismatch_is_usage_error(self):
        code, out, err = run_cli("dim", "--q", "3", "--n", "4", "--sigma", "chi5")
        assert code == 1
        assert out == ""
        assert "usage error" in err

    def test_json_round_trip(self):
        code, out, _ = run_cli("dim", "--q", "2", "--n", "4", "--sigma", "chi5",
                               "-o", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "1"
        assert doc["total"] == 11
        assert doc["agree"] is True
        assert doc["by_family"][0] == {
            "family": "row1", "count": 6, "per_coset_dim": "1", "subtotal": 6,
        }
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_paramodular_origin_zero(self):
        code, out, _ = run_cli("dim", "--q", "5", "--n", "9", "--sigma", "typeII",
                               "--origin", "paramodular", "-o", "json")
        assert code == 0
        assert json.loads(out)["total"] == 0

    def test_disagreement_exit_code(self, monkeypatch):
        monkeypatch.setattr(dims, "_formula_value", lambda q, n, kind: 10**9)
        code, out, err = run_cli("dim", "--q", "2", "--n", "4", "--sigma", "chi5",
                                 "--mode", "both")
        assert code == 2
        assert "disagree" in err

    def test_negative_level_is_usage_error(self):
        code, _, err = run_cli("dim", "--q", "2", "--n", "-3", "--sigma", "chi5")
        assert code == 1
        assert "usage error" in err


class TestEnumerate:
    def test_counts_row(self):
        code, out, _ = run_cli("enumerate", "--q", "3", "--n", "4", "-o", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["count"] for r in doc["rows"]] == [6, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert doc["total_typeI"] == 12
        assert doc["total_typeII"] == 14
        row4 = doc["rows"][3]
        assert row4["dim_typeI"] == 4 and row4["subtotal_typeI"] == 4

    def test_minimal_level_single_nonzero_row(self):
        code, out, _ = run_cli("enumerate", "--q", "2", "--n", "2", "-o", "json")
        assert code == 0
        doc = json.loads(out)
        nonzero = [r for r in doc["rows"] if r["count"]]
        assert len(nonzero) == 1
        assert nonzero[0]["family"] == "row1"

    def test_level_zero_empty_with_note(self):
        code, out, _ = run_cli("enumerate", "--q", "2", "--n", "0", "-o", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == []
        assert doc["note"] == "dimension 0"
        code, out, _ = run_cli("enumerate", "--q", "2", "--n", "0")
        assert "dimension 0" in out

    def test_negative_level_usage(self):
        code, _, err = run_cli("enumerate", "--q", "2", "--n", "-1")
        assert code == 1


class TestTable:
    def test_corollary_sequence(self):
        code, out, _ = run_cli("table", "--q", "2", "--n", "1..8",
                               "--sigma", "chi5", "-o", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row[0] for row in doc["grid"]] == [0, 1, 4, 11, 22, 40, 64, 98]

    def test_odd_q_value(self):
        code, out, _ = run_cli("table", "--q", "3", "--n", "4", "--sigma", "x4",
                               "-o", "json")
        assert json.loads(out)["grid"] == [[12]]

    def test_family_sum_q_independent_at_two(self):
        code, out, _ = run_cli("table", "--q", "2,3", "--n", "2",
                               "--sigma", "typeI", "-o", "json")
        assert json.loads(out)["grid"] == [[1, 1]]

    def test_markdown_format(self):
        code, out, _ = run_cli("table", "--q", "3", "--n", "4", "--sigma", "x4",
                               "-o", "markdown")
        assert out.splitlines()[0] == "| n | q=3 |"
        assert "| 4 | 12 |" in out

    def test_csv_format(self):
        code, out, _ = run_cli("table", "--q", "2,3", "--n", "2,3",
                               "--sigma", "typeI", "-o", "csv")
        assert out.splitlines() == ["n,q=2,q=3", "2,1,1", "3,4,4"]

    def test_parity_error_in_list(self):
        code, _, err = run_cli("table", "--q", "2,3", "--n", "2", "--sigma", "x4")
        assert code == 1
        assert "usage error" in err

    def test_bad_range_usage(self):
        code, _, err = run_cli("table", "--q", "2", "--n", "8..1", "--sigma", "chi5")
        assert code == 1
        code, _, err = run_cli("table", "--q", "", "--n", "2", "--sigma", "chi5")
        assert code == 1


class TestVerify:
    def test_counts_suite_passes(self):
        code, out, _ = run_cli("verify", "counts", "--n-max", "8", "-o", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "counts"
        assert doc["suites"][0]["failures"] == []

    def test_rg_suite_small(self):
        code, out, _ = run_cli("verify", "rg", "--n-max", "3", "--budget", "400",
                               "--seed", "7", "-o", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_theorem_suite_small(self):
        code, out, _ = run_cli("verify", "theorem", "--n-max", "10",
                               "--q", "2,3", "-o", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["checks"] > 100

    def test_theorem_failure_lists_checks(self, monkeypatch):
        monkeypatch.setattr(dims, "_formula_value", lambda q, n, kind: 10**9)
        code, out, err = run_cli("verify", "theorem", "--n-max", "3", "--q", "2",
                                 "-o", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        fails = doc["suites"][0]["failures"]
        assert fails and all("expected" in f and "actual" in f for f in fails)

    def test_chartab_carrier_failure_exit(self, monkeypatch):
        # a wrong typeII pin leaves no virtual carrier: exit 2, one line
        pinned = verify_lemmas._pinned_value

        def bent(kind, family_kind, q):
            v = pinned(kind, family_kind, q)
            return v + 1 if (kind, family_kind) == ("A32", "typeII") else v

        monkeypatch.setattr(verify_lemmas, "_pinned_value", bent)
        code, out, err = run_cli("verify", "chartab")
        assert code == 2
        assert out == ""
        assert err.startswith("verification mismatch: ")
        assert "virtual typeII carrier" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_chartab_failed_check_is_listed(self, monkeypatch):
        # a wrong closed typeI value for S fails two lemma checks: they are
        # listed under the suite's failures, and verify all still runs the
        # other three suites
        monkeypatch.setitem(chartab._NAME_DIMS, "S", (lambda q: 5, lambda q: q - 1))
        code, out, err = run_cli("verify", "chartab", "-o", "json")
        assert (code, err) == (2, "")
        (suite,) = json.loads(out)["suites"]
        assert suite["passed"] is False
        assert {"name": "dim typeI^S (pinned classes)", "expected": "5",
                "actual": "1"} in suite["failures"]
        assert len(suite["failures"]) == 2
        code, out, err = run_cli("verify", "all", "--n-max", "2", "-o", "json")
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert [(s["suite"], s["passed"]) for s in doc["suites"]] == [
            ("chartab", False), ("counts", True), ("rg", True), ("theorem", True)]
        assert doc["suites"][0] == suite

    def test_broken_bruhat_cell_is_a_disagreement(self, monkeypatch):
        # GSp(4, 2) built without its longest Weyl cell has too few
        # elements: exit 2 with one line naming q and both counts, no
        # traceback
        monkeypatch.setattr(groupfq, "_WEYL_WORDS", groupfq._WEYL_WORDS[:-1])
        code, out, err = run_cli("verify", "chartab", "-o", "json")
        assert (code, out) == (2, "")
        assert err == ("disagreement: GSp(4,2) over F_2: 464 distinct of 464 "
                       "products, expected 720 elements\n")

    def test_rg_depth_limit_usage(self):
        code, _, err = run_cli("verify", "rg", "--n-max", "9")
        assert code == 1

    def test_plain_ends_with_verdict(self):
        code, out, _ = run_cli("verify", "counts", "--n-max", "4")
        assert out.rstrip().splitlines()[-1] == "pass"


class TestHarness:
    def test_byte_identical_reruns(self):
        a = run_cli("verify", "rg", "--n-max", "3", "--seed", "5", "-o", "json")
        b = run_cli("verify", "rg", "--n-max", "3", "--seed", "5", "-o", "json")
        assert a == b
        c = run_cli("table", "--q", "2,3", "--n", "1..12", "--sigma", "typeII",
                    "-o", "csv")
        d = run_cli("table", "--q", "2,3", "--n", "1..12", "--sigma", "typeII",
                    "-o", "csv")
        assert c == d

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("KLINGEN_SEED", "notanint")
        code, _, err = run_cli("verify", "rg", "--n-max", "2")
        assert code == 1
        assert "KLINGEN_SEED" in err
        # explicit flag wins over the environment
        code, _, _ = run_cli("verify", "rg", "--n-max", "2", "--seed", "3")
        assert code == 0

    def test_bad_flags_are_usage_errors(self):
        assert run_cli("dim", "--q", "2")[0] == 1            # missing --n/--sigma
        assert run_cli("frobnicate")[0] == 1                 # unknown command
        assert run_cli("verify", "nonsuite")[0] == 1
        assert run_cli("dim", "--q", "2", "--n", "2", "--sigma", "typeI",
                       "--precision-slack", "0")[0] == 1

    def test_parser_built_once_per_process(self):
        """A usage error between two runs of one command changes neither
        its output nor its exit code, and all three share one parser."""
        cli.build_parser.cache_clear()
        valid = ("dim", "--q", "3", "--n", "5", "--sigma", "typeII", "-o", "json")
        first = run_cli(*valid)
        assert first[0] == 0
        bad = run_cli("dim", "--q", "3", "--n", "five", "--sigma", "typeII")
        assert bad[0] == 1 and bad[2].startswith("usage error:")
        assert run_cli(*valid) == first
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "klingen.cli", "dim", "--q", "2", "--n", "2",
             "--sigma", "typeI"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "total 1" in proc.stdout


class TestRefusals:
    """Input the program cannot answer is refused with a documented exit
    code, and every error class ends in an exit code, never a traceback."""

    def test_dim_q_not_prime_power(self):
        code, out, err = run_cli("dim", "--q", "6", "--n", "4", "--sigma", "typeI")
        assert code == 1
        assert out == ""
        assert "6 is not a prime power" in err

    def test_table_q_not_prime_power(self):
        code, out, err = run_cli("table", "--q", "2,6", "--n", "2..4",
                                 "--sigma", "typeI")
        assert code == 1
        assert out == ""
        assert "6 is not a prime power" in err

    def test_closure_bound_is_resource_exit(self, monkeypatch):
        monkeypatch.setattr(groupfq, "CLOSURE_BOUND", 5)
        code, out, err = run_cli("verify", "rg", "--n-max", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("resource bound: ")

    @staticmethod
    def _instance(cls):
        if cls is errors.DisagreementError:
            return cls(2, 4, "typeI", 1, 2)
        if cls is errors.MismatchReport:
            return cls([("check", 1, 2)])
        return cls("injected")

    def test_every_error_class_has_an_exit_code(self, monkeypatch):
        classes = [obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, errors.KlingenError)]
        # every class is listed, and every listed class still exists
        assert set(classes) == set(cli._EXIT_OF)
        for cls in classes:
            # listed by name, so a new class needs a decision
            assert cls in cli._EXIT_OF, cls.__name__

            def raiser(args, out, cls=cls):
                raise self._instance(cls)
            monkeypatch.setitem(cli._COMMANDS, "dim", raiser)
            code, out, err = run_cli("dim", "--q", "2", "--n", "2", "--sigma", "typeI")
            assert code == cli._EXIT_OF[cls][0], cls.__name__
            assert code in (1, 2, 3)
            assert err.startswith(cli._EXIT_OF[cls][1] + ": ")
            assert "Traceback" not in err and err.count("\n") == 1


class TestBoundsAndFlags:
    """Levels too large to print are refused up front, verify counts refuses
    the q its skew oracle miscounts, and the resource flags and --seed live on verify."""

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_dim_huge_n_is_resource_bound(self, fmt):
        code, out, err = run_cli("dim", "--q", "2", "--n", "100000",
                                 "--sigma", "typeI", "-o", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("resource bound: q=2 n=100000: ")
        assert str(cli.DIGITS_BOUND) in err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--q", "2", "--n", "100000"),
        ("table", "--q", "2,3", "--n", "2,100000", "--sigma", "typeI"),
    ])
    def test_enumerate_and_table_huge_n(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert err.startswith("resource bound: ")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_largest_printable_level(self, fmt):
        # q^floor((n-2)/4) = 2^13287 has 4000 digits, the most allowed
        code, out, _ = run_cli("dim", "--q", "2", "--n", "53153",
                               "--sigma", "typeI", "-o", fmt)
        assert code == 0
        total = json.loads(out)["total"] if fmt == "json" else int(
            next(x for x in out.splitlines() if x.startswith("total "))[6:])
        assert total.bit_length() > 13287
        assert run_cli("dim", "--q", "2", "--n", "53154", "--sigma", "typeI",
                       "-o", fmt)[0] == 3

    @pytest.mark.parametrize("argv", [
        ("verify", "counts", "--q", "4", "--n-max", "8"),
        ("verify", "counts", "--q", "2,9"),
        ("verify", "all", "--q", "8", "--n-max", "3"),
    ])
    def test_counts_refuses_prime_powers(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert "skew_brute_count" in err and "open defect" in err

    @pytest.mark.parametrize("qs", ["3", "7,9", "2,3", "4"])
    def test_chartab_refuses_q_other_than_2(self, qs, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the chartab suite ran before --q was refused")

        monkeypatch.setattr(cli, "verify_char_lemmas", ran)
        code, out, err = run_cli("verify", "chartab", "--q", qs, "-o", "json")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: verify chartab checks the character "
                              "data at q=2 only; ")
        refused = next(q for q in qs.split(",") if q != "2")
        assert f"q={refused} is refused" in err
        assert "independent character-table check" in err
        assert "ROADMAP" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_chartab_at_q2_is_the_default_run(self, fmt):
        default = run_cli("verify", "chartab", "-o", fmt)
        assert default[0] == 0
        assert run_cli("verify", "chartab", "--q", "2", "-o", fmt) == default

    def test_all_runs_chartab_at_q2_whatever_q(self):
        code, out, _ = run_cli("verify", "all", "--q", "3", "--n-max", "2", "-o", "json")
        chartab = json.loads(run_cli("verify", "chartab", "-o", "json")[1])
        assert code == 0
        assert json.loads(out)["suites"][0] == chartab["suites"][0]

    @pytest.mark.parametrize("argv, suite, first", [
        (("verify", "counts", "--n-max", "0"), "counts", 1),
        (("verify", "counts", "--n-max", "-3"), "counts", 1),
        (("verify", "rg", "--n-max", "1"), "rg", 2),
        (("verify", "theorem", "--n-max", "-1"), "theorem", 0),
        (("verify", "all", "--n-max", "0"), "counts", 1),
    ])
    def test_n_max_below_first_level_refused(self, argv, suite, first):
        code, out, err = run_cli(*argv, "-o", "json")
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: verify {suite} ")
        assert f"--n-max >= {first}" in err

    def test_n_max_at_first_level_checks_something(self):
        for suite, first in (("counts", 1), ("rg", 2), ("theorem", 0)):
            code, out, _ = run_cli("verify", suite, "--n-max", str(first), "-o", "json")
            assert code == 0
            assert json.loads(out)["suites"][0]["checks"] > 0

    def test_rg_still_takes_prime_powers(self):
        assert run_cli("verify", "rg", "--q", "4", "--n-max", "2")[0] == 0

    def test_resource_flags_refused_everywhere(self):
        # the size bounds are library constants, settable by no subcommand
        for argv in (("dim", "--q", "2", "--n", "3", "--sigma", "typeI"),
                     ("enumerate", "--q", "2", "--n", "3"),
                     ("table", "--q", "2", "--n", "3", "--sigma", "typeI"),
                     ("verify", "rg", "--n-max", "3"),
                     ("verify", "chartab")):
            for flag in ("--precision-slack", "--closure-bound", "--group-bound"):
                code, out, err = run_cli(*argv, flag, "5")
                assert (code, out) == (1, "")
                assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "all", "--n-max", "8"),
        ("verify", "all", "--n-max", "21"),
        ("verify", "rg", "--n-max", "8"),
    ])
    def test_n_max_above_rg_levels_refused_before_any_suite(self, argv, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a suite ran before --n-max was refused")

        monkeypatch.setattr(cli, "verify_char_lemmas", ran)
        monkeypatch.setattr(cli, "skew_brute_count", ran)
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == ("usage error: the rg suite enumerates representatives of "
                       "the polynomial rows only (levels up to 7); use --n-max <= 7\n")

    def test_seed_only_on_verify(self):
        for argv in (("dim", "--q", "2", "--n", "4", "--sigma", "typeI"),
                     ("enumerate", "--q", "2", "--n", "4"),
                     ("table", "--q", "2", "--n", "4", "--sigma", "typeI")):
            code, out, err = run_cli(*argv, "--seed", "7")
            assert (code, out) == (1, "")
            assert "unrecognized arguments" in err

    def test_env_seed_ignored_outside_verify(self, monkeypatch):
        argv = ("dim", "--q", "2", "--n", "4", "--sigma", "typeI")
        plain = run_cli(*argv)
        monkeypatch.setenv("KLINGEN_SEED", "notanint")
        assert run_cli(*argv) == plain
        assert plain[0] == 0

    def test_env_seed_read_only_by_rg_suite(self, monkeypatch):
        argv = ("verify", "theorem", "--q", "2", "--n-max", "3", "-o", "json")
        plain = run_cli(*argv)
        monkeypatch.setenv("KLINGEN_SEED", "notanint")
        assert run_cli(*argv) == plain
        assert plain[0] == 0
        # a run that includes the rg suite refuses the seed before any suite
        code, out, err = run_cli("verify", "all")
        assert (code, out) == (1, "")
        assert "KLINGEN_SEED" in err
