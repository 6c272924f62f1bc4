"""End-to-end checks of the command-line front end, run in process."""

import io

import pytest

from votelab import ReductionReport, TieBreak, parse_profile, parse_rule, winner
from votelab.cli import main

from helpers import condorcet_of

CYCLE = "candidates: A B C\nvote w=1 A>B>C\nvote w=1 B>C>A\nvote w=1 C>A>B\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def write(tmp_path):
    def _write(text, name="profile.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def witness_profile(out, **kwargs):
    """Re-parse the profile printed after the witness: marker."""
    assert "witness:\n" in out
    text = out.split("witness:\n", 1)[1]
    profile, _ = parse_profile(text, **kwargs)
    return profile


class TestWinner:
    def test_plain(self, capsys, write):
        path = write("candidates: A B C\nvote w=3 A>B>C\nvote w=2 B>C>A\nvote w=2 C>B>A\n")
        code, out, err = run(capsys, "winner", path, "--rule", "plurality")
        assert (code, out, err) == (0, "winner: A\n", "")

    def test_tie_breaks(self, capsys, write):
        path = write(CYCLE)
        for tb, expected in [("lex", "A"), ("favor:B", "B"), ("against:A", "B")]:
            code, out, _ = run(capsys, "winner", path, "--rule", "copeland", "--tb", tb)
            assert code == 0
            assert out == f"winner: {expected}\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("candidates: A B\nvote w=1 B>A\n"))
        code, out, _ = run(capsys, "winner", "-", "--rule", "borda")
        assert (code, out) == (0, "winner: B\n")

    def test_repeat_runs_are_bit_identical(self, capsys, write):
        path = write(CYCLE)
        first = run(capsys, "winner", path, "--rule", "stv")
        second = run(capsys, "winner", path, "--rule", "stv")
        assert first == second

    def test_flags_accepted(self, capsys, write):
        path = write("candidates: A B\nvote w=2 A>B\n")
        code, out, _ = run(
            capsys, "winner", path, "--rule", "plurality", "--no-strict-odd", "--single-thread"
        )
        assert (code, out) == (0, "winner: A\n")


class TestElicitationVerbs:
    def test_coarse_over_decided(self, capsys, write):
        path = write("candidates: A B\nvote w=7 A>B\nunknown w=2\n")
        code, out, _ = run(capsys, "coarse-over", path, "--rule", "plurality")
        assert (code, out) == (0, "answer: true\n")

    def test_coarse_over_open(self, capsys, write):
        path = write("candidates: A B\nvote w=4 A>B\nvote w=3 B>A\nunknown w=2\n")
        code, out, _ = run(capsys, "coarse-over", path, "--rule", "plurality")
        assert (code, out) == (0, "answer: false\n")

    def test_coarse_over_hybrid_dispatch(self, capsys, write):
        path = write("candidates: A B C\nvote w=7 A>B>C\nunknown w=2\n")
        code, out, _ = run(capsys, "coarse-over", path, "--rule", "hybrid:(B,C)")
        assert (code, out) == (0, "answer: true\n")

    def test_whole_ballot_hybrid_takes_one_path_through_both_verbs(self, capsys, write):
        path = write(
            "candidates: A B C D E F\nvote w=5 A>B>C>D>E>F\nvote w=4 F>E>D>C>B>A\nunknown w=4\n"
        )
        for verb in ("coarse-over", "fine-over"):
            code, out, err = run(capsys, verb, path, "--rule", "hybrid:(A,B)(C,D)(E,F)")
            assert (code, out, err) == (0, "answer: false\n", "")

    def test_fine_over_complete_is_over(self, capsys, write):
        path = write("candidates: A B C\nvote w=1 A>B>C\n")
        code, out, _ = run(capsys, "fine-over", path, "--rule", "cup:((A,B),C)")
        assert (code, out) == (0, "answer: true\n")

    def test_fine_over_open_race(self, capsys, write):
        path = write("candidates: A B\npartial w=1\n")
        code, out, _ = run(capsys, "fine-over", path, "--rule", "cup:(A,B)")
        assert (code, out) == (0, "answer: false\n")

    def test_fine_sp_over(self, capsys, write):
        path = write("candidates: A B C\naxis: A B C\nvote w=3 B>A>C\n")
        code, out, _ = run(capsys, "fine-sp-over", path, "--rule", "stv")
        assert (code, out) == (0, "answer: true\n")

    def test_fine_sp_over_cup_dispatch(self, capsys, write):
        path = write("candidates: A B C\naxis: A B C\nvote w=3 B>A>C\npartial w=2\n")
        code, out, _ = run(capsys, "fine-sp-over", path, "--rule", "cup:((A,B),C)")
        assert code == 0
        assert out == "answer: true\n"  # median peak pinned at B whatever the rest

    def test_fine_sp_over_copeland_takes_the_median_peak(self, capsys, write):
        labels = " ".join(f"C{i}" for i in range(12))
        path = write(
            f"candidates: {labels}\naxis: {labels}\n"
            f"vote w=3 {'>'.join(labels.split())}\n"
            f"vote w=3 {'>'.join(reversed(labels.split()))}\n"
            "partial w=2 pairs=C6>C7\nunknown w=1\n"
        )
        code, out, err = run(capsys, "fine-sp-over", path, "--rule", "copeland", "--cap", "0")
        assert (code, out, err) == (0, "answer: false\n", "")

    def test_fine_sp_over_even_total_copeland_charges_the_projection_setup(
        self, capsys, write
    ):
        # 16 candidates: 55,587 single-peaked options times 120 pairs
        labels = " ".join(f"C{i}" for i in range(16))
        path = write(
            f"candidates: {labels}\naxis: {labels}\n"
            f"vote w=3 {'>'.join(labels.split())}\n"
            f"vote w=3 {'>'.join(reversed(labels.split()))}\n"
            "partial w=2 pairs=C8>C9\nunknown w=2\n"
        )
        code, out, err = run(
            capsys, "fine-sp-over", path, "--rule", "copeland", "--no-strict-odd"
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: pairwise projections of options: 6670440, above the cap of 1000000\n"
        )

    def test_fine_sp_over_cup_even_total_takes_the_general_path(self, capsys, write):
        # the median-peak shortcut needs an odd total; the search does not
        path = write("candidates: A B C\naxis: A B C\nvote w=1 B>A>C\npartial w=1\n")
        code, out, err = run(
            capsys, "fine-sp-over", path, "--rule", "cup:((A,B),C)", "--no-strict-odd"
        )
        assert (code, out, err) == (0, "answer: false\n", "")

    def test_fine_sp_over_cup_agenda_must_cover_the_candidates(self, capsys, write):
        path = write("candidates: A B C\naxis: A B C\nvote w=3 B>A>C\npartial w=2\n")
        code, out, err = run(capsys, "fine-sp-over", path, "--rule", "cup:(A,B)")
        assert (code, out) == (2, "")
        assert "agenda must cover" in err

    def test_condorcet_fixed_statuses(self, capsys, write):
        cases = [
            ("candidates: A B C\nvote w=1 B>A>C\n", "answer: true\nwinner: B\n"),
            (CYCLE, "answer: false\n"),
            ("candidates: A B\npartial w=1\n", "answer: not-determined\n"),
        ]
        for text, expected in cases:
            code, out, _ = run(capsys, "condorcet-fixed", write(text))
            assert (code, out) == (0, expected)

    def test_possible_winners_sorted(self, capsys, write):
        path = write("candidates: A B C\nvote w=2 A>B>C\nvote w=2 B>A>C\nunknown w=3\n")
        code, out, _ = run(capsys, "possible-winners", path, "--rule", "plurality")
        assert (code, out) == (0, "possible: A B C\n")


class TestManipulationVerbs:
    def test_coalition_success_with_witness(self, capsys, write):
        path = write("candidates: A B C\nvote w=3 A>B>C\nvote w=4 A>B>C\n")
        code, out, _ = run(
            capsys,
            "manipulate-coalition", path,
            "--rule", "plurality", "--target", "C", "--coalition", "1",
        )
        assert code == 0
        assert out.startswith("answer: true\n")
        witness = witness_profile(out)
        assert witness.ballots[0] == parse_profile(
            "candidates: A B C\nvote w=3 A>B>C\n", strict_odd=False
        )[0].ballots[0]
        rule = parse_rule("plurality", witness.candidates)
        assert winner(rule, witness, TieBreak.favor(2)).id == 2

    def test_coalition_failure(self, capsys, write):
        path = write("candidates: A B C\nvote w=5 A>B>C\nvote w=2 B>A>C\n")
        code, out, _ = run(
            capsys,
            "manipulate-coalition", path,
            "--rule", "plurality", "--target", "B", "--coalition", "1",
        )
        assert (code, out) == (0, "answer: false\n")

    def test_coalition_keeps_a_total_partial_ballot_outside_fixed(self, capsys, write):
        path = write("candidates: A B\npartial w=3 pairs=B>A\nvote w=1 B>A\nvote w=1 B>A\n")
        code, out, _ = run(
            capsys,
            "manipulate-coalition", path,
            "--rule", "plurality", "--target", "A", "--coalition", "1",
        )
        assert (code, out) == (0, "answer: false\n")

    def test_coalition_condorcet_rule(self, capsys, write):
        path = write("candidates: A B C\nvote w=3 A>B>C\nvote w=4 C>B>A\n")
        code, out, _ = run(
            capsys,
            "manipulate-coalition", path,
            "--rule", "condorcet", "--target", "B", "--coalition", "1",
        )
        assert code == 0
        assert out.startswith("answer: true\n")
        assert condorcet_of(witness_profile(out)) == 1

    def test_prefs_success_rewrites_unlocked(self, capsys, write):
        path = write("candidates: A B\nvote w=2 B>A\npartial w=3 pairs=B>A\n")
        code, out, _ = run(
            capsys, "manipulate-prefs", path, "--rule", "plurality", "--target", "A"
        )
        assert code == 0
        assert out.startswith("answer: true\n")
        witness = witness_profile(out)
        assert witness.is_complete and witness.total_weight == 5
        rule = parse_rule("plurality", witness.candidates)
        assert winner(rule, witness, TieBreak.favor(0)).id == 0

    def test_prefs_locked_pair_blocks(self, capsys, write):
        path = write("candidates: A B\nvote w=2 B>A\npartial w=3 pairs=B>A locked=B>A\n")
        code, out, _ = run(
            capsys, "manipulate-prefs", path, "--rule", "plurality", "--target", "A"
        )
        assert (code, out) == (0, "answer: false\n")


class TestEvaluate:
    DIST = (
        "candidates: A B\n"
        "scenario p=2/3\nvote w=3 A>B\n"
        "scenario p=1/3\nvote w=3 B>A\n"
    )

    def test_above_threshold(self, capsys, write):
        path = write(self.DIST, "dist.txt")
        code, out, _ = run(
            capsys, "evaluate", path, "--rule", "plurality", "--target", "A", "--r", "1/2"
        )
        assert (code, out) == (0, "answer: true\nprobability: 2/3\n")

    def test_threshold_is_strict(self, capsys, write):
        path = write(self.DIST, "dist.txt")
        code, out, _ = run(
            capsys, "evaluate", path, "--rule", "plurality", "--target", "A", "--r", "2/3"
        )
        assert (code, out) == (0, "answer: false\nprobability: 2/3\n")

    def test_each_scenario_is_scored_once(self, capsys, write, monkeypatch):
        import votelab.evaluation as evaluation

        calls = []
        real = evaluation.winner

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "winner", counting)
        path = write(self.DIST, "dist.txt")
        code, out, _ = run(
            capsys, "evaluate", path, "--rule", "plurality", "--target", "B", "--r", "1/4"
        )
        assert (code, out) == (0, "answer: true\nprobability: 1/3\n")
        assert len(calls) == 2

    def test_bad_threshold(self, capsys, write):
        path = write(self.DIST, "dist.txt")
        code, _, err = run(
            capsys, "evaluate", path, "--rule", "plurality", "--target", "A", "--r", "lots"
        )
        assert code == 2
        assert "bad threshold" in err

    def test_exponent_threshold_rejected(self, capsys, write):
        path = write(self.DIST, "dist.txt")
        code, _, err = run(
            capsys, "evaluate", path, "--rule", "plurality", "--target", "A",
            "--r", "1e999999999",
        )
        assert code == 2
        assert "bad threshold" in err


class TestReductionVerbs:
    def test_gen_cup_manip_stdout(self, capsys):
        code, out, _ = run(capsys, "gen-reduction", "--kind", "cup-manip", "--bag", "1,1,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# kind: cup-manip"
        assert lines[1] == "# bag: 1 1 2"
        assert lines[2].startswith("# rule: cup:")
        assert lines[3] == "# target: C"
        profile, _ = parse_profile(out)  # comment headers are skipped
        assert profile.total_weight == 15  # 8k-1 at k=2

    def test_cup_manip_witness_is_pinned(self, capsys, tmp_path):
        path = str(tmp_path / "cup-manip.txt")
        run(capsys, "gen-reduction", "--kind", "cup-manip", "--bag", "1,2,3", "-o", path)
        code, out, _ = run(
            capsys, "manipulate-prefs", path, "--rule", "cup:((A,B),C)", "--target", "C"
        )
        assert code == 0
        assert out == (
            "answer: true\n"
            "witness:\n"
            "candidates: A B C\n"
            "vote w=1 C>B>A\n"
            "vote w=5 C>A>B\n"
            "vote w=5 B>C>A\n"
            "vote w=2 B>A>C\n"
            "vote w=4 B>A>C\n"
            "vote w=6 A>C>B\n"
        )

    def test_gen_copeland_manip_needs_no_strict_odd(self, capsys):
        code, out, _ = run(capsys, "gen-reduction", "--kind", "copeland-manip", "--bag", "1,1")
        assert code == 0
        assert "# note: even total; parse with --no-strict-odd" in out
        profile, _ = parse_profile(out, strict_odd=False)
        assert profile.total_weight == 4  # 4k at k=1

    def test_gen_stv_sp_carries_axis(self, capsys):
        code, out, _ = run(capsys, "gen-reduction", "--kind", "stv-sp-elicit", "--bag", "1,1")
        assert code == 0
        _, axis = parse_profile(out)
        assert axis is not None

    def test_gen_to_file(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        dest = str(path)
        code, out, _ = run(
            capsys, "gen-reduction", "--kind", "cup-elicit", "--bag", "1,1,2", "-o", dest
        )
        assert (code, out) == (0, f"wrote: {dest}\n")
        profile, _ = parse_profile(path.read_text())
        assert profile.total_weight == 15

    def test_balanced_limited_to_cup_elicit(self, capsys):
        code, _, err = run(
            capsys, "gen-reduction", "--kind", "stv-sp-elicit", "--bag", "1,1", "--balanced"
        )
        assert code == 2
        assert "--balanced" in err

    def test_verify_single_bag_all_kinds(self, capsys):
        code, out, _ = run(capsys, "verify-reduction", "--kind", "all", "--bag", "1,1,2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20  # five lines for each of the four kinds
        assert lines.count("biconditional: holds") == 4
        assert "bag: 1 1 2" in lines
        assert "partition: true" in lines  # {2} vs {1,1}
        assert "decision: false" in lines and "decision: true" in lines

    def test_verify_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify-reduction", "--kind", "cup-manip", "--max-n", "3", "--max-v", "4"
        )
        assert code == 0
        assert out.splitlines() == [
            "kind: cup-manip",
            "checked: 18",
            "failures: 0",
            "biconditional: holds",
        ]

    def test_failed_biconditional_exits_5(self, capsys, monkeypatch):
        def broken(kind, p, *, cap):
            return ReductionReport(kind, p.numbers, True, True, holds=kind != "cup-manip")

        monkeypatch.setattr("votelab.cli.verify_reduction", broken)
        code, out, _ = run(capsys, "verify-reduction", "--kind", "all", "--bag", "1,1")
        assert code == 5
        lines = out.splitlines()
        assert len(lines) == 20
        assert lines.count("biconditional: fails") == 1
        assert lines[lines.index("kind: cup-manip") + 4] == "biconditional: fails"

        code, out, err = run(
            capsys, "verify-reduction", "--kind", "cup-manip", "--max-n", "2", "--max-v", "2"
        )
        assert code == 5
        assert out.splitlines() == [
            "kind: cup-manip",
            "checked: 3",
            "failures: 3",
            "biconditional: fails",
        ]
        assert err.splitlines() == [
            "# fails: cup-manip bag 2",
            "# fails: cup-manip bag 1 1",
            "# fails: cup-manip bag 2 2",
        ]

    def test_sweep_bounds_must_be_positive(self, capsys):
        for flag, bounds in (
            ("--max-n", ("-1", "3")),
            ("--max-n", ("0", "3")),
            ("--max-v", ("3", "0")),
        ):
            code, out, err = run(
                capsys, "verify-reduction", "--kind", "cup-manip",
                "--max-n", bounds[0], "--max-v", bounds[1],
            )
            assert (code, out) == (2, "") and flag in err
        code, out, _ = run(
            capsys, "verify-reduction", "--kind", "cup-manip", "--max-n", "1", "--max-v", "2"
        )
        assert code == 0 and "checked: 1" in out.splitlines()

    def test_sweep_without_an_even_bag_is_refused(self, capsys):
        # the only bag of one number up to 1 has an odd total
        code, out, err = run(
            capsys, "verify-reduction", "--kind", "all", "--max-n", "1", "--max-v", "1"
        )
        assert (code, out) == (2, "") and "no bag" in err

    def test_bag_and_sweep_are_exclusive(self, capsys):
        code, _, err = run(capsys, "verify-reduction", "--kind", "cup-elicit")
        assert code == 2 and "give either --bag" in err
        code, _, err = run(
            capsys,
            "verify-reduction", "--kind", "cup-elicit",
            "--bag", "1,1", "--max-n", "2", "--max-v", "2",
        )
        assert code == 2 and "give either --bag" in err


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "winner", "/nonexistent/p.txt", "--rule", "plurality")
        assert code == 2 and "error:" in err

    def test_unknown_rule(self, capsys, write):
        path = write("candidates: A B\nvote w=1 A>B\n")
        code, _, err = run(capsys, "winner", path, "--rule", "zorp")
        assert code == 2 and "error:" in err

    def test_even_total_rejected_by_default(self, capsys, write):
        path = write("candidates: A B\nvote w=2 A>B\n")
        code, _, err = run(capsys, "winner", path, "--rule", "plurality")
        assert code == 2 and "even" in err

    def test_bad_tie_break(self, capsys, write):
        path = write("candidates: A B\nvote w=1 A>B\n")
        code, _, err = run(capsys, "winner", path, "--rule", "plurality", "--tb", "sideways")
        assert code == 2 and "bad tie-break" in err

    def test_cap_exceeded(self, capsys, write):
        path = write("candidates: A B C D\npartial w=1\n")
        code, _, err = run(
            capsys, "possible-winners", path, "--rule", "plurality", "--cap", "10"
        )
        assert code == 3 and "error:" in err

    def test_negative_cap_is_a_usage_error(self, capsys, write):
        path = write("candidates: A B\nvote w=1 A>B\n")
        argv = ("possible-winners", path, "--rule", "copeland", "--cap")
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out) == (2, "") and "--cap" in err
        # a decided pairwise profile sums nothing, so even a zero cap answers
        assert run(capsys, *argv, "0")[:2] == (0, "possible: A\n")

    def test_model_mismatch(self, capsys, write):
        path = write("candidates: A B C\nvote w=2 A>B>C\npartial w=1 pairs=A>B\n")
        code, _, err = run(capsys, "coarse-over", path, "--rule", "plurality")
        assert code == 4 and "error:" in err

    def test_not_single_peaked(self, capsys, write):
        path = write("candidates: A B C\naxis: A B C\nvote w=1 A>C>B\n")
        code, _, err = run(capsys, "fine-sp-over", path, "--rule", "stv")
        assert code == 4 and "error:" in err

    def test_stv_elimination_states_count_against_the_cap(self, capsys, write):
        # 12 candidates in a cycle: STV tallies 3,951 candidate sets in all
        labels = "ABCDEFGHIJKL"
        votes = "".join(f"vote w=1 {'>'.join(labels[i:] + labels[:i])}\n" for i in range(12))
        path = write(f"candidates: {' '.join(labels)}\n{votes}")
        argv = ("possible-winners", path, "--rule", "stv", "--no-strict-odd", "--cap")
        code, _, err = run(capsys, *argv, "1000")
        assert code == 3 and "STV elimination" in err
        code, out, _ = run(capsys, *argv, "10000")
        assert (code, out) == (0, f"possible: {' '.join(labels)}\n")

    def test_deep_agenda_is_a_usage_error(self, capsys, write):
        labels = [f"c{i}" for i in range(1500)]
        agenda = "(" * 1499 + "c0," + "),".join(labels[1:]) + ")"
        path = write(f"candidates: {' '.join(labels)}\nvote w=1 {'>'.join(labels)}\n")
        code, _, err = run(capsys, "winner", path, "--rule", f"cup:{agenda}")
        assert code == 2 and "deeper" in err

    def test_missing_axis(self, capsys, write):
        path = write("candidates: A B C\nvote w=1 A>B>C\n")
        code, _, err = run(capsys, "fine-sp-over", path, "--rule", "stv")
        assert code == 2 and "axis" in err

    def test_argparse_usage_errors(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 2
        assert run(capsys, "winner")[0] == 2  # missing required arguments
