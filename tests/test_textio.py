"""Text round trips for profiles and scenario distributions."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import (
    Axis,
    InvalidDistribution,
    InvalidProfile,
    PartialBallot,
    Profile,
    ProfileParseError,
    ScenarioDistribution,
    WeightedBallot,
    candidates_from_labels,
    format_distribution,
    format_profile,
    parse_distribution,
    parse_profile,
    win_probability,
    winner,
    plurality,
)

import helpers as H
from helpers import cands, vote

RANK_ONCE = "a vote must rank every candidate exactly once"

FULL = """\
# staged election
candidates: A B C D
vote w=4 C>D>A>B
partial w=2 pairs=A>C,B>C locked=A>C   # pairwise commitments
partial w=4
unknown w=3
unknown w=2
axis: A B C D
"""


class TestParseProfile:
    def test_every_directive(self):
        profile, axis = parse_profile(FULL)
        assert [c.label for c in profile.candidates] == ["A", "B", "C", "D"]
        assert profile.ballots[0] == vote((2, 3, 0, 1), 4)
        partial = profile.ballots[1]
        assert isinstance(partial, PartialBallot)
        assert partial.weight == 2
        assert partial.pairs == frozenset({(0, 2), (1, 2)})
        assert partial.locked == frozenset({(0, 2)})
        bare = profile.ballots[2]
        assert bare.pairs == frozenset() and bare.weight == 4
        assert profile.unknown_weight == 5  # unknown lines accumulate
        assert profile.total_weight == 15
        assert axis == Axis((0, 1, 2, 3))

    def test_strict_odd_applies_at_build(self):
        # parity is the profile's own rule, so it surfaces unprefixed
        text = "candidates: A B\nvote w=2 A>B\n"
        with pytest.raises(InvalidProfile, match="even"):
            parse_profile(text)
        profile, _ = parse_profile(text, strict_odd=False)
        assert profile.total_weight == 2

    def test_duplicate_labels_fail_at_build(self):
        with pytest.raises(InvalidProfile, match="unique"):
            parse_profile("candidates: A A\n", strict_odd=False)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vote w=1 A>B\n", "candidates line must come first"),
            ("candidates: A B\ncandidates: A B\n", "line 2: duplicate candidates"),
            ("candidates: A B\nvote w=x A>B\n", "bad weight"),
            ("candidates: A B\nvote w=1 A>Z\n", "unknown candidate 'Z'"),
            ("candidates: A B C\nvote w=1 A>B\n", "exactly once"),
            ("candidates: A B\nvote A>B\n", "expected"),
            ("candidates: A B\npartial w=1 pairs=AB\n", "bad pair"),
            ("candidates: A B\npartial w=1 pairs=A>B pairs=A>B\n", "duplicate pairs="),
            ("candidates: A B\npartial w=1 locked=A>B\n", "locked"),
            ("candidates: A B\npartial w=1 colour=red\n", "unknown field"),
            ("candidates: A B\npartial pairs=A>B\n", "needs w="),
            ("candidates: A B\nunknown w=-2\n", "negative"),
            ("candidates: A B\naxis: A\n", "every candidate exactly once"),
            ("candidates: A B\naxis: A B\naxis: B A\n", "duplicate axis"),
            (
                "candidates: A B C\naxis: A B C C\n",
                "^line 2: the axis must order every candidate exactly once$",
            ),
            ("candidates: A A\n", "^line 1: candidate labels must be unique$"),
            ("candidates: A B\nballot w=1 A>B\n", "unknown directive"),
            ("", "no candidates line"),
            ("# only a comment\n", "no candidates line"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ProfileParseError, match=fragment):
            parse_profile(text, strict_odd=False)

    def test_cyclic_pairs_fail_with_line_number(self):
        text = "candidates: A B C\npartial w=1 pairs=A>B,B>C,C>A\n"
        with pytest.raises(ProfileParseError, match="line 2"):
            parse_profile(text)

    def test_locked_must_be_inside_pairs(self):
        text = "candidates: A B C\npartial w=1 pairs=A>B locked=B>C\n"
        with pytest.raises(ProfileParseError, match="line 2"):
            parse_profile(text)


class TestLineMemo:
    """A repeated ballot line is parsed once and yields one shared ballot."""

    @staticmethod
    def _text(rng: random.Random) -> tuple[str, str, list[str]]:
        """(candidates line, text, the stripped line behind each ballot).

        Vote lines come with their mirror (the reversed order) and a few
        partial lines; each ballot line is drawn from that pool again and
        again, with and without blanks and trailing comments, among comment
        lines, blank lines and unknown lines.
        """
        m = rng.randint(2, 5)
        header = "candidates: " + " ".join(H.LABELS[:m])
        pool = []
        for _ in range(rng.randint(1, 3)):
            order, w = H.rand_order(rng, m), rng.randint(1, 3)
            for o in (order, order[::-1]):
                pool.append(f"vote w={w} " + ">".join(H.LABELS[c] for c in o))
        for _ in range(rng.randint(0, 2)):
            ballot = H.rand_partial(rng, m, rng.randint(1, 3), lock=True)
            one = Profile(cands(m), (ballot,), strict_odd=False)
            pool.append(format_profile(one).splitlines()[1])
        lines, keys = [header], []
        for _ in range(rng.randint(0, 40)):
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "# a comment", "unknown w=1"]))
                continue
            key = rng.choice(pool)
            keys.append(key)
            pad = " " * rng.randint(0, 2)
            lines.append(pad + key + rng.choice(["", " ", "  # note", "#x"]))
        return header, "\n".join(lines) + "\n", keys

    def test_ballots_match_their_lines_parsed_alone(self):
        rng = random.Random(8128)
        for _ in range(300):
            header, text, keys = self._text(rng)
            profile, _ = parse_profile(text, strict_odd=False)
            assert len(profile.ballots) == len(keys)
            first: dict = {}
            for key, ballot in zip(keys, profile.ballots):
                alone, _ = parse_profile(f"{header}\n{key}\n", strict_odd=False)
                assert ballot == alone.ballots[0]
                assert first.setdefault(key, ballot) is ballot

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("vote w=1 A>B>Z", "unknown candidate 'Z'"),
            ("vote w=0 A>B>C", "weight must be at least 1, got 0"),
            ("vote w=1 A>B>A", "a vote must rank every candidate exactly once"),
            ("partial w=1 pairs=A>B,B>A", "pairwise commitments contain a cycle"),
            (
                "partial w=1 pairs=A>B locked=B>C",
                "locked pairs must lie inside the closure of the ballot's pairs",
            ),
        ],
    )
    def test_error_after_repeated_lines_names_its_line(self, bad, message):
        repeated = "vote w=1 A>B>C\npartial w=1 pairs=A>B\n" * (10**4 // 2)
        text = f"candidates: A B C\n{repeated}{bad}\n{bad}\n"
        with pytest.raises(ProfileParseError) as info:
            parse_profile(text)
        assert str(info.value) == f"line {10**4 + 2}: {message}"

    def test_a_line_repeated_across_blocks_gives_equal_scenarios(self):
        block = "vote w=2 A>B>C\nvote w=1 C>B>A  # mirrored\n"
        text = "candidates: A B C\n" + "scenario p=1/3\n" + block + "scenario p=1/3\n" + block
        text += "scenario p=1/3\n" + block.replace("  # mirrored", "")
        dist = parse_distribution(text)
        (first, _), *rest = dist.scenarios
        alone = parse_distribution("candidates: A B C\nscenario p=1\n" + block)
        assert first == alone.scenarios[0][0]
        for profile, prob in rest:
            assert profile == first and prob == Fraction(1, 3)
            assert all(a is b for a, b in zip(profile.ballots, first.ballots))


class TestVoteLines:
    """The vote-line path: one lookup per new order token, shared order
    tuples, slotted ballots, and one profile check per distinct order."""

    def test_one_candidate(self):
        profile, _ = parse_profile("candidates: A\nvote w=3 A\nvote w=2 A\n")
        assert [b.order for b in profile.ballots] == [(0,), (0,)]
        assert winner(plurality(), profile).label == "A"
        for bad, message in [("A>A", RANK_ONCE), ("B", "unknown candidate 'B'"),
                             ("A>B", "unknown candidate 'B'")]:
            with pytest.raises(ProfileParseError) as info:
                parse_profile(f"candidates: A\nvote w=1 {bad}\n")
            assert str(info.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "order,message",
        [
            ("A>Z>C", "unknown candidate 'Z'"),  # too short: the label comes first
            ("A>Z>C>Y", "unknown candidate 'Z'"),  # full length: the first unknown
            ("A>B>C>D>Z", "unknown candidate 'Z'"),  # too long
            ("A>B>C>", "unknown candidate ''"),
            ("A>B>C", RANK_ONCE),
            ("A>B>C>D>A", RANK_ONCE),
            ("A>A>C>D", RANK_ONCE),  # a repeat, at full length
        ],
    )
    def test_order_errors_keep_their_messages(self, order, message):
        for weight in ("w=1", "w=0"):  # the order is checked before the weight's range
            text = f"candidates: A B C D\nvote w=1 D>C>B>A\nvote {weight} {order}\n"
            with pytest.raises(ProfileParseError) as info:
                parse_profile(text, strict_odd=False)
            assert str(info.value) == f"line 3: {message}"

    def test_axis_lines_share_the_lookup(self):
        _, axis = parse_profile("candidates: A\nvote w=1 A\naxis: A\n")
        assert axis == Axis((0,))
        for line, message in [
            ("axis:", "the axis must order every candidate exactly once"),
            ("axis: B", "the axis must order every candidate exactly once"),
            ("axis: Z A", "unknown candidate 'Z'"),  # the label before the count
        ]:
            with pytest.raises(ProfileParseError) as info:
                parse_profile(f"candidates: A B\n{line}\n")
            assert str(info.value) == f"line 2: {message}"

    def test_lines_with_one_order_token_share_one_order(self):
        text = "candidates: A B C\nvote w=1 C>A>B\nvote w=2 C>A>B\nvote w=4 C>A>B # again\n"
        profile, _ = parse_profile(text)
        first, second, third = profile.ballots
        assert first is not second and first.order is second.order is third.order

    def test_a_ballot_is_slotted_and_frozen(self):
        profile, _ = parse_profile("candidates: A B C\nvote w=3 C>A>B\n")
        ballot = profile.ballots[0]
        assert not hasattr(ballot, "__dict__")
        for again in (pickle.loads(pickle.dumps(ballot)), copy.deepcopy(ballot)):
            assert again == ballot and hash(again) == hash(ballot)
        assert dataclasses.replace(ballot, weight=5) == vote((2, 0, 1), 5)
        with pytest.raises(InvalidProfile, match="repeats"):
            dataclasses.replace(ballot, order=(2, 2, 1))
        partial = PartialBallot({(0, 1), (1, 2)}, 2, locked={(0, 1)})
        assert not hasattr(partial, "__dict__")
        for again in (pickle.loads(pickle.dumps(partial, 0)), copy.deepcopy(partial)):
            assert again == partial and hash(again) == hash(partial)
        # a field and an unknown name are refused alike, set or deleted
        for b in (ballot, partial):
            for name in ("weight", "note"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(b, name, 4)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(b, name)

    def test_a_shared_bad_order_raises_at_its_first_slot(self):
        bad = (1, 0)  # a valid ballot, one candidate short of the profile
        first, later = WeightedBallot(bad, 1), WeightedBallot(bad, 2)
        stray = PartialBallot(((0, 7),), 1)
        good = vote((0, 1, 2))
        order_message = f"ballot {bad} must rank exactly the declared candidates"
        partial_message = "partial ballot mentions undeclared candidates"
        for ballots, message in [
            ((good, first, stray, later), order_message),
            ((good, stray, first, later), partial_message),
            ((good, later, stray, first, later), order_message),
        ]:
            with pytest.raises(InvalidProfile) as info:
                Profile(cands(3), ballots, strict_odd=False)
            assert str(info.value) == message

    def test_an_equal_but_distinct_order_is_still_checked(self):
        # the ballot refuses a twin of a ranking, so no profile can hold one
        order = (0, 1, 2)
        for twin in ((0, 1.0, 2), (0, True, 2), (False, 1, 2)):
            assert twin == order and twin is not order
            with pytest.raises(InvalidProfile) as info:
                WeightedBallot(twin, 2)
            assert str(info.value) == (
                f"ballot {twin} must rank exactly the declared candidates"
            )


class TestLabels:
    """A label the line format cannot carry is refused, not written or read."""

    @pytest.mark.parametrize("line", ["candidates: A>B C", "candidates: A B,C D"])
    def test_the_candidates_line_refuses_a_separator(self, line):
        label = next(name for name in line.split()[1:] if ">" in name or "," in name)
        with pytest.raises(ProfileParseError) as info:
            parse_profile(f"# a comment\n{line}\nvote w=1 C>A>B\n")
        assert str(info.value) == (
            f"line 2: candidate label {label!r} does not fit the line format: "
            "a label is one token without '#', ',' or '>'"
        )

    @pytest.mark.parametrize("label", ["A>B", "A B", "A\tB", "", "#", "x,y", "a#b", "A\u2028B"])
    def test_format_refuses_a_label_it_cannot_write(self, label):
        candidates = candidates_from_labels([label, "C", "D"])
        profile = Profile(candidates, (vote((0, 1, 2)),))
        dist = ScenarioDistribution(((profile, Fraction(1)),))
        for write, what in ((format_profile, profile), (format_distribution, dist)):
            with pytest.raises(InvalidProfile) as info:
                write(what)
            assert not isinstance(info.value, ProfileParseError)
            assert str(info.value).startswith(f"candidate label {label!r} does not fit")

    def test_labels_that_fit_round_trip(self):
        candidates = candidates_from_labels(["A=1", "b-2", "(c)", "\u00e9", "w=3"])
        profile = Profile(
            candidates, (vote((4, 0, 1, 2, 3)), PartialBallot(((0, 4),), 2, ((0, 4),)))
        )
        assert parse_profile(format_profile(profile))[0] == profile


class TestFormatProfile:
    def test_canonical_output(self):
        profile, axis = parse_profile(FULL)
        text = format_profile(profile, axis)
        assert text.splitlines() == [
            "candidates: A B C D",
            "vote w=4 C>D>A>B",
            "partial w=2 pairs=A>C,B>C locked=A>C",
            "partial w=4",
            "unknown w=5",
            "axis: A B C D",
        ]

    def test_round_trip_is_identity_on_parsed_profiles(self):
        profile, axis = parse_profile(FULL)
        again, axis2 = parse_profile(format_profile(profile, axis))
        assert again == profile
        assert axis2 == axis

    def test_round_trip_on_random_profiles(self):
        rng = random.Random(113)
        for _ in range(150):
            m = rng.randint(1, 5)
            ballots = []
            for _ in range(rng.randint(0, 3)):
                ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 9)))
            for _ in range(rng.randint(0, 3)):
                ballots.append(H.rand_partial(rng, m, rng.randint(1, 9), lock=True))
            unknown = rng.randint(0, 4)
            profile = Profile(
                cands(m), tuple(ballots), unknown_weight=unknown, strict_odd=False
            )
            axis = Axis(tuple(rng.sample(range(m), m))) if rng.random() < 0.5 else None
            again, axis2 = parse_profile(format_profile(profile, axis), strict_odd=False)
            assert again == profile
            assert axis2 == axis


class TestDistributionText:
    TEXT = """\
candidates: A B
scenario p=2/3
vote w=3 A>B
scenario p=1/3
vote w=3 B>A
"""

    def test_parse_and_probability(self):
        dist = parse_distribution(self.TEXT)
        assert len(dist.scenarios) == 2
        assert win_probability(dist, plurality(), 0) == Fraction(2, 3)

    def test_round_trip(self):
        dist = parse_distribution(self.TEXT)
        again = parse_distribution(format_distribution(dist))
        assert again == dist

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("scenario p=1\nvote w=1 A>B\n", "candidates line must come first"),
            ("candidates: A B\nvote w=1 A>B\n", "outside a scenario"),
            ("candidates: A B\nscenario p=half\nvote w=1 A>B\n", "bad probability"),
            ("candidates: A B\nscenario\nvote w=1 A>B\n", "expected: scenario"),
            ("candidates: A B\n", "no scenario blocks"),
            ("", "no candidates line"),
            (
                "candidates: A B\nscenario p=1/2\nvote w=1 A>B\n",
                "sum",
            ),
            (
                "candidates: A B\nscenario p=1\nvote w=1 A>B\nunknown w=2\n",
                "complete",
            ),
        ],
    )
    def test_distribution_errors(self, text, fragment):
        with pytest.raises(Exception, match=fragment):
            parse_distribution(text, strict_odd=False)

    def test_decimal_probabilities_become_exact_rationals(self):
        text = "candidates: A B\nscenario p=0.5\nvote w=1 A>B\nscenario p=0.5\nvote w=1 B>A\n"
        dist = parse_distribution(text, strict_odd=False)
        assert dist.scenarios[0][1] == Fraction(1, 2)

    def test_axis_lines_inside_scenarios_are_ignored(self):
        text = "candidates: A B\nscenario p=1\nvote w=1 A>B\naxis: A B\n"
        bare = "candidates: A B\nscenario p=1\nvote w=1 A>B\n"
        assert parse_distribution(text) == parse_distribution(bare)


# Token soup for the fuzz test: directive keywords, labels, weights and
# probabilities (zero, negative, huge, junk), pair lists, comments, newlines.
_KEYWORDS = st.sampled_from(
    ["candidates:", "vote", "partial", "unknown", "axis:", "scenario", "#"]
)
_LABELS = st.sampled_from(["A", "B", "C", "Z", ""])
_NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "-4", str(2**63 - 1), str(2**63), str(2**70),
     "1/2", "2/3", "1/0", "-1/2", "0.5", "1e3", "1e-5000", "1e999999999",
     "x", "", "=", "1=2"]
)
_PAIRS = st.lists(st.tuples(_LABELS, _LABELS).map(">".join), max_size=3).map(",".join)
_TOKENS = st.one_of(
    _KEYWORDS,
    st.sampled_from(["\n", "\n\n"]),
    _LABELS,
    _NUMBERS.map("w=".__add__),
    _NUMBERS.map("p=".__add__),
    _PAIRS,
    _PAIRS.map("pairs=".__add__),
    _PAIRS.map("locked=".__add__),
    st.lists(_LABELS, min_size=1, max_size=4).map(">".join),
)
_ORDERS = st.permutations(["A", "B", "C"]).map(">".join)
# Besides free soup, lines take the shape of a directive with fuzzed values,
# so that many texts parse far enough to reach profile and distribution
# validation.
_LINES = st.one_of(
    st.lists(_TOKENS, max_size=6).map(" ".join),
    st.tuples(_KEYWORDS, st.lists(_TOKENS, max_size=3)).map(lambda t: " ".join([t[0], *t[1]])),
    st.builds("vote w={} {}".format, _NUMBERS, _ORDERS),
    st.builds("partial w={} pairs={} locked={}".format, _NUMBERS, _PAIRS, _PAIRS),
    st.builds("unknown w={}".format, _NUMBERS),
    st.builds("scenario p={}".format, _NUMBERS),
)


@given(
    st.sampled_from(["", "candidates: A B C\n", "candidates: A B C\nscenario p=1\n"]),
    st.lists(_LINES, max_size=8),
    st.booleans(),
)
@settings(deadline=None, max_examples=400)
def test_parsers_fail_only_with_library_errors(header, lines, strict_odd):
    """Any text parses, or fails with a library error and nothing else."""
    text = header + "\n".join(lines)
    for parse in (parse_profile, parse_distribution):
        try:
            parse(text, strict_odd=strict_odd)
        except (ProfileParseError, InvalidProfile, InvalidDistribution):
            pass
