"""Partition-encoding election generators and their verification."""

import random
from itertools import combinations_with_replacement

import pytest

from votelab import (
    Cup,
    InvalidInstance,
    PartialBallot,
    PartitionInstance,
    Stv,
    TieBreak,
    WeightedBallot,
    fine_elicitation_over,
    fine_sp_elicitation_over,
    gen_copeland_preference_manipulation,
    gen_cup_elicitation,
    gen_cup_preference_manipulation,
    gen_stv_sp_elicitation,
    has_equal_partition,
    has_equal_partition_dp,
    is_balanced,
    possible_winners,
    preference_manipulate,
    verify_reduction,
    winner,
)


class TestPartitionInstance:
    def test_sorted_and_parsed(self):
        assert PartitionInstance((3, 1, 2)).numbers == (1, 2, 3)
        assert PartitionInstance.parse(" 2, 1,1 ").numbers == (1, 1, 2)
        assert PartitionInstance((1, 3)).half_sum == 2

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 1), (1, 2), ("1",)])
    def test_invalid_bags_rejected(self, bad):
        with pytest.raises(InvalidInstance):
            PartitionInstance(bad)

    def test_parse_rejects_junk(self):
        with pytest.raises(InvalidInstance):
            PartitionInstance.parse("1,x")
        with pytest.raises(InvalidInstance):
            PartitionInstance.parse(" , ")


class TestPartitionOracles:
    @pytest.mark.parametrize(
        "bag,expected",
        [
            ((1, 1), True),
            ((1, 3), False),
            ((2, 2), True),
            ((1, 1, 2), True),
            ((1, 3, 4), True),
            ((1, 1, 4), False),
            ((2,), False),
            ((5, 5, 5, 5, 10, 10), True),
        ],
    )
    def test_pinned_answers(self, bag, expected):
        assert has_equal_partition(bag) == expected
        assert has_equal_partition_dp(bag) == expected

    def test_oracles_agree_on_random_bags(self):
        rng = random.Random(109)
        for _ in range(500):
            bag = [rng.randint(1, 12) for _ in range(rng.randint(1, 8))]
            assert has_equal_partition(bag) == has_equal_partition_dp(bag)

    def test_oracles_agree_on_an_iterator(self):
        assert has_equal_partition(iter([2, 2])) == has_equal_partition_dp(iter([2, 2])) is True


class TestCupElicitationGen:
    def test_two_singletons(self):
        profile, agenda = gen_cup_elicitation(PartitionInstance((1, 1)))
        assert agenda == (((0, 1), 2), 3)
        assert profile.total_weight == 7
        weights = [b.weight for b in profile.ballots]
        assert weights == [1, 1, 1, 2, 2]
        partial = profile.ballots[-1]
        assert isinstance(partial, PartialBallot)
        assert partial.pairs == frozenset({(0, 2)})
        # the undecided bloc swings the outcome: both C and D can still win
        names = sorted(c.label for c in possible_winners(Cup(agenda), profile))
        assert names == ["C", "D"]
        assert not fine_elicitation_over(Cup(agenda), profile)

    def test_first_number_is_folded_into_the_fixed_bloc(self):
        profile, _ = gen_cup_elicitation(PartitionInstance((1, 1, 2)))
        weights = [b.weight for b in profile.ballots]
        assert weights == [1, 3, 3, 2, 2, 4]
        assert profile.total_weight == 15

    def test_single_number_bag_is_decided(self):
        profile, agenda = gen_cup_elicitation(PartitionInstance((2,)))
        assert profile.is_complete
        assert fine_elicitation_over(Cup(agenda), profile)

    def test_balanced_variant(self):
        plain_profile, plain_agenda = gen_cup_elicitation(PartitionInstance((1, 1)))
        profile, agenda = gen_cup_elicitation(PartitionInstance((1, 1)), balanced=True)
        assert not is_balanced(plain_agenda)
        assert is_balanced(agenda)
        assert profile.m == 5
        assert profile.total_weight == plain_profile.total_weight
        # E is pinned to the bottom of every ballot, partials included
        for ballot in profile.ballots:
            if isinstance(ballot, WeightedBallot):
                assert ballot.order[-1] == 4
            else:
                assert {(x, 4) for x in range(4)} <= ballot.pairs
        assert fine_elicitation_over(Cup(agenda), profile) == fine_elicitation_over(
            Cup(plain_agenda), plain_profile
        )


class TestStvSpGen:
    def test_two_singletons(self):
        profile, axis = gen_stv_sp_elicitation(PartitionInstance((1, 1)))
        assert axis.order == (0, 1, 2)
        assert profile.total_weight == 17
        fixed = sorted(
            b.weight for b in profile.ballots if isinstance(b, WeightedBallot)
        )
        empties = [
            b.weight for b in profile.ballots if isinstance(b, PartialBallot)
        ]
        assert fixed == [4, 4, 5]
        assert empties == [2, 2]
        assert all(
            not b.pairs for b in profile.ballots if isinstance(b, PartialBallot)
        )
        assert not fine_sp_elicitation_over(Stv(), profile, axis)

    def test_unsplittable_bag_is_decided(self):
        profile, axis = gen_stv_sp_elicitation(PartitionInstance((1, 3)))
        assert fine_sp_elicitation_over(Stv(), profile, axis)


class TestManipGens:
    def test_cup_manip_shape(self):
        inst = gen_cup_preference_manipulation(PartitionInstance((1, 1)))
        assert inst.rule == Cup(((0, 1), 2))
        assert inst.target.label == "C"
        assert not inst.is_coalition
        assert inst.profile.total_weight == 7
        for ballot in inst.profile.ballots:
            if isinstance(ballot, PartialBallot):
                assert ballot.pairs == frozenset({(0, 2)})
                assert ballot.locked == frozenset({(0, 2)})

    @pytest.mark.parametrize(
        "bag,solvable",
        [((1, 1), True), ((1, 3), False), ((2, 2), True)],
    )
    def test_cup_manip_decisions(self, bag, solvable):
        inst = gen_cup_preference_manipulation(PartitionInstance(bag))
        witness = preference_manipulate(inst)
        assert (witness is not None) == solvable
        if witness is not None:
            assert winner(inst.rule, witness, TieBreak.favor(inst.target)).label == "C"

    def test_copeland_manip_shape(self):
        inst = gen_copeland_preference_manipulation(PartitionInstance((1, 1)))
        assert inst.target.label == "C"
        assert inst.profile.total_weight == 4
        assert not inst.profile.strict_odd
        for ballot in inst.profile.ballots:
            if isinstance(ballot, PartialBallot):
                assert ballot.locked == frozenset({(0, 2), (1, 2)})

    @pytest.mark.parametrize(
        "bag,solvable",
        [((1, 1), True), ((1, 3), False), ((3, 3), True)],
    )
    def test_copeland_manip_decisions(self, bag, solvable):
        inst = gen_copeland_preference_manipulation(PartitionInstance(bag))
        witness = preference_manipulate(inst)
        assert (witness is not None) == solvable
        if witness is not None:
            assert winner(inst.rule, witness, TieBreak.favor(inst.target)).label == "C"


class TestVerifyReduction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInstance, match="cup-elicit"):
            verify_reduction("nope", PartitionInstance((1, 1)))

    def test_report_fields(self):
        report = verify_reduction("cup-manip", PartitionInstance((1, 1)))
        assert report.kind == "cup-manip"
        assert report.numbers == (1, 1)
        assert report.decision and report.partition and report.holds

    def test_exhaustive_small_sweep(self):
        bags = [
            bag
            for n in range(1, 4)
            for bag in combinations_with_replacement(range(1, 5), n)
            if sum(bag) % 2 == 0
        ]
        assert bags  # the sweep must not be vacuous
        for bag in bags:
            p = PartitionInstance(bag)
            for kind in ("cup-elicit", "stv-sp-elicit", "cup-manip", "copeland-manip"):
                report = verify_reduction(kind, p)
                assert report.holds, (kind, bag)
