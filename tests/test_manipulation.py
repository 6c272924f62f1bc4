"""Coalition and preference manipulation searches."""

import random
from pathlib import Path

import pytest

from votelab import (
    DEFAULT_COMPLETION_CAP,
    Copeland,
    Copeland2,
    Cup,
    InvalidInstance,
    ManipulationInstance,
    ModelMismatch,
    PartialBallot,
    Profile,
    Stv,
    TieBreak,
    WeightedBallot,
    PartitionInstance,
    coalition_manipulate,
    completion_groups,
    condorcet_coalition_manipulate,
    gen_cup_preference_manipulation,
    has_equal_partition_dp,
    plurality,
    preference_manipulate,
    space_size,
    winner,
)

import helpers as H
from helpers import cands, vote


def replay_coalition(inst, assignment):
    ballots = H.cast_ballots(inst.profile)
    for idx, order in assignment.items():
        ballots[idx] = WeightedBallot(order, inst.profile.ballots[idx].weight)
    return Profile(
        candidates=inst.profile.candidates,
        ballots=tuple(ballots),
        strict_odd=inst.profile.strict_odd,
    )


def rand_coalition_profile(rng, m):
    """(profile, coalition, whether a ballot object fills slots on both
    sides of the coalition) for 2-5 ballots over m candidates.

    Slots may repeat the previous ballot object, so the coalition view keeps
    runs, and a coalition member may be an unlocked partial ballot.
    """
    ballots = []
    for _ in range(rng.randint(2, 5)):
        if ballots and rng.random() < 0.4:
            ballots.append(ballots[-1])
        else:
            ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 3)))
    n = len(ballots)
    coalition = frozenset(rng.sample(range(n), rng.randint(1, min(2, n))))
    for idx in coalition:
        if rng.random() < 0.4:
            ballots[idx] = H.rand_partial(rng, m, rng.randint(1, 3))
    outside = {id(ballots[i]) for i in range(n) if i not in coalition}
    straddles = any(id(ballots[i]) in outside for i in coalition)
    return Profile(cands(m), tuple(ballots), strict_odd=False), coalition, straddles


class TestInstanceValidation:
    def test_int_target_is_normalized(self):
        p = Profile(cands(2), (vote((0, 1), 1),))
        inst = ManipulationInstance(plurality(), 1, p)
        assert inst.target == p.candidates[1]
        assert not inst.is_coalition

    def test_foreign_target_rejected(self):
        from votelab import Candidate

        p = Profile(cands(2), (vote((0, 1), 1),))
        with pytest.raises(InvalidInstance):
            ManipulationInstance(plurality(), Candidate(5, "Z"), p)

    def test_coalition_indices_checked(self):
        p = Profile(cands(2), (vote((0, 1), 1),))
        with pytest.raises(InvalidInstance):
            ManipulationInstance(plurality(), 0, p, coalition=frozenset({3}))

    def test_locked_coalition_ballot_rejected(self):
        locked = PartialBallot({(0, 1)}, 1, locked={(0, 1)})
        p = Profile(cands(2), (locked, vote((0, 1), 2)))
        with pytest.raises(InvalidInstance):
            ManipulationInstance(plurality(), 0, p, coalition=frozenset({0}))

    def test_model_mismatch_is_raised_crosswise(self):
        p = Profile(cands(2), (vote((0, 1), 1),))
        pref = ManipulationInstance(plurality(), 0, p)
        coal = ManipulationInstance(plurality(), 0, p, coalition=frozenset({0}))
        with pytest.raises(ModelMismatch):
            coalition_manipulate(pref)
        with pytest.raises(ModelMismatch):
            preference_manipulate(coal)

    def test_coalition_needs_fully_known_others(self):
        p = Profile(cands(2), (vote((0, 1), 2),), unknown_weight=1)
        inst = ManipulationInstance(plurality(), 0, p, coalition=frozenset())
        with pytest.raises(ModelMismatch):
            coalition_manipulate(inst)
        q = Profile(cands(2), (PartialBallot(frozenset(), 1), vote((0, 1), 2)))
        inst2 = ManipulationInstance(plurality(), 0, q, coalition=frozenset({1}))
        with pytest.raises(ModelMismatch):
            coalition_manipulate(inst2)


class TestCupCoalition:
    AGENDA = ((0, 1), 2)

    def test_semifinal_win_is_not_enough(self):
        # the coalition can push A through the semifinal but not past C
        p = Profile(
            cands(3),
            (vote((2, 0, 1), 3), vote((1, 2, 0), 3), vote((0, 1, 2), 1)),
        )
        inst = ManipulationInstance(Cup(self.AGENDA), 0, p, coalition=frozenset({2}))
        assert coalition_manipulate(inst) is None

    def test_heavier_coalition_succeeds(self):
        # 4 of the 7 votes are free, enough for both of A's contests
        p = Profile(
            cands(3),
            (vote((2, 0, 1), 2), vote((1, 2, 0), 1), vote((0, 1, 2), 4)),
        )
        inst = ManipulationInstance(Cup(self.AGENDA), 0, p, coalition=frozenset({2}))
        assignment = coalition_manipulate(inst)
        assert assignment is not None
        replay = replay_coalition(inst, assignment)
        assert winner(inst.rule, replay, TieBreak.favor(0)).label == "A"

    def test_agrees_with_brute_force(self):
        rng = random.Random(83)
        shared = 0
        for _ in range(120):
            m = rng.randint(2, 4)
            p, coalition, straddles = rand_coalition_profile(rng, m)
            shared += straddles
            target = rng.randrange(m)
            agenda = H.rand_agenda(rng, range(m))
            inst = ManipulationInstance(Cup(agenda), target, p, coalition=coalition)
            assignment = coalition_manipulate(inst)
            expected = H.brute_coalition_possible(Cup(agenda), p, coalition, target)
            assert (assignment is not None) == expected
            if assignment is not None:
                replay = replay_coalition(inst, assignment)
                assert winner(inst.rule, replay, TieBreak.favor(target)).id == target
        assert shared > 0

    def test_ten_candidates_stay_within_the_default_cap(self):
        # a coalition ballot may take 10! = 3,628,800 orders, past the cap,
        # so the bracket answers without listing any of them
        m = 10
        agenda = 0
        for c in range(1, m):
            agenda = (agenda, c)
        p = Profile(
            cands(m),
            (
                vote(tuple(range(m)), 3),
                vote(tuple(reversed(range(m))), 3),
                vote(tuple(range(m)), 5),
            ),
        )
        for target in (0, 5, 9):
            inst = ManipulationInstance(Cup(agenda), target, p, coalition=frozenset({2}))
            assignment = coalition_manipulate(inst)
            assert assignment is not None
            replay = replay_coalition(inst, assignment)
            assert winner(inst.rule, replay, TieBreak.favor(target)).id == target
        inst = ManipulationInstance(Cup(agenda), 9, p, coalition=frozenset({1}))
        assert coalition_manipulate(inst) is None


class TestGenericCoalition:
    def test_plurality_witness(self):
        p = Profile(
            cands(3),
            (vote((1, 0, 2), 3), vote((2, 1, 0), 2), vote((0, 2, 1), 2)),
        )
        inst = ManipulationInstance(plurality(), 2, p, coalition=frozenset({2}))
        assignment = coalition_manipulate(inst)
        assert assignment is not None
        assert assignment[2][0] == 2  # the coalition tops the target
        replay = replay_coalition(inst, assignment)
        assert winner(plurality(), replay, TieBreak.favor(2)).label == "C"

    def test_impossible_when_too_light(self):
        p = Profile(cands(2), (vote((0, 1), 5), vote((1, 0), 2)))
        inst = ManipulationInstance(plurality(), 1, p, coalition=frozenset({1}))
        assert coalition_manipulate(inst) is None

    # A ballot outside the coalition stored as an unlocked total partial
    # ballot is a known vote, not a free one.
    SPLIT_TOTALS = (
        PartialBallot.from_order((1, 0), 3),
        vote((1, 0), 1),
        vote((1, 0), 1),
    )

    def test_unlocked_total_ballot_outside_the_coalition_stays_fixed(self):
        p = Profile(cands(2), self.SPLIT_TOTALS)
        for rule in (plurality(), Copeland(), Stv(), Cup((0, 1))):
            inst = ManipulationInstance(rule, 0, p, coalition=frozenset({1}))
            assert coalition_manipulate(inst) is None
            assert not H.brute_coalition_possible(rule, p, {1}, 0)

    def test_agrees_with_brute_force(self):
        rng = random.Random(89)
        for _ in range(100):
            m = rng.randint(2, 3)
            n = rng.randint(2, 4)
            ballots = tuple(
                (vote if rng.random() < 0.6 else PartialBallot.from_order)(
                    H.rand_order(rng, m), rng.randint(1, 3)
                )
                for _ in range(n)
            )
            p = Profile(cands(m), ballots, strict_odd=False)
            coalition = frozenset(rng.sample(range(n), rng.randint(1, min(2, n))))
            target = rng.randrange(m)
            rule = rng.choice((plurality(), Copeland(), Stv()))
            inst = ManipulationInstance(rule, target, p, coalition=coalition)
            assignment = coalition_manipulate(inst)
            expected = H.brute_coalition_possible(rule, p, coalition, target)
            assert (assignment is not None) == expected
            if assignment is not None:
                replay = replay_coalition(inst, assignment)
                assert winner(rule, replay, TieBreak.favor(target)).id == target


class TestCondorcetCoalition:
    def test_pinned_success(self):
        p = Profile(
            cands(3),
            (vote((1, 0, 2), 3), vote((2, 0, 1), 2), vote((0, 1, 2), 4)),
        )
        inst = ManipulationInstance(Copeland(), 0, p, coalition=frozenset({2}))
        assignment = condorcet_coalition_manipulate(inst)
        assert assignment == {2: (0, 1, 2)}
        replay = replay_coalition(inst, assignment)
        assert H.condorcet_of(replay) == 0

    def test_pinned_failure(self):
        # even topping A everywhere leaves A at half against B
        p = Profile(
            cands(3),
            (vote((1, 0, 2), 4), vote((2, 1, 0), 2), vote((0, 1, 2), 3)),
        )
        inst = ManipulationInstance(Copeland(), 0, p, coalition=frozenset({2}))
        assert condorcet_coalition_manipulate(inst) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(97)
        hits = shared = 0
        for _ in range(120):
            m = rng.randint(2, 4)
            p, coalition, straddles = rand_coalition_profile(rng, m)
            shared += straddles
            target = rng.randrange(m)
            inst = ManipulationInstance(Copeland(), target, p, coalition=coalition)
            assignment = condorcet_coalition_manipulate(inst)
            expected = H.brute_condorcet_coalition_possible(p, coalition, target)
            assert (assignment is not None) == expected
            if assignment is not None:
                hits += 1
                replay = replay_coalition(inst, assignment)
                assert H.condorcet_of(replay) == target
        assert hits > 0 and shared > 0


class TestPreference:
    AGENDA = ((0, 1), 2)

    def test_unlocked_pairs_may_be_reversed(self):
        # the sincere completion elects A; flipping the free pair elects B
        committed = PartialBallot.from_order((0, 1), 3)  # nothing locked
        p = Profile(cands(2), (committed, vote((1, 0), 2)))
        inst = ManipulationInstance(plurality(), 1, p)
        witness = preference_manipulate(inst)
        assert witness is not None
        assert winner(plurality(), witness, TieBreak.favor(1)).label == "B"

    def test_locked_pairs_are_immovable(self):
        locked = PartialBallot.from_order((0, 1), 3, locked_all=True)
        p = Profile(cands(2), (locked, vote((1, 0), 2)))
        inst = ManipulationInstance(plurality(), 1, p)
        assert preference_manipulate(inst) is None

    def test_witness_extends_every_locked_pair(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(120):
            m = rng.randint(2, 3)
            ballots = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 3)))
                else:
                    ballots.append(H.rand_partial(rng, m, rng.randint(1, 3), lock=True))
            p = Profile(cands(m), tuple(ballots), strict_odd=False)
            target = rng.randrange(m)
            rule = rng.choice((plurality(), Stv(), Cup(H.rand_agenda(rng, range(m)))))
            inst = ManipulationInstance(rule, target, p)
            witness = preference_manipulate(inst)
            expected = H.brute_preference_possible(rule, p, target)
            assert (witness is not None) == expected
            if witness is None:
                continue
            checked += 1
            assert winner(rule, witness, TieBreak.favor(target)).id == target
            assert witness.total_weight == p.total_weight
            for original, rewritten in zip(p.ballots, witness.ballots):
                assert rewritten.weight == original.weight
                if isinstance(original, PartialBallot):
                    written = WeightedBallot(rewritten.order, 1).pairs()
                    assert original.locked <= written
                else:
                    assert rewritten == original
        assert checked > 0

    def test_unknown_weight_counts_as_free_agents(self):
        p = Profile(cands(2), (vote((0, 1), 1),), unknown_weight=2)
        inst = ManipulationInstance(plurality(), 1, p)
        witness = preference_manipulate(inst)
        assert witness is not None
        assert winner(plurality(), witness, TieBreak.favor(1)).label == "B"


class TestPairwiseWitness:
    """Cup and Copeland(2) witnesses read back from the pairwise projection.

    Weights reach 40, so running sums clamp at a settled majority, and up
    to 4 unknown units (or repeated ballots) form groups whose sums reach a
    fixpoint before their last ballot.
    """

    @staticmethod
    def rule(rng, m):
        kind = rng.randrange(3)
        if kind == 0:
            return Cup(H.rand_agenda(rng, range(m)))
        return Copeland() if kind == 1 else Copeland2()

    @staticmethod
    def ballots(rng, n, make):
        out = []
        for _ in range(n):
            ballot = make(rng.randint(1, 40))
            out.extend([ballot] * (2 if rng.random() < 0.2 else 1))
        return tuple(out)

    @pytest.mark.parametrize("rule", [Cup(0), Copeland(), Copeland2()], ids=repr)
    def test_one_candidate_wins_through_the_projection(self, rule):
        # a lone candidate's cup agenda is a leaf, not a match
        p = Profile(cands(1), (vote((0,), 1), PartialBallot(frozenset(), 2)))
        assert preference_manipulate(ManipulationInstance(rule, 0, p)).ballots == (
            vote((0,), 1),
            vote((0,), 2),
        )
        assert coalition_manipulate(ManipulationInstance(rule, 0, p, frozenset({0}))) == {0: (0,)}

    def test_preference_agrees_with_brute_force(self):
        rng = random.Random(137)
        found = tried = 0
        while tried < 220:
            m = rng.randint(2, 4)
            ballots = self.ballots(
                rng, rng.randint(1, 4),
                lambda w: vote(H.rand_order(rng, m), w)
                if rng.random() < 0.4
                else H.rand_partial(rng, m, w, lock=True),
            )
            p = Profile(
                cands(m), ballots, unknown_weight=rng.randint(0, 4), strict_odd=False
            )
            if H.completion_count(p, locked_only=True) > 3000:
                continue
            tried += 1
            target = rng.randrange(m)
            rule = self.rule(rng, m)
            witness = preference_manipulate(ManipulationInstance(rule, target, p))
            assert (witness is not None) == H.brute_preference_possible(rule, p, target)
            if witness is None:
                continue
            found += 1
            assert winner(rule, witness, TieBreak.favor(target)).id == target
            assert witness.is_complete
            assert witness.total_weight == p.total_weight
            assert len(witness.ballots) == len(p.ballots) + p.unknown_weight
            for original, rewritten in zip(p.ballots, witness.ballots):
                assert rewritten.weight == original.weight
                if isinstance(original, PartialBallot):
                    assert original.locked <= rewritten.pairs()
                else:
                    assert rewritten == original
        assert 0 < found < tried

    def test_coalition_agrees_with_brute_force(self):
        rng = random.Random(139)
        found = 0
        for _ in range(220):
            m = rng.randint(2, 4)
            ballots = self.ballots(
                rng, rng.randint(2, 5), lambda w: vote(H.rand_order(rng, m), w)
            )
            p = Profile(cands(m), ballots, strict_odd=False)
            most = min(len(ballots), 2 if m == 4 else 3)
            coalition = frozenset(rng.sample(range(len(ballots)), rng.randint(1, most)))
            target = rng.randrange(m)
            rule = Copeland() if rng.random() < 0.5 else Copeland2()
            inst = ManipulationInstance(rule, target, p, coalition=coalition)
            assignment = coalition_manipulate(inst)
            expected = H.brute_coalition_possible(rule, p, coalition, target)
            assert (assignment is not None) == expected
            if assignment is None:
                continue
            found += 1
            assert set(assignment) == coalition
            replay = replay_coalition(inst, assignment)
            assert winner(rule, replay, TieBreak.favor(target)).id == target
        assert found > 0

    @pytest.mark.parametrize(
        "bag",
        [
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15),
            tuple(2**i for i in range(1, 15)),
        ],
    )
    def test_cup_bag_past_the_completion_cap(self, bag):
        inst = gen_cup_preference_manipulation(PartitionInstance(bag))
        # each bag ballot is committed to its locked pair only
        assert space_size(completion_groups(inst.profile)) > DEFAULT_COMPLETION_CAP
        witness = preference_manipulate(inst)
        assert (witness is not None) == has_equal_partition_dp(bag)
        if witness is not None:
            assert winner(inst.rule, witness, TieBreak.favor(inst.target)) == inst.target


class TestGolden:
    def test_the_committed_golden_is_recomputed(self):
        # witnesses, coalition mappings, reduction answers and capped
        # refusals, byte for byte as committed in tests/golden
        golden = Path(__file__).parent / "golden" / "manipulation.txt"
        lines = golden.read_text(encoding="ascii").splitlines()
        assert len(lines) > 1500
        assert H.manipulation_golden() == lines
