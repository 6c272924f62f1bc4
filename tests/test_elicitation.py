"""Termination predicates for coarse, fine and single-peaked elicitation."""

import random
import tracemalloc

import pytest

from votelab import (
    DEFAULT_COMPLETION_CAP,
    Axis,
    CapExceeded,
    Copeland,
    Copeland2,
    Cup,
    Hybrid,
    InvalidProfile,
    ManipulationInstance,
    ModelMismatch,
    NotCompletableSP,
    Pairing,
    PartialBallot,
    PartitionInstance,
    Profile,
    Runoff,
    Scoring,
    Stv,
    TieBreak,
    borda,
    candidates_from_labels,
    coalition_manipulate,
    coarse_elicitation_over,
    condorcet_winner_fixed,
    cup3_fine_over,
    cup_single_peaked_over,
    fine_elicitation_over,
    fine_sp_elicitation_over,
    gen_stv_sp_elicitation,
    has_equal_partition_dp,
    hybrid_coarse_over,
    parse_profile,
    parse_rule,
    plurality,
    possible_winners,
    preference_manipulate,
    single_peaked_condorcet_winner,
    space_size,
    veto,
    winner,
)

import votelab.elicitation as E
from votelab.completions import completion_groups

import helpers as H
from helpers import cands, vote


def plabels(cs):
    return sorted(c.label for c in cs)


class TestPossibleWinners:
    def test_complete_profile_is_decided(self):
        p = Profile(cands(3), (vote((2, 0, 1), 3),))
        assert plabels(possible_winners(plurality(), p)) == ["C"]
        assert fine_elicitation_over(plurality(), p)

    def test_partial_that_cannot_change_the_outcome(self):
        p = Profile(cands(2), (vote((0, 1), 2), PartialBallot(frozenset(), 1)))
        assert plabels(possible_winners(plurality(), p)) == ["A"]
        assert fine_elicitation_over(plurality(), p)

    def test_unknown_unit_swings_a_near_tie(self):
        p = Profile(cands(2), (vote((0, 1), 1), vote((1, 0), 1)), unknown_weight=1)
        assert plabels(possible_winners(plurality(), p)) == ["A", "B"]
        assert not fine_elicitation_over(plurality(), p)

    def test_single_candidate_is_trivially_over(self):
        p = Profile(cands(1), (), unknown_weight=3)
        assert plabels(possible_winners(Stv(), p)) == ["A"]
        assert fine_elicitation_over(Stv(), p)

    def test_matches_brute_reference(self):
        rng = random.Random(31)
        rules = lambda m: (
            plurality(),
            Copeland(),
            Stv(),
            Cup(H.rand_agenda(rng, range(m))),
        )
        for _ in range(60):
            m = rng.randint(2, 3)
            ballots = [vote(H.rand_order(rng, m), rng.randint(1, 4))]
            for _ in range(rng.randint(0, 2)):
                ballots.append(H.rand_partial(rng, m, rng.randint(1, 3)))
            unknown = rng.randint(0, 2)
            if (sum(b.weight for b in ballots) + unknown) % 2 == 0:
                ballots.append(vote(H.rand_order(rng, m), 1))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown)
            for rule in rules(m):
                assert possible_winners(rule, p) == H.brute_possible(rule, p)

    def test_cap_exceeded_rather_than_truncated(self):
        p = Profile(cands(4), (vote((0, 1, 2, 3), 1),), unknown_weight=10)
        with pytest.raises(CapExceeded):
            possible_winners(plurality(), p, cap=1000)

    def test_pairwise_rules_absorb_huge_unknown_pools(self):
        # the sign projection collapses interchangeable unknown agents
        p = Profile(cands(3), (vote((0, 1, 2), 100),), unknown_weight=31)
        assert plabels(possible_winners(Copeland(), p)) == ["A"]

    def test_saturated_sums_fit_a_small_cap(self):
        # heavy torn ballots push the open pair past its majority at once;
        # clamped sums reach a fixpoint in 169 work units, unclamped need 405
        torn = [PartialBallot(frozenset({(1, 2)}), 5000) for _ in range(8)]
        p = Profile(
            cands(3),
            (*torn, vote((2, 1, 0), 1), vote((0, 1, 2), 1), vote((1, 0, 2), 3)),
            strict_odd=False,
        )
        expected = H.brute_possible(Copeland(), p)
        assert plabels(expected) == ["A", "B"]
        assert possible_winners(Copeland(), p, cap=300) == expected
        cup = Cup(((0, 1), 2))
        assert possible_winners(cup, p, cap=300) == H.brute_possible(cup, p)

    def test_pairwise_stream_is_read_lazily(self, monkeypatch):
        # the rule is decided per sign pattern only as far as the caller reads
        p = Profile(cands(4), (vote((0, 1, 2, 3), 1),), unknown_weight=4)
        groups = completion_groups(p)
        items = sum(1 for _ in E._pairwise_possible_ids(Copeland(), p, groups, None))
        calls = 0
        decide = E.achievable_from_masks

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return decide(*args, **kwargs)

        monkeypatch.setattr(E, "achievable_from_masks", counted)
        assert not fine_elicitation_over(Copeland(), p)
        assert 0 < calls < items

    def test_heavy_weights_match_brute_reference(self):
        # weights far above the unit counts, so the clamp fires on open pairs
        rng = random.Random(47)
        for _ in range(60):
            m = rng.randint(3, 4)
            ballots = [vote(H.rand_order(rng, m), rng.randint(1, 500))]
            for _ in range(rng.randint(1, 2)):
                ballots.append(H.rand_partial(rng, m, rng.randint(1, 500)))
            p = Profile(
                cands(m),
                tuple(ballots),
                unknown_weight=rng.randint(0, 1),
                strict_odd=False,
            )
            for rule in (Copeland(), Copeland2(), Cup(H.rand_agenda(rng, range(m)))):
                expected = H.brute_possible(rule, p)
                assert possible_winners(rule, p) == expected
                assert fine_elicitation_over(rule, p) == (len(expected) == 1)


class TestProjectionSetup:
    """Placing every option on every pair is charged to ``cap`` up front."""

    def test_one_unknown_unit_over_seven_candidates(self):
        p = Profile(cands(7), (), unknown_weight=1)
        with pytest.raises(CapExceeded) as info:
            possible_winners(Copeland(), p, cap=100_000)
        assert info.value.estimate == 7 * 6 * 5 * 4 * 3 * 2 * 21 == 105_840
        assert str(info.value) == (
            "pairwise projections of options: 105840, above the cap of 100000"
        )
        assert len(possible_winners(Copeland(), p, cap=None)) == 7


    def test_the_summing_is_charged_with_the_same_estimate(self):
        # one vote and a pool of unknown units leave every pair open; the
        # pool's sums, up to its fixpoint, are charged as they are made
        for unknown, cap, estimate in ((31, 10_000, 12_210), (12, 2_000, 3_192)):
            p, _ = parse_profile(
                f"candidates: A B C\nvote w=1 A>B>C\nunknown w={unknown}\n", strict_odd=False
            )
            message = f"pairwise-projection sums: {estimate}, above the cap of {cap}"
            calls = (
                lambda: possible_winners(Copeland(), p, cap=cap),
                lambda: preference_manipulate(ManipulationInstance(Copeland(), 0, p), cap=cap),
            )
            for call in calls:
                with pytest.raises(CapExceeded) as info:
                    call()
                assert info.value.estimate == estimate and str(info.value) == message


def _packed_case(rng: random.Random) -> tuple[Profile, set[str]]:
    """A profile small enough for the brute referees, with one of three
    stresses on the packed projection: two free ballots near ``MAX_WEIGHT``
    (fields wider than 64 bits), repeated partial ballots, or a unit pool
    (so a group reaches its fixpoint).  Totals may be even, so ties occur."""
    while True:
        m = rng.choice((2, 3, 3, 4, 4, 5, 6))
        ballots = [vote(H.rand_order(rng, m), rng.randint(1, 3))]
        unknown = 0
        kind = rng.choice(("heavy", "repeated", "pool"))
        if kind == "heavy":
            for k in (rng.randint(8, 40), rng.randint(8, 40)):
                ballots.append(H.rand_partial(rng, m, 2**62 - k, lock=True))
        elif kind == "repeated":
            twin = H.rand_partial(rng, m, rng.randint(1, 4), lock=True)
            ballots += [twin] * rng.randint(2, 5)
        else:
            unknown = rng.randint(2, 6)
        for _ in range(rng.randint(0, 2)):
            ballots.append(H.rand_partial(rng, m, rng.randint(1, 3), lock=True))
        p = Profile(cands(m), tuple(ballots), unknown_weight=unknown, strict_odd=False)
        sizes = H.completion_count(p), H.completion_count(p, locked_only=True)
        if max(sizes) <= 150:
            tags = {kind, f"m{m}", "even" if p.total_weight % 2 == 0 else "odd"}
            return p, tags


def _shared_list_case(rng: random.Random) -> Profile:
    """A profile whose partial ballots all share one set of commitments and
    one locked subset of it, as several ballot objects of different weights,
    each in one or more slots (one option list, many groups), beside one vote
    and 0-2 unknown units."""
    while True:
        m = rng.choice((2, 3, 3, 4, 4))
        shape = H.rand_partial(rng, m, 1, lock=True)
        ballots = [vote(H.rand_order(rng, m), rng.randint(1, 5))]
        for _ in range(rng.randint(2, 4)):
            twin = PartialBallot(shape.pairs, rng.randint(1, 6), shape.locked)
            ballots += [twin] * rng.randint(1, 3)
        rng.shuffle(ballots)
        p = Profile(cands(m), tuple(ballots), unknown_weight=rng.randint(0, 2), strict_odd=False)
        if max(H.completion_count(p), H.completion_count(p, locked_only=True)) <= 400:
            return p


class TestPackedProjection:
    def test_shared_option_lists_agree_with_brute_force(self):
        rng = random.Random(3107)
        seen: set[tuple] = set()
        for _ in range(90):
            p = _shared_list_case(rng)
            m = p.m
            groups = completion_groups(p)
            partial = [g for g in groups if g.indices]
            seen.add((m, len(partial) > len({id(g.options) for g in partial}), p.unknown_weight))
            for rule in (Cup(H.rand_agenda(rng, range(m))), Copeland(), Copeland2()):
                assert possible_winners(rule, p, cap=None) == H.brute_possible(rule, p)
                for target in range(m):
                    inst = ManipulationInstance(rule, target, p)
                    found = preference_manipulate(inst, cap=None)
                    assert (found is not None) == H.brute_preference_possible(rule, p, target)
                    if found is not None:
                        assert winner(rule, found, TieBreak.favor(target)).id == target
        assert {m for m, _, _ in seen} == {2, 3, 4}
        assert {u for _, many, u in seen if many} == {0, 1, 2}

    def test_agrees_with_brute_referees(self):
        rng = random.Random(1507)
        seen: set[str] = set()
        for n in range(300):
            p, tags = _packed_case(rng)
            seen |= tags
            m = p.m
            rule = (Copeland(), Copeland2(), Cup(H.rand_agenda(rng, range(m))))[n % 3]
            assert possible_winners(rule, p) == H.brute_possible(rule, p)
            target = rng.randrange(m)
            found = preference_manipulate(ManipulationInstance(rule, target, p))
            assert (found is not None) == H.brute_preference_possible(rule, p, target)
            if found is not None:
                assert winner(rule, found, TieBreak.favor(target)).id == target
                for ballot, cast in zip(p.ballots, found.ballots):
                    if isinstance(ballot, PartialBallot):
                        rank = cast.order.index
                        assert all(rank(a) < rank(b) for a, b in ballot.locked)
        assert {"heavy", "repeated", "pool", "even", "odd", "m2", "m6"} <= seen


class TestCoarse:
    def test_cast_majority_settles_plurality(self):
        p = Profile(cands(2), (vote((0, 1), 7),), unknown_weight=2)
        assert coarse_elicitation_over(plurality(), p)

    def test_pending_voters_can_still_flip(self):
        p = Profile(cands(2), (vote((0, 1), 4), vote((1, 0), 3)), unknown_weight=2)
        assert not coarse_elicitation_over(plurality(), p)

    def test_genuine_partial_is_a_model_mismatch(self):
        p = Profile(cands(2), (vote((0, 1), 2), PartialBallot(frozenset(), 1)))
        with pytest.raises(ModelMismatch):
            coarse_elicitation_over(plurality(), p)

    def test_total_partial_ballots_are_fine(self):
        p = Profile(cands(2), (PartialBallot.from_order((0, 1), 3),))
        assert coarse_elicitation_over(plurality(), p)


class TestCup3:
    def test_rejects_more_than_three_candidates(self):
        p = Profile(cands(4), (vote((0, 1, 2, 3), 1),))
        with pytest.raises(ModelMismatch):
            cup3_fine_over(((0, 1), (2, 3)), p)

    def test_trivial_sizes(self):
        assert cup3_fine_over(0, Profile(cands(1), (), unknown_weight=1))
        p2 = Profile(cands(2), (vote((0, 1), 2),), unknown_weight=1)
        assert cup3_fine_over((0, 1), p2)

    def test_two_candidate_open_race(self):
        p = Profile(cands(2), (vote((0, 1), 1),), unknown_weight=2)
        assert not cup3_fine_over((0, 1), p)

    def test_agrees_with_brute_force(self):
        rng = random.Random(47)
        agendas = [((0, 1), 2), ((0, 2), 1), ((1, 2), 0)]
        for _ in range(250):
            ballots = []
            for _ in range(rng.randint(0, 3)):
                ballots.append(vote(H.rand_order(rng, 3), rng.randint(1, 6)))
            for _ in range(rng.randint(0, 2)):
                ballots.append(H.rand_partial(rng, 3, rng.randint(1, 4)))
            unknown = rng.randint(0, 2)
            total = sum(b.weight for b in ballots) + unknown
            if total == 0:
                ballots.append(vote(H.rand_order(rng, 3), 1))
                total = 1
            if total % 2 == 0 and rng.random() < 0.5:
                ballots.append(vote(H.rand_order(rng, 3), 1))
            p = Profile(cands(3), tuple(ballots), unknown_weight=unknown, strict_odd=False)
            agenda = rng.choice(agendas)
            expected = H.brute_fine_over(Cup(agenda), p)
            assert cup3_fine_over(agenda, p) == expected
            assert fine_elicitation_over(Cup(agenda), p) == expected

    def test_entry_point_needs_no_completion_cap(self):
        # 41 unknown agents hold far more than 1000 merged completions
        p = Profile(cands(3), (), unknown_weight=41)
        with pytest.raises(CapExceeded):
            possible_winners(Cup(((0, 1), 2)), p, cap=1000)
        assert not fine_elicitation_over(Cup(((0, 1), 2)), p, cap=1000)

    def test_heavy_torn_ballots_stay_within_the_cap(self):
        # a bitmask as wide as the torn weight would need 2**41 bits
        torn = PartialBallot(frozenset({(1, 2)}), 2**40)
        p = Profile(cands(3), (torn, torn, vote((2, 1, 0), 1)))
        tracemalloc.start()
        try:
            answer = fine_elicitation_over(Cup(((0, 1), 2)), p, cap=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert answer == H.brute_fine_over(Cup(((0, 1), 2)), p)

    def test_capped_shortcut_falls_back_to_the_search(self):
        torn = [PartialBallot(frozenset({(1, 2)}), 5000) for _ in range(20)]
        p = Profile(
            cands(3), (*torn, vote((2, 1, 0), 1), vote((0, 1, 2), 1)), strict_odd=False
        )
        with pytest.raises(CapExceeded):
            cup3_fine_over(((0, 1), 2), p, cap=6000)
        expected = cup3_fine_over(((0, 1), 2), p)
        assert fine_elicitation_over(Cup(((0, 1), 2)), p, cap=6000) == expected
        # the saturating projection answers in 1,170 work units
        assert fine_elicitation_over(Cup(((0, 1), 2)), p, cap=2000) == expected
        with pytest.raises(CapExceeded):
            fine_elicitation_over(Cup(((0, 1), 2)), p, cap=1000)


class TestCondorcetFixed:
    def test_committed_majority_fixes_the_winner(self):
        p = Profile(cands(3), (vote((1, 0, 2), 4), vote((1, 2, 0), 1)), unknown_weight=2)
        status = condorcet_winner_fixed(p)
        assert status.kind == "true"
        assert status.winner.label == "B"

    def test_complete_cycle_fixes_nonexistence(self):
        p = Profile(
            cands(3),
            (vote((0, 1, 2), 1), vote((1, 2, 0), 1), vote((2, 0, 1), 1)),
        )
        assert condorcet_winner_fixed(p).kind == "false"

    def test_blank_profile_is_undetermined(self):
        p = Profile(cands(3), (), unknown_weight=3)
        assert condorcet_winner_fixed(p).kind == "not-determined"

    def test_single_candidate_is_true(self):
        status = condorcet_winner_fixed(Profile(cands(1), (), unknown_weight=1))
        assert status.kind == "true" and status.winner.label == "A"

    def test_agrees_with_brute_classification(self):
        rng = random.Random(53)
        kinds, parities = set(), set()
        for t in range(300):
            # every third profile is complete, so decided outcomes appear too
            complete_only = t % 3 == 0
            m = rng.randint(3, 4) if complete_only else rng.randint(2, 4)
            ballots = []
            for _ in range(rng.randint(1, 3) if complete_only else rng.randint(0, 3)):
                if complete_only or rng.random() < 0.6:
                    ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 3)))
                else:
                    ballots.append(H.rand_partial(rng, m, rng.randint(1, 3)))
            unknown = 0 if complete_only else rng.randint(0, 1)
            total = sum(b.weight for b in ballots) + unknown
            # every other profile may keep an even total, so ties on the
            # forced and the blocked boundaries are met too
            strict_odd = t % 2 == 0
            if total == 0 or strict_odd and total % 2 == 0:
                ballots.append(vote(H.rand_order(rng, m), 1 + total % 2))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown, strict_odd=strict_odd)
            status = condorcet_winner_fixed(p)
            got = (status.kind, status.winner.id if status.winner else None)
            assert got == H.brute_condorcet_classify(p), p
            kinds.add(status.kind)
            parities.add(p.total_weight % 2)
        assert kinds == {"true", "false", "not-determined"}
        assert parities == {0, 1}


class TestSinglePeakedFine:
    AXIS = Axis((0, 1, 2))

    def test_axis_can_settle_what_free_completion_cannot(self):
        # B tops every single-peaked completion heavy enough to matter
        p = Profile(
            cands(3),
            (vote((1, 0, 2), 2), vote((1, 2, 0), 2), PartialBallot({(1, 0)}, 1)),
        )
        assert fine_sp_elicitation_over(plurality(), p, self.AXIS)

    def test_uncompletable_ballot_raises(self):
        p = Profile(cands(3), (PartialBallot({(0, 2), (2, 1)}, 1),))
        with pytest.raises(Exception):
            fine_sp_elicitation_over(Stv(), p, self.AXIS)

    def test_agrees_with_brute_single_peaked(self):
        rng = random.Random(61)
        for _ in range(80):
            m = rng.randint(2, 4)
            axis = Axis(tuple(rng.sample(range(m), m)))
            sp_orders = sorted(H.single_peaked_orders(axis))
            ballots = []
            for _ in range(rng.randint(0, 2)):
                ballots.append(vote(rng.choice(sp_orders), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                ballots.append(H.rand_sp_partial(rng, m, axis, rng.randint(1, 2)))
            unknown = rng.randint(0, 1)
            total = sum(b.weight for b in ballots) + unknown
            if total == 0 or total % 2 == 0:
                ballots.append(vote(rng.choice(sp_orders), 1 + total % 2))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown)
            for rule in (plurality(), Stv()):
                assert fine_sp_elicitation_over(rule, p, axis) == H.brute_fine_over(
                    rule, p, axis=axis
                )


class TestCupSinglePeaked:
    AXIS = Axis((0, 1, 2, 3))

    def test_needs_odd_total(self):
        p = Profile(cands(4), (vote((0, 1, 2, 3), 2),), strict_odd=False)
        with pytest.raises(InvalidProfile):
            cup_single_peaked_over(p, self.AXIS)

    def test_pinned_median_is_over(self):
        # every agent's peak span sits left of or at B, median stays at B
        p = Profile(
            cands(4),
            (vote((1, 0, 2, 3), 2), vote((1, 2, 3, 0), 2), vote((0, 1, 2, 3), 1)),
        )
        assert cup_single_peaked_over(p, self.AXIS)

    def test_floating_median_is_not_over(self):
        p = Profile(
            cands(4),
            (vote((0, 1, 2, 3), 2), vote((3, 2, 1, 0), 2)),
            unknown_weight=1,
        )
        assert not cup_single_peaked_over(p, self.AXIS)

    def test_median_divergence_from_pairwise_commitment(self):
        # the median peak is pinned although a pairwise contest is still open
        p = Profile(
            cands(4),
            (
                vote((0, 1, 2, 3), 2),
                vote((3, 2, 1, 0), 2),
                PartialBallot({(1, 0), (1, 2)}, 1),
            ),
        )
        assert cup_single_peaked_over(p, self.AXIS)
        assert condorcet_winner_fixed(p).kind == "not-determined"

    def test_agrees_with_fine_sp_for_every_agenda(self):
        rng = random.Random(67)
        for _ in range(60):
            m = rng.randint(2, 4)
            axis = Axis(tuple(rng.sample(range(m), m)))
            sp_orders = sorted(H.single_peaked_orders(axis))
            ballots = []
            for _ in range(rng.randint(0, 2)):
                ballots.append(vote(rng.choice(sp_orders), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                ballots.append(H.rand_sp_partial(rng, m, axis, rng.randint(1, 2)))
            unknown = rng.randint(0, 2)
            total = sum(b.weight for b in ballots) + unknown
            if total == 0 or (total % 2 == 0 and rng.random() < 0.7):
                ballots.append(vote(rng.choice(sp_orders), 1 + total % 2))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown, strict_odd=False)
            shortcut = (
                cup_single_peaked_over(p, axis) if p.total_weight % 2 else None
            )
            for _ in range(3):
                agenda = H.rand_agenda(rng, range(m))
                expected = H.brute_fine_over(Cup(agenda), p, axis=axis)
                assert fine_sp_elicitation_over(Cup(agenda), p, axis) == expected
                assert shortcut in (None, expected)

    def test_agrees_with_median_of_brute_peak_spans(self):
        # every agent's leftmost and rightmost peak over its single-peaked
        # completions, read off the enumerated slot options
        rng = random.Random(71)
        raised = 0
        for _ in range(150):
            m = rng.randint(1, 6)
            axis = Axis(tuple(rng.sample(range(m), m)))
            ballots = []
            for _ in range(rng.randint(0, 2)):
                order = rng.choice(sorted(H.single_peaked_orders(axis)))
                if rng.random() < 0.2:
                    order = H.rand_order(rng, m)
                ballots.append(vote(order, rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    ballots.append(H.rand_sp_partial(rng, m, axis, rng.randint(1, 3)))
                else:
                    ballots.append(H.rand_partial(rng, m, rng.randint(1, 3)))
            unknown = rng.randint(0, 2)
            if (sum(b.weight for b in ballots) + unknown) % 2 == 0:
                unknown += 1
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown)
            try:
                slots = H._slot_options(p, axis, False)
            except ValueError:
                slots = [(1, [])]
            if any(not options for _, options in slots):
                raised += 1
                with pytest.raises(NotCompletableSP):
                    cup_single_peaked_over(p, axis)
                continue
            ends = []
            for weight, options in slots:
                peaks = [axis.position(order[0]) for order in options]
                ends.append((weight, min(peaks), max(peaks)))

            def median(side):
                spread = sorted(e[side] for e in ends for _ in range(e[0]))
                return spread[len(spread) // 2]

            assert cup_single_peaked_over(p, axis) == (median(1) == median(2))
        assert 20 < raised < 130

    def test_long_axis_is_answered_without_listing_orders(self):
        # an unknown agent may cast any of 2^19 single-peaked orders
        m = 20
        agenda = 0
        for c in range(1, m):
            agenda = (agenda, c)
        labels = [f"C{i}" for i in range(m)]
        p = Profile(candidates_from_labels(labels), (vote(tuple(range(m)), 2),), unknown_weight=1)
        tracemalloc.start()
        try:
            over = fine_sp_elicitation_over(Cup(agenda), p, Axis(tuple(range(m))), cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert over
        assert peak < 2**20


AXIS_CHECKS = {
    "stv": lambda p, axis: fine_sp_elicitation_over(Stv(), p, axis),
    "copeland": lambda p, axis: fine_sp_elicitation_over(Copeland(), p, axis),
    "odd-cup": lambda p, axis: fine_sp_elicitation_over(Cup(((0, 1), 2)), p, axis),
    "cup-median": cup_single_peaked_over,
    "median-winner": lambda p, axis: single_peaked_condorcet_winner(
        Profile(p.candidates, p.ballots), axis
    ),
}


@pytest.mark.parametrize("axis", [Axis((0, 1)), Axis((0, 1, 2, 3))], ids=["short", "long"])
@pytest.mark.parametrize("call", AXIS_CHECKS.values(), ids=AXIS_CHECKS.keys())
def test_axis_over_other_candidates_is_refused(call, axis):
    # the median winner reads the same profile with the unknown pool cast off
    p = Profile(cands(3), (vote((0, 1, 2), 3),), unknown_weight=2)
    with pytest.raises(InvalidProfile, match="the axis orders"):
        call(p, axis)


class TestHybridCoarse:
    def test_decided_without_unknowns(self):
        p = Profile(
            cands(4),
            (vote((0, 1, 2, 3), 3), vote((1, 0, 3, 2), 2), vote((2, 3, 0, 1), 2)),
        )
        assert hybrid_coarse_over(Pairing(((0, 1), (2, 3))), p)

    def test_heavy_unknown_pool_keeps_it_open(self):
        p = Profile(cands(4), (vote((0, 1, 2, 3), 3),), unknown_weight=4)
        assert not hybrid_coarse_over(Pairing(((0, 1), (2, 3))), p)

    def test_partial_ballot_is_a_model_mismatch(self):
        p = Profile(cands(2), (PartialBallot(frozenset(), 1),))
        with pytest.raises(ModelMismatch):
            hybrid_coarse_over(Pairing(((0, 1),)), p)

    def test_agrees_with_brute_force(self):
        rng = random.Random(71)
        unknown_limit = {2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
        for _ in range(120):
            m = rng.randint(2, 6)
            ids = list(range(m))
            rng.shuffle(ids)
            pairs = tuple(
                (ids[i], ids[i + 1]) for i in range(0, m - 1, 2)
            )
            pairing = Pairing(pairs, bye=ids[-1] if m % 2 else None)
            ballots = []
            for _ in range(rng.randint(0, 3)):
                ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 5)))
            unknown = rng.randint(0, unknown_limit[m])
            total = sum(b.weight for b in ballots) + unknown
            if total == 0 or (total % 2 == 0 and rng.random() < 0.5):
                ballots.append(vote(H.rand_order(rng, m), 1 + total % 2))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown, strict_odd=False)
            expected = H.brute_fine_over(Hybrid(pairing), p)
            assert hybrid_coarse_over(pairing, p) == expected
            assert coarse_elicitation_over(Hybrid(pairing), p) == expected

    def test_survivor_sets_are_charged_to_the_cap(self):
        # two weight-5 ballots top the bye and split all 14 pairs evenly, so
        # every pair keeps both sides and the round ends in 2**14 sets
        pairs = tuple((2 * i + 1, 2 * i + 2) for i in range(14))
        p = Profile(
            candidates_from_labels([f"C{i}" for i in range(29)]),
            (
                vote([0] + [c for pair in pairs for c in pair], 5),
                vote([0] + [c for a, b in pairs for c in (b, a)], 5),
            ),
            unknown_weight=1,
        )
        pairing = Pairing(pairs, bye=0)
        with pytest.raises(CapExceeded) as exc:
            hybrid_coarse_over(pairing, p, cap=1000)
        assert exc.value.estimate == 1001
        with pytest.raises(CapExceeded):
            coarse_elicitation_over(Hybrid(pairing), p, cap=1000)
        assert hybrid_coarse_over(pairing, p, cap=None)


def _rand_pairing(rng, m):
    ids = H.rand_order(rng, m)
    return Pairing(tuple(zip(ids[0::2], ids[1::2])), ids[-1] if m % 2 else None)


class TestPlanner:
    """Each termination question takes the path its input fits, whichever
    entry point was called."""

    def test_whole_ballot_hybrid_takes_the_survivor_walk_from_every_entry(self):
        rng = random.Random(89)
        unknown_limit = {2: 5, 3: 3, 4: 2, 5: 1}
        for _ in range(150):
            m = rng.randint(2, 5)
            pairing = _rand_pairing(rng, m)
            ballots = []
            for _ in range(rng.randint(0, 3)):
                order, weight = H.rand_order(rng, m), rng.randint(1, 40)
                ballot = (
                    PartialBallot.from_order(order, weight)
                    if rng.random() < 0.3
                    else vote(order, weight)
                )
                ballots += [ballot] * rng.randint(1, 2)  # repeated ballot objects
            unknown = rng.randint(0, unknown_limit[m])
            if not ballots and not unknown:
                ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 40)))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown, strict_odd=False)
            expected = H.brute_fine_over(Hybrid(pairing), p)
            assert fine_elicitation_over(Hybrid(pairing), p) == expected
            assert coarse_elicitation_over(Hybrid(pairing), p) == expected

    def test_six_candidate_hybrid_is_answered_by_both_entry_points(self):
        # 11,290,989,780 joint completions; the round ends in 8 survivor sets
        text = (
            "candidates: A B C D E F\n"
            "vote w=5 A>B>C>D>E>F\n"
            "vote w=4 F>E>D>C>B>A\n"
            "unknown w=4\n"
        )
        p, _ = parse_profile(text, strict_odd=False)
        rule = parse_rule("hybrid:(A,B)(C,D)(E,F)", p.candidates)
        assert not fine_elicitation_over(rule, p, cap=8)
        assert not coarse_elicitation_over(rule, p, cap=8)
        assert not fine_elicitation_over(rule, p)

    def test_genuinely_partial_hybrid_keeps_the_search(self):
        p = Profile(cands(4), (vote((0, 1, 2, 3), 3), PartialBallot({(2, 3)}, 1)), 1)
        with pytest.raises(ModelMismatch):
            coarse_elicitation_over(Hybrid(Pairing(((0, 1), (2, 3)))), p)
        assert fine_elicitation_over(Hybrid(Pairing(((0, 1), (2, 3)))), p) == H.brute_fine_over(
            Hybrid(Pairing(((0, 1), (2, 3)))), p
        )

    def test_median_peak_answers_every_condorcet_consistent_rule(self):
        rng = random.Random(97)
        for _ in range(120):
            m = rng.randint(2, 5)
            axis = Axis(H.rand_order(rng, m))
            sp_orders = sorted(H.single_peaked_orders(axis))
            ballots = []
            for _ in range(rng.randint(0, 3)):
                ballot = vote(rng.choice(sp_orders), rng.randint(1, 40))
                ballots += [ballot] * rng.randint(1, 2)
            ballot = H.rand_sp_partial(rng, m, axis, rng.randint(1, 40))
            ballots += [ballot] * rng.randint(0, 2)
            unknown = rng.randint(0, 1)
            if (sum(b.weight for b in ballots) + unknown) % 2 == 0:
                ballots.append(vote(rng.choice(sp_orders), 1))
            p = Profile(cands(m), tuple(ballots), unknown_weight=unknown)
            for rule in (Copeland(), Copeland2(), Cup(H.rand_agenda(rng, range(m)))):
                expected = H.brute_fine_over(rule, p, axis=axis)
                # the median peak spends none of the cap
                assert fine_sp_elicitation_over(rule, p, axis, cap=0) == expected

    def test_twelve_candidate_copeland_is_answered_by_the_median_peak(self):
        # the projection would refuse this with estimate 2,212,654
        m = 12
        p = Profile(
            candidates_from_labels([f"C{i}" for i in range(m)]),
            (
                vote(tuple(range(m)), 3),
                vote(tuple(reversed(range(m))), 3),
                PartialBallot({(6, 7)}, 2),
            ),
            unknown_weight=1,
        )
        axis = Axis(tuple(range(m)))
        for rule in (Copeland(), Copeland2()):
            assert not fine_sp_elicitation_over(rule, p, axis)
            assert not fine_sp_elicitation_over(rule, p, axis, cap=0)

    def test_stv_hybrid_and_even_totals_keep_the_search_on_an_axis(self):
        rng = random.Random(101)
        for _ in range(60):
            m = rng.randint(2, 4)
            axis = Axis(H.rand_order(rng, m))
            sp_orders = sorted(H.single_peaked_orders(axis))
            ballots = [vote(rng.choice(sp_orders), rng.randint(1, 40))]
            for _ in range(rng.randint(0, 2)):
                ballots.append(H.rand_sp_partial(rng, m, axis, rng.randint(1, 40)))
            p = Profile(cands(m), tuple(ballots), rng.randint(0, 1), strict_odd=False)
            for rule in (Hybrid(_rand_pairing(rng, m)), Stv(), Copeland()):
                assert fine_sp_elicitation_over(rule, p, axis) == H.brute_fine_over(
                    rule, p, axis=axis
                )


class TestBranchAndBound:
    """The enumeration prunes subtrees whose rule bound adds nothing new."""

    @staticmethod
    def _count_scored(monkeypatch) -> list[int]:
        """A one-item list counting the completions the enumeration scores."""
        scored = [0]
        achievable = E._achievable_ids

        def counted(*args, **kwargs):
            scored[0] += 1
            return achievable(*args, **kwargs)

        monkeypatch.setattr(E, "_achievable_ids", counted)
        return scored

    @staticmethod
    def _answers(cases):
        out = []
        for rule, p, axis, target, votes, free in cases:
            cast = Profile(p.candidates, votes, strict_odd=False)
            pooled = Profile(p.candidates, votes, p.unknown_weight, strict_odd=False)
            out.append((
                possible_winners(rule, p, cap=None),
                fine_elicitation_over(rule, p, cap=None),
                fine_sp_elicitation_over(rule, p, axis, cap=None) if axis else None,
                coarse_elicitation_over(rule, pooled, cap=None),
                preference_manipulate(ManipulationInstance(rule, target, p), cap=None),
                coalition_manipulate(ManipulationInstance(rule, target, cast, free), cap=None),
            ))
        return out

    def test_pruned_stream_answers_as_the_full_walk(self, monkeypatch):
        # the same answers and the same witnesses, the first electing
        # assignment, as the walk given no hook; weights up to 40, repeated
        # ballot objects, unknown units and an axis half the time
        rng = random.Random(20261019)
        cases = []
        while len(cases) < 120:
            m = rng.randint(2, 5)
            axis = Axis(H.rand_order(rng, m)) if rng.random() < 0.5 else None
            sp = sorted(H.single_peaked_orders(axis)) if axis else None
            draw = (lambda: rng.choice(sp)) if axis else (lambda: H.rand_order(rng, m))
            votes = []
            for _ in range(rng.randint(1, 3)):
                votes += [vote(draw(), rng.randint(1, 40))] * rng.randint(1, 2)
            ballots = list(votes)
            for _ in range(rng.randint(2, 5)):
                weight = rng.randint(1, 40)
                partial = (
                    H.rand_sp_partial(rng, m, axis, weight)
                    if axis
                    else H.rand_partial(rng, m, weight, lock=rng.random() < 0.5)
                )
                ballots += [partial] * rng.randint(1, 2)
            rng.shuffle(ballots)
            p = Profile(cands(m), tuple(ballots), rng.randint(0, 2), strict_odd=False)
            if H.completion_count(p, locked_only=True) > 3000:
                continue
            free = frozenset(rng.sample(range(len(votes)), rng.randint(1, min(2, len(votes)))))
            if m > 4 and len(free) > 1:
                continue
            vector = tuple(sorted(rng.sample(range(12), m), reverse=True))
            rule = rng.choice(
                [plurality(), veto(), borda(), Scoring(vector=vector), Runoff(), Stv()]
            )
            cases.append((rule, p, axis, rng.randrange(m), tuple(votes), free))

        scored = self._count_scored(monkeypatch)
        pruned, pruned_scored = self._answers(cases), scored[0]
        scored[0] = 0
        monkeypatch.setattr(E, "_rule_bound", lambda rule, m: None)
        full, full_scored = self._answers(cases), scored[0]
        assert pruned == full
        assert pruned_scored < full_scored // 2

    def test_a_late_witness_is_still_the_first_of_the_full_walk(self, monkeypatch):
        # Borda over four candidates with three free ballots: the first
        # electing assignment is the 1,228th of 13,824, long after the walk
        # starts pruning subtrees in which the target cannot win
        ballots = (
            vote((1, 3, 2, 0), 7),
            vote((1, 0, 2, 3), 3),
            vote((1, 0, 2, 3), 4),
            PartialBallot(frozenset(), 3),
            PartialBallot(frozenset(), 7),
            PartialBallot(frozenset(), 2),
        )
        inst = ManipulationInstance(borda(), 0, Profile(cands(4), ballots, strict_odd=False))
        scored = self._count_scored(monkeypatch)
        pruned = preference_manipulate(inst)
        assert pruned is not None and scored[0] < 1228
        monkeypatch.setattr(E, "_rule_bound", lambda rule, m: None)
        assert preference_manipulate(inst) == pruned

    def test_non_splitting_stv_bags_of_ten_answer_at_the_default_cap(self):
        # the reduction's hard side: every completion elects the same
        # candidate, so every subtree below the first must be ruled out
        rng = random.Random(2026)
        answered = 0
        while answered < 5:
            bag = tuple(rng.randint(1, 40) for _ in range(10))
            if sum(bag) % 2 or has_equal_partition_dp(bag):
                continue
            p, axis = gen_stv_sp_elicitation(PartitionInstance(bag))
            if space_size(completion_groups(p, axis=axis)) > DEFAULT_COMPLETION_CAP:
                continue  # the merged space alone is refused, as the next test pins
            assert fine_sp_elicitation_over(Stv(), p, axis)
            answered += 1

    def test_the_merged_space_is_still_charged_up_front(self):
        # pruning leaves the cap's meaning alone: twelve distinct bag values
        # give 4**12 merged completions, refused before any is scored
        bag = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100)
        assert not has_equal_partition_dp(bag)
        p, axis = gen_stv_sp_elicitation(PartitionInstance(bag))
        assert space_size(completion_groups(p, axis=axis)) == 4**12
        with pytest.raises(CapExceeded) as exc:
            fine_sp_elicitation_over(Stv(), p, axis)
        assert exc.value.estimate == 4**12
        assert fine_sp_elicitation_over(Stv(), p, axis, cap=4**12)
