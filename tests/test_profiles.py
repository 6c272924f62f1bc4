"""Ballot, profile and single-peakedness primitives."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import (
    Axis,
    Candidate,
    CapExceeded,
    Copeland,
    Cup,
    EvaluationQuery,
    Hybrid,
    InvalidInstance,
    InvalidProfile,
    ManipulationInstance,
    NotCompletableSP,
    Pairing,
    PartialBallot,
    PartitionInstance,
    Profile,
    ScenarioDistribution,
    Stv,
    WeightedBallot,
    coalition_manipulate,
    coarse_elicitation_over,
    completion_groups,
    condorcet_coalition_manipulate,
    condorcet_winner_fixed,
    copeland_score,
    cup3_fine_over,
    cup_single_peaked_over,
    evaluate,
    fine_elicitation_over,
    fine_sp_elicitation_over,
    has_equal_partition_dp,
    is_single_peaked,
    linear_extensions,
    majority_matrix,
    plurality,
    possible_winners,
    preference_manipulate,
    single_peaked_condorcet_winner,
    single_peaked_extensions,
    single_peaked_orders,
    sp_completable,
    transitive_closure,
    win_probability,
    winner,
)
from votelab import profiles
from votelab.profiles import _count_extensions

import helpers as H
from helpers import cands, vote

orders3 = st.permutations(range(3)).map(tuple)


class TestTransitiveClosure:
    def test_chain_implies_skip(self):
        assert (0, 2) in transitive_closure([(0, 1), (1, 2)])

    def test_closure_is_idempotent(self):
        once = transitive_closure([(0, 1), (1, 2), (2, 3)])
        assert transitive_closure(tuple(once)) == once

    def test_cycle_rejected(self):
        with pytest.raises(InvalidProfile):
            transitive_closure([(0, 1), (1, 2), (2, 0)])

    def test_self_pair_rejected(self):
        with pytest.raises(InvalidProfile):
            transitive_closure([(1, 1)])


class TestWeightedBallot:
    def test_pairs_of_full_order(self):
        assert WeightedBallot((0, 1, 2), 1).pairs() == frozenset(
            {(0, 1), (0, 2), (1, 2)}
        )

    def test_repeated_candidate_rejected(self):
        with pytest.raises(InvalidProfile):
            WeightedBallot((0, 0, 1), 1)

    @pytest.mark.parametrize("weight", [0, -2, 1.5, True])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(InvalidProfile):
            WeightedBallot((0, 1), weight)


class TestPartialBallot:
    def test_equality_is_on_the_closure(self):
        a = PartialBallot({(0, 1), (1, 2)}, 3)
        b = PartialBallot({(0, 1), (1, 2), (0, 2)}, 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_locked_must_lie_in_closure(self):
        with pytest.raises(InvalidProfile):
            PartialBallot({(0, 1)}, 1, locked={(1, 2)})

    def test_locked_may_be_implied_rather_than_given(self):
        b = PartialBallot({(0, 1), (1, 2)}, 1, locked={(0, 2)})
        assert b.locked == frozenset({(0, 2)})

    def test_locked_only_erases_free_commitments(self):
        b = PartialBallot({(0, 1), (1, 2)}, 2, locked={(0, 1)})
        assert b.locked_only() == PartialBallot({(0, 1)}, 2, locked={(0, 1)})

    def test_is_total_and_to_order(self):
        b = PartialBallot.from_order((2, 0, 1), 1)
        assert b.is_total(3)
        assert b.to_order(3) == (2, 0, 1)
        assert not PartialBallot({(0, 1)}, 1).is_total(3)

    def test_to_order_refuses_partial(self):
        with pytest.raises(InvalidProfile):
            PartialBallot({(0, 1)}, 1).to_order(3)

    @given(orders3, st.integers(1, 9))
    def test_from_order_round_trips(self, order, w):
        assert PartialBallot.from_order(order, w).to_order(3) == order

    def test_from_order_locked_all(self):
        b = PartialBallot.from_order((1, 0), 1, locked_all=True)
        assert b.locked == b.pairs

    def test_repr_hash_frozen_and_replace(self):
        b = PartialBallot({(0, 1), (1, 2)}, 3, locked={(0, 1)})
        assert repr(b) == (
            "PartialBallot(pairs=[(0, 1), (0, 2), (1, 2)], weight=3, locked=[(0, 1)])"
        )
        assert hash(b) == hash((b.pairs, b.weight, b.locked))
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.weight = 5
        assert dataclasses.replace(b, weight=5) == PartialBallot(b.pairs, 5, b.locked)
        # replace runs the constructor: the pairs are closed, the locks checked
        wider = dataclasses.replace(b, pairs={(0, 1), (1, 2), (2, 3)})
        assert wider.pairs == frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        )
        with pytest.raises(InvalidProfile):
            dataclasses.replace(b, locked={(1, 0)})


class TestProfile:
    def test_total_weight_includes_unknown(self):
        p = Profile(cands(2), (vote((0, 1), 2),), unknown_weight=3)
        assert p.total_weight == 5
        assert p.m == 2

    def test_even_total_rejected_by_default(self):
        with pytest.raises(InvalidProfile, match="even"):
            Profile(cands(2), (vote((0, 1), 2),))

    def test_even_total_allowed_when_opted_out(self):
        p = Profile(cands(2), (vote((0, 1), 2),), strict_odd=False)
        assert p.total_weight == 2

    def test_candidate_ids_must_be_dense(self):
        with pytest.raises(InvalidProfile):
            Profile((Candidate(0, "A"), Candidate(2, "B")), (vote((0, 1), 1),))

    def test_labels_must_be_unique(self):
        with pytest.raises(InvalidProfile):
            Profile((Candidate(0, "A"), Candidate(1, "A")), (vote((0, 1), 1),))

    def test_ballot_must_rank_declared_candidates(self):
        with pytest.raises(InvalidProfile):
            Profile(cands(3), (vote((0, 1), 1),))

    def test_partial_must_stay_inside_universe(self):
        with pytest.raises(InvalidProfile):
            Profile(cands(2), (PartialBallot({(0, 2)}, 1),))

    def test_negative_unknown_rejected(self):
        with pytest.raises(InvalidProfile):
            Profile(cands(2), (vote((0, 1), 1),), unknown_weight=-1)

    def test_no_candidates_rejected(self):
        with pytest.raises(InvalidProfile):
            Profile(())

    def test_by_label_and_candidate(self):
        p = Profile(cands(3), (vote((0, 1, 2), 1),))
        assert p.by_label("B") == Candidate(1, "B")
        assert p.candidate(2).label == "C"
        with pytest.raises(InvalidProfile):
            p.by_label("Z")

    def test_is_complete_and_arrays(self):
        p = Profile(cands(2), (vote((1, 0), 3),))
        assert p.is_complete
        assert p.complete_arrays() == (((1, 0),), (3,))
        q = Profile(cands(2), (PartialBallot(frozenset(), 1),))
        assert not q.is_complete
        with pytest.raises(InvalidProfile):
            q.complete_arrays()

    def test_unknown_weight_alone_is_incomplete(self):
        p = Profile(cands(2), (vote((0, 1), 2),), unknown_weight=1)
        assert not p.is_complete

    @pytest.mark.parametrize("unknown", [2.5, "3", True, False, 2**63])
    def test_unknown_weight_must_be_an_in_range_int(self, unknown):
        with pytest.raises(InvalidProfile, match="unknown_weight"):
            Profile(cands(2), (vote((0, 1), 1),), unknown_weight=unknown, strict_odd=False)


class TestRuns:
    """Aggregates over slots that share ballot objects, adjacent or not."""

    @staticmethod
    def _slots(rng: random.Random, m: int) -> list:
        """Ballot slots drawn as runs over a small pool of objects.

        The pool holds complete and partial ballots and, for some orders, two
        equal but distinct objects; a run repeats one object 1-6 times, and
        objects recur in non-adjacent runs.
        """
        pool: list = []
        for _ in range(rng.randint(1, 4)):
            order = H.rand_order(rng, m)
            w = rng.randint(1, 5)
            pool.append(vote(order, w))
            if rng.random() < 0.5:
                pool.append(vote(order, w))  # equal, not identical
        for _ in range(rng.randint(0, 2)):
            pool.append(H.rand_partial(rng, m, rng.randint(1, 5), lock=True))
        slots: list = []
        for _ in range(rng.randint(0, 8)):
            slots += [rng.choice(pool)] * rng.randint(1, 6)
        return slots

    def test_aggregates_match_the_slot_referee(self):
        rng = random.Random(20261018)
        for _ in range(400):
            m = rng.randint(2, 4)
            slots = self._slots(rng, m)
            p = Profile(cands(m), tuple(slots), rng.choice([0, 0, 1, 3]), strict_odd=False)
            total, complete, arrays, fixed = H.slot_aggregates(p)
            assert p.total_weight == total
            assert p.is_complete == complete
            assert p.fixed_arrays == arrays
            assert majority_matrix(p).fixed == fixed

    @pytest.mark.parametrize(
        "bad", [vote((0, 1), 1), PartialBallot({(0, 3)}, 1)], ids=["short", "undeclared"]
    )
    def test_invalid_ballot_after_a_long_shared_run(self, bad):
        unit = vote((0, 1, 2), 1)
        with pytest.raises(InvalidProfile):
            Profile(cands(3), (unit,) * 10**5 + (bad,), strict_odd=False)

    def test_each_aggregate_is_computed_once(self, monkeypatch):
        names = ("total_weight", "is_complete", "fixed_arrays")
        calls = []
        for name in names:
            attr = vars(Profile)[name]
            monkeypatch.setattr(
                attr, "func", lambda p, f=attr.func, n=name: calls.append(n) or f(p)
            )
        unit = vote((0, 1, 2), 1)
        p = Profile(cands(3), (unit,) * 4 + (PartialBallot({(0, 1)}, 1),))
        first = {name: getattr(p, name) for name in names}
        for name in names:
            assert getattr(p, name) is first[name] is vars(p)[name]
        assert sorted(calls) == sorted(names)


class TestMajorityMatrix:
    def test_fixed_free_partition_the_total(self):
        p = Profile(
            cands(3),
            (
                vote((0, 1, 2), 2),
                PartialBallot({(1, 2)}, 2),
            ),
            unknown_weight=1,
        )
        mm = majority_matrix(p)
        assert mm.total == 5
        assert mm.fixed[0][1] == 2 and mm.fixed[1][0] == 0
        assert mm.fixed[1][2] == 4  # complete ballot plus the committed pair
        assert mm.free[0][1] == 3
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert mm.fixed[i][j] + mm.fixed[j][i] + mm.free[i][j] == 5

    def test_forced_winner(self):
        p = Profile(cands(2), (vote((0, 1), 3),), unknown_weight=2)
        mm = majority_matrix(p)
        assert mm.forced_winner(0, 1) == 0
        assert mm.forced_winner(1, 0) == 0
        q = Profile(cands(2), (vote((0, 1), 2), vote((1, 0), 2)), unknown_weight=1)
        assert majority_matrix(q).forced_winner(0, 1) is None


class TestLinearExtensions:
    def test_extensions_of_one_pair(self):
        b = PartialBallot({(0, 2)}, 1)
        assert list(linear_extensions(b, 3)) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]

    def test_empty_ballot_gives_all_orders(self):
        b = PartialBallot(frozenset(), 1)
        assert len(list(linear_extensions(b, 3))) == 6

    def test_total_ballot_gives_one(self):
        b = PartialBallot.from_order((2, 1, 0), 1)
        assert list(linear_extensions(b, 3)) == [(2, 1, 0)]

    def test_cap_is_enforced(self):
        b = PartialBallot(frozenset(), 1)
        with pytest.raises(CapExceeded):
            list(linear_extensions(b, 3, cap=5))

    @given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5))
    @settings(deadline=None)
    def test_every_extension_respects_every_pair(self, pairs):
        pairs = {(a, b) for a, b in pairs if a != b}
        try:
            ballot = PartialBallot(frozenset(pairs), 1)
        except InvalidProfile:
            return  # the random pairs formed a cycle
        for order in linear_extensions(ballot, 4):
            for a, b in ballot.pairs:
                assert order.index(a) < order.index(b)


    def test_walk_equals_the_recursive_walk_under_every_small_cap(self):
        # the same orders in the same order, and a refusal at the same
        # extension with the same estimate; an axis brings in dead placed sets
        def drain(stream):
            produced = []
            try:
                produced.extend(stream)
            except CapExceeded as exc:
                return produced, exc.estimate
            return produced, None

        rng = random.Random(43)
        refused = 0
        for _ in range(150):
            m = rng.randint(1, 5)
            axis = Axis(tuple(rng.sample(range(m), m))) if rng.random() < 0.5 else None
            b = H.rand_partial(rng, m, 1)
            for cap in (*range(51), None):
                got = drain(linear_extensions(b, m, cap, axis))
                assert got == drain(H.recursive_extensions(b, m, cap, axis))
                refused += got[1] is not None
        assert refused > 0


class TestSinglePeaked:
    AXIS = Axis((0, 1, 2))

    def test_axis_must_be_a_permutation(self):
        with pytest.raises(InvalidProfile):
            Axis((0, 2))

    def test_is_single_peaked_examples(self):
        assert is_single_peaked((1, 0, 2), self.AXIS)
        assert is_single_peaked((0, 1, 2), self.AXIS)
        assert not is_single_peaked((0, 2, 1), self.AXIS)

    def test_order_count_is_two_to_the_m_minus_one(self):
        assert len(list(single_peaked_orders(self.AXIS))) == 4
        assert len(list(single_peaked_orders(Axis((0, 1, 2, 3))))) == 8

    def test_orders_are_the_filtered_permutations_in_order(self):
        rng = random.Random(31)
        for m in range(1, 8):
            for order in (tuple(range(m)), tuple(rng.sample(range(m), m))):
                axis = Axis(order)
                expect = [o for o in itertools.permutations(range(m)) if is_single_peaked(o, axis)]
                assert list(single_peaked_orders(axis)) == expect
        assert list(single_peaked_orders(Axis(()))) == [()]

    def test_orders_refuse_past_the_cap(self):
        axis = Axis((3, 0, 4, 1, 2))
        for cap in range(16):
            with pytest.raises(CapExceeded, match="extensions of a ballot") as exc:
                list(single_peaked_orders(axis, cap))
            assert exc.value.estimate == cap + 1
        assert len(list(single_peaked_orders(axis, 16))) == 16

    def test_every_generated_order_is_single_peaked(self):
        axis = Axis((2, 0, 3, 1))
        for order in single_peaked_orders(axis):
            assert is_single_peaked(order, axis)

    def test_extensions_filter_to_the_axis(self):
        b = PartialBallot({(0, 2)}, 1)
        assert set(single_peaked_extensions(b, 3, self.AXIS)) == {
            (0, 1, 2),
            (1, 0, 2),
        }

    def test_extensions_match_the_filtered_linear_extensions(self):
        # the referee filters every permutation, so the walk never checks itself
        rng = random.Random(17)
        for _ in range(300):
            m = rng.randint(2, 6)
            axis = Axis(tuple(rng.sample(range(m), m)))
            b = H.rand_partial(rng, m, 1)
            linear = [
                o
                for o in itertools.permutations(range(m))
                if all(o.index(x) < o.index(y) for x, y in b.pairs)
            ]
            assert list(linear_extensions(b, m, cap=None)) == linear
            expect = [o for o in linear if is_single_peaked(o, axis)]
            assert list(single_peaked_extensions(b, m, axis, cap=None)) == expect
            assert list(linear_extensions(b, m, cap=None, axis=axis)) == expect

    def test_count_equals_the_listed_extensions(self):
        rng = random.Random(29)
        for _ in range(300):
            m = rng.randint(1, 7)
            axis = Axis(tuple(rng.sample(range(m), m))) if rng.random() < 0.5 else None
            b = H.rand_partial(rng, m, 1)
            listed = len(list(linear_extensions(b, m, None, axis)))
            assert _count_extensions(b, m, None, axis) == listed
            assert _count_extensions(b, m, listed, axis) == listed

    def test_extensions_equal_the_sorted_filtered_orders(self):
        rng = random.Random(23)
        for _ in range(400):
            m = rng.randint(1, 7)
            axis = Axis(tuple(rng.sample(range(m), m)))
            source = H.rand_sp_partial if rng.random() < 0.5 else None
            b = source(rng, m, axis, 1) if source else H.rand_partial(rng, m, 1)
            expect = [
                o
                for o in itertools.permutations(range(m))
                if is_single_peaked(o, axis) and all(o.index(x) < o.index(y) for x, y in b.pairs)
            ]
            assert list(single_peaked_extensions(b, m, axis, cap=None)) == expect

    def test_axis_must_order_every_candidate(self):
        b = PartialBallot({(0, 1)}, 1)
        for axis in (Axis((0, 1)), Axis((0, 1, 2, 3))):
            with pytest.raises(InvalidProfile):
                list(linear_extensions(b, 3, axis=axis))
            with pytest.raises(InvalidProfile):
                completion_groups(Profile(cands(3), (b,)), axis=axis)

    def test_cap_counts_before_the_whole_set_is_built(self):
        # 2**19 single-peaked orders: the cap stops the walk at the 11th
        stream = single_peaked_extensions(
            PartialBallot(frozenset(), 1), 20, Axis(tuple(range(20))), cap=10
        )
        got = []
        with pytest.raises(CapExceeded) as exc:
            for order in stream:
                got.append(order)
        assert len(got) == 10 and exc.value.estimate == 11
        assert got == sorted(got)

    def test_sp_completable(self):
        assert sp_completable(PartialBallot(frozenset(), 1), 3, self.AXIS)
        # 0 above 2 above 1 forces the non-peaked order (0, 2, 1)
        assert not sp_completable(PartialBallot({(0, 2), (2, 1)}, 1), 3, self.AXIS)
        # both ends above the middle: every walk dies once it reaches the
        # middle, and each dead segment is walked once, not once per path
        wide = Axis(tuple(range(40)))
        assert not sp_completable(PartialBallot({(0, 20), (39, 20)}, 1), 40, wide)

    def test_median_peak_winner(self):
        p = Profile(
            cands(3),
            (vote((0, 1, 2), 2), vote((2, 1, 0), 2), vote((1, 2, 0), 1)),
        )
        assert single_peaked_condorcet_winner(p, self.AXIS).label == "B"

    def test_median_peak_is_the_condorcet_winner(self):
        # repeats are the same ballot object, adjacent (a run) or not
        rng = random.Random(89)
        for _ in range(200):
            m = rng.randint(1, 6)
            axis = Axis(tuple(rng.sample(range(m), m)))
            sp_orders = sorted(H.single_peaked_orders(axis))
            ballots = []
            for _ in range(rng.randint(1, 6)):
                if ballots and rng.random() < 0.4:
                    ballots.append(rng.choice(ballots))
                else:
                    ballots.append(vote(rng.choice(sp_orders), rng.randint(1, 4)))
            if sum(b.weight for b in ballots) % 2 == 0:
                ballots.append(vote(rng.choice(sp_orders), 1))
            p = Profile(cands(m), tuple(ballots))
            assert single_peaked_condorcet_winner(p, axis).id == H.condorcet_of(p)

    def test_median_peak_needs_odd_total(self):
        p = Profile(cands(3), (vote((0, 1, 2), 2),), strict_odd=False)
        with pytest.raises(InvalidProfile):
            single_peaked_condorcet_winner(p, self.AXIS)

    def test_median_peak_rejects_non_peaked_ballot(self):
        p = Profile(cands(3), (vote((0, 2, 1), 1),))
        with pytest.raises(NotCompletableSP):
            single_peaked_condorcet_winner(p, self.AXIS)

    def test_median_peaks_walk_each_set_of_pairs_once(self, monkeypatch):
        # two equal free ballot objects, 300 slots each, answer as one ballot
        # of their summed weight, and their peaks are found once; the free
        # weight outweighs the vote only when every slot is counted
        m, axis = 4, Axis((0, 1, 2, 3))
        free_a, free_b = PartialBallot(frozenset(), 1), PartialBallot(frozenset(), 1)
        cast = vote((1, 0, 2, 3), 599)
        p = Profile(cands(m), (free_a,) * 300 + (free_b,) * 300 + (cast,))
        merged = Profile(cands(m), (PartialBallot(frozenset(), 600), cast))
        assert cup_single_peaked_over(p, axis) == cup_single_peaked_over(merged, axis)
        calls = []
        walk = profiles.sp_completable
        monkeypatch.setattr(profiles, "sp_completable", lambda *a: calls.append(a) or walk(*a))
        cup_single_peaked_over(p, axis)
        assert len(calls) <= m


class TestValidationMessages:
    """What ``WeightedBallot`` and ``Profile`` refuse, and the exact words."""

    @pytest.mark.parametrize("weight, message", [
        (True, "weight must be an integer, got True"),
        (1.5, "weight must be an integer, got 1.5"),
        (0, "weight must be at least 1, got 0"),
        (2**63, f"weight {2**63} exceeds the 64-bit bound"),
    ])
    def test_bad_weight_message(self, weight, message):
        with pytest.raises(InvalidProfile) as info:
            WeightedBallot((0, 1), weight)
        assert str(info.value) == message

    def test_int_subclass_weight_accepted(self):
        class Count(int):
            pass

        ballot = WeightedBallot((1, 0), Count(3))
        assert ballot.weight == 3 and type(ballot.weight) is Count

    def test_order_is_stored_as_a_tuple(self):
        ballot = WeightedBallot([0, 1, 2], 1)
        assert ballot == WeightedBallot((0, 1, 2), 1)
        assert type(ballot.order) is tuple

    def test_repeated_candidate_message(self):
        with pytest.raises(InvalidProfile) as info:
            WeightedBallot((0, 2, 0), 1)
        assert str(info.value) == "ballot order (0, 2, 0) repeats a candidate"

    def test_replace_validates(self):
        ballot = WeightedBallot((0, 1), 2)
        assert dataclasses.replace(ballot, weight=5) == WeightedBallot((0, 1), 5)
        with pytest.raises(InvalidProfile):
            dataclasses.replace(ballot, weight=0)
        with pytest.raises(InvalidProfile):
            dataclasses.replace(ballot, order=(1, 1))

    def test_repr_eq_hash_and_frozen(self):
        ballot = WeightedBallot((2, 0, 1), 4)
        assert repr(ballot) == "WeightedBallot(order=(2, 0, 1), weight=4)"
        assert hash(ballot) == hash(((2, 0, 1), 4))
        assert ballot == WeightedBallot((2, 0, 1), 4) != WeightedBallot((2, 0, 1), 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ballot.weight = 5

    @pytest.mark.parametrize("order", [(0, 1), (0, 1, 5), (0, 1, 2, 3), (0, -1, 2)])
    def test_profile_refuses_an_order_off_the_candidates(self, order):
        with pytest.raises(InvalidProfile) as info:
            Profile(cands(3), (vote(order, 1),))
        assert str(info.value) == f"ballot {order} must rank exactly the declared candidates"


THREE = Profile(cands(3), (vote((0, 1, 2), 1),))
THREE_DIST = ScenarioDistribution(((THREE, Fraction(1)),))
THREE_VOTES = Profile(cands(3), (vote((0, 1, 2)), vote((2, 1, 0)), vote((1, 0, 2))))
EMPTY = Profile(cands(2), (), 0, strict_odd=False)
EMPTY3 = Profile(cands(3), (), 0, strict_odd=False)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Axis((0, "a")),
        lambda: Axis(5),
        lambda: PartialBallot([(0, 1, 2)], 1),
        lambda: PartialBallot(5, 1),
        lambda: PartialBallot([(0, 1)], 1, locked=5),
        lambda: ManipulationInstance(Copeland(), "A", THREE),
        lambda: ManipulationInstance(Copeland(), 0, THREE, frozenset({"a"})),
        lambda: winner(Hybrid(Pairing(((0, 1, 2),))), THREE),
        lambda: WeightedBallot(5, 1),
        lambda: Axis((0.0, 1.0, 2.0)),
        lambda: Axis((False, True)),
        lambda: PartialBallot([(0.0, 1.0)], 1),
        lambda: PartialBallot([(0, 1)], 1, locked=[(0.0, 1.0)]),
        lambda: Pairing(((0.0, 1),), bye=2),
        lambda: Pairing(((False, True),)),
        lambda: copeland_score(THREE, 7),
        lambda: copeland_score(THREE, -1),
        lambda: THREE.candidate(-1),
        lambda: THREE.candidate(Candidate(0, "Z")),
        lambda: win_probability(THREE_DIST, plurality(), 7),
        lambda: evaluate(THREE_DIST, EvaluationQuery(7, Fraction(1, 2), plurality())),
        lambda: ManipulationInstance(Copeland(), True, THREE),
        lambda: ManipulationInstance(Copeland(), 0, THREE_VOTES, frozenset({True})),
        lambda: Profile(cands(3), (WeightedBallot((0.0, 1.0, 2.0), 1),)),
        lambda: WeightedBallot([[0], [1]], 1),
        lambda: Profile(cands(3), (WeightedBallot((True, 0, 2), 1),)),
        lambda: Profile(cands(2), (WeightedBallot((1, False), 1),)),
        lambda: PartitionInstance((True, True)),
        lambda: fine_sp_elicitation_over(plurality(), THREE, (0, 1, 2)),
        lambda: completion_groups(THREE, axis=(0, 1, 2)),
        lambda: linear_extensions(PartialBallot([(0, 1)], 1), 3, axis=(0, 1, 2)),
        lambda: cup_single_peaked_over(THREE, (0, 1, 2)),
        lambda: single_peaked_orders((0, 1, 2)),
        lambda: sp_completable(PartialBallot([(0, 1)], 1), 3, (0, 1, 2)),
        lambda: Profile(("A", "B")),
        lambda: has_equal_partition_dp([-1, 1]),
        lambda: has_equal_partition_dp([True, True]),
        lambda: possible_winners(Stv(), EMPTY),
        lambda: possible_winners(plurality(), EMPTY),
        lambda: possible_winners(Copeland(), EMPTY),
        lambda: fine_elicitation_over(Stv(), EMPTY),
        lambda: fine_elicitation_over(Cup((0, 1)), EMPTY),
        lambda: coarse_elicitation_over(Stv(), EMPTY),
        lambda: preference_manipulate(ManipulationInstance(Stv(), 0, EMPTY)),
        lambda: coalition_manipulate(ManipulationInstance(Stv(), 0, EMPTY, frozenset())),
        lambda: coalition_manipulate(ManipulationInstance(Cup((0, 1)), 0, EMPTY, frozenset())),
        lambda: cup3_fine_over(((0, 1), 2), EMPTY3),
        lambda: condorcet_winner_fixed(EMPTY),
        lambda: condorcet_coalition_manipulate(
            ManipulationInstance(Copeland(), 0, EMPTY, frozenset())
        ),
    ],
    ids=[
        "axis-entry",
        "axis-not-a-sequence",
        "pair-of-three",
        "pairs-not-a-sequence",
        "locked-not-a-sequence",
        "target-label",
        "coalition-index",
        "pairing-of-three",
        "order-not-a-sequence",
        "axis-float",
        "axis-bool",
        "pair-of-floats",
        "locked-pair-of-floats",
        "pairing-float",
        "pairing-bool",
        "copeland-score-past-the-ids",
        "copeland-score-negative-id",
        "candidate-negative-id",
        "candidate-of-another-profile",
        "win-probability-target",
        "evaluate-target",
        "target-bool",
        "coalition-index-bool",
        "order-float-entries",
        "order-unhashable-entries",
        "order-bool-entries",
        "order-bool-zero",
        "bag-bools",
        "fine-sp-axis-tuple",
        "completion-groups-axis-tuple",
        "linear-extensions-axis-tuple",
        "cup-sp-axis-tuple",
        "sp-orders-axis-tuple",
        "sp-completable-axis-tuple",
        "candidates-as-labels",
        "partition-dp-negative",
        "partition-dp-bools",
        "possible-winners-stv-empty",
        "possible-winners-plurality-empty",
        "possible-winners-copeland-empty",
        "fine-over-stv-empty",
        "fine-over-cup-empty",
        "coarse-over-stv-empty",
        "preference-stv-empty",
        "coalition-stv-empty",
        "coalition-cup-empty",
        "cup3-fine-over-empty",
        "condorcet-fixed-empty",
        "condorcet-coalition-empty",
    ],
)
def test_library_input_raises_a_typed_error(build):
    with pytest.raises((InvalidProfile, InvalidInstance)):
        build()
