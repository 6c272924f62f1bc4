"""Joint-completion groups, assignment streams, and caps."""

import functools
import itertools
import random
import tracemalloc

import pytest

from votelab import (
    Axis,
    CapExceeded,
    Copeland,
    ModelMismatch,
    NotCompletableSP,
    PartialBallot,
    PartitionInstance,
    Profile,
    WeightedBallot,
    borda,
    candidates_from_labels,
    completion_groups,
    completed_profile,
    gen_copeland_preference_manipulation,
    gen_cup_preference_manipulation,
    iter_assignments,
    possible_winners,
    space_size,
)
from votelab import completions
from votelab.completions import OptionGroup, check_cap, completed_arrays, fixed_view
from votelab.manipulation import _preference_view

import helpers as H
from helpers import cands, vote


def election_key(profile):
    """A completion's identity: the multiset of (order, weight) pairs."""
    orders, weights = profile.complete_arrays()
    return tuple(sorted(zip(orders, weights)))


class TestGrouping:
    def test_identical_partials_merge(self):
        twin = PartialBallot({(0, 1)}, 2)
        p = Profile(cands(3), (twin, twin, vote((0, 1, 2), 1)))
        groups = completion_groups(p)
        assert len(groups) == 1
        assert groups[0].count == 2
        assert groups[0].weight == 2
        assert groups[0].indices == (0, 1)

    def test_unknown_pool_is_one_unit_group(self):
        p = Profile(cands(3), (vote((0, 1, 2), 1),), unknown_weight=2)
        groups = completion_groups(p)
        assert len(groups) == 1
        assert groups[0].weight == 1
        assert groups[0].count == 2
        assert groups[0].indices == ()
        assert len(groups[0].options) == 6

    def test_group_size_counts_multisets(self):
        twin = PartialBallot({(0, 2)}, 1)  # 3 extensions
        p = Profile(cands(3), (twin, twin, vote((0, 1, 2), 1)))
        (group,) = completion_groups(p)
        assert group.size == 6  # multisets of size 2 over 3 options
        assert space_size(completion_groups(p)) == 6

    def test_heavier_groups_come_first(self):
        p = Profile(
            cands(2),
            (PartialBallot(frozenset(), 1), PartialBallot(frozenset(), 2)),
        )
        weights = [g.weight for g in completion_groups(p)]
        assert weights == [2, 1]

    def test_complete_profile_has_no_groups(self):
        p = Profile(cands(2), (vote((0, 1), 3),))
        assert completion_groups(p) == ()


class TestAssignments:
    def test_multisets_enumerated_once(self):
        twin = PartialBallot({(0, 2)}, 1)
        p = Profile(cands(3), (twin, twin, vote((0, 1, 2), 1)))
        groups = completion_groups(p)
        seen = [election_key(completed_profile(p, groups, a)) for a in iter_assignments(groups)]
        assert len(seen) == 6
        assert len(set(seen)) == 6

    def test_stream_matches_per_ballot_product_up_to_relabeling(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(2, 3)
            ballots = [vote(H.rand_order(rng, m), rng.randint(1, 3))]
            for _ in range(rng.randint(0, 2)):
                ballots.append(H.rand_partial(rng, m, rng.randint(1, 2)))
            unknown = rng.randint(0, 2)
            p = Profile(
                cands(m),
                tuple(ballots),
                unknown_weight=unknown,
                strict_odd=False,
            )
            groups = completion_groups(p)
            merged = {
                election_key(completed_profile(p, groups, a))
                for a in iter_assignments(groups)
            }
            brute = {election_key(c) for c in H.iter_completions(p)}
            assert merged == brute

    def test_stream_order_is_pinned(self):
        # witnesses are the first winning assignment, so the order matters
        a, b, c = (0, 1, 2), (1, 0, 2), (2, 1, 0)
        groups = (
            OptionGroup(3, 2, (a, b, c), (0, 2)),
            OptionGroup(2, 0, (a, b), ()),
            OptionGroup(1, 2, (b, c), ()),  # a unit pool
        )
        name = {a: "a", b: "b", c: "c"}
        stream = [
            "|".join("".join(name[o] for o in combo) for combo in assignment)
            for assignment in iter_assignments(groups)
        ]
        assert stream == [
            "aa||bb", "aa||bc", "aa||cc",
            "ab||bb", "ab||bc", "ab||cc",
            "ac||bb", "ac||bc", "ac||cc",
            "bb||bb", "bb||bc", "bb||cc",
            "bc||bb", "bc||bc", "bc||cc",
            "cc||bb", "cc||bc", "cc||cc",
        ]

    def test_stream_equals_the_recursive_walk(self):
        # count-0 groups take one empty combo; a group with no options and a
        # positive count empties the stream
        rng = random.Random(41)
        pool = list(itertools.permutations(range(3)))
        for _ in range(400):
            groups = tuple(
                OptionGroup(
                    rng.randint(1, 5),
                    rng.randint(0, 3),
                    tuple(rng.sample(pool, rng.choice((0, 1, 1, 2, 3, 4)))),
                    (),
                )
                for _ in range(rng.randint(0, 4))
            )
            assert list(iter_assignments(groups)) == list(H.recursive_assignments(groups))
        assert list(iter_assignments(())) == [()] == list(H.recursive_assignments(()))

    def test_a_refusing_hook_skips_subtrees_in_the_same_order(self):
        # the hook is offered each multiset of every group but the last, in
        # the recursive walk's order; False drops the assignments below it
        rng = random.Random(43)
        pool = list(itertools.permutations(range(3)))
        for _ in range(300):
            groups = tuple(
                OptionGroup(
                    rng.randint(1, 5),
                    rng.randint(0, 3),
                    tuple(rng.sample(pool, rng.choice((1, 1, 2, 3, 4)))),
                    (),
                )
                for _ in range(rng.randint(1, 5))
            )
            salt = rng.random()

            def keeps(depth, combo):
                return random.Random(f"{salt}{depth}{combo}").random() < 0.7

            def asking(log):
                return lambda depth, combo: log.append((depth, combo)) or keeps(depth, combo)

            offers: list[list] = [[], []]
            got = list(iter_assignments(groups, asking(offers[0])))
            assert got == list(H.recursive_assignments(groups, asking(offers[1])))
            assert offers[0] == offers[1]
            assert all(depth < len(groups) - 1 for depth, _ in offers[0])
            assert got == [
                a
                for a in iter_assignments(groups)
                if all(keeps(d, a[d]) for d in range(len(groups) - 1))
            ]

    def test_first_assignment_of_a_huge_space_comes_at_once(self):
        # no group's multisets are stored: itertools.product would hold
        # C(125, 6), about 4.7e9, combos of each group before the first item
        orders = tuple(itertools.permutations(range(5)))
        groups = tuple(OptionGroup(1, 6, orders, ()) for _ in range(3))
        assert space_size(groups) > 10**12
        tracemalloc.start()
        try:
            first = next(iter_assignments(groups))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == ((orders[0],) * 6,) * 3
        assert peak < 2**20

    def test_completed_profile_preserves_positions(self):
        partial = PartialBallot({(1, 0)}, 2)
        p = Profile(cands(2), (vote((0, 1), 2), partial), unknown_weight=1)
        groups = completion_groups(p)
        done = next(iter_assignments(groups))
        q = completed_profile(p, groups, done)
        assert q.ballots[0] == vote((0, 1), 2)
        assert q.ballots[1].weight == 2
        assert q.ballots[1].order == (1, 0)
        assert q.ballots[2].weight == 1  # the unknown unit lands at the end
        assert q.unknown_weight == 0
        assert q.total_weight == p.total_weight

    def test_completed_arrays_agree_with_completed_profile(self):
        p = Profile(
            cands(3),
            (vote((2, 1, 0), 1), PartialBallot({(0, 1)}, 2)),
        )
        groups = completion_groups(p)
        for assignment in iter_assignments(groups):
            orders, weights = completed_arrays(p, groups, assignment)
            q = completed_profile(p, groups, assignment)
            assert sorted(zip(orders, weights)) == sorted(
                zip(*q.complete_arrays())
            )


class TestLockedView:
    def test_locked_only_widens_the_options(self):
        b = PartialBallot({(0, 1), (1, 2)}, 1, locked={(0, 1)})
        p = Profile(cands(3), (b,))
        (committed,) = completion_groups(p)
        (free,) = completion_groups(_preference_view(p))
        assert set(committed.options) == {(0, 1, 2)}
        assert set(free.options) == {(0, 1, 2), (0, 2, 1), (2, 0, 1)}

    def test_complete_ballots_stay_fixed(self):
        p = Profile(cands(2), (vote((1, 0), 1),))
        assert completion_groups(_preference_view(p)) == ()


class TestFixedView:
    def test_free_ballots_keep_only_their_locked_pairs(self):
        b = PartialBallot({(0, 1), (1, 2)}, 2, locked={(0, 1)})
        total = PartialBallot.from_order((2, 0, 1), 1)
        p = Profile(
            cands(3),
            (b, vote((0, 2, 1), 1), total, vote((1, 0, 2), 1)),
            strict_odd=False,
        )
        view = fixed_view(p, {0, 1})
        assert view.ballots[0] == PartialBallot({(0, 1)}, 2, locked={(0, 1)})
        assert view.ballots[1] == PartialBallot(frozenset(), 1)
        assert view.ballots[2] == WeightedBallot((2, 0, 1), 1)
        assert view.ballots[3] is p.ballots[3]

    def test_a_run_of_one_ballot_object_stays_one_run(self):
        locked = PartialBallot({(0, 1), (1, 2)}, 1, locked={(0, 1)})
        total = PartialBallot.from_order((2, 0, 1), 1)
        p = Profile(cands(3), (locked,) * 5000 + (total,) * 5000, strict_odd=False)
        view = _preference_view(p)
        first, last = view.ballots[0], view.ballots[-1]
        assert first is not last
        assert all(b is first for b in view.ballots[:5000])
        assert all(b is last for b in view.ballots[5000:])
        # the same view built slot by slot, one ballot object per slot
        slot_built = H.brute_view(p, range(len(p.ballots)))
        assert len({id(b) for b in slot_built.ballots}) == 10_000
        assert view.ballots == slot_built.ballots
        assert completion_groups(view) == completion_groups(slot_built)

    def test_free_slots_split_a_run_and_the_rest_reuse_one_view(self):
        cast = vote((0, 1, 2), 1)
        total = PartialBallot.from_order((2, 0, 1), 1)
        p = Profile(cands(3), (cast,) * 6 + (total,))
        view = fixed_view(p, {2, 3})
        b = view.ballots
        assert all(x is cast for x in b[:2] + b[4:6])
        assert b[2] is b[3]
        assert b[2] == PartialBallot(frozenset(), 1)
        assert b[6] == WeightedBallot((2, 0, 1), 1)
        (group,) = completion_groups(view)
        assert (group.count, group.indices) == (2, (2, 3))

    def test_seeded_views_match_the_referee_and_share_what_they_keep(self):
        rng = random.Random(3404)
        seen = dict.fromkeys(
            ("kept", "equal but rebuilt", "free and fixed", "total free", "total cast", "unknown"),
            0,
        )
        w = functools.partial(rng.randint, 1, 9)
        for _ in range(600):
            m = rng.randint(2, 5)
            some = H.rand_partial(rng, m, w())
            order = H.rand_order(rng, m)
            chain = tuple(zip(order, order[1:]))  # not closed; its closure ranks all
            pool = [
                vote(H.rand_order(rng, m), w()),
                H.rand_partial(rng, m, w(), lock=True),  # locked within pairs
                PartialBallot(some.pairs, w(), some.pairs),  # locked == pairs
                PartialBallot(chain, w(), chain),
                PartialBallot.from_order(H.rand_order(rng, m), w(), rng.random() < 0.5),
            ]
            ballots = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            p = Profile(cands(m), ballots, unknown_weight=rng.randint(0, 2), strict_odd=False)
            # a genuinely partial ballot must be free; any other slot may be
            free = {
                i for i, b in enumerate(ballots)
                if isinstance(b, PartialBallot) and not b.is_total(m) or rng.random() < 0.5
            }
            view = fixed_view(p, free)
            assert view == H.brute_view(p, free)
            # a slot keeps its object when it is a free partial ballot whose
            # pairs are all locked, or a cast vote outside free
            keeps = [
                (isinstance(b, PartialBallot) and b.pairs == b.locked)
                if i in free
                else isinstance(b, WeightedBallot)
                for i, b in enumerate(ballots)
            ]
            for i, (b, v, keep) in enumerate(zip(ballots, view.ballots, keeps)):
                assert (v is b) == keep
                seen["kept"] += keep and isinstance(b, PartialBallot)
                seen["equal but rebuilt"] += v == b and not keep
                if isinstance(b, PartialBallot) and b.is_total(m):
                    seen["total free" if i in free else "total cast"] += 1
            assert (view is p) == all(keeps)
            fixed = set(range(len(ballots))) - free
            seen["free and fixed"] += any(ballots[i] is ballots[j] for i in free for j in fixed)
            seen["unknown"] += p.unknown_weight > 0
            for b in pool[1:]:
                assert (b.locked_only() is b) == (b.pairs == b.locked)
        assert min(seen.values()) > 20, seen

    def test_a_reduction_instance_is_its_own_preference_view(self):
        for n in range(1, 6):
            for bag in itertools.combinations_with_replacement(range(1, 5), n):
                if sum(bag) % 2:
                    continue
                for gen in (gen_cup_preference_manipulation, gen_copeland_preference_manipulation):
                    inst = gen(PartitionInstance(bag))
                    assert _preference_view(inst.profile) is inst.profile

    def test_partial_ballot_outside_free_raises(self):
        b = PartialBallot({(0, 1)}, 1, locked={(0, 1)})
        p = Profile(cands(3), (b, vote((2, 1, 0), 2)))
        with pytest.raises(ModelMismatch):
            fixed_view(p)
        with pytest.raises(ModelMismatch):
            fixed_view(p, {1})


class TestAxis:
    def test_options_restricted_to_single_peaked(self):
        axis = Axis((0, 1, 2))
        b = PartialBallot({(0, 2)}, 1)
        p = Profile(cands(3), (b,))
        (group,) = completion_groups(p, axis=axis)
        assert set(group.options) == {(0, 1, 2), (1, 0, 2)}

    def test_unknown_pool_uses_single_peaked_orders(self):
        axis = Axis((0, 1, 2))
        p = Profile(cands(3), (vote((0, 1, 2), 2),), unknown_weight=1)
        (group,) = completion_groups(p, axis=axis)
        assert len(group.options) == 4

    def test_uncompletable_partial_raises(self):
        axis = Axis((0, 1, 2))
        b = PartialBallot({(0, 2), (2, 1)}, 1)
        with pytest.raises(NotCompletableSP):
            completion_groups(Profile(cands(3), (b,)), axis=axis)

    def test_non_peaked_complete_ballot_raises(self):
        axis = Axis((0, 1, 2))
        p = Profile(cands(3), (vote((0, 2, 1), 1),))
        with pytest.raises(NotCompletableSP):
            completion_groups(p, axis=axis)


class TestCaps:
    def test_check_cap_passes_exact_size_through(self):
        p = Profile(cands(3), (PartialBallot(frozenset(), 1),))
        groups = completion_groups(p)
        assert check_cap(groups, 6) == 6

    def test_check_cap_raises_with_estimate(self):
        p = Profile(cands(3), (PartialBallot(frozenset(), 1),), unknown_weight=2)
        groups = completion_groups(p)
        with pytest.raises(CapExceeded) as exc:
            check_cap(groups, 100)
        assert exc.value.estimate == 6 * 21  # 6 extensions x C(6+2-1, 2)

    def test_per_ballot_option_cap(self):
        for p, axis, count in (
            (Profile(cands(4), (PartialBallot(frozenset(), 1),)), None, 24),
            (Profile(cands(4), (), unknown_weight=1), None, 24),  # the unknown pool
            (Profile(cands(5), (), unknown_weight=1), Axis(tuple(range(5))), 16),
        ):
            with pytest.raises(CapExceeded) as exc:
                completion_groups(p, axis=axis, cap=10)
            assert exc.value.estimate == count

    def test_empty_partial_ballot_is_refused_before_any_order_is_built(self):
        # an empty partial ballot is as free as an unknown agent: its orders
        # are counted, not listed, before the default cap refuses them
        for m, axis, count in (
            (10, None, 3_628_800),
            (22, Axis(tuple(range(22))), 2**21),
        ):
            labels = [f"c{i}" for i in range(m)]
            p = Profile(candidates_from_labels(labels), (PartialBallot(frozenset(), 1),))
            tracemalloc.start()
            try:
                with pytest.raises(CapExceeded) as exc:
                    completion_groups(p, axis=axis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert exc.value.estimate == count
            assert peak < 2**20

    def test_committed_ballot_is_counted_before_it_is_walked(self):
        # one pair halves the orders: 10!/2, or 2^21/2 on an axis, where the
        # left end comes first in half; counting visits placed sets, not orders
        for m, axis, pair, count in (
            (10, None, (0, 1), 1_814_400),
            (22, Axis(tuple(range(22))), (0, 21), 2**20),
        ):
            labels = [f"c{i}" for i in range(m)]
            p = Profile(candidates_from_labels(labels), (PartialBallot({pair}, 1),))
            tracemalloc.start()
            try:
                with pytest.raises(CapExceeded) as exc:
                    completion_groups(p, axis=axis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert exc.value.estimate == count
            assert peak < 2**20

    def test_option_lists_are_charged_as_they_are_built(self, monkeypatch):
        # ten one-pair ballots at m = 8 hold 20,160 orders each; the sum of
        # (length - 1) passes the cap at the fifth list, refused unbuilt
        m = 8
        pairs = list(itertools.combinations(range(m), 2))[:10]
        ballots = (vote(range(m), 3),) + tuple(PartialBallot({pair}, 2) for pair in pairs)
        p = Profile(cands(m), ballots)
        built = [0]
        walk = completions.linear_extensions

        def counted(*args):
            for order in walk(*args):
                built[0] += 1
                yield order

        monkeypatch.setattr(completions, "linear_extensions", counted)
        for rule in (Copeland(), borda()):
            built[0] = 0
            with pytest.raises(CapExceeded, match="options across the free ballots") as exc:
                possible_winners(rule, p, cap=100_000)
            assert built[0] == 4 * 20_160
            assert exc.value.estimate == 5 * 20_159

    def test_committed_ballot_within_the_cap_is_listed(self):
        # a chain over eight of ten candidates leaves 10!/8! = 90 extensions
        chain = frozenset((a, b) for a in range(8) for b in range(a + 1, 8))
        labels = [f"c{i}" for i in range(10)]
        p = Profile(candidates_from_labels(labels), (PartialBallot(chain, 1),))
        (group,) = completion_groups(p, cap=90)
        assert len(group.options) == 90
        with pytest.raises(CapExceeded) as exc:
            completion_groups(p, cap=89)
        assert exc.value.estimate == 90
