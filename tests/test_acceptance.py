"""Top-level acceptance checks, one test per headline capability.

Each test exercises a full pipeline (generators, solvers, referees) over
sweeps large enough to catch systematic errors, against independent
brute-force or arithmetic oracles.  Every check is deterministic.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from votelab import (
    Axis,
    Copeland,
    Copeland2,
    Cup,
    Hybrid,
    ManipulationInstance,
    Pairing,
    PartialBallot,
    PartitionInstance,
    Profile,
    Runoff,
    Stv,
    TieBreak,
    WeightedBallot,
    achievable_winners,
    borda,
    coarse_elicitation_over,
    condorcet_coalition_manipulate,
    condorcet_winner_fixed,
    cup3_fine_over,
    evaluate,
    gen_copeland_preference_manipulation,
    gen_cup_elicitation,
    gen_cup_preference_manipulation,
    fine_elicitation_over,
    has_equal_partition_dp,
    hybrid_coarse_over,
    plurality,
    preference_manipulate,
    reduction_from_preference_manipulation,
    single_peaked_condorcet_winner,
    single_peaked_orders,
    verify_reduction,
    veto,
    win_probability,
    winner,
)
from votelab.rules import pairwise_counts

import helpers as H
from helpers import cands, vote


def even_bags(max_n, max_v):
    for n in range(1, max_n + 1):
        for combo in combinations_with_replacement(range(1, max_v + 1), n):
            if sum(combo) % 2 == 0:
                yield combo


def bag_sweep():
    """The shared workload: every small even bag, plus 100 larger random ones."""
    bags = list(even_bags(5, 6))
    rng = random.Random(909)
    bags += [H.rand_even_bag(rng, 8, 12) for _ in range(100)]
    return bags


def odd_votes(rng, m, *, count, wmax):
    ballots = [vote(H.rand_order(rng, m), rng.randint(1, wmax)) for _ in range(count)]
    if sum(b.weight for b in ballots) % 2 == 0:
        ballots.append(vote(H.rand_order(rng, m), 1))
    return ballots


def test_criterion_01_cup_elicitation_reduction_tracks_partition():
    started = time.monotonic()
    for bag in bag_sweep():
        p = PartitionInstance(tuple(bag))
        split = has_equal_partition_dp(p.numbers)
        report = verify_reduction("cup-elicit", p)
        assert report.holds, bag
        assert report.partition == split, bag
        profile, agenda = gen_cup_elicitation(p, balanced=True)
        assert (not fine_elicitation_over(Cup(agenda), profile)) == split, bag
    assert time.monotonic() - started < 300


def test_criterion_02_cup3_fine_termination_matches_brute_force():
    rng = random.Random(202)
    for _ in range(500):
        ballots = [vote(H.rand_order(rng, 3), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            ballots.append(H.rand_partial(rng, 3, rng.randint(1, 9)))
        unknown = rng.randint(0, 2)
        if (sum(b.weight for b in ballots) + unknown) % 2 == 0:
            ballots.append(vote(H.rand_order(rng, 3), 1))
        p = Profile(cands(3), tuple(ballots), unknown_weight=unknown)
        agenda = H.rand_agenda(rng, range(3))
        expected = H.brute_fine_over(Cup(agenda), p)
        assert cup3_fine_over(agenda, p) == expected
        assert fine_elicitation_over(Cup(agenda), p) == expected


def test_criterion_03_condorcet_fixedness_matches_brute_force():
    rng = random.Random(303)
    kinds = set()
    for t in range(500):
        complete_only = t % 3 == 0  # decided outcomes need complete profiles
        m = rng.randint(3, 4) if complete_only else rng.randint(2, 4)
        ballots = []
        for _ in range(rng.randint(1, 3) if complete_only else rng.randint(0, 3)):
            if complete_only or rng.random() < 0.6:
                ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 3)))
            else:
                ballots.append(H.rand_partial(rng, m, rng.randint(1, 3)))
        unknown = 0 if complete_only else rng.randint(0, 1)
        total = sum(b.weight for b in ballots) + unknown
        if total == 0 or total % 2 == 0:
            ballots.append(vote(H.rand_order(rng, m), 1 + total % 2))
        p = Profile(cands(m), tuple(ballots), unknown_weight=unknown)
        assert p.total_weight <= 11
        status = condorcet_winner_fixed(p)
        got = (status.kind, status.winner.id if status.winner else None)
        assert got == H.brute_condorcet_classify(p)
        kinds.add(status.kind)
    assert kinds == {"true", "false", "not-determined"}


def test_criterion_04_stv_single_peaked_reduction_tracks_partition():
    for bag in bag_sweep():
        p = PartitionInstance(tuple(bag))
        report = verify_reduction("stv-sp-elicit", p)
        assert report.holds, bag
        assert report.partition == has_equal_partition_dp(p.numbers), bag


def test_criterion_05_condorcet_coalition_matches_brute_force():
    rng = random.Random(505)
    hits = misses = 0
    for _ in range(300):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        ballots = tuple(vote(H.rand_order(rng, m), rng.randint(1, 3)) for _ in range(n))
        p = Profile(cands(m), ballots, strict_odd=False)
        coalition = frozenset(rng.sample(range(n), rng.randint(1, min(2, n))))
        target = rng.randrange(m)
        inst = ManipulationInstance(Copeland(), target, p, coalition=coalition)
        assignment = condorcet_coalition_manipulate(inst)
        assert (assignment is not None) == H.brute_condorcet_coalition_possible(
            p, coalition, target
        )
        if assignment is None:
            misses += 1
            continue
        hits += 1
        replayed = list(p.ballots)
        for idx, order in assignment.items():
            replayed[idx] = WeightedBallot(order, p.ballots[idx].weight)
        replay = Profile(cands(m), tuple(replayed), strict_odd=False)
        assert H.condorcet_of(replay) == target
    assert hits > 0 and misses > 0


def test_criterion_06_hybrid_coarse_termination_matches_brute_force():
    rng = random.Random(606)
    unknown_limit = {2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
    for _ in range(200):
        m = rng.randint(2, 6)
        ids = list(range(m))
        rng.shuffle(ids)
        pairs = tuple((ids[i], ids[i + 1]) for i in range(0, m - 1, 2))
        pairing = Pairing(pairs, bye=ids[-1] if m % 2 else None)
        ballots = []
        for _ in range(rng.randint(0, 3)):
            ballots.append(vote(H.rand_order(rng, m), rng.randint(1, 7)))
        unknown = rng.randint(0, unknown_limit[m])
        total = sum(b.weight for b in ballots) + unknown
        if total == 0 or total % 2 == 0:
            ballots.append(vote(H.rand_order(rng, m), 1 + total % 2))
        p = Profile(cands(m), tuple(ballots), unknown_weight=unknown)
        expected = H.brute_fine_over(Hybrid(pairing), p)
        assert hybrid_coarse_over(pairing, p) == expected
        assert coarse_elicitation_over(Hybrid(pairing), p) == expected


def _check_witness(inst, witness):
    assert winner(inst.rule, witness, TieBreak.favor(inst.target.id)) == inst.target
    assert witness.total_weight == inst.profile.total_weight
    for before, after in zip(inst.profile.ballots, witness.ballots):
        assert before.weight == after.weight
        if isinstance(before, PartialBallot):
            assert before.locked <= after.pairs()
        else:
            assert before == after


def test_criterion_07_manipulation_reductions_track_partition():
    for bag in bag_sweep():
        p = PartitionInstance(tuple(bag))
        split = has_equal_partition_dp(p.numbers)
        for gen in (gen_cup_preference_manipulation, gen_copeland_preference_manipulation):
            inst = gen(p)
            witness = preference_manipulate(inst)
            assert (witness is not None) == split, (bag, gen.__name__)
            if witness is not None:
                _check_witness(inst, witness)


def test_criterion_08_threshold_evaluation_equates_to_manipulation():
    for bag in bag_sweep():
        inst = gen_cup_preference_manipulation(PartitionInstance(tuple(bag)))
        dist, query = reduction_from_preference_manipulation(inst)
        assert evaluate(dist, query) == (preference_manipulate(inst) is not None), bag
        if len(bag) <= 4:  # spot-check the exact mass on the small instances
            wins = sum(
                1
                for prof, _ in dist.scenarios
                if winner(query.rule, prof, query.tb) == query.target
            )
            got = win_probability(dist, query.rule, query.target, query.tb)
            assert got == Fraction(wins, len(dist.scenarios))


def test_criterion_09_cup_elects_single_peaked_median():
    rng = random.Random(910)
    for _ in range(300):
        m = rng.randint(2, 6)
        axis = Axis(tuple(rng.sample(range(m), m)))
        orders = list(single_peaked_orders(axis))
        ballots = [
            vote(rng.choice(orders), rng.randint(1, 5))
            for _ in range(rng.randint(1, 4))
        ]
        if sum(b.weight for b in ballots) % 2 == 0:
            ballots.append(vote(rng.choice(orders), 1))
        p = Profile(cands(m), tuple(ballots))
        expected = single_peaked_condorcet_winner(p, axis)
        for _ in range(5):
            agenda = H.rand_agenda(rng, range(m))
            assert winner(Cup(agenda), p) == expected, (p, axis, agenda)


def test_criterion_10_parity_and_splitting_invariants():
    rng = random.Random(1010)

    # odd totals leave no pairwise contest tied
    for _ in range(10_000):
        m = rng.randint(2, 5)
        p = Profile(cands(m), tuple(odd_votes(rng, m, count=rng.randint(1, 4), wmax=9)))
        orders, weights = p.complete_arrays()
        counts = pairwise_counts(orders, weights, m)
        total = p.total_weight
        assert all(
            2 * counts[i][j] != total for i in range(m) for j in range(m) if i != j
        )

    # with three candidates a runoff and a full elimination agree exactly
    for _ in range(500):
        p = Profile(cands(3), tuple(odd_votes(rng, 3, count=rng.randint(1, 4), wmax=9)))
        assert achievable_winners(Runoff(), p) == achievable_winners(Stv(), p)
        assert winner(Runoff(), p) == winner(Stv(), p)

    # splitting a weight-w ballot into w unit ballots never moves the winner
    def rules_for(m):
        ids = list(range(m))
        rng.shuffle(ids)
        pairs = tuple((ids[i], ids[i + 1]) for i in range(0, m - 1, 2))
        pairing = Pairing(pairs, bye=ids[-1] if m % 2 else None)
        return (
            plurality(),
            veto(),
            borda(),
            Copeland(),
            Copeland2(),
            Stv(),
            Runoff(),
            Cup(H.rand_agenda(rng, ids)),
            Hybrid(pairing),
        )

    for _ in range(200):
        m = rng.randint(2, 5)
        ballots = odd_votes(rng, m, count=rng.randint(1, 4), wmax=5)
        grouped = Profile(cands(m), tuple(ballots))
        units = Profile(
            cands(m),
            tuple(vote(b.order, 1) for b in ballots for _ in range(b.weight)),
        )
        for rule in rules_for(m):
            assert winner(rule, grouped) == winner(rule, units), rule
