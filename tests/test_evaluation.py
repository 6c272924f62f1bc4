"""Scenario distributions, win probabilities, and the threshold query."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from votelab import (
    CapExceeded,
    Copeland,
    Copeland2,
    Cup,
    EvaluationQuery,
    Hybrid,
    InvalidDistribution,
    ManipulationInstance,
    ModelMismatch,
    Pairing,
    PartialBallot,
    PartitionInstance,
    Profile,
    Runoff,
    ScenarioDistribution,
    Scoring,
    Stv,
    TieBreak,
    borda,
    evaluate,
    format_distribution,
    gen_copeland_preference_manipulation,
    gen_cup_preference_manipulation,
    plurality,
    preference_manipulate,
    product_distribution,
    reduction_from_preference_manipulation,
    veto,
    win_probability,
    winner,
)
from votelab import evaluation
from votelab.completions import completed_arrays, completion_groups, iter_assignments
from votelab.manipulation import _preference_view
from votelab.rules import _DECIDERS

import helpers as H
from helpers import cands, vote

C2 = cands(2)
A_WINS = Profile(C2, (vote((0, 1), 3),))
B_WINS = Profile(C2, (vote((1, 0), 3),))


def rand_rules(rng: random.Random, m: int) -> dict:
    """Every rule family over m candidates, by name."""
    ids = H.rand_order(rng, m)
    pairing = Pairing(tuple(zip(ids[0::2], ids[1::2])), ids[-1] if m % 2 else None)
    return {
        "plurality": plurality(), "borda": borda(), "veto": veto(),
        "copeland": Copeland(), "copeland2": Copeland2(),
        "cup": Cup(H.rand_agenda(rng, range(m))), "stv": Stv(), "runoff": Runoff(),
        "hybrid": Hybrid(pairing),
    }


def rand_manipulation_profile(rng: random.Random) -> Profile:
    """A small preference-manipulation profile: votes and partial ballots
    with locked pairs, weights up to 40, some ballot objects filling several
    slots, and up to two unknown units."""
    m = rng.randint(2, 4)
    pool = [vote(H.rand_order(rng, m), rng.randint(1, 40)) for _ in range(2)]
    pool += [H.rand_partial(rng, m, rng.randint(1, 40), lock=True) for _ in range(2)]
    ballots = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    unknown = rng.randint(0, 2 if m < 4 else 1)
    return Profile(cands(m), ballots, unknown_weight=unknown, strict_odd=False)


def two_one() -> ScenarioDistribution:
    return ScenarioDistribution(
        ((A_WINS, Fraction(2, 3)), (B_WINS, Fraction(1, 3)))
    )


class TestScenarioDistribution:
    def test_candidates_come_from_the_scenarios(self):
        assert two_one().candidates == C2

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistribution):
            ScenarioDistribution(())

    def test_mass_must_be_one(self):
        with pytest.raises(InvalidDistribution, match="sum"):
            ScenarioDistribution(((A_WINS, Fraction(1, 2)),))

    def test_unprintable_probability_is_still_a_library_error(self):
        # 5001 digits pass Python's int-to-str limit; the message must not try
        tiny = Fraction(1, 10**5000)
        with pytest.raises(InvalidDistribution, match="sum"):
            ScenarioDistribution(((A_WINS, tiny),))
        with pytest.raises(InvalidDistribution, match="not positive"):
            ScenarioDistribution(((A_WINS, -tiny), (B_WINS, Fraction(1))))

    def test_exponent_strings_refused_before_expansion(self):
        with pytest.raises(InvalidDistribution, match="bad probability"):
            ScenarioDistribution(((A_WINS, "1e999999999"),))
        with pytest.raises(InvalidDistribution, match="bad probability"):
            ScenarioDistribution(((A_WINS, "1/0"),))
        with pytest.raises(InvalidDistribution, match="bad probability"):
            EvaluationQuery(C2[0], "1e-5000", plurality())

    def test_decimal_probabilities_read_as_text(self):
        dist = ScenarioDistribution(((A_WINS, Decimal("0.25")), (B_WINS, "3/4")))
        assert dist.scenarios[0][1] == Fraction(1, 4)
        for bad in (Decimal("1e-999999999"), Decimal("NaN")):
            with pytest.raises(InvalidDistribution, match="bad probability"):
                ScenarioDistribution(((A_WINS, bad),))
        with pytest.raises(InvalidDistribution, match="bad probability"):
            EvaluationQuery(C2[0], Decimal("1e-999999999"), plurality())

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(InvalidDistribution):
            ScenarioDistribution(((A_WINS, Fraction(0)), (B_WINS, Fraction(1))))

    def test_float_probability_rejected(self):
        with pytest.raises(InvalidDistribution, match="float"):
            ScenarioDistribution(((A_WINS, 0.5), (B_WINS, 0.5)))

    def test_bool_probability_and_threshold_rejected(self):
        # True == 1 and False == 0, so both would pass as numbers
        with pytest.raises(InvalidDistribution, match="bool"):
            ScenarioDistribution(((A_WINS, True),))
        with pytest.raises(InvalidDistribution, match="bool"):
            EvaluationQuery(C2[0], False, plurality())

    def test_int_and_string_probabilities_coerce_exactly(self):
        dist = ScenarioDistribution(((A_WINS, "2/3"), (B_WINS, Fraction(1, 3))))
        assert dist.scenarios[0][1] == Fraction(2, 3)

    def test_incomplete_scenario_rejected(self):
        open_profile = Profile(C2, (PartialBallot(frozenset(), 3),))
        with pytest.raises(InvalidDistribution):
            ScenarioDistribution(((open_profile, Fraction(1)),))

    def test_scenarios_must_share_candidates_and_total(self):
        other = Profile(cands(3), (vote((0, 1, 2), 3),))
        with pytest.raises(InvalidDistribution):
            ScenarioDistribution(((A_WINS, "1/2"), (other, "1/2")))
        lighter = Profile(C2, (vote((0, 1), 1),))
        with pytest.raises(InvalidDistribution):
            ScenarioDistribution(((A_WINS, "1/2"), (lighter, "1/2")))


class TestWinProbability:
    def test_exact_mass(self):
        dist = two_one()
        assert win_probability(dist, plurality(), 0) == Fraction(2, 3)
        assert win_probability(dist, plurality(), 1) == Fraction(1, 3)

    def test_tie_break_matters_at_knife_edge(self):
        even = Profile(C2, (vote((0, 1), 1), vote((1, 0), 1)), strict_odd=False)
        dist = ScenarioDistribution(((even, Fraction(1)),))
        assert win_probability(dist, plurality(), 1) == 0
        assert win_probability(dist, plurality(), 1, TieBreak.favor(1)) == 1


class TestEvaluate:
    def test_threshold_is_strict(self):
        dist = two_one()
        target = C2[0]
        rule = plurality()
        assert evaluate(dist, EvaluationQuery(target, Fraction(1, 2), rule))
        assert not evaluate(dist, EvaluationQuery(target, Fraction(2, 3), rule))

    def test_zero_threshold_asks_for_any_chance(self):
        dist = two_one()
        assert evaluate(dist, EvaluationQuery(C2[1], Fraction(0), plurality()))

    def test_query_validates_r(self):
        with pytest.raises(InvalidDistribution):
            EvaluationQuery(C2[0], Fraction(3, 2), plurality())
        with pytest.raises(InvalidDistribution):
            EvaluationQuery(C2[0], 0.25, plurality())

    def test_agrees_with_full_scan_on_random_distributions(self):
        rng = random.Random(103)
        for _ in range(60):
            m = rng.randint(2, 3)
            base = cands(m)
            n = rng.randint(1, 6)
            shares = [rng.randint(1, 5) for _ in range(n)]
            denom = sum(shares)
            scen = []
            for s in shares:
                ballots = tuple(
                    vote(H.rand_order(rng, m), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))
                )
                scen.append((ballots, Fraction(s, denom)))
            # pad every scenario to one shared total weight
            top = max(sum(b.weight for b in bs) for bs, _ in scen)
            fixed = []
            for bs, prob in scen:
                short = top - sum(b.weight for b in bs)
                if short:
                    bs = bs + (vote(tuple(range(m)), short),)
                fixed.append(
                    (Profile(base, bs, strict_odd=False), prob)
                )
            dist = ScenarioDistribution(tuple(fixed))
            rule = rng.choice((plurality(), Stv()))
            target = rng.randrange(m)
            mass = H.scan_win_probability(dist, rule, target)
            for r in (Fraction(0), mass, mass + Fraction(1, 97), Fraction(1)):
                if r > 1:
                    continue
                q = EvaluationQuery(base[target], r, rule)
                assert evaluate(dist, q) == (mass > r)

    def test_interleaved_calls_agree_with_the_referee(self, monkeypatch):
        # calls in a row under one (rule, tie-break) decide each scenario at
        # most once, in whatever order evaluate and win_probability reach it
        decided: Counter = Counter()
        real = evaluation.winner

        def counting(rule, profile, tb=None, **kwargs):
            decided[id(profile)] += 1
            return real(rule, profile, tb, **kwargs)

        monkeypatch.setattr(evaluation, "winner", counting)
        rng = random.Random(109)
        early = completed = 0
        for _ in range(40):
            m = rng.randint(3, 4)
            ids = H.rand_order(rng, m)
            pairing = Pairing(tuple(zip(ids[0::2], ids[1::2])), ids[-1] if m % 2 else None)
            rules = (
                plurality(), borda(), Copeland(), Cup(H.rand_agenda(rng, range(m))),
                Stv(), Runoff(), Hybrid(pairing),
            )
            total = rng.randint(2, 5)
            shares = [rng.randint(1, 4) for _ in range(rng.randint(2, 8))]
            scenarios = tuple(
                (
                    Profile(
                        cands(m),
                        tuple(vote(H.rand_order(rng, m)) for _ in range(total)),
                        strict_odd=False,
                    ),
                    Fraction(share, sum(shares)),
                )
                for share in shares
            )
            dist = ScenarioDistribution(scenarios)
            fresh = ScenarioDistribution(scenarios)
            text = repr(dist)
            last = None
            for _ in range(rng.randint(6, 10)):
                if last is not None and rng.random() < 0.5:
                    rule, tb = last
                    if tb is None or tb == TieBreak.lex():
                        tb = rng.choice((None, TieBreak.lex()))
                else:
                    rule = rng.choice(rules)
                    tb = rng.choice(
                        (None, TieBreak.lex(), TieBreak.favor(rng.randrange(m)),
                         TieBreak.against(rng.randrange(m)))
                    )
                key = (rule, tb or TieBreak.lex())
                if last is None or key != (last[0], last[1] or TieBreak.lex()):
                    decided.clear()
                    partial = False
                last = (rule, tb)
                target = rng.randrange(m)
                expected = H.scan_win_probability(dist, rule, target, tb)
                if rng.random() < 0.5:
                    assert win_probability(dist, rule, target, tb) == expected
                else:
                    r = rng.choice(
                        (Fraction(0), Fraction(1), expected, Fraction(rng.randint(0, 8), 8))
                    )
                    query = EvaluationQuery(cands(m)[target], r, rule, tb)
                    assert evaluate(dist, query) == (expected > r)
                assert max(decided.values()) == 1
                if len(decided) < len(dist.scenarios):
                    early += not partial
                    partial = True
                elif partial:
                    completed += 1
                    partial = False
                assert dist == fresh and hash(dist) == hash(fresh)
                assert repr(dist) == text
        # scans stopped early, and later calls finished those columns
        assert early and completed

    def test_rules_built_from_lists_are_scanned(self):
        base = cands(3)
        dist = ScenarioDistribution(
            ((Profile(base, (vote((0, 1, 2)), vote((1, 0, 2)), vote((0, 2, 1)))), 1),)
        )
        scoring = Scoring(vector=[2, 1, 0])
        hybrid = Hybrid(Pairing([[0, 1]], 2))
        assert scoring == Scoring(vector=(2, 1, 0))
        assert win_probability(dist, scoring, 0) == 1
        assert win_probability(dist, hybrid, 0) == 1
        assert evaluate(dist, EvaluationQuery(base[0], Fraction(1, 2), hybrid))


class TestProductDistribution:
    def test_independent_agents_multiply(self):
        dist = product_distribution(
            C2,
            [
                (1, [((0, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 2))]),
                (2, [((0, 1), Fraction(1, 3)), ((1, 0), Fraction(2, 3))]),
            ],
        )
        assert len(dist.scenarios) == 4
        # the weight-2 agent alone decides plurality
        assert win_probability(dist, plurality(), 0) == Fraction(1, 3)
        assert win_probability(dist, plurality(), 1) == Fraction(2, 3)

    def test_marginals_must_sum_to_one(self):
        with pytest.raises(InvalidDistribution):
            product_distribution(C2, [(1, [((0, 1), Fraction(1, 2))])])

    def test_needs_agents(self):
        with pytest.raises(InvalidDistribution):
            product_distribution(C2, [])

    def test_cap_guards_the_product(self):
        agent = (1, [((0, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 2))])
        with pytest.raises(CapExceeded):
            product_distribution(C2, [agent] * 21, strict_odd=False, cap=10**6)

    def test_each_marginal_entry_is_parsed_once(self, monkeypatch):
        parse = evaluation.parse_rational
        calls = []

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(evaluation, "parse_rational", counting)
        third = [((0, 1, 2), "1/3"), ((1, 2, 0), "1/3"), ((2, 0, 1), "1/3")]
        half = [((0, 1, 2), "1/2"), ((2, 1, 0), "0.5")]
        dist = product_distribution(cands(3), [(1, third)] * 5 + [(2, half)])
        assert len(calls) == 5 * 3 + 2
        assert len(dist.scenarios) == 3**5 * 2
        assert dist.scenarios[0][1] == Fraction(1, 486)
        assert dist.scenarios[-1][0].ballots[-1] == vote((2, 1, 0), 2)
        assert sum(p for _, p in dist.scenarios) == 1


class TestReduction:
    def test_coalition_instance_rejected(self):
        p = Profile(C2, (vote((0, 1), 1),))
        inst = ManipulationInstance(plurality(), 0, p, coalition=frozenset({0}))
        with pytest.raises(ModelMismatch):
            reduction_from_preference_manipulation(inst)

    def test_scenarios_are_uniform_unit_splits(self):
        locked = PartialBallot({(0, 1)}, 2, locked={(0, 1)})
        p = Profile(cands(3), (locked, vote((2, 1, 0), 3)))
        inst = ManipulationInstance(plurality(), 0, p)
        dist, query = reduction_from_preference_manipulation(inst)
        assert len(dist.scenarios) == 3  # extensions of the locked pair
        for profile, prob in dist.scenarios:
            assert prob == Fraction(1, 3)
            assert all(b.weight == 1 for b in profile.ballots)
            assert profile.total_weight == 5
        assert query.r == 0
        assert query.tb == TieBreak.favor(0)

    def test_cap_bounds_the_unit_ballots(self, monkeypatch):
        locked = PartialBallot({(0, 1)}, 2, locked={(0, 1)})
        p = Profile(cands(3), (locked, vote((2, 1, 0), 3)))
        inst = ManipulationInstance(plurality(), 0, p)
        dist, _ = reduction_from_preference_manipulation(inst, cap=15)
        assert sum(len(profile.ballots) for profile, _ in dist.scenarios) == 15

        def unexpected(*args):
            raise AssertionError("unit ballots built past the cap")

        monkeypatch.setattr("votelab.evaluation._unit_split", unexpected)
        # 3 scenarios fit a cap of 14; their 3 * 5 unit ballots do not
        with pytest.raises(CapExceeded) as exc:
            reduction_from_preference_manipulation(inst, cap=14)
        assert exc.value.estimate == 15

    def test_query_decides_exactly_like_the_search(self):
        rng = random.Random(107)
        agree = {True: 0, False: 0}
        for _ in range(80):
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
            dist, query = reduction_from_preference_manipulation(inst)
            outcome = evaluate(dist, query)
            assert outcome == (preference_manipulate(inst) is not None)
            agree[outcome] += 1
        assert agree[True] and agree[False]

    def test_every_small_reduction_matches_the_slot_split(self):
        # every even bag of at most 4 values up to 4, under both generators
        built = 0
        for n in range(1, 5):
            for bag in combinations_with_replacement(range(1, 5), n):
                if sum(bag) % 2:
                    continue
                for gen in (gen_cup_preference_manipulation, gen_copeland_preference_manipulation):
                    inst = gen(PartitionInstance(bag))
                    dist, _ = reduction_from_preference_manipulation(inst)
                    view = _preference_view(inst.profile)
                    groups = completion_groups(view)
                    cache: dict = {}
                    for (scenario, _), assignment in zip(
                        dist.scenarios, iter_assignments(groups), strict=True
                    ):
                        orders, weights = completed_arrays(view, groups, assignment)
                        reference = H.slot_unit_split(
                            view.candidates, orders, weights, view.strict_odd, cache
                        )
                        H.check_run_built(scenario, reference)
                        built += 1
        assert built > 1000

    def test_random_unit_splits_match_the_slot_split(self):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(400):
            m = rng.randint(2, 4)
            strict = rng.random() < 0.5
            base = Profile(cands(m), (vote(range(m)),), strict_odd=strict)
            orders: list = []
            for _ in range(rng.randint(1, 6)):
                roll = rng.random()
                if orders and roll < 0.3:
                    orders.append(orders[-1])  # an adjacent repeat
                elif roll < 0.4:
                    order = H.rand_order(rng, m)
                    orders.append(rng.choice(  # short, undeclared, repeating
                        [order[:-1], order[:-1] + (m,), order[:-1] + order[:1]]
                    ))
                else:
                    orders.append(H.rand_order(rng, m))
            weights = [rng.randint(1, 3) for _ in orders]
            cache: dict = {}
            built = H.profile_or_message(
                lambda: evaluation._unit_split(base, orders, weights, cache)
            )
            reference = H.profile_or_message(
                lambda: H.slot_unit_split(base.candidates, orders, weights, strict, cache)
            )
            if isinstance(reference, str):
                assert built == reference
                seen.add(reference.split()[-1])
            else:
                H.check_run_built(built, reference)
                seen.add(len(built.runs[0]) < len(orders))
        # merged and unmerged splits; wrong-length, repeating and even-total errors
        assert seen == {True, False, "candidates", "candidate", "this)"}

    def test_scans_match_the_distribution_of_its_scenarios(self):
        # a reduction decides from assignments; the same scenarios given as
        # profiles are decided by winner: every answer must agree
        rng = random.Random(2510)
        seen = set()
        done = 0
        while done < 60:
            profile = rand_manipulation_profile(rng)
            m = profile.m
            inst = ManipulationInstance(plurality(), rng.randrange(m), profile)
            dist, _ = reduction_from_preference_manipulation(inst)
            if len(dist.scenarios) > 150:
                continue
            done += 1
            asked = []
            for name, rule in rand_rules(rng, m).items():
                kind = rng.choice(("lex", "favor", "against"))
                tb = TieBreak.lex() if kind == "lex" else getattr(TieBreak, kind)(rng.randrange(m))
                target = rng.randrange(m)
                r = Fraction(rng.randint(0, 4), 4)
                query = EvaluationQuery(cands(m)[target], r, rule, tb)
                # every scan of the reduction comes before any scenario is read
                answers = (evaluate(dist, query), win_probability(dist, rule, target, tb))
                asked.append((query, answers))
                seen.add((name, kind))
            given = ScenarioDistribution(tuple(dist.scenarios))
            for query, answers in asked:
                rule, target, tb = query.rule, query.target.id, query.tb
                assert answers == (
                    evaluate(given, query), win_probability(given, rule, target, tb)
                )
                assert answers[1] == H.scan_win_probability(given, rule, target, tb)
            assert dist == given and given == dist and hash(dist) == hash(given)
            if len(dist.scenarios) > 1:
                assert dist != ScenarioDistribution(tuple(dist.scenarios)[::-1])
            assert repr(dist) == repr(given)
            assert dist.scenarios[::-2] == given.scenarios[::-2]
            assert format_distribution(dist) == format_distribution(given)
        assert len(seen) == 27

    def test_a_reduction_answers_without_building_a_profile(self, monkeypatch):
        decided = []
        real = evaluation._tie_broken_id

        def recording(rule, orders, weights, m, total, tb, favoured, cap, base, units):
            decided.append((orders, weights, base))
            return real(rule, orders, weights, m, total, tb, favoured, cap, base, units)

        def unexpected(*args):
            raise AssertionError("a scenario profile was built")

        split = evaluation._unit_split
        monkeypatch.setattr(evaluation, "_tie_broken_id", recording)
        monkeypatch.setattr(evaluation, "_unit_split", unexpected)
        rng = random.Random(2511)
        for _ in range(30):
            profile = rand_manipulation_profile(rng)
            rule = rand_rules(rng, profile.m)[rng.choice(("borda", "stv", "cup"))]
            inst = ManipulationInstance(rule, rng.randrange(profile.m), profile)
            dist, query = reduction_from_preference_manipulation(inst)
            count = len(dist.scenarios)
            assert dist.candidates == inst.profile.candidates
            decided.clear()
            answer = evaluate(dist, query)
            assert answer == (preference_manipulate(inst) is not None)
            probability = win_probability(dist, rule, query.target, query.tb)
            assert (probability > 0) == answer
            assert len(decided) == count  # the column kept evaluate's decisions
            # the scan hands each scenario's election over whole, or, for a
            # rule decided from its tally, as the fixed ballots' tally (base)
            # plus the scenario's own orders; either way it is exactly the
            # election the scenario read holds
            tally, m = _DECIDERS[type(rule)][0], profile.m
            with monkeypatch.context() as patch:
                patch.setattr(evaluation, "_unit_split", split)
                for (scenario, _), (orders, weights, base) in zip(
                    dist.scenarios, decided, strict=True
                ):
                    if base is None:
                        merged: dict = {}
                        for order, weight in zip(orders, weights, strict=True):
                            merged[order] = merged.get(order, 0) + weight
                        assert (tuple(merged), tuple(merged.values())) == scenario.fixed_arrays
                        continue
                    for order, weight in zip(orders, weights, strict=True):
                        unit = tally(rule, (order,), (1,), m)
                        base = [s + weight * u for s, u in zip(base, unit, strict=True)]
                    assert base == tally(rule, *scenario.fixed_arrays, m)

    def test_a_scan_tallies_the_fixed_ballots_only_to_decide(self, monkeypatch):
        tallied, decided = [], []
        fixed_part, tie_broken_id = evaluation._fixed_part, evaluation._tie_broken_id

        def counting_part(*args):
            tallied.append(args)
            return fixed_part(*args)

        def counting_id(*args):
            decided.append(args)
            return tie_broken_id(*args)

        monkeypatch.setattr(evaluation, "_fixed_part", counting_part)
        monkeypatch.setattr(evaluation, "_tie_broken_id", counting_id)
        rng = random.Random(2712)
        idle = 0
        for _ in range(40):
            profile = rand_manipulation_profile(rng)
            rule = rand_rules(rng, profile.m)[rng.choice(("borda", "cup", "runoff"))]
            inst = ManipulationInstance(rule, rng.randrange(profile.m), profile)
            dist, query = reduction_from_preference_manipulation(inst, cap=None)
            # evaluate, then win_probability under the same rule and tie-break
            for scan in (evaluate, lambda d, q: win_probability(d, q.rule, q.target, q.tb)):
                tallied.clear()
                decided.clear()
                scan(dist, query)
                assert len(tallied) == (1 if decided else 0)
                idle += not decided
        assert idle >= 5  # win_probability read all of evaluate's column

    def test_exact_fractions_are_kept_as_given(self):
        share = Fraction(1, 2)
        dist = ScenarioDistribution(((A_WINS, share), (B_WINS, Fraction(1, 2))))
        assert dist.scenarios[0][1] is share

    def test_unit_split_preserves_win_probability(self):
        heavy = Profile(C2, (vote((0, 1), 3), vote((1, 0), 2)))
        units = Profile(C2, tuple(vote((0, 1), 1) for _ in range(3)) + tuple(vote((1, 0), 1) for _ in range(2)))
        for rule in (plurality(), Stv()):
            assert winner(rule, heavy) == winner(rule, units)
        d1 = ScenarioDistribution(((heavy, Fraction(1)),))
        d2 = ScenarioDistribution(((units, Fraction(1)),))
        assert win_probability(d1, plurality(), 0) == win_probability(d2, plurality(), 0)
