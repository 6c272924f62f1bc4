"""Winner determination and rule parsing."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, permutations
from math import factorial
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import (
    Axis,
    CapExceeded,
    Copeland,
    Copeland2,
    Cup,
    Hybrid,
    InvalidProfile,
    Pairing,
    Profile,
    Runoff,
    Scoring,
    ScoringVector,
    Stv,
    TieBreak,
    achievable_winners,
    agenda_leaves,
    borda,
    candidates_from_labels,
    copeland_score,
    cup_winner,
    format_agenda,
    format_rule,
    hybrid_winner,
    is_balanced,
    parse_rule,
    plurality,
    possible_winners,
    veto,
    completion_groups,
    iter_assignments,
    linear_extensions,
    single_peaked_orders,
    winner,
)
from votelab import rules as rules_module
from votelab.completions import OptionGroup, completed_arrays, space_size
from votelab.profiles import MAX_WEIGHT
from votelab.rules import (
    MAX_AGENDA_DEPTH,
    _TallyStack,
    _achievable_ids,
    _pairs_masks,
    _pairs_tally,
    _rule_bound,
    _won_pairs,
    pairwise_counts,
)

import helpers as H
from helpers import cands, vote

C4 = cands(4)


def labels(cs):
    return sorted(c.label for c in cs)


def chain_agenda(n):
    """The agenda ((..((0,1),2)..),n-1): n-1 levels deep."""
    agenda = 0
    for c in range(1, n):
        agenda = (agenda, c)
    return agenda


def chain_text(n):
    return "(" * (n - 1) + "c0," + "),".join(f"c{c}" for c in range(1, n)) + ")"


def chain_cands(n):
    return candidates_from_labels([f"c{c}" for c in range(n)])


class TestTieBreak:
    def test_kinds(self):
        assert TieBreak.lex().kind == "lex"
        assert TieBreak.favor(2).candidate == 2
        assert TieBreak.against(C4[1]).candidate == 1

    def test_lex_takes_no_candidate(self):
        with pytest.raises(InvalidProfile):
            TieBreak("lex", 0)
        with pytest.raises(InvalidProfile):
            TieBreak("favor")
        with pytest.raises(InvalidProfile):
            TieBreak("random")


class TestRuleValidation:
    def test_scoring_vector_must_be_non_increasing(self):
        with pytest.raises(InvalidProfile):
            ScoringVector((1, 2, 0))
        with pytest.raises(InvalidProfile):
            ScoringVector((1, 1))
        with pytest.raises(InvalidProfile):
            ScoringVector((2, -1))

    def test_scoring_vector_takes_only_integers(self):
        # a float would elect by inexact arithmetic; a bool is not a score
        for vector in ((1.5, 0), (1, "a"), (True, False), (Fraction(1), 0), 5):
            with pytest.raises(InvalidProfile):
                Scoring(vector=vector)
        with pytest.raises(InvalidProfile):
            ScoringVector((2.0, 1))
        assert Scoring(vector=[2, 1, 0]).vector == (2, 1, 0)

    def test_scoring_needs_exactly_one_spec(self):
        with pytest.raises(InvalidProfile):
            Scoring()
        with pytest.raises(InvalidProfile):
            Scoring(name="plurality", vector=(1, 0))
        with pytest.raises(InvalidProfile):
            Scoring(name="approval")

    def test_named_vectors(self):
        assert plurality().vector_for(3) == (1, 0, 0)
        assert veto().vector_for(3) == (1, 1, 0)
        assert borda().vector_for(4) == (3, 2, 1, 0)

    def test_explicit_vector_length_checked_at_use(self):
        with pytest.raises(InvalidProfile):
            Scoring(vector=(2, 1, 0)).vector_for(4)

    def test_agenda_leaves(self):
        assert agenda_leaves(((0, 1), 2)) == (0, 1, 2)
        assert agenda_leaves(((0, 1), (2, 3))) == (0, 1, 2, 3)
        with pytest.raises(InvalidProfile):
            agenda_leaves(((0, 0), 1))

    def test_cup_walks_its_agenda_once(self, monkeypatch):
        import votelab.rules as rules_mod

        rule = Cup(((0, 1), 2))
        walks = []
        real = rules_mod.agenda_leaves
        monkeypatch.setattr(rules_mod, "agenda_leaves", lambda a: walks.append(a) or real(a))
        p = Profile(candidates_from_labels("ABC"), (vote((2, 0, 1), 1),))
        for _ in range(3):
            assert winner(rule, p).id == 2
        assert rule.leaf_set == frozenset({0, 1, 2}) and len(walks) == 1
        with pytest.raises(InvalidProfile, match="cover"):
            winner(rule, Profile(candidates_from_labels("AB"), (vote((0, 1), 1),)))

    def test_deep_agenda_rejected_with_a_typed_error(self):
        deep = chain_agenda(1500)
        assert agenda_leaves(deep) == tuple(range(1500))
        with pytest.raises(InvalidProfile):
            Cup(deep)
        with pytest.raises(InvalidProfile):
            parse_rule("cup:" + chain_text(1500), chain_cands(1500))

    def test_agenda_at_the_depth_limit_is_evaluated(self):
        n = MAX_AGENDA_DEPTH + 1
        rule = parse_rule("cup:" + chain_text(n), chain_cands(n))
        assert rule == Cup(chain_agenda(n))
        with pytest.raises(InvalidProfile):
            Cup(chain_agenda(n + 1))
        p = Profile(chain_cands(n), (vote(range(n - 1, -1, -1)),))
        assert winner(rule, p).id == n - 1
        assert {c.id for c in achievable_winners(rule, p)} == {n - 1}

    def test_is_balanced(self):
        # a single bye (depth gap of one) still counts as balanced
        assert is_balanced(((0, 1), (2, 3)))
        assert is_balanced(((0, 1), 2))
        assert not is_balanced((((0, 1), 2), 3))
        assert is_balanced(0)

    def test_pairing_rejects_repeats(self):
        with pytest.raises(InvalidProfile):
            Pairing(((0, 1), (1, 2)))
        with pytest.raises(InvalidProfile):
            Pairing(((0, 1),), bye=1)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "plurality",
            "veto",
            "borda",
            "copeland",
            "copeland2",
            "runoff",
            "stv",
            "scoring:3,1,0",
            "cup:((A,B),C)",
            "cup:((A,B),(C,D))",
            "hybrid:(A,B)(C,D)",
        ],
    )
    def test_round_trip(self, text):
        rule = parse_rule(text, C4)
        assert format_rule(rule, C4) == text
        assert parse_rule(format_rule(rule, C4), C4) == rule

    @pytest.mark.parametrize(
        "text, rule",
        [
            ("plurality", plurality()),
            ("veto", veto()),
            ("borda", borda()),
            ("copeland", Copeland()),
            ("copeland2", Copeland2()),
            ("runoff", Runoff()),
            ("stv", Stv()),
        ],
    )
    def test_bare_names_name_their_rules(self, text, rule):
        assert parse_rule(f" {text} ", C4) == rule
        assert format_rule(rule, C4) == text

    @pytest.mark.parametrize("thing", [object(), None, [], Scoring])
    def test_format_refuses_what_is_not_a_rule(self, thing):
        with pytest.raises(InvalidProfile):
            format_rule(thing, C4)

    def test_hybrid_single_unpaired_candidate_is_the_bye(self):
        c3 = cands(3)
        rule = parse_rule("hybrid:(A,C)", c3)
        assert rule.pairing.bye == 1
        assert format_rule(rule, c3) == "hybrid:(A,C)"

    @pytest.mark.parametrize(
        "text",
        [
            "approval",
            "scoring:",
            "scoring:1,2,3",
            "cup:((A,B)",
            "cup:((A,A),B)",
            "cup:((A,Z),B)",
            "hybrid:",
            "hybrid:(A)",
            "hybrid:(A,B)(A,C)",
        ],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(InvalidProfile):
            parse_rule(text, C4)

    def test_format_agenda(self):
        assert format_agenda(((0, 1), 2), C4) == "((A,B),C)"


class TestScoringWinners:
    def test_plurality_lex(self):
        p = Profile(cands(3), (vote((0, 1, 2), 2), vote((1, 0, 2), 1)))
        assert winner(plurality(), p).label == "A"

    def test_borda_example(self):
        p = Profile(cands(3), (vote((0, 1, 2), 2), vote((1, 2, 0), 2), vote((2, 1, 0), 1)))
        # borda: A 4, B 7, C 4
        assert winner(borda(), p).label == "B"
        assert labels(achievable_winners(borda(), p)) == ["B"]

    def test_scoring_tie_resolution(self):
        p = Profile(cands(2), (vote((0, 1), 1), vote((1, 0), 1)), strict_odd=False)
        assert winner(plurality(), p).label == "A"  # lex
        assert winner(plurality(), p, TieBreak.favor(1)).label == "B"
        assert winner(plurality(), p, TieBreak.against(0)).label == "B"
        assert labels(achievable_winners(plurality(), p)) == ["A", "B"]

    def test_favor_falls_back_when_unachievable(self):
        p = Profile(cands(2), (vote((0, 1), 3),))
        assert winner(plurality(), p, TieBreak.favor(1)).label == "A"
        assert winner(plurality(), p, TieBreak.against(0)).label == "A"


class TestPairwiseRules:
    def test_pairwise_counts_and_sign(self):
        p = Profile(cands(3), (vote((0, 1, 2), 4), vote((2, 1, 0), 3)))
        orders, weights = p.complete_arrays()
        counts = pairwise_counts(orders, weights, 3)
        assert counts[0][1] == 4 and counts[1][0] == 3
        beats, holds = _pairs_masks(_pairs_tally(Copeland(), orders, weights, 3), 3, 7)
        # 0 beats 1, 1 loses to 0, and no candidate meets itself
        assert beats[0] >> 1 & 1 and holds[0] >> 1 & 1
        assert not beats[1] & 1 and not holds[1] & 1
        assert not any(mask >> c & 1 for c in range(3) for mask in (beats[c], holds[c]))

    def test_masks_match_the_count_referee(self):
        # exact ties, weights up to 2**62 and repeated orders, m = 1..12
        rng = random.Random(30)
        for trial in range(360):
            m = trial % 12 + 1
            pool = [H.rand_order(rng, m) for _ in range(rng.randint(1, 4))]
            top = rng.choice((1, 3, 2**62))
            ballots, total = [], 0
            for _ in range(rng.randint(1, 9)):
                room = (MAX_WEIGHT - total) // 2  # enough for a mirrored pair
                if room < 1:
                    break
                weight = rng.randint(1, min(top, room))
                order = rng.choice(pool) if rng.random() < 0.5 else H.rand_order(rng, m)
                orders = [order, order[::-1]] if rng.random() < 0.4 else [order]
                ballots += [vote(o, weight) for o in orders]
                total += weight * len(orders)
            p = Profile(cands(m), tuple(ballots), strict_odd=False)
            assert [copeland_score(p, c) for c in range(m)] == H.brute_copeland_scores(p)
            for rule in (Cup(H.rand_agenda(rng, range(m))), Copeland(), Copeland2()):
                ids = H.brute_pairwise_ids(rule, p)
                assert {c.id for c in achievable_winners(rule, p)} == ids, (rule, ballots)
                (lex,) = H.brute_pairwise_ids(rule, p, branch=False)
                assert winner(rule, p).id == lex, (rule, ballots)
                c = rng.randrange(m)
                favoured = c if c in ids else min(ids)
                assert winner(rule, p, TieBreak.favor(c)).id == favoured, (rule, ballots, c)
                against = min(ids - {c}, default=c)
                assert winner(rule, p, TieBreak.against(c)).id == against, (rule, ballots, c)

    def test_copeland_cycle_scores_zero(self):
        p = Profile(cands(3), (vote((0, 1, 2), 1), vote((1, 2, 0), 1), vote((2, 0, 1), 1)))
        assert [copeland_score(p, c) for c in range(3)] == [0, 0, 0]
        assert labels(achievable_winners(Copeland(), p)) == ["A", "B", "C"]
        assert winner(Copeland(), p, TieBreak.favor(1)).label == "B"

    def test_condorcet_winner_scores_m_minus_one(self):
        p = Profile(cands(4), (vote((1, 0, 2, 3), 3), vote((1, 3, 2, 0), 2)))
        assert copeland_score(p, 1) == 3

    def test_copeland2_breaks_first_order_tie(self):
        p = Profile(
            cands(4),
            (vote((0, 1, 2, 3), 3), vote((3, 0, 1, 2), 2), vote((2, 3, 0, 1), 2)),
        )
        # A and D tie on wins-minus-losses; D's defeated set scores better.
        assert [copeland_score(p, c) for c in range(4)] == [1, -1, -1, 1]
        assert winner(Copeland(), p).label == "A"
        assert labels(achievable_winners(Copeland(), p)) == ["A", "D"]
        assert winner(Copeland2(), p).label == "D"
        assert labels(achievable_winners(Copeland2(), p)) == ["D"]

    def test_cup_elects_condorcet_winner(self):
        p = Profile(
            cands(3),
            (
                vote((1, 0, 2), 2),
                vote((1, 2, 0), 2),
                vote((0, 1, 2), 1),
                vote((2, 0, 1), 1),
                vote((0, 2, 1), 1),
            ),
        )
        for agenda in (((0, 1), 2), ((1, 2), 0), ((0, 2), 1)):
            assert cup_winner(agenda, p).label == "B"

    def test_cup_agenda_order_matters_in_a_cycle(self):
        p = Profile(cands(3), (vote((0, 1, 2), 1), vote((1, 2, 0), 1), vote((2, 0, 1), 1)))
        # cycle A > B > C > A: the semifinal loser's conqueror wins
        assert cup_winner(((0, 1), 2), p).label == "C"
        assert cup_winner(((1, 2), 0), p).label == "A"
        assert cup_winner(((0, 2), 1), p).label == "B"

    def test_cup_tie_resolution_at_even_total(self):
        p = Profile(cands(2), (vote((0, 1), 1), vote((1, 0), 1)), strict_odd=False)
        assert cup_winner((0, 1), p).label == "A"
        assert cup_winner((0, 1), p, TieBreak.favor(1)).label == "B"
        assert labels(achievable_winners(Cup((0, 1)), p)) == ["A", "B"]

    def test_brute_bracket_referee_agrees(self):
        rng = random.Random(23)
        for _ in range(120):
            m = rng.randint(2, 4)
            n = rng.randint(1, 4)
            ballots = tuple(
                vote(H.rand_order(rng, m), rng.randint(1, 3)) for _ in range(n)
            )
            p = Profile(cands(m), ballots, strict_odd=False)
            agenda = H.rand_agenda(rng, range(m))
            counts = H.counts_of(*p.complete_arrays(), m)
            expect = H.bracket_achievable(agenda, counts, p.total_weight)
            got = {c.id for c in achievable_winners(Cup(agenda), p)}
            assert got == expect


class TestEliminationRules:
    def test_stv_transfer_example(self):
        p = Profile(cands(3), (vote((0, 1, 2), 4), vote((1, 0, 2), 3), vote((2, 1, 0), 2)))
        assert winner(Stv(), p).label == "B"
        assert winner(Runoff(), p).label == "B"

    def test_stv_immediate_majority(self):
        p = Profile(cands(3), (vote((2, 0, 1), 5), vote((0, 1, 2), 4)))
        assert winner(Stv(), p).label == "C"

    def test_stv_elimination_tie_branches(self):
        # B and C tie for last; whichever survives inherits the other's votes
        p = Profile(
            cands(3),
            (vote((0, 1, 2), 3), vote((1, 2, 0), 2), vote((2, 1, 0), 2)),
        )
        assert labels(achievable_winners(Stv(), p)) == ["B", "C"]
        assert winner(Stv(), p).label == "B"  # lex eliminates the higher id
        assert winner(Stv(), p, TieBreak.favor(2)).label == "C"

    def test_stv_branches_every_tie_above_six_candidates(self):
        p = H.cyclic_profile(7)
        assert labels(achievable_winners(Stv(), p)) == list("ABCDEFG")
        assert winner(Stv(), p).label == "A"

    def test_stv_matches_the_unmemoised_tie_tree(self):
        rng = random.Random(71)
        for m in range(3, 8):
            for _ in range(12 if m < 7 else 4):
                ballots = tuple(
                    vote(H.rand_order(rng, m), rng.randint(1, 2))
                    for _ in range(rng.randint(m - 1, m + 2))
                )
                p = Profile(cands(m), ballots, strict_odd=False)
                orders, weights = H.raw_arrays(p)
                tree = H.brute_stv(orders, weights, m)
                assert {c.id for c in achievable_winners(Stv(), p)} == tree
                lex = H.brute_stv(orders, weights, m, branch=False)
                assert winner(Stv(), p).id == min(lex)
                for c in range(m):
                    favored = winner(Stv(), p, TieBreak.favor(c)).id
                    assert favored == (c if c in tree else min(tree))
                    rest = tree - {c}
                    against = winner(Stv(), p, TieBreak.against(c)).id
                    assert against == (min(rest) if rest else c)

    def test_stv_elimination_states_count_against_the_cap(self):
        p = H.cyclic_profile(12)
        with pytest.raises(CapExceeded):
            possible_winners(Stv(), p, cap=1000)
        assert labels(possible_winners(Stv(), p, cap=10**4)) == list(H.LABELS[:12])

    def test_stv_lex_runs_two_thousand_eliminations_deep(self):
        # ballot i tops candidate i with weight i+1; eliminated ballots flow
        # to candidate 1, which reaches a majority after about 1400 rounds
        n = 2000
        ids = list(range(n))
        ballots = tuple(vote((i, *ids[:i], *ids[i + 1 :]), i + 1) for i in range(n))
        p = Profile(candidates_from_labels([f"c{i}" for i in ids]), ballots, strict_odd=False)
        assert winner(Stv(), p).label == "c1"

    def test_runoff_vs_stv_three_candidates(self):
        rng = random.Random(5)
        for _ in range(150):
            ballots = tuple(
                vote(H.rand_order(rng, 3), rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))
            )
            p = Profile(cands(3), ballots, strict_odd=False)
            assert achievable_winners(Runoff(), p) == achievable_winners(Stv(), p)
            assert winner(Runoff(), p) == winner(Stv(), p)

    def test_runoff_of_two_follows_the_pairwise_majority(self):
        # at m = 2 first places are the pairwise contest, so a tie in one is
        # a tie in the other: branching elects both, lex elects id 0
        rng = random.Random(13)
        for _ in range(200):
            ballots = tuple(
                vote(rng.choice(((0, 1), (1, 0))), rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))
            )
            if rng.random() < 0.5:  # mirror every ballot: first places tie
                ballots += tuple(vote(b.order[::-1], b.weight) for b in ballots)
            p = Profile(cands(2), ballots, strict_odd=False)
            d = 2 * pairwise_counts(*H.raw_arrays(p), 2)[0][1] - p.total_weight
            expect = {0} if d > 0 else {1} if d < 0 else {0, 1}
            assert {c.id for c in achievable_winners(Runoff(), p)} == expect
            assert winner(Runoff(), p).id == min(expect)
            for c in (0, 1):
                favored = winner(Runoff(), p, TieBreak.favor(c)).id
                assert favored == (c if c in expect else min(expect))

    def test_runoff_differs_from_stv_with_four(self):
        # top-two runoff skips the gradual transfers that STV performs
        p = Profile(
            cands(4),
            (
                vote((0, 1, 2, 3), 4),
                vote((1, 0, 2, 3), 3),
                vote((2, 1, 0, 3), 3),
                vote((3, 2, 1, 0), 1),
            ),
        )
        # A4 B3 C3 D1: the runoff final is A against B and B wins it 7-4;
        # STV first folds D into C, then B's votes reach A, electing A
        assert winner(Runoff(), p).label == "B"
        assert winner(Stv(), p).label == "A"

    def test_stv_and_runoff_equal_the_walked_tallies(self, monkeypatch):
        # small weights give elimination ties and even totals; small caps
        # refuse some frontiers, and the refusal must match too
        def outcome(decide):
            try:
                return decide()
            except CapExceeded as exc:
                return ("refused", exc.estimate)

        rng = random.Random(47)
        cases = []
        for _ in range(300):
            m = rng.randint(2, 6)
            n = rng.randint(1, 8)
            orders = tuple(H.rand_order(rng, m) for _ in range(n))
            weights = tuple(rng.randint(1, 3) for _ in range(n))
            cases.append((orders, weights, m, sum(weights)))
        modes = [(branch, cap) for branch in (True, False) for cap in (None, 0, 1, 2, 3, 5, 8)]

        def run_all(rule):
            return [
                outcome(lambda: _achievable_ids(rule, o, w, m, total, branch=b, cap=cap))
                for o, w, m, total in cases
                for b, cap in modes
            ]

        stv = run_all(Stv())
        referee = [
            outcome(lambda: H.frontier_stv_winners(o, w, m, total, b, cap))
            for o, w, m, total in cases
            for b, cap in modes
        ]
        assert stv == referee
        assert any(isinstance(ids, tuple) for ids in stv)  # some refusals
        assert any(isinstance(ids, frozenset) and len(ids) > 1 for ids in stv)  # some ties
        runoff = run_all(Runoff())
        monkeypatch.setattr(rules_module, "_top_tallies", H.walked_top_tallies)
        assert runoff == run_all(Runoff())
        assert stv == run_all(Stv())


class TestBounds:
    """Each rule's bound, alone: from the least and most of a statistic over
    a set of elections it keeps every candidate that wins one of them."""

    RULES = (plurality(), veto(), borda(), "vector", Stv(), Runoff())

    @staticmethod
    def statistic_of(rule, orders, weights, m):
        # as the pruner sums it: each order's tally at weight 1, times its weight
        tally, _ = _rule_bound(rule, m)
        columns = zip(*(tally(rule, (order,), (1,), m) for order in orders))
        return [sum(w * v for w, v in zip(weights, column)) for column in columns]

    def test_the_statistic_is_the_rule_tally(self):
        rng = random.Random(71)
        for _ in range(200):
            m = rng.randint(2, 5)
            orders = tuple(H.rand_order(rng, m) for _ in range(rng.randint(1, 6)))
            weights = tuple(rng.randint(1, 40) for _ in orders)
            vector = tuple(sorted((rng.randint(0, 9) for _ in range(m)), reverse=True))
            for rule in (borda(), Scoring(vector=vector) if vector[0] > vector[-1] else veto()):
                scores = [0] * m
                for order, weight in zip(orders, weights):
                    for position, cand in enumerate(order):
                        scores[cand] += weight * rule.vector_for(m)[position]
                assert self.statistic_of(rule, orders, weights, m) == scores
            first = [sum(w for o, w in zip(orders, weights) if o[0] == c) for c in range(m)]
            counts = H.counts_of(orders, weights, m)
            pairs = [counts[i][j] for i in range(m) for j in range(i + 1, m)]
            for rule in (Stv(), Runoff()):
                if _rule_bound(rule, m) is not None:
                    assert self.statistic_of(rule, orders, weights, m) == first + pairs

    def test_stv_shares_runoff_bound_up_to_three_candidates(self):
        for m in (2, 3):
            assert _rule_bound(Stv(), m) == _rule_bound(Runoff(), m) is not None
        for m in (4, 5, 9):
            assert _rule_bound(Stv(), m) is None
            assert _rule_bound(Runoff(), m) is not None
        for rule in (Copeland(), Copeland2(), Cup(((0, 1), 2)), Hybrid(Pairing(((0, 1),), 2))):
            assert _rule_bound(rule, 3) is None

    def test_ties_count_as_wins(self):
        # one complete election is a box with lo == hi; small weights make
        # its tied scores, first places and head-to-head counts common
        rng = random.Random(72)
        tied = 0
        for _ in range(600):
            m = rng.randint(2, 5)
            orders = tuple(H.rand_order(rng, m) for _ in range(rng.randint(1, 4)))
            weights = tuple(rng.randint(1, 2) for _ in orders)
            total = sum(weights)
            for rule in (plurality(), veto(), borda(), Runoff(), Stv()):
                bound = _rule_bound(rule, m)
                if bound is None:
                    continue
                stat = self.statistic_of(rule, orders, weights, m)
                winners = _achievable_ids(rule, orders, weights, m, total, cap=None)
                assert all(bound[1](rule, c, stat, stat, m, total) for c in winners), rule
                tied += len(winners) > 1
        assert tied > 300

    def test_each_bound_keeps_every_winner_below_random_nodes(self):
        # nodes of random completion spaces: weights up to 40, repeated
        # ballot objects, unknown units, an axis half the time; the box is
        # the least and most statistic over the completions below, then
        # widened at random, for a bound must hold on any box around them
        rng = random.Random(20261019)
        kept_less = checked = 0
        while checked < 400:
            m = rng.choice((2, 3, 3, 4, 5))
            axis = Axis(H.rand_order(rng, m)) if rng.random() < 0.5 else None
            sp = sorted(single_peaked_orders(axis)) if axis else None
            draw = (lambda: rng.choice(sp)) if axis else (lambda: H.rand_order(rng, m))
            ballots = []
            for _ in range(rng.randint(1, 3)):
                ballots += [vote(draw(), rng.randint(1, 40))] * rng.randint(1, 2)
            for _ in range(rng.randint(1, 3)):
                weight = rng.randint(1, 40)
                partial = (
                    H.rand_sp_partial(rng, m, axis, weight)
                    if axis
                    else H.rand_partial(rng, m, weight)
                )
                ballots += [partial] * rng.randint(1, 2)
            p = Profile(cands(m), tuple(ballots), rng.randint(0, 2), strict_odd=False)
            if H.completion_count(p, axis=axis) > 3000:
                continue
            groups = completion_groups(p, axis=axis)
            rule = rng.choice(self.RULES)
            if rule == "vector":
                rule = Scoring(vector=tuple(sorted(rng.sample(range(12), m), reverse=True)))
            bound = _rule_bound(rule, m)
            if bound is None:
                continue
            depth = rng.randint(0, len(groups))
            head = tuple(
                rng.choice(list(combinations_with_replacement(g.options, g.count)))
                for g in groups[:depth]
            )
            total = p.total_weight
            stats, winners = [], set()
            for rest in iter_assignments(groups[depth:]):
                orders, weights = completed_arrays(p, groups, head + rest)
                stats.append(self.statistic_of(rule, orders, weights, m))
                winners |= _achievable_ids(rule, orders, weights, m, total, cap=None)
            lo, hi = list(map(min, zip(*stats))), list(map(max, zip(*stats)))
            if rng.random() < 0.5:
                lo = [x - rng.randint(0, 3) for x in lo]
                hi = [x + rng.randint(0, 3) for x in hi]
            kept = {c for c in range(m) if bound[1](rule, c, lo, hi, m, total)}
            assert winners <= kept, (rule, p, head)
            kept_less += len(kept) < m
            checked += 1
        assert kept_less > 100  # the bounds do leave candidates out


class TestSplitTally:
    """A caller deciding many elections that share ballots tallies those
    once and stacks each election's own orders on top (``_TallyStack``)."""

    @staticmethod
    def rand_rules(rng, m):
        ids = H.rand_order(rng, m)
        pairing = Pairing(tuple(zip(ids[0::2], ids[1::2])), ids[-1] if m % 2 else None)
        rules = [plurality(), veto(), borda(), Runoff(), Stv(), Copeland(), Copeland2()]
        rules += [Cup(H.rand_agenda(rng, range(m))), Hybrid(pairing)]
        vector = tuple(sorted((rng.randint(0, 9) for _ in range(m)), reverse=True))
        if m > 1 and vector[0] > vector[-1]:
            rules.append(Scoring(vector=vector))
        return rules

    def test_a_summed_prefix_decides_as_the_whole_election(self):
        # small weights and a small pool of orders give repeated orders and
        # ties of every kind; every tie-break names every candidate
        rng = random.Random(2026)
        seen = set()
        for _ in range(400):
            m = rng.randint(1, 5)
            pool = [H.rand_order(rng, m) for _ in range(rng.randint(1, 4))]
            orders = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
            weights = tuple(rng.randint(1, 3) for _ in orders)
            cut = rng.randint(0, len(orders))
            p = Profile(cands(m), tuple(map(vote, orders, weights)), strict_odd=False)
            total = p.total_weight
            tbs = [TieBreak.lex()]
            tbs += [tb(c) for c in range(m) for tb in (TieBreak.favor, TieBreak.against)]
            for rule in self.rand_rules(rng, m):
                base, fixed, fixed_weights = rules_module._fixed_part(
                    rule, orders[:cut], weights[:cut], m
                )
                rest, rest_weights = fixed + orders[cut:], fixed_weights + weights[cut:]
                if base is not None:  # the rest stacked on the shared tally, one per group
                    groups = [OptionGroup(w, 1, (o,), ()) for o, w in zip(rest, rest_weights)]
                    base = _TallyStack(rule, base, groups)(tuple((o,) for o in rest))
                    rest, rest_weights = (), ()
                for branch in (False, True):  # the branched ids are kept
                    split = _achievable_ids(
                        rule, rest, rest_weights, m, total, base=base, branch=branch
                    )
                    whole = _achievable_ids(rule, orders, weights, m, total, branch=branch)
                    assert split == whole, (rule, orders, weights, cut)
                assert split == H.brute_winners(rule, orders, weights, m), (rule, orders, weights)
                for tb in tbs:
                    favoured = None if tb.kind == "lex" else tb.candidate
                    won = rules_module._tie_broken_id(
                        rule, rest, rest_weights, m, total, tb, favoured, None, base
                    )
                    assert won == winner(rule, p, tb).id, (rule, tb)
                seen.add((type(rule), m, base is None, len(split) > 1))
        assert {(Stv, m, True, True) for m in (2, 3, 4, 5)} <= seen
        assert {(kind, 1, True, False) for kind in (Scoring, Cup, Hybrid)} <= seen
        for kind in (Scoring, Runoff, Cup, Copeland, Copeland2):
            assert {(kind, m, False, True) for m in (3, 4, 5)} <= seen, kind
        assert {(Hybrid, m, True, True) for m in (3, 4, 5)} <= seen


class TestTallyStack:
    """Each stacked tally is the completion's own tally, in any visit order."""

    @staticmethod
    def rand_space(rng):
        """A view and its option groups: partial ballots, some sharing
        commitments (so a group or an option list repeats), weights 1-3,
        counts 1-3, and an unknown pool, in a space of at most 600."""
        while True:
            m = rng.randint(2, 5)
            pool = [H.rand_partial(rng, m, rng.randint(1, 3)) for _ in range(3)]
            pool = [b for b in pool if len(b.pairs) >= m * (m - 1) // 2 - 3]  # few options
            ballots = [vote(H.rand_order(rng, m), rng.randint(1, 3))]
            ballots += [rng.choice(pool) for _ in range(rng.randint(0, 4)) if pool]
            unknown = rng.randint(0, 2) if m <= 3 else rng.randint(0, 1)
            view = Profile(cands(m), tuple(ballots), unknown, strict_odd=False)
            groups = completion_groups(view)
            if 1 < space_size(groups) <= 600:
                return view, groups

    def test_stacked_tallies_equal_the_completions_tallies(self):
        rng = random.Random(3232)
        seen = set()
        for _ in range(120):
            view, groups = self.rand_space(rng)
            m = view.m
            vector = tuple(sorted((rng.randint(0, 9) for _ in range(m - 1)), reverse=True)) + (0,)
            scoring = Scoring(vector=vector) if vector[0] else borda()
            rule = rng.choice([scoring, Copeland(), Runoff()])
            tally = rules_module._DECIDERS[type(rule)][0]

            def referee(prefix):
                arrays = completed_arrays(view, groups[: len(prefix)], prefix)
                return tally(rule, *arrays, m)

            fixed = tally(rule, *view.fixed_arrays, m)
            walk = list(iter_assignments(groups))
            # the odometer's order
            stack = _TallyStack(rule, fixed, groups)
            for a in walk:
                assert stack(a) == referee(a), (rule, a)
            # a walk whose hook refuses at random and reads its prefix, as the pruner does
            stack, heads = _TallyStack(rule, fixed, groups), [()] * len(groups)

            def enter(depth, combo):
                heads[depth] = combo
                if rng.random() < 0.5:
                    assert stack(heads[: depth + 1]) == referee(heads[: depth + 1])
                return rng.random() < 0.7

            visited = 0
            for a in iter_assignments(groups, enter):
                assert stack(a) == referee(a), (rule, a)
                visited += 1
            # a shuffled order with repeats, each a new tuple of the same
            # multisets; now and then a jump back to a shorter prefix that
            # differs at its last depth, then that prefix with this
            # assignment's deeper multisets
            stack = _TallyStack(rule, fixed, groups)
            shuffled = walk + rng.choices(walk, k=len(walk) // 2 + 1)
            rng.shuffle(shuffled)
            for a in shuffled:
                assert stack(tuple(a)) == referee(a), (rule, a)
                if rng.random() < 0.3:
                    d = rng.randrange(len(a))
                    cut = a[:d] + rng.choice(walk)[d : d + 1]
                    for b in (cut, cut + a[d + 1 :], ()):
                        assert stack(b) == referee(b), (rule, b)
            seen.add((type(rule), m, visited < len(walk), any(g.count > 1 for g in groups)))
        assert {kind for kind, *_ in seen} == {Scoring, Copeland, Runoff}
        assert {m for _, m, *_ in seen} == {2, 3, 4, 5}
        assert {(True, True), (False, True), (True, False)} <= {key[2:] for key in seen}


class TestPairsTally:
    def test_agrees_with_the_folded_pairwise_counts(self):
        # the tally is read off each order directly; the referee folds the
        # m x m counts into the first places and the upper triangle
        rng = random.Random(2727)
        seen = set()
        for _ in range(300):
            m = rng.randint(1, 7)
            pool = [H.rand_order(rng, m) for _ in range(rng.randint(1, 3))]
            orders = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            sizes = (1, rng.randint(1, 9), 2**62 + rng.randint(0, 9))
            weights = tuple(rng.choice(sizes) for _ in orders)
            counts = pairwise_counts(orders, weights, m)
            first = [sum(w for o, w in zip(orders, weights) if o[0] == c) for c in range(m)]
            folded = first + [counts[i][j] for i in range(m) for j in range(i + 1, m)]
            assert _pairs_tally(Copeland(), orders, weights, m) == folded, (orders, weights)
            seen.add((m, len(orders) > len(set(orders)), not orders))
        assert {m for m, _, _ in seen} == set(range(1, 8))
        assert any(repeated for _, repeated, _ in seen) and any(empty for _, _, empty in seen)

    def test_won_pairs_match_the_count_referee(self):
        # every order of random option lists: each mask against its order's
        # pairwise counts, and each list's AND and OR against the least and
        # the most of its orders' tallies over the pair coordinates
        rng = random.Random(3131)
        lists = [tuple(permutations(range(m))) for m in range(2, 8)]
        for _ in range(120):
            m = rng.randint(2, 6)
            axis = Axis(H.rand_order(rng, m)) if rng.random() < 0.5 else None
            ballot = H.rand_sp_partial(rng, m, axis, 1) if axis else H.rand_partial(rng, m, 1)
            lists.append(tuple(linear_extensions(ballot, m, axis=axis)))
        kinds = set()
        for options in lists:
            m = len(options[0])
            masks = _won_pairs(options, m)
            assert masks == [H.brute_won_pairs(order, m) for order in options], options
            columns = list(zip(*(_pairs_tally(Copeland(), (o,), (1,), m)[m:] for o in options)))
            assert reduce(and_, masks) == sum(min(col) << k for k, col in enumerate(columns))
            assert reduce(or_, masks) == sum(max(col) << k for k, col in enumerate(columns))
            kinds.add((m, len(options) == factorial(m), len(options) == 1))
        assert {m for m, free, _ in kinds if free} == set(range(2, 8))
        assert any(one for _, _, one in kinds) and any(not (free or one) for _, free, one in kinds)


class TestHybrid:
    def test_pair_then_plurality(self):
        p = Profile(
            cands(4),
            (vote((0, 1, 2, 3), 3), vote((1, 0, 3, 2), 2), vote((2, 3, 0, 1), 2)),
        )
        assert hybrid_winner(Pairing(((0, 1), (2, 3))), p).label == "A"

    def test_bye_skips_the_knockout(self):
        p = Profile(cands(3), (vote((2, 1, 0), 2), vote((1, 2, 0), 2), vote((0, 1, 2), 1)))
        # B beats C 3-2 in the pair; bye A keeps 1 vote; B takes the rest
        assert hybrid_winner(Pairing(((1, 2),), bye=0), p).label == "B"

    def test_hybrid_knockout_tie_branches(self):
        p = Profile(cands(2), (vote((0, 1), 1), vote((1, 0), 1)), strict_odd=False)
        rule = Hybrid(Pairing(((0, 1),)))
        assert labels(achievable_winners(rule, p)) == ["A", "B"]
        assert winner(rule, p, TieBreak.favor(1)).label == "B"

    def test_pairing_must_cover_all_candidates(self):
        p = Profile(cands(3), (vote((0, 1, 2), 1),))
        with pytest.raises(InvalidProfile):
            hybrid_winner(Pairing(((0, 1),)), p)

    def test_head_to_head_weights_match_the_pairwise_counts_referee(self):
        # few orders at small even totals tie many pairs at exactly half
        rng = random.Random(20261021)
        seen = set()
        for m in range(2, 10):
            for _ in range(40):
                ids = rng.sample(range(m), m)
                bye = ids.pop() if m % 2 else None
                pairing = Pairing(tuple(zip(ids[::2], ids[1::2])), bye)
                orders = [H.rand_order(rng, m) for _ in range(rng.randint(1, 6))]
                weights = [rng.randint(1, 3) for _ in orders]
                if rng.random() < 0.5:  # mirrored halves: every pair ties
                    orders += [o[::-1] for o in orders]
                    weights += weights
                total = sum(weights)
                got = {}
                for branch in (True, False):
                    got[branch] = rules_module._hybrid_ids(
                        Hybrid(pairing), tuple(orders), tuple(weights), m, total, branch, None
                    )
                    assert got[branch] == H.brute_hybrid_ids(
                        pairing, orders, weights, m, branch=branch
                    ), (m, pairing, orders, weights, branch)
                seen.add((m, bye is not None, total % 2 == 0, got[True] != got[False]))
        assert {m for m, *_ in seen} == set(range(2, 10))
        assert {(has_bye, even) for _, has_bye, even, _ in seen} >= {(False, True), (True, True)}
        assert any(branched for *_, branched in seen)


class TestRuleValidationAtCall:
    def test_unknown_rule_is_refused_by_the_table(self):
        orders, weights = ((0, 1), (1, 0)), (2, 1)
        for thing in (object(), None, Scoring):
            with pytest.raises(InvalidProfile, match="unknown rule"):
                _achievable_ids(thing, orders, weights, 2, 3)
        assert _achievable_ids(object(), ((0,),), (1,), 1, 1) == frozenset((0,))

    def test_cup_agenda_must_match_profile(self):
        p = Profile(cands(3), (vote((0, 1, 2), 1),))
        with pytest.raises(InvalidProfile):
            winner(Cup((0, 1)), p)

    def test_tb_candidate_must_exist(self):
        p = Profile(cands(2), (vote((0, 1), 1),))
        with pytest.raises(InvalidProfile):
            winner(plurality(), p, TieBreak.favor(5))


@given(
    st.lists(
        st.tuples(st.permutations(range(3)).map(tuple), st.integers(1, 5)),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=4),
    st.permutations(range(3)),
)
@settings(deadline=None, max_examples=150)
def test_winner_is_always_achievable(entries, repeats, perm):
    # Repeats duplicate an order, either as the very same ballot object or as
    # an equal fresh one; the merged tally must elect as the raw ballots do.
    ballots = [vote(o, w) for o, w in entries]
    for idx, shared in repeats:
        ballot = ballots[idx % len(entries)]
        ballots.append(ballot if shared else vote(ballot.order, ballot.weight))
    p = Profile(cands(3), tuple(ballots), strict_odd=False)
    orders, weights = H.raw_arrays(p)
    total = sum(weights)
    left, right, bye = perm
    rules = (
        plurality(),
        veto(),
        borda(),
        Scoring(vector=(5, 2, 0)),
        Copeland(),
        Copeland2(),
        Runoff(),
        Stv(),
        Cup(((left, right), bye)),
        Hybrid(Pairing(((left, right),), bye=bye)),
    )
    for rule in rules:
        branched = _achievable_ids(rule, orders, weights, 3, total, branch=True)
        lex = _achievable_ids(rule, orders, weights, 3, total, branch=False)
        possible = achievable_winners(rule, p)
        assert {w.id for w in possible} == branched, rule
        assert winner(rule, p) in possible
        assert winner(rule, p).id == min(lex), rule
        for c in range(3):
            favored = winner(rule, p, TieBreak.favor(c))
            assert favored in possible
            assert (favored.id == c) == (p.candidates[c] in possible)
            assert favored.id == (c if c in branched else min(branched)), rule
            rest = branched - {c}
            against = winner(rule, p, TieBreak.against(c))
            assert against.id == (min(rest) if rest else c), rule
