"""Winner determination and rule parsing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import (
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
    winner,
)
from votelab.rules import MAX_AGENDA_DEPTH, _achievable_ids, pairwise_counts, sign_matrix

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
        sign = sign_matrix(counts, 7)
        assert sign[0][1] == 1 and sign[1][0] == -1 and sign[0][0] == 0

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


class TestRuleValidationAtCall:
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
