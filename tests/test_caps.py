"""Cap conformance: every capped public entry point answers exactly or refuses.

A call under a cap must give the answer of the same call with ``cap=None``,
or raise CapExceeded with an estimate above the cap; once it answers at
some cap it answers at every larger one.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from votelab import (
    Axis,
    CapExceeded,
    Copeland,
    Copeland2,
    Cup,
    EvaluationQuery,
    Hybrid,
    ManipulationInstance,
    Pairing,
    PartialBallot,
    Profile,
    Runoff,
    ScenarioDistribution,
    Stv,
    TieBreak,
    VotelabError,
    achievable_winners,
    borda,
    coalition_manipulate,
    coarse_elicitation_over,
    completion_groups,
    cup3_fine_over,
    evaluate,
    fine_elicitation_over,
    fine_sp_elicitation_over,
    hybrid_coarse_over,
    linear_extensions,
    plurality,
    possible_winners,
    preference_manipulate,
    product_distribution,
    reduction_from_preference_manipulation,
    single_peaked_orders,
    veto,
    win_probability,
    winner,
)
from votelab.cli import main

import helpers as H
from helpers import cands, vote

CAPS = (0, 1, 2, 3, 5, 8, 13, 30, 100, 1000)
CASES = 40


def outcome(call, cap):
    """("answer", value), ("error", type) or ("capped", None)."""
    try:
        return "answer", call(cap)
    except CapExceeded as exc:
        assert cap is not None and exc.estimate > cap, (cap, exc.estimate, exc)
        return "capped", None
    except VotelabError as exc:
        return "error", type(exc)


def read_reduction(inst: ManipulationInstance, cap: int | None) -> tuple:
    """The reduction with every scenario read, so the reads it charges to
    ``cap`` raise inside the capped call."""
    dist, query = reduction_from_preference_manipulation(inst, cap=cap)
    return tuple(dist.scenarios), query


def rand_case(rng: random.Random) -> dict:
    """Every capped entry point as a function of ``cap``, on one small input."""
    m = rng.randint(2, 4)
    axis = Axis(H.rand_order(rng, m))
    sp = sorted(single_peaked_orders(axis))
    on_axis = rng.random() < 0.5  # else fine_sp mostly meets NotCompletableSP
    draw = (lambda: rng.choice(sp)) if on_axis else (lambda: H.rand_order(rng, m))
    votes = tuple(vote(draw(), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
    partials = []
    for _ in range(rng.randint(0, 2)):
        pairs = list(vote(draw()).pairs())
        pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
        locked = rng.sample(pairs, rng.randint(0, len(pairs)))
        partials.append(PartialBallot(frozenset(pairs), rng.randint(1, 3), frozenset(locked)))
    unknown = rng.randint(0, 3)
    full = Profile(cands(m), votes + tuple(partials), unknown, strict_odd=False)
    cast = Profile(cands(m), votes, unknown, strict_odd=False)
    agenda = H.rand_agenda(rng, range(m))
    ids = H.rand_order(rng, m)
    pairing = Pairing(tuple(zip(ids[0::2], ids[1::2])), ids[-1] if m % 2 else None)
    rule = rng.choice(
        [plurality(), borda(), veto(), Copeland(), Copeland2(), Runoff(), Stv(),
         Cup(agenda), Hybrid(pairing)]
    )
    target = rng.randrange(m)
    pref = ManipulationInstance(rule, target, full)
    # the split builds every completion, so it gets no unknown pool
    split = ManipulationInstance(
        rule, target, Profile(cands(m), votes + tuple(partials), strict_odd=False)
    )
    coalition = frozenset(rng.sample(range(len(votes)), rng.randint(1, len(votes))))
    complete = Profile(cands(m), votes, strict_odd=False)
    favor = TieBreak.favor(target)

    def scenario():
        # a distribution keeps the winners it decides, so each call gets a new one
        return ScenarioDistribution(((complete, Fraction(1)),))

    query = EvaluationQuery(complete.candidates[target], Fraction(0), rule, favor)
    coal = ManipulationInstance(rule, target, complete, coalition)
    agents = []
    for _ in range(rng.randint(1, 3)):
        orders = list({H.rand_order(rng, m) for _ in range(rng.randint(1, 3))})
        agents.append((rng.randint(1, 3), [(o, Fraction(1, len(orders))) for o in orders]))
    # the three-candidate cup shortcut spends cap only on torn ballots, such
    # as one committing a single pair
    torn = [PartialBallot(frozenset({tuple(rng.sample(range(3), 2))}), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))]
    three = Profile(cands(3), (*torn, vote(H.rand_order(rng, 3))), unknown, strict_odd=False)
    agenda3 = H.rand_agenda(rng, range(3))
    ballot = partials[0] if partials else PartialBallot(frozenset(), 1)
    sp_axis = axis if on_axis else None
    return {
        "achievable_winners": lambda cap: achievable_winners(rule, complete, cap=cap),
        "winner": lambda cap: winner(rule, complete, favor, cap=cap),
        "evaluate": lambda cap: evaluate(scenario(), query, cap=cap),
        "win_probability": lambda cap: win_probability(
            scenario(), rule, target, favor, cap=cap
        ),
        "possible_winners": lambda cap: possible_winners(rule, full, cap=cap),
        "fine_elicitation_over": lambda cap: fine_elicitation_over(rule, full, cap=cap),
        "coarse_elicitation_over": lambda cap: coarse_elicitation_over(rule, cast, cap=cap),
        "fine_sp_elicitation_over": lambda cap: fine_sp_elicitation_over(
            rule, full, axis, cap=cap
        ),
        "cup3_fine_over": lambda cap: cup3_fine_over(agenda3, three, cap=cap),
        "hybrid_coarse_over": lambda cap: hybrid_coarse_over(pairing, cast, cap=cap),
        "preference_manipulate": lambda cap: preference_manipulate(pref, cap=cap),
        "coalition_manipulate": lambda cap: coalition_manipulate(coal, cap=cap),
        "reduction_from_preference_manipulation": lambda cap: read_reduction(split, cap),
        "product_distribution": lambda cap: product_distribution(
            cands(m), agents, strict_odd=False, cap=cap
        ),
        "completion_groups": lambda cap: completion_groups(full, axis=sp_axis, cap=cap),
        "linear_extensions": lambda cap: list(linear_extensions(ballot, m, cap, sp_axis)),
        "single_peaked_orders": lambda cap: list(single_peaked_orders(axis, cap)),
    }


def test_every_capped_entry_point_answers_exactly_or_refuses():
    rng = random.Random(20261018)
    kinds: dict[str, set[str]] = {}
    for _ in range(CASES):
        for name, call in rand_case(rng).items():
            expected = outcome(call, None)
            assert expected[0] != "capped", name
            answered = False
            for cap in CAPS:
                got = outcome(call, cap)
                kinds.setdefault(name, set()).add(got[0])
                if got[0] == "capped":
                    assert not answered, (name, cap)
                else:
                    answered = True
                    assert got == expected, (name, cap)
    # every entry point was seen both answering under a cap and refusing
    for name, seen in kinds.items():
        assert {"answer", "capped"} <= seen, (name, seen)


def test_winner_and_achievable_winners_lift_the_cap_on_a_hybrid_round():
    # the two mirrored votes tie every pair, so all 16 survivor sets count
    profile = Profile(
        cands(8), (vote(range(8)), vote(range(7, -1, -1))), strict_odd=False
    )
    rule = Hybrid(Pairing(((0, 1), (2, 3), (4, 5), (6, 7)), None))
    favor_h = TieBreak.favor(7)
    for call in (
        lambda cap: achievable_winners(rule, profile, cap=cap),
        lambda cap: winner(rule, profile, favor_h, cap=cap),
    ):
        with pytest.raises(CapExceeded) as info:
            call(15)
        assert info.value.estimate == 16
    for cap in (16, None):
        found = achievable_winners(rule, profile, cap=cap)
        assert {c.label for c in found} == {"A", "B", "G", "H"}
        assert winner(rule, profile, favor_h, cap=cap).label == "H"


def test_evaluate_and_win_probability_lift_the_cap_on_a_hybrid_round():
    profile = Profile(
        cands(8), (vote(range(8)), vote(range(7, -1, -1))), strict_odd=False
    )
    rule = Hybrid(Pairing(((0, 1), (2, 3), (4, 5), (6, 7)), None))
    favor_h = TieBreak.favor(7)
    dist = ScenarioDistribution(((profile, Fraction(1)),))
    query = EvaluationQuery(profile.candidates[7], Fraction(0), rule, favor_h)
    for call in (
        lambda cap: evaluate(dist, query, cap=cap),
        lambda cap: win_probability(dist, rule, 7, favor_h, cap=cap),
    ):
        with pytest.raises(CapExceeded) as info:
            call(15)
        assert info.value.estimate == 16
    # the refused scans left the column valid; this one resumes and fills it
    assert win_probability(dist, rule, 7, favor_h, cap=16) == 1
    # a decided winner is read back whatever the cap
    assert evaluate(dist, query, cap=0)


def test_cli_evaluate_takes_cap(tmp_path, capsys):
    path = tmp_path / "dist.txt"
    path.write_text("candidates: A B C D E F G H\nscenario p=1\n"
                    "vote w=1 A>B>C>D>E>F>G>H\nvote w=1 H>G>F>E>D>C>B>A\n")
    argv = ["evaluate", str(path), "--no-strict-odd", "--rule",
            "hybrid:(A,B)(C,D)(E,F)(G,H)", "--target", "H", "--r", "0",
            "--tb", "favor:H", "--cap"]
    assert main(argv + ["15"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert main(argv + ["16"]) == 0
    assert capsys.readouterr().out == "answer: true\nprobability: 1\n"


def test_cli_winner_takes_cap(tmp_path, capsys):
    path = tmp_path / "profile.txt"
    path.write_text("candidates: A B C D E F G H\nvote w=1 A>B>C>D>E>F>G>H\n"
                    "vote w=1 H>G>F>E>D>C>B>A\n")
    argv = ["winner", str(path), "--no-strict-odd", "--rule",
            "hybrid:(A,B)(C,D)(E,F)(G,H)", "--tb", "favor:H", "--cap"]
    assert main(argv + ["15"]) == 3
    assert capsys.readouterr().out == ""
    assert main(argv + ["16"]) == 0
    assert capsys.readouterr().out == "winner: H\n"


def test_only_the_one_cap_check_raises_cap_exceeded():
    src = Path(__file__).resolve().parent.parent / "src" / "votelab"
    for path in src.glob("*.py"):
        text = path.read_text()
        if path.name != "errors.py":
            assert "raise CapExceeded" not in text, path.name
            assert "cap is not None and" not in text, path.name
