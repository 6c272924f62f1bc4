"""The three seeded workloads: inputs, queries and their reference answers.

Each workload is built in two steps.  ``build_<name>(V, H, rng, tiny)`` makes
the inputs from the seed; it is the timed set-up.  ``queries_<name>(V, H,
inputs)`` then computes every reference answer (untimed) and returns the
queries as units: a unit is a tuple of queries that run back to back, in
order (a threshold-eval bag is reduce, evaluate, win_probability).

A query's ``call`` makes exactly one call into votelab, looked up through
the module at call time so that a traced run sees the wrapped functions.
Its ``check`` is evaluated after the timed loop, outside any timing.

``V`` is the ``votelab`` package and ``H`` the test suite's ``helpers``
module (random generators and brute-force referees).
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

from . import referee as R

LABELS = "ABCDEFGH"


@dataclass
class Query:
    qid: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _equals(expected):
    return lambda got: got == expected


def even_bags(max_n: int, max_v: int):
    for n in range(1, max_n + 1):
        for combo in combinations_with_replacement(range(1, max_v + 1), n):
            if sum(combo) % 2 == 0:
                yield combo


def random_bag(rng, n: int, max_v: int) -> tuple[int, ...]:
    while True:
        bag = tuple(sorted(rng.randint(1, max_v) for _ in range(n)))
        if sum(bag) % 2 == 0:
            return bag


def stratified_bags(rng, count: int, max_n: int, max_v: int):
    """Random even bags, sizes cycling 1..max_n so every seed has the same mix."""
    return [random_bag(rng, 1 + i % max_n, max_v) for i in range(count)]


def bag_sweep(rng, tiny: bool):
    """Every even bag with n <= 5 and values <= 6, plus seeded random bags.

    Random sizes stop at 7: one n = 8 bag takes up to 0.8 s, so two of them
    swing a pass by about 10% from seed to seed.
    """
    if tiny:
        return list(even_bags(3, 4)) + stratified_bags(rng, 4, 6, 12)
    return list(even_bags(5, 6)) + stratified_bags(rng, 14, 7, 12)


# ---------------------------------------------------------------------------
# search-mix


RANDOM_PROFILE_LIMIT = 600  # raw completions per profile, brute-force referee budget


def _rule_set(V, H, rng, m):
    agenda = H.rand_agenda(rng, range(m))
    return [
        ("plurality", V.plurality()),
        ("veto", V.veto()),
        ("borda", V.borda()),
        ("copeland", V.Copeland()),
        ("copeland2", V.Copeland2()),
        ("runoff", V.Runoff()),
        ("stv", V.Stv()),
        ("cup", V.Cup(agenda)),
    ]


def _random_profile(V, H, rng, model: str):
    """One profile under the preference or coalition model, within the limit.

    Preference model: votes, partial ballots with locked pairs and 0-3
    unknown units.  Coalition model: votes and unlocked partial ballots; the
    coalition is every partial ballot, so all other ballots are votes.
    """
    while True:
        m = rng.choice((4, 5))
        vote_w = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
        if model == "prefs":
            partial_w = [rng.randint(1, 40) for _ in range(rng.randint(1, 3))]
            unknown = rng.randint(0, 3)
        else:
            partial_w = [rng.randint(1, 40) for _ in range(rng.randint(1, 2))]
            unknown = 0
        if (sum(vote_w) + sum(partial_w) + unknown) % 2 == 0:
            vote_w[0] += 1 if vote_w[0] < 40 else -1
        ballots = [H.vote(H.rand_order(rng, m), w) for w in vote_w]
        ballots += [H.rand_partial(rng, m, w, lock=model == "prefs") for w in partial_w]
        rng.shuffle(ballots)
        profile = V.Profile(H.cands(m), tuple(ballots), unknown_weight=unknown)
        if H.completion_count(profile) > RANDOM_PROFILE_LIMIT:
            continue
        if model == "prefs":
            locked_view = V.Profile(
                profile.candidates,
                tuple(
                    b.locked_only() if isinstance(b, V.PartialBallot) else b
                    for b in ballots
                ),
                unknown_weight=unknown,
            )
            if H.completion_count(locked_view) > RANDOM_PROFILE_LIMIT:
                continue
            return profile, None
        coalition = frozenset(
            i for i, b in enumerate(ballots) if isinstance(b, V.PartialBallot)
        )
        if math.factorial(m) ** len(coalition) > RANDOM_PROFILE_LIMIT:
            continue
        return profile, coalition


def build_search_mix(V, H, rng, tiny: bool):
    bags = []
    for bag in bag_sweep(rng, tiny):
        p = V.PartitionInstance(bag)
        cup, agenda = V.gen_cup_elicitation(p)
        cup_bal, agenda_bal = V.gen_cup_elicitation(p, balanced=True)
        stv, axis = V.gen_stv_sp_elicitation(p)
        bags.append(
            {
                "bag": bag,
                "cup": (V.Cup(agenda), cup),
                "cup_balanced": (V.Cup(agenda_bal), cup_bal),
                "stv_sp": (stv, axis),
                "cup_manip": V.gen_cup_preference_manipulation(p),
                "copeland_manip": V.gen_copeland_preference_manipulation(p),
            }
        )
    profiles = []
    for i in range(6 if tiny else 60):
        model = "prefs" if i % 2 == 0 else "coalition"
        profile, coalition = _random_profile(V, H, rng, model)
        rules = _rule_set(V, H, rng, profile.m)
        profiles.append(
            {
                "profile": profile,
                "coalition": coalition,
                "rules": rules,
                "fine_rule": rng.randrange(len(rules)),
                "manip_rule": rng.randrange(len(rules)),
                "target": rng.randrange(profile.m),
            }
        )
    return {"bags": bags, "profiles": profiles}


def queries_search_mix(V, H, inputs):
    units = []
    for case in inputs["bags"]:
        bag = case["bag"]
        tag = "bag=" + ",".join(map(str, bag))
        split = V.has_equal_partition_dp(bag)
        (cup_rule, cup), (bal_rule, bal) = case["cup"], case["cup_balanced"]
        stv, axis = case["stv_sp"]
        cup_manip, copeland_manip = case["cup_manip"], case["copeland_manip"]
        not_split = _equals(not split)
        units += [
            (Query(f"cup-elicit {tag}",
                   lambda r=cup_rule, p=cup: V.fine_elicitation_over(r, p), not_split),),
            (Query(f"cup-elicit-balanced {tag}",
                   lambda r=bal_rule, p=bal: V.fine_elicitation_over(r, p), not_split),),
            (Query(f"stv-sp-elicit {tag}",
                   lambda p=stv, a=axis: V.fine_sp_elicitation_over(V.Stv(), p, a),
                   not_split),),
            (Query(f"cup-manip {tag}",
                   lambda i=cup_manip: V.preference_manipulate(i) is not None,
                   _equals(split)),),
            (Query(f"copeland-manip {tag}",
                   lambda i=copeland_manip: V.preference_manipulate(i) is not None,
                   _equals(split)),),
        ]
    for n, case in enumerate(inputs["profiles"]):
        profile, rules = case["profile"], case["rules"]
        found = {name: H.brute_possible(rule, profile) for name, rule in rules}
        for name, rule in rules:
            units.append((Query(
                f"possible-winners profile={n} rule={name}",
                lambda r=rule, p=profile: V.possible_winners(r, p),
                _equals(found[name]),
            ),))
        name, rule = rules[case["fine_rule"]]
        units.append((Query(
            f"fine-over profile={n} rule={name}",
            lambda r=rule, p=profile: V.fine_elicitation_over(r, p),
            _equals(len(found[name]) == 1),
        ),))
        name, rule = rules[case["manip_rule"]]
        target, coalition = case["target"], case["coalition"]
        if coalition is None:
            inst = V.ManipulationInstance(rule, target, profile)
            expected = H.brute_preference_possible(rule, profile, target)
            call = lambda i=inst: V.preference_manipulate(i) is not None
            kind = "manipulate-prefs"
        else:
            inst = V.ManipulationInstance(rule, target, profile, coalition)
            expected = H.brute_coalition_possible(rule, profile, coalition, target)
            call = lambda i=inst: V.coalition_manipulate(i) is not None
            kind = "manipulate-coalition"
        units.append((Query(
            f"{kind} profile={n} rule={name} target={target}", call, _equals(expected)
        ),))
    return units


# ---------------------------------------------------------------------------
# threshold-eval


def build_threshold_eval(V, H, rng, tiny: bool):
    if tiny:
        bags = list(even_bags(3, 4)) + stratified_bags(rng, 4, 5, 12)
    else:
        bags = list(even_bags(5, 6)) + stratified_bags(rng, 30, 6, 12)
    return [
        (bag, V.gen_cup_preference_manipulation(V.PartitionInstance(bag)))
        for bag in bags
    ]


def scenario_count(bag) -> int:
    """Merged completions of the cup manipulation instance: each bag value's
    ballots pick a multiset of the 3 orders that keep A above C."""
    return math.prod(math.comb(c + 2, 2) for c in Counter(bag).values())


def queries_threshold_eval(V, H, inputs):
    units = []
    for bag, inst in inputs:
        tag = "bag=" + ",".join(map(str, bag))
        split = V.has_equal_partition_dp(bag)
        box = {}

        def reduce(i=inst, box=box):
            box["reduction"] = V.reduction_from_preference_manipulation(i)
            return len(box["reduction"][0].scenarios)

        def evaluate(box=box):
            return V.evaluate(*box["reduction"])

        def probability(box=box):
            dist, query = box.pop("reduction")
            return V.win_probability(dist, query.rule, query.target, query.tb)

        units.append((
            Query(f"reduce {tag}", reduce, _equals(scenario_count(bag))),
            Query(f"evaluate {tag}", evaluate, _equals(split)),
            Query(f"win-probability {tag}", probability,
                  lambda got, split=split: (got > 0) == split),
        ))
    return units


# ---------------------------------------------------------------------------
# cli-bulk


def _agenda_text(node) -> str:
    if isinstance(node, int):
        return LABELS[node]
    return f"({_agenda_text(node[0])},{_agenda_text(node[1])})"


def _order_text(order) -> str:
    return ">".join(LABELS[c] for c in order)


def _profile_text(m, votes, extra_lines=(), axis=None) -> str:
    lines = ["candidates: " + " ".join(LABELS[:m])]
    lines += [f"vote w={w} {_order_text(o)}" for o, w in votes]
    lines += list(extra_lines)
    if axis is not None:
        lines.append("axis: " + " ".join(LABELS[c] for c in axis))
    return "\n".join(lines) + "\n"


def _mirrored_votes(rng, lines, draw, mirror):
    """Vote pairs that cancel pairwise (``mirror`` of a ``draw``): near ties."""
    votes = []
    for _ in range(lines // 2):
        order, w = draw(), rng.randint(1, 3)
        votes += [(order, w), (mirror(order), w)]
    return votes


def _odd_total(votes, extra_weight: int):
    if (sum(w for _, w in votes) + extra_weight) % 2 == 0:
        order, w = votes[-1]
        votes[-1] = (order, w + 1)
    return votes


def _random_pairing(rng, m):
    """A hybrid rule as (spec text, (pairs, bye))."""
    ids = rng.sample(range(m), m)
    pairs = tuple((ids[i], ids[i + 1]) for i in range(0, m - 1, 2))
    spec = "hybrid:" + "".join(f"({LABELS[a]},{LABELS[b]})" for a, b in pairs)
    return spec, (pairs, ids[-1] if m % 2 else None)


def _random_rules(H, rng, m):
    """Every rule family the CLI parses, as (spec text, reference rule)."""
    agenda = H.rand_agenda(rng, range(m))
    hybrid, pairing = _random_pairing(rng, m)
    cuts = sorted(rng.randint(0, 5) for _ in range(m))[::-1]
    if cuts[0] == cuts[-1]:
        cuts[0] += 1
    rules = [
        ("plurality", ("scoring", (1,) + (0,) * (m - 1))),
        ("veto", ("scoring", (1,) * (m - 1) + (0,))),
        ("borda", ("scoring", tuple(range(m - 1, -1, -1)))),
        ("scoring:" + ",".join(map(str, cuts)), ("scoring", tuple(cuts))),
        ("copeland", ("copeland", None)),
        ("copeland2", ("copeland2", None)),
        ("runoff", ("runoff", None)),
        ("cup:" + _agenda_text(agenda), ("cup", agenda)),
        (hybrid, ("hybrid", pairing)),
    ]
    if m <= 6:  # STV branches every elimination tie only up to 6 candidates
        rules.append(("stv", ("stv", None)))
    return rules


def _tie_breaks(rng, m):
    return [
        ("lex", ("lex",)),
        *((f"{kind}:{LABELS[c]}", (kind, c))
          for kind, c in (("favor", rng.randrange(m)), ("against", rng.randrange(m)))),
    ]


def _partial_line(V, H, rng, m, weight, axis=None) -> tuple[str, object]:
    if axis is None:
        ballot = H.rand_partial(rng, m, weight)
    else:
        ballot = H.rand_sp_partial(rng, m, V.Axis(axis), weight)
    line = f"partial w={weight}"
    if ballot.pairs:
        line += " pairs=" + ",".join(
            f"{LABELS[a]}>{LABELS[b]}" for a, b in sorted(ballot.pairs)
        )
    return line, ballot


def build_cli_bulk(V, H, rng, tiny: bool):
    lines = 200 if tiny else 2000
    cases = []
    for i in range(1 if tiny else 3):
        m = 6 + i % 3
        votes = _odd_total([(tuple(rng.sample(range(m), m)), rng.randint(1, 40))
                            for _ in range(lines)], 0)
        rules = _random_rules(H, rng, m)
        cases.append({
            "kind": "complete", "m": m, "votes": votes, "rules": rules,
            "tie_breaks": _tie_breaks(rng, m),
            "possible_rule": rng.randrange(len(rules)),
            "text": _profile_text(m, votes),
        })
    for i in range(2 if tiny else 6):
        # fine-over on a 3-candidate cup: near-tied votes, partial ballots, unknown units
        m = 3
        partials = [_partial_line(V, H, rng, m, rng.randint(1, 60)) for _ in range(rng.randint(1, 2))]
        unknown = rng.randint(0, 2)
        votes = _mirrored_votes(rng, lines, lambda: tuple(rng.sample(range(m), m)),
                                lambda o: o[::-1])
        votes = _odd_total(votes, unknown + sum(b.weight for _, b in partials))
        agenda = H.rand_agenda(rng, range(m))
        extra = [line for line, _ in partials] + ([f"unknown w={unknown}"] if unknown else [])
        cases.append({
            "kind": "fine-over", "m": m, "votes": votes, "partials": [b for _, b in partials],
            "unknown": unknown, "agenda": agenda, "axis": None,
            "text": _profile_text(m, votes, extra),
        })
    for i in range(2 if tiny else 6):
        # fine-sp-over with a cup: single-peaked votes mirrored across the axis
        m = rng.choice((4, 5))
        axis = tuple(rng.sample(range(m), m))
        sp_orders = sorted(V.single_peaked_orders(V.Axis(axis)))
        position = {c: k for k, c in enumerate(axis)}
        partials = [_partial_line(V, H, rng, m, rng.randint(1, 60), axis)
                    for _ in range(rng.randint(1, 2))]
        unknown = rng.randint(0, 1)
        votes = _mirrored_votes(
            rng, lines, lambda: rng.choice(sp_orders),
            lambda o: tuple(axis[m - 1 - position[c]] for c in o),
        )
        votes = _odd_total(votes, unknown + sum(b.weight for _, b in partials))
        agenda = H.rand_agenda(rng, range(m))
        extra = [line for line, _ in partials] + ([f"unknown w={unknown}"] if unknown else [])
        cases.append({
            "kind": "fine-sp-over", "m": m, "votes": votes,
            "partials": [b for _, b in partials], "unknown": unknown, "agenda": agenda,
            "axis": axis, "text": _profile_text(m, votes, extra, axis),
        })
    for i in range(2 if tiny else 6):
        # coarse-over with a hybrid rule: near-tied votes plus unknown units
        m = 4
        unknown = rng.randint(1, 2)
        votes = _mirrored_votes(rng, lines, lambda: tuple(rng.sample(range(m), m)),
                                lambda o: o[::-1])
        votes = _odd_total(votes, unknown)
        spec, pairing = _random_pairing(rng, m)
        cases.append({
            "kind": "coarse-over", "m": m, "votes": votes, "partials": [],
            "unknown": unknown, "spec": spec, "pairing": pairing, "axis": None,
            "text": _profile_text(m, votes, [f"unknown w={unknown}"]),
        })
    for i in range(2 if tiny else 8):
        # evaluate over a few hundred three-ballot scenarios with one total weight
        m, total = 4, 2 * rng.randint(10, 40) + 1
        scenarios = []
        for _ in range(30 if tiny else 300):
            cut = sorted(rng.sample(range(1, total), 2))
            weights = (cut[0], cut[1] - cut[0], total - cut[1])
            orders = tuple(tuple(rng.sample(range(m), m)) for _ in weights)
            scenarios.append((orders, weights, rng.randint(1, 9)))
        mass = sum(p for _, _, p in scenarios)
        rules = _random_rules(H, rng, m)
        spec, rule = rules[rng.randrange(len(rules))]
        tb_text, tb = _tie_breaks(rng, m)[rng.randrange(3)]
        text = ["candidates: " + " ".join(LABELS[:m])]
        for orders, weights, p in scenarios:
            text.append(f"scenario p={Fraction(p, mass)}")
            text += [f"vote w={w} {_order_text(o)}" for o, w in zip(orders, weights)]
        cases.append({
            "kind": "evaluate", "m": m, "scenarios": scenarios, "mass": mass,
            "spec": spec, "rule": rule, "tb_text": tb_text, "tb": tb,
            "target": rng.randrange(m), "r": Fraction(rng.randint(0, 4), 4),
            "text": "\n".join(text) + "\n",
        })
    for i in range(4 if tiny else 24):
        kind = V.REDUCTION_KINDS[i % 4]
        bag = random_bag(rng, 1 + i % 6, 12)
        balanced = kind == "cup-elicit" and rng.random() < 0.5
        cases.append({"kind": "gen-reduction", "reduction": kind, "bag": bag,
                      "balanced": balanced})
    return cases


def run_cli(V, argv, stdin_text=None):
    """One in-process ``votelab.cli.main`` call: (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = V.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _merged(V, case):
    """The case as a small equivalent profile: identical votes summed."""
    tally = Counter()
    for order, w in case["votes"]:
        tally[order] += w
    ballots = [V.WeightedBallot(o, w) for o, w in sorted(tally.items())]
    ballots += case["partials"]
    cands = V.candidates_from_labels(LABELS[: case["m"]])
    return V.Profile(cands, tuple(ballots), unknown_weight=case["unknown"])


def _answer(value: bool) -> str:
    return "answer: true\n" if value else "answer: false\n"


def _gen_reduction_check(V, case):
    kind, bag = case["reduction"], case["bag"]
    p = V.PartitionInstance(bag)
    axis = None
    header = [f"# kind: {kind}", "# bag: " + " ".join(map(str, p.numbers))]
    if kind == "cup-elicit":
        profile, agenda = V.gen_cup_elicitation(p, balanced=case["balanced"])
        header.append("# rule: cup:" + _agenda_text(agenda))
    elif kind == "stv-sp-elicit":
        profile, axis = V.gen_stv_sp_elicitation(p)
        header.append("# rule: stv")
    else:
        gen = (V.gen_cup_preference_manipulation if kind == "cup-manip"
               else V.gen_copeland_preference_manipulation)
        inst = gen(p)
        profile = inst.profile
        rule = "copeland" if kind == "copeland-manip" else "cup:" + _agenda_text(inst.rule.agenda)
        header += [f"# rule: {rule}", f"# target: {LABELS[inst.target.id]}"]
        if kind == "copeland-manip":
            header.append("# note: even total; parse with --no-strict-odd")

    def check(got):
        code, out = got
        if code != 0 or [l for l in out.splitlines() if l.startswith("#")] != header:
            return False
        return V.parse_profile(out, strict_odd=profile.strict_odd) == (profile, axis)

    return check


def queries_cli_bulk(V, H, inputs):
    units = []
    for n, case in enumerate(inputs):
        kind, text = case["kind"], case.get("text")
        tag = f"{kind} case={n}"

        def q(qid, argv, expected_out, text=text):
            units.append((Query(qid, lambda: run_cli(V, argv, text),
                                _equals((0, expected_out))),))

        if kind == "complete":
            m, votes = case["m"], case["votes"]
            orders, weights = zip(*votes)
            counts = H.counts_of(orders, weights, m)
            for spec, rule in case["rules"]:
                for tb_text, tb in case["tie_breaks"]:
                    w = R.winner(rule, orders, weights, m, counts, tb)
                    q(f"winner {tag} rule={spec} tb={tb_text}",
                      ["winner", "-", "--rule", spec, "--tb", tb_text],
                      f"winner: {LABELS[w]}\n")
            cw = R.condorcet(counts, sum(weights), m)
            q(f"condorcet-fixed {tag}", ["condorcet-fixed", "-"],
              "answer: false\n" if cw is None else f"answer: true\nwinner: {LABELS[cw]}\n")
            spec, rule = case["rules"][case["possible_rule"]]
            found, _ = R.winners(rule, orders, weights, m, counts)
            q(f"possible-winners {tag} rule={spec}",
              ["possible-winners", "-", "--rule", spec],
              "possible: " + " ".join(LABELS[c] for c in sorted(found)) + "\n")
        elif kind in ("fine-over", "fine-sp-over"):
            merged = _merged(V, case)
            axis = None if case["axis"] is None else V.Axis(case["axis"])
            over = H.brute_fine_over(V.Cup(case["agenda"]), merged, axis=axis)
            q(tag, [kind, "-", "--rule", "cup:" + _agenda_text(case["agenda"])],
              _answer(over))
        elif kind == "coarse-over":
            pairs, bye = case["pairing"]
            over = H.brute_fine_over(V.Hybrid(V.Pairing(pairs, bye)), _merged(V, case))
            q(tag, ["coarse-over", "-", "--rule", case["spec"]], _answer(over))
        elif kind == "evaluate":
            m, target = case["m"], case["target"]
            wins = sum(
                Fraction(p, case["mass"])
                for orders, weights, p in case["scenarios"]
                if R.winner(case["rule"], orders, weights, m,
                            H.counts_of(orders, weights, m), case["tb"]) == target
            )
            q(f"{tag} rule={case['spec']} tb={case['tb_text']}",
              ["evaluate", "-", "--rule", case["spec"], "--target", LABELS[target],
               "--r", str(case["r"]), "--tb", case["tb_text"]],
              _answer(wins > case["r"]) + f"probability: {wins}\n")
        else:
            argv = ["gen-reduction", "--kind", case["reduction"],
                    "--bag", ",".join(map(str, case["bag"]))]
            if case["balanced"]:
                argv.append("--balanced")
            units.append((Query(
                f"{tag} kind={case['reduction']} bag={argv[4]}",
                lambda argv=argv: run_cli(V, argv),
                _gen_reduction_check(V, case),
            ),))
    return units


WORKLOADS = {
    "search-mix": (build_search_mix, queries_search_mix),
    "threshold-eval": (build_threshold_eval, queries_threshold_eval),
    "cli-bulk": (build_cli_bulk, queries_cli_bulk),
}
