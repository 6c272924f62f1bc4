"""Brute-force referees and random generators shared by the test suite.

The referees recompute answers from first principles.  Completions are
enumerated one ballot at a time with no merging, projection, or pruning,
and each completed election is scored by replaying the rule.  They are
deliberately slow and must only be fed small inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Callable, Collection, Iterator, Sequence

from votelab import (
    REDUCTION_KINDS,
    Axis,
    Candidate,
    CapExceeded,
    Copeland,
    Copeland2,
    Cup,
    Hybrid,
    InvalidProfile,
    ManipulationInstance,
    Pairing,
    PartialBallot,
    PartitionInstance,
    Profile,
    Rule,
    Runoff,
    ScenarioDistribution,
    Stv,
    TieBreak,
    VotelabError,
    WeightedBallot,
    achievable_winners,
    borda,
    candidates_from_labels,
    coalition_manipulate,
    evaluate,
    format_distribution,
    format_profile,
    format_rule,
    is_single_peaked,
    linear_extensions,
    plurality,
    preference_manipulate,
    reduction_from_preference_manipulation,
    single_peaked_orders,
    veto,
    win_probability,
    winner,
)
from votelab.constructions import reduction_instance
from votelab.errors import charge
from votelab.profiles import _placement_masks, pairwise_counts

Order = tuple[int, ...]

LABELS = "ABCDEFGHIJKL"


def cands(m: int) -> tuple[Candidate, ...]:
    return candidates_from_labels(LABELS[:m])


def vote(order: Sequence[int], weight: int = 1) -> WeightedBallot:
    return WeightedBallot(tuple(order), weight)


def counts_of(orders: Sequence[Order], weights: Sequence[int], m: int) -> list[list[int]]:
    """Pairwise preference counts, computed directly from the orders."""
    counts = [[0] * m for _ in range(m)]
    for order, w in zip(orders, weights):
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                counts[a][b] += w
    return counts


def raw_arrays(profile: Profile) -> tuple[tuple[Order, ...], tuple[int, ...]]:
    """(orders, weights) of a complete profile, one entry per ballot, unmerged."""
    assert profile.is_complete
    return (
        tuple(b.order for b in profile.ballots),
        tuple(b.weight for b in profile.ballots),
    )


def slot_aggregates(profile: Profile):
    """(total_weight, is_complete, fixed_arrays, committed pairwise weight) of
    a profile, computed one ballot slot at a time with no run or identity
    shortcut.  The committed weight is ``majority_matrix(profile).fixed``."""
    m = profile.m
    total = profile.unknown_weight
    complete = profile.unknown_weight == 0
    merged: dict[Order, int] = {}
    fixed = [[0] * m for _ in range(m)]
    for ballot in profile.ballots:
        total += ballot.weight
        if isinstance(ballot, WeightedBallot):
            merged[ballot.order] = merged.get(ballot.order, 0) + ballot.weight
            pairs = ballot.pairs()
        else:
            complete = False
            pairs = ballot.pairs
        for a, b in pairs:
            fixed[a][b] += ballot.weight
    arrays = (tuple(merged), tuple(merged.values()))
    return total, complete, arrays, tuple(map(tuple, fixed))


def slot_unit_split(
    candidates: tuple[Candidate, ...],
    orders: Sequence[Order],
    weights: Sequence[int],
    strict_odd: bool,
    cache: dict[Order, WeightedBallot],
) -> Profile:
    """Each weight-k order cast as k slots of one shared unit ballot, the
    slot tuple handed to the public constructor."""
    slots: list[WeightedBallot] = []
    for order, weight in zip(orders, weights):
        if order not in cache:
            cache[order] = WeightedBallot(order, 1)
        slots += [cache[order]] * weight
    return Profile(candidates, tuple(slots), strict_odd=strict_odd)


def check_run_built(built: Profile, reference: Profile) -> None:
    """Referee for a profile built by a unit split (``evaluation._unit_split``).

    It must equal ``reference``, built by the public constructor from the
    slot tuple, slot for slot and in every aggregate.
    """
    assert built == reference and hash(built) == hash(reference)
    assert built.fixed_arrays == reference.fixed_arrays
    assert built.total_weight == reference.total_weight
    assert built.is_complete == reference.is_complete
    if built.is_complete:
        as_text = [
            format_distribution(ScenarioDistribution(((p, Fraction(1)),)))
            for p in (built, reference)
        ]
        assert as_text[0] == as_text[1]


def profile_or_message(build) -> Profile | str:
    """The profile ``build()`` returns, or the message of its InvalidProfile."""
    try:
        return build()
    except InvalidProfile as exc:
        return str(exc)


def condorcet_of(completion: Profile) -> int | None:
    """Candidate id beating every rival by strict majority, or None."""
    orders, weights = completion.complete_arrays()
    m = completion.m
    total = completion.total_weight
    counts = counts_of(orders, weights, m)
    for c in range(m):
        if all(2 * counts[c][j] > total for j in range(m) if j != c):
            return c
    return None


# ---------------------------------------------------------------------------
# Completion enumeration, one slot per ballot and per unknown unit


def _slot_options(
    profile: Profile, axis: Axis | None, locked_only: bool
) -> list[tuple[int, list[Order]]]:
    m = profile.m
    slots: list[tuple[int, list[Order]]] = []
    for ballot in profile.ballots:
        if isinstance(ballot, WeightedBallot):
            if axis is not None and not is_single_peaked(ballot.order, axis):
                raise ValueError(f"complete ballot {ballot.order} violates the axis")
            slots.append((ballot.weight, [ballot.order]))
            continue
        source = ballot.locked_only() if locked_only else ballot
        if axis is None:
            options = list(linear_extensions(source, m, cap=None))
        else:
            options = [
                order
                for order in linear_extensions(source, m, cap=None)
                if is_single_peaked(order, axis)
            ]
        slots.append((ballot.weight, options))
    if axis is None:
        pool = sorted(permutations(range(m)))
    else:
        pool = sorted(single_peaked_orders(axis))
    for _ in range(profile.unknown_weight):
        slots.append((1, list(pool)))
    return slots


def iter_completions(
    profile: Profile, *, axis: Axis | None = None, locked_only: bool = False
) -> Iterator[Profile]:
    """Every joint completion as a complete profile, no deduplication."""
    slots = _slot_options(profile, axis, locked_only)
    for choice in product(*(options for _, options in slots)):
        ballots = tuple(
            WeightedBallot(order, weight)
            for (weight, _), order in zip(slots, choice)
        )
        yield Profile(
            candidates=profile.candidates,
            ballots=ballots,
            strict_odd=profile.strict_odd,
        )


def completion_count(
    profile: Profile, *, axis: Axis | None = None, locked_only: bool = False
) -> int:
    size = 1
    for _, options in _slot_options(profile, axis, locked_only):
        size *= len(options)
    return size


# ---------------------------------------------------------------------------
# Referees


def brute_possible(
    rule: Rule, profile: Profile, *, axis: Axis | None = None
) -> frozenset[Candidate]:
    found: set[Candidate] = set()
    for completion in iter_completions(profile, axis=axis):
        found |= achievable_winners(rule, completion)
    return frozenset(found)


def brute_fine_over(rule: Rule, profile: Profile, *, axis: Axis | None = None) -> bool:
    seen: set[Candidate] = set()
    for completion in iter_completions(profile, axis=axis):
        seen |= achievable_winners(rule, completion)
        if len(seen) > 1:
            return False
    return len(seen) == 1


def brute_condorcet_classify(profile: Profile) -> tuple[str, int | None]:
    """("true", winner id), ("false", None) or ("not-determined", None)."""
    outcomes: set[int | None] = set()
    for completion in iter_completions(profile):
        outcomes.add(condorcet_of(completion))
        if len(outcomes) > 1:
            return ("not-determined", None)
    (only,) = outcomes
    return ("false", None) if only is None else ("true", only)


def cast_ballots(profile: Profile) -> list:
    """The ballots with every total partial ballot read as its order."""
    m = profile.m
    return [
        WeightedBallot(b.to_order(m), b.weight)
        if isinstance(b, PartialBallot) and b.is_total(m)
        else b
        for b in profile.ballots
    ]


def brute_coalition_possible(
    rule: Rule, profile: Profile, coalition: Sequence[int], target: int
) -> bool:
    """Can the coalition elect the target under ties in its favour?

    Ballots outside the coalition must be total; a partial one is read as
    its order.
    """
    m = profile.m
    indices = sorted(coalition)
    perms = sorted(permutations(range(m)))
    tb = TieBreak.favor(target)
    for combo in product(perms, repeat=len(indices)):
        ballots = cast_ballots(profile)
        for idx, order in zip(indices, combo):
            ballots[idx] = WeightedBallot(order, profile.ballots[idx].weight)
        trial = Profile(
            candidates=profile.candidates,
            ballots=tuple(ballots),
            strict_odd=profile.strict_odd,
        )
        if winner(rule, trial, tb).id == target:
            return True
    return False


def brute_condorcet_coalition_possible(
    profile: Profile, coalition: Sequence[int], target: int
) -> bool:
    """Can the coalition make the target the Condorcet winner?"""
    m = profile.m
    indices = sorted(coalition)
    perms = sorted(permutations(range(m)))
    for combo in product(perms, repeat=len(indices)):
        ballots = list(profile.ballots)
        for idx, order in zip(indices, combo):
            ballots[idx] = WeightedBallot(order, profile.ballots[idx].weight)
        trial = Profile(
            candidates=profile.candidates,
            ballots=tuple(ballots),
            strict_odd=profile.strict_odd,
        )
        if condorcet_of(trial) == target:
            return True
    return False


def brute_preference_possible(rule: Rule, profile: Profile, target: int) -> bool:
    """Some locked-respecting rewrite of every ballot elects the target?"""
    tb = TieBreak.favor(target)
    for trial in iter_completions(profile, locked_only=True):
        if winner(rule, trial, tb).id == target:
            return True
    return False


def scan_win_probability(
    dist: ScenarioDistribution, rule: Rule, target: int, tb: TieBreak | None = None
) -> Fraction:
    """The target's win probability as a plain ``Fraction`` sum, every
    scenario decided afresh by ``winner``."""
    mass = Fraction(0)
    for profile, p in dist.scenarios:
        if winner(rule, profile, tb).id == target:
            mass += p
    return mass


def brute_stv(
    orders: Sequence[Order], weights: Sequence[int], m: int, *, branch: bool = True
) -> set[int]:
    """STV winners straight off the elimination tie tree, with no memo.

    With ``branch`` every candidate tied for the lowest top-choice weight is
    eliminated in turn; otherwise only the highest id is (the lex policy).
    """
    total = sum(weights)

    def round_(alive: frozenset[int]) -> set[int]:
        tally = dict.fromkeys(alive, 0)
        for order, w in zip(orders, weights):
            tally[next(c for c in order if c in alive)] += w
        for c in alive:
            if 2 * tally[c] > total:
                return {c}
        least = min(tally.values())
        tied = sorted(c for c in alive if tally[c] == least)
        out: set[int] = set()
        for c in tied if branch else tied[-1:]:
            out |= round_(alive - {c})
        return out

    return round_(frozenset(range(m)))


def brute_winners(rule: Rule, orders: Sequence[Order], weights: Sequence[int], m: int) -> set[int]:
    """The ids that win the complete election under some resolution of the
    rule's ties, each rule replayed from its definition."""
    if m == 1:
        return {0}
    total = sum(weights)
    counts = counts_of(orders, weights, m)

    def tops(alive) -> list[int]:
        tally = [0] * m
        for order, w in zip(orders, weights):
            tally[next(c for c in order if c in alive)] += w
        return tally

    def best(keys, among) -> set[int]:
        return {c for c in among if keys[c] == max(keys[d] for d in among)}

    def beats_or_ties(c: int, d: int) -> bool:
        return 2 * counts[c][d] >= total

    name = type(rule).__name__
    if name == "Scoring":
        vector = rule.vector_for(m)
        scores = [0] * m
        for order, w in zip(orders, weights):
            for position, c in enumerate(order):
                scores[c] += w * vector[position]
        return best(scores, range(m))
    if name == "Cup":
        return bracket_achievable(rule.agenda, counts, total)
    if name == "Stv":
        return brute_stv(orders, weights, m)
    sign = [
        [(2 * counts[c][d] > total) - (2 * counts[d][c] > total) for d in range(m)]
        for c in range(m)
    ]
    first = [sum(row) for row in sign]
    if name == "Copeland":
        return best(first, range(m))
    if name == "Copeland2":
        keys = [(first[c], sum(first[d] for d in range(m) if sign[c][d] > 0)) for c in range(m)]
        return best(keys, range(m))
    if name == "Runoff":
        tally = tops(range(m))
        if any(2 * t > total for t in tally):
            return {tally.index(max(tally))}
        out = set()
        for a, b in combinations_with_replacement(range(m), 2):
            cut = min(tally[a], tally[b])
            if a != b and all(tally[x] <= cut for x in range(m) if x not in (a, b)):
                out |= {c for c, d in ((a, b), (b, a)) if beats_or_ties(c, d)}
        return out
    return brute_hybrid_ids(rule.pairing, orders, weights, m)


# ---------------------------------------------------------------------------
# The enumeration's walks and STV tally, as the plain code they replaced


def recursive_assignments(
    groups: Sequence, enter: Callable[[int, tuple[Order, ...]], bool] | None = None
) -> Iterator[tuple[tuple[Order, ...], ...]]:
    """``iter_assignments`` as one recursive ``yield from`` frame per group;
    ``enter`` is asked about each multiset of every group but the last."""
    chosen: list[tuple[Order, ...]] = []

    def walk(gi: int) -> Iterator[tuple[tuple[Order, ...], ...]]:
        if gi == len(groups):
            yield tuple(chosen)
            return
        group = groups[gi]
        for combo in combinations_with_replacement(group.options, group.count):
            if enter is not None and gi < len(groups) - 1 and not enter(gi, combo):
                continue
            chosen.append(combo)
            yield from walk(gi + 1)
            chosen.pop()

    return walk(0)


def recursive_extensions(
    ballot: PartialBallot, m: int, cap: int | None, axis: Axis | None = None
) -> Iterator[Order]:
    """``linear_extensions`` as one recursive frame per placed candidate,
    with the same dead-set memo and the same charge per extension."""
    full, above, widen = _placement_masks(ballot, m, axis)
    produced = 0
    prefix: list[int] = []
    dead: set[int] = set()

    def walk(placed: int, reach: int) -> Iterator[Order]:
        nonlocal produced
        if placed == full:
            produced = charge(produced + 1, cap, "extensions of a ballot")
            yield tuple(prefix)
            return
        if placed in dead:
            return
        before = produced
        open_ = (reach or full) & ~placed
        while open_:
            bit = open_ & -open_
            open_ ^= bit
            cand = bit.bit_length() - 1
            if above[cand] & ~placed:
                continue
            prefix.append(cand)
            yield from walk(placed | bit, reach | widen[cand])
            prefix.pop()
        if produced == before:
            dead.add(placed)

    return walk(0, 0)


def frontier_stv_winners(
    orders: Sequence[Order],
    weights: Sequence[int],
    m: int,
    total: int,
    branch: bool,
    cap: int | None,
) -> frozenset[int]:
    """STV one elimination level at a time over a frontier of alive sets,
    each tallied by walking every order to its first alive candidate."""
    out: set[int] = set()
    frontier = {frozenset(range(m))}
    states = 0
    while frontier:
        states = charge(states + len(frontier), cap, "STV elimination candidate sets")
        following: set[frozenset[int]] = set()
        for alive in frontier:
            tally = walked_top_tallies(orders, weights, m, alive)
            leader = max(alive, key=tally.__getitem__)
            if 2 * tally[leader] > total:
                out.add(leader)
                continue
            least = min(tally[c] for c in alive)
            tied = [c for c in alive if tally[c] == least]
            for cand in tied if branch else (max(tied),):
                following.add(alive - {cand})
        frontier = following
    return frozenset(out)


def walked_top_tallies(
    orders: Sequence[Order], weights: Sequence[int], m: int, alive: frozenset[int]
) -> list[int]:
    """Each order's weight on its first alive candidate, found by a walk."""
    tally = [0] * m
    for order, w in zip(orders, weights):
        for cand in order:
            if cand in alive:
                tally[cand] += w
                break
    return tally


def cyclic_profile(m: int) -> Profile:
    """One weight-1 ballot per candidate c, ranking c, c+1, ... mod m."""
    return Profile(
        cands(m), tuple(vote([(c + k) % m for k in range(m)]) for c in range(m)),
        strict_odd=False,
    )


def bracket_achievable(
    agenda, counts: Sequence[Sequence[int]], total: int
) -> set[int]:
    """Cup winners reachable over tie resolutions, straight off the tree."""
    if isinstance(agenda, int):
        return {agenda}
    left = bracket_achievable(agenda[0], counts, total)
    right = bracket_achievable(agenda[1], counts, total)
    out: set[int] = set()
    for c in left:
        for d in right:
            if 2 * counts[c][d] >= total:
                out.add(c)
            if 2 * counts[d][c] >= total:
                out.add(d)
    return out


def brute_copeland_scores(profile: Profile) -> list[int]:
    """Each candidate's wins minus losses, comparing the two sides of every
    pair's ``profiles.pairwise_counts``."""
    m = profile.m
    counts = pairwise_counts(*profile.complete_arrays(), m)
    return [
        sum((counts[c][d] > counts[d][c]) - (counts[c][d] < counts[d][c]) for d in range(m))
        for c in range(m)
    ]


def brute_won_pairs(order: Order, m: int) -> int:
    """The pairs one order wins as one int: bit k is set when the order ranks
    i over j for the k-th pair i < j in lexicographic order, read from that
    order's ``profiles.pairwise_counts`` at weight 1."""
    counts = pairwise_counts((order,), (1,), m)
    return sum(counts[i][j] << k for k, (i, j) in enumerate(combinations(range(m), 2)))


def brute_pairwise_ids(rule: Rule, profile: Profile, *, branch: bool = True) -> set[int]:
    """The winners of a complete election under Cup, Copeland or Copeland2
    over every resolution of pairwise ties, or with ``branch`` False the one
    winner of the lexicographic resolution (each tie toward the lower id),
    from ``profiles.pairwise_counts`` alone."""
    m = profile.m
    counts = pairwise_counts(*profile.complete_arrays(), m)

    def meets(c: int, d: int) -> bool:  # c beats or ties d
        return counts[c][d] >= counts[d][c]

    def lex(ids: set[int]) -> set[int]:
        return ids if branch else {min(ids)}

    if type(rule).__name__ == "Cup":

        def match(node) -> set[int]:
            if isinstance(node, int):
                return {node}
            left, right = match(node[0]), match(node[1])
            survivors = {c for c in left if any(meets(c, d) for d in right)}
            survivors |= {d for d in right if any(meets(d, c) for c in left)}
            return lex(survivors)

        return match(rule.agenda)
    scores = brute_copeland_scores(profile)
    keys = scores
    if type(rule).__name__ == "Copeland2":
        keys = [
            (scores[c], sum(scores[d] for d in range(m) if counts[c][d] > counts[d][c]))
            for c in range(m)
        ]
    return lex({c for c in range(m) if keys[c] == max(keys)})


def brute_hybrid_ids(
    pairing, orders: Sequence[Order], weights: Sequence[int], m: int, *, branch: bool = True
) -> set[int]:
    """The winners of a complete election under ``Hybrid(pairing)``, from
    the pairwise counts of ``counts_of`` alone: a side survives its pair when at most
    half the weight ranks its rival above it (at exactly half, only the lower
    id unless ``branch``), and among each way the round ends, plurality over
    the survivors elects every leader, or with ``branch`` False the lowest."""
    total = sum(weights)
    counts = counts_of(orders, weights, m)

    def survives(c: int, rival: int) -> bool:
        against = 2 * counts[rival][c]
        return against < total or (against == total and (branch or c < rival))

    sides = [[c for c, rival in ((a, b), (b, a)) if survives(c, rival)] for a, b in pairing.pairs]
    bye = () if pairing.bye is None else (pairing.bye,)
    out: set[int] = set()
    for picks in product(*sides):
        alive = picks + bye
        tops = dict.fromkeys(alive, 0)
        for order, w in zip(orders, weights):
            tops[next(c for c in order if c in tops)] += w
        leaders = sorted(c for c in alive if tops[c] == max(tops.values()))
        out.update(leaders if branch else leaders[:1])
    return out


# ---------------------------------------------------------------------------
# Random generators (always driven by a caller-seeded random.Random)


def rand_order(rng: random.Random, m: int) -> Order:
    return tuple(rng.sample(range(m), m))


def rand_partial(
    rng: random.Random,
    m: int,
    weight: int,
    *,
    lock: bool = False,
) -> PartialBallot:
    """A consistent partial ballot: a random subset of one order's pairs."""
    order = rand_order(rng, m)
    implied = list(WeightedBallot(order, 1).pairs())
    take = rng.randint(0, len(implied))
    pairs = rng.sample(implied, take)
    locked = rng.sample(pairs, rng.randint(0, len(pairs))) if lock else ()
    return PartialBallot(frozenset(pairs), weight, frozenset(locked))


def rand_sp_partial(
    rng: random.Random, m: int, axis: Axis, weight: int
) -> PartialBallot:
    """A partial ballot guaranteed to admit a single-peaked completion."""
    order = rng.choice(sorted(single_peaked_orders(axis)))
    implied = list(WeightedBallot(order, 1).pairs())
    take = rng.randint(0, len(implied))
    return PartialBallot(frozenset(rng.sample(implied, take)), weight)


def rand_rules(rng: random.Random, m: int) -> dict[str, Rule]:
    """Every rule family over m candidates, by name."""
    ids = rand_order(rng, m)
    pairing = Pairing(tuple(zip(ids[0::2], ids[1::2])), ids[-1] if m % 2 else None)
    return {
        "plurality": plurality(), "borda": borda(), "veto": veto(),
        "copeland": Copeland(), "copeland2": Copeland2(),
        "cup": Cup(rand_agenda(rng, range(m))), "stv": Stv(), "runoff": Runoff(),
        "hybrid": Hybrid(pairing),
    }


def rand_agenda(rng: random.Random, ids: Sequence[int]):
    """A random binary agenda tree over the given candidate ids."""
    nodes: list = list(ids)
    rng.shuffle(nodes)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        nodes[i : i + 2] = [(nodes[i], nodes[i + 1])]
    return nodes[0]


def rand_even_bag(rng: random.Random, max_n: int, max_v: int) -> tuple[int, ...]:
    """A multiset of positive integers with an even sum."""
    while True:
        n = rng.randint(1, max_n)
        items = [rng.randint(1, max_v) for _ in range(n)]
        if sum(items) % 2 == 0:
            return tuple(sorted(items))


def make_odd(rng: random.Random, weights: list[int]) -> list[int]:
    """Bump one weight so the list sums odd (a lone 1 if empty)."""
    if not weights:
        return [1]
    if sum(weights) % 2 == 0:
        weights[rng.randrange(len(weights))] += 1
    return weights


def _pairs_text(pairs, labels: str) -> str:
    return ",".join(f"{labels[a]}>{labels[b]}" for a, b in sorted(pairs))


def _dress(rng: random.Random, key: str) -> str:
    """``key`` as a text line: sometimes padded, sometimes with a comment."""
    r = rng.random()
    if r < 0.1:
        return f"  {key}\t"
    if r < 0.2:
        return f"{key}  # note {rng.randrange(3)}"
    return key


def _filler(rng: random.Random) -> str:
    return rng.choice(("", "   ", "# comment", "  # indented comment"))


def rand_profile_lines(
    rng: random.Random, m: int, events: int
) -> tuple[list[str], Profile, Axis | None, list[str]]:
    """A profile text written from known ballots: (lines, profile, axis, keys).

    About four in five of the ``events`` lines are vote lines, some repeating
    an earlier ballot line; the rest are partial, unknown, comment and blank
    lines, and at most one axis line.  ``keys[k]`` is the stripped line that
    casts ``profile.ballots[k]``.  Parse with ``strict_odd=False``.
    """
    labels = LABELS[:m]
    lines = [_filler(rng)] if rng.random() < 0.5 else []
    lines.append("candidates: " + " ".join(labels))
    cast: list[tuple[str, WeightedBallot | PartialBallot]] = []
    unknown = 0
    for _ in range(events):
        r = rng.random()
        if r < 0.2 and cast:
            key, ballot = rng.choice(cast)
        elif r < 0.25:
            ballot = rand_partial(rng, m, rng.randint(1, 9), lock=rng.random() < 0.5)
            key = f"partial w={ballot.weight}"
            if ballot.pairs:
                key += " pairs=" + _pairs_text(ballot.pairs, labels)
            if ballot.locked:
                key += " locked=" + _pairs_text(ballot.locked, labels)
        elif r < 0.27:
            w = rng.randint(0, 3)
            unknown += w
            lines.append(_dress(rng, f"unknown w={w}"))
            continue
        elif r < 0.3:
            lines.append(_filler(rng))
            continue
        else:
            weight = rng.randint(1, 40) if rng.random() < 0.95 else rng.randint(1, 2**40)
            ballot = vote(rand_order(rng, m), weight)
            key = f"vote w={weight} " + ">".join(labels[c] for c in ballot.order)
        cast.append((key, ballot))
        lines.append(_dress(rng, key))
    axis = None
    if rng.random() < 0.5:
        axis = Axis(rand_order(rng, m))
        at = rng.randint(lines.index("candidates: " + " ".join(labels)) + 1, len(lines))
        lines.insert(at, "axis: " + " ".join(labels[c] for c in axis.order))
    profile = Profile(
        cands(m), tuple(b for _, b in cast), unknown_weight=unknown, strict_odd=False
    )
    return lines, profile, axis, [key for key, _ in cast]


def rand_distribution_lines(
    rng: random.Random, m: int, scenarios: int
) -> tuple[list[str], ScenarioDistribution, list[list[str]]]:
    """A distribution text written from known scenarios: (lines, dist, keys).

    Every scenario splits one total weight over vote lines drawn from a few
    orders, and some repeat the block before them, so ballot lines repeat
    within and across blocks.  ``keys[s][k]`` is the stripped line that
    casts ballot ``k`` of scenario ``s``.  Parse with ``strict_odd=False``.
    """
    labels = LABELS[:m]
    total = rng.randint(1, 12)
    orders = [rand_order(rng, m) for _ in range(3)]
    masses = [rng.randint(1, 9) for _ in range(scenarios)]
    lines = ["candidates: " + " ".join(labels)]
    built: list[tuple[Profile, Fraction]] = []
    keys: list[list[str]] = []
    block: list[tuple[Order, int]] = []
    for mass in masses:
        if not block or rng.random() < 0.7:
            cuts = sorted(rng.sample(range(1, total), rng.randint(0, min(2, total - 1))))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            block = [(rng.choice(orders), w) for w in parts]
        lines.append(f"scenario p={Fraction(mass, sum(masses))}")
        keys.append([])
        for order, w in block:
            if rng.random() < 0.2:
                lines.append(_filler(rng))
            key = f"vote w={w} " + ">".join(labels[c] for c in order)
            keys[-1].append(key)
            lines.append(_dress(rng, key))
        ballots = tuple(vote(order, w) for order, w in block)
        built.append((Profile(cands(m), ballots, strict_odd=False),
                      Fraction(mass, sum(masses))))
    return lines, ScenarioDistribution(tuple(built)), keys


# ---------------------------------------------------------------------------
# Views and the manipulation layer's committed golden


def brute_view(profile: Profile, free: Collection[int]) -> Profile:
    """``completions.fixed_view`` rebuilt afresh, slot by slot, without
    ``locked_only``: a free partial ballot keeps only its locked pairs, a
    free complete one none, and a total partial ballot outside ``free`` is
    cast as the order its pairs rank."""
    m = profile.m
    ballots: list[WeightedBallot | PartialBallot] = []
    for idx, b in enumerate(profile.ballots):
        if idx in free and isinstance(b, PartialBallot):
            ballots.append(PartialBallot(b.locked, b.weight, b.locked))
        elif idx in free:
            ballots.append(PartialBallot(frozenset(), b.weight))
        elif isinstance(b, PartialBallot):
            assert len(b.pairs) == m * (m - 1) // 2, "a genuinely partial ballot outside free"
            wins = [sum(1 for a, _ in b.pairs if a == c) for c in range(m)]
            ballots.append(WeightedBallot(sorted(range(m), key=lambda c: -wins[c]), b.weight))
        else:
            ballots.append(b)
    return Profile(profile.candidates, tuple(ballots), profile.unknown_weight, profile.strict_odd)


def _outcome(call: Callable[[], object], show: Callable[[object], str]) -> str:
    """``show`` of what ``call`` returns, or its typed error with any estimate."""
    try:
        return show(call())
    except CapExceeded as exc:
        return f"CapExceeded: {exc} (estimate {exc.estimate})"
    except VotelabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _profile_text(profile: Profile | None) -> str:
    """A profile's text on one line, or None."""
    return "None" if profile is None else format_profile(profile).rstrip("\n").replace("\n", " | ")


def _reduction_text(inst: ManipulationInstance, cap: int | None) -> str:
    dist, query = reduction_from_preference_manipulation(inst, cap=cap)
    probability = win_probability(dist, query.rule, query.target, query.tb, cap=cap)
    return f"{len(dist.scenarios)} {evaluate(dist, query, cap=cap)} {probability}"


def _golden_inputs(seed: int, size: int) -> Iterator[tuple[str, ManipulationInstance]]:
    """(tag, instance) for every input of ``manipulation_golden``."""
    rng = random.Random(seed)
    for k in range(size):
        # preference model: votes and locked partial ballots, some ballot
        # objects in several slots, a total partial, unknown units
        m = 2 + k % 4
        pool: list[WeightedBallot | PartialBallot] = [
            vote(rand_order(rng, m), rng.randint(1, 9)) for _ in range(2)
        ]
        pool += [rand_partial(rng, m, rng.randint(1, 9), lock=True) for _ in range(2)]
        if rng.random() < 0.3:
            pool.append(PartialBallot.from_order(rand_order(rng, m), rng.randint(1, 9), True))
        ballots = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4 if m < 5 else 3)))
        unknown = rng.randint(0, 1) if m < 5 else 0
        profile = Profile(cands(m), ballots, unknown_weight=unknown, strict_odd=False)
        for rule in rng.sample(list(rand_rules(rng, m).values()), 3):
            yield f"seed {k}", ManipulationInstance(rule, rng.randrange(m), profile)
        # coalition model: a coalition of one or two ballots without locks,
        # cast or partial, and cast votes outside it, one maybe a total partial
        members = [
            rng.choice((vote(rand_order(rng, m), rng.randint(1, 9)), rand_partial(rng, m, 2)))
            for _ in range(rng.randint(1, 2 if m < 5 else 1))
        ]
        cast = [vote(rand_order(rng, m), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            cast.append(PartialBallot.from_order(rand_order(rng, m), rng.randint(1, 9)))
        profile = Profile(cands(m), tuple(members + cast), strict_odd=False)
        coalition = frozenset(range(len(members)))
        for rule in rng.sample(list(rand_rules(rng, m).values()), 3):
            target = rng.randrange(m)
            yield f"seed {k}", ManipulationInstance(rule, target, profile, coalition)
    for kind in REDUCTION_KINDS:
        for n in range(1, 6):
            for bag in combinations_with_replacement(range(1, 4), n):
                if sum(bag) % 2:
                    continue
                rule, profile, _, target = reduction_instance(kind, PartitionInstance(bag))
                if target is not None:
                    yield f"{kind} {bag}", ManipulationInstance(rule, target, profile)
                else:  # an elicitation profile: its partial ballots as a coalition
                    coalition = frozenset(
                        i for i, b in enumerate(profile.ballots) if isinstance(b, PartialBallot)
                    )
                    yield f"{kind} {bag}", ManipulationInstance(rule, 0, profile, coalition)


def manipulation_golden(seed: int = 34, size: int = 60) -> list[str]:
    """One canonical line per (entry point, input) of the manipulation layer.

    The inputs are ``size`` seeded rounds of random profiles over 2 to 5
    candidates, each asked three preference-model and three coalition-model
    questions, then the four generators' even bags of 1 to 5 values up to 3.
    Each input first gets a line naming it: the rule, the target, the
    coalition and the profile text.  A preference-model input then gets its
    ``preference_manipulate`` witness as profile text (or None), and its
    reduction's scenario count, ``evaluate`` answer and ``win_probability``;
    a coalition input gets its ``coalition_manipulate`` mapping.  Each call
    is made again under a small cap.  A typed error is written as its type
    and message, with the estimate of a CapExceeded.

    ``tests/golden/manipulation.txt`` holds the default call's lines; from
    the repository root, rewrite it with::

        PYTHONPATH=src:tests python -c "import helpers; \\
            print(*helpers.manipulation_golden(), sep=chr(10))" > tests/golden/manipulation.txt
    """
    lines = []
    for i, (tag, inst) in enumerate(_golden_inputs(seed, size)):
        profile = inst.profile
        coalition = "prefs" if inst.coalition is None else sorted(inst.coalition)
        lines.append(
            f"input {i} ({tag}): {format_rule(inst.rule, profile.candidates)}"
            f" target={inst.target.label} {coalition} | {_profile_text(profile)}"
        )
        for cap in (None, 5 + 37 * (i % 3)):
            if inst.coalition is None:
                witness = _outcome(lambda: preference_manipulate(inst, cap=cap), _profile_text)
                reduction = _outcome(lambda: _reduction_text(inst, cap), str)
                lines.append(f"preference {i} cap={cap}: {witness}")
                lines.append(f"reduction {i} cap={cap}: {reduction}")
            else:
                mapping = _outcome(
                    lambda: coalition_manipulate(inst, cap=cap),
                    lambda found: str(found and sorted(found.items())),
                )
                lines.append(f"coalition {i} cap={cap}: {mapping}")
    return lines
