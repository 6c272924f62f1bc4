"""Termination tests for vote elicitation.

An election may be decided before every preference is known: however the
missing ballots and unresolved pairwise comparisons are filled in, the same
candidate wins.  The predicates here answer that question for two styles of
elicitation: whole-ballot (some agents have not voted at all, the rest are
fully known) and pairwise (individual ballots may be partial orders).

A candidate is a *possible winner* when some joint completion, combined
with some resolution of the rule's internal ties, elects it.  Elicitation
is over exactly when a single possible winner remains.

Every termination question is planned in one place, ``_elicitation_over``,
from its input alone.  Where no polynomial path fits, ``_winner_stream``
picks the engine and runs it, pruning the enumeration by branch and bound
where the rule has a bound, and the manipulation models read their
witnesses from the same stream (``_witness``).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Collection, Iterator, Sequence

from .completions import (
    Order,
    OptionGroup,
    _assigned_weights,
    check_cap,
    completion_groups,
    fixed_view,
    iter_assignments,
)
from .errors import CapExceeded, ModelMismatch, charge
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Axis,
    Candidate,
    Profile,
    _median_peaks,
    majority_matrix,
)
from .rules import (
    PAIRWISE_RULES,
    Agenda,
    Cup,
    Hybrid,
    Pairing,
    Rule,
    _achievable_ids,
    _fixed_part,
    _hybrid_rounds,
    _pair_at,
    _pairs_sign,
    _pairs_tally,
    _reach,
    _rule_bound,
    achievable_from_sign,
    validate_rule_for,
)

__all__ = [
    "CondorcetStatus",
    "condorcet_winner_fixed",
    "coarse_elicitation_over",
    "cup3_fine_over",
    "cup_single_peaked_over",
    "fine_elicitation_over",
    "fine_sp_elicitation_over",
    "hybrid_coarse_over",
    "possible_winners",
]

Assignment = tuple[tuple[Order, ...], ...]


# ---------------------------------------------------------------------------
# Possible winners over joint completions


def _list_bounds(
    tally: Callable, rule: Rule, groups: Sequence[OptionGroup], m: int, units: dict
) -> list[tuple[list[int], list[int]]]:
    """Per group, the least and the most of each coordinate of the rule's tally
    over its option list's orders at weight 1, read once per distinct list
    from ``units``, where missing tallies are added."""
    lists: dict[int, tuple[list[int], list[int]]] = {}  # id of an option list -> bounds
    for key, options in {id(g.options): g.options for g in groups}.items():
        missing = [order for order in options if order not in units]
        units.update((order, tally(rule, (order,), (1,), m)) for order in missing)
        columns = list(zip(*map(units.__getitem__, options)))
        lists[key] = (list(map(min, columns)), list(map(max, columns)))
    return [lists[id(group.options)] for group in groups]


def _pairwise_possible_ids(
    rule: Rule,
    profile: Profile,
    groups: Sequence[OptionGroup],
    cap: int | None,
    *,
    target: int | None = None,
) -> Iterator[tuple[Assignment | None, frozenset[int]]]:
    """(assignment or None, achievable ids) per reachable majority sign
    pattern, in sorted order: the enumeration's stream for a pairwise rule.

    Each option's tally at weight 1 is projected onto the pairs open between
    the least and the most tally (``_list_bounds``), and the projections are
    summed with deduplication.  Sums only grow, and once a pair's sum
    reaches ``(total - 2*base)//2 + 1`` its sign is +1 for good, so every
    running sum is clamped there without losing a reachable sign matrix.  A
    group of interchangeable ballots stops summing at a fixpoint, when one
    more ballot adds no new clamped sum.  The setup (options times pairs,
    charged once) and the summing, each bounded by ``cap``, run before this
    returns; the rule is decided lazily per pattern.

    A clamped sum is one int with a field of ``width`` bits per open pair,
    the first pair lowest.  A field holds at most twice the largest clamp or
    group weight below its top bit, so one addition never carries into the
    next field, and that top bit, the guard, is clear between additions.
    ``S`` packs the clamps and ``G`` the guard bits.  For ``x = vec + add``,
    ``g = ((x | G) - S) & G`` keeps the guard of each field at or past its
    clamp, ``(g << 1) - (g >> (width - 1))`` widens those guards to whole
    fields, and those fields take their clamp from ``S``: ``min(a + b, s)``
    per field in a few int operations.  The same guard subtraction reads the
    sign pattern: a field at its clamp is +1, one below it is 0 where
    ``total - 2*base`` is even (the clamps less those ones are ``S1``), and
    any other field is -1.

    With a ``target`` every clamped sum keeps one predecessor, the sum it came
    from and the projection added, per group step (the fixpoint step stands
    for the rest) and per group.  A pattern the target wins is read back to
    one option per ballot, as the enumeration assigns them.  Projections are
    non-negative, so each clamped sum on the way equals the true sum capped
    at its pair's clamp, and the read-back completion has that pattern.
    """
    m = profile.m
    total = profile.total_weight
    # every option is placed and projected onto up to every pair before any sum
    options = sum(len(group.options) for group in groups)
    charge(options * (m * (m - 1) // 2), cap, "pairwise projections of options")
    base = _pairs_tally(rule, *profile.fixed_arrays, m)
    units: dict[Order, list[int]] = {}
    lo, hi = base, base
    for group, (least, most) in zip(groups, _list_bounds(_pairs_tally, rule, groups, m, units)):
        bulk = group.weight * group.count
        lo = [s + bulk * v for s, v in zip(lo, least)]
        hi = [s + bulk * v for s, v in zip(hi, most)]

    # a pair whose sign is the same at its least and its most is forced
    sign_lo, sign_hi = _pairs_sign(lo, m, total), _pairs_sign(hi, m, total)
    open_pairs = [(i, j) for i, j in combinations(range(m), 2) if sign_lo[i][j] != sign_hi[i][j]]
    coords = [_pair_at(i, j, m) for i, j in open_pairs]  # where the tally keeps them

    sat = [(total - 2 * base[k]) // 2 + 1 for k in coords]
    width = (2 * max([*sat, *(g.weight for g in groups), 1])).bit_length() + 1
    shifts = range(0, width * len(open_pairs), width)
    top = width - 1
    guards = [at + top for at in shifts]
    S = sum(s << at for s, at in zip(sat, shifts))
    G = sum(1 << at for at in guards)
    S1 = S - sum(1 << at for k, at in zip(coords, shifts) if (total - 2 * base[k]) % 2 == 0)
    work = 0

    def add_clamped(
        vecs: Collection[int], adds: Collection[int], back: dict | None = None
    ) -> Collection[int]:
        """Every clamped vec + add.  With ``back``, each sum is stored there
        with the first (vec, add) that reached it, and its keys are returned."""
        nonlocal work
        if open_pairs:  # summing empty vectors costs nothing
            work = charge(work + len(vecs) * len(adds), cap, "pairwise-projection sums")
        out = set() if back is None else None
        for vec in vecs:
            for add in adds:
                x = vec + add
                g = ((x | G) - S) & G
                if g:
                    x ^= (x ^ S) & ((g << 1) - (g >> top))
                if back is None:
                    out.add(x)
                else:
                    back.setdefault(x, (vec, add))
        return out if back is None else back.keys()

    keep = target is not None
    # per group, with a target: the first option of each projection, each
    # step's predecessors, and the predecessors of the running totals
    trail = []
    totals: Collection[int] = {0}
    for group in groups:
        scaled: dict[int, Order] = {}
        for order in group.options:
            unit = units[order]
            ahead = [at for k, at in zip(coords, shifts) if unit[k]]
            scaled.setdefault(sum(group.weight << at for at in ahead), order)
        steps: list[dict] = []
        sums: Collection[int] = {0}
        for _ in range(group.count):
            back = {} if keep else None
            sums, before = add_clamped(sums, scaled, back), sums
            if keep:
                steps.append(back)
            if sums == before:
                break
        back = {} if keep else None
        totals = add_clamped(totals, sums, back)
        if keep:
            trail.append((scaled, steps, back))

    # a field's guard bit in a key marks +1, the bit below it a field at
    # least at S1; each key keeps the last total seen
    by_key: dict[int, int] = {}
    for vec in totals:
        lifted = vec | G
        by_key[(lifted - S) & G | ((lifted - S1) & G) >> 1] = vec
    patterns = {
        tuple([1 if (key >> at) & 1 else 0 if (key >> (at - 1)) & 1 else -1 for at in guards]): vec
        for key, vec in by_key.items()
    }

    def stream():
        for open_signs in sorted(patterns):
            sign = [row[:] for row in sign_lo]
            for (i, j), s in zip(open_pairs, open_signs):
                sign[i][j], sign[j][i] = s, -s
            ids = achievable_from_sign(rule, sign)
            won = target in ids
            yield (_read_back(groups, trail, patterns[open_signs]) if won else None), ids

    return stream()


def _read_back(groups: Sequence[OptionGroup], trail: Sequence, vec: int) -> Assignment:
    """The assignment whose clamped projection sum is ``vec``, walking each
    group's predecessors back from the last group; within a group, steps past
    the fixpoint reuse the fixpoint step."""
    assignment = []
    for group, (scaled, steps, back) in zip(reversed(groups), reversed(trail)):
        vec, sums = back[vec]
        combo = []
        for step in range(group.count, 0, -1):
            sums, add = steps[min(step, len(steps)) - 1][sums]
            combo.append(scaled[add])
        assignment.append(tuple(sorted(combo)))
    return tuple(reversed(assignment))


class _Pruner:
    """``iter_assignments``' hook for a rule with a bound: prune a node when
    the bound of every completion below it lies inside ``seen``.

    ``stats[d]`` is the tally of the fixed ballots and of the multisets the
    first d groups hold now; the bound of a node at depth d reads it plus
    the least and the most the later groups can add.  ``seen`` is the
    stream's own set, read live; armed only after a yield, the pruner finds
    a winner in it.  Until then nothing is built and nothing is pruned;
    then ``_list_bounds`` reads each option list's least and most from
    ``units``, the tallies at weight 1 the scorer keeps.  A node with one
    completion below is scored, not bounded.
    """

    armed = False

    def __init__(
        self,
        rule: Rule,
        profile: Profile,
        groups: Sequence[OptionGroup],
        seen: Collection[int],
        bound: tuple[Callable, Callable],
        base: list[int] | None,
        units: dict,
    ) -> None:
        self.rule, self.profile, self.groups, self.seen = rule, profile, groups, seen
        (self.tally, self.bound), self.base, self.units = bound, base, units
        self.heads: list[tuple[Order, ...]] = [()] * len(groups)
        self.stats: list[list[int]] = []

    def __call__(self, depth: int, combo: tuple[Order, ...]) -> bool:
        self.heads[depth] = combo
        if not self.armed:
            return True
        del self.stats[depth + 1 :]
        return not self.useless(depth + 1)

    def _build(self) -> None:
        tally, rule, m, groups = self.tally, self.rule, self.profile.m, self.groups
        bounds = _list_bounds(tally, rule, groups, m, self.units)
        # the scorer's base, unless the rule is decided from its orders
        fixed = self.base or tally(rule, *self.profile.fixed_arrays, m)
        # at depth d: the completions below, and the least and most groups d.. add
        self.below, self.lo_rest, self.hi_rest = [1], [[0] * len(fixed)], [[0] * len(fixed)]
        for group, (least, most) in zip(reversed(groups), reversed(bounds)):
            bulk = group.weight * group.count
            self.below.append(self.below[-1] * group.size)
            self.lo_rest.append([r + bulk * v for r, v in zip(self.lo_rest[-1], least)])
            self.hi_rest.append([r + bulk * v for r, v in zip(self.hi_rest[-1], most)])
        for table in (self.below, self.lo_rest, self.hi_rest):
            table.reverse()
        self.stats.append(fixed)

    def useless(self, depth: int) -> bool:
        """Does the bound below the first ``depth`` groups' multisets lie
        inside ``seen``?"""
        stats = self.stats
        if not stats:
            self._build()
        if self.below[depth] == 1:
            return False
        while len(stats) <= depth:
            d = len(stats) - 1
            stat, weight = stats[d], self.groups[d].weight
            for order in self.heads[d]:
                stat = [s + weight * v for s, v in zip(stat, self.units[order])]
            stats.append(stat)
        stat = stats[depth]
        lo = [s + r for s, r in zip(stat, self.lo_rest[depth])]
        hi = [s + r for s, r in zip(stat, self.hi_rest[depth])]
        rule, bound = self.rule, self.bound
        m, total = self.profile.m, self.profile.total_weight
        return not any(bound(rule, c, lo, hi, m, total) for c in range(m) if c not in self.seen)


def _winner_stream(
    rule: Rule,
    profile: Profile,
    cap: int | None,
    *,
    axis: Axis | None = None,
    target: int | None = None,
) -> tuple[tuple[OptionGroup, ...], Iterator[tuple[Assignment | None, frozenset[int]]]]:
    """The profile's option groups and the (assignment or None, achievable ids)
    stream of the engine that fits the rule: the pairwise projection for Cup
    and Copeland(2), else the joint completions scored with the rule on top
    of the fixed ballots' tally (``rules._fixed_part``), target-topmost
    options first, refused here past ``cap`` and while scoring when an STV
    elimination passes it.  Callers stop the stream once they can answer.

    The enumeration is branch and bound where the rule has a bound.  Its own
    set ``seen`` starts as every candidate but the target for a witness, else
    empty, and takes each completion's winners once it is yielded.  Subtrees
    whose bound lies inside ``seen`` are skipped, and the walk stops when the
    root's does, so it yields, in the order it would yield them all, only the
    items that may add an id outside ``seen``, from the point where it has
    scored two completions per order the bound's build reads.
    """
    groups = completion_groups(profile, axis=axis, cap=cap)
    if isinstance(rule, PAIRWISE_RULES):
        return groups, _pairwise_possible_ids(rule, profile, groups, cap, target=target)
    if target is not None:  # target-topmost options first, so witnesses surface early
        # each shared option list is sorted once and stays shared
        lists = {id(g.options): g.options for g in groups}
        ranked = {
            key: tuple(sorted(options, key=lambda o: (o.index(target), o)))
            for key, options in lists.items()
        }
        groups = tuple(replace(g, options=ranked[id(g.options)]) for g in groups)
    size = check_cap(groups, cap)
    m, total = profile.m, profile.total_weight
    base, fixed, fixed_weights = _fixed_part(rule, *profile.fixed_arrays, m)
    units: dict[Order, list[int]] = {}  # each order's tally at weight 1
    bound = _rule_bound(rule, m)
    # the bound's build reads every order of each option list, at about the
    # cost of scoring a completion per order, so the walk bounds nothing
    # before it has scored twice that many completions
    lead = 2 * sum({id(g.options): len(g.options) for g in groups}.values())
    seen = set(range(m)) - {target} if target is not None else set()
    prune = None
    if bound and size > lead:
        prune = _Pruner(rule, profile, groups, seen, bound, base, units)

    def scored():
        weights = fixed_weights + _assigned_weights(groups)
        bounded = None  # the size of seen when the root was last bounded
        for walked, assignment in enumerate(iter_assignments(groups, prune), 1):
            orders = sum(assignment, fixed)
            ids = _achievable_ids(rule, orders, weights, m, total, base=base, units=units, cap=cap)
            yield assignment, ids
            seen.update(ids)
            if prune is not None and lead <= walked < size and len(seen) != bounded:
                prune.armed, bounded = True, len(seen)
                if prune.useless(0):
                    return
    return groups, scored()


def _witness(
    rule: Rule, view: Profile, target: int, cap: int | None
) -> tuple[Sequence[OptionGroup], Assignment | None]:
    """One assignment of the view's free ballots electing the target under
    ties in its favour (None if there is none), and the groups it indexes."""
    groups, stream = _winner_stream(rule, view, cap, target=target)
    return groups, next((assignment for assignment, ids in stream if target in ids), None)


def _possible_ids(
    rule: Rule,
    profile: Profile,
    *,
    axis: Axis | None = None,
    cap: int | None = DEFAULT_COMPLETION_CAP,
    stop_at: int | None = None,
) -> frozenset[int]:
    m = profile.m
    validate_rule_for(rule, m)
    if m == 1:
        return frozenset((0,))
    found: set[int] = set()
    for _, ids in _winner_stream(rule, profile, cap, axis=axis)[1]:
        found |= ids
        if len(found) == m or (stop_at is not None and len(found) >= stop_at):
            break
    return frozenset(found)


def possible_winners(
    rule: Rule,
    profile: Profile,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> frozenset[Candidate]:
    """Candidates that win some joint completion under ties in their favour.

    Raises CapExceeded rather than returning a truncated answer when the
    completion space (after symmetry merging) is larger than ``cap``, or
    when the STV elimination search of a completion the walk visits reaches
    more than ``cap`` candidate sets; completions in a subtree the rule's
    bound rules out are not visited.
    """
    ids = _possible_ids(rule, profile, cap=cap)
    return frozenset(profile.candidates[i] for i in ids)


def _elicitation_over(rule: Rule, profile: Profile, axis: Axis | None, cap: int | None) -> bool:
    """Is exactly one candidate a possible winner?  The first fitting row
    answers: the median peak (Cup, Copeland(2), an axis, odd total weight);
    the three-candidate cup (no axis), unless its subset-sum work passes
    ``cap``; the survivor walk (a hybrid, no axis, no genuinely partial
    ballot); else the engine, stopped at two possible winners."""
    m = profile.m
    if isinstance(rule, PAIRWISE_RULES) and axis is not None and profile.total_weight % 2:
        validate_rule_for(rule, m)
        return cup_single_peaked_over(profile, axis)
    if isinstance(rule, Cup) and axis is None and m <= 3:
        with suppress(CapExceeded):  # the engine below has the same cap
            return cup3_fine_over(rule.agenda, profile, cap=cap)
    if isinstance(rule, Hybrid) and axis is None:
        with suppress(ModelMismatch):  # only a genuinely partial ballot raises it
            return hybrid_coarse_over(rule.pairing, profile, cap=cap)
    return len(_possible_ids(rule, profile, axis=axis, cap=cap, stop_at=2)) == 1


def fine_elicitation_over(
    rule: Rule,
    profile: Profile,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """True iff every joint completion of the profile elects one candidate.

    Accepts any mix of complete ballots, partial ballots and wholly unknown
    weight; ``_elicitation_over`` picks the path.
    """
    return _elicitation_over(rule, profile, None, cap)


def coarse_elicitation_over(
    rule: Rule,
    profile: Profile,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """Whole-ballot termination: cast votes decide the winner already.

    The profile's only uncertainty may be wholly unknown agents
    (``unknown_weight``); a partial ballot that is not a total order raises
    ModelMismatch.  The question is then a fine one with no partial ballot,
    so a hybrid is answered by the survivor walk of ``hybrid_coarse_over``.
    """
    return _elicitation_over(rule, fixed_view(profile), None, cap)


# ---------------------------------------------------------------------------
# Three-candidate cup: polynomial termination test


def _subset_sum_in(weights: Sequence[int], lo: int, hi: int, cap: int | None) -> bool:
    """Does some sub-multiset of ``weights`` sum to a value in [lo, hi]?

    Sums above ``hi`` are dropped.  They are kept as a bitmask when hi + 1
    bits are no more than the 2**len(weights) sums a set can hold, else as a
    set.  Work charged to ``cap``: per weight, the bitmask's 64-bit words or
    the set's size.
    """
    lo = max(lo, 0)
    if lo > hi:
        return False
    weights = [w for w in weights if w <= hi]
    bitmask = len(weights) >= hi.bit_length()
    mask = (1 << (hi + 1)) - 1 if bitmask else 0
    sums, bits, work = {0}, 1, 0
    for w in weights:
        work = charge(work + (hi // 64 + 1 if bitmask else len(sums)), cap, "subset-sum steps")
        if bitmask:
            bits |= (bits << w) & mask
        else:
            sums |= {s + w for s in sums if s + w <= hi}
    return bits >> lo != 0 if bitmask else max(sums) >= lo


def _two_front_feasible(
    groups: Sequence[OptionGroup],
    units: dict,
    base: Sequence[int],
    profile: Profile,
    p: tuple[int, int],
    q: tuple[int, int],
    cap: int | None,
) -> bool:
    """Can some completion push both pairs ``p`` and ``q`` to at least half?

    Every ballot option is projected to "p holds" and "q holds", read by
    ``rules._reach`` from its tally in ``units`` (the fixed ballots' from
    ``base``).  Options satisfying both dominate; ballots that can satisfy
    either but not both trade one front against the other, and the split of
    their weights is decided exactly by a subset-sum scan.
    """
    m, total = profile.m, profile.total_weight
    need = (total + 1) // 2
    fixed = sum(profile.fixed_arrays[1])
    sum_p, sum_q = (_reach(*pair, base, base, m, fixed) for pair in (p, q))
    swing: list[int] = []
    for group in groups:
        tallies = [units[order] for order in group.options]
        can = {(_reach(*p, u, u, m, 1), _reach(*q, u, u, m, 1)) for u in tallies}
        if (1, 1) not in can and {(1, 0), (0, 1)} <= can:  # torn between the fronts
            swing.extend([group.weight] * group.count)
        else:  # every front some option serves is served
            sum_p += group.weight * group.count * max(side for side, _ in can)
            sum_q += group.weight * group.count * max(side for _, side in can)
    pool = sum(swing)
    lo = need - sum_p
    hi = sum_q + pool - need
    return _subset_sum_in(swing, lo, min(hi, pool), cap)


def cup3_fine_over(
    agenda: Agenda, profile: Profile, *, cap: int | None = DEFAULT_COMPLETION_CAP
) -> bool:
    """Polynomial termination test for cup elections over at most 3 candidates.

    With three candidates the agenda is one semifinal plus a bye.  A
    semifinalist is a possible winner iff raising it over both rivals
    wherever each ballot permits makes it beat (or tie) both; the two boosts
    never conflict inside one ballot.  The bye candidate must beat whichever
    semifinalist reaches the final, so each semifinalist is tried as the
    helper, splitting the weight of genuinely torn ballots exactly.
    Elicitation is over iff one possible winner remains.  The cap bounds
    that split's subset-sum work (CapExceeded beyond it); None is unbounded.
    Each boost is read by ``rules._reach`` from the bounds ``_list_bounds`` gives.
    """
    m = profile.m
    if m > 3:
        raise ModelMismatch(f"the shortcut handles at most 3 candidates, got {m}")
    rule = Cup(agenda)
    validate_rule_for(rule, m)
    if m == 1:
        return True

    groups = completion_groups(profile, cap=None)
    base = _pairs_tally(rule, *profile.fixed_arrays, m)
    units: dict[Order, list[int]] = {}
    lo, hi = base, base
    for group, (least, most) in zip(groups, _list_bounds(_pairs_tally, rule, groups, m, units)):
        bulk = group.weight * group.count
        lo = [s + bulk * v for s, v in zip(lo, least)]
        hi = [s + bulk * v for s, v in zip(hi, most)]
    total = profile.total_weight
    need = (total + 1) // 2

    if m == 2:
        possible = [c for c in (0, 1) if _reach(c, 1 - c, lo, hi, m, total) >= need]
        return len(possible) == 1

    semi, bye = agenda
    if isinstance(semi, int):
        semi, bye = bye, semi
    x, y = semi

    possible = set()
    for c, other in ((x, y), (y, x)):
        # Boosting c over both rivals is conflict-free per ballot, so the
        # two maxima are reached simultaneously.
        if min(_reach(c, d, lo, hi, m, total) for d in (other, bye)) >= need:
            possible.add(c)
    for helper, rival in ((x, y), (y, x)):
        if _two_front_feasible(groups, units, base, profile, (bye, helper), (helper, rival), cap):
            possible.add(bye)
            break
    return len(possible) == 1


# ---------------------------------------------------------------------------
# Condorcet winner status from committed preferences


@dataclass(frozen=True)
class CondorcetStatus:
    """Trichotomy for the Condorcet-winner question on an incomplete profile.

    kind is "true" (the winner is already forced; ``winner`` names it),
    "false" (no completion yields any Condorcet winner) or "not-determined".
    """

    kind: str
    winner: Candidate | None = None


def condorcet_winner_fixed(profile: Profile) -> CondorcetStatus:
    """Is the existence (and identity) of a Condorcet winner already settled?

    Committed pairwise weight alone decides this: a candidate is the forced
    winner iff its committed support against every rival exceeds half the
    total weight, and no winner can emerge iff every candidate already has
    half the weight committed against it by someone.
    """
    m = profile.m
    total = profile.total_weight
    fixed = majority_matrix(profile).fixed
    for c in range(m):  # at m = 1 the lone candidate wins vacuously
        if all(2 * fixed[c][j] > total for j in range(m) if j != c):
            return CondorcetStatus("true", profile.candidates[c])
    blocked = all(
        any(2 * fixed[j][c] >= total for j in range(m) if j != c) for c in range(m)
    )
    if blocked:
        return CondorcetStatus("false")
    return CondorcetStatus("not-determined")


# ---------------------------------------------------------------------------
# Single-peaked elicitation


def fine_sp_elicitation_over(
    rule: Rule,
    profile: Profile,
    axis: Axis,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """Termination when every completion must be single-peaked on ``axis``.

    Raises NotCompletableSP if some ballot admits no single-peaked
    completion (including complete ballots that already violate the axis).
    Cup and Copeland(2) with odd total weight take the median peak.
    """
    return _elicitation_over(rule, profile, axis, cap)


def cup_single_peaked_over(profile: Profile, axis: Axis) -> bool:
    """Median-peak shortcut for Cup and Copeland(2) on single-peaked votes.

    With odd total weight every single-peaked completion has a Condorcet
    winner, the candidate at the weighted median peak (Black 1948), and a cup
    under every agenda, Copeland and Copeland2 elect it.  Elicitation is
    therefore over iff the median peak is the same when every agent sits at
    its leftmost achievable peak and at its rightmost.  Raises InvalidProfile
    on an even total weight, or on an axis that does not order exactly the
    profile's candidates.
    """
    lo, hi = _median_peaks(profile, axis)
    return lo == hi


# ---------------------------------------------------------------------------
# Hybrid rule: whole-ballot termination over the sets of survivors


def hybrid_coarse_over(
    pairing: Pairing,
    profile: Profile,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """Whole-ballot termination test for the pair-then-plurality rule.

    A candidate can survive its opening pair iff the cast weight against it
    is at most half the total (unknown agents can supply the rest).  Among
    each achievable set of survivors, cast ballots transfer to their
    highest-ranked survivor, and a survivor is a possible winner iff the
    unknown weight closes every tally gap.  Over iff one possible winner
    remains.  The sets double with each pair whose sides can both survive,
    so ``cap`` bounds how many are tallied (CapExceeded past it).  Raises
    ModelMismatch if a cast ballot is genuinely partial.
    """
    profile = fixed_view(profile)
    m = profile.m
    validate_rule_for(Hybrid(pairing), m)
    if m == 1:
        return True
    found: set[int] = set()
    for winners in _hybrid_rounds(
        pairing, *profile.fixed_arrays, m, profile.total_weight, True, cap, profile.unknown_weight
    ):
        found.update(winners)
        if len(found) > 1:
            return False
    return len(found) == 1
