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
picks the engine and runs it, and the manipulation models read their
witnesses from the same stream (``_witness``).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Collection, Iterator, Sequence

from .completions import (
    Order,
    OptionGroup,
    check_cap,
    completed_arrays,
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
    pairwise_counts,
)
from .rules import (
    PAIRWISE_RULES,
    Agenda,
    Cup,
    Hybrid,
    Pairing,
    Rule,
    _achievable_ids,
    _hybrid_rounds,
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


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Possible winners over joint completions


def _positions(order: Sequence[int], m: int) -> list[int]:
    pos = [0] * m
    for idx, cand in enumerate(order):
        pos[cand] = idx
    return pos


def _pair_bounds(
    profile: Profile, groups: Sequence[OptionGroup]
) -> tuple[list[list[int]], list[list[list[int]]], list[list[int]]]:
    """Fixed pairwise counts, each group's option positions, and
    ``reach[i][j]``: the most weight a completion can rank i over j with."""
    m = profile.m
    base = pairwise_counts(*profile.fixed_arrays, m)
    group_pos = [
        [_positions(order, m) for order in group.options] for group in groups
    ]
    reach = [row[:] for row in base]
    for i, j in combinations(range(m), 2):
        for group, positions in zip(groups, group_pos):
            ahead = [pos[i] < pos[j] for pos in positions]
            bulk = group.weight * group.count
            reach[i][j] += bulk * (True in ahead)
            reach[j][i] += bulk * (False in ahead)
    return base, group_pos, reach


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

    Every ballot option is projected onto the pairs whose majority sign is
    still open, and the projections are summed with deduplication.  Sums only
    grow, and once a pair's sum reaches ``(total - 2*base)//2 + 1`` its sign
    is +1 for good, so every running sum is clamped there without losing a
    reachable sign matrix.  A group of interchangeable ballots stops summing
    at a fixpoint, when one more ballot adds no new clamped sum.  The setup
    (options times pairs, charged once) and the summing, each bounded by
    ``cap``, run before this returns; the rule is decided lazily per pattern.

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
    base, group_pos, reach = _pair_bounds(profile, groups)

    forced: dict[tuple[int, int], int] = {}
    open_pairs: list[tuple[int, int]] = []
    for i, j in combinations(range(m), 2):
        s_lo, s_hi = _sgn(total - 2 * reach[j][i]), _sgn(2 * reach[i][j] - total)
        if s_lo == s_hi:
            forced[(i, j)] = s_lo
        else:
            open_pairs.append((i, j))

    sat = [(total - 2 * base[i][j]) // 2 + 1 for i, j in open_pairs]
    width = (2 * max([*sat, *(g.weight for g in groups), 1])).bit_length() + 1
    shifts = range(0, width * len(open_pairs), width)
    top = width - 1
    guards = [at + top for at in shifts]
    S = sum(s << at for s, at in zip(sat, shifts))
    G = sum(1 << at for at in guards)
    S1 = S - sum(
        1 << at for (i, j), at in zip(open_pairs, shifts) if (total - 2 * base[i][j]) % 2 == 0
    )
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
    for group, positions in zip(groups, group_pos):
        scaled: dict[int, Order] = {}
        for order, pos in zip(group.options, positions):
            ahead = [at for (i, j), at in zip(open_pairs, shifts) if pos[i] < pos[j]]
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
            sign = [[0] * m for _ in range(m)]
            for (i, j), s in (*forced.items(), *zip(open_pairs, open_signs)):
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
    and Copeland(2), else every joint completion scored with the rule, target-
    topmost options first, refused here past ``cap`` and while scoring when an
    STV elimination passes it.  Callers stop the stream once they can answer."""
    groups = completion_groups(profile, axis=axis, cap=cap)
    if isinstance(rule, PAIRWISE_RULES):
        return groups, _pairwise_possible_ids(rule, profile, groups, cap, target=target)
    if target is not None:  # target-topmost options first, so witnesses surface early
        groups = tuple(
            replace(g, options=tuple(sorted(g.options, key=lambda o: (o.index(target), o))))
            for g in groups
        )
    check_cap(groups, cap)

    def scored():
        m, total = profile.m, profile.total_weight
        for assignment in iter_assignments(groups):
            orders, weights = completed_arrays(profile, groups, assignment)
            yield assignment, _achievable_ids(rule, orders, weights, m, total, cap=cap)
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
    when one completion's STV elimination search reaches more than ``cap``
    candidate sets.
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
    group_pos: Sequence[Sequence[list[int]]],
    base: Sequence[Sequence[int]],
    total: int,
    p: tuple[int, int],
    q: tuple[int, int],
    cap: int | None,
) -> bool:
    """Can some completion push both pairs ``p`` and ``q`` to at least half?

    Every ballot option is projected to the two booleans "p holds" and
    "q holds".  Options satisfying both dominate; ballots that can satisfy
    either but not both trade one front against the other, and the split of
    their weights is decided exactly by a subset-sum scan.
    """
    need = (total + 1) // 2
    sum_p = base[p[0]][p[1]]
    sum_q = base[q[0]][q[1]]
    swing: list[int] = []
    for group, positions in zip(groups, group_pos):
        can = {
            (pos[p[0]] < pos[p[1]], pos[q[0]] < pos[q[1]]) for pos in positions
        }
        bulk = group.weight * group.count
        if (True, True) in can:
            sum_p += bulk
            sum_q += bulk
        elif (True, False) in can and (False, True) in can:
            swing.extend([group.weight] * group.count)
        elif (True, False) in can:
            sum_p += bulk
        elif (False, True) in can:
            sum_q += bulk
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
    """
    m = profile.m
    if m > 3:
        raise ModelMismatch(f"the shortcut handles at most 3 candidates, got {m}")
    validate_rule_for(Cup(agenda), m)
    if m == 1:
        return True

    groups = completion_groups(profile, cap=None)
    base, group_pos, reach = _pair_bounds(profile, groups)
    total = profile.total_weight
    need = (total + 1) // 2

    if m == 2:
        possible = [c for c in (0, 1) if reach[c][1 - c] >= need]
        return len(possible) == 1

    semi, bye = agenda
    if isinstance(semi, int):
        semi, bye = bye, semi
    x, y = semi

    possible = set()
    for c, other in ((x, y), (y, x)):
        # Boosting c over both rivals is conflict-free per ballot, so the
        # two maxima are reached simultaneously.
        if reach[c][other] >= need and reach[c][bye] >= need:
            possible.add(c)
    for helper, rival in ((x, y), (y, x)):
        if _two_front_feasible(
            groups, group_pos, base, total, (bye, helper), (helper, rival), cap
        ):
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
