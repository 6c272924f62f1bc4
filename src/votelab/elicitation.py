"""Termination tests for vote elicitation.

An election may be decided before every preference is known: however the
missing ballots and unresolved pairwise comparisons are filled in, the same
candidate wins.  The predicates here answer that question for two styles of
elicitation: whole-ballot (some agents have not voted at all, the rest are
fully known) and pairwise (individual ballots may be partial orders).

A candidate is a *possible winner* when some joint completion, combined
with some resolution of the rule's internal ties, elects it.  Elicitation
is over exactly when a single possible winner remains.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Collection, Iterator, Sequence

from .completions import Order, OptionGroup, completion_groups, fixed_view, search
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
) -> Iterator[tuple[tuple[tuple[Order, ...], ...] | None, frozenset[int]]]:
    """(assignment or None, achievable ids) per reachable majority sign
    pattern, in sorted order: ``search``'s stream for a pairwise rule.

    Every ballot option is projected onto the pairs whose majority sign is
    still open, and the projections are summed with deduplication.  Sums only
    grow, and once a pair's sum reaches ``(total - 2*base)//2 + 1`` its sign
    is +1 for good, so every running sum is clamped there without losing a
    reachable sign matrix.  A group of interchangeable ballots stops summing
    at a fixpoint, when one more ballot adds no new clamped sum.  The summing,
    bounded by ``cap``, runs before this returns; the rule is decided lazily,
    once per pattern.

    With a ``target`` every clamped sum keeps one predecessor, the sum it came
    from and the projection added, per group step (the fixpoint step stands
    for the rest) and per group.  A pattern the target wins is read back to
    one option per ballot, as ``search`` assigns them.  Projections are
    non-negative, so each clamped sum on the way equals the true sum capped
    at its pair's clamp, and the read-back completion has that pattern.
    """
    m = profile.m
    total = profile.total_weight
    base, group_pos, reach = _pair_bounds(profile, groups)

    forced: dict[tuple[int, int], int] = {}
    open_pairs: list[tuple[int, int]] = []
    for i, j in combinations(range(m), 2):
        s_lo, s_hi = _sgn(total - 2 * reach[j][i]), _sgn(2 * reach[i][j] - total)
        if s_lo == s_hi:
            forced[(i, j)] = s_lo
        else:
            open_pairs.append((i, j))

    zero = (0,) * len(open_pairs)
    sat = [(total - 2 * base[i][j]) // 2 + 1 for i, j in open_pairs]
    work = 0

    def add_clamped(
        vecs: Collection[tuple[int, ...]],
        adds: Collection[tuple[int, ...]],
        back: dict | None = None,
    ) -> Collection[tuple[int, ...]]:
        """Every clamped vec + add.  With ``back``, each sum is stored there
        with the first (vec, add) that reached it, and its keys are returned."""
        nonlocal work
        if open_pairs:  # summing empty vectors costs nothing
            work = charge(work + len(vecs) * len(adds), cap, "pairwise-projection sums")
        if back is None:
            return {
                tuple([a + b if a + b < s else s for a, b, s in zip(vec, add, sat)])
                for vec in vecs
                for add in adds
            }
        for vec in vecs:
            for add in adds:
                back.setdefault(
                    tuple([a + b if a + b < s else s for a, b, s in zip(vec, add, sat)]),
                    (vec, add),
                )
        return back.keys()

    keep = target is not None
    # per group, with a target: the first option of each projection, each
    # step's predecessors, and the predecessors of the running totals
    trail = []
    totals: Collection[tuple[int, ...]] = {zero}
    for group, positions in zip(groups, group_pos):
        scaled: dict[tuple[int, ...], Order] = {}
        for order, pos in zip(group.options, positions):
            scaled.setdefault(
                tuple(group.weight if pos[i] < pos[j] else 0 for i, j in open_pairs),
                order,
            )
        steps: list[dict] = []
        sums: Collection[tuple[int, ...]] = {zero}
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

    margins = [2 * base[i][j] - total for i, j in open_pairs]
    patterns = {
        tuple([_sgn(2 * a + d) for a, d in zip(vec, margins)]): vec for vec in totals
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


def _read_back(
    groups: Sequence[OptionGroup], trail: Sequence, vec: tuple[int, ...]
) -> tuple[tuple[Order, ...], ...]:
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


def _target_first(groups: Sequence[OptionGroup], target: int) -> tuple[OptionGroup, ...]:
    """The groups with target-topmost options first, so witnesses surface early."""
    return tuple(
        replace(g, options=tuple(sorted(g.options, key=lambda o: (o.index(target), o))))
        for g in groups
    )


def _winner_stream(
    rule: Rule,
    profile: Profile,
    groups: Sequence[OptionGroup],
    cap: int | None,
    *,
    target: int | None = None,
) -> Iterator[tuple[tuple[tuple[Order, ...], ...] | None, frozenset[int]]]:
    """The (assignment or None, achievable ids) stream of the engine that
    fits the rule; ``search`` tries target-topmost options first."""
    if isinstance(rule, PAIRWISE_RULES):
        return _pairwise_possible_ids(rule, profile, groups, cap, target=target)
    if target is not None:
        groups = _target_first(groups, target)
    return search(rule, profile, groups, cap)


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
    groups = completion_groups(profile, axis=axis, cap=cap)
    found: set[int] = set()
    for _, ids in _winner_stream(rule, profile, groups, cap):
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


def fine_elicitation_over(
    rule: Rule,
    profile: Profile,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """True iff every joint completion of the profile elects one candidate.

    Accepts any mix of complete ballots, partial ballots and wholly unknown
    weight.  A cup over at most 3 candidates is answered by the polynomial
    ``cup3_fine_over`` unless its subset-sum work exceeds ``cap``; otherwise
    the search stops as soon as two distinct possible winners are seen.
    """
    if isinstance(rule, Cup) and profile.m <= 3:
        with suppress(CapExceeded):  # the search below has the same cap
            return cup3_fine_over(rule.agenda, profile, cap=cap)
    return len(_possible_ids(rule, profile, cap=cap, stop_at=2)) == 1


def coarse_elicitation_over(
    rule: Rule,
    profile: Profile,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """Whole-ballot termination: cast votes decide the winner already.

    The profile's only uncertainty may be wholly unknown agents
    (``unknown_weight``); a partial ballot that is not a total order raises
    ModelMismatch.  A hybrid rule is answered by ``hybrid_coarse_over``,
    which walks the sets of survivors of its round without listing any
    completion; ``cap`` bounds that walk.
    """
    if isinstance(rule, Hybrid):
        return hybrid_coarse_over(rule.pairing, profile, cap=cap)
    return fine_elicitation_over(rule, fixed_view(profile), cap=cap)


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
    if m == 1:
        return CondorcetStatus("true", profile.candidates[0])
    for c in range(m):
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
    A cup with odd total weight is answered by the polynomial
    ``cup_single_peaked_over``.
    """
    if isinstance(rule, Cup) and profile.total_weight % 2:
        validate_rule_for(rule, profile.m)
        return cup_single_peaked_over(profile, axis)
    return len(_possible_ids(rule, profile, axis=axis, cap=cap, stop_at=2)) == 1


def cup_single_peaked_over(profile: Profile, axis: Axis) -> bool:
    """Median-peak shortcut for cup elections restricted to single-peaked votes.

    With odd total weight every single-peaked completion has a Condorcet
    winner, the candidate at the weighted median peak, and a cup elects it
    under every agenda.  Elicitation is therefore over iff the median peak
    is the same when every agent sits at its leftmost achievable peak and at
    its rightmost.  Raises InvalidProfile on an even total weight, or on an
    axis that does not order exactly the profile's candidates.
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
    unknown = profile.unknown_weight
    found: set[int] = set()
    for survivors, tally in _hybrid_rounds(
        pairing, *profile.fixed_arrays, m, profile.total_weight, True, cap
    ):
        best = max(tally[c] for c in survivors)
        found.update(c for c in survivors if tally[c] + unknown >= best)
        if len(found) > 1:
            return False
    return len(found) == 1
