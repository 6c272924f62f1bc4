"""Joint-completion enumeration for incomplete profiles.

A joint completion assigns one linear extension to every partial ballot
(the ballot's whole weight moves together) and one total order to every
unit of wholly-unknown weight (each unit is an independent agent).

Interchangeable agents are merged: ballots with the same weight and the
same option list form a group enumerated as a multiset, and the unknown
pool is one group of unit agents.  This never changes the set of reachable
elections, only how often each is visited, so decision procedures built on
the stream are unaffected.  The completion cap is checked against the
merged count before enumeration begins; nothing is ever truncated.  An
option list that could pass ``cap``, alone or added to the running sum of
(length - 1) over the distinct lists before it, is counted before it is
built, so ``cap`` bounds the orders built as well as the completions.

``iter_assignments`` walks the merged space lazily, in O(number of groups)
memory, so a stream stopped early costs only what it visited.  An optional
hook, asked each time a group takes a multiset, may skip every assignment
below it; the rest come in the same order.

No rule is read here: ``elicitation._winner_stream`` builds the groups and
runs either engine over them on the rule's tally: the enumeration scores
each assignment's orders on top of the fixed ballots' tally, summed once,
and prunes with the rule's bound through the hook; the projection sums each
option's tally on the open pairs, for Cup and Copeland(2).
Possible winners, the termination planner's engine and both manipulation
models differ only in when they stop the stream and in which ballots they
leave free, which ``fixed_view`` alone decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, combinations_with_replacement, permutations, repeat
from typing import Callable, Collection, Iterator, Sequence

from .errors import ModelMismatch, NotCompletableSP, charge, within
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Axis,
    Ballot,
    PartialBallot,
    Profile,
    WeightedBallot,
    _check_axis,
    _count_extensions,
    is_single_peaked,
    linear_extensions,
)

Order = tuple[int, ...]


@dataclass(frozen=True)
class OptionGroup:
    """A set of interchangeable ballots and their completion options."""

    weight: int
    count: int
    options: tuple[Order, ...]
    indices: tuple[int, ...]  # profile ballot indices; empty for the unknown pool

    @property
    def size(self) -> int:
        """Number of distinct multisets of options for this group."""
        return math.comb(len(self.options) + self.count - 1, self.count)


def _options(
    ballot: PartialBallot, m: int, axis: Axis | None, cap: int | None, spent: int
) -> tuple[Order, ...]:
    """Every order the ballot may take, lexicographic by candidate id.

    A ballot without commitments (an empty partial ballot, or one unknown
    agent) may take any of m! orders, or 2^(m-1) on an axis; they are
    counted, and refused past ``cap``, before any is built.  Every other
    ballot is walked by ``linear_extensions``, after its extensions are
    counted and refused past ``cap`` when that bound is above it.

    ``spent`` is the caller's running total of (length - 1) over the lists
    built before this one.  This list's count is charged on top of it
    before any order is built, whenever the two together could pass ``cap``.
    """
    bound = math.factorial(m) if axis is None else 2 ** (m - 1)
    if not ballot.pairs:
        charge(bound, cap, "orders of a ballot without commitments")
        charge(spent + bound - 1, cap, "options across the free ballots")
        if axis is None:
            return tuple(permutations(range(m)))
    elif not (within(bound, cap) and within(spent + bound - 1, cap)):
        count = _count_extensions(ballot, m, cap, axis)
        charge(spent + count - 1, cap, "options across the free ballots")
    options = tuple(linear_extensions(ballot, m, cap, axis))
    if not options:
        raise NotCompletableSP(
            f"ballot with pairs {sorted(ballot.pairs)} has no single-peaked completion"
        )
    return options


def completion_groups(
    profile: Profile,
    *,
    axis: Axis | None = None,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> tuple[OptionGroup, ...]:
    """Build the option groups of a profile's joint-completion space.

    Every partial ballot is completed from all its commitments; the view
    from ``fixed_view`` decides which ballots are free and how far.

    Args:
        axis: restrict every completion to be single-peaked on this axis,
            which must order exactly the profile's candidates.
        cap: guard against enormous option lists.  Each list, and the sum
            of (length - 1) over the distinct lists, must stay within it; the
            unknown pool counts as one ballot.  Both are counted before the
            list that would pass them is built.

    Options are lexicographic by candidate id, and groups are ordered by
    descending ballot weight.  Each distinct set of commitments has its
    options built once per call.
    """
    m = profile.m
    if axis is not None:
        _check_axis(axis, m)
    options_of: dict[frozenset[tuple[int, int]], tuple[Order, ...]] = {}
    spent = 0  # sum of (length - 1) over the lists in options_of
    grouped: dict[tuple[int, tuple[Order, ...]], list[int]] = {}
    end = 0
    for ballot, count in zip(*profile.runs):
        start, end = end, end + count
        if isinstance(ballot, WeightedBallot):
            if axis is not None and not is_single_peaked(ballot.order, axis):
                raise NotCompletableSP(
                    f"complete ballot {ballot.order} is not single-peaked on the axis"
                )
            continue
        options = options_of.get(ballot.pairs)
        if options is None:
            options = options_of[ballot.pairs] = _options(ballot, m, axis, cap, spent)
            spent += len(options) - 1
        grouped.setdefault((ballot.weight, options), []).extend(range(start, end))

    groups = [
        OptionGroup(weight, len(indices), options, tuple(indices))
        for (weight, options), indices in grouped.items()
    ]
    if profile.unknown_weight > 0:
        # an unknown agent is a ballot without commitments
        options = options_of.get(frozenset()) or _options(
            PartialBallot(frozenset(), 1), m, axis, cap, spent
        )
        groups.append(OptionGroup(1, profile.unknown_weight, options, ()))
    groups.sort(key=lambda g: (-g.weight, g.indices))
    return tuple(groups)


def space_size(groups: Sequence[OptionGroup]) -> int:
    size = 1
    for group in groups:
        size *= group.size
    return size


def check_cap(groups: Sequence[OptionGroup], cap: int | None) -> int:
    return charge(space_size(groups), cap, "joint completions")


def iter_assignments(
    groups: Sequence[OptionGroup],
    enter: Callable[[int, tuple[Order, ...]], bool] | None = None,
) -> Iterator[tuple[tuple[Order, ...], ...]]:
    """Yield one options-tuple per group (one order per ballot in the group).

    Within a group the options assigned to its interchangeable ballots form
    a non-decreasing sequence of option indices, so each multiset appears
    exactly once.  The stream is deterministic: an odometer whose last group
    turns fastest.

    ``enter``, when given, is called each time a group other than the last
    takes a multiset, with the group's depth and that multiset; False skips
    every assignment below, and the group turns on.  The assignments it lets
    through come in the same order as without it.

    The walk is lazy and holds O(len(groups)) state: one
    ``combinations_with_replacement`` iterator per group, restarted when the
    group before it turns, so no group's multisets are ever stored.  The
    first assignment of a space of any size comes at once.
    """
    spaces = [(group.options, group.count) for group in groups]
    if not spaces:
        yield ()
        return
    if any(count and not options for options, count in spaces):
        return  # a group with ballots but no options has no multiset
    # the last group is walked by a plain loop under a fixed head; the
    # others turn only when it runs out or ``enter`` refuses their multiset
    *outer, last = spaces
    turning = [combinations_with_replacement(*space) for space in outer[:1]]
    head: list[tuple[Order, ...]] = []
    while True:
        gi = len(head)
        if gi < len(outer):
            for combo in turning[gi]:
                if enter is None or enter(gi, combo):
                    head.append(combo)
                    break
            else:  # the group ran out; the one before it turns on
                turning.pop()
                if not head:
                    return
                head.pop()
                continue
            if gi + 1 < len(outer):
                turning.append(combinations_with_replacement(*outer[gi + 1]))
            continue
        prefix = tuple(head)
        for combo in combinations_with_replacement(*last):
            yield prefix + (combo,)
        if not head:
            return
        head.pop()


def _assigned_weights(groups: Sequence[OptionGroup]) -> tuple[int, ...]:
    """Each assigned order's weight, in the order an assignment lists them."""
    return tuple(chain.from_iterable(repeat(g.weight, g.count) for g in groups))


def completed_arrays(
    profile: Profile,
    groups: Sequence[OptionGroup],
    assignment: Sequence[tuple[Order, ...]],
) -> tuple[tuple[Order, ...], tuple[int, ...]]:
    """Assemble the full (orders, weights) arrays of one joint completion."""
    orders, weights = profile.fixed_arrays
    orders_list = list(orders)
    weights_list = list(weights)
    for group, combo in zip(groups, assignment):
        for order in combo:
            orders_list.append(order)
            weights_list.append(group.weight)
    return tuple(orders_list), tuple(weights_list)


def fixed_view(profile: Profile, free: Collection[int] = ()) -> Profile:
    """The profile under one uncertainty model: only the ballots at ``free``
    indices stay open.

    A free ballot is cut back to its locked pairs; a coalition ballot has
    none, so it is blanked to full freedom.  Every other ballot must be a
    total order, else ModelMismatch, and is cast as that order, so the
    view's ``fixed_arrays`` cover every ballot outside ``free``.  Returns
    the profile itself, after one look at each run, when nothing is free and
    every ballot is cast already.
    """
    m = profile.m
    if not free and all(map(isinstance, profile.runs[0], repeat(WeightedBallot))):
        return profile
    # one view per (ballot object, free or not), so a run of one object
    # stays one run wherever its slots are all free or all fixed
    views: dict[tuple[int, bool], Ballot] = {}
    ballots = []
    for idx, ballot in enumerate(profile.ballots):
        key = (id(ballot), idx in free)
        if key in views:
            ballot = views[key]
        elif key[1]:
            locked = ballot.locked if isinstance(ballot, PartialBallot) else frozenset()
            ballot = PartialBallot(locked, ballot.weight, locked)
        elif isinstance(ballot, PartialBallot):
            if not ballot.is_total(m):
                raise ModelMismatch(
                    f"ballot {idx} is genuinely partial; outside the free "
                    "ballots every vote must be a total order"
                )
            ballot = WeightedBallot(ballot.to_order(m), ballot.weight)
        ballots.append(views.setdefault(key, ballot))
    return replace(profile, ballots=tuple(ballots))


def completed_profile(
    profile: Profile,
    groups: Sequence[OptionGroup],
    assignment: Sequence[tuple[Order, ...]],
) -> Profile:
    """The completion as a Profile, preserving original ballot positions."""
    ballots: list = list(profile.ballots)
    extra: list[WeightedBallot] = []
    for group, combo in zip(groups, assignment):
        if group.indices:
            for idx, order in zip(group.indices, combo):
                ballots[idx] = WeightedBallot(order, group.weight)
        else:
            extra.extend(WeightedBallot(order, 1) for order in combo)
    return Profile(
        candidates=profile.candidates,
        ballots=tuple(ballots) + tuple(extra),
        unknown_weight=0,
        strict_odd=profile.strict_odd,
    )
