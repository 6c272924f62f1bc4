"""Joint-completion enumeration for incomplete profiles.

A joint completion assigns one linear extension to every partial ballot
(the ballot's whole weight moves together) and one total order to every
unit of wholly-unknown weight (each unit is an independent agent).

Interchangeable agents are merged: ballots with the same weight and the
same option list form a group enumerated as a multiset, and the unknown
pool is one group of unit agents.  This never changes the set of reachable
elections, only how often each is visited, so decision procedures built on
the stream are unaffected.  The completion cap is checked against the
merged count before enumeration begins; nothing is ever truncated.

``search`` scores every joint completion with the rule and yields each
assignment with the winners it can reach; ``elicitation._winner_stream``
builds the groups and yields that stream from the pairwise projection for
Cup and Copeland(2).  Possible winners, the termination planner's engine
and both manipulation models differ only in when they stop the stream and
in which ballots they leave free, which ``fixed_view`` alone decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, permutations, repeat
from typing import Collection, Iterator, Sequence

from .errors import ModelMismatch, NotCompletableSP, charge, within
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Axis,
    PartialBallot,
    Profile,
    WeightedBallot,
    _check_axis,
    _count_extensions,
    is_single_peaked,
    linear_extensions,
)
from .rules import Rule, _achievable_ids

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
    ballot: PartialBallot, m: int, axis: Axis | None, cap: int | None
) -> tuple[Order, ...]:
    """Every order the ballot may take, lexicographic by candidate id.

    A ballot without commitments (an empty partial ballot, or one unknown
    agent) may take any of m! orders, or 2^(m-1) on an axis; they are
    counted, and refused past ``cap``, before any is built.  Every other
    ballot is walked by ``linear_extensions``, after its extensions are
    counted and refused past ``cap`` when that bound is above it.
    """
    bound = math.factorial(m) if axis is None else 2 ** (m - 1)
    if not ballot.pairs:
        charge(bound, cap, "orders of a ballot without commitments")
        if axis is None:
            return tuple(permutations(range(m)))
    elif not within(bound, cap):
        _count_extensions(ballot, m, cap, axis)
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
        cap: per-ballot guard against enormous option lists; the unknown
            pool counts as one ballot.

    Options are lexicographic by candidate id, and groups are ordered by
    descending ballot weight.  Each distinct set of commitments has its
    options built once per call.
    """
    m = profile.m
    if axis is not None:
        _check_axis(axis, m)
    options_of: dict[frozenset[tuple[int, int]], tuple[Order, ...]] = {}
    grouped: dict[tuple[int, tuple[Order, ...]], list[int]] = {}
    for idx, ballot in enumerate(profile.ballots):
        if isinstance(ballot, WeightedBallot):
            if axis is not None and not is_single_peaked(ballot.order, axis):
                raise NotCompletableSP(
                    f"complete ballot {ballot.order} is not single-peaked on the axis"
                )
            continue
        options = options_of.get(ballot.pairs)
        if options is None:
            options = options_of[ballot.pairs] = _options(ballot, m, axis, cap)
        grouped.setdefault((ballot.weight, options), []).append(idx)

    groups = [
        OptionGroup(weight, len(indices), options, tuple(indices))
        for (weight, options), indices in grouped.items()
    ]
    if profile.unknown_weight > 0:
        # an unknown agent is a ballot without commitments
        options = options_of.get(frozenset()) or _options(
            PartialBallot(frozenset(), 1), m, axis, cap
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
) -> Iterator[tuple[tuple[Order, ...], ...]]:
    """Yield one options-tuple per group (one order per ballot in the group).

    Within a group the options assigned to its interchangeable ballots form
    a non-decreasing sequence of option indices, so each multiset appears
    exactly once.  The stream is deterministic, and each group's
    combinations are produced only as the walk reaches them.
    """
    chosen: list[tuple[Order, ...]] = []

    def walk(gi: int) -> Iterator[tuple[tuple[Order, ...], ...]]:
        if gi == len(groups):
            yield tuple(chosen)
            return
        group = groups[gi]
        for combo in combinations_with_replacement(group.options, group.count):
            chosen.append(combo)
            yield from walk(gi + 1)
            chosen.pop()

    return walk(0)


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


def search(
    rule: Rule,
    profile: Profile,
    groups: Sequence[OptionGroup],
    cap: int | None,
) -> Iterator[tuple[tuple[tuple[Order, ...], ...], frozenset[int]]]:
    """Yield (assignment, achievable winner ids) for every joint completion.

    Raises CapExceeded before the first item when the merged space is larger
    than ``cap``, and while scoring a completion whose STV elimination search
    passes it.  Callers stop the stream as soon as they have their answer.
    """
    check_cap(groups, cap)
    m = profile.m
    total = profile.total_weight
    for assignment in iter_assignments(groups):
        orders, weights = completed_arrays(profile, groups, assignment)
        yield assignment, _achievable_ids(rule, orders, weights, m, total, cap=cap)


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
    ballots = []
    for idx, ballot in enumerate(profile.ballots):
        if idx in free:
            locked = ballot.locked if isinstance(ballot, PartialBallot) else frozenset()
            ballot = PartialBallot(locked, ballot.weight, locked)
        elif isinstance(ballot, PartialBallot):
            if not ballot.is_total(m):
                raise ModelMismatch(
                    f"ballot {idx} is genuinely partial; outside the free "
                    "ballots every vote must be a total order"
                )
            ballot = WeightedBallot(ballot.to_order(m), ballot.weight)
        ballots.append(ballot)
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
