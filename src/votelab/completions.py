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

``search`` is the one completion-search loop: it scores every joint
completion with the rule and yields the winners it can reach.  Possible
winners, elicitation and both manipulation models differ only in when they
stop it, and in which ballots they leave free (``fixed_view``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Collection, Iterator, Sequence

from .errors import CapExceeded, NotCompletableSP
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Axis,
    PartialBallot,
    Profile,
    WeightedBallot,
    is_single_peaked,
    linear_extensions,
    single_peaked_extensions,
    single_peaked_orders,
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


def _ballot_options(
    ballot: PartialBallot,
    m: int,
    axis: Axis | None,
    locked_only: bool,
    cap: int | None,
) -> tuple[Order, ...]:
    source = ballot.locked_only() if locked_only else ballot
    if axis is None:
        options = tuple(linear_extensions(source, m, cap=cap))
    else:
        options = tuple(single_peaked_extensions(source, m, axis, cap=cap))
        if not options:
            raise NotCompletableSP(
                f"ballot with pairs {sorted(ballot.pairs)} has no single-peaked completion"
            )
    return options


def _unknown_options(m: int, axis: Axis | None) -> tuple[Order, ...]:
    if axis is None:
        return tuple(sorted(permutations(range(m))))
    return tuple(sorted(single_peaked_orders(axis)))


def completion_groups(
    profile: Profile,
    *,
    axis: Axis | None = None,
    locked_only: bool = False,
    option_key=None,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> tuple[OptionGroup, ...]:
    """Build the option groups of a profile's joint-completion space.

    Args:
        axis: restrict every completion to be single-peaked on this axis.
        locked_only: complete partial ballots from their locked pairs only
            (the preference-manipulation view) instead of all commitments.
        option_key: optional sort key applied to each group's options
            (used to steer search order); options are lexicographic by
            candidate id otherwise.
        cap: per-ballot guard against enormous option lists.

    Groups are ordered by descending ballot weight.
    """
    m = profile.m
    raw: list[tuple[int, int, tuple[Order, ...]]] = []
    for idx, ballot in enumerate(profile.ballots):
        if isinstance(ballot, WeightedBallot):
            if axis is not None and not is_single_peaked(ballot.order, axis):
                raise NotCompletableSP(
                    f"complete ballot {ballot.order} is not single-peaked on the axis"
                )
            continue
        options = _ballot_options(ballot, m, axis, locked_only, cap)
        if option_key is not None:
            options = tuple(sorted(options, key=option_key))
        raw.append((idx, ballot.weight, options))

    grouped: dict[tuple[int, tuple[Order, ...]], list[int]] = {}
    for idx, weight, options in raw:
        grouped.setdefault((weight, options), []).append(idx)

    groups = [
        OptionGroup(weight, len(indices), options, tuple(indices))
        for (weight, options), indices in grouped.items()
    ]
    if profile.unknown_weight > 0:
        options = _unknown_options(m, axis)
        if option_key is not None:
            options = tuple(sorted(options, key=option_key))
        groups.append(OptionGroup(1, profile.unknown_weight, options, ()))
    groups.sort(key=lambda g: (-g.weight, g.indices))
    return tuple(groups)


def space_size(groups: Sequence[OptionGroup]) -> int:
    size = 1
    for group in groups:
        size *= group.size
    return size


def check_cap(groups: Sequence[OptionGroup], cap: int | None) -> int:
    size = space_size(groups)
    if cap is not None and size > cap:
        raise CapExceeded(
            f"joint-completion space holds {size} completions, above the cap of {cap}",
            size,
        )
    return size


def iter_assignments(
    groups: Sequence[OptionGroup],
) -> Iterator[tuple[tuple[Order, ...], ...]]:
    """Yield one options-tuple per group (one order per ballot in the group).

    Within a group the options assigned to its interchangeable ballots form
    a non-decreasing sequence of option indices, so each multiset appears
    exactly once.  The stream is deterministic.
    """
    chosen: list[tuple[Order, ...]] = []

    def walk(gi: int) -> Iterator[tuple[tuple[Order, ...], ...]]:
        if gi == len(groups):
            yield tuple(chosen)
            return
        group = groups[gi]
        combo: list[Order] = []

        def fill(slot: int, start: int) -> Iterator[tuple[tuple[Order, ...], ...]]:
            if slot == group.count:
                chosen.append(tuple(combo))
                yield from walk(gi + 1)
                chosen.pop()
                return
            for oi in range(start, len(group.options)):
                combo.append(group.options[oi])
                yield from fill(slot + 1, oi)
                combo.pop()

        yield from fill(0, 0)

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
    """The profile with the ballots at ``free`` indices blanked to full
    freedom and every other total partial ballot cast as its order.

    Completions and winners are unchanged, and the view's ``fixed_arrays``
    cover every total ballot outside ``free``.  Returns the profile itself
    when nothing changes.
    """
    m = profile.m
    ballots = []
    for idx, ballot in enumerate(profile.ballots):
        if idx in free:
            ballot = PartialBallot(frozenset(), ballot.weight)
        elif isinstance(ballot, PartialBallot) and ballot.is_total(m):
            ballot = WeightedBallot(ballot.to_order(m), ballot.weight)
        ballots.append(ballot)
    if all(new is old for new, old in zip(ballots, profile.ballots)):
        return profile
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
