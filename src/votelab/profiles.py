"""Core data model: candidates, ballots, profiles, and pairwise tallies.

Candidates are identified by dense integer ids; ballots reference ids only.
A profile mixes three kinds of voter mass:

* complete weighted ballots (a weight-k ballot is k agents voting alike),
* partial ballots, each a consistent set of pairwise commitments whose
  whole weight completes to a single linear extension,
* ``unknown_weight``, the total weight of agents about whom nothing is
  known; each unit of it may independently cast any total order.

All structures are immutable after construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterator, Union

from .errors import InvalidProfile, NotCompletableSP, charge

#: Default ``cap``: the units of work any bounded search may count.
DEFAULT_COMPLETION_CAP = 10**6

#: Weights must fit in a signed 64-bit integer.
MAX_WEIGHT = 2**63 - 1

Pair = tuple[int, int]


@dataclass(frozen=True)
class Candidate:
    """A candidate: dense id plus display label."""

    id: int
    label: str


@dataclass(frozen=True)
class Axis:
    """A left-to-right ordering of all candidate ids for single-peakedness."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = self.order
        try:
            valid = all(map(_is_int, order)) and sorted(order) == list(range(len(order)))
        except TypeError:  # not a sequence
            valid = False
        if not valid:
            raise InvalidProfile(f"axis must order the int candidate ids 0..m-1, got {order!r}")

    def position(self, cand: int) -> int:
        return self.order.index(cand)


def _check_axis(axis: Axis, m: int | None = None) -> None:
    """InvalidProfile unless ``axis`` is an ``Axis``, over m candidates when m is given."""
    if not isinstance(axis, Axis):
        raise InvalidProfile(f"an axis must be an Axis, got {type(axis).__name__}")
    if m is not None and len(axis.order) != m:
        raise InvalidProfile(f"the axis orders {len(axis.order)} candidates, not {m}")


def _is_int(x: object) -> bool:
    """Is ``x`` an int and not a bool?  Candidate ids, weights and scores are."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_weight(weight: int, what: str = "weight", least: int = 1) -> None:
    if not _is_int(weight):
        raise InvalidProfile(f"{what} must be an integer, got {weight!r}")
    if weight < least:
        raise InvalidProfile(f"{what} must be at least {least}, got {weight}")
    if weight > MAX_WEIGHT:
        raise InvalidProfile(f"{what} {weight} exceeds the 64-bit bound")


def transitive_closure(pairs: Sequence[Pair]) -> frozenset[Pair]:
    """Transitive closure of a set of (preferred, other) pairs.

    Raises:
        InvalidProfile: if the pairs imply a preference cycle.
    """
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        if a == b:
            raise InvalidProfile(f"pair ({a},{b}) relates a candidate to itself")
        succ.setdefault(a, set()).add(b)
    closure: set[Pair] = set()
    for start in succ:
        seen: set[int] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if start in seen:
            raise InvalidProfile("pairwise commitments contain a cycle")
        closure.update((start, b) for b in seen)
    return frozenset(closure)


@dataclass(frozen=True, init=False, slots=True)
class WeightedBallot:
    """A complete strict ranking cast with integer weight.

    ``order`` ranks the ids 0..k-1 once each, as ints that are not bools,
    where k is its length; the constructor refuses any other order, so a
    profile over m candidates needs only ``len(order) == m``.  It is stored
    as a tuple: a tuple is kept as given, another sequence is converted, so
    ballots built from one tuple share it.  The constructor fills the two
    slots through their descriptors.
    """

    order: tuple[int, ...]
    weight: int

    def __init__(self, order: Sequence[int], weight: int) -> None:
        # an exact int in range needs none of _check_weight's tests
        if type(weight) is not int or not 0 < weight <= MAX_WEIGHT:
            _check_weight(weight)
        if type(order) is not tuple:
            if not isinstance(order, Sequence):
                raise InvalidProfile(f"a ballot order is a sequence of ids, got {order!r}")
            order = tuple(order)
        try:
            ids = set(order)
        except TypeError as exc:  # an unhashable entry
            raise InvalidProfile(f"ballot order {order} holds a non-id entry") from exc
        k = len(order)
        if len(ids) != k:
            raise InvalidProfile(f"ballot order {order} repeats a candidate")
        # k distinct entries equal to 0..k-1 are those ids; they sum to an int
        # only when each is one (1.0 == 1 passes the other tests), and of
        # those, only the entries equal to 0 and 1 may be bools
        try:
            ranking = k == 0 or (
                ids.issuperset(range(k))
                and type(sum(order)) is int
                and type(order[order.index(0)]) is not bool
                and (k == 1 or type(order[order.index(1)]) is not bool)
            )
        except TypeError:  # the sum of entries whose types do not add (Decimal, float)
            ranking = False
        if not ranking:
            raise InvalidProfile(f"ballot {order} must rank exactly the declared candidates")
        _set_order(self, order)
        _set_weight(self, weight)

    def pairs(self) -> frozenset[Pair]:
        """All pairwise commitments implied by the ranking."""
        o = self.order
        return frozenset((o[i], o[j]) for i in range(len(o)) for j in range(i + 1, len(o)))


# the slot descriptors' setters get past the refusing __setattr__, and cost
# about a third less than two object.__setattr__ calls
_set_order = WeightedBallot.order.__set__  # type: ignore[attr-defined]
_set_weight = WeightedBallot.weight.__set__  # type: ignore[attr-defined]


def _checked_ballot(order: tuple[int, ...], weight: int) -> WeightedBallot:
    """A ballot whose order and weight the caller has already checked as the
    constructor would: the text reader, which checks each order token once
    and builds one ballot per distinct vote line."""
    ballot = object.__new__(WeightedBallot)
    _set_order(ballot, order)
    _set_weight(ballot, weight)
    return ballot


@dataclass(frozen=True, init=False, slots=True)
class PartialBallot:
    """A consistent set of pairwise commitments with weight.

    The constructor stores the transitive closure of the given pairs, so two
    ballots with the same implied preferences compare equal regardless of
    which generating pairs were supplied.  ``locked`` marks the immutable
    subset used by the preference-manipulation model; it must be contained
    in the closure.
    """

    pairs: frozenset[Pair]
    weight: int
    locked: frozenset[Pair]

    def __init__(
        self,
        pairs: Sequence[Pair] | frozenset[Pair],
        weight: int,
        locked: Sequence[Pair] | frozenset[Pair] = (),
    ):
        _check_weight(weight)
        try:
            pairs, locked_set = tuple(pairs), frozenset(locked)
            if not all(map(_is_int, chain(*pairs, *locked_set))):
                raise InvalidProfile("a partial ballot's pairs hold int candidate ids")
            closure = transitive_closure(pairs)
        except (TypeError, ValueError) as exc:
            raise InvalidProfile(f"a partial ballot takes (preferred, other) pairs: {exc}") from exc
        if not locked_set <= closure:
            raise InvalidProfile("locked pairs must lie inside the closure of the ballot's pairs")
        object.__setattr__(self, "pairs", closure)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "locked", locked_set)

    def __repr__(self) -> str:
        return f"PartialBallot(pairs={sorted(self.pairs)}, weight={self.weight}, locked={sorted(self.locked)})"

    def is_total(self, m: int) -> bool:
        """True when the closure ranks all m candidates completely."""
        return len(self.pairs) == m * (m - 1) // 2

    def to_order(self, m: int) -> tuple[int, ...]:
        """The unique ranking when the ballot is total; error otherwise."""
        if not self.is_total(m):
            raise InvalidProfile("ballot is not a complete ranking")
        above = {c: 0 for c in range(m)}
        for _, b in self.pairs:
            above[b] += 1
        return tuple(sorted(range(m), key=lambda c: above[c]))

    def locked_only(self) -> "PartialBallot":
        """The ballot cut back to its locked pairs (manipulation view); itself if all are."""
        if self.pairs == self.locked:
            return self
        return PartialBallot(self.locked, self.weight, self.locked)

    @staticmethod
    def from_order(order: Sequence[int], weight: int, locked_all: bool = False) -> "PartialBallot":
        """The total ballot of a ranking, all of its pairs locked with
        ``locked_all``; the order must be one a ``WeightedBallot`` takes, so
        a sub-order such as (2, 0) is refused."""
        ballot = WeightedBallot(tuple(order), weight)
        pairs = ballot.pairs()
        return PartialBallot(pairs, weight, pairs if locked_all else ())


def _refuse(self: Ballot, name: str, *value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


# a frozen slotted dataclass refuses a name that is not a field with a bare
# TypeError (its __setattr__ closes over the class that slots=True replaces)
WeightedBallot.__setattr__ = WeightedBallot.__delattr__ = _refuse  # type: ignore[method-assign]
PartialBallot.__setattr__ = PartialBallot.__delattr__ = _refuse  # type: ignore[method-assign]

Ballot = Union[WeightedBallot, PartialBallot]


@dataclass(frozen=True)
class Profile:
    """An election: candidates, ballots, and wholly-unknown weight.

    With ``strict_odd`` (the default) the total weight must be odd, which
    rules out pairwise ties.  Constructions that deliberately use even
    totals pass ``strict_odd=False``.

    ``candidates`` and ``ballots`` are stored as tuples, each read once, so
    an iterator gives what its items would.  Aggregates read ``ballots`` slot
    by slot.  A complete ballot ranks the ids 0..k-1 by construction, so the
    constructor checks only that k is m; each distinct set of partial-ballot
    pairs is checked once against the candidates.  The first failing slot
    raises, and a slot holding anything but a ballot is refused by number.
    """

    candidates: tuple[Candidate, ...]
    ballots: tuple[Ballot, ...] = ()
    unknown_weight: int = 0
    strict_odd: bool = True

    def __post_init__(self) -> None:
        # tuple() keeps a tuple as given, reads an iterator once, and copies
        # a list, which its owner could change under the cached aggregates
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "ballots", tuple(self.ballots))
        m = len(self.candidates)
        if m == 0:
            raise InvalidProfile("a profile needs at least one candidate")
        if not all(map(isinstance, self.candidates, repeat(Candidate))):
            raise InvalidProfile(
                "candidates must be Candidate objects (see candidates_from_labels)"
            )
        ids = [c.id for c in self.candidates]
        if ids != list(range(m)):
            raise InvalidProfile("candidate ids must be dense and in declaration order")
        labels = [c.label for c in self.candidates]
        if len(set(labels)) != m:
            raise InvalidProfile("candidate labels must be unique")
        _check_weight(self.unknown_weight, "unknown_weight", 0)
        universe = set(range(m))
        # the partial check reads only the pairs, so each set of them is
        # checked once however many slots carry it
        checked: set[frozenset[Pair]] = set()
        for ballot in self.ballots:
            if isinstance(ballot, WeightedBallot):
                if len(ballot.order) != m:
                    raise InvalidProfile(
                        f"ballot {ballot.order} must rank exactly the declared candidates"
                    )
            elif isinstance(ballot, PartialBallot):
                pairs = ballot.pairs
                if pairs not in checked:
                    if not universe.issuperset(chain.from_iterable(pairs)):
                        raise InvalidProfile("partial ballot mentions undeclared candidates")
                    checked.add(pairs)
            else:
                slot = next(i for i, b in enumerate(self.ballots) if b is ballot)
                raise InvalidProfile(f"ballot slot {slot} holds {ballot!r}, not a ballot")
        total = self.total_weight
        if total > MAX_WEIGHT:
            raise InvalidProfile("total weight exceeds the 64-bit bound")
        if self.strict_odd and total % 2 == 0:
            raise InvalidProfile(
                f"total weight {total} is even; odd totals are required "
                "(construct with strict_odd=False to allow this)"
            )

    @property
    def m(self) -> int:
        return len(self.candidates)

    # Aggregates are cached in the instance __dict__; the fields they read
    # are frozen, so a cached value never goes stale.

    @cached_property
    def total_weight(self) -> int:
        return sum([b.weight for b in self.ballots]) + self.unknown_weight

    @cached_property
    def is_complete(self) -> bool:
        """True when every ballot is a full ranking and nothing is unknown."""
        return self.unknown_weight == 0 and all(
            map(isinstance, self.ballots, repeat(WeightedBallot))
        )

    def candidate(self, cand: int | Candidate) -> Candidate:
        """The candidate that ``cand``, an id or a ``Candidate``, names;
        InvalidProfile unless it names one of the profile's."""
        if _is_int(cand) and 0 <= cand < self.m or cand in self.candidates:
            return self.candidates[getattr(cand, "id", cand)]
        raise InvalidProfile(f"{cand!r} is not a candidate of the profile")

    def by_label(self, label: str) -> Candidate:
        for c in self.candidates:
            if c.label == label:
                return c
        raise InvalidProfile(f"no candidate labelled {label!r}")

    def complete_arrays(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(orders, weights) arrays for a complete profile; error otherwise.

        The same arrays as ``fixed_arrays``, which for a complete profile
        cover every ballot.
        """
        if not self.is_complete:
            raise InvalidProfile("operation requires a complete profile")
        return self.fixed_arrays

    @cached_property
    def fixed_arrays(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(orders, weights) of the complete (``WeightedBallot``) ballots.

        Identical orders are merged: each distinct order appears once, in
        first-seen order, weighted by the sum of its ballots' weights.  Every
        rule tallies linearly in weight and ignores ballot order, so the
        merged arrays elect exactly as the ballots do.  Partial ballots and
        unknown weight are left out.
        """
        merged: dict[tuple[int, ...], int] = {}
        for b in self.ballots:
            if isinstance(b, WeightedBallot):
                merged[b.order] = merged.get(b.order, 0) + b.weight
        return tuple(merged), tuple(merged.values())


def candidates_from_labels(labels: Sequence[str]) -> tuple[Candidate, ...]:
    return tuple(Candidate(i, lab) for i, lab in enumerate(labels))


# ---------------------------------------------------------------------------
# Pairwise tallies


def pairwise_counts(
    orders: Sequence[Sequence[int]], weights: Sequence[int], m: int
) -> list[list[int]]:
    """``n[i][j]``: the weight of the orders that rank i above j."""
    n = [[0] * m for _ in range(m)]
    for order, w in zip(orders, weights):
        for i, a in enumerate(order):
            row = n[a]
            for b in order[i + 1 :]:
                row[b] += w
    return n


# ---------------------------------------------------------------------------
# Completions of a single ballot


def _placement_masks(
    ballot: PartialBallot, m: int, axis: Axis | None
) -> tuple[int, list[int], list[int]]:
    """The full placed set, each candidate's committed-above set, and
    ``widen[c]``: the candidates that may follow once c is placed (all of
    them without an axis, c's axis neighbours with one)."""
    full = (1 << m) - 1
    above = [0] * m
    for a, b in ballot.pairs:
        above[b] |= 1 << a
    widen = [full] * m
    if axis is not None:
        _check_axis(axis, m)
        order = axis.order
        for i, cand in enumerate(order):
            neighbours = order[max(i - 1, 0) : i] + order[i + 1 : i + 2]
            widen[cand] = sum(1 << x for x in neighbours)
    return full, above, widen


def linear_extensions(
    ballot: PartialBallot,
    m: int,
    cap: int | None = DEFAULT_COMPLETION_CAP,
    axis: Axis | None = None,
) -> Iterator[tuple[int, ...]]:
    """All total orders on 0..m-1 extending the ballot's commitments.

    With an axis, only the extensions single-peaked on it.  Such an order
    starts at its peak, and each next candidate widens the axis segment
    ranked so far by one position on the left or right, so after the peak
    only the (at most two) candidates at the segment's ends are tried.

    A candidate is placed once every candidate the ballot commits above it
    is placed; the placed set and each candidate's committed-above set are
    bitmasks.  Candidates are tried in ascending id, so orders come out
    lazily in lexicographic candidate-id order.  A placed set that completes
    to no extension is remembered and not walked again.  Without an axis
    that memo never fires: every placed set that respects the commitments
    extends.  Raises CapExceeded as soon as more than ``cap`` extensions
    would be produced; nothing is ever silently dropped.  An axis over other
    than m candidates raises InvalidProfile.
    """
    full, above, widen = _placement_masks(ballot, m, axis)
    return _extensions(full, above, widen, cap)


def _extensions(
    full: int, above: list[int], widen: list[int], cap: int | None
) -> Iterator[tuple[int, ...]]:
    # One frame per placed prefix: [placed, reach, untried, produced on
    # entry].  prefix ranks exactly the placed candidates of the top frame;
    # reach ORs their widen masks, and is 0 before the first, which may be
    # any candidate.  A frame's untried candidates are saved when it
    # descends, and a frame that produced nothing marks its placed set dead.
    if not full:  # no candidates: the empty order is the one extension
        charge(1, cap, "extensions of a ballot")
        yield ()
        return
    produced = 0
    prefix: list[int] = []
    dead: set[int] = set()
    frames = [[0, 0, full, 0]]
    while frames:
        frame = frames[-1]
        placed, reach, untried, before = frame
        while untried:
            bit = untried & -untried
            untried ^= bit
            cand = bit.bit_length() - 1
            if above[cand] & ~placed:
                continue
            child = placed | bit
            if child == full:
                produced = charge(produced + 1, cap, "extensions of a ballot")
                yield (*prefix, cand)
            elif child not in dead:
                frame[2] = untried
                prefix.append(cand)
                child_reach = reach | widen[cand]
                frames.append([child, child_reach, (child_reach or full) & ~child, produced])
                break
        else:
            frames.pop()
            if prefix:
                prefix.pop()
            if produced == before:
                dead.add(placed)


def _count_extensions(
    ballot: PartialBallot, m: int, cap: int | None, axis: Axis | None
) -> int:
    """How many orders ``linear_extensions`` would produce, without listing one.

    The same placement rules are walked over placed sets alone, once each:
    after a placed set the reach is the OR of its widen masks, so the set
    decides which candidates may follow, and its count is memoised.  A
    placed set's count is at most the ballot's, so CapExceeded is raised as
    soon as one passes ``cap``, with that count as the estimate.  Each placed
    set that completes to an extension is a prefix of one, so a ballot with
    at most ``cap`` extensions has at most ``(m + 1) * cap`` such sets, and
    the walk charges each against that bound.  A set that completes to none
    needs an axis, which has at most m(m+1)/2 segments.
    """
    full, above, widen = _placement_masks(ballot, m, axis)
    limit = None if cap is None else (m + 1) * cap
    memo: dict[int, int] = {full: 1}
    live = 0

    def count(placed: int, reach: int) -> int:
        nonlocal live
        known = memo.get(placed)
        if known is not None:
            return known
        total = 0
        open_ = (reach or full) & ~placed
        while open_:
            bit = open_ & -open_
            open_ ^= bit
            cand = bit.bit_length() - 1
            if not above[cand] & ~placed:
                total += count(placed | bit, reach | widen[cand])
        if total:
            live = charge(live + 1, limit, "placed sets of a ballot")
            charge(total, cap, "extensions of a ballot")
        memo[placed] = total
        return total

    return count(0, 0)


# ---------------------------------------------------------------------------
# Single-peakedness


def is_single_peaked(order: Sequence[int], axis: Axis) -> bool:
    """Check one complete ranking against an axis.

    A ranking is single-peaked when, walking down the ranking, each next
    candidate extends the contiguous axis segment formed so far by one
    position on the left or right.
    """
    pos = axis.order.index
    lo = hi = pos(order[0])
    for cand in order[1:]:
        p = pos(cand)
        if p == lo - 1:
            lo = p
        elif p == hi + 1:
            hi = p
        else:
            return False
    return True


def single_peaked_orders(
    axis: Axis, cap: int | None = DEFAULT_COMPLETION_CAP
) -> Iterator[tuple[int, ...]]:
    """All single-peaked total orders for an axis (2^(m-1) of them; the
    empty axis has the one empty order).

    The extensions of a ballot without commitments, walked by
    ``linear_extensions``: lazily, in lexicographic candidate-id order.
    Raises CapExceeded as soon as more than ``cap`` orders would be produced.
    """
    _check_axis(axis)
    return linear_extensions(PartialBallot(frozenset(), 1), len(axis.order), cap, axis)


def single_peaked_extensions(
    ballot: PartialBallot,
    m: int,
    axis: Axis,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> Iterator[tuple[int, ...]]:
    """``linear_extensions`` on an axis, kept because the package exports this name."""
    return linear_extensions(ballot, m, cap, axis)


def sp_completable(ballot: PartialBallot, m: int, axis: Axis) -> bool:
    return next(linear_extensions(ballot, m, None, axis), None) is not None


def single_peaked_condorcet_winner(profile: Profile, axis: Axis) -> Candidate:
    """The weighted-median peak of a complete single-peaked profile.

    With an odd total weight this candidate beats every other in a pairwise
    majority contest.

    Raises:
        InvalidProfile: if the profile is incomplete, has even total weight,
            or the axis does not order exactly its candidates.
        NotCompletableSP: if some ballot is not single-peaked on the axis.
    """
    if not profile.is_complete:
        raise InvalidProfile("the median-peak winner needs a complete profile")
    lo, _ = _median_peaks(profile, axis)
    return profile.candidates[axis.order[lo]]


def _median_peaks(profile: Profile, axis: Axis) -> tuple[int, int]:
    """Axis positions of the weighted-median peak with every agent at its
    leftmost achievable peak, and with every agent at its rightmost.

    Complete ballots peak at their first choice, and the unknown pool
    anywhere.  A partial ballot may peak at a candidate it ranks below
    no one iff its pairs plus that candidate above all others complete
    single-peaked.  The median is the least position that, with every
    position left of it, holds a majority of the odd total weight.

    Raises:
        InvalidProfile: if the total weight is even, or the axis does not
            order exactly the profile's candidates.
        NotCompletableSP: if some ballot has no single-peaked completion.
    """
    m = profile.m
    total = profile.total_weight
    if total % 2 == 0:
        raise InvalidProfile("the median-peak test needs an odd total weight")
    _check_axis(axis, m)
    spans = [(0, m - 1, profile.unknown_weight)]
    for order, weight in zip(*profile.fixed_arrays):
        if not is_single_peaked(order, axis):
            raise NotCompletableSP(f"complete ballot {order} is not single-peaked on the axis")
        peak = axis.position(order[0])
        spans.append((peak, peak, weight))
    # ballots with one set of pairs share their peaks: each set is walked
    # once, in first-seen order, so the first failing slot still raises
    weight_of: dict[frozenset[Pair], int] = {}
    for ballot in profile.ballots:
        if not isinstance(ballot, WeightedBallot):
            weight_of[ballot.pairs] = weight_of.get(ballot.pairs, 0) + ballot.weight
    for pairs, weight in weight_of.items():
        below = {b for _, b in pairs}
        peaks = [
            axis.position(c)
            for c in range(m)
            if c not in below
            and sp_completable(
                PartialBallot(pairs | {(c, x) for x in range(m) if x != c}, 1), m, axis
            )
        ]
        if not peaks:
            raise NotCompletableSP(
                f"ballot with pairs {sorted(pairs)} has no single-peaked completion"
            )
        spans.append((min(peaks), max(peaks), weight))

    def median(side: int) -> int:
        seen = 0  # the spans' weights sum to the total, so this returns
        for span in sorted(spans, key=itemgetter(side)):
            seen += span[2]
            if 2 * seen > total:
                return span[side]

    return median(0), median(1)
