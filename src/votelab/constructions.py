"""Bag-splitting generators: elections whose answers encode number partitioning.

Each generator maps a bag of positive integers with an even total to an
election question.  The weights are arranged so the undecided voters can
force a second outcome exactly when the bag has an equal-sum split.
``verify_reduction`` replays a generated instance against an independent
brute-force partition check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .completions import DEFAULT_COMPLETION_CAP
from .elicitation import _elicitation_over, _subset_sum_in
from .errors import InvalidInstance
from .manipulation import ManipulationInstance, preference_manipulate
from .profiles import (
    Axis,
    Candidate,
    PartialBallot,
    Profile,
    WeightedBallot,
    _is_int,
    candidates_from_labels,
)
from .rules import Agenda, Copeland, Cup, Rule, Stv

REDUCTION_KINDS = ("cup-elicit", "stv-sp-elicit", "cup-manip", "copeland-manip")


def _check_entries(numbers: Sequence[int]) -> None:
    for v in numbers:
        if not _is_int(v) or v <= 0:
            raise InvalidInstance(f"bag entries must be positive integers, got {v!r}")


@dataclass(frozen=True)
class PartitionInstance:
    """A bag of positive integers with an even total, stored sorted.

    The first number in sorted order plays the distinguished role in the
    cup generator, so sorting also makes generation deterministic.
    """

    numbers: tuple[int, ...]

    def __post_init__(self) -> None:
        numbers = tuple(sorted(self.numbers))
        if not numbers:
            raise InvalidInstance("the bag must contain at least one number")
        _check_entries(numbers)
        if sum(numbers) % 2:
            raise InvalidInstance("the bag total must be even")
        object.__setattr__(self, "numbers", numbers)

    @classmethod
    def parse(cls, text: str) -> "PartitionInstance":
        """Parse a comma-separated bag such as ``"1,1,2"``."""
        parts = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not parts:
            raise InvalidInstance("empty bag")
        try:
            values = tuple(int(piece) for piece in parts)
        except ValueError as exc:
            raise InvalidInstance(f"bad bag entry in {text!r}") from exc
        return cls(values)

    @property
    def half_sum(self) -> int:
        return sum(self.numbers) // 2


def has_equal_partition(numbers: Sequence[int]) -> bool:
    """Equal-sum split decided by trying every subset.

    Deliberately naive; this is the referee the generated elections are
    checked against.
    """
    items = tuple(numbers)  # read once, so an iterator is summed and split alike
    total = sum(items)
    if total % 2:
        return False
    half = total // 2
    return any(
        sum(combo) == half
        for r in range(len(items) + 1)
        for combo in combinations(items, r)
    )


def has_equal_partition_dp(numbers: Sequence[int]) -> bool:
    """Equal-sum split by ``_subset_sum_in``, the subset-sum kernel of the
    three-candidate cup, asked for half the total: pseudo-polynomial in it.
    InvalidInstance unless every entry is a positive int, as in a bag."""
    numbers = tuple(numbers)
    _check_entries(numbers)
    total = sum(numbers)
    return total % 2 == 0 and _subset_sum_in(numbers, total // 2, total // 2, None)


def gen_cup_elicitation(
    p: PartitionInstance, *, balanced: bool = False
) -> tuple[Profile, Agenda]:
    """A cup election that stays undecided exactly when the bag splits evenly.

    Candidates A,B,C,D meet on the agenda (((A,B),C),D).  Four fixed blocs
    pin every contest except A-vs-C inside the semifinal path; the bag
    numbers become partial ballots (weight twice the number) committed only
    to A above C, so their B placements act as a free subset choice.

    With ``balanced`` a fifth candidate E is appended at the bottom of every
    ballot and paired against D, which evens out the agenda depths without
    touching the outcome structure.
    """
    k = p.half_sum
    first, rest = p.numbers[0], p.numbers[1:]
    a, b, c, d, e = range(5)

    def order(*ids: int) -> tuple[int, ...]:
        return ids + (e,) if balanced else ids

    ballots: list[WeightedBallot | PartialBallot] = [
        WeightedBallot(order(c, d, b, a), 1),
        WeightedBallot(order(c, d, a, b), 2 * k - 1),
        WeightedBallot(order(d, b, c, a), 2 * k - 1),
        WeightedBallot(order(d, b, a, c), 2 * first),
    ]
    for v in rest:
        pairs = {(a, c)}
        if balanced:
            pairs |= {(x, e) for x in (a, b, c, d)}
        ballots.append(PartialBallot(pairs, 2 * v))

    labels = "ABCDE" if balanced else "ABCD"
    profile = Profile(candidates_from_labels(labels), tuple(ballots))
    assert profile.total_weight == 8 * k - 1
    agenda: Agenda = (((a, b), c), (d, e)) if balanced else (((a, b), c), d)
    return profile, agenda


def gen_stv_sp_elicitation(p: PartitionInstance) -> tuple[Profile, Axis]:
    """An STV election on a three-candidate axis, undecided iff the bag splits.

    Fixed blocs give the middle candidate B a slight first-place lead over
    the flanks A and C.  Each bag number becomes an empty partial ballot of
    weight twice the number, free to land anywhere single-peaked; only an
    exactly even split of that weight between the flanks changes who is
    eliminated first.
    """
    k = p.half_sum
    a, b, c = range(3)
    ballots: list[WeightedBallot | PartialBallot] = [
        WeightedBallot((b, c, a), 6 * k - 1),
        WeightedBallot((a, b, c), 4 * k),
        WeightedBallot((c, b, a), 4 * k),
    ]
    ballots += [PartialBallot(frozenset(), 2 * v) for v in p.numbers]
    profile = Profile(candidates_from_labels("ABC"), tuple(ballots))
    assert profile.total_weight == 18 * k - 1
    return profile, Axis((a, b, c))


def gen_cup_preference_manipulation(p: PartitionInstance) -> ManipulationInstance:
    """A cup instance solvable for the target exactly when the bag splits.

    Agenda ((A,B),C) with target C.  Three fixed blocs make C beat whichever
    semifinal winner is not helped by the manipulators; each bag number
    contributes a manipulable ballot (weight twice the number) locked only
    to A above C, free to place B on either side.
    """
    k = p.half_sum
    a, b, c = range(3)
    ballots: list[WeightedBallot | PartialBallot] = [
        WeightedBallot((c, b, a), 1),
        WeightedBallot((c, a, b), 2 * k - 1),
        WeightedBallot((b, c, a), 2 * k - 1),
    ]
    ballots += [PartialBallot({(a, c)}, 2 * v, locked={(a, c)}) for v in p.numbers]
    profile = Profile(candidates_from_labels("ABC"), tuple(ballots))
    assert profile.total_weight == 8 * k - 1
    return ManipulationInstance(Cup(((a, b), c)), c, profile)


def gen_copeland_preference_manipulation(p: PartitionInstance) -> ManipulationInstance:
    """A Copeland instance solvable for the target iff the bag splits evenly.

    Two fixed blocs of weight k rank the target C first, and every
    manipulable ballot is locked to both A and B above C, so C can do no
    better than tie each rival.  The free A-vs-B choices carry the bag
    numbers as weights: only an equal split produces the all-ties score
    sheet in which C shares the top score and takes the tie-break.

    The total weight is even by design, so strict odd-total validation is
    switched off for this profile.
    """
    k = p.half_sum
    a, b, c = range(3)
    ballots: list[WeightedBallot | PartialBallot] = [
        WeightedBallot((c, a, b), k),
        WeightedBallot((c, b, a), k),
    ]
    ballots += [
        PartialBallot({(a, c), (b, c)}, v, locked={(a, c), (b, c)})
        for v in p.numbers
    ]
    profile = Profile(candidates_from_labels("ABC"), tuple(ballots), strict_odd=False)
    assert profile.total_weight == 4 * k
    return ManipulationInstance(Copeland(), c, profile)


@dataclass(frozen=True)
class ReductionReport:
    """Both sides of one generated instance, and whether they line up.

    ``decision`` is the election procedure's answer (elicitation over, or
    manipulation solvable); ``partition`` is the brute-force bag answer;
    ``holds`` records the expected linkage between the two.
    """

    kind: str
    numbers: tuple[int, ...]
    decision: bool
    partition: bool
    holds: bool


def reduction_instance(
    kind: str, p: PartitionInstance, *, balanced: bool = False
) -> tuple[Rule, Profile, Axis | None, Candidate | None]:
    """The election one reduction kind builds from a bag: (rule, profile,
    axis or None, target or None); only manipulation kinds have a target."""
    if balanced and kind != "cup-elicit":
        raise InvalidInstance("--balanced applies only to the cup-elicit kind")
    if kind == "cup-elicit":
        profile, agenda = gen_cup_elicitation(p, balanced=balanced)
        return Cup(agenda), profile, None, None
    if kind == "stv-sp-elicit":
        profile, axis = gen_stv_sp_elicitation(p)
        return Stv(), profile, axis, None
    if kind == "cup-manip":
        inst = gen_cup_preference_manipulation(p)
    elif kind == "copeland-manip":
        inst = gen_copeland_preference_manipulation(p)
    else:
        raise InvalidInstance(
            f"unknown reduction kind {kind!r}; expected one of {', '.join(REDUCTION_KINDS)}"
        )
    return inst.rule, inst.profile, None, inst.target


def verify_reduction(
    kind: str,
    p: PartitionInstance,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> ReductionReport:
    """Run one generated instance and check it tracks the bag-split answer.

    Elicitation kinds must come out *not* over exactly when the bag splits;
    manipulation kinds must come out solvable exactly when it does.
    """
    rule, profile, axis, target = reduction_instance(kind, p)
    if target is not None:
        inst = ManipulationInstance(rule, target, profile)
        decision = preference_manipulate(inst, cap=cap) is not None
    else:  # the termination planner reads the axis, if there is one
        decision = _elicitation_over(rule, profile, axis, cap)
    partition = has_equal_partition(p.numbers)
    holds = decision == partition if target is not None else decision != partition
    return ReductionReport(kind, p.numbers, decision, partition, holds)
