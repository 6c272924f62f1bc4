"""Strategic voting: can designated agents make a chosen candidate win?

Two freedom models share one instance type.  In the *coalition* model a set
of ballot indices may be rewritten wholesale; every other ballot is a known
total order.  In the *preference* model each ballot's locked pairs are
immutable and everything else (including committed-but-unlocked pairs) may
be rewritten, as long as the result is a total order extending the locked
pairs.  Ties are always resolved in the manipulators' favour: success means
the target wins under tie-breaking for the target.

Manipulation is possible exactly when the target is a possible winner of the
profile cut back to what the manipulators may not change, so both models
take a witness from ``elicitation._witness``: read back from the pairwise
projection for Cup and Copeland(2), found by walking the joint completions
otherwise.  A coalition Cup keeps its bracket solver, which answers at any m
where the stream would list m! orders per coalition ballot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completions import completed_profile, fixed_view
from .elicitation import _committed_bounds, _witness
from .errors import InvalidInstance, InvalidProfile, ModelMismatch
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Candidate,
    PartialBallot,
    Profile,
    _is_int,
)
from .rules import Agenda, Cup, Rule, _positive_total, _reach, validate_rule_for

Order = tuple[int, ...]

__all__ = [
    "ManipulationInstance",
    "coalition_manipulate",
    "condorcet_coalition_manipulate",
    "preference_manipulate",
]


@dataclass(frozen=True)
class ManipulationInstance:
    """One manipulation question: rule, target, profile, and who may lie.

    ``coalition`` names the ballot indices whose entire orders are free;
    None selects the preference model, where freedom lives in each ballot's
    unlocked pairs instead.
    """

    rule: Rule
    target: Candidate
    profile: Profile
    coalition: frozenset[int] | None = None

    def __post_init__(self) -> None:
        try:
            target = self.profile.candidate(self.target)
        except InvalidProfile as exc:
            raise InvalidInstance(f"target {self.target!r} is not in the profile") from exc
        object.__setattr__(self, "target", target)
        if self.coalition is not None:
            coalition = frozenset(self.coalition)
            object.__setattr__(self, "coalition", coalition)
            n = len(self.profile.ballots)
            for idx in coalition:
                if not (_is_int(idx) and 0 <= idx < n):
                    raise InvalidInstance(f"coalition index {idx} out of range")
                ballot = self.profile.ballots[idx]
                if isinstance(ballot, PartialBallot) and ballot.locked:
                    raise InvalidInstance(
                        f"coalition ballot {idx} carries locked pairs; a "
                        "coalition member's whole order must be free"
                    )

    @property
    def is_coalition(self) -> bool:
        return self.coalition is not None


def _probe_profile(inst: ManipulationInstance) -> Profile:
    """Check the coalition model; the view with coalition ballots blanked.

    Outside the coalition every ballot of the probe is a ``WeightedBallot``
    and nothing is unknown, so the most weight ``rules._reach`` reads off its
    ``elicitation._committed_bounds`` for i over j is the fixed side's plus
    the whole coalition's.
    """
    if not inst.is_coalition:
        raise ModelMismatch("this operation needs a coalition-model instance")
    if inst.profile.unknown_weight:
        raise ModelMismatch(
            "coalition manipulation needs every non-coalition vote known; "
            "the profile still has wholly unknown weight"
        )
    return fixed_view(inst.profile, inst.coalition)


def _preference_view(profile: Profile) -> Profile:
    """The preference model: every partial ballot is free up to its locked pairs."""
    free = {i for i, b in enumerate(profile.ballots) if isinstance(b, PartialBallot)}
    return fixed_view(profile, free)


# ---------------------------------------------------------------------------
# Coalition model


def coalition_manipulate(
    inst: ManipulationInstance,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> dict[int, Order] | None:
    """Total orders for the coalition that make the target win, or None.

    The returned mapping assigns one order to each coalition ballot index;
    replaying it through the rule with ties favouring the target yields the
    target.  Cup elections use a polynomial bracket argument.  Copeland and
    Copeland2 sum the coalition's pairwise projections, and ``cap`` bounds
    that summing work; other rules search the coalition's joint ballot space,
    and ``cap`` bounds its merged size.  CapExceeded is raised past the cap,
    and InvalidProfile on an election of total weight 0.
    """
    probe = _probe_profile(inst)
    _positive_total(probe.total_weight)
    validate_rule_for(inst.rule, probe.m)
    target = inst.target.id

    if isinstance(inst.rule, Cup):
        order = _cup_coalition_order(inst.rule.agenda, probe, target)
        return None if order is None else {idx: order for idx in sorted(inst.coalition)}

    groups, assignment = _witness(inst.rule, probe, target, cap)
    if assignment is None:
        return None
    return {
        idx: order
        for group, combo in zip(groups, assignment)
        for idx, order in zip(group.indices, combo)
    }


def _cup_coalition_order(agenda: Agenda, probe: Profile, target: int) -> Order | None:
    """One shared coalition order winning the bracket for the target, or None.

    A candidate can take a bracket node iff it can take its own side and the
    full coalition weight lifts it to at least half against some candidate
    able to take the other side.  The winning matches chosen this way charge
    each loser exactly once, so they form a tree rooted at the target; any
    order listing conquerors before conquered realizes every needed boost
    simultaneously, and all coalition members can cast it identically.
    """
    m = probe.m
    total = probe.total_weight
    lo, hi = _committed_bounds(probe)

    witness: dict[tuple, dict[int, tuple[int, int]]] = {}

    def solve(node: Agenda) -> dict[int, tuple[int, int] | None]:
        if isinstance(node, int):
            return {node: None}
        left, right = solve(node[0]), solve(node[1])
        table: dict[int, tuple[int, int] | None] = {}
        for mine, theirs, side in ((left, right, 1), (right, left, 0)):
            for c in mine:
                for d in sorted(theirs):
                    if 2 * _reach(c, d, lo, hi, m, total) >= total:
                        table[c] = (d, side)
                        break
        witness[node] = table
        return table

    if target not in solve(agenda):
        return None

    beats: dict[int, list[int]] = {c: [] for c in range(m)}

    def realize(node: Agenda, c: int) -> None:
        if isinstance(node, int):
            return
        d, loser_side = witness[node][c]
        realize(node[1 - loser_side], c)
        realize(node[loser_side], d)
        beats[c].append(d)

    realize(agenda, target)
    order: list[int] = []

    def emit(c: int) -> None:
        order.append(c)
        for d in sorted(beats[c]):
            emit(d)

    emit(target)
    return tuple(order)


def condorcet_coalition_manipulate(
    inst: ManipulationInstance,
) -> dict[int, Order] | None:
    """Coalition votes making the target the Condorcet winner, or None.

    Ranking the target first in every coalition ballot is optimal, so the
    test is a single arithmetic pass: Some iff the fixed support plus the
    whole coalition weight strictly beats half the total against every
    rival.  Returned orders place the target first, the rest by id.  An
    election of total weight 0 raises InvalidProfile, as ``winner`` does.
    """
    probe = _probe_profile(inst)
    total = _positive_total(probe.total_weight)
    m = probe.m
    target = inst.target.id
    lo, hi = _committed_bounds(probe)
    for j in range(m):
        if j != target and 2 * _reach(target, j, lo, hi, m, total) <= total:
            return None
    order = (target,) + tuple(c for c in range(m) if c != target)
    return {idx: order for idx in sorted(inst.coalition)}


# ---------------------------------------------------------------------------
# Preference model


def preference_manipulate(
    inst: ManipulationInstance,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> Profile | None:
    """A completion of the unlocked content electing the target, or None.

    Every returned ballot is a total order extending its locked pairs, and
    replaying the rule on the returned profile with ties favouring the
    target yields the target.  Cup, Copeland and Copeland2 read the witness
    back from the pairwise projection, and ``cap`` bounds its summing work,
    so a completion space far larger than ``cap`` can still be answered.
    Other rules search the joint completions, heaviest ballots first and
    target-topmost extensions first, so witnesses surface early; exhaustion
    proves impossibility, and ``cap`` bounds the merged space.  Either way a
    ballot with more than ``cap`` extensions raises CapExceeded.  An election
    of total weight 0 raises InvalidProfile.
    """
    if inst.is_coalition:
        raise ModelMismatch("this operation needs a preference-model instance")
    view = _preference_view(inst.profile)
    _positive_total(view.total_weight)
    validate_rule_for(inst.rule, view.m)
    groups, assignment = _witness(inst.rule, view, inst.target.id, cap)
    return None if assignment is None else completed_profile(view, groups, assignment)
