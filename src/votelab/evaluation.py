"""Win probabilities over explicit vote distributions.

A distribution is a finite list of complete profiles (scenarios) with exact
rational probabilities.  Correlation between agents is expressed by the
joint form itself: a scenario fixes every vote at once.  Independent agents
are a special case built by ``product_distribution``.  All arithmetic is
exact; no floats enter any decision.

The recast of preference manipulation keeps one scenario per joint
completion as the assignment ``iter_assignments`` yields over one view's
option groups.  A scan tallies the view's fixed ballots once and, under a
rule with a tally, decides each scenario from its full tally, summed from
the groups it shares with the scenario before (``rules._TallyStack``);
STV and the hybrid are handed the fixed ballots and the assignment's
orders.  A scenario is cast as a ``Profile``, with each weight-k order as
k unit ballots, only when a caller reads ``scenarios``, and that read is
charged to the reduction's ``cap``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterator

from .completions import (
    OptionGroup,
    _assigned_weights,
    check_cap,
    completed_arrays,
    completion_groups,
    iter_assignments,
)
from .errors import InvalidDistribution, ModelMismatch, charge
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Candidate,
    Profile,
    WeightedBallot,
)
from .rules import (
    Rule,
    TieBreak,
    _checked_tie_break,
    _TallyStack,
    _fixed_part,
    _positive_total,
    _tie_broken_id,
)
from .manipulation import ManipulationInstance, _preference_view

Order = tuple[int, ...]

__all__ = [
    "EvaluationQuery",
    "ScenarioDistribution",
    "evaluate",
    "product_distribution",
    "reduction_from_preference_manipulation",
    "win_probability",
]


def parse_rational(text: str) -> Fraction:
    """An exact rational written as an integer, ``a/b`` or a decimal.

    Exponent notation is refused, because ``Fraction`` expands it in full:
    ``1e999999999`` would build a billion-digit integer.  Bad syntax raises
    ValueError or ZeroDivisionError, as ``Fraction`` does.
    """
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}")
    return Fraction(text)


def _as_probability(p) -> Fraction:
    if type(p) is Fraction:
        return p  # immutable and exact already: kept as given
    if isinstance(p, float):
        raise InvalidDistribution(
            f"probability {p!r} is a float; supply an exact rational"
        )
    if isinstance(p, bool):
        raise InvalidDistribution(f"probability {p!r} is a bool; supply an exact rational")
    try:
        # a Decimal is read as its text, so its exponent is refused as well
        if isinstance(p, (str, Decimal)):
            return parse_rational(str(p))
        return Fraction(p)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidDistribution(f"bad probability {p!r}") from exc


def _pairs(items, shape: str) -> Iterator[tuple]:
    """The entries of ``items``, each unpacked as a pair as it is reached;
    InvalidDistribution with the message ``shape`` when one is not a pair."""
    try:
        for first, second in items:
            yield first, second
    except (TypeError, ValueError):  # not iterable, or an entry not a pair
        raise InvalidDistribution(shape) from None


_SCENARIO_SHAPE = "a scenario must be a (Profile, probability) pair"
_AGENT_SHAPE = "an agent must be (weight, [(order, probability), ...])"


def _brief(frac: Fraction) -> str:
    """The rational as text, or its size when it is too long to print."""
    bits = abs(frac.numerator).bit_length() + frac.denominator.bit_length()
    return str(frac) if bits <= 256 else f"a rational of {bits} bits"


class _Completions(Sequence):
    """The scenarios of a reduction, each stored as one assignment over the
    view's option groups and read as (unit-split ``Profile``, share).

    ``len`` reads no scenario.  Indexing or iterating builds a scenario's
    ``Profile`` on its first read and keeps it, so every read returns the
    same object.  A first read charges the whole split, the unit ballots a
    read of every scenario builds (scenarios times total weight), to
    ``cap`` and raises CapExceeded past it, before it builds anything.
    Equality, hashing and ``repr`` are those of the tuple of pairs, so a
    distribution compares, hashes and prints as one built from that tuple;
    they read every scenario, so they can raise it too.
    """

    def __init__(
        self,
        view: Profile,
        groups: tuple[OptionGroup, ...],
        assignments: tuple[tuple[tuple[Order, ...], ...], ...],
        cap: int | None,
    ) -> None:
        self.view = view
        self.groups = groups
        self.assignments = assignments
        self.cap = cap
        self.weights = _assigned_weights(groups)
        self.share = Fraction(1, len(assignments))
        self._read: list[tuple[Profile, Fraction] | None] = [None] * len(assignments)
        self._units: dict[Order, WeightedBallot] = {}

    def __len__(self) -> int:
        return len(self.assignments)

    def own_arrays(self, i: int) -> tuple[tuple[Order, ...], tuple[int, ...]]:
        """Scenario i's (orders, weights) less the view's fixed ballots."""
        return sum(self.assignments[i], ()), self.weights

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        pair = self._read[i]
        if pair is None:
            charge(len(self) * self.view.total_weight, self.cap, "unit ballots of the split")
            arrays = completed_arrays(self.view, self.groups, self.assignments[i])
            pair = self._read[i] = (_unit_split(self.view, *arrays, self._units), self.share)
        return pair

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Completions)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

@dataclass(frozen=True)
class ScenarioDistribution:
    """Complete profiles with exact probabilities summing to one.

    Each probability is also kept as an integer count of ``1/denominator``,
    the least common denominator, so a scan sums integers.  The distribution
    keeps one column of winner ids, one slot per scenario, for the (rule,
    tie-break) scanned last; it fills lazily, so scans in a row under one
    rule decide each scenario at most once, and a scan under another rule
    replaces it.  A slot is only ever written with its one deterministic
    winner id, so a scan that stops early or raises leaves a valid column.
    None of this enters equality, hashing or ``repr``.

    Scenarios given as profiles are kept as a tuple.  A reduction's
    scenarios are kept as assignments over one view (see
    ``reduction_from_preference_manipulation``): ``scenarios`` is then a
    read-only sequence that casts each as a unit-split ``Profile`` on first
    read, and a scan decides each from the view's fixed tally and its
    assignment without building one.  ``_base`` is a profile with the
    scenarios' candidates and total weight (the first scenario, or the
    view), so targets are looked up and the rule is checked on it.
    """

    scenarios: Sequence[tuple[Profile, Fraction]]
    _counts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _denominator: int = field(init=False, repr=False, compare=False)
    _column: tuple[tuple[Rule, TieBreak], list[int | None]] | None = field(
        init=False, repr=False, compare=False
    )
    _base: Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_column", None)
        if type(self.scenarios) is _Completions:
            # a reduction's scenarios are completions of one view: all are
            # complete and share its candidates and total weight, and the
            # shares are equal and positive, so no check is repeated per
            # scenario
            count = len(self.scenarios)
            object.__setattr__(self, "_counts", (1,) * count)
            object.__setattr__(self, "_denominator", count)
            object.__setattr__(self, "_base", self.scenarios.view)
            return
        normalized = []
        # a falsy input reads as empty; emptiness is checked once the
        # entries are read, so an empty iterator is refused as well
        for profile, p in _pairs(self.scenarios or (), _SCENARIO_SHAPE):
            if not isinstance(profile, Profile):
                raise InvalidDistribution(_SCENARIO_SHAPE)
            frac = _as_probability(p)
            if frac <= 0:
                raise InvalidDistribution(f"probability {_brief(frac)} is not positive")
            if not profile.is_complete:
                raise InvalidDistribution("scenario profiles must be complete")
            normalized.append((profile, frac))
        if not normalized:
            raise InvalidDistribution("a distribution needs at least one scenario")
        object.__setattr__(self, "scenarios", tuple(normalized))
        first = self.scenarios[0][0]
        for profile, _ in self.scenarios[1:]:
            if profile.candidates != first.candidates:
                raise InvalidDistribution("scenarios disagree on the candidates")
            if profile.total_weight != first.total_weight:
                raise InvalidDistribution("scenarios disagree on the total weight")
        denominator = lcm(*(p.denominator for _, p in normalized))
        counts = tuple(p.numerator * (denominator // p.denominator) for _, p in normalized)
        mass = sum(counts)
        if mass != denominator:
            raise InvalidDistribution(
                f"probabilities sum to {_brief(Fraction(mass, denominator))}, not 1"
            )
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_base", first)

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        return self._base.candidates


@dataclass(frozen=True)
class EvaluationQuery:
    """Does the target's win probability strictly exceed the threshold r?"""

    target: Candidate
    r: Fraction
    rule: Rule
    tb: TieBreak | None = None

    def __post_init__(self) -> None:
        r = _as_probability(self.r)
        object.__setattr__(self, "r", r)
        if not 0 <= r <= 1:
            raise InvalidDistribution(f"threshold {_brief(r)} is outside [0, 1]")


def _winner_ids(
    dist: ScenarioDistribution, rule: Rule, tb: TieBreak | None, cap: int | None
) -> Iterator[int]:
    """Each scenario's winner id in order, read from the distribution's
    column when it is for (rule, tie-break), else from a new column that
    replaces it, and decided there on first reach under ``cap``.

    ``cap`` never changes a decided winner, so it is not part of the key; a
    scenario refused under it stays undecided, and a later scan resumes
    there.  The rule and the tie-break are checked once, against ``_base``.
    A reduction's scenario under a rule with a tally is decided from its
    full tally: the view's fixed ballots' (``rules._fixed_part``) plus its
    assignment, stacked per group (``rules._TallyStack``), so a scenario
    re-adds only the groups it does not share with the one decided before,
    even when the scan resumes mid-column.  Under STV or the hybrid it is
    handed the fixed ballots and the assignment's orders.  A scenario given
    as a profile shares nothing, and its ``fixed_arrays`` are tallied
    whole."""
    tb = tb or TieBreak.lex()
    key = (rule, tb)
    kept = dist._column
    if kept is None or kept[0] != key:
        kept = (key, [None] * len(dist.scenarios))
        object.__setattr__(dist, "_column", kept)
    column = kept[1]
    scenarios, profile = dist.scenarios, dist._base
    m, total = profile.m, _positive_total(profile.total_weight)
    favoured = _checked_tie_break(rule, profile, tb)
    if type(scenarios) is _Completions:
        shared, own = profile.fixed_arrays, scenarios.own_arrays
    else:
        shared, own = None, lambda i: scenarios[i][0].fixed_arrays
    fixed = stack = None  # set with the shared tally at the first undecided scenario
    for i, won in enumerate(column):
        if won is None:
            if fixed is None:
                base, fixed, fixed_weights = (
                    _fixed_part(rule, *shared, m) if shared is not None else (None, (), ())
                )
                if base is not None:  # a reduction under a rule with a tally
                    stack = _TallyStack(rule, base, scenarios.groups)
            if stack is not None:
                base, orders, weights = stack(scenarios.assignments[i]), (), ()
            else:
                orders, weights = own(i)
            won = column[i] = _tie_broken_id(
                rule, fixed + orders, fixed_weights + weights, m, total, tb, favoured, cap,
                base,
            )
        yield won


def win_probability(
    dist: ScenarioDistribution,
    rule: Rule,
    target: int | Candidate,
    tb: TieBreak | None = None,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> Fraction:
    """Exact probability that the target wins under the rule and tie-break.

    ``cap`` bounds each scenario's decision, as for ``winner``.
    """
    target_id = dist._base.candidate(target).id
    mass = sum(
        count
        for count, won in zip(dist._counts, _winner_ids(dist, rule, tb, cap))
        if won == target_id
    )
    return Fraction(mass, dist._denominator)


def evaluate(
    dist: ScenarioDistribution,
    query: EvaluationQuery,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> bool:
    """True iff the target's win probability is strictly greater than r.

    Stops scanning as soon as the answer is forced: the accumulated winning
    mass already exceeds r, or even granting every unscanned scenario to the
    target could not.  Exact either way: with masses counted in units of
    ``1/D``, ``acc/D > a/b`` is ``acc * b > a * D``.  ``cap`` bounds each
    scenario's decision, as for ``winner``.
    """
    target_id = dist._base.candidate(query.target).id
    den = query.r.denominator
    bar = query.r.numerator * dist._denominator
    acc = 0
    remaining = dist._denominator
    for count, won in zip(dist._counts, _winner_ids(dist, query.rule, query.tb, cap)):
        remaining -= count
        if won == target_id:
            acc += count
            if acc * den > bar:
                return True
        if (acc + remaining) * den <= bar:
            return False
    return acc * den > bar


def _unit_split(
    profile: Profile,
    orders: Sequence[Order],
    weights: Sequence[int],
    _cache: dict[Order, WeightedBallot],
) -> Profile:
    """The election (orders, weights) over the profile's candidates, each
    weight-k order cast as k identical unit ballots.

    Unit ballots are immutable, so scenarios share one object per order, and
    ``Profile`` checks each shared unit ballot once.
    """
    slots: list[WeightedBallot] = []
    for order, weight in zip(orders, weights):
        unit = _cache.get(order)
        if unit is None:
            unit = _cache[order] = WeightedBallot(order, 1)
        slots += [unit] * weight
    return Profile(profile.candidates, tuple(slots), strict_odd=profile.strict_odd)


def reduction_from_preference_manipulation(
    inst: ManipulationInstance,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> tuple[ScenarioDistribution, EvaluationQuery]:
    """Recast a preference-manipulation question as a threshold query.

    The scenarios are the joint completions of the instance's unlocked
    content, uniformly weighted, with every weight-k ballot split into k
    perfectly correlated unit agents inside each scenario.  With r = 0 and
    ties favouring the target, the query is true exactly when some
    completion elects the target, i.e. when the manipulation succeeds.

    Each scenario is kept as its assignment over the view's option groups
    (the view may be the instance's own profile: see ``fixed_view``); its
    unit-split ``Profile`` is built only when ``scenarios`` is read.
    ``cap`` bounds the scenario count, charged here, and the unit ballots a
    read of every scenario builds (scenarios times total weight), charged
    at the first read, so a reduction that is only scanned answers however
    heavy its ballots.
    """
    if inst.is_coalition:
        raise ModelMismatch("the reduction starts from a preference-model instance")
    view = _preference_view(inst.profile)
    groups = completion_groups(view, cap=cap)
    check_cap(groups, cap)
    dist = ScenarioDistribution(_Completions(view, groups, tuple(iter_assignments(groups)), cap))
    query = EvaluationQuery(
        target=inst.target,
        r=Fraction(0),
        rule=inst.rule,
        tb=TieBreak.favor(inst.target),
    )
    return dist, query


def product_distribution(
    candidates: tuple[Candidate, ...],
    agents: Sequence[tuple[int, Sequence[tuple[Order, Fraction]]]],
    *,
    strict_odd: bool = True,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> ScenarioDistribution:
    """Joint distribution of independent agents given per-agent marginals.

    Each agent is (weight, [(order, probability), ...]) with its marginal
    summing to 1.  The scenario count is the product of the marginal sizes
    and is guarded by ``cap``.
    """
    size = 1
    options = []
    # a falsy input reads as empty, and each marginal is read once, so
    # iterators answer as sequences do
    for weight, marginal in _pairs(agents or (), _AGENT_SHAPE):
        if not marginal:
            raise InvalidDistribution("an agent's marginal cannot be empty")
        entries = [(order, _as_probability(p)) for order, p in _pairs(marginal, _AGENT_SHAPE)]
        mass = sum(p for _, p in entries)
        if mass != 1:
            raise InvalidDistribution(f"an agent's marginal sums to {_brief(mass)}, not 1")
        options.append([(WeightedBallot(order, weight), p) for order, p in entries])
        size *= len(entries)
    if not options:
        raise InvalidDistribution("need at least one agent")
    charge(size, cap, "scenarios of the product distribution")
    scenarios = []
    for combo in product(*options):
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        scenario = Profile(
            candidates=candidates,
            ballots=tuple(ballot for ballot, _ in combo),
            strict_odd=strict_odd,
        )
        scenarios.append((scenario, prob))
    return ScenarioDistribution(tuple(scenarios))
