"""Line-oriented text formats for profiles and scenario distributions.

Profile format, one directive per line, ``#`` starts a comment:

    candidates: A B C D
    vote w=3 C>D>A>B
    partial w=2 pairs=A>C,B>C locked=A>C
    partial w=4
    unknown w=5
    axis: A B C D

The ``candidates:`` line comes before any line that names candidates.  A
label is one token without ``#``, ``,`` or ``>``; the candidates line refuses
any other, and the formatters refuse to write one.  ``pairs=`` and
``locked=`` are optional; a bare partial line is a wholly free single agent.
Repeated ``unknown`` lines accumulate.

Distribution format: one shared ``candidates:`` line, then repeated blocks
``scenario p=1/3`` each followed by that scenario's ballot lines.

Within one parsed text, a repeated ballot line (the same ``vote`` or
``partial`` line once comments and outer blanks are stripped) is parsed
once and yields the same immutable ballot object each time it appears, in
every scenario block of a distribution.

A ``vote`` line seen for the first time is split once, and each fact about
it is checked once, in a fixed order: an open block with candidates, three
tokens, the weight's syntax, the order naming every candidate once, the
weight's range.  Each failure gives the same message as a line parsed alone.
The weight and order tokens are each parsed and checked once per text, as
they enter a memo: a new order token becomes its ids in one ``itemgetter``
lookup, which names the first unknown label before a wrong count or a
repeat.  The weight's range is checked on each new line, and the ballot is
then built without being checked again.  Every line with one order token
shares the one order tuple.
Nothing is kept from one parse to the next.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import NoReturn, Sequence

from .errors import InvalidProfile, ProfileParseError
from .evaluation import ScenarioDistribution, parse_rational
from .profiles import (
    MAX_WEIGHT,
    Axis,
    Ballot,
    Candidate,
    PartialBallot,
    Profile,
    WeightedBallot,
    _check_weight,
    _checked_ballot,
    candidates_from_labels,
)

Pair = tuple[int, int]


def _fail(line_no: int, message: str) -> NoReturn:
    raise ProfileParseError(f"line {line_no}: {message}")


def _parse_weight(token: str, line_no: int) -> int:
    if not token.startswith("w="):
        _fail(line_no, f"expected w=<integer>, got {token!r}")
    try:
        return int(token[2:])
    except ValueError:
        _fail(line_no, f"bad weight {token[2:]!r}")


_RANK_ONCE = "a vote must rank every candidate exactly once"


def _label_fault(label: object) -> str | None:
    """Why ``label`` cannot stand in the line format, or None when it can:
    a label is one token and holds no comment mark and neither separator of
    an order (``>``) or of a pair list (``,``)."""
    if isinstance(label, str) and label.split() == [label] and not any(
        c in label for c in "#,>"
    ):
        return None
    return (
        f"candidate label {label!r} does not fit the line format: "
        "a label is one token without '#', ',' or '>'"
    )


def _check_labels(candidates: Sequence[Candidate]) -> None:
    """InvalidProfile unless every label can be written and read back."""
    for c in candidates:
        fault = _label_fault(c.label)
        if fault is not None:
            raise InvalidProfile(fault)


def _parse_order(
    names: Sequence[str], labels: dict[str, int], line_no: int, message: str
) -> tuple[int, ...]:
    """The ids of ``names``, each candidate once, else ``message``.  An
    unknown label is named before a wrong count or a repeat."""
    try:
        # one lookup, which stops at the first unknown label
        order = itemgetter(*names)(labels) if names else ()
    except KeyError as exc:
        _fail(line_no, f"unknown candidate {exc.args[0]!r}")
    if len(names) == 1:  # itemgetter of one name gives the id, not a tuple
        order = (order,)
    if len(order) != len(labels) or len(set(order)) != len(order):
        _fail(line_no, message)
    return order


def _parse_pairs(
    token: str, labels: dict[str, int], line_no: int
) -> frozenset[Pair]:
    pairs = []
    for item in token.split(","):
        sides = item.split(">")
        if len(sides) != 2:
            _fail(line_no, f"bad pair {item!r}; expected X>Y")
        for name in sides:
            if name not in labels:
                _fail(line_no, f"unknown candidate {name!r}")
        pairs.append((labels[sides[0]], labels[sides[1]]))
    return frozenset(pairs)


def _parse_partial(
    tokens: list[str], labels: dict[str, int], line_no: int
) -> PartialBallot:
    weight = None
    pairs: frozenset[Pair] = frozenset()
    locked: frozenset[Pair] = frozenset()
    seen = set()
    for token in tokens:
        key = token.split("=", 1)[0]
        if key in seen:
            _fail(line_no, f"duplicate {key}= on a partial line")
        seen.add(key)
        if key == "w":
            weight = _parse_weight(token, line_no)
        elif key == "pairs":
            pairs = _parse_pairs(token[len("pairs="):], labels, line_no)
        elif key == "locked":
            locked = _parse_pairs(token[len("locked="):], labels, line_no)
        else:
            _fail(line_no, f"unknown field {token!r} on a partial line")
    if weight is None:
        _fail(line_no, "a partial line needs w=<integer>")
    try:
        return PartialBallot(pairs, weight, locked)
    except InvalidProfile as exc:
        _fail(line_no, str(exc))


class _Reader:
    """One parse of one text, in either format.

    A profile text is one block, open from its first line.  A distribution
    opens a block at each ``scenario`` line and closes it into a scenario at
    the next one.  The candidates, their labels and the three memos serve
    every block: ``memo`` maps each stripped ballot line that parsed to its
    ballot, ``weights`` maps each vote's weight token to its integer, and
    ``orders`` maps each vote's order token to its candidate ids.
    """

    def __init__(self, strict_odd: bool, distribution: bool) -> None:
        self.strict_odd = strict_odd
        self.candidates: tuple[Candidate, ...] | None = None
        self.labels: dict[str, int] = {}
        self.memo: dict[str, Ballot] = {}
        self.weights: dict[str, int] = {}
        self.orders: dict[str, tuple[int, ...]] = {}
        self.scenarios: list[tuple[Profile, Fraction]] | None = (
            [] if distribution else None
        )
        self.prob: Fraction | None = None
        # The open block; a distribution has none before its first scenario.
        self.ballots: list[Ballot] | None = None if distribution else []
        self.unknown = 0
        self.axis: Axis | None = None

    def read(self, text: str) -> None:
        memo, weights, orders = self.memo, self.weights, self.orders
        ballots = self.ballots
        for line_no, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            line = line.strip()
            if not line:
                continue
            # A line enters the memo only once it has parsed inside an open
            # block with candidates, and from then on a block is always open.
            ballot = memo.get(line)
            if ballot is None:
                tokens = line.split()
                if tokens[0] == "vote":
                    # Each check runs once, in this order; the weight and
                    # order tokens are parsed and checked once per text.
                    self._need_block(line_no, "vote")
                    if len(tokens) != 3:
                        _fail(line_no, "expected: vote w=<integer> X>Y>...")
                    _, weight_token, order_token = tokens
                    weight = weights.get(weight_token)
                    if weight is None:
                        weight = weights[weight_token] = _parse_weight(weight_token, line_no)
                    order = orders.get(order_token)
                    if order is None:
                        order = orders[order_token] = _parse_order(
                            order_token.split(">"), self.labels, line_no, _RANK_ONCE
                        )
                    if not 0 < weight <= MAX_WEIGHT:  # with the ballot's message
                        try:
                            _check_weight(weight)
                        except InvalidProfile as exc:
                            _fail(line_no, str(exc))
                    ballot = _checked_ballot(order, weight)
                else:
                    ballot = self._directive(line_no, tokens)
                    if ballot is None:
                        ballots = self.ballots
                        continue
                memo[line] = ballot
            ballots.append(ballot)

    def _directive(self, line_no: int, tokens: list[str]) -> Ballot | None:
        """Apply one directive other than ``vote``; a partial returns its ballot."""
        head = tokens[0]
        if head == "partial":
            self._need_block(line_no, head)
            return _parse_partial(tokens[1:], self.labels, line_no)
        elif head == "unknown":
            self._need_block(line_no, head, candidates=False)
            if len(tokens) != 2:
                _fail(line_no, "expected: unknown w=<integer>")
            weight = _parse_weight(tokens[1], line_no)
            if weight < 0:
                _fail(line_no, "unknown weight cannot be negative")
            self.unknown += weight
        elif head == "axis:":
            self._need_block(line_no, head)
            if self.axis is not None:
                _fail(line_no, "duplicate axis line")
            message = "the axis must order every candidate exactly once"
            self.axis = Axis(_parse_order(tokens[1:], self.labels, line_no, message))
        elif head == "candidates:":
            self._set_candidates(tokens[1:], line_no)
        elif head == "scenario" and self.scenarios is not None:
            self._open_scenario(tokens, line_no)
        else:
            self._need_block(line_no, head, candidates=False)
            _fail(line_no, f"unknown directive {head!r}")
        return None

    def _need_block(self, line_no: int, head: str, candidates: bool = True) -> None:
        if self.ballots is None:
            _fail(line_no, f"{head!r} outside a scenario block")
        if candidates and self.candidates is None:
            _fail(line_no, "the candidates line must come first")

    def _set_candidates(self, names: list[str], line_no: int) -> None:
        if self.candidates is not None:
            _fail(line_no, "duplicate candidates line")
        if not names:
            _fail(line_no, "the candidates line needs at least one label")
        if len(set(names)) != len(names):
            _fail(line_no, "candidate labels must be unique")
        for name in names:
            fault = _label_fault(name)
            if fault is not None:
                _fail(line_no, fault)
        self.candidates = candidates_from_labels(names)
        self.labels = {name: i for i, name in enumerate(names)}

    def _open_scenario(self, tokens: list[str], line_no: int) -> None:
        if self.candidates is None:
            _fail(line_no, "the candidates line must come first")
        if len(tokens) != 2 or not tokens[1].startswith("p="):
            _fail(line_no, "expected: scenario p=<rational>")
        self.close_block()
        try:
            self.prob = parse_rational(tokens[1][2:])
        except (ValueError, ZeroDivisionError):
            _fail(line_no, f"bad probability {tokens[1][2:]!r}")
        self.ballots, self.unknown, self.axis = [], 0, None

    def profile(self) -> Profile:
        """The open block as a profile."""
        assert self.candidates is not None and self.ballots is not None
        return Profile(
            candidates=self.candidates,
            ballots=tuple(self.ballots),
            unknown_weight=self.unknown,
            strict_odd=self.strict_odd,
        )

    def close_block(self) -> None:
        """Add the open scenario block, if any, to ``scenarios``."""
        if self.ballots is not None:
            assert self.scenarios is not None and self.prob is not None
            self.scenarios.append((self.profile(), self.prob))
            self.ballots = None


def parse_profile(text: str, *, strict_odd: bool = True) -> tuple[Profile, Axis | None]:
    """Parse one profile, returning it with its optional axis."""
    reader = _Reader(strict_odd, distribution=False)
    reader.read(text)
    if reader.candidates is None:
        raise ProfileParseError("the profile has no candidates line")
    return reader.profile(), reader.axis


def _format_pairs(pairs: frozenset[Pair], cands: Sequence[Candidate]) -> str:
    return ",".join(
        f"{cands[i].label}>{cands[j].label}" for i, j in sorted(pairs)
    )


def _ballot_lines(profile: Profile) -> list[str]:
    cands = profile.candidates
    lines = []
    for ballot in profile.ballots:
        if isinstance(ballot, WeightedBallot):
            order = ">".join(cands[i].label for i in ballot.order)
            lines.append(f"vote w={ballot.weight} {order}")
        else:
            parts = [f"partial w={ballot.weight}"]
            if ballot.pairs:
                parts.append("pairs=" + _format_pairs(ballot.pairs, cands))
            if ballot.locked:
                parts.append("locked=" + _format_pairs(ballot.locked, cands))
            lines.append(" ".join(parts))
    if profile.unknown_weight:
        lines.append(f"unknown w={profile.unknown_weight}")
    return lines


def format_profile(profile: Profile, axis: Axis | None = None) -> str:
    """Render a profile (and optional axis) in the line format.

    Raises InvalidProfile when a candidate label cannot be read back.
    """
    cands = profile.candidates
    _check_labels(cands)
    lines = ["candidates: " + " ".join(c.label for c in cands)]
    lines += _ballot_lines(profile)
    if axis is not None:
        lines.append("axis: " + " ".join(cands[i].label for i in axis.order))
    return "\n".join(lines) + "\n"


def parse_distribution(text: str, *, strict_odd: bool = True) -> ScenarioDistribution:
    """Parse a scenario distribution: shared candidates, scenario blocks."""
    reader = _Reader(strict_odd, distribution=True)
    reader.read(text)
    if reader.candidates is None:
        raise ProfileParseError("the distribution has no candidates line")
    reader.close_block()
    if not reader.scenarios:
        raise ProfileParseError("the distribution has no scenario blocks")
    return ScenarioDistribution(tuple(reader.scenarios))


def format_distribution(dist: ScenarioDistribution) -> str:
    """Render a scenario distribution in the line format.

    Raises InvalidProfile when a candidate label cannot be read back.
    """
    cands = dist.candidates
    _check_labels(cands)
    lines = ["candidates: " + " ".join(c.label for c in cands)]
    for profile, prob in dist.scenarios:
        lines.append(f"scenario p={prob}")
        lines += _ballot_lines(profile)
    return "\n".join(lines) + "\n"
