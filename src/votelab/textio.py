"""Line-oriented text formats for profiles and scenario distributions.

Profile format, one directive per line, ``#`` starts a comment:

    candidates: A B C D
    vote w=3 C>D>A>B
    partial w=2 pairs=A>C,B>C locked=A>C
    partial w=4
    unknown w=5
    axis: A B C D

The ``candidates:`` line comes before any line that names candidates.
``pairs=`` and ``locked=`` are optional; a bare partial line is a wholly
free single agent.  Repeated ``unknown`` lines accumulate.

Distribution format: one shared ``candidates:`` line, then repeated blocks
``scenario p=1/3`` each followed by that scenario's ballot lines.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NoReturn, Sequence

from .errors import InvalidProfile, ProfileParseError
from .evaluation import ScenarioDistribution, parse_rational
from .profiles import (
    Axis,
    Candidate,
    PartialBallot,
    Profile,
    WeightedBallot,
    candidates_from_labels,
)

Pair = tuple[int, int]


def _fail(line_no: int, message: str) -> NoReturn:
    raise ProfileParseError(f"line {line_no}: {message}")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped content) with comments and blanks removed."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((line_no, stripped))
    return out


def _parse_weight(token: str, line_no: int) -> int:
    if not token.startswith("w="):
        _fail(line_no, f"expected w=<integer>, got {token!r}")
    try:
        return int(token[2:])
    except ValueError:
        _fail(line_no, f"bad weight {token[2:]!r}")


def _parse_order(
    token: str, labels: dict[str, int], line_no: int
) -> tuple[int, ...]:
    order = []
    for name in token.split(">"):
        if name not in labels:
            _fail(line_no, f"unknown candidate {name!r}")
        order.append(labels[name])
    if set(order) != set(labels.values()) or len(order) != len(labels):
        _fail(line_no, "a vote must rank every candidate exactly once")
    return tuple(order)


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


class _ProfileBuilder:
    """Accumulates directives for one profile; shared by both formats."""

    def __init__(self) -> None:
        self.candidates: tuple[Candidate, ...] | None = None
        self.labels: dict[str, int] = {}
        self.ballots: list[WeightedBallot | PartialBallot] = []
        self.unknown = 0
        self.axis: Axis | None = None

    def set_candidates(self, names: Sequence[str], line_no: int) -> None:
        if self.candidates is not None:
            _fail(line_no, "duplicate candidates line")
        if not names:
            _fail(line_no, "the candidates line needs at least one label")
        try:
            self.candidates = candidates_from_labels(tuple(names))
        except InvalidProfile as exc:
            _fail(line_no, str(exc))
        self.labels = {c.label: c.id for c in self.candidates}

    def _need_candidates(self, line_no: int) -> None:
        if self.candidates is None:
            _fail(line_no, "the candidates line must come first")

    def feed(self, line_no: int, line: str) -> None:
        tokens = line.split()
        head = tokens[0]
        if head == "candidates:":
            self.set_candidates(tokens[1:], line_no)
        elif head == "vote":
            self._need_candidates(line_no)
            if len(tokens) != 3:
                _fail(line_no, "expected: vote w=<integer> X>Y>...")
            weight = _parse_weight(tokens[1], line_no)
            order = _parse_order(tokens[2], self.labels, line_no)
            try:
                self.ballots.append(WeightedBallot(order, weight))
            except InvalidProfile as exc:
                _fail(line_no, str(exc))
        elif head == "partial":
            self._need_candidates(line_no)
            self.ballots.append(_parse_partial(tokens[1:], self.labels, line_no))
        elif head == "unknown":
            if len(tokens) != 2:
                _fail(line_no, "expected: unknown w=<integer>")
            weight = _parse_weight(tokens[1], line_no)
            if weight < 0:
                _fail(line_no, "unknown weight cannot be negative")
            self.unknown += weight
        elif head == "axis:":
            self._need_candidates(line_no)
            if self.axis is not None:
                _fail(line_no, "duplicate axis line")
            ids = []
            for name in tokens[1:]:
                if name not in self.labels:
                    _fail(line_no, f"unknown candidate {name!r}")
                ids.append(self.labels[name])
            if set(ids) != set(self.labels.values()):
                _fail(line_no, "the axis must order every candidate exactly once")
            self.axis = Axis(tuple(ids))
        else:
            _fail(line_no, f"unknown directive {head!r}")

    def build(self, strict_odd: bool) -> Profile:
        if self.candidates is None:
            raise ProfileParseError("the profile has no candidates line")
        return Profile(
            candidates=self.candidates,
            ballots=tuple(self.ballots),
            unknown_weight=self.unknown,
            strict_odd=strict_odd,
        )


def parse_profile(text: str, *, strict_odd: bool = True) -> tuple[Profile, Axis | None]:
    """Parse one profile, returning it with its optional axis."""
    builder = _ProfileBuilder()
    for line_no, line in _content_lines(text):
        builder.feed(line_no, line)
    return builder.build(strict_odd), builder.axis


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
    """Render a profile (and optional axis) in the line format."""
    cands = profile.candidates
    lines = ["candidates: " + " ".join(c.label for c in cands)]
    lines += _ballot_lines(profile)
    if axis is not None:
        lines.append("axis: " + " ".join(cands[i].label for i in axis.order))
    return "\n".join(lines) + "\n"


def parse_distribution(text: str, *, strict_odd: bool = True) -> ScenarioDistribution:
    """Parse a scenario distribution: shared candidates, scenario blocks."""
    lines = _content_lines(text)
    candidates: tuple[Candidate, ...] | None = None
    scenarios: list[tuple[Profile, Fraction]] = []
    builder: _ProfileBuilder | None = None
    prob: Fraction | None = None

    def close_block() -> None:
        nonlocal builder
        if builder is None:
            return
        assert prob is not None
        scenarios.append((builder.build(strict_odd), prob))
        builder = None

    for line_no, line in lines:
        tokens = line.split()
        if tokens[0] == "candidates:":
            if candidates is not None:
                _fail(line_no, "duplicate candidates line")
            if builder is not None:
                _fail(line_no, "the candidates line must precede scenario blocks")
            seed = _ProfileBuilder()
            seed.set_candidates(tokens[1:], line_no)
            candidates = seed.candidates
        elif tokens[0] == "scenario":
            if candidates is None:
                _fail(line_no, "the candidates line must come first")
            if len(tokens) != 2 or not tokens[1].startswith("p="):
                _fail(line_no, "expected: scenario p=<rational>")
            close_block()
            try:
                prob = parse_rational(tokens[1][2:])
            except (ValueError, ZeroDivisionError):
                _fail(line_no, f"bad probability {tokens[1][2:]!r}")
            builder = _ProfileBuilder()
            builder.candidates = candidates
            builder.labels = {c.label: c.id for c in candidates}
        elif builder is not None:
            builder.feed(line_no, line)
        else:
            _fail(line_no, f"{tokens[0]!r} outside a scenario block")
    if candidates is None:
        raise ProfileParseError("the distribution has no candidates line")
    close_block()
    if not scenarios:
        raise ProfileParseError("the distribution has no scenario blocks")
    return ScenarioDistribution(tuple(scenarios))


def format_distribution(dist: ScenarioDistribution) -> str:
    """Render a scenario distribution in the line format."""
    cands = dist.candidates
    lines = ["candidates: " + " ".join(c.label for c in cands)]
    for profile, prob in dist.scenarios:
        lines.append(f"scenario p={prob}")
        lines += _ballot_lines(profile)
    return "\n".join(lines) + "\n"
