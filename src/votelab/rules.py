"""Voting rules and tie-break policies.

Every rule here is resolute only up to internal ties (equal scores, tied
pairwise contests on even total weight, tied elimination rounds).  Rather
than resolving each tie locally, the adversarial policies branch over every
resolution globally:

* ``achievable_winners`` returns the set of candidates that win under some
  resolution of all internal ties;
* ``TieBreak.favor(c)`` makes c the winner whenever c is achievable;
* ``TieBreak.against(c)`` makes c the winner only when nothing else is
  achievable;
* ``TieBreak.lex()`` resolves every tie toward the lower candidate id
  (in elimination rounds the higher id is the one eliminated).

STV elimination ties are branched exactly for every candidate count: each
round depends only on the surviving candidates, so the branches share at
most 2^m candidate sets, each tallied once and charged to ``cap``.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, product
from operator import add
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import InvalidProfile, charge
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Candidate,
    Profile,
    _is_int,
    pairwise_counts,
)

#: Deepest cup agenda accepted; the tree walks recurse once per level.
MAX_AGENDA_DEPTH = 500

Agenda = Union[int, tuple]  # leaf: candidate id; node: (Agenda, Agenda)

Orders = tuple[tuple[int, ...], ...]
Weights = tuple[int, ...]


# ---------------------------------------------------------------------------
# Tie-break policy


@dataclass(frozen=True)
class TieBreak:
    """How the chair resolves internal ties; see the module docstring."""

    kind: str
    candidate: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "favor", "against"):
            raise InvalidProfile(f"unknown tie-break kind {self.kind!r}")
        if (self.kind == "lex") != (self.candidate is None):
            raise InvalidProfile("favor/against need a candidate, lex takes none")

    @staticmethod
    def lex() -> "TieBreak":
        return TieBreak("lex")

    @staticmethod
    def favor(candidate: int | Candidate) -> "TieBreak":
        return TieBreak("favor", _cand_id(candidate))

    @staticmethod
    def against(candidate: int | Candidate) -> "TieBreak":
        return TieBreak("against", _cand_id(candidate))


def _cand_id(candidate: int | Candidate) -> int:
    return candidate.id if isinstance(candidate, Candidate) else candidate


# ---------------------------------------------------------------------------
# Rule descriptions


@dataclass(frozen=True)
class ScoringVector:
    """Non-increasing, not-all-equal vector of non-negative integer scores."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        v = self.values
        if len(v) < 2:
            raise InvalidProfile("scoring vector needs at least two positions")
        if not all(map(_is_int, v)):
            raise InvalidProfile(f"scoring vector values must be integers, got {v!r}")
        if any(x < 0 for x in v):
            raise InvalidProfile("scoring vector values must be non-negative")
        if any(v[i] < v[i + 1] for i in range(len(v) - 1)):
            raise InvalidProfile("scoring vector must be non-increasing")
        if v[0] == v[-1]:
            raise InvalidProfile("scoring vector must not be constant")


@dataclass(frozen=True)
class Scoring:
    """A positional scoring rule: a named family or an explicit vector."""

    name: str | None = None
    vector: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.vector is None):
            raise InvalidProfile("give exactly one of a family name or a vector")
        if self.name is not None and self.name not in ("plurality", "veto", "borda"):
            raise InvalidProfile(f"unknown scoring family {self.name!r}")
        if self.vector is not None:
            try:
                object.__setattr__(self, "vector", tuple(self.vector))
            except TypeError as exc:
                raise InvalidProfile(f"a scoring vector is a sequence of integers: {exc}") from exc
            ScoringVector(self.vector)

    def vector_for(self, m: int) -> tuple[int, ...]:
        if self.vector is not None:
            if len(self.vector) != m:
                raise InvalidProfile(
                    f"scoring vector has {len(self.vector)} entries for {m} candidates"
                )
            return self.vector
        if self.name == "plurality":
            return (1,) + (0,) * (m - 1)
        if self.name == "veto":
            return (1,) * (m - 1) + (0,)
        return tuple(range(m - 1, -1, -1))  # borda


@dataclass(frozen=True)
class Cup(object):
    """Knockout tournament over a fixed agenda tree."""

    agenda: Agenda

    def __post_init__(self) -> None:
        depth = max(d for _, d in _leaf_depths(self.agenda))  # validates the tree
        if depth > MAX_AGENDA_DEPTH:
            raise InvalidProfile(
                f"cup agenda is {depth} levels deep, above the limit of {MAX_AGENDA_DEPTH}"
            )

    @cached_property
    def leaf_set(self) -> frozenset[int]:
        """The candidate ids at the agenda's leaves."""
        return frozenset(agenda_leaves(self.agenda))


@dataclass(frozen=True)
class Copeland:
    """Highest wins-minus-losses pairwise record."""


@dataclass(frozen=True)
class Copeland2:
    """Copeland with first-level ties broken by the sum of the first-order
    scores of each tied candidate's defeated competitors."""


@dataclass(frozen=True)
class Runoff:
    """Plurality with runoff between the top two."""


@dataclass(frozen=True)
class Stv:
    """Repeated elimination of the lowest top-choice weight until a strict
    majority appears."""


@dataclass(frozen=True)
class Pairing:
    """A one-round pairing of candidates, with an optional bye."""

    pairs: tuple[tuple[int, int], ...]
    bye: int | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "pairs", tuple((a, b) for a, b in self.pairs))
        except (TypeError, ValueError) as exc:
            raise InvalidProfile(f"each pair of a pairing holds two candidates: {exc}") from exc
        seen: list[int] = [c for pair in self.pairs for c in pair]
        if self.bye is not None:
            seen.append(self.bye)
        if not all(map(_is_int, seen)):
            raise InvalidProfile(f"a pairing holds int candidate ids, got {seen!r}")
        if len(set(seen)) != len(seen):
            raise InvalidProfile("pairing mentions a candidate twice")

    def members(self) -> frozenset[int]:
        return frozenset(
            [c for pair in self.pairs for c in pair]
            + ([self.bye] if self.bye is not None else [])
        )


@dataclass(frozen=True)
class Hybrid:
    """One pairwise knockout round, then plurality among the survivors.

    Each ballot's plurality vote goes to its highest-ranked survivor.
    """

    pairing: Pairing


Rule = Union[Scoring, Cup, Copeland, Copeland2, Runoff, Stv, Hybrid]

#: The rules decided by the pairwise majority outcome alone.
PAIRWISE_RULES = (Cup, Copeland, Copeland2)


def plurality() -> Scoring:
    return Scoring(name="plurality")


def veto() -> Scoring:
    return Scoring(name="veto")


def borda() -> Scoring:
    return Scoring(name="borda")


def _leaf_depths(agenda: Agenda) -> list[tuple[int, int]]:
    """(leaf id, depth) pairs in left-to-right order; validates the tree."""
    out: list[tuple[int, int]] = []
    stack: list[tuple[Agenda, int]] = [(agenda, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, int):
            out.append((node, d))
        elif isinstance(node, tuple) and len(node) == 2:
            stack += ((node[1], d + 1), (node[0], d + 1))
        else:
            raise InvalidProfile(f"malformed agenda node {node!r}")
    if len({c for c, _ in out}) != len(out):
        raise InvalidProfile("agenda repeats a candidate")
    return out


def agenda_leaves(agenda: Agenda) -> tuple[int, ...]:
    """Leaf candidate ids in left-to-right order; validates the tree."""
    return tuple(c for c, _ in _leaf_depths(agenda))


def is_balanced(agenda: Agenda) -> bool:
    """True when leaf depths differ by at most one."""
    depths = [d for _, d in _leaf_depths(agenda)]
    return max(depths) - min(depths) <= 1


def validate_rule_for(rule: Rule, m: int) -> None:
    """Check a rule is applicable to an m-candidate election."""
    if isinstance(rule, Scoring) and m >= 2:
        rule.vector_for(m)
    elif isinstance(rule, Cup):
        if rule.leaf_set != frozenset(range(m)):
            raise InvalidProfile("cup agenda must cover the candidate set exactly")
    elif isinstance(rule, Hybrid):
        if rule.pairing.members() != frozenset(range(m)):
            raise InvalidProfile("pairing must cover the candidate set exactly")


# ---------------------------------------------------------------------------
# Rule specification strings

#: The rules named by one bare word; rules are frozen, so one instance serves.
_NAMED_RULES: dict[str, Rule] = {
    "plurality": plurality(),
    "veto": veto(),
    "borda": borda(),
    "copeland": Copeland(),
    "copeland2": Copeland2(),
    "runoff": Runoff(),
    "stv": Stv(),
}
_RULE_NAMES = {rule: name for name, rule in _NAMED_RULES.items()}


def parse_rule(text: str, candidates: Sequence[Candidate]) -> Rule:
    """Parse a rule specification string such as ``cup:((A,B),C)``."""
    text = text.strip()
    if text in _NAMED_RULES:
        return _NAMED_RULES[text]
    if text.startswith("scoring:"):
        try:
            values = tuple(int(x) for x in text[len("scoring:") :].split(","))
        except ValueError as exc:
            raise InvalidProfile(f"bad scoring vector in {text!r}") from exc
        return Scoring(vector=values)
    if text.startswith("cup:"):
        return Cup(_parse_agenda(text[len("cup:") :], candidates))
    if text.startswith("hybrid:"):
        return Hybrid(_parse_pairing(text[len("hybrid:") :], candidates))
    raise InvalidProfile(f"unknown rule specification {text!r}")


def format_rule(rule: Rule, candidates: Sequence[Candidate]) -> str:
    if isinstance(rule, Hashable) and rule in _RULE_NAMES:
        return _RULE_NAMES[rule]
    if isinstance(rule, Scoring):
        return "scoring:" + ",".join(map(str, rule.vector))
    if isinstance(rule, Cup):
        return "cup:" + format_agenda(rule.agenda, candidates)
    if isinstance(rule, Hybrid):
        parts = "".join(
            f"({candidates[a].label},{candidates[b].label})" for a, b in rule.pairing.pairs
        )
        return "hybrid:" + parts
    raise InvalidProfile(f"unknown rule {rule!r}")


def format_agenda(agenda: Agenda, candidates: Sequence[Candidate]) -> str:
    if isinstance(agenda, int):
        return candidates[agenda].label
    return f"({format_agenda(agenda[0], candidates)},{format_agenda(agenda[1], candidates)})"


def _parse_agenda(text: str, candidates: Sequence[Candidate]) -> Agenda:
    depth = 0
    for ch in text:  # bound the recursion below before it starts
        depth += (ch == "(") - (ch == ")")
        if depth > MAX_AGENDA_DEPTH:
            raise InvalidProfile(
                f"agenda nests deeper than the limit of {MAX_AGENDA_DEPTH} levels"
            )
    by_label = {c.label: c.id for c in candidates}
    pos = 0

    def parse() -> Agenda:
        nonlocal pos
        if pos >= len(text):
            raise InvalidProfile(f"truncated agenda {text!r}")
        if text[pos] == "(":
            pos += 1
            left = parse()
            if pos >= len(text) or text[pos] != ",":
                raise InvalidProfile(f"expected ',' in agenda {text!r}")
            pos += 1
            right = parse()
            if pos >= len(text) or text[pos] != ")":
                raise InvalidProfile(f"expected ')' in agenda {text!r}")
            pos += 1
            return (left, right)
        start = pos
        while pos < len(text) and text[pos] not in "(),":
            pos += 1
        label = text[start:pos].strip()
        if label not in by_label:
            raise InvalidProfile(f"unknown candidate {label!r} in agenda")
        return by_label[label]

    agenda = parse()
    if pos != len(text.rstrip()):
        raise InvalidProfile(f"trailing characters in agenda {text!r}")
    return agenda


def _parse_pairing(text: str, candidates: Sequence[Candidate]) -> Pairing:
    by_label = {c.label: c.id for c in candidates}
    body = text.strip()
    pairs: list[tuple[int, int]] = []
    while body:
        if not body.startswith("("):
            raise InvalidProfile(f"bad pairing syntax {text!r}")
        close = body.index(")") if ")" in body else -1
        if close < 0:
            raise InvalidProfile(f"unclosed pair in {text!r}")
        inner = body[1:close]
        names = [s.strip() for s in inner.split(",")]
        if len(names) != 2:
            raise InvalidProfile(f"each pre-round pair needs two candidates: {inner!r}")
        for name in names:
            if name not in by_label:
                raise InvalidProfile(f"unknown candidate {name!r} in pairing")
        pairs.append((by_label[names[0]], by_label[names[1]]))
        body = body[close + 1 :].strip()
    paired = {c for pair in pairs for c in pair}
    rest = [c.id for c in candidates if c.id not in paired]
    if len(rest) > 1:
        raise InvalidProfile("pairing leaves more than one candidate without a pair")
    return Pairing(tuple(pairs), rest[0] if rest else None)


# ---------------------------------------------------------------------------
# Pairwise machinery shared by several rules
#
# A majority outcome is two bitmasks per candidate: ``beats[c]`` has bit d
# set when c strictly beats d, and ``holds[c]`` when c beats or ties d.
# ``_pairs_masks`` reads them off a ``_pairs_tally``; the pairwise
# projection builds them from a pattern of pair outcomes.


def _outcome_masks(
    pairs: Iterable[tuple[int, int]], diffs: Iterable[int], beats: list[int], holds: list[int]
) -> tuple[list[int], list[int]]:
    """Set each pair (i, j)'s outcome in ``beats`` and ``holds``: i beats j
    when its diff is positive, j beats i when it is negative, a tie at 0."""
    for (i, j), d in zip(pairs, diffs):
        if d > 0:
            beats[i] |= 1 << j
            holds[i] |= 1 << j
        elif d < 0:
            beats[j] |= 1 << i
            holds[j] |= 1 << i
        else:
            holds[i] |= 1 << j
            holds[j] |= 1 << i
    return beats, holds


def _bits(mask: int) -> list[int]:
    """The ids whose bits are set in ``mask``, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _cup_mask(match: tuple, holds: Sequence[int], branch: bool) -> int:
    """The candidates able to win the cup match ``match`` (an agenda that is
    not a single leaf) under some resolution of pairwise ties, as a mask.

    Without ``branch`` each match keeps only the lowest id among those that
    can win it, which is the lexicographic resolution's single winner.
    """
    left, right = match
    left = 1 << left if isinstance(left, int) else _cup_mask(left, holds, branch)
    right = 1 << right if isinstance(right, int) else _cup_mask(right, holds, branch)
    # a candidate can win the match iff it beats or ties some rival
    out = 0
    for side, rivals in ((left, right), (right, left)):
        while side:
            low = side & -side
            if holds[low.bit_length() - 1] & rivals:
                out |= low
            side ^= low
    return out if branch else out & -out


def _copeland_scores(beats: Sequence[int], holds: Sequence[int]) -> list[int]:
    """Wins minus losses: a candidate loses to the m - 1 rivals less those
    it beats or ties."""
    rivals = len(beats) - 1
    return [b.bit_count() + h.bit_count() - rivals for b, h in zip(beats, holds)]


def achievable_from_masks(
    rule: Cup | Copeland | Copeland2,
    beats: Sequence[int],
    holds: Sequence[int],
    *,
    branch: bool = True,
) -> frozenset[int]:
    """Winner ids of a pairwise rule from its majority outcome alone."""
    if isinstance(rule, Cup):
        agenda = rule.agenda
        if isinstance(agenda, int):
            return frozenset((agenda,))
        return frozenset(_bits(_cup_mask(agenda, holds, branch)))
    first = _copeland_scores(beats, holds)
    if isinstance(rule, Copeland2):  # ties broken by the defeated rivals' scores
        keys = [(f, sum(map(first.__getitem__, _bits(b)))) for f, b in zip(first, beats)]
    else:
        keys = first
    winners = _argmax_set(keys)
    return winners if branch else frozenset((min(winners),))


# ---------------------------------------------------------------------------
# Tallies
#
# A tally is a list of ints to which each ballot adds its weight times its
# order's tally at weight 1, so the tallies of a split of the ballots sum to
# the election's.  A rule decided from its tally reads nothing else.


def _scoring_tally(rule: Scoring, orders: Orders, weights: Weights, m: int) -> list[int]:
    """Each candidate's score."""
    vector = rule.vector_for(m)
    scores = [0] * m
    for order, w in zip(orders, weights):
        for position, cand in enumerate(order):
            scores[cand] += w * vector[position]
    return scores


def _pair_at(i: int, j: int, m: int) -> int:
    """Where ``_pairs_tally`` keeps the pair i < j: after the m first-place
    weights, the pairs in lexicographic order."""
    return m + i * (2 * m - i - 1) // 2 + j - i - 1


@cache
def _pair_rows(m: int) -> tuple[int, ...]:
    """``_pair_at(i, 0, m)`` for each i < m, so the pair i < j sits at
    ``rows[i] + j``; one small tuple is kept per candidate count."""
    return tuple(_pair_at(i, 0, m) for i in range(m))


def _won_pairs(orders: Iterable[tuple[int, ...]], m: int) -> list[int]:
    """Per order, the pairs it wins as one int: bit ``_pair_at(i, j, m) - m``
    is set when the order ranks i over j, for each pair i < j."""
    # the pairs (a, j) for j > a take the bits from first[a] on, in j order;
    # rest holds the candidates the order ranks below a
    first = [row + a + 1 - m for a, row in enumerate(_pair_rows(m))]
    masks = []
    for order in orders:
        rest, mask = (1 << m) - 1, 0
        for a in order:
            rest ^= 1 << a
            mask |= (rest >> (a + 1)) << first[a]
        masks.append(mask)
    return masks


def _pairs_tally(rule: Rule, orders: Orders, weights: Weights, m: int) -> list[int]:
    """Each candidate's first-place weight, then, at ``_pair_at(i, j, m)``
    for each pair i < j, the weight ranking i over j."""
    tally = [0] * (m + m * (m - 1) // 2)
    rows = _pair_rows(m)
    for order, w in zip(orders, weights):
        tally[order[0]] += w
        ahead: list[int] = []
        for j in order:
            for i in ahead:
                if i < j:
                    tally[rows[i] + j] += w
            ahead.append(j)
    return tally


def _pairs_masks(tally: Sequence[int], m: int, total: int) -> tuple[list[int], list[int]]:
    """From a ``_pairs_tally``: per candidate, the rivals it beats and the
    rivals it beats or ties, as bitmasks."""
    diffs = [2 * n - total for n in tally[m:]]  # as ``_pair_at`` lays them
    return _outcome_masks(combinations(range(m), 2), diffs, [0] * m, [0] * m)


def _top_tallies(orders: Orders, weights: Weights, m: int, alive: frozenset[int]) -> list[int]:
    """Top-choice weights among ``alive``: an STV round, or a hybrid's survivors."""
    tally = [0] * m
    if len(alive) == m:  # every first choice is alive
        for order, w in zip(orders, weights):
            tally[order[0]] += w
        return tally
    for order, w in zip(orders, weights):
        for cand in order:
            if cand in alive:
                tally[cand] += w
                break
    return tally


# ---------------------------------------------------------------------------
# Per-rule winner sets on complete elections


def _argmax_set(scores: Sequence) -> frozenset[int]:
    best = max(scores)
    return frozenset(i for i, s in enumerate(scores) if s == best)


def _scoring_ids(
    rule: Scoring, tally: list[int], m: int, total: int, branch: bool, cap: int | None
) -> frozenset[int]:
    winners = _argmax_set(tally)
    return winners if branch else frozenset((min(winners),))


def _pairwise_ids(
    rule: Cup | Copeland | Copeland2, tally: list[int], m: int, total: int, branch: bool,
    cap: int | None,
) -> frozenset[int]:
    return achievable_from_masks(rule, *_pairs_masks(tally, m, total), branch=branch)


def _runoff_ids(
    rule: Runoff, tally: list[int], m: int, total: int, branch: bool, cap: int | None
) -> frozenset[int]:
    for cand in range(m):
        if 2 * tally[cand] > total:
            return frozenset((cand,))
    ranked = sorted(range(m), key=lambda c: (-tally[c], c))
    if branch:
        finals = []
        for i in range(m):
            for j in range(i + 1, m):
                pair = (ranked[i], ranked[j])
                cut = min(tally[pair[0]], tally[pair[1]])
                if all(tally[x] <= cut for x in range(m) if x not in pair):
                    finals.append(frozenset(pair))
    else:
        finals = [frozenset(ranked[:2])]
    out: set[int] = set()
    for final in finals:
        a, b = sorted(final)
        d = 2 * tally[_pair_at(a, b, m)] - total
        if d >= 0:  # a lex tie goes to the lower id, a
            out.add(a)
        if d < 0 or (branch and d == 0):
            out.add(b)
    return frozenset(out)


def _stv_winners(
    rule: Stv,
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    branch: bool,
    cap: int | None,
) -> frozenset[int]:
    """Winner set of STV, one elimination level at a time.

    The frontier holds the distinct sets of surviving candidates after the
    same number of eliminations; each is tallied once.  With ``branch`` every
    candidate tied for the lowest top-choice weight is eliminated in its own
    branch; the lexicographic resolution eliminates only the highest id.
    Raises CapExceeded when more than ``cap`` sets would be tallied.
    """
    out: set[int] = set()
    frontier = {frozenset(range(m))}
    states = 0
    while frontier:
        states = charge(states + len(frontier), cap, "STV elimination candidate sets")
        following: set[frozenset[int]] = set()
        for alive in frontier:
            tally = _top_tallies(orders, weights, m, alive)
            leader = max(alive, key=tally.__getitem__)
            if 2 * tally[leader] > total:
                out.add(leader)
                continue
            least = min(tally[c] for c in alive)
            tied = [c for c in alive if tally[c] == least]
            for cand in tied if branch else (max(tied),):
                following.add(alive - {cand})
        frontier = following
    return frozenset(out)


def _hybrid_rounds(
    pairing: Pairing,
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    branch: bool,
    cap: int | None,
    slack: int = 0,
) -> Iterator[list[int]]:
    """The winners of each way the pairing's round may end.

    A candidate survives its pair when the orders' weight against it is at
    most half of ``total``; at exactly half, only the lower id survives
    unless ``branch`` is set.  The bye always survives.  Each set of
    survivors takes one survivor from every pair, so the sets double with
    each pair whose sides both survive.  The orders' weights go to their
    highest-ranked survivor; a survivor wins when ``slack`` more weight lifts
    its tally to the best (0 for the rule itself), and without ``branch``
    only the lowest id among the winners is kept.  Raises CapExceeded when
    more than ``cap`` sets would be tallied.
    """
    counts = pairwise_counts(orders, weights, m)

    def survives(c: int, o: int) -> bool:
        d = 2 * counts[o][c] - total
        return d < 0 or (d == 0 and (branch or c < o))

    sides = [[c for c, o in ((a, b), (b, a)) if survives(c, o)] for a, b in pairing.pairs]
    bye = (pairing.bye,) if pairing.bye is not None else ()
    for tallied, picks in enumerate(product(*sides), 1):
        charge(tallied, cap, "hybrid survivor sets")
        survivors = frozenset(picks + bye)
        tally = _top_tallies(orders, weights, m, survivors)
        best = max(tally[c] for c in survivors)
        winners = [c for c in survivors if tally[c] + slack >= best]
        yield winners if branch else [min(winners)]


def _hybrid_ids(
    rule: Hybrid,
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    branch: bool,
    cap: int | None,
) -> frozenset[int]:
    rounds = _hybrid_rounds(rule.pairing, orders, weights, m, total, branch, cap)
    return frozenset(chain.from_iterable(rounds))


# ---------------------------------------------------------------------------
# Bounds over sets of elections
#
# A bound reads the rule's tally.  Given ``lo`` and ``hi``, the least and
# most of each coordinate over a set of elections of total weight
# ``total``, ``bound(rule, c, lo, hi, m, total)`` is False only when c wins
# no election of the set under any resolution of its ties.  The ids it
# keeps are a superset of the set's winners.


def _scoring_bound(
    rule: Scoring, c: int, lo: Sequence[int], hi: Sequence[int], m: int, total: int
) -> bool:
    """Does c's most score reach every candidate's least score?"""
    return hi[c] >= max(lo)


def _reach(c: int, d: int, lo: Sequence[int], hi: Sequence[int], m: int, total: int) -> int:
    """The most weight that may rank c over d: all of it less the least that
    ranks d over c, for every ballot ranks one of them over the other."""
    return hi[_pair_at(c, d, m)] if c < d else total - lo[_pair_at(d, c, m)]


def _runoff_bound(
    rule: Stv | Runoff, c: int, lo: Sequence[int], hi: Sequence[int], m: int, total: int
) -> bool:
    """Has c a partner d that c may beat or tie, such that no other candidate
    must lead either of them in first places?

    A strict first-place majority passes too: its holder beats every rival,
    and none leads the runner-up.
    """
    for d in range(m):
        if d != c and 2 * _reach(c, d, lo, hi, m, total) >= total:
            cut = min(hi[c], hi[d])
            if all(lo[x] <= cut for x in range(m) if x != c and x != d):
                return True
    return False


#: The one rule table: each rule type's tally, its decider, called with
#: (rule, tally, m, total, branch, cap), and its bound.  STV and the hybrid
#: tally each round afresh, so they have no tally and their deciders take
#: (rule, orders, weights, m, total, branch, cap).  Cup and Copeland(2)
#: read the tally's majority outcome as bitmasks (``_pairs_masks``), and
#: take the pairwise projection, which builds the same masks, instead of a
#: bound; a hybrid is not bounded.
_DECIDERS: dict[type, tuple[Callable | None, Callable[..., frozenset[int]], Callable | None]] = {
    Scoring: (_scoring_tally, _scoring_ids, _scoring_bound),
    Cup: (_pairs_tally, _pairwise_ids, None),
    Copeland: (_pairs_tally, _pairwise_ids, None),
    Copeland2: (_pairs_tally, _pairwise_ids, None),
    Runoff: (_pairs_tally, _runoff_ids, _runoff_bound),
    Stv: (None, _stv_winners, None),
    Hybrid: (None, _hybrid_ids, None),
}


def _rule_bound(rule: Rule, m: int) -> tuple[Callable, Callable] | None:
    """The rule's (tally, bound) pair at m candidates, or None.

    STV shares runoff's up to three candidates, where the two rules elect
    alike (one elimination, then the final pair).  Past three it has none:
    first-place and head-to-head weights alone bound STV too loosely to pay
    for their upkeep.
    """
    kind = Runoff if isinstance(rule, Stv) and m <= 3 else type(rule)
    tally, _, bound = _DECIDERS.get(kind, (None, None, None))
    return None if bound is None else (tally, bound)


def _fixed_part(
    rule: Rule, orders: Orders, weights: Weights, m: int
) -> tuple[list[int] | None, Orders, Weights]:
    """(base, orders, weights) for a caller deciding many elections that
    share the ballots (orders, weights): their tally and no orders, or, for
    a rule decided from its orders, None and the ballots themselves."""
    tally = _DECIDERS.get(type(rule), (None,))[0]
    if m == 1 or tally is None:
        return None, orders, weights
    return tally(rule, orders, weights, m), (), ()


class _TallyStack:
    """The tallies of a scan's assignments, each summed from the groups it
    shares with the one before.

    An assignment holds one multiset of orders per group, as
    ``iter_assignments`` yields it; a call with one returns ``base`` plus
    each order's tally at weight 1 (``unit``, from ``tally``, the rule's own
    unless given) times its group's weight.  One tally is kept per depth:
    for d below ``depth``, ``heads[d]`` is the multiset held at depth d and
    ``tallies[d + 1]`` is ``base`` plus the multisets through it.  A call
    re-adds only the groups from the first whose multiset is not (``is``)
    the one held at that depth, and then holds exactly its own, so an
    odometer step re-adds its last groups alone, while a jump, a repeat or
    a shorter prefix (which returns the tally at its depth) is read just as
    right.  Every multiset compared is held here, so none is freed and
    reused while it is compared.  Each order's tally, alone and times each
    group weight, is made once; nothing is kept past the caller's scan.
    """

    def __init__(
        self, rule: Rule, base: list[int], groups: Sequence, tally: Callable | None = None
    ) -> None:
        self.rule, self.tally = rule, tally or _DECIDERS[type(rule)][0]
        self.units: dict[tuple[int, ...], list[int]] = {}
        # per depth: the group's weight, and its orders' tallies times it,
        # shared by the groups of one weight
        scaled: dict[int, dict[tuple[int, ...], list[int]]] = {}
        self.scaled = [(g.weight, scaled.setdefault(g.weight, {})) for g in groups]
        self.heads: list[tuple[tuple[int, ...], ...]] = [()] * len(groups)
        self.tallies = [base] * (len(groups) + 1)
        self.depth = 0

    def unit(self, order: tuple[int, ...]) -> list[int]:
        """The order's tally at weight 1."""
        units = self.units
        return units.get(order) or units.setdefault(
            order, self.tally(self.rule, (order,), (1,), len(order))
        )

    def __call__(self, assignment: Sequence[tuple[tuple[int, ...], ...]]) -> list[int]:
        heads, n = self.heads, len(assignment)
        same, held = 0, min(self.depth, n)
        while same < held and heads[same] is assignment[same]:
            same += 1
        tallies = self.tallies
        if same < n:
            stat, per_depth = tallies[same], self.scaled
            for d in range(same, n):
                combo, (weight, scaled) = assignment[d], per_depth[d]
                for order in combo:
                    unit = scaled.get(order)
                    if unit is None:
                        unit = scaled[order] = [weight * u for u in self.unit(order)]
                    stat = list(map(add, stat, unit))
                heads[d], tallies[d + 1] = combo, stat
            self.depth = n  # the deeper slots held another prefix's multisets
        return tallies[n]


def _achievable_ids(
    rule: Rule,
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    *,
    base: list[int] | None = None,
    branch: bool = True,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> frozenset[int]:
    """Winner ids achievable over tie resolutions (or the lex singleton).

    The election is (orders, weights), or, for a rule with a tally, the
    tally ``base`` a caller summed for it (``_TallyStack``), and then no
    orders are read.  ``cap`` bounds the candidate sets that STV's
    elimination search, or the hybrid's sets of survivors, may tally.
    """
    if m == 1:
        return frozenset((0,))
    entry = _DECIDERS.get(type(rule))
    if entry is None:
        raise InvalidProfile(f"unknown rule {rule!r}")
    tally, decide, _ = entry
    if tally is None:
        return decide(rule, orders, weights, m, total, branch, cap)
    if base is None:
        base = tally(rule, orders, weights, m)
    return decide(rule, base, m, total, branch, cap)


# ---------------------------------------------------------------------------
# Public interface


def _positive_total(total: int) -> int:
    if total < 1:
        raise InvalidProfile("an election needs positive total weight")
    return total


def _complete_arrays(profile: Profile) -> tuple[Orders, Weights, int, int]:
    orders, weights = profile.complete_arrays()
    return orders, weights, profile.m, _positive_total(profile.total_weight)


def _checked_tie_break(rule: Rule, profile: Profile, tb: TieBreak) -> int | None:
    """Check the rule against the profile's candidates, once per election
    shape; the id of the candidate ``tb`` names, or None under lex."""
    validate_rule_for(rule, profile.m)
    return None if tb.kind == "lex" else profile.candidate(tb.candidate).id


def _tie_broken_id(
    rule: Rule,
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    tb: TieBreak,
    favoured: int | None,
    cap: int | None,
    base: list[int] | None = None,
) -> int:
    """The winner id of the election that ``_achievable_ids`` reads under
    ``tb``, whose candidate id ``_checked_tie_break`` gave as ``favoured``."""
    ids = _achievable_ids(
        rule, orders, weights, m, total, base=base, branch=tb.kind != "lex", cap=cap
    )
    if tb.kind != "against":  # lex favours no one: ids is then its one winner
        return favoured if favoured in ids else min(ids)
    rest = ids - {favoured}
    return min(rest) if rest else favoured


def achievable_winners(
    rule: Rule, profile: Profile, *, cap: int | None = DEFAULT_COMPLETION_CAP
) -> frozenset[Candidate]:
    """All candidates that win under some resolution of internal ties.

    ``cap`` bounds the candidate sets that STV's elimination search, or the
    hybrid's sets of survivors, may tally.
    """
    orders, weights, m, total = _complete_arrays(profile)
    validate_rule_for(rule, m)
    ids = _achievable_ids(rule, orders, weights, m, total, branch=True, cap=cap)
    return frozenset(profile.candidates[i] for i in ids)


def winner(
    rule: Rule,
    profile: Profile,
    tb: TieBreak | None = None,
    *,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> Candidate:
    """The unique winner with every internal tie resolved by the policy.

    Favor(c) resolves ties the way most helpful to c winning overall;
    Against(c) the way most harmful; when the policy's preference cannot be
    satisfied the lowest-id achievable candidate is returned.  ``cap`` is as
    for ``achievable_winners``.
    """
    tb = tb or TieBreak.lex()
    orders, weights, m, total = _complete_arrays(profile)
    favoured = _checked_tie_break(rule, profile, tb)
    return profile.candidates[
        _tie_broken_id(rule, orders, weights, m, total, tb, favoured, cap)
    ]


def copeland_score(profile: Profile, candidate: int | Candidate) -> int:
    """Pairwise wins minus losses; ties contribute nothing."""
    orders, weights, m, total = _complete_arrays(profile)
    masks = _pairs_masks(_pairs_tally(Copeland(), orders, weights, m), m, total)
    return _copeland_scores(*masks)[profile.candidate(candidate).id]


def cup_winner(agenda: Agenda, profile: Profile, tb: TieBreak | None = None) -> Candidate:
    return winner(Cup(agenda), profile, tb)


def hybrid_winner(pairing: Pairing, profile: Profile, tb: TieBreak | None = None) -> Candidate:
    return winner(Hybrid(pairing), profile, tb)
