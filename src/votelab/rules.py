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
from itertools import chain, product
from typing import Callable, Iterator, Sequence, Union

from .errors import InvalidProfile, charge
from .profiles import (
    DEFAULT_COMPLETION_CAP,
    Candidate,
    Profile,
    cached_attribute,
    pairwise_counts,
)

#: Deepest cup agenda accepted; the tree walks recurse once per level.
MAX_AGENDA_DEPTH = 500

Agenda = Union[int, tuple]  # leaf: candidate id; node: (Agenda, Agenda)

Orders = tuple[tuple[int, ...], ...]
Weights = tuple[int, ...]
Sign = Callable[[int, int], int]


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
            object.__setattr__(self, "vector", tuple(self.vector))
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

    @cached_attribute
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
        object.__setattr__(self, "pairs", tuple(tuple(pair) for pair in self.pairs))
        seen: list[int] = [c for pair in self.pairs for c in pair]
        if self.bye is not None:
            seen.append(self.bye)
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

#: The rules decided by the pairwise majority signs alone.
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


def sign_matrix(counts: Sequence[Sequence[int]], total: int) -> list[list[int]]:
    """sign[i][j] = 1 if i strictly beats j, -1 if j does, 0 on a tie."""
    m = len(counts)
    sign = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                d = 2 * counts[i][j] - total
                sign[i][j] = 1 if d > 0 else (-1 if d < 0 else 0)
    return sign


def cup_achievable_from_sign(
    agenda: Agenda, sign: Sequence[Sequence[int]], branch: bool = True
) -> frozenset[int]:
    """Candidates able to win the cup under some resolution of pairwise ties.

    Without ``branch`` each match keeps only the lowest id among those that
    can win it, which is the lexicographic resolution's single winner.
    """

    def walk(node: Agenda) -> list[int]:
        if isinstance(node, int):
            return [node]
        left, right = walk(node[0]), walk(node[1])
        # a candidate can win the match iff it beats or ties some rival
        out = [x for x in left if max(map(sign[x].__getitem__, right)) >= 0]
        out += [y for y in right if max(map(sign[y].__getitem__, left)) >= 0]
        return out if branch else [min(out)]

    return frozenset(walk(agenda))


def copeland_scores_from_sign(sign: Sequence[Sequence[int]]) -> list[int]:
    m = len(sign)
    return [sum(sign[i][j] for j in range(m) if j != i) for i in range(m)]


def copeland2_keys_from_sign(sign: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """(first-order score, defeated competitors' score sum) per candidate."""
    m = len(sign)
    first = copeland_scores_from_sign(sign)
    keys = []
    for i in range(m):
        second = sum(first[j] for j in range(m) if j != i and sign[i][j] > 0)
        keys.append((first[i], second))
    return keys


# ---------------------------------------------------------------------------
# Per-rule winner sets on complete elections


def _argmax_set(scores: Sequence) -> frozenset[int]:
    best = max(scores)
    return frozenset(i for i, s in enumerate(scores) if s == best)


def achievable_from_sign(
    rule: Cup | Copeland | Copeland2,
    sign: Sequence[Sequence[int]],
    *,
    branch: bool = True,
) -> frozenset[int]:
    """Winner ids of a pairwise rule from its majority sign matrix alone."""
    if isinstance(rule, Cup):
        return cup_achievable_from_sign(rule.agenda, sign, branch)
    keys = (
        copeland2_keys_from_sign(sign)
        if isinstance(rule, Copeland2)
        else copeland_scores_from_sign(sign)
    )
    winners = _argmax_set(keys)
    return winners if branch else frozenset((min(winners),))


def _scoring_scores(orders: Orders, weights: Weights, m: int, vector: tuple[int, ...]) -> list[int]:
    scores = [0] * m
    for order, w in zip(orders, weights):
        for position, cand in enumerate(order):
            scores[cand] += w * vector[position]
    return scores


def _top_tallies(orders: Orders, weights: Weights, m: int, alive: frozenset[int]) -> list[int]:
    tally = [0] * m
    for order, w in zip(orders, weights):
        for cand in order:
            if cand in alive:
                tally[cand] += w
                break
    return tally


def _stv_winners(
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


def _runoff_winners(
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    branch: bool,
) -> frozenset[int]:
    alive = frozenset(range(m))
    tally = _top_tallies(orders, weights, m, alive)
    for cand in range(m):
        if 2 * tally[cand] > total:
            return frozenset((cand,))
    if m == 2:
        finals = [frozenset(range(2))]
    elif branch:
        finals = []
        ranked = sorted(range(m), key=lambda c: (-tally[c], c))
        for i in range(m):
            for j in range(i + 1, m):
                pair = (ranked[i], ranked[j])
                cut = min(tally[pair[0]], tally[pair[1]])
                if all(tally[x] <= cut for x in range(m) if x not in pair):
                    finals.append(frozenset(pair))
    else:
        ranked = sorted(range(m), key=lambda c: (-tally[c], c))
        finals = [frozenset(ranked[:2])]
    counts = pairwise_counts(orders, weights, m)
    out: set[int] = set()
    for final in finals:
        a, b = sorted(final)
        d = 2 * counts[a][b] - total
        if branch:
            if d >= 0:
                out.add(a)
            if d <= 0:
                out.add(b)
        else:
            out.add(a if d > 0 else (b if d < 0 else a))
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


def _achievable_ids(
    rule: Rule,
    orders: Orders,
    weights: Weights,
    m: int,
    total: int,
    *,
    branch: bool = True,
    cap: int | None = DEFAULT_COMPLETION_CAP,
) -> frozenset[int]:
    """Winner ids achievable over tie resolutions (or the lex singleton).

    ``cap`` bounds the candidate sets that STV's elimination search, or the
    hybrid's sets of survivors, may tally.
    """
    if m == 1:
        return frozenset((0,))
    if isinstance(rule, Scoring):
        scores = _scoring_scores(orders, weights, m, rule.vector_for(m))
        winners = _argmax_set(scores)
        return winners if branch else frozenset((min(winners),))
    if isinstance(rule, PAIRWISE_RULES):
        sign = sign_matrix(pairwise_counts(orders, weights, m), total)
        return achievable_from_sign(rule, sign, branch=branch)
    if isinstance(rule, Stv):
        return _stv_winners(orders, weights, m, total, branch, cap)
    if isinstance(rule, Runoff):
        return _runoff_winners(orders, weights, m, total, branch)
    if isinstance(rule, Hybrid):
        rounds = _hybrid_rounds(rule.pairing, orders, weights, m, total, branch, cap)
        return frozenset(chain.from_iterable(rounds))
    raise InvalidProfile(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# Public interface


def _complete_arrays(profile: Profile) -> tuple[Orders, Weights, int, int]:
    orders, weights = profile.complete_arrays()
    total = profile.total_weight
    if total < 1:
        raise InvalidProfile("an election needs positive total weight")
    return orders, weights, profile.m, total


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
    validate_rule_for(rule, m)
    if tb.kind == "lex":
        ids = _achievable_ids(rule, orders, weights, m, total, branch=False, cap=cap)
        return profile.candidates[min(ids)]
    ids = _achievable_ids(rule, orders, weights, m, total, branch=True, cap=cap)
    if tb.candidate is None or tb.candidate not in range(m):
        raise InvalidProfile("tie-break candidate outside the profile")
    if tb.kind == "favor":
        chosen = tb.candidate if tb.candidate in ids else min(ids)
    else:
        rest = ids - {tb.candidate}
        chosen = min(rest) if rest else tb.candidate
    return profile.candidates[chosen]


def copeland_score(profile: Profile, candidate: int | Candidate) -> int:
    """Pairwise wins minus losses; ties contribute nothing."""
    orders, weights, m, total = _complete_arrays(profile)
    counts = pairwise_counts(orders, weights, m)
    sign = sign_matrix(counts, total)
    cand = _cand_id(candidate)
    return sum(sign[cand][j] for j in range(m) if j != cand)


def cup_winner(agenda: Agenda, profile: Profile, tb: TieBreak | None = None) -> Candidate:
    return winner(Cup(agenda), profile, tb)


def hybrid_winner(pairing: Pairing, profile: Profile, tb: TieBreak | None = None) -> Candidate:
    return winner(Hybrid(pairing), profile, tb)
