"""Reference winners for complete profiles, written apart from votelab.rules.

The benchmark checks ``cli-bulk`` answers against these.  A rule is a tuple
``(family, parameter)``:

    ("scoring", vector)   ("copeland", None)   ("copeland2", None)
    ("runoff", None)      ("stv", None)        ("cup", agenda)
    ("hybrid", (pairs, bye))

``counts`` is the pairwise matrix, ``counts[a][b]`` being the weight ranking
a above b.  ``winners`` returns the ids that win under some resolution of the rule's
internal ties, together with the lexicographic winner (ties toward the lower
id; in elimination rounds the higher id goes out).  ``winner`` applies the
lex / favor / against tie-break policies on top.
"""

from __future__ import annotations

from itertools import product


def _top_tally(orders, weights, m, alive):
    tally = [0] * m
    for order, w in zip(orders, weights):
        tally[next(c for c in order if c in alive)] += w
    return tally


def _argmax(keys, among):
    best = max(keys[c] for c in among)
    return {c for c in among if keys[c] == best}


def _scoring(vector, orders, weights, m, counts, total):
    scores = [0] * m
    for order, w in zip(orders, weights):
        for pos, c in enumerate(order):
            scores[c] += w * vector[pos]
    top = _argmax(scores, range(m))
    return top, min(top)


def _copeland_scores(counts, total, m):
    def sign(i, j):
        d = 2 * counts[i][j] - total
        return (d > 0) - (d < 0)

    return [sum(sign(i, j) for j in range(m) if j != i) for i in range(m)], sign


def _copeland(_, orders, weights, m, counts, total):
    scores, _ = _copeland_scores(counts, total, m)
    top = _argmax(scores, range(m))
    return top, min(top)


def _copeland2(_, orders, weights, m, counts, total):
    scores, sign = _copeland_scores(counts, total, m)
    keys = [
        (scores[i], sum(scores[j] for j in range(m) if j != i and sign(i, j) > 0))
        for i in range(m)
    ]
    top = _argmax(keys, range(m))
    return top, min(top)


def _cup(agenda, orders, weights, m, counts, total):
    def walk(node, lex):
        if isinstance(node, int):
            return {node}
        out = set()
        for x in walk(node[0], lex):
            for y in walk(node[1], lex):
                d = 2 * counts[x][y] - total
                if lex:
                    out.add(x if d > 0 else y if d < 0 else min(x, y))
                    continue
                if d >= 0:
                    out.add(x)
                if d <= 0:
                    out.add(y)
        return out

    (lex,) = walk(agenda, True)
    return walk(agenda, False), lex


def _runoff(_, orders, weights, m, counts, total):
    tally = _top_tally(orders, weights, m, set(range(m)))
    for c in range(m):
        if 2 * tally[c] > total:
            return {c}, c

    def duel(a, b, lex):
        a, b = sorted((a, b))
        d = 2 * counts[a][b] - total
        if lex:
            return {b} if d < 0 else {a}
        return ({a} if d >= 0 else set()) | ({b} if d <= 0 else set())

    ranked = sorted(range(m), key=lambda c: (-tally[c], c))
    lex_pair = ranked[:2]
    finals = []
    for a in range(m):
        for b in range(a + 1, m):
            cut = min(tally[a], tally[b])
            if all(tally[x] <= cut for x in range(m) if x not in (a, b)):
                finals.append((a, b))
    found = set().union(*(duel(a, b, False) for a, b in finals))
    (lex,) = duel(*lex_pair, True)
    return found, lex


def _stv(_, orders, weights, m, counts, total):
    def rounds(alive, lex):
        tally = _top_tally(orders, weights, m, alive)
        for c in alive:
            if 2 * tally[c] > total:
                return {c}
        least = min(tally[c] for c in alive)
        tied = sorted(c for c in alive if tally[c] == least)
        if lex:
            return rounds(alive - {tied[-1]}, True)
        return set().union(*(rounds(alive - {c}, False) for c in tied))

    everyone = frozenset(range(m))
    (lex,) = rounds(everyone, True)
    return rounds(everyone, False), lex


def _hybrid(pairing, orders, weights, m, counts, total):
    pairs, bye = pairing
    options = []
    lex_pick = []
    for a, b in pairs:
        d = 2 * counts[a][b] - total
        options.append((a,) if d > 0 else (b,) if d < 0 else (a, b))
        lex_pick.append(a if d > 0 else b if d < 0 else min(a, b))
    extra = () if bye is None else (bye,)
    found = set()
    for picks in product(*options):
        alive = set(picks + extra)
        found |= _argmax(_top_tally(orders, weights, m, alive), alive)
    alive = set(lex_pick) | set(extra)
    lex = min(_argmax(_top_tally(orders, weights, m, alive), alive))
    return found, lex


_FAMILIES = {
    "scoring": _scoring,
    "copeland": _copeland,
    "copeland2": _copeland2,
    "runoff": _runoff,
    "stv": _stv,
    "cup": _cup,
    "hybrid": _hybrid,
}


def winners(rule, orders, weights, m, counts):
    """(ids achievable over tie resolutions, lexicographic winner id)."""
    family, param = rule
    return _FAMILIES[family](param, orders, weights, m, counts, sum(weights))


def winner(rule, orders, weights, m, counts, tb) -> int:
    """The winner id under tie-break ``tb``: ("lex",), ("favor", c), ("against", c)."""
    found, lex = winners(rule, orders, weights, m, counts)
    if tb[0] == "lex":
        return lex
    c = tb[1]
    if tb[0] == "favor":
        return c if c in found else min(found)
    rest = found - {c}
    return min(rest) if rest else c


def condorcet(counts, total, m):
    """The id beating every rival by strict majority, or None."""
    for c in range(m):
        if all(2 * counts[c][j] > total for j in range(m) if j != c):
            return c
    return None
