"""Referee for the text parsers: texts written from known data parse back to it.

Each text comes from a seeded generator in ``helpers`` that knows the profile
or distribution it wrote.  A valid text must parse to exactly that, with every
repeat of a ballot line giving the same ballot object.  The same text with one
vote line corrupted must fail with that line's number and exact message.
"""

import random

import pytest

from votelab import ProfileParseError, parse_distribution, parse_profile

import helpers as H

RANK_ONCE = "a vote must rank every candidate exactly once"


def _names(order: str, rng: random.Random, how: str) -> str:
    names = order.split(">")
    if how == "unknown":
        names[rng.randrange(len(names))] = "Z"
    elif how == "repeated":
        names[1] = names[0]
    else:
        names.pop(rng.randrange(len(names)))
    return ">".join(names)


# (corruption, vote line "w=<weight> <order>" -> bad line, message)
CORRUPTIONS = [
    ("unknown label", lambda rng, w, o: f"vote {w} {_names(o, rng, 'unknown')}",
     "unknown candidate 'Z'"),
    ("repeated label", lambda rng, w, o: f"vote {w} {_names(o, rng, 'repeated')}",
     RANK_ONCE),
    ("missing label", lambda rng, w, o: f"vote {w} {_names(o, rng, 'missing')}",
     RANK_ONCE),
    ("extra token", lambda rng, w, o: f"vote {w} {o} {o}",
     "expected: vote w=<integer> X>Y>..."),
    ("w=0", lambda rng, w, o: f"vote w=0 {o}", "weight must be at least 1, got 0"),
    ("w=-3", lambda rng, w, o: f"vote w=-3 {o}", "weight must be at least 1, got -3"),
    ("w=2**63", lambda rng, w, o: f"vote w={2**63} {o}",
     f"weight {2**63} exceeds the 64-bit bound"),
    ("w=abc", lambda rng, w, o: f"vote w=abc {o}", "bad weight 'abc'"),
    ("w=1.5", lambda rng, w, o: f"vote w=1.5 {o}", "bad weight '1.5'"),
    # two faults on one line: the weight's syntax comes before the order,
    # and the order before the weight's range
    ("w=0 and a repeated label",
     lambda rng, w, o: f"vote w=0 {_names(o, rng, 'repeated')}", RANK_ONCE),
    ("w=abc and an unknown label",
     lambda rng, w, o: f"vote w=abc {_names(o, rng, 'unknown')}", "bad weight 'abc'"),
    ("w=2**63 and a missing label",
     lambda rng, w, o: f"vote w={2**63} {_names(o, rng, 'missing')}", RANK_ONCE),
]


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _assert_shared(pairs) -> None:
    """Every (key, ballot) with one key carries one ballot object."""
    first = {}
    for key, ballot in pairs:
        assert first.setdefault(key, ballot) is ballot, key


def _corrupt_each_way(rng, lines, parse) -> None:
    votes = [i for i, line in enumerate(lines) if line.lstrip().startswith("vote")]
    if not votes:
        return
    for name, bad_line, message in CORRUPTIONS:
        at = rng.choice(votes)
        _, w, o = lines[at].split("#")[0].split()
        bad = lines[:at] + [bad_line(rng, w, o)] + lines[at + 1:]
        with pytest.raises(ProfileParseError) as info:
            parse(_text(bad), strict_odd=False)
        assert str(info.value) == f"line {at + 1}: {message}", name


def _profile_texts():
    rng = random.Random(20261019)
    for m in range(2, 9):
        for events in (0, rng.randint(1, 60), 2200 if m in (3, 8) else 400):
            yield rng, m, H.rand_profile_lines(rng, m, events)


def test_profile_texts_parse_to_the_profile_they_were_written_from():
    lines_seen = repeats = 0
    for rng, m, (lines, expected, axis, keys) in _profile_texts():
        profile, got_axis = parse_profile(_text(lines), strict_odd=False)
        assert (profile, got_axis) == (expected, axis), m
        _assert_shared(zip(keys, profile.ballots))
        repeats += len(keys) - len(set(keys))
        _corrupt_each_way(rng, lines, parse_profile)
        # a vote before the candidates line
        head = next(i for i, line in enumerate(lines) if line.startswith("candidates:"))
        bad = lines[:head] + ["vote w=1 " + ">".join(H.LABELS[:m])] + lines[head:]
        with pytest.raises(ProfileParseError) as info:
            parse_profile(_text(bad), strict_odd=False)
        assert str(info.value) == f"line {head + 1}: the candidates line must come first"
        lines_seen = max(lines_seen, sum(line.lstrip().startswith("vote") for line in lines))
    assert lines_seen >= 1900 and repeats > 1000


def test_distribution_texts_parse_to_the_distribution_they_were_written_from():
    rng = random.Random(20261020)
    for m in range(2, 9):
        lines, expected, keys = H.rand_distribution_lines(rng, m, rng.randint(1, 40))
        dist = parse_distribution(_text(lines), strict_odd=False)
        assert dist == expected, m
        _assert_shared(
            (key, ballot)
            for block, (profile, _) in zip(keys, dist.scenarios)
            for key, ballot in zip(block, profile.ballots)
        )
        _corrupt_each_way(rng, lines, parse_distribution)
        # a vote before the first scenario line
        bad = lines[:1] + ["vote w=1 " + ">".join(H.LABELS[:m])] + lines[1:]
        with pytest.raises(ProfileParseError) as info:
            parse_distribution(_text(bad), strict_odd=False)
        assert str(info.value) == "line 2: 'vote' outside a scenario block"
