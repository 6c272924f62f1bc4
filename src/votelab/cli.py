"""Command-line front end: parse profiles and rules, run one verb, print results.

Output is stable, line-oriented ``key: value`` text so scripts can consume
it.  Exit codes: 0 success, 2 parse or validation error, 3 search cap
exceeded, 4 operation applied outside its uncertainty model, 5 a checked
reduction biconditional fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from itertools import combinations_with_replacement
from typing import Sequence

from .completions import DEFAULT_COMPLETION_CAP
from .constructions import (
    REDUCTION_KINDS,
    PartitionInstance,
    reduction_instance,
    verify_reduction,
)
from .elicitation import (
    coarse_elicitation_over,
    condorcet_winner_fixed,
    fine_elicitation_over,
    fine_sp_elicitation_over,
    possible_winners,
)
from .errors import (
    CapExceeded,
    InvalidInstance,
    ModelMismatch,
    NotCompletableSP,
    ProfileParseError,
    VotelabError,
)
from .evaluation import EvaluationQuery, parse_rational, win_probability
from .manipulation import (
    ManipulationInstance,
    coalition_manipulate,
    condorcet_coalition_manipulate,
    preference_manipulate,
)
from .profiles import Axis, Profile, WeightedBallot
from .rules import Copeland, TieBreak, format_rule, parse_rule, winner
from .textio import format_profile, parse_distribution, parse_profile


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_profile(args: argparse.Namespace) -> tuple[Profile, Axis | None]:
    return parse_profile(_read_text(args.profile), strict_odd=not args.no_strict_odd)


def _parse_tb(spec: str, by_label) -> TieBreak:
    if spec == "lex":
        return TieBreak.lex()
    if spec.startswith("favor:"):
        return TieBreak.favor(by_label(spec[len("favor:"):]).id)
    if spec.startswith("against:"):
        return TieBreak.against(by_label(spec[len("against:"):]).id)
    raise ProfileParseError(
        f"bad tie-break {spec!r}; expected lex, favor:<candidate> or against:<candidate>"
    )


def _answer(value: bool) -> None:
    print("answer: true" if value else "answer: false")


def _print_witness(profile: Profile) -> None:
    print("witness:")
    sys.stdout.write(format_profile(profile))


# ---------------------------------------------------------------------------
# Verbs


def cmd_winner(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    rule = parse_rule(args.rule, profile.candidates)
    tb = _parse_tb(args.tb, profile.by_label)
    print(f"winner: {winner(rule, profile, tb).label}")
    return 0


def cmd_coarse_over(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    rule = parse_rule(args.rule, profile.candidates)
    _answer(coarse_elicitation_over(rule, profile, cap=args.cap))
    return 0


def cmd_fine_over(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    rule = parse_rule(args.rule, profile.candidates)
    _answer(fine_elicitation_over(rule, profile, cap=args.cap))
    return 0


def cmd_fine_sp_over(args: argparse.Namespace) -> int:
    profile, axis = _load_profile(args)
    if axis is None:
        raise ProfileParseError("the profile file must carry an axis: line")
    rule = parse_rule(args.rule, profile.candidates)
    _answer(fine_sp_elicitation_over(rule, profile, axis, cap=args.cap))
    return 0


def cmd_condorcet_fixed(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    status = condorcet_winner_fixed(profile)
    if status.kind == "true":
        print("answer: true")
        print(f"winner: {status.winner.label}")
    elif status.kind == "false":
        print("answer: false")
    else:
        print("answer: not-determined")
    return 0


def cmd_possible_winners(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    rule = parse_rule(args.rule, profile.candidates)
    ids = sorted(possible_winners(rule, profile, cap=args.cap), key=lambda c: c.id)
    print("possible: " + " ".join(c.label for c in ids))
    return 0


def _coalition_indices(spec: str) -> frozenset[int]:
    try:
        indices = frozenset(int(piece) for piece in spec.split(",") if piece.strip())
    except ValueError:
        raise InvalidInstance(f"bad coalition {spec!r}; expected indices like 0,2,5")
    if not indices:
        raise InvalidInstance("the coalition cannot be empty")
    return indices


def cmd_manipulate_coalition(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    target = profile.by_label(args.target)
    coalition = _coalition_indices(args.coalition)
    if args.rule == "condorcet":
        inst = ManipulationInstance(Copeland(), target, profile, coalition)
        result = condorcet_coalition_manipulate(inst)
    else:
        rule = parse_rule(args.rule, profile.candidates)
        inst = ManipulationInstance(rule, target, profile, coalition)
        result = coalition_manipulate(inst, cap=args.cap)
    if result is None:
        _answer(False)
        return 0
    ballots = list(profile.ballots)
    for idx, order in result.items():
        ballots[idx] = WeightedBallot(order, profile.ballots[idx].weight)
    _answer(True)
    _print_witness(replace(profile, ballots=tuple(ballots)))
    return 0


def cmd_manipulate_prefs(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args)
    target = profile.by_label(args.target)
    rule = parse_rule(args.rule, profile.candidates)
    inst = ManipulationInstance(rule, target, profile)
    witness = preference_manipulate(inst, cap=args.cap)
    if witness is None:
        _answer(False)
        return 0
    _answer(True)
    _print_witness(witness)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dist = parse_distribution(
        _read_text(args.distribution), strict_odd=not args.no_strict_odd
    )
    by_label = dist.scenarios[0][0].by_label
    target = by_label(args.target)
    rule = parse_rule(args.rule, dist.candidates)
    tb = _parse_tb(args.tb, by_label)
    try:
        threshold = parse_rational(args.r)
    except (ValueError, ZeroDivisionError):
        raise ProfileParseError(f"bad threshold {args.r!r}; expected a rational like 1/2")
    query = EvaluationQuery(target=target, r=threshold, rule=rule, tb=tb)
    probability = win_probability(dist, rule, target, tb)
    _answer(probability > query.r)
    print(f"probability: {probability}")
    return 0


def _reduction_text(kind: str, p: PartitionInstance, balanced: bool) -> str:
    rule, profile, axis, target = reduction_instance(kind, p, balanced=balanced)
    header = [
        f"# kind: {kind}",
        "# bag: " + " ".join(str(v) for v in p.numbers),
        f"# rule: {format_rule(rule, profile.candidates)}",
    ]
    if target is not None:
        header.append(f"# target: {target.label}")
    if not profile.strict_odd:
        header.append("# note: even total; parse with --no-strict-odd")
    return "\n".join(header) + "\n" + format_profile(profile, axis)


def cmd_gen_reduction(args: argparse.Namespace) -> int:
    p = PartitionInstance.parse(args.bag)
    text = _reduction_text(args.kind, p, args.balanced)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote: {args.output}")
    return 0


def _sweep_bags(max_n: int, max_v: int):
    for n in range(1, max_n + 1):
        for combo in combinations_with_replacement(range(1, max_v + 1), n):
            if sum(combo) % 2 == 0:
                yield combo


def cmd_verify_reduction(args: argparse.Namespace) -> int:
    # an unknown kind is refused by verify_reduction
    kinds = REDUCTION_KINDS if args.kind == "all" else (args.kind,)
    sweep = args.max_n is not None or args.max_v is not None
    if (args.bag is None) == (not sweep):
        raise InvalidInstance("give either --bag or both --max-n and --max-v")
    if sweep and (args.max_n is None or args.max_v is None):
        raise InvalidInstance("sweep mode needs both --max-n and --max-v")

    failures = 0
    if not sweep:
        p = PartitionInstance.parse(args.bag)
        for kind in kinds:
            report = verify_reduction(kind, p, cap=args.cap)
            print(f"kind: {report.kind}")
            print("bag: " + " ".join(str(v) for v in report.numbers))
            _print_bool("decision", report.decision)
            _print_bool("partition", report.partition)
            print(f"biconditional: {'holds' if report.holds else 'fails'}")
            failures += not report.holds
        return 5 if failures else 0

    for kind in kinds:
        checked = 0
        broken = 0
        for bag in _sweep_bags(args.max_n, args.max_v):
            report = verify_reduction(kind, PartitionInstance(bag), cap=args.cap)
            checked += 1
            if not report.holds:
                broken += 1
                print(f"# fails: {kind} bag " + " ".join(map(str, bag)), file=sys.stderr)
        if not checked:
            raise InvalidInstance("the sweep holds no bag with an even total")
        print(f"kind: {kind}")
        print(f"checked: {checked}")
        print(f"failures: {broken}")
        failures += broken
    print(f"biconditional: {'holds' if failures == 0 else 'fails'}")
    return 5 if failures else 0


def _print_bool(key: str, value: bool) -> None:
    print(f"{key}: {'true' if value else 'false'}")


# ---------------------------------------------------------------------------
# Parser


def _int_from(least: int):
    """An argparse type for integers of at least ``least``, 0 or 1."""
    what = ("a non-negative", "a positive")[least]

    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what} integer, got {text!r}")

    return parse


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-strict-odd",
        action="store_true",
        help="allow even total weight (pairwise ties become possible)",
    )
    common.add_argument(
        "--single-thread",
        action="store_true",
        help="force deterministic sequential search (searches are sequential "
        "and deterministic regardless; accepted for script stability)",
    )

    parser = argparse.ArgumentParser(
        prog="votelab",
        description="Weighted-vote election analysis: winners, elicitation "
        "termination, manipulation, evaluation, hardness constructions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, func, help_text: str, *, profile: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if profile:
            sp.add_argument("profile", help="profile file (- for stdin)")
        sp.set_defaults(func=func)
        return sp

    def add_cap(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--cap",
            type=_int_from(0),
            default=DEFAULT_COMPLETION_CAP,
            help="completion-search budget (default 10^6)",
        )

    sp = add("winner", cmd_winner, "winner of a complete profile")
    sp.add_argument("--rule", required=True, help="e.g. plurality, stv, cup:((A,B),C)")
    sp.add_argument("--tb", default="lex", help="lex, favor:<cand> or against:<cand>")

    sp = add("coarse-over", cmd_coarse_over, "can unknown whole ballots still change the winner?")
    sp.add_argument("--rule", required=True)
    add_cap(sp)

    sp = add("fine-over", cmd_fine_over, "can unknown pairwise preferences still change the winner?")
    sp.add_argument("--rule", required=True)
    add_cap(sp)

    sp = add(
        "fine-sp-over",
        cmd_fine_sp_over,
        "fine-over restricted to single-peaked completions (profile needs an axis: line)",
    )
    sp.add_argument("--rule", required=True)
    add_cap(sp)

    add("condorcet-fixed", cmd_condorcet_fixed, "is the Condorcet winner already determined?")

    sp = add("possible-winners", cmd_possible_winners, "candidates winning in some completion")
    sp.add_argument("--rule", required=True)
    add_cap(sp)

    sp = add(
        "manipulate-coalition",
        cmd_manipulate_coalition,
        "orders for a coalition that make the target win",
    )
    sp.add_argument("--rule", required=True, help="a rule, or condorcet for Condorcet-winner manipulation")
    sp.add_argument("--target", required=True, help="candidate label")
    sp.add_argument("--coalition", required=True, help="ballot indices, e.g. 0,2,5")
    add_cap(sp)

    sp = add(
        "manipulate-prefs",
        cmd_manipulate_prefs,
        "completion of unlocked pairs that makes the target win",
    )
    sp.add_argument("--rule", required=True)
    sp.add_argument("--target", required=True)
    add_cap(sp)

    sp = add(
        "evaluate",
        cmd_evaluate,
        "does the target's win probability exceed a threshold?",
        profile=False,
    )
    sp.add_argument("distribution", help="distribution file (- for stdin)")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--r", required=True, help="threshold, a rational like 1/2")
    sp.add_argument("--tb", default="lex")

    sp = add(
        "gen-reduction",
        cmd_gen_reduction,
        "emit a bag-splitting election instance",
        profile=False,
    )
    sp.add_argument("--kind", required=True, help=", ".join(REDUCTION_KINDS))
    sp.add_argument("--bag", required=True, help="comma-separated positive integers, even total")
    sp.add_argument("--balanced", action="store_true", help="balanced agenda variant (cup-elicit)")
    sp.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    sp = add(
        "verify-reduction",
        cmd_verify_reduction,
        "check generated instances against a brute-force partition oracle",
        profile=False,
    )
    sp.add_argument("--kind", required=True, help=", ".join(REDUCTION_KINDS) + ", or all")
    sp.add_argument("--bag", default=None)
    sp.add_argument("--max-n", type=_int_from(1), default=None, help="sweep bags up to this size")
    sp.add_argument("--max-v", type=_int_from(1), default=None, help="sweep values up to this bound")
    add_cap(sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelMismatch, NotCompletableSP) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (VotelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
