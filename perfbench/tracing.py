"""Per-layer spans recorded from outside votelab.

A ``Tracer`` rebinds each layer-boundary function in every ``votelab``
module namespace that binds it, so calls between modules pass through a
wrapper that records one span: a name, start and end in ns, the parent span
and the query id.  Generator functions get one span per ``next()``, so their
spans count the time spent producing each item.  ``Profile`` construction is
traced through ``Profile.__post_init__``.  Spans live in flat arrays and are
aggregated (and optionally written out) after the traced pass.

Untraced runs never construct a Tracer, so they import votelab untouched.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# Span name -> functions (module, attribute) that open it.
CALL_SPANS = {
    "textio.parse_profile": [("textio", "parse_profile")],
    "textio.parse_distribution": [("textio", "parse_distribution")],
    "textio.format_profile": [("textio", "format_profile")],
    "completions.completion_groups": [("completions", "completion_groups")],
    "completions.completed": [
        ("completions", "completed_arrays"),
        ("completions", "completed_profile"),
    ],
    "elicitation.projection": [("elicitation", "_pairwise_possible_ids")],
    "elicitation.enumeration": [("elicitation", "_possible_ids")],
    "elicitation.shortcut": [
        ("elicitation", "cup3_fine_over"),
        ("elicitation", "cup_single_peaked_over"),
        ("elicitation", "hybrid_coarse_over"),
        ("elicitation", "condorcet_winner_fixed"),
    ],
    "manipulation.preference": [("manipulation", "preference_manipulate")],
    "manipulation.coalition": [
        ("manipulation", "coalition_manipulate"),
        ("manipulation", "condorcet_coalition_manipulate"),
    ],
    "rules.achievable": [("rules", "_achievable_ids")],
    "rules.winner": [("rules", "winner")],
    "rules.pairwise_counts": [("rules", "pairwise_counts")],
    "evaluation.reduction": [("evaluation", "reduction_from_preference_manipulation")],
    "evaluation.evaluate": [("evaluation", "evaluate")],
    "evaluation.win_probability": [("evaluation", "win_probability")],
    "constructions.gen": [
        ("constructions", "gen_cup_elicitation"),
        ("constructions", "gen_stv_sp_elicitation"),
        ("constructions", "gen_cup_preference_manipulation"),
        ("constructions", "gen_copeland_preference_manipulation"),
    ],
    "cli.main": [("cli", "main")],
}
GENERATOR_SPANS = {
    "profiles.extensions": [
        ("profiles", "linear_extensions"),
        ("profiles", "single_peaked_extensions"),
    ],
    "completions.iter_assignments": [("completions", "iter_assignments")],
}
PROFILE_SPAN = "profiles.Profile"

SPAN_NAMES = sorted([*CALL_SPANS, *GENERATOR_SPANS, PROFILE_SPAN])


# Counters run after a span closes, on its positional arguments and result.


def _count_lines(args, result) -> int:
    return len(args[0].splitlines())


def _count_ballots(args, result) -> int:
    return len(args[1])


def _witness(args, result) -> int:
    return result is not None


def _scenarios(args, result) -> int:
    return len(result[0].scenarios)


class Tracer:
    """Records spans for one traced pass; ``install`` / ``uninstall`` bracket it."""

    def __init__(self) -> None:
        self.name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.queries = array("l")
        self.counts = array("q")
        self.stack: list[int] = []
        self.query = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.queries.append(self.query)
        self.counts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, count: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.counts[idx] = count
        self.stack.pop()

    def _wrap_call(self, fn, name: str, counter):
        nid = self.name_id[name]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, 0)
                raise
            tracer._close(idx, 0)
            if counter is not None:
                tracer.counts[idx] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name: str):
        nid = self.name_id[name]
        tracer = self

        def items(it):
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(idx, 0)
                    return
                except BaseException:
                    tracer._close(idx, 0)
                    raise
                tracer._close(idx, 1)
                yield item

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                it = fn(*args, **kwargs)
            finally:
                tracer._close(idx, 0)
            return items(it)

        traced.__wrapped__ = fn
        return traced

    def _wrap_post_init(self, fn):
        nid = self.name_id[PROFILE_SPAN]
        tracer = self

        def traced(profile):
            idx = tracer._open(nid)
            try:
                fn(profile)
            finally:
                tracer._close(idx, len(profile.ballots))

        return traced

    # -- installation ------------------------------------------------------

    def install(self, votelab) -> None:
        """Rebind every boundary function in every votelab namespace."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "votelab" or name.startswith("votelab."))
        ]
        space_size = votelab.completions.space_size
        counters = {
            "textio.parse_profile": _count_lines,
            "textio.parse_distribution": _count_lines,
            "completions.completion_groups": lambda args, groups: space_size(groups),
            "rules.achievable": _count_ballots,
            "manipulation.preference": _witness,
            "manipulation.coalition": _witness,
            "evaluation.reduction": _scenarios,
        }

        replacement: dict[int, object] = {}
        for name, targets in CALL_SPANS.items():
            for mod_name, attr in targets:
                fn = getattr(getattr(votelab, mod_name), attr)
                replacement[id(fn)] = self._wrap_call(fn, name, counters.get(name))
        for name, targets in GENERATOR_SPANS.items():
            for mod_name, attr in targets:
                fn = getattr(getattr(votelab, mod_name), attr)
                replacement[id(fn)] = self._wrap_generator(fn, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in replacement:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement[id(value)])

        profile_cls = votelab.profiles.Profile
        post_init = profile_cls.__post_init__
        self._restore.append((profile_cls, "__post_init__", post_init))
        profile_cls.__post_init__ = self._wrap_post_init(post_init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the raw int64 arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": SPAN_NAMES,
            "spans": len(self.starts),
            "arrays": ["names:int8", "starts:int64", "ends:int64", "parents:int64",
                       "queries:int64", "counts:int64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.names, self.starts, self.ends, self.parents,
                        self.queries, self.counts):
                arr.tofile(fh)

    def summarize(self, wall_ns: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans of one traced pass."""
        n = len(self.starts)
        names, starts, ends, parents, counts = (
            self.names, self.starts, self.ends, self.parents, self.counts
        )
        self_ns = [ends[i] - starts[i] for i in range(n)]
        root_ns = 0
        for i in range(n):
            p = parents[i]
            if p < 0:
                root_ns += ends[i] - starts[i]
                continue
            if starts[i] < starts[p] or ends[i] > ends[p]:
                raise RuntimeError(f"span {i} is not nested inside its parent {p}")
            self_ns[p] -= ends[i] - starts[i]

        nid = self.name_id
        layer_ns = [0] * len(SPAN_NAMES)
        layer_calls = [0] * len(SPAN_NAMES)
        layer_count = [0] * len(SPAN_NAMES)
        ext = nid["profiles.extensions"]
        winner_id = nid["rules.winner"]
        scan_parents = {nid["evaluation.evaluate"], nid["evaluation.win_probability"]}
        scanned = 0
        for i in range(n):
            k = names[i]
            layer_ns[k] += self_ns[i]
            layer_calls[k] += 1
            if k == ext and parents[i] >= 0 and names[parents[i]] == ext:
                continue  # an order counted where the outermost extension yields it
            layer_count[k] += counts[i]
            if k == winner_id and parents[i] >= 0 and names[parents[i]] in scan_parents:
                scanned += 1

        def ms(name: str) -> float:
            return layer_ns[nid[name]] / 1e6

        def calls(name: str) -> int:
            return layer_calls[nid[name]]

        def count(name: str) -> int:
            return layer_count[nid[name]]

        other_ns = wall_ns - root_ns
        merged = count("completions.completion_groups")
        assignments = count("completions.iter_assignments")
        manip_calls = calls("manipulation.preference") + calls("manipulation.coalition")
        witnesses = count("manipulation.preference") + count("manipulation.coalition")
        return {
            "textio.parse_profile.self_ms": ms("textio.parse_profile"),
            "textio.parse_distribution.self_ms": ms("textio.parse_distribution"),
            "textio.format_profile.self_ms": ms("textio.format_profile"),
            "textio.lines": count("textio.parse_profile") + count("textio.parse_distribution"),
            "profiles.Profile.calls": calls("profiles.Profile"),
            "profiles.Profile.self_ms": ms("profiles.Profile"),
            "profiles.Profile.ballots": count("profiles.Profile"),
            "profiles.extensions.orders": count("profiles.extensions"),
            "profiles.extensions.self_ms": ms("profiles.extensions"),
            "completions.completion_groups.calls": calls("completions.completion_groups"),
            "completions.completion_groups.self_ms": ms("completions.completion_groups"),
            "completions.merged_space": merged,
            "completions.assignments": assignments,
            "completions.visit_ratio": assignments / merged if merged else 0.0,
            "completions.iter_assignments.self_ms": ms("completions.iter_assignments"),
            "completions.completed.self_ms": ms("completions.completed"),
            "elicitation.projection.self_ms": ms("elicitation.projection"),
            "elicitation.enumeration.self_ms": ms("elicitation.enumeration"),
            "elicitation.shortcut.calls": calls("elicitation.shortcut"),
            "elicitation.shortcut.self_ms": ms("elicitation.shortcut"),
            "manipulation.preference.self_ms": ms("manipulation.preference"),
            "manipulation.coalition.self_ms": ms("manipulation.coalition"),
            "manipulation.witness_ratio": witnesses / manip_calls if manip_calls else 0.0,
            "rules.achievable.calls": calls("rules.achievable"),
            "rules.achievable.self_ms": ms("rules.achievable"),
            "rules.achievable.ballots": count("rules.achievable"),
            "rules.winner.calls": calls("rules.winner"),
            "rules.winner.self_ms": ms("rules.winner"),
            "rules.pairwise_counts.calls": calls("rules.pairwise_counts"),
            "rules.pairwise_counts.self_ms": ms("rules.pairwise_counts"),
            "evaluation.reduction.self_ms": ms("evaluation.reduction"),
            "evaluation.scenarios_built": count("evaluation.reduction"),
            "evaluation.evaluate.self_ms": ms("evaluation.evaluate"),
            "evaluation.win_probability.self_ms": ms("evaluation.win_probability"),
            "evaluation.scenarios_scanned": scanned,
            "constructions.gen.self_ms": ms("constructions.gen"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_ms": ms("cli.main"),
            "bench.other_ms": other_ns / 1e6,
        }

