"""Per-layer tracing of zerosum from outside the package.

The tracer wraps public names of zerosum at the module (or class) where
callers look them up, e.g. ``zerosum.invariants.lifts_disjoint_count`` or
the class attribute ``ReachState.try_push``.  Nothing inside the package
changes; a name that no longer exists is skipped, so its metrics are
absent instead of the run crashing.

Two kinds of wrapper:

* ``span``: calls at or above the per-op level.  Each call is recorded in
  full: name, start, end, parent span, op id, self time.
* ``agg``: per-node calls (millions of pushes).  Count, total time, self
  time and a result counter are aggregated per (name, parent span), so
  memory stays flat.
* ``count``: per-node calls whose time is not reported (group arithmetic).
  Only the count per (name, parent span) is kept; the call's time stays in
  its caller's self time.  Timing them would inflate the symmetry setup,
  which makes ~10^6 such calls, far more than the call itself costs.

Self time is a call's duration minus the time spent in wrapped calls
directly below it.  Everything is kept in memory and written once, by
``dump``, when the traced repetition ends.
"""

import importlib
import json
import time


def _truthy(result):
    return 1 if result else 0


def _nodes(outcome):
    return outcome.stats.nodes


def _found(result):
    return len(result[0])


# (metric prefix, module, attribute path, kind, result counter)
WRAPS = [
    ("cli.main", "zerosum.cli", "main", "span", None),
    ("invariants.compute", "zerosum.cli", "compute", "span", None),
    ("invariants.compute", "zerosum.invariants", "compute", "span", None),
    ("invariants.verify", "zerosum.invariants", "has_nonempty_zero_sum", "span", None),
    ("invariants.verify", "zerosum.invariants", "has_short_zero_sum", "span", None),
    ("invariants.verify", "zerosum.invariants", "has_zero_sum_of_length", "span", None),
    ("invariants.verify", "zerosum.invariants", "max_disjoint_zero_sums", "span", None),
    ("search.dfs_run", "zerosum.invariants", "dfs_run", "span", _nodes),
    ("search.dfs_run", "zerosum.extremal", "dfs_run", "span", _nodes),
    ("search.canonical_first_two", "zerosum.search", "canonical_first_two", "span", None),
    ("groups.automorphisms", "zerosum.groups", "Group.automorphisms", "span", len),
    ("groups.enumerate_subgroups", "zerosum.extremal", "enumerate_subgroups", "span", None),
    ("extremal.find_subsum_certificate", "zerosum.extremal", "find_subsum_certificate", "span", None),
    ("extremal.enumerate_s_extremal", "zerosum.extremal", "enumerate_s_extremal", "span", _found),
    ("extremal.check_stability", "zerosum.extremal", "check_stability", "span", None),
    ("engine.extract_exp_length_zero_sum", "zerosum.engine", "extract_exp_length_zero_sum", "span", None),
    ("search.try_push", "zerosum.search", "ReachState.try_push", "agg", _truthy),
    ("search.try_push", "zerosum.search", "DavenportState.try_push", "agg", _truthy),
    ("groups.add_row", "zerosum.groups", "Group.add_row", "count", None),
    ("groups.add_index", "zerosum.groups", "Group.add_index", "count", None),
    ("engine.lifts_disjoint_count", "zerosum.invariants", "lifts_disjoint_count", "agg", _truthy),
    ("engine.extract_lex_smallest", "zerosum.engine", "extract_lex_smallest", "agg", None),
    ("engine.reach_table", "zerosum.extremal", "reach_table", "agg", None),
    ("sequences.Sequence.init", "zerosum.sequences", "Sequence.__init__", "agg", None),
    ("sequences.Sequence.gcd", "zerosum.sequences", "Sequence.gcd", "agg", None),
]

class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # span 0 is the root; its record is filled in by finish()
        self.spans = [None]
        # one frame per active wrapped call: [child seconds, enclosing span id]
        self.stack = [[0.0, 0]]
        self.aggregates = {}
        self.op = None
        self.installed = set()

    def install(self):
        """Wrap every name of WRAPS that exists."""
        for prefix, module_name, path, kind, counter in WRAPS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name, None)
            target = None if owner is None else vars(owner).get(attr)
            if target is None:
                continue
            make = {"span": self._span_wrapper, "agg": self._agg_wrapper,
                    "count": self._count_wrapper}[kind]
            setattr(owner, attr, make(prefix, target, counter))
            self.installed.add(prefix)

    def _span_wrapper(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, self.clock
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            parent = stack[-1][1]
            stack.append(frame)
            count = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                end = clock()
                stack.pop()
                stack[-1][0] += end - start
                spans[sid] = (name, start - tracer.origin, end - tracer.origin,
                              parent, tracer.op, end - start - frame[0], count)

        return traced

    def _agg_wrapper(self, name, fn, counter):
        stack, aggregates, clock = self.stack, self.aggregates, self.clock

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
            key = (name, frame[1])
            entry = aggregates.get(key)
            if entry is None:
                entry = aggregates[key] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if counter is not None:
                entry[3] += counter(result)
            return result

        return traced

    def _count_wrapper(self, name, fn, counter):
        stack, aggregates = self.stack, self.aggregates

        def counted(*args, **kwargs):
            key = (name, stack[-1][1])
            entry = aggregates.get(key)
            if entry is None:
                entry = aggregates[key] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            return fn(*args, **kwargs)

        return counted

    def call_op(self, op_id, call):
        """Run call() as one benchmark op, recorded as a span of its own."""
        self.op = op_id
        try:
            return self._span_wrapper("op", call, None)()
        finally:
            self.op = None

    def finish(self):
        end = self.clock()
        self.spans[0] = ("process", 0.0, end - self.origin, None, None,
                         end - self.origin - self.stack[0][0], 0)

    def totals(self):
        """prefix -> [calls, total s, self s, counter], over spans and aggregates."""
        out = {prefix: [0, 0.0, 0.0, 0] for prefix in self.installed}
        for name, start, end, _, _, self_s, count in self.spans[1:]:
            if name in out:
                row = out[name]
                row[0] += 1
                row[1] += end - start
                row[2] += self_s
                row[3] += count
        for (name, _), (calls, total, self_s, count) in self.aggregates.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += self_s
            row[3] += count
        return out

    def metrics(self):
        """The per-layer metrics of the benchmark, for the prefixes wrapped."""
        t = self.totals()
        out = {}

        def put(prefix, **fields):
            if prefix in t:
                for field, value in fields.items():
                    out[f"{prefix}.{field}"] = value

        def row(prefix):
            calls, total, self_s, count = t.get(prefix, (0, 0.0, 0.0, 0))
            return calls, total, self_s, count

        calls, _, self_s, accepted = row("search.try_push")
        put("search.try_push", calls=calls, accepted=accepted,
            accept_ratio=accepted / calls if calls else 0.0, self_s=self_s)
        calls, total, self_s, nodes = row("search.dfs_run")
        put("search.dfs_run", calls=calls, nodes=nodes, self_s=self_s)
        if "search.dfs_run" in t:
            # per node of search proper: without the symmetry setup dfs_run runs first
            runs = {i for i, s in enumerate(self.spans) if s and s[0] == "search.dfs_run"}
            setup = sum(s[2] - s[1] for s in self.spans[1:]
                        if s[0] == "search.canonical_first_two" and s[3] in runs)
            out["search.us_per_node"] = (total - setup) / nodes * 1e6 if nodes else 0.0
        calls, total, _, _ = row("search.canonical_first_two")
        put("search.canonical_first_two", calls=calls, s=total)
        _, total, _, count = row("groups.automorphisms")
        put("groups.automorphisms", s=total, count=count)
        put("groups.add_row", calls=row("groups.add_row")[0])
        put("groups.add_index", calls=row("groups.add_index")[0])
        for prefix in ("groups.enumerate_subgroups", "engine.extract_exp_length_zero_sum",
                       "engine.extract_lex_smallest", "engine.reach_table",
                       "sequences.Sequence.init", "sequences.Sequence.gcd",
                       "invariants.compute", "extremal.find_subsum_certificate"):
            calls, total, _, _ = row(prefix)
            put(prefix, calls=calls, s=total)
        calls, total, _, lifted = row("engine.lifts_disjoint_count")
        put("engine.lifts_disjoint_count", calls=calls, lifted=lifted, s=total)
        put("invariants.verify", s=row("invariants.verify")[1])
        _, total, _, found = row("extremal.enumerate_s_extremal")
        put("extremal.enumerate_s_extremal", s=total, found=found)
        put("extremal.check_stability", s=row("extremal.check_stability")[1])
        _, total, self_s, _ = row("cli.main")
        put("cli.main", s=total, self_s=self_s)
        return out

    def dump(self, path):
        fields = ["name", "start", "end", "parent", "op", "self_s", "count"]
        payload = {
            "span_fields": fields,
            "spans": self.spans,
            "aggregate_fields": ["name", "parent", "calls", "total_s", "self_s", "count"],
            "aggregates": [[name, parent, *values]
                           for (name, parent), values in sorted(self.aggregates.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

