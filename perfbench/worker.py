"""One repetition of one benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition.  A fresh interpreter pays
``import zerosum`` every time (it is part of setup_s) and carries no cache
over from an earlier repetition: neither the caches on ``Group`` instances
nor any module-level cache.  The last line of standard output is a JSON
object with the repetition's measurements.

The untraced repetition calls only the public API (``compute``,
``cli.main``, ``canonical_first_two``, ``extract_exp_length_zero_sum``,
``find_subsum_certificate``, ``verify_subsum_certificate``,
``enumerate_*_extremal``, ``check_stability``), plus the constructors it
needs to build inputs.  Every output is checked against golden.json or,
for extraction, against its own definition.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# search-max: maximise searches of `zerosum constant`, one Group each.  Each
# takes well under a second, so that a run holds many repetitions of it.
SEARCHES = {
    "full": [([2, 2, 8], "d"), ([4, 4], "s"), ([2, 2, 6], "eta"), ([2, 2, 4], "s"),
             ([2, 6], "s")],
    "tiny": [([2, 2, 2], "eta"), ([2, 4], "d"), ([2, 2, 2], "s")],
}
# report-tables: the paper-tables suite; the tiny run stops every entry on a node budget.
REPORT_ARGV = {
    "full": ["report", "--suite", "paper-tables"],
    "tiny": ["report", "--suite", "paper-tables", "--budget-nodes", "300"],
}
# lemma-batch stream: eta subsum certificates for every eta-extremal sequence
# of these groups (the coverage-certificate groups of the acceptance suite),
# each sequence queried CERTIFICATE_ROUNDS times ...
CERTIFICATE_GROUPS = {
    "full": [[3], [4], [5], [6], [7], [8], [9], [2, 4], [2, 6], [3, 6]],
    "tiny": [[3], [4], [2, 4]],
}
CERTIFICATE_ROUNDS = {"full": 3, "tiny": 1}
# ... mixed with random exp-length extraction instances of length
# eta + exp - 1 over these groups (group, eta(G)), as in the acceptance suite.
EXTRACTION_GROUPS = [([2, 2, 2], 8), ([2, 2, 4], 8)]
EXTRACTIONS_PER_GROUP = {"full": 1250, "tiny": 20}
# lemma-batch stability: every s-extremal sequence, then the pairwise sweep.
STABILITY_GROUP = {"full": [4, 4], "tiny": [2, 4]}
# Between ops, at most this often, a repetition times reference_kernel().
PROBE_EVERY_S = 0.2
# The time unit of the end-to-end times: they are scaled to a machine on
# which reference_kernel() takes this long (about its median on the 2-vCPU
# Xeon VM the benchmark was written on).
REFERENCE_KERNEL_S = 0.004


def reference_kernel():
    """A few milliseconds of fixed pure-Python work (indexing, integer
    arithmetic, dict stores), independent of zerosum.  Its median time in
    a run gauges how fast the shared machine ran the interpreter then."""
    table = list(range(64))
    seen = {}
    acc = 0
    for i in range(20000):
        x = table[(i * 37) & 63] ^ acc
        acc = (acc + x * 3) & 0xFFFF
        seen[x & 31] = i
    return acc + len(seen)


class Rep:
    """Measurements and failures of one repetition."""

    def __init__(self, spawned_at, tracer):
        self.spawned_at = spawned_at
        self.tracer = tracer
        self.setup_end = None
        self.extra_setup_s = 0.0
        self.nodes = 0
        self.latencies = {}                # op id -> seconds
        self.phases = {}                   # lemma-batch phase -> seconds
        self.probes = []                   # seconds of each reference_kernel()
        self.last_probe = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def setup_done(self):
        self.setup_end = time.monotonic()

    def probe(self):
        """Time reference_kernel(), unless it ran less than PROBE_EVERY_S ago."""
        start = time.perf_counter()
        if self.last_probe is not None and start - self.last_probe < PROBE_EVERY_S:
            return
        reference_kernel()
        self.last_probe = time.perf_counter()
        self.probes.append(self.last_probe - start)

    def fail(self, op_id, problem):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op_id}: {problem}")

    def call(self, op_id, call):
        return self.tracer.call_op(op_id, call) if self.tracer else call()

    def run_op(self, op_id, call, check):
        """Time call() as one op; check its result outside the timed region.

        An op that raises is a failed op, not a crashed repetition.
        """
        self.attempted += 1
        self.probe()
        try:
            start = time.perf_counter()
            result = self.call(op_id, call)
            elapsed = time.perf_counter() - start
            problem = check(result)
        except Exception:
            self.fail(op_id, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None, None
        if problem:
            self.fail(op_id, problem)
        return result, elapsed

    def result(self):
        end = time.monotonic()
        return {
            "setup_s": self.setup_end - self.spawned_at + self.extra_setup_s,
            "wall_s": end - self.spawned_at,
            "nodes": self.nodes,
            "latencies_s": self.latencies,
            "phases_s": self.phases,
            "probes_s": self.probes,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def _residues(factors, index):
    out = []
    for f in factors:
        index, r = divmod(index, f)
        out.append(r)
    return out


def _index(factors, residues):
    idx, stride = 0, 1
    for f, r in zip(factors, residues):
        idx += (r % f) * stride
        stride *= f
    return idx


# ---------------------------------------------------------------------------
# search-max

def search_max(rep, golden, size, seed, setup_only):
    import zerosum.groups
    import zerosum.invariants
    import zerosum.search

    groups = []
    for factors, kind in SEARCHES[size]:
        group = zerosum.groups.make_group(factors)
        zerosum.search.canonical_first_two(group)
        groups.append((group, kind))
    rep.setup_done()
    if setup_only:
        return
    for (group, kind), want in zip(groups, golden["searches"]):
        op_id = f"{kind}({group.label()})"

        def check(res, want=want):
            if res.status != "complete":
                return f"status {res.status}"
            if res.value != want["value"]:
                return f"value {res.value} != golden {want['value']}"
            if res.witness is None or res.witness.to_json() != want["witness"]:
                return "witness differs from golden"
            return None

        res, elapsed = rep.run_op(
            op_id, lambda: zerosum.invariants.compute(group, kind), check)
        if res is not None:
            rep.nodes += res.stats.nodes
            rep.latencies[op_id] = elapsed


# ---------------------------------------------------------------------------
# report-tables

def strip_stats(payload):
    body = {k: v for k, v in payload.items() if k != "results"}
    entries = [{k: v for k, v in r.items() if k != "stats"} for r in payload["results"]]
    return body, entries


def _canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def report_tables(rep, golden, size, seed, setup_only):
    import zerosum.cli
    import zerosum.groups
    import zerosum.search

    # Time the symmetry setup the suite does (setup_s) and each entry's
    # compute call (op latency) by timing the public names it looks up.
    canonical = zerosum.search.canonical_first_two
    compute = zerosum.cli.compute
    canonical_s = []

    def timed_canonical(group):
        start = time.perf_counter()
        try:
            return canonical(group)
        finally:
            canonical_s.append(time.perf_counter() - start)

    def timed_compute(*args, **kwargs):
        rep.probe()
        start = time.perf_counter()
        result = compute(*args, **kwargs)
        rep.latencies[f"entry {len(rep.latencies)}"] = time.perf_counter() - start
        return result

    zerosum.search.canonical_first_two = timed_canonical
    zerosum.cli.compute = timed_compute
    rep.setup_done()
    entries = golden["entries"]
    if setup_only:
        for entry in entries:
            timed_canonical(zerosum.groups.parse_group(entry["group"]))
        rep.extra_setup_s = sum(canonical_s)
        return

    out = io.StringIO()
    rep.attempted += len(entries)
    try:
        with contextlib.redirect_stdout(out):
            code = rep.call("report", lambda: zerosum.cli.main(list(REPORT_ARGV[size])))
        payload = json.loads(out.getvalue())
        body, got = strip_stats(payload)
    except Exception:
        problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        for i in range(len(entries)):
            rep.fail(f"entry {i}", problem)
        return
    finally:
        rep.extra_setup_s = sum(canonical_s)
    whole_report_ok = (code == golden["exit_code"] and len(got) == len(entries)
                       and _canonical(body) == _canonical(golden["body"]))
    for i, want in enumerate(entries):
        op_id = f"entry {i} {want['kind']}{want['k'] or ''}({want['group']})"
        if not whole_report_ok:
            rep.fail(op_id, f"exit code {code}, entry count or report header differs from golden")
        elif _canonical(got[i]) != _canonical(want):
            rep.fail(op_id, "report bytes outside stats differ from golden")
    rep.nodes += sum(r["stats"]["nodes"] for r in payload["results"])


# ---------------------------------------------------------------------------
# lemma-batch

def _extraction_instances(rng, count, factors, eta, make_group, Sequence):
    """Random multisets of length eta + exp - 1 from the translation
    transversal (the smallest element of highest multiplicity moved to 0),
    each with a random support element as anchor and its full power as
    pilot, which is always admissible."""
    group = make_group(factors)
    length = eta + group.exponent - 1
    out = []
    for _ in range(count):
        mult = [0] * group.order
        for _ in range(length):
            mult[rng.randrange(group.order)] += 1
        top = mult.index(max(mult))
        shift = [-r for r in _residues(group.invariant_factors, top)]
        moved = [0] * group.order
        for i, v in enumerate(mult):
            if v:
                res = _residues(group.invariant_factors, i)
                moved[_index(group.invariant_factors, [a + b for a, b in zip(res, shift)])] += v
        seq = Sequence(group, moved)
        anchor = rng.choice([i for i, v in enumerate(moved) if v])
        pilot = Sequence.from_terms(group, [(anchor, moved[anchor])])
        out.append(("extract", (seq, pilot, group.element(anchor), eta)))
    return out


def _check_extraction(query):
    """An exp-length zero-sum that divides the input, checked with the
    benchmark's own residue arithmetic."""
    seq, _, _, _ = query
    group = seq.group
    factors = group.invariant_factors

    def check(res):
        mult = getattr(res, "mult", None)
        if mult is None:
            return f"no sequence: {res!r}"
        if len(mult) != group.order or sum(mult) != group.exponent:
            return f"length {sum(mult)} != exp(G) {group.exponent}"
        if any(a > b for a, b in zip(mult, seq.mult)):
            return "does not divide its input"
        totals = [0] * len(factors)
        for i, v in enumerate(mult):
            for j, r in enumerate(_residues(factors, i)):
                totals[j] += v * r
        if any(t % f for t, f in zip(totals, factors)):
            return "not a zero-sum"
        return None

    return check


def _check_certificate(seq, extremal):
    def check(cert):
        if cert is None:
            return "no certificate"
        if not extremal.verify_subsum_certificate(seq, cert):
            return "certificate does not verify"
        return None

    return check


def lemma_batch(rep, golden, size, seed, setup_only):
    import zerosum.engine
    import zerosum.extremal
    from zerosum.groups import make_group
    from zerosum.sequences import Sequence

    extremal = zerosum.extremal
    pool = []
    for factors in CERTIFICATE_GROUPS[size]:
        found, out = extremal.enumerate_eta_extremal(make_group(factors))
        rep.nodes += out.stats.nodes
        pool.extend(found)
    rng = random.Random(seed)
    queries = [("certificate", seq) for seq in pool] * CERTIFICATE_ROUNDS[size]
    for factors, eta in EXTRACTION_GROUPS:
        queries += _extraction_instances(rng, EXTRACTIONS_PER_GROUP[size], factors, eta,
                                         make_group, Sequence)
    rng.shuffle(queries)
    stability_group = make_group(STABILITY_GROUP[size])
    rep.setup_done()
    if setup_only:
        return

    # the pool is an op of its own: a short pool would shrink the stream unnoticed
    rep.attempted += 1
    if len(pool) != golden["pool_size"]:
        rep.fail("pool", f"{len(pool)} eta-extremal sequences, golden {golden['pool_size']}")

    def stream(part):
        """Every third query, so that the stream samples the machine at three
        moments of the repetition and not in one short burst."""
        for n in range(part, len(queries), 3):
            kind, query = queries[n]
            op_id = f"{kind} {n}"
            if kind == "certificate":
                _, elapsed = rep.run_op(
                    op_id, lambda: extremal.find_subsum_certificate(query, "eta"),
                    _check_certificate(query, extremal))
            else:
                _, elapsed = rep.run_op(
                    op_id, lambda: zerosum.engine.extract_exp_length_zero_sum(*query),
                    _check_extraction(query))
            if elapsed is not None:
                rep.latencies[op_id] = elapsed

    want = golden["stability"]

    def check_enumeration(result):
        sequences, out = result
        rep.nodes += out.stats.nodes
        if out.status != "complete":
            return "enumeration did not complete"
        if len(sequences) != want["count"]:
            return f"{len(sequences)} s-extremal sequences, golden {want['count']}"
        return None

    stream(0)
    enumerated, rep.phases["enumeration"] = rep.run_op(
        "enumeration", lambda: extremal.enumerate_s_extremal(stability_group),
        check_enumeration)
    stream(1)
    if enumerated is not None:
        _, rep.phases["stability"] = rep.run_op(
            "stability",
            lambda: extremal.check_stability(stability_group, "s", sequences=enumerated[0]),
            lambda report: None if report.holds else "stability fails")
    stream(2)


WORKLOADS = {
    "search-max": search_max,
    "report-tables": report_tables,
    "lemma-batch": lemma_batch,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--golden", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="trace the repetition and write the trace here")
    args = parser.parse_args()

    with open(args.golden, encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload][args.size]
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rep = Rep(args.spawned_at, tracer)
    WORKLOADS[args.workload](rep, golden, args.size, args.seed, args.setup_only)
    result = rep.result()
    if tracer is not None:
        tracer.finish()
        tracer.dump(args.trace_out)
        result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
