"""Record the golden answers the benchmark checks every run against.

    python3 perfbench/make_golden.py            # rewrites perfbench/golden.json

Run it only at a commit whose answers are trusted: every later run is
judged against what it writes.  Search values are cross-checked against
the closed forms of formula_oracle before anything is written.  Node
counts are recorded so that a run can say whether the search tree changed;
they are not a pass/fail criterion.
"""

import contextlib
import io
import json

import worker

import zerosum.cli
from zerosum.extremal import enumerate_eta_extremal, enumerate_s_extremal, check_stability
from zerosum.groups import make_group
from zerosum.invariants import compute, formula_oracle


def search_max(size):
    searches = []
    for factors, kind in worker.SEARCHES[size]:
        group = make_group(factors)
        res = compute(group, kind)
        if res.status != "complete" or res.value != formula_oracle(group, kind):
            raise SystemExit(f"{kind}({group.label()}) = {res.value} "
                             "disagrees with the closed form")
        searches.append({"group": factors, "kind": kind, "value": res.value,
                         "witness": res.witness.to_json(), "nodes": res.stats.nodes})
    return {"searches": searches, "nodes": sum(s["nodes"] for s in searches)}


def report_tables(size):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = zerosum.cli.main(list(worker.REPORT_ARGV[size]))
    payload = json.loads(out.getvalue())
    if any(r["match"] is False for r in payload["results"]):
        raise SystemExit("a report entry disagrees with the closed form")
    body, entries = worker.strip_stats(payload)
    return {"exit_code": code, "body": body, "entries": entries,
            "nodes": sum(r["stats"]["nodes"] for r in payload["results"])}


def lemma_batch(size):
    pool_size = pool_nodes = 0
    for factors in worker.CERTIFICATE_GROUPS[size]:
        found, out = enumerate_eta_extremal(make_group(factors))
        pool_size += len(found)
        pool_nodes += out.stats.nodes
    group = make_group(worker.STABILITY_GROUP[size])
    sequences, out = enumerate_s_extremal(group)
    report = check_stability(group, "s", sequences=sequences)
    if out.status != "complete" or not report.holds:
        raise SystemExit(f"stability over {group.label()} does not hold")
    return {"pool_size": pool_size,
            "stability": {"group": worker.STABILITY_GROUP[size], "count": len(sequences)},
            "nodes": pool_nodes + out.stats.nodes}


def main():
    golden = {}
    for name, build in (("search-max", search_max), ("report-tables", report_tables),
                        ("lemma-batch", lemma_batch)):
        golden[name] = {size: build(size) for size in ("tiny", "full")}
    with open(worker.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
