"""Command-line interface.

Exit codes: 0 = completed and every internal verification passed;
1 = a verification falsified (classification mismatch, witness failure,
missing certificate); 2 = budget exhausted, partial results written;
64 = malformed invocation, or an output or checkpoint path that cannot
be read or written; 74 = standard output closed before the report was
written (a broken pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from .errors import CapacityError, InvalidInputError
from .groups import CLI_GROUP_MAX_ORDER, parse_group
from .invariants import (
    KIND_D,
    KIND_DK,
    KIND_ETA,
    KIND_S,
    check_property_d,
    compute,
    formula_oracle,
    has_property,
    rank_two_split,
)
from .search import Budget, orbit_pruning_applies
from .sequences import Sequence

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_IO = 74

SCHEMA_VERSION = 1
# Part of a checkpoint's job key; bump it when the stored format changes or
# a stored search would replay against a different search tree.  Version 2
# raised the orbit pruning cap from order 64 to 256, so unversioned
# checkpoints are refused; version 3 prunes every later position of a
# maximise search by the pointwise stabiliser of the prefix; version 4 adds
# the multiplicity bound on depth, and the checkpoint carries the slack
# prune count; version 5 adds the lex-least prefix gates and run caps
# (rebuilt on resume by replaying the path); version 6 skips the pushes the
# D state refuses, so D node counts fall; version 7 drops the multiplicity
# bound of D, which prunes by its subsum count alone; version 8 skips the
# pushes the eta and s states refuse; version 9 stores one cursor, no best;
# version 10 bounds the D_k depth by D(G) and skips the pushes the D_k
# state refuses, so D_k trees shrink; version 11 does both in every search
# but the reference tree, over groups past the orbit cap too.
CHECKPOINT_VERSION = 11


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(low, kind=int):
    """An argparse type: a number of ``kind`` no less than ``low``."""
    def parse(text):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"{text} is not at least {low}")
        return value
    parse.__name__ = kind.__name__      # argparse names it in its messages
    return parse


def _budget_from(args) -> Budget | None:
    if args.budget_nodes is None and args.budget_secs is None:
        return None
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def _emit(payload: dict, args) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    path = getattr(args, "out", None)
    with (open(path, "w", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            _emit_csv(payload, out)


def _result_row(r: dict) -> list:
    return [
        r.get("group"), r.get("kind"), r.get("k"),
        r.get("value"), r.get("formula"),
        r.get("match"), r.get("status"),
        r.get("stats", {}).get("nodes"), r.get("stats", {}).get("seconds"),
    ]


def _emit_csv(payload: dict, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["group", "kind", "k", "value_search", "value_formula",
                     "match", "status", "nodes", "seconds"])
    rows = payload.get("results", [payload.get("result", payload)])
    for r in rows:
        row = _result_row(r)
        row[0] = "x".join(f"C{f}" for f in row[0]) if row[0] else "C1"
        writer.writerow(row)


def _load_checkpoint(filename, job):
    """The search stored in a checkpoint of ``job``; ``dfs_run`` checks
    that it replays."""
    with open(filename, "r", encoding="utf-8") as fh:
        try:
            stored = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"checkpoint is not JSON: {exc}") from None
    if not (isinstance(stored, dict) and isinstance(stored.get("job"), dict)
            and isinstance(stored.get("search"), dict)):
        raise InvalidInputError("checkpoint is not an object with job and search objects")
    differ = sorted(key for key in job if stored["job"].get(key) != job[key])
    if differ:
        raise InvalidInputError(
            f"checkpoint belongs to a different job (differs in {', '.join(differ)})")
    return stored["search"]


def _store_checkpoint(path, payload):
    # a crash mid-write leaves the previous checkpoint intact, and a failed
    # store leaves no temporary file behind
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def _group_from(spec):
    """The group of ``--group`` (or C_m + C_m of ``--m``), refused before
    anything of size |G| is built when its order exceeds CLI_GROUP_MAX_ORDER."""
    group = parse_group(spec)
    if group.order > CLI_GROUP_MAX_ORDER:
        raise CapacityError(f"group order {group.order} exceeds the command-line cap "
                            f"CLI_GROUP_MAX_ORDER = {CLI_GROUP_MAX_ORDER}")
    return group


def _exit_code(status: str, verified) -> int:
    """README's exit code of a run: 2 when its budget ran out, whatever
    was verified so far; else 0 when every verification passed, 1 when
    one failed."""
    if status != "complete":
        return EXIT_BUDGET
    return EXIT_OK if verified else EXIT_FALSIFIED


def _checked_record(result) -> dict:
    """A search result's record with its closed-form value and whether the
    two agree (None when no formula covers it or the search is partial)."""
    formula = formula_oracle(result.group, result.kind, result.k)
    record = result.to_json()
    record["formula"] = formula
    record["match"] = (None if formula is None or result.status != "complete"
                       else formula == result.value)
    return record


# ---------------------------------------------------------------------------
# Commands

def _cmd_constant(args) -> int:
    group = _group_from(args.group)
    budget = _budget_from(args)
    job = {"group": list(group.invariant_factors), "kind": args.kind, "k": args.k,
           "orbit_pruning": not args.no_orbit_pruning,
           "version": CHECKPOINT_VERSION}
    resume = None
    if args.resume:
        if not args.checkpoint:
            raise InvalidInputError("--resume needs --checkpoint")
        resume = _load_checkpoint(args.checkpoint, job)
    if args.threads > 1:
        if args.checkpoint or args.resume:
            raise InvalidInputError("checkpointing is single-threaded; drop --threads")
        result = _parallel_constant(group, args, budget)
    else:
        result = compute(group, args.kind, k=args.k, budget=budget,
                         orbit_pruning=not args.no_orbit_pruning,
                         resume=resume)
    record = _checked_record(result)
    # a checkpoint that cannot be stored leaves no report behind
    if result.status != "complete" and args.checkpoint and result.checkpoint is not None:
        _store_checkpoint(args.checkpoint, {"job": job, "search": result.checkpoint})
    _emit({"command": "constant", "result": record}, args)
    return _exit_code(result.status, record["match"] is not False)


def _parallel_constant(group, args, budget):
    """Split the search over its first free element across worker
    processes (``compute`` pins the s anchor before it)."""
    from concurrent.futures import ProcessPoolExecutor

    from .search import canonical_first_two

    if not args.no_orbit_pruning and orbit_pruning_applies(group):
        seeds, _ = canonical_first_two(group)
    else:
        seeds = set(range(group.order))
    payloads = [(list(group.invariant_factors), args.kind, args.k, [g],
                 not args.no_orbit_pruning, budget) for g in sorted(seeds)]
    with ProcessPoolExecutor(max_workers=args.threads) as pool:
        parts = list(pool.map(_constant_worker, payloads))
    # prefixes are in search order, so taking the first strict improvement
    # reproduces the sequential witness
    merged = parts[0]
    for part in parts[1:]:
        if part.value > merged.value:
            merged = part
    merged.stats.nodes = sum(p.stats.nodes for p in parts)
    merged.stats.slack_prunes = sum(p.stats.slack_prunes for p in parts)
    merged.stats.seconds = max(p.stats.seconds for p in parts)
    if any(p.status != "complete" for p in parts):
        merged.status = "partial"
        merged.checkpoint = None
    return merged


def _constant_worker(payload):
    factors, kind, k, prefix, orbit, budget = payload
    from .groups import Group
    group = Group(tuple(factors))
    return compute(group, kind, k=k, budget=budget, orbit_pruning=orbit,
                   restrict_prefix=prefix)


def _parse_residues(text):
    return [int(x) for x in str(text).split(",") if x != ""]


def _cmd_witness(args) -> int:
    from .extremal import build_dk_witness, build_eta_extremal, build_s_extremal, rank_two_params

    group = _group_from(args.group)
    if args.family == "dk":
        if args.m is None or args.k is None:
            raise InvalidInputError("family dk needs --m and --k")
        if args.m >= 1 and group.invariant_factors != (2, 2 * args.m, 2 * args.m):
            raise InvalidInputError(
                f"the dk witness for m={args.m} lives over C2xC{2 * args.m}xC{2 * args.m}")
        seq = build_dk_witness(args.m, args.k)
        expected_len = 2 * args.m + 2 * args.m * args.k
        verified = (len(seq) == expected_len
                    and seq.sum() == -seq.group.element([0, 0, 1])
                    and not has_property(seq, KIND_DK, args.k))
    else:
        m, n = rank_two_split(group)
        b1 = group.element(_parse_residues(args.b1)) if args.b1 else \
            group.element([1, 0] if group.rank == 2 else ([0] if group.rank else []))
        default_b2 = [0, 1] if group.rank == 2 else ([1] if group.rank else [])
        b2 = group.element(_parse_residues(args.b2)) if args.b2 else group.element(default_b2)
        c = group.element(_parse_residues(args.c)) if args.c else None
        params = rank_two_params(group, b1, b2, s=n if args.s is None else args.s,
                                 t=args.t, x=args.x, c=c)
        if args.family == "eta":
            seq = build_eta_extremal(params)
            verified = not has_property(seq, KIND_ETA)
        else:
            seq = build_s_extremal(params)
            verified = not has_property(seq, KIND_S)
    record = {
        "family": args.family,
        "witness": seq.to_json(),
        "length": len(seq),
        "verified": verified,
    }
    _emit({"command": "witness", "result": record}, args)
    return _exit_code("complete", verified)


def _cmd_classify(args) -> int:
    from .extremal import classify_eta_extremal, classify_s_extremal

    group = _group_from(args.group)
    budget = _budget_from(args)
    if args.kind == KIND_ETA:
        report = classify_eta_extremal(group, budget)
    elif args.kind == KIND_S:
        report = classify_s_extremal(group, budget)
    else:
        raise InvalidInputError("classify kind must be eta or s")
    _emit({"command": "classify", "result": report.to_json()}, args)
    return _exit_code(report.status, report.matched == report.total)


def _cmd_property_d(args) -> int:
    if args.m >= 1:
        _group_from([args.m, args.m])
    budget = _budget_from(args)
    report = check_property_d(args.m, budget)
    _emit({"command": "property-d", "result": report.to_json()}, args)
    return _exit_code(report.status, report.holds)


def _cmd_lemma_check(args) -> int:
    budget = _budget_from(args)
    status = "complete"
    if args.lemma != "subsum-counterexample":
        if args.group is None:
            raise InvalidInputError(f"lemma {args.lemma} needs --group")
        group = _group_from(args.group)
    if args.lemma in ("stability", "subsum"):
        from .extremal import (check_stability, enumerate_eta_extremal, enumerate_s_extremal,
                               find_subsum_certificate, verify_subsum_certificate)

        if args.lemma == "subsum":
            rank_two_split(group)       # certificates need rank two: refuse before enumerating
        enumerate_extremal = (enumerate_eta_extremal if args.kind == KIND_ETA
                              else enumerate_s_extremal)
        sequences, out = enumerate_extremal(group, budget)
        status = out.status
    if args.lemma == "stability":
        # a partial enumeration is checked as far as it got
        report = check_stability(group, args.kind, sequences=sequences)
        payload = {"result": {**report.to_json(), "stats": out.stats.to_json()}}
        verified = report.holds
    elif args.lemma == "subsum":
        results = []
        for seq in sequences:
            cert = find_subsum_certificate(seq, args.kind)
            results.append({
                "sequence": seq.to_json(),
                "certificate": cert.to_json() if cert else None,
                "verified": cert is not None and verify_subsum_certificate(seq, cert),
            })
        payload = {"results": results, "stats": out.stats.to_json()}
        verified = all(r["verified"] for r in results)
    elif args.lemma == "subsum-counterexample":
        if args.m is None:
            raise InvalidInputError("lemma subsum-counterexample needs --m")
        from .extremal import square_counterexample_report

        report = square_counterexample_report(args.m)
        payload, verified = {"result": report.to_json()}, report.confirmed
    else:
        import random

        from .engine import extract_exp_length_zero_sum

        eta = formula_oracle(group, KIND_ETA)
        if eta is None:
            found = compute(group, KIND_ETA, budget=budget)
            eta, status = found.value, found.status
        # a partial search gives only a lower bound on eta: check nothing
        samples = args.samples if status == "complete" else 0
        rng = random.Random(args.seed)
        length = eta + group.exponent - 1
        failures = 0
        for _ in range(samples):
            idxs = [rng.randrange(group.order) for _ in range(length)]
            seq = Sequence.from_indices(group, idxs)
            anchor = rng.choice(idxs)
            pilot = Sequence.from_terms(group, [(anchor, seq.mult[anchor])])
            res = extract_exp_length_zero_sum(seq, pilot, group.element(anchor), eta)
            ok = (isinstance(res, Sequence) and len(res) == group.exponent
                  and res.sum().index == 0 and res.divides(seq))
            if not ok:
                failures += 1
        payload = {"result": {"group": list(group.invariant_factors), "eta": eta,
                              "samples": samples, "failures": failures}}
        verified = failures == 0
    if status != "complete":
        payload["status"] = status
    _emit({"command": "lemma-check", "lemma": args.lemma, **payload}, args)
    return _exit_code(status, verified)


_REPORT_ENTRIES = [
    # (group factors, kind, k)
    ([2, 2, 2], KIND_D, None), ([2, 2, 4], KIND_D, None),
    ([2, 4, 4], KIND_D, None), ([2, 2, 8], KIND_D, None),
    ([2, 2, 2], KIND_ETA, None), ([2, 2, 4], KIND_ETA, None),
    ([2, 2, 6], KIND_ETA, None),
    ([2, 2, 2], KIND_S, None), ([2, 2, 4], KIND_S, None),
    ([2, 2, 2], KIND_DK, 2), ([2, 2, 2], KIND_DK, 3), ([2, 2, 2], KIND_DK, 4),
    ([2, 2, 4], KIND_DK, 2),
]

_REPORT_ENTRIES_LONG = [
    ([2, 4, 4], KIND_ETA, None),
    ([2, 2, 4], KIND_DK, 3),
    ([2, 4, 4], KIND_S, None), ([2, 2, 8], KIND_S, None),
    ([2, 4, 8], KIND_ETA, None),
    ([2, 4, 4], KIND_DK, 2), ([2, 6, 6], KIND_ETA, None),
    ([2, 2, 8], KIND_DK, 2),
]


def _cmd_report(args) -> int:
    if args.suite != "paper-tables":
        raise InvalidInputError(f"unknown suite {args.suite!r}")
    budget = _budget_from(args)
    table = list(_REPORT_ENTRIES)
    if args.long:
        table += _REPORT_ENTRIES_LONG
    results = []
    worst = EXIT_OK
    for factors, kind, k in table:
        group = parse_group(factors)
        res = compute(group, kind, k=k, budget=budget,
                      orbit_pruning=not args.no_orbit_pruning)
        record = _checked_record(res)
        results.append(record)
        worst = max(worst, _exit_code(res.status, record["match"] is not False))
    _emit({"command": "report", "suite": args.suite, "results": results}, args)
    return worst


def build_parser() -> _Parser:
    parser = _Parser(prog="zerosum",
                     description="zero-sum invariants of finite abelian groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=True):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", help="write the report to a file")
        if budget:
            p.add_argument("--budget-nodes", type=_at_least(0), default=None)
            p.add_argument("--budget-secs", type=_at_least(0, float), default=None)

    p = sub.add_parser("constant", help="compute one invariant by search")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=[KIND_D, KIND_DK, KIND_ETA, KIND_S], required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--threads", type=_at_least(1), default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--no-orbit-pruning", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("witness", help="build and verify an extremal witness")
    p.add_argument("--group", required=True)
    p.add_argument("--family", choices=["eta", "s", "dk"], required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--b1", default=None, help="residues, e.g. 1,0")
    p.add_argument("--b2", default=None)
    p.add_argument("--c", default=None)
    add_common(p, budget=False)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("classify", help="enumerate and classify extremal sequences")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=[KIND_ETA, KIND_S], required=True)
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("property-d", help="scan C_m^2 extremal sequences")
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_property_d)

    p = sub.add_parser("lemma-check", help="verify an auxiliary statement")
    p.add_argument("--lemma",
                   choices=["stability", "subsum", "subsum-counterexample",
                            "extraction"],
                   required=True)
    p.add_argument("--group", default=None)
    p.add_argument("--kind", choices=[KIND_ETA, KIND_S], default=KIND_ETA)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("report", help="run a suite and tabulate search vs formula")
    p.add_argument("--suite", default="paper-tables")
    p.add_argument("--long", action="store_true",
                   help="include the slow entries")
    p.add_argument("--no-orbit-pruning", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left in stdout goes to devnull, so
        # that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    except (InvalidInputError, CapacityError, OSError) as exc:   # OSError: a bad path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
