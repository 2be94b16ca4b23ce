import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zerosum
from zerosum import CapacityError
from zerosum.cli import _group_from, main
from zerosum.groups import CLI_GROUP_MAX_ORDER


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_constant_eta_matches_formula(capsys):
    code, out = run_cli(["constant", "--group", "2,2,4", "--kind", "eta"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    result = payload["result"]
    assert result["value"] == 8
    assert result["formula"] == 8
    assert result["match"] is True
    assert result["method"] == "search"


def test_constant_dk(capsys):
    code, out = run_cli(["constant", "--group", "6", "--kind", "dk", "--k", "2"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["value"] == 12


def test_constant_csv_columns(capsys):
    code, out = run_cli(["constant", "--group", "C2xC4", "--kind", "d",
                         "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "group,kind,k,value_search,value_formula,match,status,nodes,seconds"
    cells = row.split(",")
    assert cells[0] == "C2xC4" and cells[3] == "5" and cells[4] == "5"


def test_budget_exhaustion_exit_code(capsys, tmp_path):
    ck = tmp_path / "search.json"
    code, out = run_cli(["constant", "--group", "2,4,4", "--kind", "d",
                         "--budget-nodes", "800", "--checkpoint", str(ck)], capsys)
    assert code == 2
    assert json.loads(out)["result"]["status"] == "partial"
    assert ck.exists()


def test_checkpoint_resume_round_trip(capsys, tmp_path):
    # 50 times the 4,168 nodes of the full search: it stops only a runaway one
    code, out = run_cli(["constant", "--group", "3,9", "--kind", "d",
                         "--budget-nodes", "208400"], capsys)
    assert code == 0
    full = json.loads(out)["result"]

    ck = tmp_path / "ck.json"
    code, out = run_cli(["constant", "--group", "3,9", "--kind", "d",
                         "--budget-nodes", "1000", "--checkpoint", str(ck)], capsys)
    assert code == 2
    rounds = 0
    while code == 2:
        code, out = run_cli(["constant", "--group", "3,9", "--kind", "d",
                             "--budget-nodes", "1000",
                             "--checkpoint", str(ck), "--resume"], capsys)
        rounds += 1
        assert rounds < 40
    assert code == 0 and rounds >= 3
    resumed = json.loads(out)["result"]
    assert resumed["value"] == full["value"]
    assert resumed["witness"] == full["witness"]
    assert resumed["stats"]["nodes"] == full["stats"]["nodes"]
    assert resumed["stats"]["slack_prunes"] == full["stats"]["slack_prunes"]


def test_checkpoint_resume_round_trip_dk(capsys, tmp_path):
    args = ["constant", "--group", "2,2,2", "--kind", "dk", "--k", "3"]
    code, out = run_cli(args, capsys)
    assert code == 0
    full = json.loads(out)["result"]

    ck = tmp_path / "ck.json"
    code, out = run_cli(args + ["--budget-nodes", "16", "--checkpoint", str(ck)],
                        capsys)
    rounds = 0
    while code == 2:
        code, out = run_cli(args + ["--budget-nodes", "16", "--checkpoint", str(ck),
                                    "--resume"], capsys)
        rounds += 1
        assert rounds < 40
    assert code == 0 and rounds >= 5
    resumed = json.loads(out)["result"]
    assert resumed["value"] == full["value"] == 9
    assert resumed["witness"] == full["witness"]
    assert resumed["stats"]["nodes"] == full["stats"]["nodes"]
    assert resumed["stats"]["slack_prunes"] == full["stats"]["slack_prunes"]


def test_checkpoint_resume_round_trip_under_stabiliser_pruning(capsys, tmp_path):
    # the stabiliser chain is rebuilt from the replayed path on every resume
    args = ["constant", "--group", "2,2,6", "--kind", "eta"]
    code, out = run_cli(args, capsys)
    assert code == 0
    full = json.loads(out)["result"]

    ck = tmp_path / "ck.json"
    code, out = run_cli(args + ["--budget-nodes", "100", "--checkpoint", str(ck)],
                        capsys)
    rounds = 0
    while code == 2:
        code, out = run_cli(args + ["--budget-nodes", "100", "--checkpoint", str(ck),
                                    "--resume"], capsys)
        rounds += 1
        assert rounds < 40
    assert code == 0 and rounds >= 5
    resumed = json.loads(out)["result"]
    assert resumed["value"] == full["value"] == 10
    assert resumed["witness"] == full["witness"]
    assert resumed["stats"]["nodes"] == full["stats"]["nodes"]
    assert resumed["stats"]["slack_prunes"] == full["stats"]["slack_prunes"]


def test_resume_refuses_older_checkpoint_version(capsys, tmp_path):
    # version 9 is the last one before the D_k depth bound and open mask,
    # version 10 the last before every search but the reference tree reads
    # its state's open mask
    ck = tmp_path / "ck.json"
    for args, older in ((["constant", "--group", "2,2,6", "--kind", "eta"], 8),
                        (["constant", "--group", "2,2,4", "--kind", "dk", "--k", "3"], 9),
                        (["constant", "--group", "2,2,6", "--kind", "eta"], 10)):
        code, _ = run_cli(args + ["--budget-nodes", "300", "--checkpoint", str(ck)], capsys)
        assert code == 2
        stored = json.loads(ck.read_text())
        assert stored["job"]["version"] == 11
        stored["job"]["version"] = older
        ck.write_text(json.dumps(stored))
        code = main(args + ["--checkpoint", str(ck), "--resume"])
        assert code == 64
        assert "version" in capsys.readouterr().err


def _set_search_field(key, value):
    return lambda stored: json.dumps({**stored, "search": {**stored["search"], key: value}})


@pytest.mark.parametrize("corrupt", [
    lambda stored: "{",
    lambda stored: "[1, 2]",
    _set_search_field("path", [999]),
    lambda stored: json.dumps({**stored, "search": {
        key: value for key, value in stored["search"].items() if key != "next"}}),
    _set_search_field("next", None),
    _set_search_field("next", 17),
    _set_search_field("witness", None),
    _set_search_field("witness", [1, 2]),
    _set_search_field("nodes", None),
    _set_search_field("nodes", True),
    _set_search_field("slack_prunes", "a"),
    _set_search_field("witness", 5),
    _set_search_field("witness", [999]),
    _set_search_field("witness", [1, 2, "4"]),
    # the stored search is path [1, 2, 4] with next 11
    _set_search_field("path", [1, 4, 2]),
    _set_search_field("path", [1, 3, 4]),
    _set_search_field("next", 3),
    _set_search_field("witness", [0, 0, 0]),
    _set_search_field("witness", [4, 2, 1]),
], ids=["not-json", "not-an-object", "path-out-of-range", "no-next",
        "next-null", "next-out-of-range", "witness-null", "witness-shorter-than-path",
        "nodes-null", "nodes-bool", "slack-prunes-string", "witness-int",
        "witness-out-of-range", "witness-string-term", "path-decreasing",
        "path-not-offered", "next-below-path", "witness-refused", "witness-decreasing"])
def test_resume_refuses_malformed_checkpoint(capsys, tmp_path, corrupt):
    # exit 1 would claim a falsified verification
    ck = tmp_path / "ck.json"
    args = ["constant", "--group", "2,2,4", "--kind", "eta", "--checkpoint", str(ck)]
    code, _ = run_cli(args + ["--budget-nodes", "30"], capsys)
    assert code == 2
    stored = json.loads(ck.read_text())
    assert sorted(stored["search"]) == ["next", "nodes", "path", "slack_prunes", "witness"]
    assert stored["search"]["witness"]        # the corruptions replace a real witness
    assert (stored["search"]["path"], stored["search"]["next"]) == ([1, 2, 4], 11)
    ck.write_text(corrupt(stored))
    code = main(args + ["--resume"])
    assert code == 64
    assert "checkpoint" in capsys.readouterr().err


def test_resume_rejects_other_job(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, _ = run_cli(["constant", "--group", "2,4,4", "--kind", "d",
                       "--budget-nodes", "1000", "--checkpoint", str(ck)], capsys)
    assert code == 2
    code, _ = run_cli(["constant", "--group", "2,4", "--kind", "d",
                       "--checkpoint", str(ck), "--resume"], capsys)
    assert code == 64


def test_resume_rejects_other_orbit_pruning(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, _ = run_cli(["constant", "--group", "2,2,8", "--kind", "d",
                       "--budget-nodes", "3000", "--checkpoint", str(ck)], capsys)
    assert code == 2
    assert json.loads(ck.read_text())["job"]["orbit_pruning"] is True
    code, _ = run_cli(["constant", "--group", "2,2,8", "--kind", "d",
                       "--no-orbit-pruning", "--checkpoint", str(ck), "--resume"],
                      capsys)
    assert code == 64
    assert not (tmp_path / "ck.json.tmp").exists()


def test_determinism_modulo_stats(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(["constant", "--group", "2,2,4", "--kind", "s"], capsys)
        assert code == 0
        payload = json.loads(out)
        del payload["result"]["stats"]
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_witness_dk(capsys):
    code, out = run_cli(["witness", "--group", "2,4,4", "--family", "dk",
                         "--m", "2", "--k", "3"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["length"] == 16
    assert result["verified"] is True


@pytest.mark.parametrize("args, message", [
    (["constant", "--group", "2,100000,100000", "--kind", "d"],
     f"CLI_GROUP_MAX_ORDER = {CLI_GROUP_MAX_ORDER}"),
    (["witness", "--group", "2,100000,100000", "--family", "dk", "--m", "50000", "--k", "2"],
     f"CLI_GROUP_MAX_ORDER = {CLI_GROUP_MAX_ORDER}"),
    (["property-d", "--m", "100000"], f"CLI_GROUP_MAX_ORDER = {CLI_GROUP_MAX_ORDER}"),
    # the dk group is compared before the witness of order 2 * 100000**2 is built
    (["witness", "--group", "2,4,4", "--family", "dk", "--m", "50000", "--k", "2"],
     "lives over C2xC100000xC100000"),
])
def test_oversized_group_refused_before_allocating(args, message, capsys):
    started = time.perf_counter()
    assert main(args) == 64
    assert time.perf_counter() - started < 5
    assert message in capsys.readouterr().err


def test_group_order_cap_boundary():
    assert _group_from("256,256").order == CLI_GROUP_MAX_ORDER
    with pytest.raises(CapacityError):
        _group_from("2,256,256")


def test_witness_eta_with_parameters(capsys):
    code, out = run_cli(["witness", "--group", "2,4", "--family", "eta",
                         "--s", "1", "--x", "1", "--b1", "1,0", "--b2", "0,1"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["length"] == 5 and result["verified"] is True


def test_witness_s_default_params(capsys):
    code, out = run_cli(["witness", "--group", "3,6", "--family", "s"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["length"] == 2 * 3 + 2 * 6 - 4
    assert result["verified"] is True


def test_classify_exit_codes(capsys):
    code, out = run_cli(["classify", "--group", "C4", "--kind", "eta"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["total"] == result["matched"] == 2


def test_property_d_command(capsys):
    code, out = run_cli(["property-d", "--m", "2"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def test_lemma_check_stability(capsys):
    code, out = run_cli(["lemma-check", "--lemma", "stability",
                         "--group", "2,4", "--kind", "eta"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def test_lemma_check_stability_stats(capsys):
    # the stats block counts the extremal enumeration (eta(C3xC6) is
    # pinned at 9,545 nodes); the rest of the output is byte-identical
    # between reruns
    args = ["lemma-check", "--lemma", "stability", "--group", "3,6", "--kind", "eta"]
    outs = []
    for _ in range(2):
        code, out = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out)
        stats = payload["result"].pop("stats")
        assert set(stats) == {"nodes", "seconds", "slack_prunes"}
        assert stats["nodes"] == 9545 and stats["slack_prunes"] > 0
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["result"]["checked"] == 96
    code, out = run_cli(args + ["--budget-nodes", "10"], capsys)
    assert code == 2
    assert json.loads(out)["result"]["stats"]["nodes"] == 10


def test_lemma_check_subsum(capsys):
    # the stats block counts the extremal enumeration, as for stability;
    # the rest of the output is byte-identical between reruns
    args = ["lemma-check", "--lemma", "subsum", "--group", "C6", "--kind", "eta"]
    outs = []
    for _ in range(2):
        code, out = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out)
        stats = payload.pop("stats")
        assert set(stats) == {"nodes", "seconds", "slack_prunes"}
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]
    _, out = run_cli(["lemma-check", "--lemma", "stability", "--group", "C6", "--kind", "eta"],
                     capsys)
    assert stats["nodes"] == json.loads(out)["result"]["stats"]["nodes"] > 0
    results = json.loads(outs[0])["results"]
    assert results and all(r["verified"] for r in results)


def test_lemma_check_extraction(capsys):
    code, out = run_cli(["lemma-check", "--lemma", "extraction",
                         "--group", "2,2,2", "--samples", "50"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["failures"] == 0 and result["eta"] == 8


def test_lemma_check_partial_eta_checks_no_sample(capsys):
    # eta(C2^4) has no closed form; 10 nodes give only the lower bound 6
    code, out = run_cli(["lemma-check", "--lemma", "extraction", "--group", "2,2,2,2",
                         "--samples", "3", "--budget-nodes", "10"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "partial"
    assert payload["result"]["eta"] < 16
    assert payload["result"]["samples"] == payload["result"]["failures"] == 0


def test_lemma_check_partial_stability_exits_2(capsys):
    code, out = run_cli(["lemma-check", "--lemma", "stability", "--group", "3,6",
                         "--kind", "eta", "--budget-nodes", "10"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "partial"
    assert payload["result"]["kind"] == "eta"


def test_lemma_check_counterexample(capsys):
    code, out = run_cli(["lemma-check", "--lemma", "subsum-counterexample",
                         "--m", "3"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["confirmed"] is True


def test_report_suite(capsys, tmp_path):
    out_path = tmp_path / "tables.csv"
    code, _ = run_cli(["report", "--suite", "paper-tables", "--format", "csv",
                       "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("group,kind,k")
    assert len(lines) > 10
    assert all(",False," not in line for line in lines[1:])


def test_broken_pipe_exits_74(monkeypatch, tmp_path):
    """A reader that closes the pipe early makes the report's write raise
    BrokenPipeError: the command exits 74, not 1, which would claim a
    falsified result, and stdout's descriptor then writes to devnull, so
    that the flush at exit cannot fail again."""
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    target = tmp_path / "stdout"
    with open(target, "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        assert main(["constant", "--group", "2,2,4", "--kind", "d"]) == 74
        fh.write("lost")
    assert target.read_text() == ""


@pytest.mark.parametrize("args", [
    ["--out", "{dir}"],
    ["--budget-nodes", "5", "--checkpoint", "{dir}"],
    ["--resume", "--checkpoint", "{dir}"],
], ids=["out", "checkpoint", "resume"])
def test_unusable_paths_exit_64(args, capsys, tmp_path):
    """An --out or --checkpoint path that is a directory exits 64 with an
    error line, not 1, which would claim a falsified result; a failed
    checkpoint store leaves no temporary file behind and no report."""
    target = tmp_path / "dir"
    target.mkdir()
    code = main(["constant", "--group", "2,2,4", "--kind", "d",
                 *(arg.format(dir=target) for arg in args)])
    assert code == 64
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    assert not any(target.iterdir())


def test_usage_errors_exit_64():
    # the child imports the package these tests import, installed or not
    src = str(Path(zerosum.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in (["--group", "2,4"], ["--group", "2,4", "--kind", "dk"],
                 ["--group", "junk", "--kind", "d"]):
        proc = subprocess.run([sys.executable, "-m", "zerosum.cli", "constant", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 64, args


@pytest.mark.parametrize("args", [
    ["lemma-check", "--lemma", "subsum-counterexample"],
    ["lemma-check", "--lemma", "stability"],
    ["lemma-check", "--lemma", "stability", "--group", "3,3,3"],
    ["lemma-check", "--lemma", "subsum", "--group", "2,2,2,2"],
    ["lemma-check", "--lemma", "subsum", "--group", "2,4,4"],
    ["lemma-check", "--lemma", "subsum", "--group", "2,4,4", "--budget-nodes", "1"],
    ["lemma-check", "--lemma", "extraction", "--group", "2,2", "--samples", "-5"],
    ["lemma-check", "--lemma", "extraction", "--group", "2,2", "--samples", "0"],
    ["constant", "--group", "2,4", "--kind", "d", "--budget-nodes", "-1"],
    ["constant", "--group", "2,4", "--kind", "d", "--budget-secs", "-0.5"],
    ["constant", "--group", "2,4", "--kind", "d", "--threads", "0"],
    ["report", "--budget-nodes", "-3"],
    ["witness", "--group", "2,4", "--family", "eta", "--s", "0"],
], ids=" ".join)
def test_malformed_numbers_exit_64(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:           # argparse rejects the value
        code = exc.code
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_threads_produce_identical_result(capsys):
    for args, threads in ((["--group", "2,2,4", "--kind", "eta"], "3"),
                          (["--group", "2,2,8", "--kind", "d"], "2"),
                          (["--group", "2,2,4", "--kind", "s"], "2")):
        code, seq_out = run_cli(["constant"] + args, capsys)
        assert code == 0
        code, par_out = run_cli(["constant"] + args + ["--threads", threads], capsys)
        assert code == 0
        a, b = json.loads(seq_out)["result"], json.loads(par_out)["result"]
        assert (a["value"], a["witness"]) == (b["value"], b["witness"]), args
