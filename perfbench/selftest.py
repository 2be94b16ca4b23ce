"""Self-test of the benchmark; takes about half a minute.

    python3 perfbench/selftest.py

Checks, on the tiny size of every workload:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, a traced run every per-layer metric, and no op fails;
  * an injected wrong golden value makes ops fail (failed > 0, correct false);
  * in a directory holding only BENCHMARK.json and perfbench/ (no
    program), run.py exits non-zero without printing a result.
Exits 1 on the first check that does not hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
WORKLOADS = ("search-max", "report-tables", "lemma-batch")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(condition, message, detail=""):
    if not condition:
        print(f"selftest FAILED: {message}\n{detail}")
        sys.exit(1)
    print(f"ok  {message}")


def result_of(proc, label):
    check(proc.returncode == 0, f"{label} exits 0", proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    SCRATCH.mkdir(parents=True, exist_ok=True)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} tiny trace={trace}"
            result, text = result_of(run(workload, trace), label)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: {result['attempted']} ops, none failed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label}: prints every {key} metric with its unit")
            printed = all(any(line.split()[:1] == [name] and line.split()[-1] == unit
                              for line in text.splitlines()) for name, unit in want.items())
            check(printed, f"{label}: shows every {key} metric by name and unit")

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    golden["search-max"]["tiny"]["searches"][0]["value"] += 1
    golden["report-tables"]["tiny"]["entries"][0]["value"] += 1
    golden["lemma-batch"]["tiny"]["stability"]["count"] += 1
    wrong = SCRATCH / "golden-wrong.json"
    wrong.write_text(json.dumps(golden), encoding="utf-8")
    for workload in WORKLOADS:
        result, _ = result_of(run(workload, 0, "--golden", str(wrong)), f"{workload} wrong golden")
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: a wrong golden value fails {result['failed']} ops")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("search-max", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip().endswith("}"),
          "without the program, run.py exits non-zero and prints no result")
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
