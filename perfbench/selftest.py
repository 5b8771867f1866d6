"""Smoke test of the benchmark at tiny input sizes (about half a minute).

Usage: ``python3 perfbench/selftest.py`` from the repository root.

Checks that every workload, untraced and traced, prints exactly the
metrics ``BENCHMARK.json`` names, with their units, on a correct run; and
that the correctness gate fails a run whose CCTs were perturbed by one ulp
or that left a coflow unfinished. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_printed_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (name, trace, printed)
            print(f"ok  {name} --trace {trace}: {len(printed)} metrics")


def check_digest_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import suite

    one = suite.build("fig9-bigswitch", 3, "tiny").run_pass()
    references = {r.run_id: suite.digest(r.pairs) for r in one.runs}
    assert run.check_runs([one], references, True) == []

    victim = one.runs[0]
    cid, cct = victim.pairs[0]
    victim.pairs[0] = (cid, math.nextafter(cct, math.inf))
    problems = run.check_runs([one], references, True)
    assert len(problems) == 1 and "digest" in problems[0], problems

    victim.pairs[0] = (cid, cct)
    del victim.pairs[-1]
    problems = run.check_runs([one], references, True)
    assert len(problems) == 1 and "finished" in problems[0], problems
    print("ok  the digest gate fails a perturbed CCT and an unfinished "
          "coflow")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_digest_gate()
    check_printed_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
