"""Repository benchmark: host-time cost of simulating the paper's workloads.

Usage::

    python3 perfbench/run.py --workload fig9-bigswitch --seed 7 \\
        --seconds 20 --trace 0

Builds the compiled core (``tools/build_fastcore.py``, outside every
timing), measures set-up time in fresh interpreters, runs one verified
warm-up pass, then runs closed-loop passes (each simulation starts when
the previous one returns) until ``--seconds`` have elapsed. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics. Every run is checked
against its CCT digest; the last line of output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / "tools" / "build_fastcore.py"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 5
#: Paper's Saath-over-Aalo (median, P90) per trace, and where from.
PAPER_AALO = {
    "fb-like": (1.53, 4.5, "testbed, FB trace"),
    "osp-like": (1.42, 37.0, "simulation, OSP trace"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass and store its CCT digests as "
                             "the reference for this workload and seed")
    return parser.parse_args(argv)


def build_fastcore() -> None:
    """Build the compiled core. A failed build is not fatal here: the runs
    then go without it and every one counts as failed."""
    subprocess.run([sys.executable, str(BUILD), "--quiet"], cwd=ROOT,
                   timeout=600)


def setup_seconds(args, calib) -> tuple[list[tuple], list[str]]:
    """Process start to first simulated step, once per fresh interpreter.

    Returns ``(scaled, raw)`` seconds per probe — scaled to the reference
    speed by reference samples taken just before and after it — and one
    line per probe that failed."""
    samples, problems = [], []
    for index in range(SETUP_PROBES):
        before = calib.sample()
        start = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), args.workload,
                 str(args.seed), args.size],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=120)
            raw = (int(proc.stdout.split()[-1]) - start) / 1e9
            speed = (before + calib.sample()) / 2
            samples.append((raw * calib.REFERENCE_S / speed, raw))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            stderr = getattr(exc, "stderr", None) or ""
            problems.append(f"setup probe {index}: {exc!r} "
                            f"{stderr.strip()[-500:]}")
    return samples, problems


def host_identity(fastcore: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            sha.update(str(path.relative_to(SRC)).encode())
            sha.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "fastcore": fastcore,
        "commit": commit,
        "src_sha256": sha.hexdigest(),
        "kernel": platform.release(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def reference_digests(args, suite) -> dict[str, str]:
    """Recorded digests at the default seed; elsewhere none (the warm-up
    pass becomes the reference, so every pass must repeat it)."""
    if args.seed != suite.DEFAULT_SEED or args.size != "full":
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[args.workload]


def report_vs_paper(runs) -> None:
    """Print simulated Saath-over-Aalo beside the paper (informational)."""
    from repro.analysis.metrics import DistributionSummary, per_coflow_speedups

    ccts = {r.run_id: dict(r.pairs) for r in runs}
    for trace, (p50, p90, source) in PAPER_AALO.items():
        sim = DistributionSummary.of(list(per_coflow_speedups(
            ccts[f"{trace}/aalo"], ccts[f"{trace}/saath"]).values()))
        print(f"{trace}: Saath over Aalo in simulated time: median "
              f"{sim.p50:.2f}x, P90 {sim.p90:.2f}x | paper ({source}): "
              f"{p50}x, {p90}x | gap {sim.p50 - p50:+.2f}x median, "
              f"{sim.p90 - p90:+.2f}x P90 (informational)")


def check_fig9_figure() -> list[str]:
    """BENCH_fig9.json holds the Fig. 9 table at the tiny scale (medians,
    P10 and P90 of Saath over each baseline): regenerate it, in this
    process, and require it verbatim."""
    from repro.experiments import fig9_speedup, runner
    from repro.experiments.common import ExperimentScale

    with open(ROOT / "BENCH_fig9.json", encoding="utf-8") as fh:
        expected = next(b["extra_info"]["figure"]
                        for b in json.load(fh)["benchmarks"]
                        if b["name"] == "test_fig9_speedup")
    runner.configure(jobs=1)
    try:
        got = fig9_speedup.render(fig9_speedup.run(ExperimentScale.TINY))
    except Exception as exc:  # a failing check counts toward error_rate
        return [f"fig9 tiny: {exc!r}"]
    if got != expected:
        return [f"fig9 tiny: table differs from BENCH_fig9.json:\n{got}"]
    return []


def check_runs(passes, references, fastcore: bool) -> list[str]:
    """One line per failed run: error, unfinished coflows, wrong digest,
    or measured without the compiled core."""
    problems = []
    for index, one in enumerate(passes):
        for run in one.runs:
            problem = run.problem(references.get(run.run_id))
            if problem is None and not fastcore:
                problem = "compiled core not active"
            if problem is not None:
                problems.append(f"pass {index} {run.run_id}: {problem}")
    return problems


def end_to_end(passes, setup, suite,
               scaled: bool = True) -> dict[str, tuple[float, str]]:
    """Medians over passes; ``scaled`` takes every host time to the
    reference speed (see calib.py) with its own run's factor."""
    med = statistics.median

    def host(run, value):
        return value * run.scale if scaled else value

    metrics = {}
    if setup:
        metrics["setup_s"] = (med(x if scaled else raw
                                  for x, raw in setup), "s")
    metrics["coflows_per_s"] = (med(
        p.coflows / sum(host(r, r.sim_s) for r in p.runs)
        for p in passes), "1/s")
    for policy in suite.POLICIES:
        metrics[f"sim_s.{policy}"] = (med(
            sum(host(r, r.sim_s) for r in p.runs if r.policy == policy)
            for p in passes), "s")
    for name in ("snapshot_ms", "restore_ms"):
        # Per pass, the median over its snapshot points and repeats.
        metrics[name] = (med(
            med(ms * scale if scaled else ms
                for r in p.runs for ms, scale in getattr(r, name))
            for p in passes), "ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def layer_unit(name: str) -> str:
    if "_us_" in name:
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return {"epoch.churn_mean": "rows"}.get(name, "count")


def per_layer(untraced, traced, suite, spans) -> dict[str, tuple]:
    values = spans.median_metrics(
        [t.layer_metrics(suite.POLICIES) for t, _ in traced])
    metrics = {name: (value, layer_unit(name))
               for name, value in values.items()}
    overhead = (statistics.median(p.scaled_sim_s for _, p in traced)
                / statistics.median(p.scaled_sim_s for p in untraced))
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not BUILD.is_file():
        print("perfbench: run from a full checkout (src/ and tools/ are "
              "missing)", file=sys.stderr)
        return 2
    build_fastcore()
    sys.path.insert(0, str(SRC))
    import repro._fastcore as fastcore
    import calib
    import spans
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args, suite)

    setup, problems = ([], []) if args.trace else setup_seconds(args, calib)
    host = host_identity(fastcore.AVAILABLE)
    workload = suite.build(args.workload, args.seed, args.size)
    warmup = workload.run_pass(verify=True)
    untraced, traced = [], []
    start = time.perf_counter()
    # Closed loop until --seconds: no round starts that would not finish
    # in time by the mean round so far (at least one round runs).
    while True:
        untraced.append(workload.run_pass())
        if args.trace:
            tracer = spans.Tracer()
            traced.append((tracer, workload.run_pass(tracer)))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break

    references = reference_digests(args, suite) or {
        r.run_id: suite.digest(r.pairs) for r in warmup.runs}
    every = [warmup, *untraced, *(p for _, p in traced)]
    problems += check_runs(every, references, host["fastcore"])
    # Set-up probes and the Fig. 9 table check count as runs too.
    attempted = (0 if args.trace else SETUP_PROBES) + sum(
        len(p.runs) for p in every)
    if args.workload == "fig9-bigswitch":
        if not any(r.problem(None) for r in warmup.runs):
            report_vs_paper(warmup.runs)
        if args.seed == suite.DEFAULT_SEED and args.size == "full":
            attempted += 1
            problems += check_fig9_figure()

    raw = {}
    if args.trace:
        metrics = per_layer(untraced, traced, suite, spans)
    else:
        metrics = end_to_end(untraced, setup, suite)
        raw = end_to_end(untraced, setup, suite, scaled=False)

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(untraced)}+{len(traced)} traced")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, (value, unit) in metrics.items():
        line = f"  {name:<36} {value:>14.6g} {unit}"
        if name in raw and raw[name] != (value, unit):
            line += f"  (unscaled {raw[name][0]:.6g})"
        print(line)
    print(f"  {'error_rate':<36} {len(problems) / attempted:>14.6g} "
          f"({len(problems)} of {attempted} runs failed)")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "host": host, "setup_s_samples": setup,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "unscaled_metrics": {k: v for k, (v, _) in raw.items()},
        # Per timed pass and run: host seconds and its reference samples.
        "passes": [[[r.run_id, r.sim_s, *r.calib_s] for r in p.runs]
                   for p in untraced],
        "digests": {r.run_id: suite.digest(r.pairs) for r in warmup.runs},
        "problems": problems,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if traced:
        spans.write(OUT / f"{stem}.spans.jsonl", [t for t, _ in traced],
                    {"workload": args.workload, "seed": args.seed,
                     **host})

    correct = not problems and host["fastcore"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def record_digests(args, suite) -> int:
    """Store one pass's CCT digests as the default-seed reference."""
    if args.seed != suite.DEFAULT_SEED or args.size != "full":
        print("perfbench: digests are recorded at the default seed and "
              "full size only", file=sys.stderr)
        return 2
    one = suite.build(args.workload, args.seed).run_pass(verify=True)
    bad = [r.run_id for r in one.runs if r.problem(None)]
    if bad:
        print(f"perfbench: runs failed, nothing recorded: {bad}",
              file=sys.stderr)
        return 1
    table = {}
    if DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[args.workload] = {r.run_id: suite.digest(r.pairs)
                            for r in one.runs}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(one.runs)} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
