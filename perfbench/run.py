#!/usr/bin/env python3
"""Build and run the layered weight-search benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark executable is built
from source with dune (cache disabled, so nothing is written outside
the checkout), then run once.  It prints a full report line (manifest,
input size, checks, every metric with its unit); this script echoes it
and then prints, as the last line, the result object with the metrics
BENCHMARK.json names for the mode: `end_to_end` for --trace 0,
`per_layer` for --trace 1.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
EXE = ROOT / "_build" / "default" / "perfbench" / "perfbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Every per-layer metric the traced run and the replay emit (names
# without the replay suffixes, which REPLAY_FIELDS adds).
LAYER_METRICS = [
    "dijkstra.runs", "dijkstra.bucket_pops", "spf_delta.updates",
    "spf_delta.rebuilds", "spf_delta.patches", "eval_ctx.probes",
    "eval_ctx.commits", "eval_ctx.fail_probes", "eval_ctx.syncs",
    "problem.full_evals", "problem.delta_evals", "scan.busy_s",
    "scan.candidates", "vmemo.hit_rate", "vmemo.lookups", "pool.busy_s",
    "pool.wait_s", "failure_sweep.sweeps", "search.iterations",
    "search.improvements", "search.accept_ratio", "search.iter_ms_p50",
    "search.iter_ms_p99", "search.ttq_s", "gc.minor_words", "gc.major_collections",
    "search.traced_s", "trace.overhead_ratio", "layer.spf_s",
    "layer.probe_s", "layer.full_eval_s", "layer.fail_s",
    "search.unattributed_s",
]
REPLAYED = [
    "dijkstra.distances_to_us", "spf.all_destinations_ms",
    "spf_delta.update_us", "eval_ctx.create_ms", "eval_ctx.probe_us",
    "objective.evaluate_ms", "problem.eval_delta_h_us",
    "problem.eval_delta_l_us", "scan.evaluate_ms", "ranking.arcs_us",
    "failure_sweep.sweep_ms", "eval_ctx.fail_probe_us",
]
REPLAY_FIELDS = ["count", "mean", "p50", "p99", "minor_words"]
E2E_METRICS = ["setup_s", "search_s", "ttq_s", "calib.probe_ms", "setup_ref_s",
               "search_ref_s", "ttq_ref_s", "obj_primary", "obj_secondary",
               "peak_rss_mb"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def environment():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # Keep git from looking above the checkout; without a repository
    # the manifest's revision is a digest of the sources instead.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if "DTR_GIT_REV" not in env and not (ROOT / ".git").exists():
        h = hashlib.sha256()
        for sub in ("lib", "bin", "perfbench"):
            base = ROOT / sub
            if not base.is_dir():
                continue
            for p in sorted(base.rglob("*")):
                if p.is_file() and p.suffix in (".ml", ".mli", ".py", ""):
                    h.update(str(p.relative_to(ROOT)).encode())
                    h.update(p.read_bytes())
        env["DTR_GIT_REV"] = "src-" + h.hexdigest()[:16]
    return env


def build(env):
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("run from the root of a dtr checkout (dune-project and lib/ missing)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not EXE.is_file():
        fail("build failed")


def run_exe(env, args):
    try:
        r = subprocess.run([str(EXE)] + args, cwd=ROOT, env=env,
                           capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"benchmark exited with code {r.returncode}")
    lines = [l for l in r.stdout.splitlines() if l.startswith('{"report"')]
    if not lines:
        fail("benchmark printed no report")
    return lines[-1], json.loads(lines[-1])


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def result(report, specs):
    metrics = {}
    for spec in specs:
        m = report["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} missing or not in {spec['unit']}")
        metrics[spec["name"]] = m
    checks = report["checks"]
    return {
        "correct": all(checks.values()) and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def self_test(env):
    """Run every workload at tiny caps in both modes; check that every
    named metric is emitted with a unit, that BENCHMARK.json's metrics
    are among them with the same units, and that every check passes."""
    spec = contract()
    expected = {
        0: set(E2E_METRICS),
        1: set(LAYER_METRICS)
           | {f"{n}.{f}" for n in REPLAYED for f in REPLAY_FIELDS},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, rep = run_exe(env, ["--workload", w["name"], "--seed", "1",
                                   "--seconds", "2", "--trace", str(trace),
                                   "--tiny"])
            where = f"{w['name']} --trace {trace}"
            missing = expected[trace] - set(rep["metrics"])
            if missing:
                problems.append(f"{where}: missing {sorted(missing)}")
            unitless = [n for n, m in rep["metrics"].items() if not m["unit"]]
            if unitless:
                problems.append(f"{where}: no unit for {unitless}")
            try:
                result(rep, spec["end_to_end" if trace == 0 else "per_layer"])
            except SystemExit:
                problems.append(f"{where}: BENCHMARK.json metric mismatch")
            bad = [n for n, ok in rep["checks"].items() if not ok]
            if bad or rep["failed"] != 0 or rep["attempted"] < 1:
                problems.append(f"{where}: failed checks {bad}")
            print(f"self-test {where}: {len(rep['metrics'])} metrics, "
                  f"{len(rep['checks'])} checks", file=sys.stderr)
    for p in problems:
        print(f"self-test FAIL {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    env = environment()
    build(env)
    if args.self_test:
        sys.exit(self_test(env))
    spec = contract()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    line, report = run_exe(env, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print(line)
    out = result(report, spec["end_to_end" if args.trace == 0 else "per_layer"])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
