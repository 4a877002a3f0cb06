"""Benchmark for the trihex CLI: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the repository root:

  python3 perfbench/run.py --workload count-table --seed 3 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all            # every workload, one table
  python3 perfbench/run.py --workload all --trace 1  # top spans and the layer-share check
  python3 perfbench/run.py --steadiness 5 --workload verify-enum
  python3 perfbench/run.py --record-digests 30       # rewrite perfbench/digests.json

A run is a closed loop of fresh single-threaded Python processes
(child.py), one after another, each importing trihex.cli and calling
cli.main once per command of the workload.  It first starts a few processes
that only import, for the set-up time, then repeats the workload's batch
until --seconds is used up.  Every time is scaled by the yardstick measured
around it (yardstick.py), and the run reports the median over its batches.
With --trace 1 it alternates untraced and traced batches and reports
per-layer metrics instead.  The last line of stdout is the result JSON; the
line before it has the inputs, environment and per-batch samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS
import yardstick
from yardstick import NOMINAL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

SETUP_SAMPLES = 8  # import-only processes per run, after one unmeasured warm-up
SETUP_PLAN = {"commands": []}
MIN_BATCHES = 3
CHILD_TIMEOUT_S = 120
LAYER_GROUPS = {
    "numtheory": ("numtheory",),
    "signature+enumeration": ("signature", "enumeration"),
    "graph": ("graph",),
    "counting+cli": ("counting", "cli"),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    # Users run with a bytecode cache in the source tree; the warm-up process writes it.
    for name in ("TRIHEX_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(plan: dict) -> dict:
    """Run one fresh child process on `plan` and return its result, with setup_s added."""
    # the set-up's yardstick: the python part here, before the spawn, and in the child after its import
    before = yardstick.measure(["python"])["python"]
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(json.dumps(plan).encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: child process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child process exited with {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["setup_ref_s"] = (before[0] + result["setup_ref_s"]) / 2
    result["setup_ref_cpu_s"] = (before[1] + result["setup_ref_cpu_s"]) / 2
    result["wall_s"] = result["setup_s"] + result["command_s"]
    scaled(result)
    return result


def scaled(result: dict) -> None:
    """Add the batch's times scaled to the yardstick's nominal speed (see yardstick.py)."""
    py = NOMINAL["python"]
    commands = result["commands"]
    result["scaled"] = {
        "setup_s": result["setup_s"] * py / result["setup_ref_s"],
        "command_s": sum(c["s"] * NOMINAL[c["yardstick"]] / c["ref_s"] for c in commands),
        "cpu_s": result["setup_cpu_s"] * py / result["setup_ref_cpu_s"]
        + sum(c["cpu_s"] * NOMINAL[c["yardstick"]] / c["ref_cpu_s"] for c in commands),
    }
    result["scaled"]["wall_s"] = result["scaled"]["setup_s"] + result["scaled"]["command_s"]


def environment(numpy_version: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "platform": platform.platform(),
    }


def check_batch(batch: dict, expected_digest: str | None) -> tuple[int, list[str]]:
    """Failed commands and problems of one batch; a digest unlike the record fails every command."""
    problems = [f"{' '.join(c['argv'])}: {p}" for c in batch["commands"] for p in c["problems"]]
    failed = sum(1 for c in batch["commands"] if c["problems"])
    if expected_digest and batch["digest"] != expected_digest:
        problems.append(f"stdout digest {batch['digest'][:16]} != recorded {expected_digest[:16]}")
        failed = len(batch["commands"])
    return failed, problems


def batch_metrics(batch: dict, plan: dict) -> dict:
    """End-to-end metrics of one batch; times are scaled to the yardstick."""
    return {
        "items_per_s": plan["items"] / batch["scaled"]["command_s"],
        "wall_s": batch["scaled"]["wall_s"],
        "cpu_s": batch["scaled"]["cpu_s"],
        "peak_rss_mib": batch["peak_rss_mib"],
    }


def tail(values: list[float]) -> float:
    """The value with ten samples above it (the largest when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(batch: dict, plan: dict) -> dict:
    trace = batch["trace"]
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    hits, misses = trace["factorize_cache"]
    items = trace["verify_item_ms"]
    return {
        "numtheory.factorize.calls": calls("numtheory.factorize"),
        "numtheory.factorize.self_s": self_s("numtheory.factorize"),
        "numtheory.factorize.hit_ratio": ratio(hits, hits + misses),
        "numtheory.solve_fast.self_s": self_s("numtheory.solve_fast"),
        "numtheory.solve_naive.self_s": self_s("numtheory.solve_naive"),
        "numtheory.solve.peak_mib": trace["solve_peak_mib"],
        "counting.report.calls": calls("counting.report"),
        "counting.report.self_s": self_s("counting.report"),
        "signature.orbit.calls": calls("signature.orbit"),
        "signature.orbit.self_s": self_s("signature.orbit"),
        "signature.canonical_rep.self_s": self_s("signature.canonical_rep"),
        "signature.orbit.per_sig": ratio(calls("signature.orbit"), plan["signatures"]),
        "enumeration.verify.self_s": self_s("enumeration.verify"),
        "enumeration.verify.item_p50_ms": statistics.median(items) if items else 0.0,
        "enumeration.verify.item_tail_ms": tail(items) if items else 0.0,
        "graph.build.calls": calls("graph.build"),
        "graph.build.self_s": self_s("graph.build"),
        "graph.faces.self_s": self_s("graph.faces"),
        "graph.canonical_code.calls": calls("graph.canonical_code"),
        "graph.canonical_code.self_s": self_s("graph.canonical_code"),
        "graph.is_chiral.self_s": self_s("graph.is_chiral"),
        "graph.build.per_rep": ratio(calls("graph.build"), plan["reps"]),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": batch["output_bytes"],
    }


def layer_shares(spans: dict) -> dict:
    """Share of self time per layer; the benchmark's own sink spans are left out."""
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, entry in spans.items():
        layer = name.split(".", 1)[0]
        if layer in per_layer:
            per_layer[layer] += entry["self_s"]
    total = sum(per_layer.values())
    return {layer: ratio(value, total) for layer, value in per_layer.items()}


def median_of(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up samples, then batches until `seconds` have passed."""
    start = time.monotonic()
    plan = workloads.make_plan(workload, seed)
    expected = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed)) if DIGESTS.exists() else None
    spawn(SETUP_PLAN)  # writes the bytecode cache and warms the file cache; not measured
    setup_only = [spawn(SETUP_PLAN) for _ in range(SETUP_SAMPLES)]

    plain, traced, durations = [], [], []
    while True:
        began = time.monotonic()
        if trace and len(traced) < len(plain):
            traced.append(spawn({**plan, "trace": True}))
        else:
            plain.append(spawn(plan))
        durations.append(time.monotonic() - began)
        # stop before a batch that would end past the deadline
        if len(durations) >= MIN_BATCHES and time.monotonic() - start + statistics.mean(durations) > seconds:
            break
    setups = [b["scaled"]["setup_s"] for b in setup_only + plain + traced]

    problems, failed, digests = [], 0, set()
    for batch in plain + traced:
        batch_failed, batch_problems = check_batch(batch, expected)
        failed += batch_failed
        problems.extend(batch_problems)
        digests.add(batch["digest"])
    if len(digests) > 1:
        problems.append(f"stdout differs between batches: {len(digests)} digests")
        failed = max(failed, len(plan["commands"]))
    attempted = len(plan["commands"]) * len(plain + traced)

    rows = [batch_metrics(b, plan) for b in plain]
    samples = {"setup_s": setups, **{key: [row[key] for row in rows] for key in rows[0]}}
    e2e = {key: statistics.median(values) for key, values in samples.items()}
    raw = {
        "setup_s": [b["setup_s"] for b in setup_only + plain + traced],
        "command_s": [b["command_s"] for b in plain],
        "cpu_s": [b["cpu_s"] for b in plain],
    }
    report = {
        "workload": workload,
        "seed": seed,
        "inputs": plan["inputs"],
        "argv": [c["argv"] for c in plan["commands"]],
        "item": plan["item"],
        "items": plan["items"],
        "digest": plain[0]["digest"],
        "digest_recorded": expected is not None,
        "environment": environment(plain[0]["numpy"]),
        "batches": len(plain),
        "setup_samples": len(setups),
        "end_to_end": e2e,
        "unscaled_medians": {key: statistics.median(values) for key, values in raw.items()},
        "yardstick_slowdown": statistics.median(
            c["ref_s"] / NOMINAL[c["yardstick"]] for b in plain for c in b["commands"]
        ),
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "samples": samples,
        "unscaled_samples": raw,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        per_batch = [layer_metrics(b, plan) for b in traced]
        report["per_layer"] = median_of(per_batch)
        report["per_layer"]["trace_overhead_ratio"] = statistics.median(
            b["scaled"]["wall_s"] for b in traced
        ) / statistics.median(b["scaled"]["wall_s"] for b in plain)
        report["traced_batches"] = len(traced)
        spans = traced[-1]["trace"]["spans"]
        report["layer_shares"] = layer_shares(spans)
        report["top_spans"] = sorted(
            ([name, entry["calls"], entry["self_s"]] for name, entry in spans.items()),
            key=lambda row: -row[2],
        )
    return report


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["per_layer"] if trace else report["end_to_end"]
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def print_trace_summary(reports: list[dict]) -> bool:
    """Top self-time spans per layer, then the layer-share design check; True when it passes."""
    for report in reports:
        print(f"\n{report['workload']} (seed {report['seed']}): self time by layer")
        total = sum(row[2] for row in report["top_spans"] if not row[0].startswith("bench."))
        for layer, share in sorted(report["layer_shares"].items(), key=lambda kv: -kv[1]):
            top = [row for row in report["top_spans"] if row[0].split(".", 1)[0] == layer][:3]
            spans = ", ".join(f"{name} {100 * s / total:.1f}% ({calls} calls)" for name, calls, s in top)
            print(f"  {layer:<12} {100 * share:5.1f}%  {spans}")
    print("\nlayer-share check (one workload > 50% of self time, another < 5%):")
    passed = True
    for group, layers in LAYER_GROUPS.items():
        shares = {r["workload"]: sum(r["layer_shares"][layer] for layer in layers) for r in reports}
        high = max(shares, key=shares.get)
        low = min(shares, key=shares.get)
        ok = shares[high] > 0.5 and shares[low] < 0.05
        passed &= ok
        print(
            f"  {group:<22} {'ok ' if ok else 'FAIL'} max {100 * shares[high]:.1f}% on {high}, "
            f"min {100 * shares[low]:.1f}% on {low}"
        )
    return passed


def run_all(spec: dict, seed: int, seconds: float, trace: bool) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reports = []
    for w in spec["workloads"]:
        report = measure(w["name"], seed, seconds, trace)
        reports.append(report)
        print(f"\n{w['name']} (seed {seed}, {report['batches']} batches, {report['setup_samples']} set-ups)")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<16} {report['end_to_end'][m['name']]:12.4f} {m['unit']}")
        print(f"  {'failed_ratio':<16} {report['failed_ratio']:12.4f} ratio")
        for problem in report["problems"]:
            print(f"  problem: {problem}")
        if trace:
            for name, value in report["per_layer"].items():
                print(f"  {name:<32} {value:14.6f} {units[name]}")
    ok = all(r["failed"] == 0 and not r["problems"] for r in reports)
    if trace:
        ok &= print_trace_summary(reports)
    return 0 if ok else 1


def steadiness(spec: dict, names: list[str], seed: int, runs: int, seconds: float) -> int:
    """Run each workload `runs` times with seeds seed, seed+1, ... and print spreads against the bounds."""
    flagged = 0
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(runs):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed + i)]
            cmd += ["--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed + i}: incorrect, {result['failed']} of {result['attempted']} failed")
                flagged += 1
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        print(f"\n{name}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  OVER BOUND"
                flagged += 1
            elif spread > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(
                f"  {m['name']:<14} median {med:12.4f} {m['unit']:<6} q1 {q1:12.4f} q3 {q3:12.4f} "
                f"spread {spread:.4f} (bound {m['bound']}){flag}"
            )
    return 1 if flagged else 0


def record_digests(spec: dict, seeds: int) -> int:
    """Write the stdout digest of every workload at seeds 0..seeds-1 to digests.json."""
    record = {}
    for w in spec["workloads"]:
        record[w["name"]] = {}
        for seed in range(seeds):
            plan = workloads.make_plan(w["name"], seed)
            batch = spawn(plan)
            _, problems = check_batch(batch, None)
            if problems:
                print(f"{w['name']} seed {seed}: {problems}", file=sys.stderr)
                return 1
            record[w["name"]][str(seed)] = batch["digest"]
            print(f"{w['name']} seed {seed}: {batch['digest']}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", help="runs per workload; prints spreads")
    parser.add_argument("--record-digests", type=int, metavar="SEEDS", help="record digests for seeds 0..SEEDS-1")
    args = parser.parse_args(argv)
    if not (SRC / "trihex" / "cli.py").is_file():
        print(f"perfbench: no trihex source under {SRC}", file=sys.stderr)
        return 2

    if args.record_digests:
        return record_digests(spec, args.record_digests)
    if args.steadiness:
        chosen = names if args.workload == "all" else [args.workload]
        return steadiness(spec, chosen, args.seed, args.steadiness, args.seconds)
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace))

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": report}))
    print(json.dumps(result_line(report, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
