"""Benchmark of the qzeta toolkit: three workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload surface_twopoint --seed 3
    python3 perfbench/run.py --workload qseries_session --trace 1
    python3 perfbench/run.py --workload equivariant_twopoint --steady 10

One caller runs one round at a time (a closed loop): each round is a fresh
process (worker.py) that runs the workload's fixed list of operations once and
checks every output.  Rounds repeat until the next one would overrun
--seconds (default: run_seconds in BENCHMARK.json); at least one round always
runs.  A few extra processes stop after set-up, so that set-up time is a
median even when a round is long.

With --trace 0 the end-to-end metrics are printed: wall_s (median time of a
round's operations), op_p50_ms (median time of one operation, over all
rounds), setup_s (median time from process start to the end of set-up) and
peak_rss_mb (median peak resident memory of a round's process).  The three
times are given at the host's reference speed: each operation's time is
multiplied by REFERENCE_S over the mean of the calibration samples taken
around it (see worker.py and scaled_ops).  The raw times are printed too and
kept in the result file.  With --trace 1, untraced and traced rounds
alternate, and the per-layer calls and self times of the traced rounds are
printed, with trace.overhead_s, the median over pairs of rounds of the
traced minus the untraced wall_s.  --steady N runs the workload N times with
seeds seed .. seed+N-1 and prints the median and quartiles of each metric.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full results and the spans of the first
traced round are written under .perfbench-out/ at the root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
# About the time of worker.calibration_kernel on the reference host (2 vCPUs,
# Intel Xeon 2.0 GHz, Python 3.11.7) in its fast state, so that scaled times
# read as seconds there.
REFERENCE_S = 0.00075
OP_WINDOW_S = 0.1  # seconds before and after an operation whose samples scale it
TIME_LIMIT_S = 170  # per workload, so that a one-workload run ends within 180 s


def load_spec():
    """BENCHMARK.json: the run length and the metrics, with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, trace, deadline, setup_only=False, spans=None):
    """Run one worker process to its end and return its JSON payload."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--spawned", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def speed(payload):
    """The factor that brings a process's times to the reference speed."""
    return REFERENCE_S / statistics.fmean(payload["cal_s"])


def scaled_ops(payload):
    """Each operation's seconds at the reference speed.

    An operation is scaled by the calibration samples taken during it and
    within OP_WINDOW_S before and after it, since the host's speed changes
    within a round.
    """
    cal = list(zip(payload["cal_at_s"], payload["cal_s"]))
    out = []
    for (_, seconds, _), (start, end) in zip(payload["ops"], payload["op_at_s"]):
        near = [c for at, c in cal if start - OP_WINDOW_S <= at <= end + OP_WINDOW_S]
        out.append(seconds * REFERENCE_S / statistics.fmean(near or payload["cal_s"]))
    return out


def measure(spec, workload, seed, seconds, trace, deadline):
    """Run rounds of one workload and aggregate them into one result."""
    OUT_DIR.mkdir(exist_ok=True)
    probes = [spawn(workload, seed, 0, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(spawn(workload, seed, 0, deadline))
        if trace:
            spans = None if traced else OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
            traced.append(spawn(workload, seed, 1, deadline, spans=spans))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    probes += plain
    setups = [r["setup_s"] * speed(r) for r in probes]

    rounds = plain + traced
    for r in rounds:
        r["scaled_ops_s"] = scaled_ops(r)
    statuses = [status for r in rounds for _, _, status in r["ops"]]
    op_seconds = [s for r in plain for s in r["scaled_ops_s"]]
    result = {
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": statuses.count("failed"),
    }
    if trace:
        metrics = {}
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                value = statistics.median(sum(t["scaled_ops_s"]) - sum(u["scaled_ops_s"])
                                          for u, t in zip(plain, traced))
            elif unit == "count":
                value = statistics.median_low(r["layers"][name] for r in traced)
            else:
                value = statistics.median(r["layers"][name] * speed(r) for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        counts = [{n: v for n, v in r["layers"].items() if n.endswith(".calls")}
                  for r in traced]
        repeat = all(c == counts[0] for c in counts)
    else:
        values = {
            "wall_s": statistics.median(sum(r["scaled_ops_s"]) for r in plain),
            "op_p50_ms": statistics.median(op_seconds) * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result["metrics"] = metrics

    by_class = {}
    for r in plain:
        for (name, _, _), s in zip(r["ops"], r["scaled_ops_s"]):
            by_class.setdefault(name.split(":")[0], []).append(s)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(plain), "traced_rounds": len(traced),
        "round_wall_s": [r["wall_s"] for r in plain],
        "traced_round_wall_s": [r["wall_s"] for r in traced],
        "setup_samples_s": setups,
        "raw_wall_s": statistics.median(r["wall_s"] for r in plain),
        "raw_op_p50_ms": statistics.median(s for r in plain for _, s, _ in r["ops"]) * 1000,
        "raw_setup_s": statistics.median(r["setup_s"] for r in probes),
        "calibration_ms": [statistics.fmean(r["cal_s"]) * 1000 for r in probes],
        "ops_per_round": len(plain[0]["ops"]),
        "op_p90_ms": percentile(op_seconds, 90) * 1000,
        "op_p99_ms": percentile(op_seconds, 99) * 1000,
        "class_median_ms": {k: statistics.median(v) * 1000 for k, v in sorted(by_class.items())},
        "class_count_per_round": {k: len(v) // len(plain) for k, v in sorted(by_class.items())},
        "failed_ops": sorted({name for r in rounds for name, _, st in r["ops"]
                              if st == "failed"}),
        "problems": sorted({p for r in rounds for p in r["problems"]}),
    }
    if trace:
        details["trace_counts_repeat"] = repeat
    result["details"] = details
    out = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def report(result, out=sys.stdout):
    d = result["details"]
    print(f"== {d['workload']} (seed {d['seed']}, {d['rounds']} rounds"
          + (f" + {d['traced_rounds']} traced" if d["trace"] else "")
          + f", {d['ops_per_round']} operations per round)", file=out)
    for name, m in result["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6f}"
        print(f"  {name:36s} {value:>16} {m['unit']}", file=out)
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}", file=out)
    if not d["trace"]:
        print(f"  raw (unscaled): wall_s {d['raw_wall_s']:.6f} s  "
              f"op_p50_ms {d['raw_op_p50_ms']:.6f} ms  setup_s {d['raw_setup_s']:.6f} s  "
              f"calibration mean {statistics.median(d['calibration_ms']):.3f} ms "
              f"(reference {REFERENCE_S * 1000:.3f} ms)", file=out)
        print(f"  op p90 {d['op_p90_ms']:.3f} ms  op p99 {d['op_p99_ms']:.3f} ms", file=out)
        for k, v in d["class_median_ms"].items():
            print(f"    {k:20s} x{d['class_count_per_round'][k]:<4d} median {v:10.3f} ms",
                  file=out)
    for name in d["failed_ops"]:
        print(f"  failed: {name}", file=out)
    for p in d["problems"]:
        print(f"  problem: {p}", file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steady(spec, workload, seed, seconds, runs, trace):
    """Run one workload `runs` times with successive seeds; print quartiles."""
    results = []
    for i in range(runs):
        res = measure(spec, workload, seed + i, seconds, trace,
                      time.monotonic() + TIME_LIMIT_S)
        results.append(res)
        report(res)
        print(f"  failed share {res['failed']}/{res['attempted']}", flush=True)
    print(f"== steadiness of {workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"  {name:36s} median {med:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
              f"(q3-q1)/median {spread:.4f}")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print(f"  failed/attempted per run: {shares}")
    print(json.dumps({"workload": workload, "runs": runs, "steadiness": summary}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="length of one run; default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run the workload N times with successive seeds")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qzeta" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'qzeta'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.steady:
            if args.workload == "all":
                p.error("--steady needs one --workload")
            steady(spec, args.workload, args.seed, seconds, args.steady, args.trace)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = measure(spec, name, args.seed, seconds, args.trace, deadline)
            report(results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (res,) = results.values()
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
