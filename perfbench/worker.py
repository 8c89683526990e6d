"""One round of one workload, in a fresh process.

Started by run.py, which passes the time it started this process.  The round
imports the program, builds the seeded inputs and their references, then runs
the workload's fixed list of operations one after another, timing each call
into the program and checking its output after the clock stops.  It prints
one JSON line: the set-up time, each operation's name, seconds and status,
the peak resident memory, the times of the calibration kernel, and with
--trace 1 the per-layer calls and self times.

The calibration kernel gauges the speed of the processor the round runs on.
On the shared host this benchmark was built on, each processor switches
between a fast and a slow state (about 1.8 times slower) many times a
second, and the share of slow time drifts over minutes, so the same round
takes up to twice as long in one process as in the next, with CPU time equal
to wall time.  The kernel is a fixed piece of Fraction series and polynomial
products keyed by exponent tuples, the kind of work the program does, and it
calls nothing of the program, so a change to the program does not move it.
A timer signal runs it every CALIBRATION_INTERVAL_S, during the operations
too; its time is taken out of the operation it interrupted.  run.py scales
each operation by the samples taken around it.
"""
from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

CALIBRATION_INTERVAL_S = 0.015
SETUP_CALIBRATION_SAMPLES = 50  # in a process that stops after set-up, back to back


def calibration_kernel():
    a = [Fraction(n + 1, 2 * n + 3) for n in range(12)]
    conv = [Fraction(0)] * 12
    for i, x in enumerate(a):
        for j in range(12 - i):
            conv[i + j] += x * a[j]
    p = {(i, j): Fraction(i - j, i + j + 1) for i in range(3) for j in range(4)}
    prod = {}
    for e, c in p.items():
        for f, d in p.items():
            k = (e[0] + f[0], e[1] + f[1])
            prod[k] = prod.get(k, 0) + c * d
    return conv, prod


class Gauge:
    """Samples of the calibration kernel: (perf_counter at start, seconds)."""

    def __init__(self):
        self.samples = []

    def sample(self, signum=None, frame=None):
        """Time one run of the kernel, with the cyclic collector off, so that
        its time does not depend on how many objects the program keeps alive."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append((start, time.perf_counter() - start))
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, start, end):
        """Seconds of the samples taken between start and end."""
        return sum(s for at, s in self.samples if start <= at < end)


def peak_rss_mb():
    """Peak resident memory of this process, from VmHWM.

    Not ru_maxrss: on Linux a process started by fork and exec inherits its
    parent's peak there, so a round's figure would depend on run.py's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(args):
    import qzeta.cli  # noqa: F401  (loads every module of the program)
    import workloads
    from tracer import Tracer

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    gauge = Gauge()
    if args.setup_only:
        for _ in range(SETUP_CALIBRATION_SAMPLES):
            gauge.sample()
        return {"setup_s": setup_s, "cal_s": [s for _, s in gauge.samples]}

    results, spans, wrong = [], [], []
    origin = time.perf_counter()
    gauge.start()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the program failed this request; record and go on
            end = time.perf_counter()
            verdict = ("failed", f"{op.name}: {type(exc).__name__}: {str(exc)[:200]}")
        else:
            end = time.perf_counter()
            verdict = op.check(out)
            del out  # hold no output across the next operation's peak memory
        status = "ok" if verdict is None else verdict[0]
        if verdict is not None:
            wrong.append(verdict[1])
        results.append([op.name, end - start, status])
        spans.append((start - origin, end - origin))
    gauge.stop()
    for r, (start, end) in zip(results, spans):
        r[1] -= gauge.within(start + origin, end + origin)

    payload = {
        "setup_s": setup_s,
        "wall_s": sum(r[1] for r in results),
        "peak_rss_mb": peak_rss_mb(),
        "ops": results,
        "op_at_s": spans,
        "cal_s": [s for _, s in gauge.samples],
        "cal_at_s": [at - origin for at, _ in gauge.samples],
        "problems": wrong,
    }
    if tracer:
        payload["layers"] = tracer.layer_metrics()
        if args.spans:
            write_spans(tracer, ops, args.spans)
    return payload


def write_spans(tracer, ops, path):
    """Spans as JSON lines, times in seconds from the first span's start."""
    origin = min((s[2] for s in tracer.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, op, own in tracer.spans:
            fh.write(json.dumps({
                "id": span_id, "name": name, "start": round(start - origin, 7),
                "end": round(end - origin, 7), "parent": parent, "op": op,
                "op_name": ops[op].name if op is not None else None,
                "self_s": round(own, 7)}) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file for the spans of a traced round")
    args = p.parse_args(argv)
    print(json.dumps(run_round(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
