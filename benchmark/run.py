"""Benchmark of unitgraphs: timed cold passes over one workload.

Run from the repository root (the program is imported from ``src/``):

    python3 benchmark/run.py --workload catalog --seed 1 --seconds 15 --trace 0

One process runs every pass.  A pass runs each operation of the workload
once, under that operation's time limit, after every cache of the
program was cleared, and checks each output against facts.py and
checks.py.  Passes repeat until ``--seconds`` have elapsed; at least one
always runs.  Times are reported at a reference host speed, measured by
timing a fixed kernel before every operation.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` one more pass runs with
the per-layer tracer installed and the line carries the per-layer
metrics.  Diagnostics go to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

SETUP_REPEATS = 5
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
GLIBC_START_MMAP_THRESHOLD = 128 * 1024
REFERENCE_RUNS = 25  # warm reference timings before every op
REFERENCE_S = 0.0006  # the reference kernel's median time on the README's host


class OpTimeout(BaseException):
    """Raised from SIGALRM when an operation reaches its time limit.  A
    BaseException, so that no ``except Exception`` in the program
    swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


_REF_ROWS = [((1 << 2048) - 1) // (k + 3) for k in range(24)]
_REF_INDEX = np.arange(4096) * 7 % 4096


def reference_kernel() -> int:
    """A fixed computation of the benchmark's own, in the program's mix
    of interpreted integer loops, big-int bit operations and NumPy
    gathers."""
    acc = 0
    for x in range(1500):
        acc = (acc * 31 + x) % 65521
    bits = 0
    for a in _REF_ROWS:
        for b in _REF_ROWS[:12]:
            bits += (a & ~(b // 5)).bit_count()
    v = _REF_INDEX
    for _ in range(12):
        v = v[_REF_INDEX]
    return acc + bits + int(v[0])


def time_reference(runs: int = REFERENCE_RUNS) -> list[float]:
    """Warm timings of the reference kernel.  Each timed run follows an
    untimed one that brings the kernel back into the caches, so that
    what the program left in memory does not change the timing; what is
    left is the speed of the host at that moment."""
    out = []
    for _ in range(runs):
        reference_kernel()
        start = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - start)
    return out


def host_scale(timings: list[float]) -> float:
    """Factor that turns seconds measured now into seconds on a host on
    which the reference kernel takes REFERENCE_S."""
    return REFERENCE_S / statistics.median(timings)


@dataclass
class PassResult:
    ok_s: float = 0.0  # measured times of the ops that did not fail
    charged_s: float = 0.0  # the full limit of each op that failed
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # outputs that ran to the end and were wrong
    decided: int = 0
    classified: int = 0
    errors: list[str] = field(default_factory=list)
    deferred: list = field(default_factory=list)  # checks for run_deferred
    reference: list[float] = field(default_factory=list)  # time_reference()

    @property
    def raw_s(self) -> float:
        return self.ok_s + self.charged_s

    def pass_s(self, scale: float) -> float:
        """Pass time at reference host speed; limits are not scaled."""
        return self.ok_s * scale + self.charged_s


def pin_allocator() -> None:
    """Hold glibc's mmap threshold at its start-up value.  Left dynamic,
    glibc raises it after a large free, and from then on the process
    reuses heap pages instead of mapping fresh ones: one op's large frees
    would speed up every later op (the GF(4096) graphs ran nearly twice
    as fast after GA(GF(2), C11) as before it), so op times would depend
    on the seeded order.  Pinned, every op allocates the way a freshly
    started process does before its first large free."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc: the order effect stays
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, GLIBC_START_MMAP_THRESHOLD)


def load(workload: str, seed: int):
    """Set-up: import the program and build the workload's inputs."""
    import workloads

    return workloads.WORKLOADS[workload](seed)


def program_caches() -> list:
    """Every lru_cache in the program, so that every op starts cold."""
    return [
        value
        for name, module in sys.modules.items()
        if name.partition(".")[0] == "unitgraphs"
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name
    ]


def run_op(op, caches, tracer, result: PassResult) -> None:
    """Run one op cold, check its output, and clear the program's caches
    again, so that no op's time or memory depends on the ops before it."""
    from workloads import Outcome

    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    start = time.perf_counter()
    error = None
    try:
        if tracer is None:
            out = op.run()
        else:
            tracer.enabled = True
            with tracer.span("op"):
                out = op.run()
    except OpTimeout:
        error = f"{op.name}: stopped at its {op.limit_s} s limit"
    except Exception as exc:  # a failed op is counted, and the pass goes on
        error = f"{op.name}: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            tracer.close_open_spans()
    if error is None:
        try:
            outcome = op.check(out)
        except Exception as exc:
            outcome = Outcome(failed=op.entries, errors=[f"{op.name}: check raised {exc!r}"])
        result.wrong += outcome.failed
    else:
        outcome = Outcome(failed=op.entries, errors=[error])
    if tracer is not None:
        tracer.note_tables()
    clear(caches)
    if outcome.failed:
        result.charged_s += op.limit_s
    else:
        result.ok_s += elapsed
    print(f"  {op.name}: {elapsed:.3f} s{' (failed)' if outcome.failed else ''}",
          file=sys.stderr)
    result.attempted += op.entries
    result.failed += outcome.failed
    result.decided += outcome.decided
    result.classified += outcome.classified
    result.errors += outcome.errors
    if outcome.deferred is not None and not outcome.failed:
        result.deferred.append(outcome.deferred)


def run_pass(ops, caches, tracer=None) -> PassResult:
    result = PassResult()
    for op in ops:
        result.reference += time_reference()
        run_op(op, caches, tracer, result)
    result.reference += time_reference()
    return result


def clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def run_deferred(passes: list[PassResult]) -> None:
    """Checks too heavy to run between operations; a wrong output found
    here fails its operation in the pass that produced it."""
    for result in passes:
        for check in result.deferred:
            errors = check()
            if errors:
                result.failed += 1
                result.wrong += 1
                result.errors += errors


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until a pass could
    begin (interpreter start, importing the program, loading inputs),
    at reference host speed."""
    times, reference = [], time_reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        reference += time_reference()
    return statistics.median(times) * host_scale(reference)


def write_trace(tracer, layer_metrics, args) -> None:
    """Spans (name, start, end, parent index; seconds from the first
    span) and the per-layer metrics, to out/ beside this file."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(HERE, "out", f"trace_{args.workload}_{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "spans": [[n, round(a - t0, 6), round(b - t0, 6), p] for n, a, b, p in tracer.spans],
            "metrics": {k: v for k, (v, _) in layer_metrics.items()},
        }, fh)
    print(f"trace written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["catalog", "cap-ladder", "oracle"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "unitgraphs")):
        print(f"no program to measure: {SRC}/unitgraphs is missing", file=sys.stderr)
        return 2
    pin_allocator()
    ops = load(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    caches = program_caches()
    passes: list[PassResult] = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ops, caches))
        print(f"pass {len(passes)}: {passes[-1].raw_s:.3f} s measured", file=sys.stderr)
    scale = host_scale([t for p in passes for t in p.reference])
    pass_s = statistics.median(p.pass_s(scale) for p in passes)
    print(f"host speed scale {scale:.3f}: pass_s {pass_s:.3f} s", file=sys.stderr)

    layer_metrics = None
    if args.trace:
        from tracer import Tracer

        with Tracer() as tracer:
            traced = run_pass(ops, caches, tracer)
        passes.append(traced)
        layer_metrics = tracer.metrics()
        # measured, not scaled, like the spans they are compared with
        layer_metrics["trace.pass_s"] = (traced.raw_s, "s")
        layer_metrics["trace.overhead_s"] = (
            traced.raw_s - statistics.median(p.raw_s for p in passes[:-1]), "s")
        write_trace(tracer, layer_metrics, args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_deferred(passes)

    for message in dict.fromkeys(e for p in passes for e in p.errors):
        print(f"failed: {message}", file=sys.stderr)
    if layer_metrics is None:
        metrics = {
            "pass_s": (pass_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "verdicts_decided": (min(p.decided for p in passes), "count"),
            "rings_classified": (min(p.classified for p in passes), "count"),
        }
    else:
        metrics = layer_metrics
    print(json.dumps({
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
