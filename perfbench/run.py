#!/usr/bin/env python3
"""padicnorm benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured with tracing off; with
--trace 1 they are the per-layer ones, from traced runs of the same
operations plus two Fraction counting runs.  A summary (sample counts,
input and output digests, where the time went) goes to stderr.

A run builds a fixed list of operations from --seed and --seconds (whole
rounds, about --seconds of work on the reference box) and completes all
of it; the same arguments always give the same work.  Everything is
single-process and single-threaded in a closed loop.

Times are calibrated.  The host this was tuned on (2 vCPUs) runs in fast
and slow phases up to 2x apart that change within a second, with CPU
time equal to wall time; raw per-op times of repeated identical inputs
spread by 45 % (quartile distance over median) within one minute.  So:

* the run pins itself (and the processes it starts) to one CPU;
* a fixed loop owned by the benchmark is timed between every two
  operations, and each operation's time is scaled by the loop's
  reference time over the mean of the loop times on its two sides.
  Each workload uses the loop that slows most like its own work:
  interpreted Fraction arithmetic for compare and query (per-op spread
  of repeated compare ops 49 % raw, 10 % scaled), building a small
  argparse parser for cli-docs (31 % raw; 13 %, against 20 % with the
  Fraction loop), and stripping a prime from a big integer for
  far-points, whose C-level big-integer division barely slows (11 % raw;
  8 %, against 45 % with the Fraction loop);
* a process start (cold CLI start, setup) is scaled by FLOOR_REF_MS over
  a bare `python -c pass` started right after it, which tracked host
  phases far better than the Fraction loop (3-4 % against 13-22 %).

The metrics are therefore times at the reference box's fast-phase
speed.  Raw times go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_OPS = 100  # timed operations per run
WARMUP_OPS = 4
SETUP_SAMPLES = 3  # fresh processes timed for setup_s
COLD_SAMPLES = 10  # cold CLI starts, each beside a bare interpreter start
FLOOR_REF_MS = 50.0  # bare interpreter start on the reference box in a fast phase
COLD_ARGV = ["apartment", "--vector=0,1/2", "--prime", "2", "--format", "machine"]
COLD_OUT = '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}\n'
KERNEL_LAYERS = ("norms", "linalg", "valuation", "stabilizer", "building", "base_change", "splittings")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time setup in a fresh process)")
    return parser.parse_args(argv)


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- setup


def setup(name, seed, seconds, workdir: Path):
    """Import the package, generate and write the inputs, warm up."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    warm = wl.make_ops(wl.generate(random.Random(f"warm-up {seed}"), 1, _mkdir(workdir / "warm-up")))
    rounds = max(round(seconds / wl.round_seconds), -(-MIN_OPS // len(warm)), wl.count_rounds)
    specs = wl.generate(random.Random(seed), rounds, _mkdir(workdir / "inputs"))
    for op in warm[:WARMUP_OPS]:
        op.run()
    return wl, specs, rounds


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


_BIG = 3 ** 1500


def fraction_loop_ns() -> int:
    """Interpreted Fraction arithmetic, like most of the library."""
    t0 = time.perf_counter_ns()
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter_ns() - t0


def argparse_loop_ns() -> int:
    """Building and using a small argparse parser, like the CLI."""
    t0 = time.perf_counter_ns()
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="verb", required=True)
    for i in range(6):
        p = sub.add_parser(f"verb{i}")
        p.add_argument("file")
        p.add_argument("--level", type=int, default=0)
        p.add_argument("--format", choices=("text", "machine"), default="text")
    parser.parse_args(["verb3", "doc.json", "--level", "2", "--format", "machine"])
    return time.perf_counter_ns() - t0


def bigint_loop_ns() -> int:
    """Stripping a prime from a big integer, like `valuation.pval`."""
    t0 = time.perf_counter_ns()
    n = _BIG
    while n % 3 == 0:
        n //= 3
    return time.perf_counter_ns() - t0


# calibration loop and its time on the reference box in a fast phase
CALIBRATIONS = {
    "fraction": (fraction_loop_ns, 450_000),
    "argparse": (argparse_loop_ns, 850_000),
    "bigint": (bigint_loop_ns, 850_000),
}


def _floor_ns() -> int:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True, timeout=60)
    return time.perf_counter_ns() - t0


def start_samples():
    """Cold starts of `python -m padicnorm` on a cheap verb, each in
    milliseconds scaled by the bare interpreter start that follows it;
    the raw bare starts; and the number of wrong CLI outputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cold_ms, floor_ms, wrong = [], [], 0
    for _ in range(COLD_SAMPLES):
        t0 = time.perf_counter_ns()
        done = subprocess.run([sys.executable, "-m", "padicnorm", *COLD_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter_ns() - t0
        wrong += done.returncode != 0 or done.stdout != COLD_OUT
        floor = _floor_ns()
        cold_ms.append(elapsed / floor * FLOOR_REF_MS)
        floor_ms.append(floor / 1e6)
    return cold_ms, floor_ms, wrong


def setup_samples(args) -> list[float]:
    """Seconds from spawning a fresh process to its first timed op, each
    scaled by the bare interpreter start that follows it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter_ns()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter_ns() - t0
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup child failed with code {child.returncode}")
        out.append(elapsed / _floor_ns() * FLOOR_REF_MS / 1e3)
    return out


# ---------------------------------------------------------------- phases


def run_ops(ops, calibration=None):
    """The timed closed loop.  Returns per-op raw nanoseconds, the same
    scaled by the named calibration loop timed between every two ops
    (see the module docstring), and the results."""
    loop, ref_ns = CALIBRATIONS[calibration] if calibration else (lambda: 1, 1)
    raw, results = [], []
    gc.collect()
    cal = [loop()]
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            result = exc
        raw.append(time.perf_counter_ns() - t0)
        cal.append(loop())
        results.append(result)
    scaled = [t * 2 * ref_ns / (a + b) for t, a, b in zip(raw, cal, cal[1:])]
    return raw, scaled, results


def verify(ops, results):
    """Check every result outside the timed region; returns the failed
    op kinds and the canonical output of each op."""
    from inputs import dumps

    failed, outputs = [], []
    for op, result in zip(ops, results):
        try:
            ok = not isinstance(result, Exception) and bool(op.check(result))
        except Exception:
            ok = False
        if not ok:
            failed.append(op.kind)
        outputs.append(dumps(result))
    return failed, outputs


def counting_run(wl, specs):
    from tracing import count_fraction_calls

    ops = wl.make_ops(_prefix(specs, wl.count_rounds))
    counts, (_, _, results) = count_fraction_calls(lambda: run_ops(ops))
    failed, outputs = verify(ops, results)
    return counts, failed, outputs


def _prefix(specs, rounds):
    if isinstance(specs, dict):
        return dict(specs, rounds=specs["rounds"][:rounds])
    return specs[:rounds]


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# ----------------------------------------------------------------- modes


def end_to_end(args, wl, specs, rounds, inputs_digest):
    from inputs import digest

    ops = wl.make_ops(specs)
    raw, scaled, results = run_ops(ops, wl.calibration)
    failed, outputs = verify(ops, results)
    counts, count_failed, count_outputs = counting_run(wl, specs)
    consistent = count_outputs == outputs[: len(count_outputs)]
    cli_ms, floor_ms, cold_wrong = start_samples()
    setups = setup_samples(args)
    attempted = len(ops) + len(count_outputs) + len(cli_ms)
    failed += count_failed
    n_failed = len(failed) + cold_wrong
    ms = [t / 1e6 for t in scaled]
    log(f"{args.workload} seed {args.seed}: {len(ops)} ops in {rounds} rounds; inputs {inputs_digest} "
        f"outputs {digest(outputs)}{'' if consistent else ' NOT REPEATED by the counting run'}")
    log(f"  calibrated p50 {statistics.median(ms):.3f} ms, p90 {p90(ms):.3f} ms over {len(ms)} samples "
        f"(raw {statistics.median(raw) / 1e6:.3f} / {p90(raw) / 1e6:.3f}, wall {sum(raw) / 1e9:.2f} s); "
        f"cold start {statistics.median(cli_ms):.1f} ms scaled, bare interpreter {statistics.median(floor_ms):.1f} ms raw; "
        f"setups {[round(x, 3) for x in setups]} s")
    if n_failed:
        log(f"  FAILED: {sorted(set(failed))} plus {cold_wrong} cold starts")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90(ms), "ms"),
        "ok_ratio": ((attempted - n_failed) / attempted, "ratio"),
        "fraction_calls_per_op": (sum(counts.values()) / len(count_outputs), "calls/op"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_start_ms": (statistics.median(cli_ms), "ms"),
    }
    return consistent, attempted, n_failed, metrics


def per_layer(args, wl, specs, rounds, inputs_digest):
    from inputs import digest
    from tracing import Tracer

    plain_ops = wl.make_ops(specs)
    _, plain_scaled, plain_results = run_ops(plain_ops, wl.calibration)
    plain_failed, plain_outputs = verify(plain_ops, plain_results)
    tracer = Tracer()
    tracer.install()
    try:
        ops = wl.make_ops(specs)
        raw, scaled, results = run_ops(ops, wl.calibration)
    finally:
        tracer.uninstall()
    traced_failed, outputs = verify(ops, results)
    identical = outputs == plain_outputs
    counts1, cfail1, cout1 = counting_run(wl, specs)
    counts2, cfail2, cout2 = counting_run(wl, specs)
    repeatable = counts1 == counts2 and cout1 == cout2 == outputs[: len(cout1)]
    _, floor_ms, _ = start_samples()
    consistent = identical and repeatable

    t = tracer
    n = len(ops)
    scale = sum(scaled) / sum(raw)  # span times are calibrated like op times, run-wide
    ms = lambda ns: ns * scale / 1e6 / n
    per_op = lambda x: x / n
    group_ms = lambda layer, names: ms(sum(t.incl_ns(f"{layer}.{x}") for x in names))
    selfcheck_parents = ("norms.common_splitting_basis", "norms._split_subspace")
    selfcheck_total = sum(t.incl_ns(x) for x in selfcheck_parents)
    selfcheck_equals = sum(t.edge(x, "norms.equals")[1] for x in selfcheck_parents)
    io_parse = ("loads_document", "norm_from_doc", "lattice_from_doc", "pair_from_doc")
    io_emit = ("norm_to_doc", "lattice_to_doc", "pair_to_doc", "dumps_machine", "dumps_text")
    metrics = {
        "cli.build_parser.ms": (ms(t.incl_ns("cli.build_parser")), "ms/op"),
        "cli.main.self_ms": (ms(t.self_ns("cli.main")), "ms/op"),
        "io.parse.ms": (group_ms("io", io_parse), "ms/op"),
        "io.emit.ms": (group_ms("io", io_emit), "ms/op"),
        "io.emit.bytes": (per_op(t.emit_bytes), "bytes/op"),
        "norms.equals.calls": (per_op(t.calls("norms.equals")), "calls/op"),
        "norms.equals.ms": (ms(t.incl_ns("norms.equals")), "ms/op"),
        "norms.equals.self_ms": (ms(t.self_ns("norms.equals")), "ms/op"),
        "norms.equals.levels": (per_op(t.edge("norms.equals", "norms.ball_basis")[0] / 2), "levels/op"),
        "norms.equals.selfcheck_share": (selfcheck_equals / selfcheck_total if selfcheck_total else 0.0, "ratio"),
        "norms._monomialize.self_ms": (ms(t.self_ns("norms._monomialize")), "ms/op"),
        "norms.common_splitting_basis.self_ms": (ms(t.self_ns("norms.common_splitting_basis")), "ms/op"),
        "norms.restrict.ms": (ms(t.incl_ns("norms.restrict")), "ms/op"),
        "norms.quotient.ms": (ms(t.incl_ns("norms.quotient")), "ms/op"),
        "building.cartan_position.ms": (ms(t.incl_ns("building.cartan_position")), "ms/op"),
        "building.apartment_coords.ms": (ms(t.incl_ns("building.apartment_coords")), "ms/op"),
    }
    for fn in ("matmul", "inverse", "det", "matvec"):
        metrics[f"linalg.{fn}.calls"] = (per_op(t.calls(f"linalg.{fn}")), "calls/op")
        metrics[f"linalg.{fn}.ms"] = (ms(t.incl_ns(f"linalg.{fn}")), "ms/op")
    metrics.update({
        "norms.evaluate.self_ms": (ms(t.self_ns("norms.evaluate")), "ms/op"),
        "norms.ball_basis.ms": (group_ms("norms", ("ball_basis", "ball_basis_open")), "ms/op"),
        "stabilizer.hom_norm.calls": (per_op(t.calls("stabilizer.hom_norm")), "calls/op"),
        "stabilizer.hom_norm.ms": (ms(t.incl_ns("stabilizer.hom_norm")), "ms/op"),
        "stabilizer.chain_period.ms": (ms(t.incl_ns("stabilizer.chain_period")), "ms/op"),
        "norms.inv_cache_hit_ratio": (t.inv_hits / t.inv_lookups if t.inv_lookups else 0.0, "ratio"),
        "valuation.pval.calls": (per_op(t.calls("valuation.pval")), "calls/op"),
        "valuation.pval.ms": (ms(t.incl_ns("valuation.pval")), "ms/op"),
        "valuation.pval.steps": (per_op(t.pval_steps), "steps/op"),
    })
    fraction_names = {"new": "__new__", "add": "_add", "mul": "_mul", "sub": "_sub", "div": "_div"}
    for key, name in fraction_names.items():
        metrics[f"fraction.{key}"] = (counts1.get(name, 0) / len(cout1), "calls/op")
    overhead = sum(scaled) / sum(plain_scaled)
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    for layer in ("cli", "io") + KERNEL_LAYERS:
        metrics[f"{layer}.self_ms"] = (ms(t.layer_self_ns(layer)), "ms/op")
    metrics["harness.self_ms"] = (ms(sum(raw) - t.top_ns), "ms/op")
    metrics["python.floor_ms"] = (statistics.median(floor_ms), "ms")

    kernel = sum(t.layer_self_ns(x) for x in KERNEL_LAYERS)
    top = sorted(t.stats.items(), key=lambda kv: -kv[1][2])[:6]
    log(f"{args.workload} seed {args.seed} traced: {n} ops in {rounds} rounds, inputs {inputs_digest}, "
        f"overhead x{overhead:.3f}; outputs {digest(outputs)} "
        f"{'identical to' if identical else 'DIFFER from'} untraced; fraction counts "
        f"{'repeat' if repeatable else 'DIFFER'} ({sum(counts1.values())} calls in {len(cout1)} ops)")
    log("  top self time (ms/op): " + ", ".join(f"{k} {ms(v[2]):.3f}" for k, v in top))
    log(f"  cli+io self {ms(t.layer_self_ns('cli') + t.layer_self_ns('io')):.3f} ms/op, "
        f"kernel self {ms(kernel):.3f} ms/op; equals: {t.calls('norms.equals')} calls, "
        f"{t.incl_ns('norms.equals') / sum(raw):.1%} of op time including its children")
    failed = plain_failed + traced_failed + cfail1 + cfail2
    if failed:
        log(f"  FAILED: {sorted(set(failed))}")
    attempted = 2 * n + len(cout1) + len(cout2)
    return consistent, attempted, len(failed), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "padicnorm" / "__init__.py").is_file():
        log(f"error: no padicnorm sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import digest, dumps
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    if args.seconds < 1:
        log("error: --seconds must be at least 1")
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            wl, specs, rounds = setup(args.workload, args.seed, args.seconds, Path(tmp))
            if args.setup_only:
                print("ready", flush=True)
                return 0
            # document paths lose the temporary directory, so equal seeds give equal digests
            inputs_digest = digest([dumps(specs).replace(tmp, "")])
            mode = per_layer if args.trace else end_to_end
            consistent, attempted, failed, metrics = mode(args, wl, specs, rounds, inputs_digest)
    finally:
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    result = {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
