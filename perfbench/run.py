"""Benchmark of the coalsim command line, one workload per process.

    python3 perfbench/run.py --workload equiv --seed 0 --seconds 30 --trace 0

One caller makes `coalsim.cli.cli_dispatch` calls in process, each after the
previous one returned (a closed loop, no threads), for `--seconds` seconds
and at least MIN_SAMPLES calls, ending on a whole cycle of the workload's
slots.  Every call reads model and relation files
written for it alone under fresh state labels, so no value-keyed cache in
coalsim can carry over from an earlier call, as for a user who starts one
process per call.  Inputs are generated between calls, outside the timed
region.  Every output is checked (see `workloads` and `checks`); for the
default seed the sha256 of each of the first calls' stdout must also match
`pins/<workload>.json`.

With `--trace 0` the end-to-end metrics are reported.  With `--trace 1`
half the time runs untraced and the other half replays the same calls
(same structures, new labels) with every public coalsim function wrapped
by `spans.Tracer`; the per-layer metrics of `layers` are reported, with
`trace.overhead_frac` comparing the two passes on the calls both made.
Spans are written to `.perfbench_out/spans-<workload>.csv.gz`.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
MIN_SAMPLES = 100  # p90 then has at least ten samples above it
PIN_COUNT = 100
SETUP_REPS = 5
HARD_LIMIT_S = 150.0  # the whole process, set-up included

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("equiv", "wide", "harness"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--negative-control", choices=("stdout", "exit"),
                   help="corrupt the first call's stdout or exit code; the run must fail")
    p.add_argument("--write-pins", action="store_true",
                   help="write pins/<workload>.json from this run (default seed only)")
    return p.parse_args(argv)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    def __init__(self, cli, workload, tmp, fault=None):
        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.fault = fault
        self.failed = 0
        self.attempted = 0
        self.tracer = None  # told which call runs, so spans carry its id and command

    def call(self, index, tag, expect_sha=None, rename=None):
        """Make one timed call; return (latency s, command, stdout sha256)."""
        call = self.workload.prepare(index, tag, self.tmp)
        if self.tracer is not None:
            self.tracer.call_id = index
            self.tracer.command = call.command
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.cli_dispatch(call.argv)
            except Exception:  # a crash is a failed call, not a benchmark error
                code = None
                crash = traceback.format_exc(limit=4)
            latency = time.perf_counter() - start
        stdout = out.getvalue()
        if self.fault and self.attempted == 0:
            if self.fault == "stdout":
                stdout += "#"
            else:
                code = 3
        problems = [f"raised:\n{crash}"] if crash else call.check(code, stdout)
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        if rename is not None:
            compare = hashlib.sha256(stdout.replace(*rename).encode()).hexdigest()
        else:
            compare = sha
        if expect_sha is not None and compare != expect_sha:
            problems.append(f"stdout sha256 {compare[:12]} differs from {expect_sha[:12]}")
        for path in call.files:
            Path(path).unlink(missing_ok=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL call {index} {call.argv[:1]} {call.kind}: {problems[:3]}"
                      f"{' stderr: ' + err.getvalue()[:200] if err.getvalue() else ''}",
                      file=sys.stderr)
        return latency, call.command, sha


def import_seconds(src: Path) -> float:
    """Time `import coalsim.cli` in a fresh interpreter, as a CLI user pays it."""
    code = (f"import sys, time; sys.path.insert(0, {str(src)!r}); t = time.perf_counter(); "
            "import coalsim.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def setup(cli, workloads, name, seed, tmp):
    """Warm-up calls on tiny inputs of every slot; returns seconds per repetition."""
    reps = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        warm = Runner(cli, workloads[name](seed, tiny=True), tmp)
        for k in range(len(warm.workload.slots)):
            warm.call(k, f"w{rep}x{k}_")
        reps.append(time.perf_counter() - start)
        if warm.failed:
            raise SystemExit(f"warm-up calls failed on workload {name}")
    return reps


def main(argv=None) -> int:
    args = parse_args(argv)
    process_start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "coalsim" / "__init__.py").is_file():
        print(f"error: no coalsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import coalsim
    import coalsim.cli as cli
    if Path(coalsim.__file__).resolve().parent != (src / "coalsim").resolve():
        print(f"error: imported coalsim from {coalsim.__file__}, not {src}", file=sys.stderr)
        return 2

    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    pins_path = HERE / "pins" / f"{args.workload}.json"
    pins = []
    if args.seed == DEFAULT_SEED and not args.tiny and not args.write_pins:
        pins = json.loads(pins_path.read_text())["sha256"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        import_reps = [import_seconds(src) for _ in range(SETUP_REPS)]
        setup_reps = setup(cli, WORKLOADS, args.workload, args.seed, tmp)
        workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        runner = Runner(cli, workload, tmp, fault=args.negative_control)
        budget = args.seconds / 2 if args.trace else args.seconds
        # Runs end on a whole cycle of slots, so every run has the same call mix.
        cycle = len(workload.slots)
        # Peak RSS is read after a fixed amount of work, the first whole
        # cycles that reach MIN_SAMPLES calls, so it does not grow with speed.
        rss_calls = -(-MIN_SAMPLES // cycle) * cycle
        peak_rss_mb = None

        latencies, shas = [], []
        by_command = defaultdict(list)
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now - process_start > HARD_LIMIT_S:
                break
            i = len(latencies)
            if now - start >= budget and i >= MIN_SAMPLES and i % cycle == 0:
                break
            expect = pins[i] if i < len(pins) else None
            latency, command, sha = runner.call(i, f"a{i}_", expect_sha=expect)
            latencies.append(latency)
            shas.append(sha)
            by_command[command].append(latency)
            if len(latencies) == rss_calls:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            tracer = Tracer()
            tracer.keep = layers.KEEP
            tracer.install(coalsim)
            runner.tracer = tracer
            traced = []
            try:
                start = time.perf_counter()
                for i in range(len(latencies)):
                    now = time.perf_counter()
                    if now - process_start > HARD_LIMIT_S:
                        break
                    if i and now - start >= budget and i % cycle == 0:
                        break
                    latency, _, _ = runner.call(
                        i, f"b{i}_", expect_sha=shas[i], rename=(f"b{i}_", f"a{i}_"))
                    traced.append(latency)
            finally:
                tracer.uninstall()
            overhead = 1 - sum(latencies[: len(traced)]) / sum(traced)
            metrics = layers.compute(tracer, len(traced), by_command, overhead)
            units = layers.metric_units()
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}.csv.gz")
            print(f"traced {len(traced)} of {len(latencies)} calls; "
                  f"{len(tracer.span_name)} spans kept, {tracer.spans_dropped} not kept")
        else:
            ordered = sorted(latencies)
            metrics = {
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": percentile(ordered, 0.5) * 1e3,
                "op_p90_ms": percentile(ordered, 0.9) * 1e3,
                "ok_frac": 1 - runner.failed / runner.attempted,
                "setup_s": statistics.median(import_reps) + statistics.median(setup_reps),
                "peak_rss_mb": peak_rss_mb
                               or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    if len(latencies) < MIN_SAMPLES:
        print(f"warning: only {len(latencies)} samples; p90 has fewer than 10 above it",
              file=sys.stderr)
    if args.write_pins and runner.failed == 0 and args.seed == DEFAULT_SEED and not args.tiny:
        pins_path.parent.mkdir(exist_ok=True)
        pins_path.write_text(json.dumps({"seed": DEFAULT_SEED, "sha256": shas[:PIN_COUNT]},
                                        indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {len(latencies)} timed calls "
          f"(samples), {runner.failed} failed, setup repetitions "
          f"{[round(s, 3) for s in setup_reps]} s, imports {[round(s, 3) for s in import_reps]} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
