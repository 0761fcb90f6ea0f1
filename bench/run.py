#!/usr/bin/env python3
"""starloc benchmark: one workload in this process, through `starloc.cli.main`.

Usage, from the repository root:

    python3 bench/run.py --workload logistic --seed 0 --seconds 30 --trace 0

The workload's operations run in passes until the next pass would end
after `--seconds`. Every operation's outputs are checked against the
reference recorded for the seed's input set (bench/reference/). The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the metric names and units come from
BENCHMARK.json (`end_to_end` with `--trace 0`, `per_layer` with
`--trace 1`). The line before it records the host.

`--trace 1` first times untraced passes, then wraps the library's layer
functions (bench/tracer.py) and times traced passes; the per-layer values
are medians over the traced passes, and the spans are written to
.bench_out/trace-<workload>-seed<seed>.jsonl.

Other modes: `--record` rewrites the references for every input set;
`--toy` runs tiny sizes without reference checks (bench/selfcheck.py);
`--setup-only` performs set-up once and prints its duration.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS to one thread before numpy loads: OpenBLAS's default of two
# threads nearly doubled the offset workload's time on a 2-CPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # this process plus four fresh ones
UNTRACED_SHARE = 0.4  # of --seconds, in a --trace 1 run


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, references or spec)."""


def import_cli():
    if not (SRC / "starloc" / "__init__.py").is_file():
        raise SetupError(f"starloc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import starloc.cli

    if Path(starloc.cli.__file__).resolve().parent != (SRC / "starloc").resolve():
        raise SetupError(f"imported starloc from {starloc.cli.__file__}, not from {SRC}")
    return starloc.cli


def work_dir(name: str) -> Path:
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def setup(workload: str, seed: int, toy: bool):
    """Import the program, write the inputs and load the reference."""
    cli = import_cli()
    work = work_dir(workload)
    ops = workloads.build(workload, seed, work, toy)
    reference = None
    if not toy:
        path = REFERENCE_DIR / f"{workload}.json"
        if not path.is_file():
            raise SetupError(f"reference {path} not found; run with --record")
        sets = json.loads(path.read_text(encoding="utf-8"))["sets"]
        if len(sets) != workloads.N_INPUT_SETS:
            raise SetupError(f"{path} holds {len(sets)} input sets, not {workloads.N_INPUT_SETS}; run with --record")
        reference = sets[workloads.input_set(seed)]
    return Runner(cli, ops, reference), work


def fresh_setup_seconds(workload: str, seed: int, toy: bool) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)] + (["--toy"] if toy else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# host facts


def _openblas():
    """(thread count, config string) of the loaded OpenBLAS, or Nones."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def _steal_ticks():
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> dict:
    threads, config = _openblas()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# measurement


class Runner:
    """Runs passes over the operations and checks every output."""

    def __init__(self, cli, ops, reference):
        self.cli = cli
        self.ops = ops
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.snapshots = []  # per-pass tracer aggregates

    def run_op(self, op):
        """Run one operation; returns (seconds inside the CLI, output record or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # any crash of the program is a failed operation
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        record, problems = None, [f"exit code {rc}"]
        if rc == 0:
            try:
                record, problems = op.read()
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if self.reference is not None:
                problems += workloads.compare(self.reference.get(op.name), record, op.name)
        if problems:
            self.failed += 1
            print(f"FAILED {op.name}: {'; '.join(problems[:5])}", file=sys.stderr)
            record = None
        return elapsed, record

    def passes(self, budget: float) -> dict:
        """Times of each operation, one per pass, until the next pass would overrun."""
        times = {op.name: [] for op in self.ops}
        loop_times = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for op in self.ops:
                if self.tracer is not None:
                    self.tracer.run_id = f"pass{len(self.snapshots)}/{op.name}"
                times[op.name].append(self.run_op(op)[0])
            if self.tracer is not None:
                self.snapshots.append(self.tracer.take())
            loop_times.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(loop_times) > budget:
                return times


def end_to_end_metrics(args, runner, setups):
    times = runner.passes(args.seconds)
    failed_frac = runner.failed / runner.attempted
    print(f"op_times_s={times} failed_frac={failed_frac} ratio")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": workloads.pass_wall(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed_frac,
    }


def per_layer_metrics(args, runner, names):
    untraced = runner.passes(UNTRACED_SHARE * args.seconds)
    tr = runner.tracer = tracing.Tracer()
    tr.install()
    traced = runner.passes((1.0 - UNTRACED_SHARE) * args.seconds)
    print(f"untraced_op_times_s={untraced} traced_op_times_s={traced}")
    if tr.missing:
        print(f"missing layer functions (reported as 0): {', '.join(tr.missing)}", file=sys.stderr)
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "missing": tr.missing}) + "\n")
        for span_id, name, start, end, parent, run_id in tr.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "run": run_id}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")
    return tracing.per_layer_metrics(names, runner.snapshots, tr.spans, traced, untraced)


def measure(args) -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SetupError(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    runner, work = setup(args.workload, args.seed, args.toy)
    setups = [time.perf_counter() - T_START]
    try:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(fresh_setup_seconds(args.workload, args.seed, args.toy))
        host = host_facts()
        steal = _steal_ticks()
        section = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            values = per_layer_metrics(args, runner, [m["name"] for m in section])
        else:
            values = end_to_end_metrics(args, runner, setups)
        end_steal = _steal_ticks()
        host["steal_ticks"] = None if steal is None or end_steal is None else end_steal - steal
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"host": host}))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }


def record(names):
    """Run every input set once at full size and write the references."""
    cli = import_cli()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        sets = []
        for seed in range(workloads.N_INPUT_SETS):
            work = work_dir(f"record-{workload}")
            try:
                runner = Runner(cli, workloads.build(workload, seed, work), reference=None)
                outputs = {op.name: runner.run_op(op)[1] for op in runner.ops}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if runner.failed:
                raise SetupError(f"{workload} input set {seed}: {runner.failed} operations failed")
            sets.append(outputs)
            print(f"recorded {workload} input set {seed}", file=sys.stderr)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"sets": sets}, separators=(",", ":")) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, no reference check")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument("--record", action="store_true", help="rewrite the references")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    try:
        if args.record:
            record([args.workload] if args.workload else workloads.WORKLOADS)
        elif args.setup_only:
            _, work = setup(args.workload, args.seed, args.toy)
            elapsed = time.perf_counter() - T_START
            shutil.rmtree(work, ignore_errors=True)
            print(json.dumps({"setup_s": elapsed}))
        else:
            print(json.dumps(measure(args)))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
