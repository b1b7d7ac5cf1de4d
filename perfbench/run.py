"""gnwaves benchmark: time to solution of the paper's reference experiment
at the stated accuracy, and the work each layer does to get there.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop: this one process runs one ``run_experiment`` at a
time, with BLAS/OpenMP pinned to one thread. Each invocation starts with an
untimed warm-up run.

``--trace 0`` times runs until ``--seconds`` is used up. After each run it
times one set-up in a fresh interpreter (setup_probe.py). A timed run calls
calibrate.kernel after every step; ``wall_rel`` and ``cpu_rel`` are the
run's wall and CPU time without the kernel calls, divided by the mean time
of one call in the same run, so that a host that slows everything alike
leaves them unchanged. The unit ``ref`` is one kernel call, a few tenths of
a millisecond. ``setup_s`` is the median set-up. The medians of the runs'
wall and CPU seconds are printed, but not put in the JSON result: they
follow the host's speed.

``--trace 1`` alternates an untraced and a traced run for ``--seconds``, at
least twice. It reports the per-layer metrics of BENCHMARK.json from the
traced runs, the tracing overhead, and checks that the work counts of all
traced runs are identical. The spans of the last traced run are saved.

Every run goes through the correctness gate in gate.py, and a run that
raises or fails it counts in ``failed``. Human-readable lines come first;
the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402  (after the thread pinning)

import calibrate  # noqa: E402
import gate  # noqa: E402
import layertrace  # noqa: E402
from gnwaves import __version__ as gnwaves_version  # noqa: E402
from gnwaves.params import serialize_config  # noqa: E402
from gnwaves.runner import run_experiment  # noqa: E402
from gnwaves.timestepper import StepStats  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

MIN_TIMED = 3
MIN_TRACED = 2
MIN_SETUPS = 9
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
OUT_ROOT = os.path.join(bootstrap.ROOT, ".perfbench_out")


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gnwaves": gnwaves_version,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
    }


def _dir_usage(path):
    names = os.listdir(path)
    return len(names), sum(os.path.getsize(os.path.join(path, name)) for name in names)


class Bench:
    """Runs one workload's experiment, gating and counting every run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.config = workload.config()
        self.zeta_ref = gate.load_reference(workload.name)
        self.out_dir = os.path.join(OUT_ROOT, f"{workload.name}-seed{seed}")
        self.attempted = 0
        self.failed = 0
        self.final_errs = []
        self.energy_drifts = []
        os.makedirs(self.out_dir, exist_ok=True)
        self.config_path = os.path.join(self.out_dir, "config.txt")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_config(self.config))

    def run(self, tracer=None, pace=None):
        """One gated run: (wall_s, cpu_s, RunResult or None, (files, bytes)).

        With a calibrate.Pace, the kernel runs after every step; its totals
        go into ``pace`` and are not part of wall_s and cpu_s."""
        self.attempted += 1
        run_dir = os.path.join(self.out_dir, f"run{self.attempted}")
        result = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                result = layertrace.traced_run(tracer, run_experiment, self.config, run_dir)
            elif pace is not None:
                with calibrate.paced(pace):
                    result = run_experiment(self.config, run_dir)
            else:
                result = run_experiment(self.config, run_dir)
        except Exception:
            traceback.print_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if pace is not None:
            wall, cpu = wall - pace.wall_s, cpu - pace.cpu_s
        usage = (0, 0)
        if result is None:
            problems = ["run_experiment raised"]
        else:
            usage = _dir_usage(run_dir)
            try:
                problems, final_err, drift = gate.check_run(self.workload, self.config, result, self.zeta_ref)
            except Exception:
                traceback.print_exc()
                problems = ["run record could not be checked"]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} FAILED the gate: {'; '.join(problems)}", file=sys.stderr)
        else:
            self.final_errs.append(final_err)
            self.energy_drifts.append(drift)
        shutil.rmtree(run_dir, ignore_errors=True)
        return wall, cpu, result, usage

    def setup(self):
        """Wall time of one fresh-interpreter set-up."""
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which would quantise the measurement
        subprocess.run([sys.executable, PROBE, self.config_path], check=True)
        return time.perf_counter() - start

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (q1 {q1:.4g}, q3 {q3:.4g}, n = {len(values)})"


def measure_end_to_end(bench, seconds):
    bench.run()
    bench.setup()  # also leaves the bytecode caches in place
    walls, cpus, setups, wall_rels, cpu_rels = [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED or (
        time.perf_counter() - start + _median(walls) + _median(setups) <= seconds
    ):
        pace = calibrate.Pace()
        wall, cpu, _, _ = bench.run(pace=pace)
        walls.append(wall)
        cpus.append(cpu)
        if pace.calls:
            wall_rels.append(wall / (pace.wall_s / pace.calls))
            cpu_rels.append(cpu / (pace.cpu_s / pace.calls))
        setups.append(bench.setup())
    while len(setups) < MIN_SETUPS:
        setups.append(bench.setup())
    samples = {"wall_rel": wall_rels, "cpu_rel": cpu_rels, "setup_s": setups,
               "wall_s": walls, "cpu_s": cpus}
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["final_state_err"] = max(bench.final_errs, default=float("nan"))
    metrics["energy_drift"] = max(bench.energy_drifts, default=float("nan"))
    notes = [f"{name} {metrics[name]:.4g} s{_spread(samples[name])}: printed only, too host-bound to gate"
             for name in ("wall_s", "cpu_s")]
    return metrics, samples, True, notes


def _layer_record(tracer, result, usage):
    record = layertrace.summarize(tracer.spans())
    stats = result.stats if result is not None else StepStats()
    record.update({
        "timestepper.steps_accepted": stats.accepted,
        "timestepper.steps_rejected": stats.rejected,
        "timestepper.accept_ratio": stats.accepted / max(stats.accepted + stats.rejected, 1),
        "timestepper.rhs_calls": stats.rhs_evals,
        "io_store.files_written": usage[0],
        "io_store.bytes_written": usage[1],
    })
    return record


def measure_layers(bench, seconds):
    bench.run()
    untraced, records = [], []
    start = time.perf_counter()
    while len(records) < MIN_TRACED or (
        time.perf_counter() - start + _median(untraced) + _median([r["run_s"] for r in records]) <= seconds
    ):
        untraced.append(bench.run()[0])
        tracer = layertrace.Tracer()
        _, _, result, usage = bench.run(tracer)
        records.append(_layer_record(tracer, result, usage))
    tracer.save(os.path.join(OUT_ROOT, f"{bench.workload.name}.spans.npz"))

    counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in records]
    notes = []
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        notes.append(f"work counts differ between traced runs: {counts}")
    samples = {name: [r[name] for r in records] for name in records[0]}
    metrics = {name: (values[0] if isinstance(values[0], int) else _median(values))
               for name, values in samples.items()}
    traced_wall = metrics.pop("run_s")
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / _median(untraced)
    samples["trace.untraced_wall_s"] = untraced

    got = tuple(metrics[f"timestepper.{k}"] for k in ("steps_accepted", "steps_rejected", "rhs_calls"))
    baseline = bench.workload.baseline_counts
    notes.append(f"accepted/rejected/rhs {got} vs the benchmark's baseline {baseline}: "
                 + ("match" if got == baseline else "differ"))
    if metrics["operators.rhs_calls"] != metrics["timestepper.rhs_calls"]:
        notes.append(f"traced rhs calls {metrics['operators.rhs_calls']} differ from the "
                     f"controller's {metrics['timestepper.rhs_calls']}: a wrapper missed calls")
    return metrics, samples, repeat_ok, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: the reference experiment has fixed inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    bench = Bench(workload, args.seed)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples, consistent, notes = measure(bench, args.seconds)
    finally:
        bench.close()

    result = {
        "correct": bench.failed == 0 and consistent,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {},
    }
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        value = None if isinstance(value, float) and not np.isfinite(value) else value
        result["metrics"][name] = {"value": value, "unit": unit}
        moves = ""
        if name in LAYER_MAP:
            target, where = LAYER_MAP[name]
            moves = f"  -> {target} on {', '.join(where)}"
        print(f"{name:34s} {value!s:>22} {unit}{_spread(samples.get(name, []))}{moves}")
    print(f"{'failed_runs':34s} {bench.failed / bench.attempted:>22} share  "
          f"({bench.failed} of {bench.attempted} runs)")
    for note in notes:
        print("note: " + note)

    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{workload.name}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "samples": samples, "notes": notes, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
