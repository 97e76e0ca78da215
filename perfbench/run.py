"""End-to-end benchmark of ``jetlag run`` on the pinned workloads of spec.py.

Usage (from the repository root):

    python3 perfbench/run.py --workload optic-suite --seed 7 --seconds 30 --trace 0

Load shape: a closed loop with one client.  One process and one thread run
``cli.run_report(cfg, jobs=1)`` back to back, each run starting when the
previous one ends, with BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics: ``run_s`` (median time of
one run, config to written report), ``setup_s`` (median, over fresh
interpreters, of ``import jetlag`` plus ``load_config``) and ``peak_rss_mb``.
It also prints ``error_rate``.  Both times are wall times normalised to a
reference host speed by hostspeed.py, because the shared host's speed
drifts between runs; the raw wall times are printed too.  ``--trace 1``
runs once untraced, then repeats load_config + run_report with the span
recorder of spans.py and reports the per-layer metrics (in raw wall time).  Every run's report is checked against the
workload's reference statuses and, at the workload's default seed, against
the pinned report digest.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every set-up child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 11     # fresh interpreters per run, after one uncounted warm-up
MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2   # counts must repeat exactly between traced runs

_WALL_LINE = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)


def report_digest(text: str) -> str:
    """sha256 of a report with its wall-time entry removed."""
    return hashlib.sha256(_WALL_LINE.sub("", text).encode()).hexdigest()


def check_report(workload: str, seed: int, code: int, path: Path) -> str | None:
    """None if the written report matches the workload's reference, else
    why not."""
    ref = spec.WORKLOADS[workload]
    text = path.read_text(encoding="utf-8")
    statuses = {name: doc["status"]
                for name, doc in json.loads(text)["checks"].items()}
    if statuses != ref["statuses"]:
        return f"check statuses {statuses}, expected {ref['statuses']}"
    if code != ref["exit_code"]:
        return f"exit code {code}, expected {ref['exit_code']}"
    if seed == spec.default_seed(workload):
        digest = report_digest(text)
        if digest != ref["digest"]:
            return f"report digest {digest}, expected {ref['digest']}"
    return None


class Runs:
    """Attempted and failed runs of one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.out = WORK / f"{workload}.report.json"
        self.attempted = 0
        self.failed = 0
        self.last_wall = 0.0

    def run(self, cli, cfg, normalise=True):
        """One ``run_report``; returns (report, hostspeed.Span), or None if
        the run raised or its report is wrong."""
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        gc.collect()  # garbage of the previous run is not this run's cost
        span = hostspeed.Span(active=normalise)
        try:
            with span:
                report, code = cli.run_report(cfg, jobs=1,
                                              out_path=str(self.out))
            error = check_report(self.workload, self.seed, code, self.out)
        except Exception as exc:  # a JetlagError is `jetlag run` exit 2
            error = f"raised {type(exc).__name__}: {exc}"
        self.last_wall = span.wall
        if error is None:
            return report, span
        self.failed += 1
        print(f"run {self.attempted} failed: {error}", file=sys.stderr)
        return None


def setup_times(cfg_path: Path) -> tuple[list[float], list[float]]:
    """Normalised and wall set-up seconds of SETUP_PROBES interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg_path)]
    times, walls = [], []
    for i in range(SETUP_PROBES + 1):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i:  # the first one also writes the bytecode caches
            seconds, wall = res.stdout.split()[-2:]
            times.append(float(seconds))
            walls.append(float(wall))
    return times, walls


def import_cli():
    sys.path.insert(0, str(SRC))
    from jetlag import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported jetlag from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def timed(workload, seed, seconds, cfg_path):
    setup, setup_walls = setup_times(cfg_path)
    cli = import_cli()
    cfg = cli.load_config(str(cfg_path))
    runs = Runs(workload, seed)
    times, walls = [], []
    start = time.perf_counter()
    # no run starts that would end past `seconds`, once MIN_TIMED_RUNS are done
    while (runs.attempted < MIN_TIMED_RUNS
           or time.perf_counter() - start + runs.last_wall <= seconds):
        done = runs.run(cli, cfg)
        if done is not None:
            times.append(done[1].seconds)
            walls.append(done[1].wall)
    if not times:
        raise SystemExit("error: no run completed")
    metrics = {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    print(f"{workload} seed {seed}: {runs.attempted} runs, "
          f"run_s min {min(times):.4f} max {max(times):.4f}, wall median "
          f"{statistics.median(walls):.4f}; setup_s over {len(setup)} "
          f"interpreters min {min(setup):.4f} max {max(setup):.4f}, wall "
          f"median {statistics.median(setup_walls):.4f}")
    print(f"error_rate {runs.failed / runs.attempted:.4f} ratio "
          f"({runs.failed} failed / {runs.attempted} attempted)")
    return runs, metrics, []


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    return "ratio" if last.endswith("_ratio") else "count"


def traced(workload, seed, seconds, cfg_path):
    import spans

    cli = import_cli()
    runs = Runs(workload, seed)
    start = time.perf_counter()
    # one untraced run first: traced minus untraced run_s is the overhead
    done = runs.run(cli, cli.load_config(str(cfg_path)), normalise=False)
    untraced_s = done[1].wall if done is not None else 0.0

    rec = spans.install()
    per_run, traced_s = [], []
    while (runs.attempted < 1 + MIN_TRACED_RUNS
           or time.perf_counter() - start < seconds):
        lo = len(rec)
        cfg = cli.load_config(str(cfg_path))
        done = runs.run(cli, cfg, normalise=False)  # probes would be spans
        if done is not None:
            report, secs = done[0], done[1].wall
            accepted = len(report.points) - len(cfg.explicit)
            per_run.append(spans.layer_metrics(rec.summary(lo, len(rec)),
                                               accepted))
            traced_s.append(secs)
    rec.write(str(WORK / f"{workload}.spans.npz"))
    if not per_run:
        raise SystemExit("error: no traced run completed")

    problems = []
    names = spec.per_layer_names()
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            value = statistics.median(traced_s) - untraced_s
        else:
            values = [m[name] for m in per_run]
            if unit_of(name) == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    problems.append(f"{name} differs between traced runs: "
                                    f"{values}")
        metrics[name] = (value, unit_of(name))
    missing = sorted(set(per_run[0]) - set(names) - {"trace.overhead_s"})
    if missing:
        problems.append(f"traced metrics missing from spec.LAYER_MAP: {missing}")
    for name, on in spec.NONZERO_ON.items():
        want = workload in on
        if (metrics[name][0] > 0) != want:
            problems.append(f"{name} is {metrics[name][0]}, expected "
                            f"{'> 0' if want else '0'} on {workload}")
    print(f"{workload} seed {seed}: untraced run_s {untraced_s:.4f}, traced "
          f"run_s {statistics.median(traced_s):.4f} over {len(traced_s)} "
          f"runs, {len(rec)} spans")
    return runs, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="points.seed of the generated config "
                             "(default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jetlag" / "__init__.py").is_file():
        print(f"error: no jetlag sources under {SRC}", file=sys.stderr)
        return 2
    seed = spec.default_seed(args.workload) if args.seed is None else args.seed
    WORK.mkdir(exist_ok=True)
    cfg_path = WORK / f"{args.workload}.json"
    cfg_path.write_text(json.dumps(spec.make_config(args.workload, seed),
                                   indent=1) + "\n", encoding="utf-8")

    measure = traced if args.trace else timed
    runs, metrics, problems = measure(args.workload, seed, args.seconds, cfg_path)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print(f"python {sys.version.split()[0]}, numpy "
          f"{sys.modules['numpy'].__version__}, {os.cpu_count()} cpus, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runs.failed == 0 and not problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
