"""Benchmark runner: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and drives the package in-process
through `tensegrity.cli.run_command`, one command at a time (a closed loop
with a single client).  With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it runs the same commands untraced and then traced and
prints the per-layer metrics.  The last line of standard output is the
result object; the line before it carries the detail (quartiles, sample
counts, per-subcommand times, the machine block).  See README.md.
"""

from __future__ import annotations

import os
import time

#: BLAS threads for this process and its set-up probes (at most nproc); set
#: before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / "_work"

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 5

#: percentiles considered for the latency tail
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(workload: str, seed: int, work: Path):
    """Import the package, write the seeded inputs, make one warm-up call.
    Returns (cli module, commands)."""
    sys.path.insert(0, str(REPO / "src"))
    import tensegrity.cli as cli

    commands = workloads.build(workload, seed, work)
    _call(cli, workloads.WARMUP + ["--out", str(work / "warmup")])
    return cli, commands


def _call(cli, argv):
    """One in-process CLI call with its output captured; returns
    (exit code or None, seconds, captured text)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = cli.run_command(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = None
        buf.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, buf.getvalue()


class Loop:
    """Runs the command list in order, pass after pass, and keeps the
    latency of every command and the problems its check found.  A command
    fails when it crashes, exits nonzero, or its report states something
    wrong; one whose truthful report falls short of the required result
    (a path that did not converge, a missing root) is counted as
    incomplete instead, so that the known seed-dependent misses of the
    path tracker show as a count and not as failed operations.  Latencies
    exclude the speed probe's slices and are kept with their start and end
    so they can be rescaled to the reference speed."""

    def __init__(self, cli, commands, work: Path, on_command=None):
        self.cli = cli
        self.commands = commands
        self.work = work
        self.on_command = on_command
        self.probe = SpeedProbe()
        self.samples = [[] for _ in commands]  # (start, end, seconds)
        self.pass_times = []                   # wall seconds per whole pass
        self.attempted = 0
        self.failed = 0
        self.incomplete = 0
        self.problems = []

    def execute(self, k: int) -> float:
        cmd = self.commands[k]
        report = self.work / cmd.report
        report.unlink(missing_ok=True)
        report.with_suffix(".svg").unlink(missing_ok=True)
        if self.on_command is not None:
            self.on_command(k)
        stolen = self.probe.stolen
        start = time.perf_counter()
        rc, dt, text = _call(self.cli, cmd.argv + ["--out", str(self.work)])
        end = time.perf_counter()
        self.samples[k].append((start, end, dt - (self.probe.stolen - stolen)))
        if rc != 0:
            problems = [(workloads.WRONG, f"exit {rc}: {text.strip()[-300:]}")]
        else:
            try:
                problems = cmd.check(json.loads(report.read_text()), self.work)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [(workloads.WRONG, f"unreadable report: {exc!r}")]
        self.attempted += 1
        if problems:
            if any(kind == workloads.WRONG for kind, _ in problems):
                self.failed += 1
            else:
                self.incomplete += 1
            if len(self.problems) < 20:
                self.problems.append({"argv": cmd.argv, "problems": problems})
        return dt

    def run(self, seconds: float, whole_passes: bool):
        """At least one whole pass; then keep issuing commands until
        `seconds` have gone by (finishing the pass if `whole_passes`)."""
        t0 = time.perf_counter()
        with self.probe:
            while self._one_pass(t0, seconds, whole_passes):
                pass

    def _one_pass(self, t0, seconds, whole_passes) -> bool:
        """Runs one pass (or its start, when time is up); True to go on."""
        pass_time = 0.0
        for k in range(len(self.commands)):
            if self.pass_times and not whole_passes and \
                    time.perf_counter() - t0 >= seconds:
                return False
            pass_time += self.execute(k)
        self.pass_times.append(pass_time)
        return time.perf_counter() - t0 < seconds

    def latencies(self, k: int, wall: bool = False) -> list:
        """Command k's latencies, rescaled to the reference speed unless `wall`."""
        if wall:
            return [dt for _, _, dt in self.samples[k]]
        return [self.probe.rescale(*sample) for sample in self.samples[k]]

    def pass_s(self, wall: bool = False, sub: str | None = None) -> float:
        """Sum over the command list (or its `sub` commands) of each
        command's median latency."""
        return sum(statistics.median(self.latencies(k, wall))
                   for k, cmd in enumerate(self.commands)
                   if sub is None or cmd.sub == sub)


def _spread(values) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            out["tail"] = {"percentile": p,
                           "value": statistics.quantiles(values, n=1000)[round(p * 10) - 1]}
            break
    return out


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _probe_setup(workload: str, seed: int, probe: SpeedProbe) -> float:
    """Time of a fresh process that sets up and exits, rescaled to the
    reference speed by slices taken just before and after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--probe-setup"]
    probe.sample(10)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=120)
    end = time.perf_counter()
    probe.sample(10)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return probe.rescale(start, end, end - start)


def _result(loops, metrics) -> dict:
    return {
        "correct": all(loop.failed == 0 for loop in loops),
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }


def _untraced(args, cli, commands, work):
    probe = SpeedProbe()
    setup = [_probe_setup(args.workload, args.seed, probe) for _ in range(SETUP_PROBES)]
    loop = Loop(cli, commands, work)
    loop.run(args.seconds, whole_passes=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": loop.pass_s(), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "setup_s": _spread(setup),
        "pass_s": {"value": loop.pass_s(), "wall": loop.pass_s(wall=True),
                   "wall_whole_passes": _spread(loop.pass_times)},
        "speed_probe_slice_s": loop.probe.summary(),
        "command_ms": _spread([x * 1e3 for k in range(len(commands))
                               for x in loop.latencies(k)]),
        "deform_s": loop.pass_s(sub="deform"),
        "solve_s": loop.pass_s(sub="solve"),
        "analyze_ms": loop.pass_s(sub="analyze") * 1e3,
        "flexes_ms": loop.pass_s(sub="flexes") * 1e3,
        "prestress_ms": loop.pass_s(sub="prestress") * 1e3,
        "plot_ms": loop.pass_s(sub="plot") * 1e3,
        "fail_frac": loop.failed / loop.attempted,
        "incomplete_frac": loop.incomplete / loop.attempted,
        "peak_rss_mb": peak_rss_mb,
        "problems": loop.problems,
    }
    return [loop], metrics, detail


def _traced(args, cli, commands, work):
    from tracing import Tracer, layer_metrics

    half = args.seconds / 2.0
    plain = Loop(cli, commands, work)
    plain.run(half, whole_passes=True)

    tracer = Tracer()
    cmd_log = []

    def on_command(k):
        tracer.cmd_id = len(cmd_log)
        cmd_log.append(commands[k].argv)

    traced = Loop(cli, commands, work, on_command=on_command)
    tracer.install()
    try:
        traced.run(half, whole_passes=True)
    finally:
        tracer.uninstall()
    passes = len(traced.pass_times)
    per_layer = layer_metrics(tracer, passes, statistics.fmean(traced.pass_times),
                              [argv[0] for argv in cmd_log])
    per_layer["trace.overhead_frac"] = traced.pass_s() / plain.pass_s() - 1.0
    per_layer["checks.incomplete_per_pass"] = traced.incomplete / passes
    tracer.save(work / f"trace-seed{args.seed}.npz", cmd_log)
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in per_layer.items()}
    detail = {"passes_untraced": len(plain.pass_times), "passes_traced": passes,
              "untraced_pass_s": plain.pass_s(), "traced_pass_s": traced.pass_s(),
              "speed_probe_slice_s": plain.probe.summary(),
              "problems": plain.problems + traced.problems}
    return [plain, traced], metrics, detail


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("ms"):
        return "ms"
    if last.startswith("us"):
        return "us"
    if last.endswith("_s") or last == "s":
        return "s"
    if last.endswith("frac") or last.endswith("share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (REPO / "src" / "tensegrity" / "cli.py").is_file():
        print(f"no tensegrity sources under {REPO / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = WORK / (args.workload + ("-probe" if args.probe_setup else ""))
    cli, commands = _setup(args.workload, args.seed, work)
    if args.probe_setup:
        return 0

    run = _traced if args.trace else _untraced
    loops, metrics, detail = run(args, cli, commands, work)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "commands_per_pass": len(commands), **detail,
              "machine": _machine()}
    print(json.dumps(detail, default=str))
    print(json.dumps(_result(loops, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
