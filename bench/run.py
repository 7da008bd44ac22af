"""mcbrick benchmark: run one workload of CLI commands and print its metrics.

Usage:
    python3 bench/run.py --workload {spectra,rp,operators,evolve} --seed N
                         --seconds S --trace {0,1}

Every command runs as a fresh ``python -m mcbrick.cli`` process from the
source tree next to this directory, one at a time, with the BLAS thread
pools pinned to ``THREADS``.  The seed is passed to every command as
``--seed``; the gates stay fixed.

``--trace 0`` times whole passes over the workload's commands for about
``--seconds`` seconds (at least one pass) and reports the end-to-end metrics:
``wall_s`` (median pass time, the sum of the commands' wall times),
``setup_s`` (median time of a fresh interpreter importing the modules the
workload uses) and ``peak_rss_mb`` (largest max RSS of any command).

``--trace 1`` makes one untraced pass and one pass with the layer functions
wrapped (see tracing.py) and reports the per-layer metrics, the per-command
CLI figures, the invariants the checks record, and the tracing overhead.  It
also checks the bypass guard: each workload must leave the layers in
``workloads.BYPASSED`` alone and reach every function whose ``HOME`` it is.

Every command's exit code and outputs are checked (workloads.py).  The
summary lines name each end-to-end metric with its unit and the failed
fraction of commands; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record of the run goes to
``.bench_runs/<workload>-seed<seed>-trace<t>.json`` in the source root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COUNTERS, TARGETS
from workloads import (BYPASSED, DIAGNOSTICS, HOME, IMPORTS, SUBCOMMANDS, WORKLOADS,
                       Verdict)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

THREADS = 1            # BLAS threads of every timed process; never above nproc
SETUP_REPEATS = 5      # timed imports per run, after one warm-up import
RUN_LIMIT_S = 170.0    # children still running past this are killed

# traced durations compared with the ad-hoc timings in ROADMAP.md "Recent":
# metric -> (wrapped function, span tag, ROADMAP seconds at the seed commit)
ROADMAP_BASELINES = {
    "rp.truncated_propagator.r3_s": ("rp.truncated_propagator", {"r": 3}, 0.43),
    "rp.truncated_propagator.r4_s": ("rp.truncated_propagator", {"r": 4}, 6.96),
    "core.build_sector_block.L14m0k1_s":
        ("core.build_sector_block", {"L": 14, "m": 0, "k": 1}, 1.5),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, timeout, broken import)."""


@dataclass
class Outcome:
    """One command as it ran: exit code, cost, and what its check found."""

    args: tuple
    code: int
    wall_s: float
    rss_mb: float
    handler_s: float = 0.0
    problems: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    trace: dict = None

    @property
    def subcommand(self):
        return self.args[0]


def per_layer_units():
    """Every per-layer metric name, in order, with its unit."""
    units = {}
    for sub in SUBCOMMANDS:
        units.update({f"cli.{sub}.wall_s": "s", f"cli.{sub}.handler_s": "s",
                      f"cli.{sub}.rss_mb": "MB"})
    units["cli.overhead_s"] = "s"
    for t in TARGETS:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.s"] = "s"
        if t.self_time:
            units[f"{t.name}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update(dict.fromkeys(ROADMAP_BASELINES, "s"))
    units.update(dict.fromkeys(DIAGNOSTICS, "1"))
    units["trace.overhead_s"] = "s"
    return units


class Runner:
    """Starts the workload's processes one at a time and reaps each one."""

    def __init__(self, seed, workdir, deadline):
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(_thread_env())
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )

    def spawn(self, argv, log_dir):
        """Run argv to completion; return (exit code, wall seconds, max RSS in MB)."""
        with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise BenchError(f"{' '.join(argv[1:4])} still running after {RUN_LIMIT_S:.0f} s; killed")
        return code, wall, usage.ru_maxrss / 1024.0

    def setup_times(self, modules):
        """Import time of a fresh interpreter loading the workload's modules."""
        log_dir = self.workdir / "setup"
        log_dir.mkdir(parents=True, exist_ok=True)
        stmt = "import " + ", ".join(f"mcbrick.{m}" for m in modules)
        times = []
        for _ in range(SETUP_REPEATS + 1):  # the first one compiles and warms caches
            code, wall, _ = self.spawn([sys.executable, "-c", stmt], log_dir)
            if code != 0:
                raise BenchError(f"importing {modules} failed: "
                                 + (log_dir / "stderr.txt").read_text()[-500:])
            times.append(wall)
        return times[1:]

    def run_command(self, command, outdir, traced):
        outdir.mkdir(parents=True)
        cli = [*command.args, "--seed", str(self.seed), "--out-dir", str(outdir)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(outdir / "trace.json"), *cli]
        else:
            argv = [sys.executable, "-m", "mcbrick.cli", *cli]
        code, wall, rss = self.spawn(argv, outdir)
        stderr = (outdir / "stderr.txt").read_text(errors="replace")
        outcome = Outcome(command.args, code, wall, rss)
        verdict = Verdict(outdir, stderr, self.seed)
        if code != command.expect_code:
            verdict.problems.append(f"exit code {code}, expected {command.expect_code}: "
                                    + stderr.strip()[-300:])
        else:
            try:
                command.check(verdict)
            except Exception as exc:  # a broken output fails the command, not the run
                verdict.problems.append(f"output check raised {exc!r}")
        outcome.problems, outcome.diagnostics = verdict.problems, verdict.diagnostics
        record = outdir / f"{command.subcommand}-runrecord.json"
        if record.exists():
            outcome.handler_s = json.loads(record.read_text())["wall_time_s"]
        if traced and (outdir / "trace.json").exists():
            outcome.trace = json.loads((outdir / "trace.json").read_text())
        return outcome

    def run_pass(self, commands, index, traced=False):
        pass_dir = self.workdir / f"pass{index}"
        try:
            return [self.run_command(c, pass_dir / f"{i:02d}-{c.subcommand}", traced)
                    for i, c in enumerate(commands)]
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)


def _thread_env():
    n = str(min(THREADS, os.cpu_count() or 1))
    return {"OMP_NUM_THREADS": n, "OPENBLAS_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def _environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": _thread_env(),
        "seed": seed,
    }


def _pass_wall(outcomes):
    return sum(o.wall_s for o in outcomes)


def _cli_metrics(outcomes):
    m = {}
    for sub in SUBCOMMANDS:
        mine = [o for o in outcomes if o.subcommand == sub]
        m[f"cli.{sub}.wall_s"] = sum(o.wall_s for o in mine)
        m[f"cli.{sub}.handler_s"] = sum(o.handler_s for o in mine)
        m[f"cli.{sub}.rss_mb"] = max((o.rss_mb for o in mine), default=0.0)
    m["cli.overhead_s"] = sum(o.wall_s - o.handler_s for o in outcomes)
    return m


def merge_traces(traces):
    """Sum per-function figures and counters over the commands of a pass."""
    functions, counts, tagged, missing = {}, {}, [], set()
    for tr in traces:
        for name, row in tr["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
        tagged += tr["tagged"]
        missing.update(tr["missing"])
    return functions, counts, tagged, sorted(missing)


def baseline_times(tagged):
    """Mean traced duration at each ROADMAP baseline size (0.0 where not run)."""
    out = {}
    for metric, (name, tag, _) in ROADMAP_BASELINES.items():
        xs = [d for n, t, d in tagged if n == name and all(t.get(k) == v for k, v in tag.items())]
        out[metric] = statistics.fmean(xs) if xs else 0.0
    return out


def bypass_guard(workload, functions, missing):
    """Problems with the workload's layer predictions, from completed-call counts."""
    problems = [f"wrapped function {name} no longer exists" for name in missing]
    for t in TARGETS:
        done = functions.get(t.name, {}).get("completed", 0)
        if t.module in BYPASSED[workload] and done:
            problems.append(f"{t.name} completed {done} calls; {workload} must bypass {t.module}")
        if workload in HOME[t.name] and not done and t.name not in missing:
            problems.append(f"{t.name} was not called; {workload} must exercise it")
    return problems


def layer_metrics(workload, untraced, traced):
    """Per-layer metrics of a traced run, plus the guard's problems."""
    functions, counts, tagged, missing = merge_traces(o.trace for o in traced if o.trace)
    m = _cli_metrics(untraced)
    for t in TARGETS:
        row = functions.get(t.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m[f"{t.name}.calls"] = row["calls"]
        m[f"{t.name}.s"] = row["s"]
        if t.self_time:
            m[f"{t.name}.self_s"] = row["self_s"]
    m.update({name: counts.get(name, 0) for name in COUNTERS})
    baselines = baseline_times(tagged)
    m.update(baselines)
    diags = {}
    for o in untraced:
        diags.update(o.diagnostics)
    m.update({name: diags[name]["value"] if name in diags else 0.0 for name in DIAGNOSTICS})
    m["trace.overhead_s"] = _pass_wall(traced) - _pass_wall(untraced)
    comparison = {
        name: {"traced_s": baselines[name], "roadmap_s": ref,
               "ratio": baselines[name] / ref if baselines[name] else None}
        for name, (_, _, ref) in ROADMAP_BASELINES.items()
    }
    return m, bypass_guard(workload, functions, missing), diags, comparison


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "mcbrick" / "cli.py").is_file():
        print(f"bench: no mcbrick source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(_thread_env())  # before this process loads numpy for the checks
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.monotonic()
    workdir = RUNS / f"work-{os.getpid()}"
    runner = Runner(args.seed, workdir, started + RUN_LIMIT_S)
    commands = WORKLOADS[args.workload]
    try:
        setup = runner.setup_times(IMPORTS[args.workload])
        passes = []
        if args.trace:
            passes = [runner.run_pass(commands, 0), runner.run_pass(commands, 1, traced=True)]
        else:
            t0 = time.monotonic()
            while True:
                passes.append(runner.run_pass(commands, len(passes)))
                elapsed = time.monotonic() - t0
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    failed = sum(bool(o.problems) for o in outcomes)
    record = {"workload": args.workload, "environment": _environment(args.seed),
              "trace": args.trace, "setup_samples_s": setup,
              "pass_walls_s": [_pass_wall(p) for p in passes],
              "commands": [{"args": o.args, "code": o.code, "wall_s": o.wall_s,
                            "handler_s": o.handler_s, "rss_mb": o.rss_mb,
                            "problems": o.problems} for o in outcomes]}
    guard = []
    if args.trace:
        metrics, guard, diags, comparison = layer_metrics(args.workload, *passes)
        record.update(diagnostics=diags, roadmap_baselines=comparison, guard_problems=guard)
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": statistics.median(record["pass_walls_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
        }
        units = END_TO_END
    record["metrics"] = metrics
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED {o.subcommand}: {problem}")
    for problem in guard:
        print(f"GUARD {problem}")
    if args.trace:
        for name, c in record["roadmap_baselines"].items():
            if c["ratio"] is not None:
                print(f"baseline {name}: traced {c['traced_s']:.3f} s vs ROADMAP "
                      f"{c['roadmap_s']} s (ratio {c['ratio']:.2f})")
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), "
          f"{len(outcomes)} commands, environment {json.dumps(record['environment'])}")
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        if name in metrics:
            print(f"  {name} {metrics[name]:.4f} {units[name]}")
    print(f"  failed_frac {failed / len(outcomes):.4f} ratio ({failed} of {len(outcomes)})")
    print(json.dumps({
        "correct": failed == 0 and not guard,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
