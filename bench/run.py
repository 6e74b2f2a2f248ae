"""Seeded end-to-end benchmark of the ebitcalc command line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --write-inputs DIR

With ``--trace 0`` every call is a fresh ``python -m ebitcalc`` process
(``src`` on the path), run one at a time, and the last stdout line is a
JSON object with the end-to-end metrics.  With ``--trace 1`` the same
calls run in-process under the span tracer in tracing.py and the metrics
are per layer.  ``--write-inputs`` only writes the run's input files and
prints the call list, for replaying a failed call.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CALL_TIMEOUT_S = 120
# One set-up call is timed before every SETUP_EVERY workload calls, so
# the set-up samples spread over the whole run.
SETUP_EVERY = 4


# One BLAS/OpenMP thread everywhere: set before numpy is first imported,
# and inherited by every CLI child.
SINGLE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def child_env() -> dict[str, str]:
    """Environment for CLI children: ``src`` on the path, fixed hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(calls, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for call in calls:
        for name, text in call.files.items():
            (directory / name).write_text(text, encoding="ascii")


def cli_argv(call, directory: Path) -> list[str]:
    """The ebitcalc arguments of ``call`` with file names placed in ``directory``."""
    return [str(directory / a) if a in call.files else a for a in call.argv]


def check_output(stdout: str, expect: dict) -> str | None:
    """None when the last stdout line is JSON holding every expected field."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        got = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"output is not JSON: {lines[-1][:200]!r}"
    wrong = {k: got.get(k) for k, v in expect.items() if got.get(k) != v}
    if wrong:
        return f"expected {dict((k, expect[k]) for k in wrong)}, got {wrong}"
    return None


def tail_percentile(samples: list[float]) -> float:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it.

    Nearest-rank: the value at position ceil(p * N) of the sorted list.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = ordered[-1]
    for p in (75, 90, 95, 99):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            best = ordered[rank - 1]
    return best


class Tally:
    """Counts calls and failures; prints a ready-to-paste replay per failure."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def report(self, index, call, reason: str, wrong_answer: bool) -> None:
        self.failed += 1
        self.wrong += wrong_answer
        replay_dir = Path(".bench_work") / f"replay-{self.workload}-{self.seed}"
        print(
            f"FAILED {self.workload} seed={self.seed} call={index}: {reason}\n"
            f"  replay: python3 bench/run.py --workload {self.workload} --seed {self.seed}"
            f" --write-inputs {replay_dir} && PYTHONPATH=src python3 -m ebitcalc "
            + " ".join(cli_argv(call, replay_dir)),
            file=sys.stderr,
        )

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


@contextlib.contextmanager
def run_inputs(workload: str, seed: int):
    """The call list for ``seed``, its files written to a fresh directory.

    Yields (set-up call, calls, directory); the directory is removed after.
    """
    import workloads

    calls = workloads.build(workload, seed)
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        write_inputs([workloads.SETUP, *calls], directory)
        yield workloads.SETUP, calls, directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_cli(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess | None]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ebitcalc", *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, proc


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    env = child_env()
    tally = Tally(workload, seed)
    call_times: list[float] = []
    setup_times: list[float] = []

    def one(index, call, directory, times):
        tally.attempted += 1
        elapsed, proc = run_cli(cli_argv(call, directory), env)
        if proc is None:
            tally.report(index, call, f"no exit within {CALL_TIMEOUT_S} s", False)
        elif proc.returncode != 0:
            tally.report(
                index, call, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}", False
            )
        else:
            problem = check_output(proc.stdout, call.expect)
            if problem:
                tally.report(index, call, problem, True)
            elif times is not None:
                times.append(elapsed)

    with run_inputs(workload, seed) as (setup, calls, directory):
        # Untimed: compiles the package's bytecode and warms the file cache.
        one("warm-up", setup, directory, None)
        start = time.perf_counter()
        rounds = 0
        # Whole rounds only; another round starts only if it should end in time.
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            for index, call in enumerate(calls):
                if index % SETUP_EVERY == 0:
                    one("setup", setup, directory, setup_times)
                one(index, call, directory, call_times)
            rounds += 1

    if not (call_times and setup_times):
        return tally.result({})
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return tally.result(
        {
            "setup_s": (statistics.median(setup_times), "s"),
            "call_p50_s": (statistics.median(call_times), "s"),
            "call_tail_s": (tail_percentile(call_times), "s"),
            "calls_per_s": (len(call_times) / sum(call_times), "1/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    )


def run_traced(workload: str, seed: int) -> dict:
    """Per-layer metrics from an in-process run of the same calls.

    Each call runs twice in-process, once with the span tracer installed
    and once without, alternating which goes first; the difference is
    the tracer's overhead.  The spans are written to .bench_work.
    """
    import tracing

    env = child_env()
    tally = Tally(workload, seed)
    sys.path.insert(0, str(SRC))
    from ebitcalc import cli

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    imports: list[tuple[float, float]] = []

    def one(index, call, directory, with_tracer: bool):
        tally.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        argv = cli_argv(call, directory)
        if with_tracer:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                if with_tracer:
                    code = tracer.span("cli.main", index, cli.main, argv)
                else:
                    code = cli.main(argv)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a crash fails this call, not the run
            tally.report(index, call, f"raised {exc!r}", False)
            return None
        finally:
            tracer.uninstall()
        if code != 0:
            tally.report(index, call, f"exit {code}: {err.getvalue().strip()[-300:]}", False)
            return None
        problem = check_output(out.getvalue(), call.expect)
        if problem:
            tally.report(index, call, problem, True)
            return None
        return elapsed

    with run_inputs(workload, seed) as (setup, calls, directory):
        for _ in range(3):
            tally.attempted += 1
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "ebitcalc",
                 *cli_argv(setup, directory)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
            )
            problem = check_output(proc.stdout, setup.expect)
            if proc.returncode != 0 or problem:
                tally.report("import-time", setup, problem or "nonzero exit", bool(problem))
            else:
                imports.append(tracing.import_times(proc.stderr))
        one("warm-up", setup, directory, False)
        for index, call in enumerate(calls):
            order = (False, True) if index % 2 == 0 else (True, False)
            for with_tracer in order:
                elapsed = one(index, call, directory, with_tracer)
                if elapsed is not None:
                    (traced if with_tracer else plain).append(elapsed)
    (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(tracer.to_records()))

    if not (plain and traced and imports):
        return tally.result({})
    values = tracer.layer_metrics(len(traced))
    values["import.numpy_s"] = statistics.median(i[0] for i in imports)
    values["import.ebitcalc_s"] = statistics.median(i[1] for i in imports)
    values["cli.main_s"] = sum(plain) / len(plain)
    values["trace.overhead_s"] = sum(traced) / len(traced) - values["cli.main_s"]
    return tally.result({name: (values[name], unit) for name, unit in tracing.METRICS.items()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-inputs",
        metavar="DIR",
        help="write the run's input files to DIR, print the calls, and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "ebitcalc" / "cli.py").is_file():
        print(f"error: no ebitcalc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose one of "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    if args.write_inputs:
        directory = Path(args.write_inputs)
        calls = workloads.build(args.workload, args.seed)
        write_inputs([workloads.SETUP, *calls], directory)
        for index, call in enumerate(calls):
            print(index, " ".join(cli_argv(call, directory)))
        return 0
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
