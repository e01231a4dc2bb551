"""Benchmark of the scopal three-stage loop on generated workload configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Each repetition runs in a fresh
process (``perfbench/rep.py``) with a fresh output directory: it times
set-up, calls ``scopal.cli.main`` once per stage (interact, estimate, train,
evaluate, regret) and checks every stage's artifacts.  Repetition ``k`` runs
input ``k``, a config generated from ``--seed`` and ``k``; repetitions on
the same input must write byte-identical artifacts.  Repetitions continue
while the next one fits in ``--seconds``, and every time reported is the
median over repetitions, so a run averages over several inputs.

``--trace 0`` prints every stage time and reports the end-to-end metrics
(set-up time, pipeline time and peak RSS) with ``jobs`` = min(2, nproc);
input 0 runs twice so that every run checks repeatability.  The single stage
times are printed but not reported as end-to-end metrics: on a shared 2-vCPU
host their spread between runs reaches the largest bound a metric may have.
``--trace 1`` runs each input untraced and then traced, both with ``jobs`` =
1, and reports the stage times of the untraced repetitions, the per-layer
metrics of the traced ones and the tracing overhead; spans and counters go
to ``.perfbench/traces/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``
(stages run), ``failed`` (stages that exited non-zero or failed a check) and
``metrics``.  Exit code 2 means the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
STAGES = ("interact", "estimate", "train", "evaluate", "regret")
STAGE_TIMES = {f"{stage}_s": "s" for stage in STAGES}
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
QUALITY = {"eval_win_rate": "fraction", "regret_mean": "fraction"}
MIN_REPS = 2  # untraced runs; a traced run makes at least one untraced/traced pair
MAX_REPS = 50
SEED_STRIDE = 1000  # more than MAX_REPS, so inputs of different seeds never coincide
RUN_LIMIT_S = 170.0  # a whole run must end well within 180 s


class Runner:
    """Starts repetition processes in one work directory and collects their results.

    Repetition input ``k`` of seed ``s`` runs scopal with seed ``s * SEED_STRIDE + k``,
    so a run averages over several generated inputs and the same seed always
    yields the same inputs.
    """

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SCOPAL_")}

    def rep(self, index: int, jobs: int, trace_dir: Path | None = None) -> dict | None:
        """Run one repetition on input ``index``; None if its process failed."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count}"
        rep_dir.mkdir(parents=True)
        config = rep_dir / "config.ini"
        config.write_text(config_text(self.workload, self.seed * SEED_STRIDE + index, jobs,
                                      str(rep_dir / "runs"), smoke=self.smoke))
        result = rep_dir / "result.json"
        cmd = [sys.executable, str(REP), "--config", str(config), "--result", str(result)]
        if trace_dir is not None:
            cmd += ["--trace", str(trace_dir / f"{self.workload}-s{self.seed}-i{index}.json")]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"repetition {self.count} ran past the run's time limit", file=sys.stderr)
        finally:
            _stop_group(proc)
        data = json.loads(result.read_text()) if proc.returncode == 0 and result.exists() else None
        shutil.rmtree(rep_dir / "runs", ignore_errors=True)
        if data is not None:
            data["input"] = index
        return data


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a repetition's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _repeat(one, seconds: float, start: float, least: int) -> list:
    """Call ``one(k)`` for k = 0, 1, ... at least ``least`` times, then while another fits."""
    results, durations = [], []
    while len(results) < least or (
            len(results) < MAX_REPS
            and time.monotonic() - start + statistics.median(durations) <= seconds):
        begin = time.monotonic()
        results.append(one(len(results)))
        durations.append(time.monotonic() - begin)
    return results


def _check_repeatable(reps: list[dict]) -> None:
    """Repetitions on the same input must write byte-identical artifacts."""
    first: dict[int, dict] = {}
    for rep in reps:
        reference = first.setdefault(rep["input"], rep)
        for stage in STAGES:
            entry = rep["stages"][stage]
            if entry["sha256"] != reference["stages"][stage]["sha256"]:
                entry["problems"].append("artifact differs from an earlier repetition "
                                         "on the same input")


def _pipeline(rep: dict) -> float:
    return sum(rep["stages"][stage]["seconds"] for stage in STAGES)


def _samples(reps: list[dict]) -> dict[str, list[float]]:
    samples = {f"{stage}_s": [r["stages"][stage]["seconds"] for r in reps] for stage in STAGES}
    samples["setup_s"] = [r["setup_s"] for r in reps]
    samples["pipeline_s"] = [_pipeline(r) for r in reps]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
    return samples


def _print_samples(samples: dict[str, list[float]], units: dict[str, str]) -> None:
    for name, unit in units.items():
        values = samples[name]
        print(f"  {name:<40} {statistics.median(values):>14.6g} {unit:<9} "
              f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scopal pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int,
                        help="episode workers, at most nproc (default: min(2, nproc); "
                             "traced runs use 1)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every stage to a few episodes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scopal" / "cli.py").is_file():
        print(f"no scopal sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    jobs = args.jobs if args.jobs is not None else min(2, nproc)
    if not 1 <= jobs <= nproc:
        print(f"jobs = {jobs} is outside 1..nproc = {nproc}", file=sys.stderr)
        return 2
    if args.trace:
        jobs = 1  # pool workers would take their calls out of the tracer's sight

    start = time.monotonic()
    compileall.compile_dir(ROOT / "src", quiet=1)  # keep bytecode compilation out of set-up
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, args.scale == "smoke", work,
                    start + RUN_LIMIT_S)
    try:
        if args.trace:
            # each input runs untraced, then traced: tracing must not change any artifact
            pairs = _repeat(lambda k: (runner.rep(k, jobs), runner.rep(k, jobs, trace_dir)),
                            args.seconds, start, least=1)
            reps = [rep for pair in pairs for rep in pair]
        else:
            # input 0 runs twice, so every run checks that its artifacts are repeatable
            reps = _repeat(lambda k: runner.rep(max(0, k - 1), jobs), args.seconds, start,
                           least=MIN_REPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [rep for rep in reps if rep is not None]
    if done:
        _check_repeatable(done)
    attempted = len(STAGES) * len(reps)
    failed = len(STAGES) * (len(reps) - len(done))
    for index, rep in enumerate(done):
        for stage in STAGES:
            for problem in rep["stages"][stage]["problems"]:
                print(f"repetition {index + 1} {stage}: {problem}", file=sys.stderr)
            failed += bool(rep["stages"][stage]["problems"])

    numpy_version = done[0]["numpy"] if done else "unknown"
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  jobs {jobs}  nproc {nproc}")
    print(f"git {_git_sha()}  python {platform.python_version()}  numpy {numpy_version}")
    print(f"repetitions {len(reps)}  stage_failures {failed}/{attempted} count/attempted")
    metrics: dict[str, dict] = {}
    if done:
        untraced = [rep for rep in done if "layers" not in rep]
        samples = _samples(untraced) if untraced else {}
        if samples:
            print("end to end" + (" (untraced, jobs 1)" if args.trace else ""))
            _print_samples(samples, {**STAGE_TIMES, **END_TO_END})
        figures = done[0]["figures"]
        for name, unit in QUALITY.items():
            if name in figures:
                print(f"  {name:<40} {figures[name]:>14.6g} {unit:<9} (input 0, deterministic)")
        if args.trace:
            metrics = _layer_metrics(done, samples)
        elif samples:
            metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": bool(done) and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(done: list[dict], samples: dict[str, list[float]]) -> dict[str, dict]:
    """Stage times of the untraced repetitions, then the traced repetitions' layers."""
    traced = [rep for rep in done if "layers" in rep]
    if not traced or not samples:
        return {}
    print("per layer (stage times untraced, the rest traced; jobs 1)")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in STAGE_TIMES.items()}
    for name, entry in traced[0]["layers"].items():
        value = statistics.median_low(rep["layers"][name]["value"] for rep in traced)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    traced_s = statistics.median(_pipeline(rep) for rep in traced)
    untraced_s = statistics.median(samples["pipeline_s"])
    metrics["trace.pipeline_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_pipeline_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
