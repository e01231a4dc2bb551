"""One benchmark repetition, run in a fresh process.

Times set-up (importing ``scopal.cli``, loading the workload config and
building a new policy), then calls ``scopal.cli.main`` once per stage and
checks each stage's artifacts.  Writes one JSON result file.  With
``--trace`` it wraps the scopal layers while each stage runs (not while its
checks run) and also writes the trace.

    python3 perfbench/rep.py --config CFG --result OUT.json [--trace TRACE.json]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("interact", "estimate", "train", "evaluate", "regret")


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process and its finished pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports kilobytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", metavar="PATH")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from scopal import cli
    from scopal.config import load_config
    from scopal.policy import new_policy

    config = load_config(args.config)
    new_policy(config.games)
    setup_s = time.perf_counter() - start

    import numpy

    result = {"setup_s": setup_s, "numpy": numpy.__version__, "stages": {}}
    from checks import ARTIFACTS, CHECKS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(Path(args.trace).stem)
    run_dir = Path(config.out) / config.run_id()
    figures: dict[str, float] = {}
    for stage in STAGES:
        printed = io.StringIO()
        timed = tracer.stage(stage) if tracer else contextlib.nullcontext()
        begin = time.perf_counter()
        with timed, contextlib.redirect_stdout(printed):
            code = cli.main(["--config", args.config, stage])
        seconds = time.perf_counter() - begin
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                found, stage_figures = CHECKS[stage](config, run_dir, printed.getvalue())
            except (OSError, ValueError, KeyError) as err:
                found, stage_figures = [f"artifacts unreadable: {err!r}"], {}
            problems += found
            figures.update(stage_figures)
        result["stages"][stage] = {
            "seconds": seconds,
            "problems": problems,
            "sha256": _sha256(ARTIFACTS[stage](config, run_dir)),
        }
    result["peak_rss_mb"] = _peak_rss_mb()
    result["figures"] = figures
    if tracer is not None:
        layers = tracer.layer_metrics()
        for metric, figure, unit in (("interaction.store_bytes", "store_bytes", "bytes"),
                                     ("rewards.n_D", "n_D", "count"),
                                     ("rewards.n_U", "n_U", "count"),
                                     ("evaluation.avg_win_rate", "eval_win_rate", "fraction"),
                                     ("evaluation.regret_mean", "regret_mean", "fraction")):
            layers[metric] = (figures.get(figure, 0), unit)
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
        tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
