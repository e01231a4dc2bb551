"""Benchmark workloads: each one turns the run's seed into a scopal config file.

A workload is a set of config sections.  ``config_text`` adds the ``[run]``
seed, worker count and output directory, so the program only ever sees the
generated file.  The ``smoke`` overrides shrink every stage to a few episodes
for the benchmark's own smoke test; measured runs use the full sizes.

The full sizes keep every stage at 0.3 s or more on a 2-vCPU host, so that
fixed per-stage costs do not dominate a stage's time.  The estimate stage is
the smallest: it is one pass over the store, while interact and train are
many policy or MCTS calls per step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

ALL_GAMES = "tictactoe,connect4,breakthrough,kuhn_poker,liars_dice,nim"


@dataclass(frozen=True)
class Workload:
    why: str
    sections: dict[str, dict[str, str]]
    smoke: dict[str, dict[str, str]] = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    # Stage III is about half of the pipeline: BC then KTO over about 18k
    # labelled steps, so the refine/policy/features layers carry the time.
    # MCTS runs only in evaluate (mcts:100) and regret (the mcts:1000
    # opponent).  A feature cache (ROADMAP item 2) should move train_s here.
    "selfplay_kto": Workload(
        why="paper loop: six games, policy vs self, win_rate labels, BC then KTO; "
            "train_s is about half of the pipeline (refine, policy, features)",
        sections={
            "run": {"games": ALL_GAMES},
            "interact": {"agent": "policy", "opponent": "self", "episodes": "300"},
            "rewards": {"estimator": "win_rate"},
            "train": {"mode": "two_stage", "epochs": "1"},
            "eval": {"opponents": "random,mcts:100", "episodes": "10"},
        },
        smoke={"interact": {"episodes": "4"},
               "eval": {"opponents": "random,mcts:5", "episodes": "2"}},
    ),
    # Stage I is about half of the pipeline, most of it UCT rollouts and the
    # rest policy sampling.  SPAG training replays the store and uses every
    # occurrence with full reference distributions.  Large boards repeat few
    # states, so a state-keyed cache gets few hits and its cost shows in
    # train_s and peak_rss_mb.  MCTS and the game kernels run in interact,
    # evaluate and regret, so evaluation parallelism and faster kernels show
    # here too.
    "spag_vs_uct": Workload(
        why="policy vs mcts:20 on 6x6 breakthrough, connect4 and nim, SPAG on every "
            "occurrence; interact_s, mostly UCT rollouts, is about half of the pipeline",
        sections={
            "run": {"games": "breakthrough_6x6,connect4,nim"},
            "interact": {"agent": "policy", "opponent": "mcts:20", "episodes": "200"},
            "rewards": {"estimator": "discounted", "actors": "all"},
            "train": {"mode": "spag", "epochs": "1"},
            "eval": {"opponents": "random,mcts:20", "episodes": "20"},
        },
        smoke={"interact": {"episodes": "4", "opponent": "mcts:5"},
               "eval": {"opponents": "random,mcts:5", "episodes": "2"}},
    ),
}


def config_text(name: str, seed: int, jobs: int, out: str, smoke: bool = False) -> str:
    """INI text of workload ``name`` for one seed, worker count and output directory."""
    workload = WORKLOADS[name]
    sections = {section: dict(values) for section, values in workload.sections.items()}
    if smoke:
        for section, values in workload.smoke.items():
            sections.setdefault(section, {}).update(values)
    sections["run"].update({"seed": str(seed), "jobs": str(jobs), "out": out})
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)
