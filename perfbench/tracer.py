"""Per-layer tracing for the benchmark's traced run.

``Tracer.stage`` wraps public functions of the ``scopal`` modules from
outside while one CLI stage runs, replacing every module-level reference and
class attribute that points at the original, and puts the originals back
when the stage ends.  No file of the program changes, and calls made between
stages (the benchmark's own checks) are not counted.  Coarse calls
(a stage, a match, a training loop) each record a span: id, parent id,
name, start and end.  Hot kernels (game rules, features, policy methods,
losses, MCTS, the solver) keep only a call count, total time and self time.

Self time is a call's duration minus the time covered by wrapped calls made
inside it.  Book-keeping done by the tracer between calls is counted as
child time of the enclosing call, so it lands in no layer's self time; it
shows only in the tracing overhead, which the benchmark reports as traced
minus untraced pipeline time.  Everything stays in memory until ``write``.
"""
from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager

GAME_KERNELS = ("legal_actions", "apply", "outcome", "random_playout", "canonical_key")
POLICY_METHODS = ("logits", "log_prob_and_grad", "log_prob", "sample_action")


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stage_calls: dict[str, dict[str, int]] = {}
        self.counts: dict[str, int] = {}  # counters taken from arguments and results
        self.feature_keys: set[str] = set()
        self._child = [0.0]  # child time of each open call; index 0 is the root
        self._open = [0]  # ids of open spans; 0 is the root
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, span=False, after=None):
        """Traced stand-in for ``fn``; ``after(args, result)`` is book-keeping."""
        call = self._spanned(name, fn) if span else self._counted(name, fn)
        if after is None:
            return call
        child, perf = self._child, time.perf_counter

        def traced(*args, **kwargs):
            result = call(*args, **kwargs)
            start = perf()
            after(args, result)
            child[-1] += perf() - start
            return result

        return traced

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _counted(self, name, fn):
        """Count, total and self time only: the accounting of ``span``, inlined for hot calls."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        perf = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child.pop()
                child[-1] += elapsed

        return traced

    def _wrap_generator(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stat[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                start = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = perf() - start
                    stat[1] += elapsed
                    stat[2] += elapsed - child.pop()
                    child[-1] += elapsed
                yield item

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, wrapped) -> None:
        """Point every scopal module-level reference to ``original`` at ``wrapped``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "scopal" and not mod_name.startswith("scopal."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def _patch_function(self, module, attr, name, **options):
        original = getattr(module, attr)
        self._replace(original, self._wrap(name, original, **options))

    def _patch_method(self, cls, attr, name, **options):
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **options))

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        """Wrap the scopal layers, after the modules are imported; ``uninstall`` undoes it."""
        from scopal import (agents, evaluation, features, interaction, mcts, policy, refine,
                            rewards, solvers)
        from scopal.games import GAME_NAMES, Game, get_game

        game_classes = {Game} | {type(get_game(n)) for n in GAME_NAMES}
        key_of = {cls: cls.canonical_key for cls in game_classes}

        def feature_key(args, result):
            game, state, action = args
            self.feature_keys.add(key_of[type(game)](game, state, action))

        self._patch_function(features, "features", "features", after=feature_key)
        for cls in sorted(game_classes, key=lambda c: c.__name__):
            for attr in GAME_KERNELS:
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, f"games.{attr}")
        for attr in POLICY_METHODS:
            self._patch_method(policy.Policy, attr, f"policy.{attr}")
        for cls, label in ((agents.PolicyAgent, "policy"), (agents.MctsAgent, "mcts"),
                           (agents.RandomAgent, "random")):
            self._patch_method(cls, "act", f"agents.{label}.act")
        self._patch_function(mcts, "mcts_act", "mcts.mcts_act",
                             after=lambda a, r: self._count("mcts.simulations",
                                                            a[2].max_simulations))
        self._patch_method(solvers.MinimaxSolver, "value", "solvers.value")

        def trajectories(args, result):
            self._count("interaction.episodes", len(result))
            self._count("interaction.steps", sum(len(t.steps) for t in result))

        self._patch_function(interaction, "collect_trajectories",
                             "interaction.collect_trajectories", span=True, after=trajectories)
        self._patch_function(interaction, "run_episode", "interaction.run_episode")
        for attr in ("write_trajectories", "read_trajectories"):
            self._patch_function(interaction, attr, f"interaction.{attr}", span=True)
        self._replace(interaction.replay,
                      self._wrap_generator("interaction.replay", interaction.replay))

        def distinct_keys(args, result):
            self.counts["rewards.distinct_keys"] = len(result)

        self._patch_function(rewards, "accumulate_stats", "rewards.accumulate_stats", span=True,
                             after=distinct_keys)
        for attr in ("estimate_rewards", "collect_representatives", "label_steps",
                     "write_labeled", "read_labeled"):
            self._patch_function(rewards, attr, f"rewards.{attr}", span=True)

        def visits(position):
            """Count the steps a loss call visits."""
            return lambda args, result: self._count("refine.step_visits", len(args[position]))

        self._patch_function(refine, "bc_loss", "refine.bc_loss", after=visits(1))
        self._patch_function(refine, "kto_loss", "refine.kto_loss", after=visits(2))
        self._patch_function(refine, "kto_mismatch_z0", "refine.kto_mismatch_z0")
        self._patch_function(refine, "spag_loss", "refine.spag_loss", after=visits(2))
        for attr in ("train_two_stage", "train_bc", "train_kto", "train_spag",
                     "build_advantage_steps"):
            self._patch_function(refine, attr, f"refine.{attr}", span=True)

        def episodes(args, result):
            self._count("evaluation.episodes", result.episodes)

        self._patch_function(evaluation, "tournament", "evaluation.tournament", span=True)
        for attr in ("play_match", "regret"):
            self._patch_function(evaluation, attr, f"evaluation.{attr}", span=True,
                                 after=episodes)

    def uninstall(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- stages ----------------------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        """Trace one CLI stage and record the calls each layer made during it."""
        before = {key: stat[0] for key, stat in self.stats.items()}
        self.install()
        try:
            with self.span(f"stage.{name}"):
                yield
        finally:
            self.uninstall()
        self.stage_calls[name] = {key: stat[0] - before.get(key, 0)
                                  for key, stat in self.stats.items()
                                  if stat[0] != before.get(key, 0)}

    @contextmanager
    def span(self, name: str):
        """Record the with-block as a span nested under the innermost open one."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        sid = next(self._ids)
        parent = self._open[-1]
        self._open.append(sid)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - self._child.pop()
            self._open.pop()
            self.spans.append((sid, parent, name, start, end))
            self._child[-1] += elapsed

    # -- results ---------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures of this traced repetition, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def calls_self(prefix: str, name: str) -> None:
            calls, _, self_s = self._stat(name)
            out[f"{prefix}.calls"] = (calls, "count")
            out[f"{prefix}.self_s"] = (self_s, "s")

        for attr in GAME_KERNELS:
            calls_self(f"games.{attr}", f"games.{attr}")
        searches, mcts_total, mcts_self = self._stat("mcts.mcts_act")
        sims = self.counts.get("mcts.simulations", 0)
        out["mcts.searches"] = (searches, "count")
        out["mcts.simulations"] = (sims, "count")
        out["mcts.self_s"] = (mcts_self, "s")
        out["mcts.sims_per_s"] = (sims / mcts_total if mcts_total else 0.0, "1/s")

        calls_self("features", "features")
        feature_calls = self._stat("features")[0]
        visits = self.counts.get("refine.step_visits", 0)
        train_feature_calls = self.stage_calls.get("train", {}).get("features", 0)
        out["features.calls_per_step_visit"] = (
            train_feature_calls / visits if visits else 0.0, "ratio")
        out["features.distinct_ratio"] = (
            len(self.feature_keys) / feature_calls if feature_calls else 0.0, "ratio")

        for attr in POLICY_METHODS:
            calls_self(f"policy.{attr}", f"policy.{attr}")
        for label in ("policy", "mcts", "random"):
            out[f"agents.{label}.act_s"] = (self._stat(f"agents.{label}.act")[1], "s")

        out["interaction.episodes"] = (self.counts.get("interaction.episodes", 0), "count")
        out["interaction.steps"] = (self.counts.get("interaction.steps", 0), "count")
        out["interaction.run_episode.self_s"] = (self._stat("interaction.run_episode")[2], "s")
        out["interaction.write_s"] = (self._stat("interaction.write_trajectories")[1], "s")
        out["interaction.read_s"] = (self._stat("interaction.read_trajectories")[1], "s")
        out["interaction.replay.self_s"] = (self._stat("interaction.replay")[2], "s")

        for attr in ("accumulate_stats", "collect_representatives", "label_steps",
                     "write_labeled", "read_labeled"):
            out[f"rewards.{attr}_s"] = (self._stat(f"rewards.{attr}")[1], "s")
        out["rewards.distinct_keys"] = (self.counts.get("rewards.distinct_keys", 0), "count")

        for attr in ("bc_loss", "kto_loss", "kto_mismatch_z0", "spag_loss"):
            calls_self(f"refine.{attr}", f"refine.{attr}")
        loss_time = sum(self._stat(f"refine.{attr}")[1]
                        for attr in ("bc_loss", "kto_loss", "spag_loss"))
        out["refine.step_visits"] = (visits, "count")
        out["refine.step_visits_per_s"] = (visits / loss_time if loss_time else 0.0, "1/s")

        out["evaluation.play_match.self_s"] = (self._stat("evaluation.play_match")[2], "s")
        out["evaluation.regret.self_s"] = (self._stat("evaluation.regret")[2], "s")
        out["evaluation.episodes"] = (self.counts.get("evaluation.episodes", 0), "count")

        from scopal.solvers import _SOLVERS

        calls, _, self_s = self._stat("solvers.value")
        memo = sum(len(solver._memo) for solver in _SOLVERS.values())
        out["solvers.value.calls"] = (calls, "count")
        out["solvers.memo_entries"] = (memo, "count")
        out["solvers.self_s"] = (self_s, "s")
        return out

    def write(self, path) -> None:
        """Write the spans, counters and per-stage call counts as one JSON file."""
        data = {
            "trace_id": self.trace_id,
            "spans": [{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                      for sid, parent, name, start, end in self.spans],
            "counters": {name: {"calls": c, "total_s": t, "self_s": s}
                         for name, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "stage_calls": self.stage_calls,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
