"""Layer counters and timers for the traced run.

The tracer wraps public functions of cvqc_lab from outside, at the name
the caller looks up: `partition.jordan_decompose` is where spectral_data
finds the decomposition, `protocol.measure` is where the unitary cheat
measures, and `OracleTable.query` is patched on the class.  Nothing in
the package changes, and the wrappers draw no randomness, so a traced
run computes the same results as an untraced one.

Counts and seconds accumulate per round; `layer_metrics` turns the
snapshots of the measured rounds into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter, defaultdict

# name, unit, better, kind.  Counts must repeat exactly in every measured
# round.  Times and rates are put on the reference machine's speed with
# each round's scale (see speed.py), then reported as medians over the
# measured rounds.
LAYER_METRICS = (
    ("protocol.interactive.trials", "count", "higher", "count"),
    ("protocol.interactive.trial_us", "us", "lower", "time"),
    ("protocol.cheat.trials", "count", "higher", "count"),
    ("protocol.cheat.trial_us", "us", "lower", "time"),
    ("qsim.measure.calls", "count", "lower", "count"),
    ("qsim.measure.s", "s", "lower", "time"),
    ("protocol.fs.trials", "count", "higher", "count"),
    ("protocol.fs.trial_us", "us", "lower", "time"),
    ("protocol.oracle.queries", "count", "lower", "count"),
    ("protocol.oracle.query_us", "us", "lower", "time"),
    ("protocol.fs.queries_per_accept", "queries/accept", "lower", "count"),
    ("effverify.session.calls", "count", "higher", "count"),
    ("effverify.session.ms", "ms", "lower", "time"),
    ("effverify.run_machine.steps", "count", "lower", "count"),
    ("effverify.run_machine.steps_per_s", "1/s", "higher", "rate"),
    ("cli.run.calls", "count", "higher", "count"),
    ("cli.run.s", "s", "lower", "time"),
    ("cli.output_bytes", "bytes", "lower", "count"),
    ("jordan.jordan_decompose.calls", "count", "lower", "count"),
    ("jordan.jordan_decompose.s", "s", "lower", "time"),
    ("partition.spectral_data.misses", "count", "lower", "count"),
    ("partition.spectral_data.miss_s", "s", "lower", "time"),
    ("partition.run_G.calls", "count", "higher", "count"),
    ("partition.run_G.us", "us", "lower", "time"),
    ("partition.partition_chain.calls", "count", "higher", "count"),
    ("partition.partition_chain.us", "us", "lower", "time"),
    ("partition.extract.calls", "count", "higher", "count"),
    ("partition.extract.rounds", "count", "lower", "count"),
    ("partition.extract.us", "us", "lower", "time"),
    ("partition.run_H.calls", "count", "higher", "count"),
    ("partition.run_H.us", "us", "lower", "time"),
    ("setup.import_s", "s", "lower", "time"),
    ("trace.wall_s", "s", "lower", "time"),
)


def _per(total: float, count: float, unit: float = 1.0) -> float:
    return unit * total / count if count else 0.0


class Tracer:
    """Calls, seconds and amounts (trials, steps, bytes) per layer name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.amount: Counter = Counter()
        self._patches: list = []

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.amount.clear()

    def snapshot(self) -> dict:
        """This round's counts and times, keyed by layer metric name."""
        c, s, a = self.calls, self.seconds, self.amount
        fs_accepts = a["protocol.fs.accepts"]
        return {
            "protocol.interactive.trials": a["protocol.interactive.trials"],
            "protocol.interactive.trial_us": _per(
                s["protocol.interactive"], a["protocol.interactive.trials"], 1e6),
            "protocol.cheat.trials": a["protocol.cheat.trials"],
            "protocol.cheat.trial_us": _per(
                s["protocol.cheat"], a["protocol.cheat.trials"], 1e6),
            "qsim.measure.calls": c["qsim.measure"],
            "qsim.measure.s": s["qsim.measure"],
            "protocol.fs.trials": a["protocol.fs.trials"],
            "protocol.fs.trial_us": _per(s["protocol.fs"], a["protocol.fs.trials"], 1e6),
            "protocol.oracle.queries": c["protocol.oracle.query"],
            "protocol.oracle.query_us": _per(
                s["protocol.oracle.query"], c["protocol.oracle.query"], 1e6),
            "protocol.fs.queries_per_accept": _per(a["protocol.fs.queries"], fs_accepts),
            "effverify.session.calls": c["effverify.session"],
            "effverify.session.ms": _per(
                s["effverify.session"], c["effverify.session"], 1e3),
            "effverify.run_machine.steps": a["effverify.run_machine.steps"],
            "effverify.run_machine.steps_per_s": _per(
                a["effverify.run_machine.steps"], s["effverify.run_machine"]),
            "cli.run.calls": c["cli.run"],
            "cli.run.s": s["cli.run"],
            "cli.output_bytes": a["cli.output_bytes"],
            "jordan.jordan_decompose.calls": c["jordan.jordan_decompose"],
            "jordan.jordan_decompose.s": s["jordan.jordan_decompose"],
            "partition.spectral_data.misses": c["partition.spectral_data.miss"],
            "partition.spectral_data.miss_s": s["partition.spectral_data.miss"],
            "partition.run_G.calls": c["partition.run_G"],
            "partition.run_G.us": _per(s["partition.run_G"], c["partition.run_G"], 1e6),
            "partition.partition_chain.calls": c["partition.partition_chain"],
            "partition.partition_chain.us": _per(
                s["partition.partition_chain"], c["partition.partition_chain"], 1e6),
            "partition.extract.calls": c["partition.extract"],
            "partition.extract.rounds": a["partition.extract.rounds"],
            "partition.extract.us": _per(
                s["partition.extract"], c["partition.extract"], 1e6),
            "partition.run_H.calls": c["partition.run_H"],
            "partition.run_H.us": _per(s["partition.run_H"], c["partition.run_H"], 1e6),
        }

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((owner, attr, orig))

    def _span(self, name: str, after=None):
        """Wrapper factory: count and time calls under name."""
        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - t0
                    self.calls[name] += 1
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper
        return make

    def install(self):
        """Wrap the layer entry points of cvqc_lab; `uninstall` undoes it."""
        from cvqc_lab import cli, effverify, jordan, partition, protocol

        decompose = self._span("jordan.jordan_decompose")
        self._patch(jordan, "jordan_decompose", decompose)
        self._patch(partition, "jordan_decompose", decompose)

        def spectral(orig):
            def wrapper(*args, **kwargs):
                before = self.calls["jordan.jordan_decompose"]
                t0 = time.perf_counter()
                result = orig(*args, **kwargs)
                if self.calls["jordan.jordan_decompose"] != before:
                    self.seconds["partition.spectral_data.miss"] += time.perf_counter() - t0
                    self.calls["partition.spectral_data.miss"] += 1
                return result
            return wrapper
        self._patch(partition, "spectral_data", spectral)

        self._patch(protocol, "measure", self._span("qsim.measure"))
        self._patch(protocol.OracleTable, "query", self._span("protocol.oracle.query"))

        def run_protocol(orig):
            def wrapper(p, adversary, *args, **kwargs):
                if isinstance(p, protocol.TwoRoundFS):
                    kind = "fs"
                elif isinstance(adversary, protocol.UnitaryCheat):
                    kind = "cheat"
                else:
                    kind = "interactive"
                t0 = time.perf_counter()
                stats = orig(p, adversary, *args, **kwargs)
                self.seconds[f"protocol.{kind}"] += time.perf_counter() - t0
                self.amount[f"protocol.{kind}.trials"] += stats.trials
                if kind == "fs":
                    self.amount["protocol.fs.accepts"] += stats.accepts
                    self.amount["protocol.fs.queries"] += stats.queries
                return stats
            return wrapper
        self._patch(protocol, "run_protocol", run_protocol)

        session = self._span("effverify.session")
        self._patch(effverify, "run_two_round_fs", session)
        self._patch(effverify, "run_four_round", session)

        def steps(result, args, kwargs):
            self.amount["effverify.run_machine.steps"] += result[1]
        self._patch(effverify, "run_machine", self._span("effverify.run_machine", steps))

        def output_bytes(result, args, kwargs):
            self.amount["cli.output_bytes"] += os.path.getsize(args[0].out)
        self._patch(cli, "run", self._span("cli.run", output_bytes))

        for name in ("run_G", "partition_chain", "run_H"):
            self._patch(partition, name, self._span(f"partition.{name}"))

        def rounds(result, args, kwargs):
            self.amount["partition.extract.rounds"] += result.rounds_used
        self._patch(partition, "extract", self._span("partition.extract", rounds))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def layer_metrics(snapshots: list[dict], scales: list[float], import_s: float,
                  round_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the measured rounds, and any count that moved.

    round_walls are already scaled; import_s is a setup time and is not.
    """
    problems, out = [], {}
    extra = {"setup.import_s": import_s, "trace.wall_s": statistics.median(round_walls)}
    power = {"count": 0, "time": 1, "rate": -1}
    for name, unit, _better, kind in LAYER_METRICS:
        if name in extra:
            value = extra[name]
        else:
            values = [snap[name] * scale ** power[kind]
                      for snap, scale in zip(snapshots, scales)]
            if kind == "count" and len(set(values)) != 1:
                problems.append(f"{name} differs between rounds: {values}")
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out, problems
