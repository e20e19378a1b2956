"""In-memory span tracer that wraps idxlab's public functions from outside.

A span records its name, start, end, parent span and round id. Wrapping
replaces a function in every module that imported it by name, so the same
call path is timed whichever module calls it; `Tracer.restore` undoes every
patch. Self time of a span is its duration minus the durations of its
direct children.

Two levels exist:

* ``layers=False`` wraps only the method boundaries (`OnlineTuner.run`,
  `OnlineTuner.run_round`, `run_baseline`, `run_experiment`) and
  `generate_candidates`, which marks a baseline round: one span per method
  run and per round, so end-to-end times are measured with it on.
* ``layers=True`` adds one span per call into each layer, plus the counters
  the per-layer metrics need.

An untraced tracer may also be given a ``reference`` computation. It runs
once at the start of every method round, outside every round span, and its
wall times are kept per method run, so that `method_runs` can subtract them
from the method's time and express that time in units of the reference.
"""

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self, layers: bool, reference=None):
        self.layers = layers
        self.reference = reference
        self.spans = []  # [name, start, end, parent index, round id]
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._method = None
        self._round = -1
        self._plans = [[]]  # per method run: (query, config) of each planner call
        self._refs = [[]]  # per method run: seconds of each reference run
        self._tuner = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` may be a function of the call's arguments. The hooks run
        outside the span: ``before(args, kwargs)`` returns a token that is
        passed on to ``after(result, args, token)``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        dynamic = callable(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(
                [
                    name(args, kwargs) if dynamic else name,
                    clock(),
                    0.0,
                    stack[-1] if stack else -1,
                    tracer._round,
                ]
            )
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        """Patch idxlab; call `restore` (or use the tracer as a context manager)."""
        from idxlab import correction, costmodel, experiment, plan, selection, tuner

        self._wrap(tuner.OnlineTuner, "run", "method.tuner", before=self._start_tuner)
        self._wrap(tuner.OnlineTuner, "run_round", "tuner.run_round", before=self._start_round)
        for module in (tuner, experiment):
            self._wrap(module, "run_baseline", self._baseline_span, before=self._start_baseline)
        self._wrap(experiment, "run_experiment", "experiment.run_experiment")
        self._wrap(tuner, "generate_candidates", "selection.generate_candidates", before=self._baseline_round)
        if not self.layers:
            return self
        for module in (tuner, selection):
            self._wrap(module, "whatif_plan", "simulator.whatif_plan", after=self._planned_call)
            self._wrap(module, "correct_plan", "correction.correct_plan", after=self._corrected)
        self._wrap(correction, "combined_uncertainty", "costmodel.combined_uncertainty.gate")
        self._wrap(costmodel, "combined_uncertainty", "costmodel.combined_uncertainty.probe")
        self._wrap(
            costmodel.CostMultiplierModel,
            "update",
            "costmodel.update",
            before=lambda args, kwargs: args[0].step_count,
            after=self._updated,
        )
        self._wrap(
            tuner,
            "telemetry_to_labels",
            "correction.telemetry_to_labels",
            after=lambda result, args, token: self._count("correction.telemetry_to_labels.labels", len(result)),
        )
        self._wrap(tuner, "execute", "simulator.execute")
        self._wrap(tuner, "candidate_valuation", "selection.candidate_valuation")
        self._wrap(tuner, "enumerate_configuration", "selection.enumerate_configuration")
        for module in (tuner, plan):
            self._wrap(module, "encode_operator", "plan.encode_operator")
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- hooks -------------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] += n

    def _start_method(self, method):
        self._method = method
        self._round = -1
        self._plans.append([])
        self._refs.append([])

    def _run_reference(self):
        if self.reference is not None:
            t0 = time.perf_counter()
            self.reference()
            self._refs[-1].append(time.perf_counter() - t0)

    def _start_tuner(self, args, kwargs):
        self._tuner = args[0]
        self._start_method("tuner")

    @staticmethod
    def _baseline_span(args, kwargs):
        return "method." + (args[0] if args else kwargs["kind"])

    def _start_baseline(self, args, kwargs):
        self._start_method(self._baseline_span(args, kwargs)[len("method."):])

    def _start_round(self, args, kwargs):
        self._round = args[0].round
        self._run_reference()

    def _baseline_round(self, args, kwargs):
        # Baselines loop over rounds internally; each round generates
        # candidates exactly once, which marks the round boundary.
        if self._method != "tuner":
            self._round += 1
            self._run_reference()

    def _planned_call(self, result, args, token):
        # Only keep the arguments here; `plan_counts` classifies them after
        # the run, so the classification costs no traced time.
        self._plans[-1].append((args[0], args[1]))

    def plan_counts(self):
        """(useful, repeated) planner calls.

        A call is useful when its index set is empty or has an index on one
        of the query's tables, and repeated when the same method run already
        planned the same (query key, index set).
        """
        useful = repeated = 0
        for calls in self._plans:
            planned = set()
            for query, config in calls:
                indexes = tuple(getattr(config, "indexes", config) or ())
                tables = query.template.tables
                if not indexes or any(ix.table in tables for ix in indexes):
                    useful += 1
                key = (query.key(), frozenset(indexes))
                if key in planned:
                    repeated += 1
                planned.add(key)
        return useful, repeated

    def _corrected(self, result, args, token):
        for report in result.reports:
            if report.score is not None:
                self._count(f"correction.correct_plan.leaves_scored.{report.leaf.kind}")
            if report.multiplier is not None:
                self._count(f"correction.correct_plan.leaves_corrected.{report.leaf.kind}")

    def _updated(self, result, args, steps_before):
        model, labels = args[0], args[1]
        kind = "other"
        if self._tuner is not None:
            kind = next((k for k, m in self._tuner.models.items() if m is model), kind)
        self._count(f"costmodel.update.labels.{kind}", len(labels))
        self._count("costmodel.update.steps", model.step_count - steps_before)

    # -- summaries ---------------------------------------------------------

    def self_times(self, within=None, by_round=False):
        """Per span name: (call count, total self seconds).

        ``within`` restricts the sums to spans nested under spans of that name;
        ``by_round`` keys the sums by (name, round id) instead.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inside = None
        if within is not None:
            inside = [False] * len(self.spans)
            for i, (name, _, _, parent, _) in enumerate(self.spans):
                inside[i] = parent >= 0 and (inside[parent] or self.spans[parent][0] == within)
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, round_id) in enumerate(self.spans):
            if inside is not None and not inside[i]:
                continue
            key = (name, round_id) if by_round else name
            calls[key] += 1
            self_s[key] += (end - start) - child_time[i]
        return calls, self_s

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def method_runs(self):
        """One dict per method run, in order: ``method``, ``seconds`` (its
        wall time less the reference runs inside it), ``refs`` (seconds of
        each reference run) and ``rounds`` (seconds of each tuner round)."""
        runs, by_span = [], {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name.startswith("method."):
                refs = self._refs[len(runs) + 1]
                by_span[i] = {
                    "method": name[len("method."):],
                    "seconds": end - start - sum(refs),
                    "refs": refs,
                    "rounds": [],
                }
                runs.append(by_span[i])
            elif name == "tuner.run_round" and parent in by_span:
                by_span[parent]["rounds"].append(end - start)
        return runs

    def reference_seconds(self):
        """Seconds of every reference run, in order."""
        return [t for refs in self._refs for t in refs]
