"""The online tuning loop, its metrics, and the comparison baselines.

The tuner and both baselines are policies over one ``Environment`` each,
whose ``step`` "creates" the indexes of a round's configuration that are not
yet deployed (1 s per 100 MB), executes every query, and appends the round's
row to the environment's ``metrics``, the method's metrics log. One loop,
`_execute_all`, executes queries: it makes their noise streams together
(`simulator.noise_streams`) and passes each to its `execute` call.
No-index execution times come from a `Calibration`: each (template,
literals) query is executed once with a dedicated seed and cached, and the
methods of one replication share it, so a query is calibrated once for all
of them; its `Calibration.calibrate` runs a round's uncalibrated queries
through that loop, before the round is priced or executed, and makes no
batch when every query is calibrated already. A round deployed with an
empty configuration reuses the calibration telemetry verbatim. The
calibration plan is the query's one no-index plan for the whole run:
`calibrate` hands a round's plans over as a list, every method prices its
benefits against their costs, and the tuner corrects them, which leaves
them as they are. Each round, every method divides by the same
`selection.noindex_total` of those plans. The baselines rank a round's
candidates by raw what-if benefit, and the calibration keeps each order
under the round's queries with their frequency weights, not under the
round number. `Calibration.record_order` is the one rule from a round's raw
what-if totals to raw benefits and their order. The tuner feeds it the raw
totals its round pricing sums anyway, so the baselines of a replication
price nothing; a baseline alone prices each distinct query set once, in
`Calibration.order`, and feeds it the same floats. Shared or private,
calibration and ranking give the same results. A baseline round is
candidates, their order, one `selection.epsilon_greedy` pick of the
configuration and the step.

A tuner round measures workload novelty and decays the exploration weight,
generates the round's candidates, prices them all, values each with
uncertainty-gated corrected costs, samples a configuration, steps the
environment, and learns multiplier labels from the telemetry. The tuner's
`selection.Gate`, built once from its `TunerParams`, owns the models, the
gate's parameters and two caches for the tuner's lifetime: uncertainty
scores, kept per operator kind under the model state they were made under
(`correction.cached_uncertainties`), and the last round's what-if pricing.
A round's `selection.CorrectionContext` holds only the round and is dropped
with it. No pricing is repeated within a round:
`selection.round_context` builds the workload's no-index total and every
query's corrected no-index term, and plans every (query, candidate) pair
whose template can use the candidate, once, before any candidate is valued;
it encodes each distinct leaf of a query once, and scores the leaves of the
no-index plans and of every candidate plan in one batched call per operator
kind. Valuation only corrects a candidate's plans from those scores: a
score carries the multiplier its model proposes, so correction runs no
model. The environment executes a configuration's ``indexes``, the one form
the simulator takes. The deployed configuration is corrected from the plan
the executor already built, with the round's leaf encodings; the labels
reuse those encodings, and the probe is the deployed plans' (leaf,
encoding) pairs, which the gate scored; and the round's mean uncertainty
before the model update is the mean of the gate scores that correction
produced, read back from the gate's cache. Correction never changes a plan,
so no plan is copied. Each deployed plan goes through
`selection.Gate.correct`, the one correction path: the round's pricing or
the last round's probe has scored nearly every leaf of it, and the gate
scores any other leaf itself. The probe after an update and the next round's
gate score a leaf once, and the probe is scored in one batched call per
operator kind. The probe is also where a kind's scores of the state before
the update go: it is the first to read the kind under its new state. A
round's `RoundReport` takes its metric fields from the environment's row,
so `METRIC_FIELDS` is their one list.

Nor is a pair the last round priced planned again (see `selection`): it is
only corrected again, under the models as they are now, so the reports are
those of planning every pair anew.
"""

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .correction import (
    actual_benefit,
    # not called here (corrections go through the Gate), but
    # perfbench/tracer.py patches tuner.correct_plan by name
    correct_plan,  # noqa: F401
    estimated_benefit,
    telemetry_to_labels,
)
from .costmodel import MULTIPLIER_GRID, CostMultiplierModel, nearest_bucket_index
from .errors import FIELDS, ConfigurationError, ContractError, check_fields
# encode_operator is not called here either (the round context encodes every
# leaf), but perfbench/tracer.py patches tuner.encode_operator by name
from .plan import LEAF_KINDS, encode_operator, encoding_length  # noqa: F401
from .seeding import subseed
from .selection import (
    Configuration,
    CorrectionContext,
    Gate,
    candidate_valuation,
    enumerate_configuration,
    epsilon_greedy,
    exploration_weight,
    generate_candidates,
    noindex_total,
    round_context,
    selection_probabilities,
    whatif_pricing,
)
from .simulator import GroundTruth, execute, noise_streams, whatif_plan
from .workload import MiniWorkload, unseen_fraction

CREATION_SECONDS_PER_100MB = 1.0
_100MB = 100 * 1024 * 1024

BASELINE_KINDS = ("whatif_greedy", "plain_epsilon_greedy")

METRIC_FIELDS = (
    "round",
    "exec_time_s",
    "noindex_time_s",
    "improvement",
    "n_new_indexes",
    "creation_s",
    "mean_uncertainty",
)


@dataclass(frozen=True)
class TunerParams:
    uncertainty_threshold: float = FIELDS["tuner.uncertainty_threshold"].default
    uncertainty_mix: float = FIELDS["tuner.uncertainty_mix"].default
    explore_init: float = FIELDS["tuner.explore_init"].default
    explore_decay: float = FIELDS["tuner.explore_decay"].default
    mcd_passes: int = FIELDS["tuner.mcd_passes"].default
    max_indexes: int = FIELDS["budget.max_indexes"].default
    storage_budget_bytes: int = FIELDS["budget.storage_bytes"].default
    per_table_cap: int = FIELDS["tuner.per_table_cap"].default
    epsilon: float = FIELDS["tuner.epsilon"].default

    def __post_init__(self):
        # checked up front: each would otherwise fail, or silently close
        # every gate (U <= NaN is false), only once the first round runs
        check_fields(
            self,
            "tuner",
            max_indexes="budget.max_indexes",
            storage_budget_bytes="budget.storage_bytes",
        )


@dataclass(frozen=True)
class RoundReport:
    round: int
    configuration: Configuration
    per_query_benefits: tuple
    improvement: float
    labels_emitted: int
    mean_uncertainty_before: float
    mean_uncertainty_after: float
    exec_time_s: float
    noindex_time_s: float
    creation_s: float
    n_new_indexes: int
    explore_weight: float

    def to_dict(self) -> dict:
        out = dict(vars(self))
        out["configuration"] = [
            {"table": ix.table, "key_columns": list(ix.key_columns)}
            for ix in self.configuration.indexes
        ]
        out["per_query_benefits"] = [list(pair) for pair in self.per_query_benefits]
        return out


def creation_seconds(indexes) -> float:
    """Synthetic index build time, proportional to estimated size."""
    total_bytes = sum(ix.estimated_size_bytes for ix in indexes)
    return CREATION_SECONDS_PER_100MB * total_bytes / _100MB


def _check_catalog(catalog: Catalog, ground_truth: GroundTruth) -> None:
    """Raise ContractError unless a method's ``catalog`` is the one its
    calibration plans against, ``ground_truth``'s."""
    if catalog != ground_truth.catalog:
        raise ContractError("a method prices against its ground truth's catalog")


def _execute_all(queries, indexes, ground_truth: GroundTruth, round_seed: int) -> list:
    """`execute` of each of ``queries`` under the index sequence ``indexes``,
    in order, from noise streams made in one pass."""
    streams = noise_streams(queries, indexes, ground_truth, round_seed)
    return [
        execute(q, indexes, ground_truth, round_seed, stream=stream)
        for q, stream in zip(queries, streams)
    ]


class Calibration:
    """One replication's no-index calibration and raw what-if ranking, shared
    by its methods.

    Each distinct query (by ``query.key()``) is executed once under the empty
    configuration with the calibration seed, and its telemetry is kept; every
    method's `Environment` over this ground truth and seed reads the same
    telemetry objects, whose plans nobody mutates.

    Each round's candidates, ordered by raw what-if benefit, are kept under
    the round's queries, which carry their frequency weights. The order is a
    pure function of those queries: the candidates are those
    `generate_candidates` derives from them and the ground truth's catalog,
    and every benefit is priced against this calibration's no-index plans.
    So a round that repeats an earlier round's queries reads its order, and
    the round number plays no part. The tuner records the order its
    valuation already priced; a round nobody recorded is priced here.
    """

    def __init__(self, ground_truth: GroundTruth, seed: int):
        self.ground_truth = ground_truth
        self.seed = seed
        self._seed = subseed(seed, "calibration")
        self._telemetry = {}
        self._orders = {}  # round queries -> candidate positions, best first

    def check(self, ground_truth: GroundTruth, seed: int) -> None:
        """Raise ContractError unless this calibration is the one of
        ``ground_truth`` and ``seed``."""
        if ground_truth != self.ground_truth or seed != self.seed:
            raise ContractError(
                "a calibration is shared only under its own ground truth and seed"
            )

    def calibrate(self, queries) -> list:
        """The no-index telemetry of each of ``queries``, in order. Each
        distinct query not calibrated yet is executed once, all of them from
        noise streams made in one pass."""
        # queries of one key execute alike, whatever their frequency weights
        todo = {q.key(): q for q in queries if q.key() not in self._telemetry}
        if todo:
            executed = _execute_all(todo.values(), (), self.ground_truth, self._seed)
            self._telemetry.update(zip(todo, executed))
        return [self._telemetry[q.key()] for q in queries]

    def record_order(self, queries, raw_totals, noindex_total) -> list:
        """Keep and return the order of the candidates `generate_candidates`
        derives from ``queries`` by raw what-if benefit, ``1 - total /
        noindex_total`` of each of their ``raw_totals``, best first and ties
        by position, unless an order of ``queries`` is kept already; then
        return that one."""
        raw = [1.0 - total / noindex_total for total in raw_totals]
        order = sorted(range(len(raw)), key=lambda i: (-raw[i], i))
        # one lookup: hashing a round's queries costs more than the sort
        return self._orders.setdefault(queries, order)

    def order(self, workload: MiniWorkload, candidates) -> list:
        """Positions into ``candidates``, the round's `generate_candidates`,
        by descending raw what-if benefit, ties by position."""
        queries = workload.queries
        order = self._orders.get(queries)
        if order is None:
            plans = [b.plan for b in self.calibrate(queries)]
            catalog = self.ground_truth.catalog
            costs = [plan.total_cost for plan in plans]
            raw = [
                whatif_pricing(
                    x, queries, costs, lambda i, q: whatif_plan(q, (x,), catalog)
                )[1]
                for x in candidates
            ]
            order = self.record_order(queries, raw, noindex_total(workload, plans))
        return order


class Environment:
    """Deploys one method's configuration each round and executes the round.

    Re-deploying an index costs nothing; building one again after a drop
    costs its build time, but it does not count as a new index. The no-index
    telemetry comes from ``calibration``, private unless one replication's
    methods pass the same one. The methods price against its no-index plans,
    so their catalog must be the ground truth's. It executes under its
    calibration's ground truth and seed, which `Calibration.check` ties to
    the ones it is given.
    """

    def __init__(
        self, ground_truth: GroundTruth, seed: int, calibration: Calibration = None
    ):
        if calibration is None:
            calibration = Calibration(ground_truth, seed)
        calibration.check(ground_truth, seed)
        self.calibration = calibration
        self.deployed = Configuration()
        self.ever_deployed = set()
        self.metrics = []

    def step(self, t: int, workload: MiniWorkload, config: Configuration):
        """Deploy ``config`` and execute round ``t`` under it.

        Returns ``(query, telemetry, no-index telemetry)`` per query, in
        workload order, and the round's metrics row, which is appended to
        ``metrics``; its ``mean_uncertainty`` is 0.0 for the caller to fill
        in.
        """
        creation_s = creation_seconds(
            ix for ix in config.indexes if ix not in self.deployed.indexes
        )
        n_new = len([ix for ix in config.indexes if ix not in self.ever_deployed])
        self.ever_deployed.update(config.indexes)
        self.deployed = config

        queries = workload.queries
        baselines = self.calibration.calibrate(queries)
        telemetries = baselines
        if config.indexes:
            calibration = self.calibration
            round_seed = subseed(calibration.seed, "execute", t)
            telemetries = _execute_all(
                queries, config.indexes, calibration.ground_truth, round_seed
            )
        executed = list(zip(queries, telemetries, baselines))
        exec_time, noindex_time = 0.0, 0.0
        for q, telemetry, baseline in executed:
            exec_time += q.frequency_weight * telemetry.total_time
            noindex_time += q.frequency_weight * baseline.total_time
        improvement = 1.0 - exec_time / noindex_time if noindex_time > 0 else 0.0
        values = (t, exec_time, noindex_time, improvement, n_new, creation_s, 0.0)
        self.metrics.append(dict(zip(METRIC_FIELDS, values)))
        return executed, self.metrics[-1]


class OnlineTuner:
    """Owns the gate of one tuning run, with its models (one per leaf kind,
    built up front) and caches, and the run's history; ``calibration`` is
    its environment's, and ``metrics`` is its environment's metrics log."""

    def __init__(
        self,
        catalog: Catalog,
        ground_truth: GroundTruth,
        params: TunerParams = TunerParams(),
        seed: int = 0,
        calibration: Calibration = None,
    ):
        _check_catalog(catalog, ground_truth)
        self.catalog = catalog
        self.params = params
        self.seed = seed
        self.round = 0
        self.models = {
            kind: CostMultiplierModel(
                input_dim=encoding_length(catalog),
                seed=subseed(seed, "model", kind),
            )
            for kind in LEAF_KINDS
        }
        self.seen_templates = set()
        self.env = Environment(ground_truth, seed, calibration)
        self.gate = Gate(
            catalog,
            self.models,
            params.uncertainty_threshold,
            params.uncertainty_mix,
            params.mcd_passes,
        )
        self.metrics = self.env.metrics
        self.reports = []

    def model_for(self, kind: str) -> CostMultiplierModel:
        return self.models[kind]

    def _context(self, workload: MiniWorkload, candidates) -> CorrectionContext:
        plans = [b.plan for b in self.env.calibration.calibrate(workload.queries)]
        return round_context(workload, candidates, self.gate, plans)

    def run_round(self, workload: MiniWorkload) -> RoundReport:
        p = self.params
        t = self.round

        # 1. novelty -> exploration weight
        seen_fraction = 1.0 - unseen_fraction(workload, self.seen_templates)
        explore = exploration_weight(t, seen_fraction, p.explore_init, p.explore_decay)

        # 2-4. candidates, the round's pricing of them all, their
        # valuations under corrected costs, sampling
        candidates = generate_candidates(workload, self.catalog)
        ctx = self._context(workload, candidates)
        config = Configuration()
        if candidates:
            values = [candidate_valuation(x, ctx, explore).value for x in candidates]
            # the baselines sharing this calibration read it without pricing
            self.env.calibration.record_order(
                workload.queries,
                [raw for _, raw in ctx.pricing.values()],
                ctx.noindex_total,
            )
            config = enumerate_configuration(
                candidates,
                selection_probabilities(values),
                seed=subseed(self.seed, "enumerate", t),
                max_indexes=p.max_indexes if p.storage_budget_bytes is None else None,
                storage_budget_bytes=p.storage_budget_bytes,
                per_table_cap=p.per_table_cap,
            )

        # 5. index creation plus execution under the new configuration
        executed, row = self.env.step(t, workload, config)

        per_query, probes = [], []  # probes: the deployed plans' leaf pairs
        by_kind = {}  # operator kind -> (encoding, bucket) labels
        for i, (_, telemetry, baseline) in enumerate(executed):
            b_actual = actual_benefit(baseline.total_time, telemetry.total_time)
            # the executor's plan of the deployed configuration, corrected
            # from the round's leaf encodings; correction leaves it, and the
            # no-index plan, as they are
            plan = telemetry.plan
            pairs = ctx.leaf_encodings(i, plan)
            corrected = self.gate.correct(plan, pairs)
            noindex_cost = baseline.plan.total_cost
            b_est = estimated_benefit(noindex_cost, corrected.corrected_cost)
            per_query.append((b_est, b_actual))
            probes += pairs
            encodings = dict(pairs)  # leaf -> its encoding

            # 6. telemetry to multiplier labels on the pristine plan
            for leaf, multiplier in telemetry_to_labels(
                plan, config.indexes, MULTIPLIER_GRID, b_actual, noindex_cost
            ):
                by_kind.setdefault(leaf.kind, []).append(
                    (encodings[leaf], nearest_bucket_index(multiplier))
                )

        # the gate scored every probe under the models as they are now, so
        # this reads the scores of the round's corrections
        mean_u_before = self._mean_uncertainty(probes)

        # 7. model updates, one per operator kind in a fixed order
        for kind in LEAF_KINDS:
            if kind in by_kind:
                self.models[kind].update(by_kind[kind])

        mean_u_after = self._mean_uncertainty(probes)

        # 8. metrics
        row["mean_uncertainty"] = mean_u_before
        report = RoundReport(
            configuration=config,
            per_query_benefits=tuple(per_query),
            labels_emitted=sum(len(labels) for labels in by_kind.values()),
            mean_uncertainty_before=mean_u_before,
            mean_uncertainty_after=mean_u_after,
            explore_weight=explore,
            # the row's fields; the report splits mean_uncertainty in two
            **{f: row[f] for f in METRIC_FIELDS if f != "mean_uncertainty"},
        )
        self.reports.append(report)
        self.seen_templates.update(t.id for t in workload.templates)
        self.round += 1
        return report

    def _mean_uncertainty(self, probes) -> float:
        scores = self.gate.score(probes)
        return float(np.mean([score.combined for score in scores]))

    def run(self, schedule) -> list:
        for workload in schedule:
            self.run_round(workload)
        return self.metrics


def overall_improvement(metrics_log) -> float:
    """Sum_t (noindex - exec) / Sum_t noindex over a metrics log."""
    if not metrics_log:
        raise ValueError("metrics log must be nonempty")
    noindex = sum(row["noindex_time_s"] for row in metrics_log)
    exec_ = sum(row["exec_time_s"] for row in metrics_log)
    if noindex <= 0:
        raise ContractError("total no-index time must be positive")
    return (noindex - exec_) / noindex


def run_baseline(
    kind: str,
    catalog: Catalog,
    ground_truth: GroundTruth,
    schedule,
    params: TunerParams = TunerParams(),
    seed: int = 0,
    calibration: Calibration = None,
) -> list:
    """Comparison policies sharing the tuner's environment seeds.

    Each round both take `epsilon_greedy`'s top-K candidates by raw what-if
    benefit: whatif_greedy at epsilon 0, plain_epsilon_greedy at
    ``params.epsilon``, replacing each greedy pick with a uniform random
    candidate with that probability. Neither learns; each returns its
    environment's metrics log. The order of each round's candidates is
    ``calibration``'s: private unless one replication's methods pass the
    same one, in which case a round the tuner or another baseline already
    ranked is read, not priced again.
    """
    if kind not in BASELINE_KINDS:
        raise ConfigurationError(f"unknown baseline kind {kind!r}")
    _check_catalog(catalog, ground_truth)
    rng = np.random.default_rng(subseed(seed, "baseline", kind))
    epsilon = params.epsilon if kind == "plain_epsilon_greedy" else 0.0
    env = Environment(ground_truth, seed, calibration)
    for t, workload in enumerate(schedule):
        candidates = generate_candidates(workload, catalog)
        order = env.calibration.order(workload, candidates)
        config = epsilon_greedy(candidates, order, params.max_indexes, epsilon, rng)
        env.step(t, workload, config)
    return env.metrics
