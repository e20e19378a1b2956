"""The online tuning loop, its metrics, and the comparison baselines.

Each round: measure workload novelty and decay the exploration weight,
generate candidates, price each one with uncertainty-gated corrected costs,
sample a configuration, "create" its new indexes (1 s per 100 MB), execute
the round, convert telemetry into multiplier labels, and update the models.

No-index execution times are calibrated once per (template, literals) query
with a dedicated seed and cached; a round deployed with an empty
configuration reuses the calibration telemetry verbatim.

No pricing is repeated within a round. A candidate is planned against a query
only when the query reads the candidate's table; otherwise the planner would
return the no-index plan, so valuation reuses the query's (corrected)
no-index cost. The deployed configuration is corrected from the plan the
executor already built, and the round's mean uncertainty before the model
update is the mean of the gate scores that correction produced.
"""

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .correction import (
    correct_plan,
    estimated_benefit,
    telemetry_to_labels,
)
from .costmodel import MULTIPLIER_GRID, CostMultiplierModel, nearest_bucket_index
from .errors import (
    ConfigurationError,
    ContractError,
    require_integer,
    require_number,
)
from .plan import PLAN_KINDS, encode_operator, encoding_length
from .seeding import subseed
from .selection import (
    Configuration,
    CorrectionContext,
    IndexValuation,
    candidate_valuation,
    enumerate_configuration,
    exploration_weight,
    generate_candidates,
    selection_probabilities,
)
from .simulator import GroundTruth, execute, whatif_plan
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
    uncertainty_threshold: float = 0.1
    uncertainty_mix: float = 0.5
    explore_init: float = 0.5
    explore_decay: float = 0.9
    mcd_passes: int = 20
    max_indexes: int = 8
    storage_budget_bytes: int = None
    per_table_cap: int = 3
    epsilon: float = 0.1
    hidden_units: int = 64
    dropout_rate: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 5
    replay_capacity: int = 512

    def __post_init__(self):
        # checked up front: each would otherwise fail, or silently close
        # every gate (U <= NaN is false), only once the first round runs
        require_integer(self.mcd_passes, "tuner.mcd_passes")
        if self.mcd_passes < 2:
            raise ConfigurationError(
                f"tuner.mcd_passes must be >= 2, got {self.mcd_passes!r}"
            )
        require_number(self.uncertainty_threshold, "tuner.uncertainty_threshold")
        if not self.uncertainty_threshold >= 0:
            raise ConfigurationError(
                "tuner.uncertainty_threshold must be >= 0, "
                f"got {self.uncertainty_threshold!r}"
            )
        require_number(self.uncertainty_mix, "tuner.uncertainty_mix")
        if not 0.0 < self.uncertainty_mix < 1.0:
            raise ConfigurationError(
                "tuner.uncertainty_mix must lie strictly between 0 and 1, "
                f"got {self.uncertainty_mix!r}"
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
        return {
            "round": self.round,
            "configuration": [
                {"table": ix.table, "key_columns": list(ix.key_columns)}
                for ix in self.configuration.indexes
            ],
            "per_query_benefits": [list(pair) for pair in self.per_query_benefits],
            "improvement": self.improvement,
            "labels_emitted": self.labels_emitted,
            "mean_uncertainty_before": self.mean_uncertainty_before,
            "mean_uncertainty_after": self.mean_uncertainty_after,
            "exec_time_s": self.exec_time_s,
            "noindex_time_s": self.noindex_time_s,
            "creation_s": self.creation_s,
            "n_new_indexes": self.n_new_indexes,
            "explore_weight": self.explore_weight,
        }


def creation_seconds(indexes) -> float:
    """Synthetic index build time, proportional to estimated size."""
    total_bytes = sum(ix.estimated_size_bytes for ix in indexes)
    return CREATION_SECONDS_PER_100MB * total_bytes / _100MB


class OnlineTuner:
    """Owns the models, caches, and history of one tuning run."""

    def __init__(
        self,
        catalog: Catalog,
        ground_truth: GroundTruth,
        params: TunerParams = TunerParams(),
        seed: int = 0,
    ):
        self.catalog = catalog
        self.ground_truth = ground_truth
        self.params = params
        self.seed = seed
        self.round = 0
        self.models = {}
        self.seen_templates = set()
        self.deployed = Configuration()
        self.ever_deployed = set()
        self.metrics = []
        self.reports = []
        self._baseline_cost = {}
        self._baseline_telemetry = {}

    def model_for(self, kind: str) -> CostMultiplierModel:
        if kind not in self.models:
            p = self.params
            self.models[kind] = CostMultiplierModel(
                input_dim=encoding_length(self.catalog),
                seed=subseed(self.seed, "model", kind),
                hidden_units=p.hidden_units,
                dropout_rate=p.dropout_rate,
                learning_rate=p.learning_rate,
                batch_size=p.batch_size,
                epochs=p.epochs,
                replay_capacity=p.replay_capacity,
            )
        return self.models[kind]

    def _noindex_telemetry(self, query):
        key = query.key()
        if key not in self._baseline_telemetry:
            calib_seed = subseed(self.seed, "calibration")
            self._baseline_telemetry[key] = execute(
                query, (), self.ground_truth, calib_seed
            )
        return self._baseline_telemetry[key]

    def _context(self) -> CorrectionContext:
        p = self.params
        for kind in ("SeqScan", "IndexScan", "IndexOnlyScan"):
            self.model_for(kind)
        return CorrectionContext(
            catalog=self.catalog,
            models=self.models,
            threshold=p.uncertainty_threshold,
            mix_weight=p.uncertainty_mix,
            passes=p.mcd_passes,
            baseline_costs=self._baseline_cost,
        )

    def run_round(self, workload: MiniWorkload) -> RoundReport:
        p = self.params
        t = self.round

        # 1. novelty -> exploration weight
        unseen = unseen_fraction(workload, self.seen_templates)
        seen_fraction = 1.0 - unseen
        explore = exploration_weight(
            t, seen_fraction, p.explore_init, p.explore_decay
        )

        # 2-3. candidates and their valuations under corrected costs
        ctx = self._context()
        candidates = generate_candidates(workload, self.catalog)
        valuations = [
            candidate_valuation(x, workload, ctx, explore) for x in candidates
        ]

        # 4. configuration sampling
        if valuations:
            probs = selection_probabilities(valuations)
            valuations = [
                IndexValuation(
                    v.candidate,
                    v.execution_benefit,
                    v.exploratory_value,
                    v.value,
                    float(pr),
                )
                for v, pr in zip(valuations, probs)
            ]
            config = enumerate_configuration(
                [v.candidate for v in valuations],
                probs,
                seed=subseed(self.seed, "enumerate", t),
                max_indexes=p.max_indexes if p.storage_budget_bytes is None else None,
                storage_budget_bytes=p.storage_budget_bytes,
                per_table_cap=p.per_table_cap,
            )
        else:
            config = Configuration()

        # 5. index creation plus execution under the new configuration
        created = [ix for ix in config.indexes if ix not in self.deployed.indexes]
        creation_s = creation_seconds(created)
        new_indexes = [ix for ix in config.indexes if ix not in self.ever_deployed]
        self.ever_deployed.update(config.indexes)

        round_seed = subseed(self.seed, "execute", t)
        exec_time = 0.0
        noindex_time = 0.0
        per_query = []
        labels = []
        probe_encodings = []
        probe_scores = []
        for q in workload.queries:
            baseline = self._noindex_telemetry(q)
            if config.indexes:
                telemetry = execute(q, config, self.ground_truth, round_seed)
            else:
                telemetry = baseline
            exec_time += q.frequency_weight * telemetry.total_time
            noindex_time += q.frequency_weight * baseline.total_time
            b_actual = 1.0 - telemetry.total_time / baseline.total_time

            # the executor's plan of the deployed configuration; never mutated
            plan = telemetry.plan
            corrected = correct_plan(
                plan.clone(),
                self.models,
                self.catalog,
                p.uncertainty_threshold,
                p.uncertainty_mix,
                p.mcd_passes,
                ctx.uncertainty_cache,
            )
            b_est = estimated_benefit(ctx.baseline_cost(q), corrected.corrected_cost)
            per_query.append((b_est, b_actual))
            for report in corrected.reports:
                if report.score is not None:
                    probe_encodings.append(
                        (report.leaf.kind, encode_operator(report.leaf, self.catalog))
                    )
                    probe_scores.append(report.score.combined)

            # 6. telemetry to multiplier labels on the pristine plan
            for leaf, multiplier in telemetry_to_labels(
                plan, config.indexes, MULTIPLIER_GRID, b_actual, ctx.baseline_cost(q)
            ):
                labels.append(
                    (
                        leaf.kind,
                        encode_operator(leaf, self.catalog),
                        nearest_bucket_index(multiplier),
                    )
                )

        # the gate scored every probe under the models as they are now
        mean_u_before = float(np.mean(probe_scores)) if probe_scores else 0.0

        # 7. model updates, grouped per operator kind in a fixed order
        by_kind = {}
        for kind, enc, idx in labels:
            by_kind.setdefault(kind, []).append((enc, idx))
        for kind in PLAN_KINDS:
            if kind in by_kind:
                self.model_for(kind).update(by_kind[kind])

        mean_u_after = self._mean_uncertainty(probe_encodings)

        # 8. metrics
        improvement = (
            1.0 - exec_time / noindex_time if noindex_time > 0 else 0.0
        )
        report = RoundReport(
            round=t,
            configuration=config,
            per_query_benefits=tuple(per_query),
            improvement=improvement,
            labels_emitted=len(labels),
            mean_uncertainty_before=mean_u_before,
            mean_uncertainty_after=mean_u_after,
            exec_time_s=exec_time,
            noindex_time_s=noindex_time,
            creation_s=creation_s,
            n_new_indexes=len(new_indexes),
            explore_weight=explore,
        )
        self.metrics.append(
            {
                "round": t,
                "exec_time_s": exec_time,
                "noindex_time_s": noindex_time,
                "improvement": improvement,
                "n_new_indexes": len(new_indexes),
                "creation_s": creation_s,
                "mean_uncertainty": mean_u_before,
            }
        )
        self.reports.append(report)
        self.deployed = config
        self.seen_templates.update(workload.template_ids())
        self.round += 1
        return report

    def _mean_uncertainty(self, probe_encodings) -> float:
        from .costmodel import combined_uncertainty

        if not probe_encodings:
            return 0.0
        p = self.params
        scores = [
            combined_uncertainty(
                self.model_for(kind), enc, p.uncertainty_mix, p.mcd_passes
            ).combined
            for kind, enc in probe_encodings
        ]
        return float(np.mean(scores))

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


def _uncorrected_benefit(candidate, workload, catalog, baseline_cache):
    """Raw what-if benefit; a query that does not read the candidate's table
    keeps its no-index cost, which the planner would return anyway."""
    num, den = 0.0, 0.0
    for q in workload.queries:
        key = q.key()
        if key not in baseline_cache:
            _, cost = whatif_plan(q, (), catalog)
            baseline_cache[key] = cost
        den += q.frequency_weight * baseline_cache[key]
        if candidate.table in q.template.tables:
            _, cost_x = whatif_plan(q, (candidate,), catalog)
        else:
            cost_x = baseline_cache[key]
        num += q.frequency_weight * cost_x
    return 1.0 - num / den if den > 0 else 0.0


def run_baseline(
    kind: str,
    catalog: Catalog,
    ground_truth: GroundTruth,
    schedule,
    params: TunerParams = TunerParams(),
    seed: int = 0,
) -> list:
    """Comparison policies sharing the tuner's environment seeds.

    whatif_greedy takes the top-K candidates by raw what-if benefit each
    round; plain_epsilon_greedy replaces each greedy pick with a uniform
    random candidate with probability epsilon. Neither learns.
    """
    if kind not in BASELINE_KINDS:
        raise ConfigurationError(f"unknown baseline kind {kind!r}")
    rng = np.random.default_rng(subseed(seed, "baseline", kind))
    baseline_cost_cache = {}
    baseline_telemetry = {}
    deployed = Configuration()
    ever_deployed = set()
    metrics = []
    calib_seed = subseed(seed, "calibration")
    for t, workload in enumerate(schedule):
        candidates = generate_candidates(workload, catalog)
        benefits = [
            _uncorrected_benefit(x, workload, catalog, baseline_cost_cache)
            for x in candidates
        ]
        order = sorted(range(len(candidates)), key=lambda i: (-benefits[i], i))
        selected = []
        if kind == "whatif_greedy":
            selected = [candidates[i] for i in order[: params.max_indexes]]
        else:
            pool = list(order)
            for _ in range(min(params.max_indexes, len(pool))):
                if rng.random() < params.epsilon:
                    pick = int(rng.integers(0, len(pool)))
                else:
                    pick = 0  # pool stays sorted by descending benefit
                selected.append(candidates[pool.pop(pick)])
        config = Configuration(tuple(selected))

        created = [ix for ix in config.indexes if ix not in deployed.indexes]
        creation_s = creation_seconds(created)
        new_indexes = [ix for ix in config.indexes if ix not in ever_deployed]
        ever_deployed.update(config.indexes)

        round_seed = subseed(seed, "execute", t)
        exec_time, noindex_time = 0.0, 0.0
        for q in workload.queries:
            key = q.key()
            if key not in baseline_telemetry:
                baseline_telemetry[key] = execute(q, (), ground_truth, calib_seed)
            base = baseline_telemetry[key]
            if config.indexes:
                telem = execute(q, config, ground_truth, round_seed)
            else:
                telem = base
            exec_time += q.frequency_weight * telem.total_time
            noindex_time += q.frequency_weight * base.total_time
        metrics.append(
            {
                "round": t,
                "exec_time_s": exec_time,
                "noindex_time_s": noindex_time,
                "improvement": 1.0 - exec_time / noindex_time
                if noindex_time > 0
                else 0.0,
                "n_new_indexes": len(new_indexes),
                "creation_s": creation_s,
                "mean_uncertainty": 0.0,
            }
        )
        deployed = config
    return metrics
