"""A plain, slow reference of `OnlineTuner.run` for differential tests
(McKeeman, *Differential Testing for Software*, 1998).

It keeps none of the tuner's reuse layers: no shared calibration or raw
ranking, no plan memo, no score cache, no round pricing or encoding store,
no applicability pruning and no batched scoring. Each round it plans every
(query, candidate) pair fresh, encodes every leaf with `encode_operator`,
scores each leaf alone with `lone_score`, and corrects a clone of
each plan with `update_cost` at the argmax of a fresh `predict`. It values
each candidate, samples through `enumerate_configuration` with the tuner's
seed, steps a private `Environment`, and labels and updates its models as
`OnlineTuner.run_round` does. Every sum runs in the order the tuner's does,
so the two agree float for float when every cache is exact.

`lone_score` and `mc_dropout` are also the oracle of the package's one
scoring implementation, `costmodel.combined_uncertainties`: they score one
encoding from its own unstacked forward passes.
"""

import zlib

import numpy as np

from idxlab.correction import (
    actual_benefit,
    estimated_benefit,
    telemetry_to_labels,
    update_cost,
)
from idxlab.costmodel import (
    MULTIPLIER_GRID,
    CostMultiplierModel,
    UncertaintyScore,
    entropy,
    nearest_bucket_index,
)
from idxlab.errors import ConfigurationError
from idxlab.plan import LEAF_KINDS, encode_operator, encoding_length, leaves
from idxlab.seeding import rng_for, subseed
from idxlab.selection import (
    Configuration,
    enumerate_configuration,
    exploration_weight,
    generate_candidates,
    selection_probabilities,
)
from idxlab.simulator import whatif_plan
from idxlab.tuner import METRIC_FIELDS, Environment, RoundReport
from idxlab.workload import unseen_fraction


def mc_dropout(model: CostMultiplierModel, encoding, passes: int) -> float:
    """Max per-class variance across dropout-on passes (biased 1/m estimator)."""
    if passes < 2:
        raise ValueError("passes must be >= 2")
    enc = model._check_input(encoding)
    X = np.repeat(enc, passes, axis=0)
    digest = zlib.crc32(np.ascontiguousarray(enc).tobytes())
    rng = rng_for(model.seed, model.step_count, digest, passes)
    probs = model._forward(X, drop_rng=rng)["probs"]
    return float(probs.var(axis=0).max())


def lone_score(
    model: CostMultiplierModel, encoding, mix_weight: float, passes: int
) -> UncertaintyScore:
    """U = mix_weight * mcd + (1 - mix_weight) * entropy(dropout-off softmax),
    with the argmax multiplier of that softmax, for one encoding alone."""
    if not 0.0 < mix_weight < 1.0:
        raise ConfigurationError("mix_weight must lie strictly between 0 and 1")
    mcd_value = mc_dropout(model, encoding, passes)
    probs = model.predict(encoding)
    ent = entropy(probs)
    combined = mix_weight * mcd_value + (1.0 - mix_weight) * ent
    multiplier = float(MULTIPLIER_GRID[np.argmax(probs)])
    return UncertaintyScore(ent, mcd_value, combined, multiplier)


def score(models, leaf, enc, params):
    """The leaf's score, made alone."""
    return lone_score(
        models[leaf.kind], enc, params.uncertainty_mix, params.mcd_passes
    )


def corrected(plan, models, catalog, params):
    """The plan's gate-corrected total cost, from `update_cost` on a clone
    once per leaf whose gate opens, at the argmax multiplier of a fresh
    dropout-off prediction; and (leaf, encoding, score) per leaf."""
    clone = plan.clone()
    scored = []
    for leaf, twin in zip(leaves(plan), leaves(clone)):
        enc = encode_operator(leaf, catalog)
        verdict = score(models, leaf, enc, params)
        if verdict.combined <= params.uncertainty_threshold:
            probs = models[leaf.kind].predict(enc)
            update_cost(clone, twin, float(MULTIPLIER_GRID[int(np.argmax(probs))]))
        scored.append((leaf, enc, verdict))
    return clone.total_cost, scored


def candidate_value(candidate, workload, models, catalog, params, explore):
    """V = EB * (1 + lambda * EV) of ``candidate``, every query planned fresh,
    with the index and without."""
    den = num = ev = 0.0
    for q in workload.queries:
        den += q.frequency_weight * whatif_plan(q, (), catalog)[1]
    for q in workload.queries:
        plan, _ = whatif_plan(q, (candidate,), catalog)
        cost, scored = corrected(plan, models, catalog, params)
        num += q.frequency_weight * cost
        for leaf, _, verdict in scored:
            if leaf.index == candidate:
                ev += verdict.combined
    eb = 1.0 - num / den
    return eb * (1.0 + explore * ev)


def mean_uncertainty(models, probes, params) -> float:
    scores = [score(models, leaf, enc, params).combined for leaf, enc in probes]
    return float(np.mean(scores))


def reference_run(catalog, ground_truth, params, seed, schedule) -> tuple:
    """The `RoundReport` of each round of ``schedule`` for a tuner of
    ``params`` and ``seed``, its environment's metrics log, and each round's
    candidate values in candidate order."""
    width = encoding_length(catalog)
    models = {
        kind: CostMultiplierModel(width, subseed(seed, "model", kind))
        for kind in LEAF_KINDS
    }
    env = Environment(ground_truth, seed)
    seen, reports, valued = set(), [], []
    for t, workload in enumerate(schedule):
        seen_fraction = 1.0 - unseen_fraction(workload, seen)
        explore = exploration_weight(
            t, seen_fraction, params.explore_init, params.explore_decay
        )
        candidates = generate_candidates(workload, catalog)
        config = Configuration()
        values = [
            candidate_value(x, workload, models, catalog, params, explore)
            for x in candidates
        ]
        valued.append(values)
        if candidates:
            storage = params.storage_budget_bytes
            config = enumerate_configuration(
                candidates,
                selection_probabilities(values),
                seed=subseed(seed, "enumerate", t),
                max_indexes=params.max_indexes if storage is None else None,
                storage_budget_bytes=storage,
                per_table_cap=params.per_table_cap,
            )
        executed, row = env.step(t, workload, config)

        per_query, probes, by_kind = [], [], {}
        for _, telemetry, baseline in executed:
            b_actual = actual_benefit(baseline.total_time, telemetry.total_time)
            noindex_cost = baseline.plan.total_cost
            cost, scored = corrected(telemetry.plan, models, catalog, params)
            per_query.append((estimated_benefit(noindex_cost, cost), b_actual))
            probes += [(leaf, enc) for leaf, enc, _ in scored]
            for leaf, multiplier in telemetry_to_labels(
                telemetry.plan, config.indexes, MULTIPLIER_GRID, b_actual, noindex_cost
            ):
                by_kind.setdefault(leaf.kind, []).append(
                    (encode_operator(leaf, catalog), nearest_bucket_index(multiplier))
                )
        before = mean_uncertainty(models, probes, params)
        for kind in LEAF_KINDS:
            if kind in by_kind:
                models[kind].update(by_kind[kind])
        after = mean_uncertainty(models, probes, params)

        row["mean_uncertainty"] = before
        reports.append(
            RoundReport(
                configuration=config,
                per_query_benefits=tuple(per_query),
                labels_emitted=sum(len(labels) for labels in by_kind.values()),
                mean_uncertainty_before=before,
                mean_uncertainty_after=after,
                explore_weight=explore,
                **{f: row[f] for f in METRIC_FIELDS if f != "mean_uncertainty"},
            )
        )
        seen.update(q.template.id for q in workload.queries)
    return reports, env.metrics, valued
