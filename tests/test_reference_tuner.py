"""The tuner against `reference_tuner.reference_run`, a plain tuner without
any of its reuse layers: over tiny drawn catalogs and several schedules,
every candidate value, round report and metrics row must be equal. This
checks, for every cache on the tuner's path at once, that the cache is
exact. The values are compared too, because a wrong value can leave the
sampled configuration, and with it the reports, as they were."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idxlab import tuner as tuner_module
from idxlab.catalog import CatalogSpec, generate_catalog
from idxlab.simulator import make_ground_truth
from idxlab.tuner import OnlineTuner, TunerParams
from idxlab.workload import (
    DriftSchedule,
    MiniWorkload,
    build_schedule,
    generate_templates,
)

from reference_tuner import reference_run

ROUNDS = 4


def drifting(kind, **fields):
    """A schedule builder: `build_schedule` under drift ``kind``."""

    def build(templates, seed):
        sched = DriftSchedule(
            kind,
            total_rounds=ROUNDS,
            templates_per_round=2,
            queries_per_template=2,
            **fields,
        )
        return build_schedule(templates, sched, seed)

    return build


def hot(templates, seed):
    """Round 0's queries in every round."""
    first = drifting("static")(templates, seed)[0]
    return [MiniWorkload(t, first.queries) for t in range(ROUNDS)]


def periodic_with_a_gap(templates, seed):
    """A periodic schedule whose round 0 comes back after one other round,
    then stays for a round: a, b, a, a."""
    a, b = drifting("periodic", period=1, change_fraction=0.5)(templates, seed)[:2]
    return [MiniWorkload(t, w.queries) for t, w in enumerate((a, b, a, a))]


SCHEDULES = {
    "static": drifting("static"),
    "hot": hot,
    "periodic-gap": periodic_with_a_gap,
    "cyclic": drifting("cyclic", cycle_length=2, change_fraction=0.5),
}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    catalog_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    n_tables=st.integers(1, 3),
    schedule=st.sampled_from(sorted(SCHEDULES)),
    threshold=st.sampled_from([0.1, 1.0, 2.0, math.inf]),
    storage=st.one_of(st.none(), st.integers(1, 2_000_000)),
)
def test_the_tuner_reports_what_the_reference_tuner_reports(
    catalog_seed, seed, n_tables, schedule, threshold, storage
):
    spec = CatalogSpec(n_tables=n_tables, rows_range=(1000, 20000))
    catalog = generate_catalog(spec, catalog_seed)
    templates = generate_templates(catalog, 4, seed=catalog_seed)
    rounds = SCHEDULES[schedule](templates, catalog_seed)
    ground_truth = make_ground_truth(catalog, catalog_seed, noise_sigma=0.1)
    params = TunerParams(
        uncertainty_threshold=threshold,
        mcd_passes=3,
        max_indexes=2,
        storage_budget_bytes=storage,
    )
    tuner = OnlineTuner(catalog, ground_truth, params, seed)
    valued = []  # each valuation's value, in call order
    valuation = tuner_module.candidate_valuation

    def recording_valuation(*args):
        result = valuation(*args)
        valued.append(result.value)
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tuner_module, "candidate_valuation", recording_valuation)
        tuner.run(rounds)
    reports, metrics, values = reference_run(
        catalog, ground_truth, params, seed, rounds
    )
    assert valued == [v for round_values in values for v in round_values]
    assert tuner.reports == reports
    assert tuner.metrics == metrics
