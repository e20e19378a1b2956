"""The benchmark tracer (perfbench/tracer.py) patches idxlab by attribute name.

A renamed or removed name makes `perfbench/run.py --trace 1` fail with an
AttributeError, so this checks that a layered tracer installs over the
current package and that restoring it leaves every attribute as it was.
"""

import importlib.util
import os

from idxlab import correction, costmodel, experiment, plan, selection, tuner

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracer.py",
)

# every name the tracer wraps on the tuner module
TUNER_NAMES = (
    "whatif_plan",
    "correct_plan",
    "execute",
    "telemetry_to_labels",
    "candidate_valuation",
    "enumerate_configuration",
    "encode_operator",
    "generate_candidates",
    "run_baseline",
)

OWNERS = (
    correction,
    costmodel,
    experiment,
    plan,
    selection,
    tuner,
    tuner.OnlineTuner,
    costmodel.CostMultiplierModel,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def test_layered_tracer_installs_and_restores_cleanly():
    before = snapshot()
    tracer = load_tracer().Tracer(layers=True)
    try:
        tracer.install()
        for name in TUNER_NAMES:
            assert getattr(tuner, name) is not before[tuner][name], name
            assert getattr(tuner, name).__wrapped__ is before[tuner][name], name
    finally:
        tracer.restore()
    after = snapshot()
    for owner in OWNERS:
        assert after[owner].keys() == before[owner].keys(), owner
        for name, value in before[owner].items():
            assert after[owner][name] is value, (owner, name)
