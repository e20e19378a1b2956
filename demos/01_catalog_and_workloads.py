"""Synthesize a catalog, derive query templates, and materialize drifting
mini-workload schedules. Everything is a pure function of explicit seeds."""

from idxlab import (
    CatalogSpec,
    DriftSchedule,
    build_schedule,
    generate_catalog,
    generate_templates,
    unseen_fraction,
)

catalog = generate_catalog(CatalogSpec(n_tables=4), seed=7)
print("catalog:")
for t in catalog.tables:
    cols = ", ".join(f"{c.name}({c.kind},{c.distinct_count})" for c in t.columns)
    print(f"  {t.name}: rows={t.row_count} pages={t.page_count} cols=[{cols}]")

templates = generate_templates(catalog, 12, seed=7)
print(f"\n{len(templates)} templates; first three:")
for t in templates[:3]:
    filters = ", ".join(f"{f.column} {f.op} ?" for f in t.filter_specs)
    joins = ", ".join(f"{j.left}={j.right}" for j in t.join_predicates)
    print(f"  {t.id}: tables={t.tables} filters=[{filters}] joins=[{joins}]")

for kind in ("static", "continuous", "periodic", "cyclic"):
    sched = DriftSchedule(
        kind, total_rounds=8, templates_per_round=6, change_fraction=0.34,
        period=3, cycle_length=4,
    )
    workloads = build_schedule(templates, sched, seed=11)
    seen = set()
    marks = []
    for w in workloads:
        marks.append(f"{unseen_fraction(w, seen):.2f}")
        seen.update(t.id for t in w.templates)
    print(f"\n{kind:>10}: per-round unseen fraction: {' '.join(marks)}")
    print(f"           round sets: {[sorted(t.id for t in w.templates) for w in workloads[:4]]} ...")
