"""Walk one cost correction through a join by hand: scale an index-scan
leaf by 2x and follow the deltas to the root, then let the uncertainty
gate decide which of two leaves deserves correction."""

from idxlab import IndexCandidate, PlanNode, update_cost
from idxlab.catalog import Catalog, ColumnDef, TableDef
from idxlab.correction import correct_plan
from idxlab.costmodel import CostMultiplierModel, nearest_bucket_index
from idxlab.plan import encoding_length

def example_plan():
    outer = PlanNode("SeqScan", startup_cost=0.0, exec_cost=700.0,
                     est_rows=50000.0, table="a")
    inner = PlanNode("IndexScan", startup_cost=0.0, exec_cost=1.35, est_rows=1.0,
                     table="b", index=IndexCandidate("b", ("k",), 1))
    root = PlanNode("NestedLoopJoin", startup_cost=0.0, exec_cost=113587.0,
                    est_rows=50000.0, children=[outer, inner])
    return root, outer, inner


root, outer, inner = example_plan()

print(f"before: inner c_e={inner.exec_cost}  join c_e={root.exec_cost}")
ledger = update_cost(root, inner, 2.0)
print(f"after doubling the inner leaf:")
print(f"  inner c_e = {inner.exec_cost}   (delta {ledger.delta_for(inner)[1]})")
print(f"  join  c_e = {root.exec_cost}   "
      f"(delta = rows(outer) x delta(inner) = 50000 x 1.35 = "
      f"{ledger.delta_for(root)[1]})")

# same plan, but now the decision is gated by model uncertainty
catalog = Catalog(
    tables=(
        TableDef("a", 50000, 100, (ColumnDef("x", "numeric", 10, 0.0, 1.0, 8),)),
        TableDef("b", 1000, 10, (ColumnDef("k", "numeric", 10, 0.0, 1.0, 8),)),
    ),
    seed=0,
)
dim = encoding_length(catalog)
uncertain = CostMultiplierModel(input_dim=dim, seed=1)  # untrained: max entropy
confident = CostMultiplierModel(input_dim=dim, seed=2)
confident.params["b3"][nearest_bucket_index(2.0)] = 800.0  # saturated at 2.0x

fresh, _, _ = example_plan()
result = correct_plan(
    fresh,
    models={"SeqScan": uncertain, "IndexScan": confident},
    catalog=catalog,
    threshold=0.1,
    mix_weight=0.5,
    passes=10,
)
for report in result.reports:
    verdict = ("corrected by "
               f"{report.multiplier}x" if report.multiplier else "left alone")
    print(f"  {report.leaf.kind:>10}: U={report.score.combined:.3f} -> {verdict}")
print(f"corrected plan cost: {result.corrected_cost}")
