"""Query templates over a catalog and drifting mini-workload schedules.

Templates fix a left-deep join order, so the simulated planner only ever
chooses access paths. A schedule materializes one MiniWorkload per round under
one of four drift patterns, all built by one rule: the round's template set
drifts every `period` rounds, which is 1 for continuous and cyclic,
`DriftSchedule.period` for periodic and never for static, and a cyclic
schedule replays its first `cycle_length` sets. Template replacement prefers
never-used templates while any remain, then recycles. Literals are freshly
sampled for every materialized query.

A schedule file is read in one pass (`load_schedule`), which checks its
structure, each template against the catalog and each query's literals.
"""

import json
import math
import re
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .catalog import (
    COMPARISON_OPS,
    NUMERIC,
    STRING,
    Catalog,
    ColumnRef,
    selectivity,
)
from .errors import (
    FIELDS,
    CatalogLookupError,
    ConfigurationError,
    Field,
    check_fields,
    read_json_object,
    require_finite,
    require_integer,
)
from .plan import Predicate
from .seeding import rng_for

_STRING_OPS = ("=", "!=")
_STRING_TOKEN = re.compile(r"v[0-9]+")
# the largest integer a float holds exactly; weighted cost sums stay finite
MAX_FREQUENCY_WEIGHT = 2**53


@dataclass(frozen=True)
class LiteralSampler:
    """Domain-uniform literal sampler baked into a filter spec."""

    kind: str
    low: float = 0.0
    high: float = 1.0
    distinct: int = 1

    def sample(self, rng):
        if self.kind == NUMERIC:
            return float(rng.uniform(self.low, self.high))
        return f"v{int(rng.integers(0, self.distinct))}"


@dataclass(frozen=True)
class FilterSpec:
    column: ColumnRef
    op: str
    sampler: LiteralSampler


@dataclass(frozen=True)
class JoinSpec:
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class QueryTemplate:
    id: str
    tables: tuple
    join_predicates: tuple
    filter_specs: tuple
    order_by: tuple = ()
    group_by: tuple = ()
    payload_columns: tuple = ()

    def validate(self, catalog: Catalog) -> None:
        if len(self.tables) < 1:
            raise ConfigurationError("template must reference at least one table")
        for table in self.tables:
            catalog.table(table)
        if len(self.join_predicates) != len(self.tables) - 1:
            raise ConfigurationError("left-deep template needs |tables|-1 joins")
        for i, j in enumerate(self.join_predicates):
            if j.left.table != self.tables[i] or j.right.table != self.tables[i + 1]:
                raise ConfigurationError(
                    f"join {i} of {self.id} does not connect adjacent tables"
                )
        for ref in self._column_refs():
            catalog.column(ref.table, ref.column)
            if ref.table not in self.tables:
                raise ConfigurationError(f"{self.id}: column {ref} off-template")
        for f in self.filter_specs:
            kind = catalog.column(*f.column).kind
            ops = COMPARISON_OPS if kind == NUMERIC else _STRING_OPS
            if f.op not in ops:
                raise ConfigurationError(
                    f"op of the filter on {kind} column {f.column} must be one of "
                    f"{', '.join(map(repr, ops))}, got {f.op!r}"
                )
            # queries hash their template, so each field must be a plain value
            sampler, where = f.sampler, f"sampler of the filter on {f.column}"
            Field(f"{where}: kind", (kind,), kind).check(sampler.kind)
            require_finite(sampler.low, f"{where}: low")
            require_finite(sampler.high, f"{where}: high")
            Field(f"{where}: distinct", "integer", 1, 1).check(sampler.distinct)

    def _column_refs(self) -> list:
        """Every column reference of the template, in the order `validate`
        checks them: join lefts, join rights, filters, order-by, group-by,
        payload."""
        refs = [j.left for j in self.join_predicates]
        refs += [j.right for j in self.join_predicates]
        refs += [f.column for f in self.filter_specs]
        refs += list(self.order_by) + list(self.group_by) + list(self.payload_columns)
        return refs

    @cached_property
    def referenced_columns(self) -> dict:
        """{table: frozenset of the columns the template reads from it}."""
        cols = {}
        for ref in self._column_refs():
            cols.setdefault(ref.table, set()).add(ref.column)
        return {table: frozenset(c) for table, c in cols.items()}

    @cached_property
    def filter_columns(self) -> dict:
        """{table: {filtered column: ()}}, the shape ``_matched_prefix`` reads."""
        cols = {}
        for f in self.filter_specs:
            cols.setdefault(f.column.table, {})[f.column.column] = ()
        return cols


@dataclass(frozen=True)
class Query:
    template: QueryTemplate
    bound_literals: tuple
    frequency_weight: int = 1

    def __post_init__(self):
        if len(self.bound_literals) != len(self.template.filter_specs):
            raise ConfigurationError("literal count must match filter spec count")
        require_integer(self.frequency_weight, "frequency_weight")
        if not 1 <= self.frequency_weight <= MAX_FREQUENCY_WEIGHT:
            raise ConfigurationError(
                "frequency_weight must lie in [1, 2**53], "
                f"got {self.frequency_weight!r}"
            )

    def validate(self, catalog: Catalog) -> None:
        """Check each literal against its filter column's kind; the template
        must already be valid."""
        for spec, value in zip(self.template.filter_specs, self.bound_literals):
            where = f"literal for {spec.column}"
            if catalog.column(*spec.column).kind == NUMERIC:
                require_finite(value, where)
            elif not (isinstance(value, str) and _STRING_TOKEN.fullmatch(value)):
                raise ConfigurationError(
                    f"{where} must be a string token v<k>, got {value!r}"
                )

    @cached_property
    def predicates_by_table(self) -> dict:
        """The bound filter predicates grouped by table name, in filter order."""
        by_table = {}
        for spec, literal in zip(self.template.filter_specs, self.bound_literals):
            p = Predicate(spec.column, spec.op, literal)
            by_table.setdefault(spec.column.table, []).append(p)
        return by_table

    def filter_selectivities(self, catalog: Catalog) -> dict:
        """{table: selectivity of the query's filters on it} under ``catalog``.

        Kept for the catalog object it was computed against, and recomputed
        when the query is planned against another one.
        """
        memo = self.__dict__.get("_filter_selectivities")
        if memo is None or memo[0] is not catalog:
            sels = {
                table: selectivity(preds, catalog)
                for table, preds in self.predicates_by_table.items()
            }
            memo = (catalog, sels)
            object.__setattr__(self, "_filter_selectivities", memo)
        return memo[1]

    def key(self) -> tuple:
        """Stable identity for caching: (template id, bound literals)."""
        return (self.template.id, self.bound_literals)


@dataclass(frozen=True)
class MiniWorkload:
    round: int
    queries: tuple

    def __post_init__(self):
        if len(self.queries) == 0:
            raise ConfigurationError(f"round {self.round}: no queries")

    @cached_property
    def templates(self) -> tuple:
        """The round's distinct templates, in order of first use. A template
        id names one template object, as the generator and
        `schedule_from_dict` make them."""
        return tuple({q.template.id: q.template for q in self.queries}.values())


@dataclass(frozen=True)
class DriftSchedule:
    kind: str
    total_rounds: int
    templates_per_round: int
    change_fraction: float = FIELDS["workload.change_fraction"].default
    period: int = FIELDS["workload.period"].default
    cycle_length: int = FIELDS["workload.cycle_length"].default
    queries_per_template: int = FIELDS["workload.queries_per_template"].default

    def __post_init__(self):
        check_fields(self, "workload")


def generate_templates(catalog: Catalog, n: int, seed: int) -> list:
    """Deterministically generate n distinct query templates over a catalog."""
    FIELDS["workload.n_templates"].check(n)
    rng = rng_for(seed, "templates")
    table_names = [t.name for t in catalog.tables]
    templates, signatures = [], set()
    attempts, max_attempts = 0, 1000 + 50 * n
    while len(templates) < n:
        attempts += 1
        if attempts > max_attempts:
            raise ConfigurationError(
                f"workload.n_templates must be at most the {len(templates)} "
                f"distinct templates found in the catalog, got {n}"
            )
        max_tables = min(3, len(table_names))
        weights = np.array([0.5, 0.3, 0.2][:max_tables])
        n_tables = 1 + int(rng.choice(max_tables, p=weights / weights.sum()))
        tables = tuple(
            table_names[i]
            for i in rng.choice(len(table_names), size=n_tables, replace=False)
        )
        joins = []
        for left_t, right_t in zip(tables, tables[1:]):
            # never empty: `generate_catalog` makes every table's c0 numeric
            lcols = _numeric_columns(catalog, left_t)
            rcols = _numeric_columns(catalog, right_t)
            joins.append(
                JoinSpec(
                    ColumnRef(left_t, lcols[int(rng.integers(0, len(lcols)))]),
                    ColumnRef(right_t, rcols[int(rng.integers(0, len(rcols)))]),
                )
            )
        n_filters = int(rng.integers(1, 4))
        filters, used = [], set()
        for _ in range(n_filters):
            t = tables[int(rng.integers(0, len(tables)))]
            cols = catalog.table(t).columns
            col = cols[int(rng.integers(0, len(cols)))]
            ops = COMPARISON_OPS if col.kind == NUMERIC else _STRING_OPS
            op = ops[int(rng.integers(0, len(ops)))]
            if (t, col.name, op) in used:
                continue
            used.add((t, col.name, op))
            filters.append(
                FilterSpec(ColumnRef(t, col.name), op, _sampler_for(col))
            )
        order_by = ()
        if rng.random() < 0.3:
            order_by = (_random_column(catalog, tables, rng),)
        group_by = ()
        if rng.random() < 0.2:
            group_by = (_random_column(catalog, tables, rng),)
        n_payload = int(rng.integers(1, 3))
        payload = tuple(_random_column(catalog, tables, rng) for _ in range(n_payload))
        sig = (
            tables,
            tuple((j.left, j.right) for j in joins),
            tuple((f.column, f.op) for f in filters),
            order_by,
            group_by,
        )
        if sig in signatures:
            continue
        signatures.add(sig)
        tpl = QueryTemplate(
            id=f"T{len(templates):03d}",
            tables=tables,
            join_predicates=tuple(joins),
            filter_specs=tuple(filters),
            order_by=order_by,
            group_by=group_by,
            payload_columns=payload,
        )
        tpl.validate(catalog)
        templates.append(tpl)
    return templates


def _numeric_columns(catalog, table_name):
    return [c.name for c in catalog.table(table_name).columns if c.kind == NUMERIC]


def _random_column(catalog, tables, rng) -> ColumnRef:
    t = tables[int(rng.integers(0, len(tables)))]
    cols = catalog.table(t).columns
    return ColumnRef(t, cols[int(rng.integers(0, len(cols)))].name)


def _sampler_for(col) -> LiteralSampler:
    if col.kind == NUMERIC:
        return LiteralSampler(NUMERIC, col.min_value, col.max_value)
    return LiteralSampler(STRING, distinct=col.distinct_count)


def bind_query(template: QueryTemplate, rng, frequency_weight: int = 1) -> Query:
    literals = tuple(f.sampler.sample(rng) for f in template.filter_specs)
    return Query(template, literals, frequency_weight)


def build_schedule(templates, sched: DriftSchedule, seed: int) -> list:
    """Materialize one MiniWorkload per round under the requested drift pattern."""
    pool = list(templates)
    tpr = sched.templates_per_round
    if tpr > len(pool):
        raise ConfigurationError(
            f"workload.templates_per_round must be at most the {len(pool)} "
            f"templates, got {tpr}"
        )
    swap = math.ceil(sched.change_fraction * tpr)
    if sched.kind != "static" and len(pool) - tpr < swap:
        raise ConfigurationError(
            f"workload.change_fraction must swap at most the {len(pool) - tpr} "
            f"templates left out of a round, got {sched.change_fraction} "
            f"({swap} of {tpr})"
        )

    pick_rng = rng_for(seed, "schedule")
    order = list(pick_rng.permutation(len(pool)))
    current = order[:tpr]
    used = set(current)

    def drift(cur):
        if swap == 0:
            return list(cur)
        out_pos = sorted(
            pick_rng.choice(len(cur), size=swap, replace=False).tolist()
        )
        keep = [x for i, x in enumerate(cur) if i not in set(out_pos)]
        fresh = [i for i in range(len(pool)) if i not in used]
        chosen = []
        if fresh:
            take = min(swap, len(fresh))
            idx = pick_rng.choice(len(fresh), size=take, replace=False)
            chosen += [fresh[i] for i in sorted(idx.tolist())]
        if len(chosen) < swap:
            spare = [
                i
                for i in range(len(pool))
                if i not in set(cur) and i not in set(chosen)
            ]
            idx = pick_rng.choice(
                len(spare), size=swap - len(chosen), replace=False
            )
            chosen += [spare[i] for i in sorted(idx.tolist())]
        used.update(chosen)
        return keep + chosen

    # the one drift rule of the module docstring
    period = {"static": 0, "periodic": sched.period}.get(sched.kind, 1)
    rounds = sched.total_rounds
    if sched.kind == "cyclic":
        rounds = min(rounds, sched.cycle_length)
    sets = [current]
    for r in range(1, rounds):
        sets.append(drift(sets[-1]) if period and r % period == 0 else sets[-1])
    sets = [sets[r % len(sets)] for r in range(sched.total_rounds)]

    workloads = []
    for r, members in enumerate(sets):
        literal_rng = rng_for(seed, "literals", r)
        queries = []
        for idx in members:
            tpl = pool[idx]
            for _ in range(sched.queries_per_template):
                queries.append(bind_query(tpl, literal_rng))
        workloads.append(MiniWorkload(round=r, queries=tuple(queries)))
    return workloads


def unseen_fraction(workload: MiniWorkload, seen_template_ids) -> float:
    """Fraction of distinct templates in the round not seen before."""
    templates = workload.templates
    unseen = sum(1 for t in templates if t.id not in seen_template_ids)
    return unseen / len(templates)


def schedule_to_dict(workloads) -> dict:
    templates = {t.id: t for w in workloads for t in w.templates}
    return {
        "templates": [asdict(t) for _, t in sorted(templates.items())],
        "rounds": [
            {
                "round": w.round,
                "queries": [
                    {
                        "template": q.template.id,
                        "literals": list(q.bound_literals),
                        "frequency_weight": q.frequency_weight,
                    }
                    for q in w.queries
                ],
            }
            for w in workloads
        ],
    }


def schedule_from_dict(data: dict, catalog: Catalog) -> list:
    """The rounds of a parsed schedule file. Each template is checked against
    ``catalog`` in the round that first uses it, and each query's literals as
    the query is built; errors name the round and the template."""
    templates = {}
    for t in _objects(data["templates"], "templates"):
        if not isinstance(t["id"], str):
            raise ConfigurationError(f"template id {t['id']!r} must be a string")
        if t["id"] in templates:
            raise ConfigurationError(f"template id {t['id']!r} is defined twice")
        templates[t["id"]] = _template_from_dict(t)
    rounds = _objects(data["rounds"], "rounds")
    if not rounds:
        raise ConfigurationError("no rounds")
    checked, out = set(), []
    # the tuner numbers rounds by position, and error messages quote it
    for position, r in enumerate(rounds):
        number = r["round"]
        if type(number) is not int or number != position:
            raise ConfigurationError(
                f"round at position {position}: \"round\" must be {position}, "
                f"got {number!r}"
            )
        queries = []
        for q in _objects(r["queries"], f"round {position}: queries"):
            name = q["template"]
            if not isinstance(name, str) or name not in templates:
                raise ConfigurationError(
                    f"round {position}: template {name!r} is not defined"
                )
            template = templates[name]
            try:
                if name not in checked:
                    template.validate(catalog)
                    checked.add(name)
                literals = tuple(
                    v if isinstance(v, (str, bool)) else float(v) for v in q["literals"]
                )
                query = Query(template, literals, q.get("frequency_weight", 1))
                query.validate(catalog)
            except (ArithmeticError, CatalogLookupError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"round {position}: template {name!r}: {exc.args[0]}"
                ) from None
            queries.append(query)
        out.append(MiniWorkload(round=position, queries=tuple(queries)))
    return out


def _objects(value, name: str) -> list:
    """``value``, the list ``name`` of a schedule file, once it is checked to
    be a list of JSON objects."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{name} is not a list")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{name}[{i}] is not a JSON object")
    return value


def save_schedule(workloads, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(schedule_to_dict(workloads), f, indent=2, sort_keys=True)


def load_schedule(path, catalog: Catalog) -> list:
    """The schedule file at ``path``, checked against ``catalog``; any fault
    in it is one ConfigurationError line naming the file."""
    data = read_json_object(path, "schedule file")
    try:
        return schedule_from_dict(data, catalog)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(f"schedule file {path}: {what}") from None


def _template_from_dict(d: dict) -> QueryTemplate:
    return QueryTemplate(
        id=d["id"],
        tables=tuple(d["tables"]),
        join_predicates=tuple(
            JoinSpec(ColumnRef(*j["left"]), ColumnRef(*j["right"]))
            for j in d["join_predicates"]
        ),
        filter_specs=tuple(
            FilterSpec(
                ColumnRef(*f["column"]),
                f["op"],
                LiteralSampler(**f["sampler"]),
            )
            for f in d["filter_specs"]
        ),
        order_by=tuple(ColumnRef(*c) for c in d["order_by"]),
        group_by=tuple(ColumnRef(*c) for c in d["group_by"]),
        payload_columns=tuple(ColumnRef(*c) for c in d["payload_columns"]),
    )
