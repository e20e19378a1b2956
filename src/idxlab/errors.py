"""Exception types shared across the package, the checks on user input
that raise them (the one reader of config, manifest and schedule files
included), and the table of config fields that drives every config check,
default and message."""

import json
import math
import numbers


class ConfigurationError(ValueError):
    """User-supplied parameters are out of range or mutually inconsistent."""


class CatalogLookupError(KeyError):
    """A table, column, index, or plan-node reference cannot be resolved."""


class ContractError(ValueError):
    """A numeric contract was violated (bad simplex, nonpositive denominator, ...)."""


class ReplayMismatchError(Exception):
    """A replay produced artifacts whose checksums differ from its manifest's."""


def require_integer(value, where: str) -> None:
    """Reject a user-supplied value that is not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")


def require_finite(value, where: str) -> None:
    """Reject a user-supplied value that is not a finite real number (bools
    included)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not isinstance(value, numbers.Integral) and not math.isfinite(value)
    ):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; ``what`` names it in errors."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"{what} {path}: not UTF-8 text") from None


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``. A file that is not one is a
    one-line ConfigurationError: ``<what> <path>: line L, column C: msg``,
    ``<what> <path>: not UTF-8 text`` or ``<what> <path>: not a JSON object``."""
    try:
        data = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{what} {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} {path}: not a JSON object")
    return data


DRIFT_KINDS = ("static", "continuous", "periodic", "cyclic")
# seeding.subseed keeps a seed's low 64 bits, so seeds past this range would
# name one experiment twice
SEED_LIMIT = 2**64
# A candidate's value is EB * (1 + lambda * EV) with EB <= 1 and EV a sum of
# leaf uncertainties, each below ln 37 + 1; lambda up to this keeps every
# value, and the sum the sampling probabilities divide by, far from overflow.
MAX_EXPLORE_INIT = 1e6

_KIND_TEXT = {
    "integer": "an integer",
    "number": "a number",
    "string": "a string",
    "integer pair": "a [low, high] pair of integers",
    "integer list": "a nonempty list of integers",
}


class Field:
    """One config field: its dotted path, its type (``kind``), its default,
    and the range its value (each item of a pair or a list) must lie in.

    A kind is "integer", "number", "string", "integer pair" (a [low, high]
    list with low <= high), "integer list" (nonempty), or the tuple of the
    values the field may take. ``bounds`` says whether each end of the range
    is closed ("[", "]") or open ("(", ")"). A field whose default is null
    may be null.
    """

    def __init__(self, path, kind, default, low=-math.inf, high=math.inf, bounds="[]"):
        self.path, self.kind, self.default = path, kind, default
        self.low, self.high, self.bounds = low, high, bounds

    @property
    def range(self) -> str:
        """The range as the messages and the README write it: ">= 1" or
        "in [0, 1]"; empty for a string or a choice."""
        if self.kind == "string" or isinstance(self.kind, tuple):
            return ""
        low, high = (
            "2**64" if x == SEED_LIMIT else f"{x:g}" for x in (self.low, self.high)
        )
        if self.high == math.inf:
            return f"{'>=' if self.bounds[0] == '[' else '>'} {low}"
        return f"in {self.bounds[0]}{low}, {high}{self.bounds[1]}"

    @property
    def rule(self) -> str:
        """What a value of the field must be, as its messages say."""
        if isinstance(self.kind, tuple):
            return "one of " + ", ".join(map(repr, self.kind))
        text = " ".join(filter(None, (_KIND_TEXT[self.kind], self.range)))
        if self.kind == "integer pair":
            text += " with low <= high"
        return text + (" or null" if self.default is None else "")

    def check(self, value) -> None:
        """Raise a one-line ConfigurationError naming the path unless
        ``value`` is a value of the field."""
        if value is None and self.default is None:
            return
        if not self._fits(value):
            raise ConfigurationError(f"{self.path} must be {self.rule}, got {value!r}")

    def _fits(self, value) -> bool:
        kind = self.kind
        if isinstance(kind, tuple):
            return value in kind
        if kind == "string":
            return isinstance(value, str)
        if kind in ("integer", "number"):
            items = (value,)
        elif isinstance(value, (list, tuple)) and (
            len(value) == 2 if kind == "integer pair" else len(value) >= 1
        ):
            items = value
        else:
            return False
        number = numbers.Real if kind == "number" else numbers.Integral
        for v in items:
            if isinstance(v, bool) or not isinstance(v, number) or not self._within(v):
                return False
        return kind != "integer pair" or items[0] <= items[1]

    def _within(self, v) -> bool:
        above = v >= self.low if self.bounds[0] == "[" else v > self.low
        return above and (v <= self.high if self.bounds[1] == "]" else v < self.high)


_SEEDS = (0, SEED_LIMIT, "[)")

FIELDS = {
    row.path: row
    for row in (
        # every operator encoding has 4 entries per catalog column, and each
        # model a first layer of 64 weights per entry, in six flat vectors
        # (the parameters, Adam's two moments, the gradients and two scratch
        # vectors): at 64 tables of 32 columns, about 25 MB a model
        Field("catalog.n_tables", "integer", 4, 1, 64),
        # row counts are drawn as int64, which ends below 10**19; the bound
        # sits far above the 100,000 rows the repository runs
        Field("catalog.rows_range", "integer pair", [1000, 50000], 1, 10**12),
        Field("catalog.cols_per_table_range", "integer pair", [3, 6], 1, 32),
        Field("catalog.string_column_fraction", "number", 0.25, 0, 1),
        Field("catalog.seed", "integer", None, *_SEEDS),
        # a template search for far more templates than a catalog offers
        # runs on without end
        Field("workload.n_templates", "integer", 12, 1, 1000),
        Field("workload.kind", DRIFT_KINDS, "static"),
        # a schedule's bound queries are all drawn before the first round:
        # total_rounds x templates_per_round x queries_per_template of them.
        # The bounds sit far above what the repository runs (40 rounds, 8
        # queries per template, 8 tables of up to 6 columns)
        Field("workload.total_rounds", "integer", 10, 1, 1000),
        Field("workload.templates_per_round", "integer", 8, 1),
        Field("workload.change_fraction", "number", 0.2, 0, 1),
        Field("workload.period", "integer", 4, 1),
        Field("workload.cycle_length", "integer", 15, 1),
        Field("workload.queries_per_template", "integer", 3, 1, 100),
        Field("workload.seed", "integer", None, *_SEEDS),
        Field("workload.schedule_file", "string", None),
        # execution noise factors are exp(sigma * z) with z standard normal; at
        # a sigma far above 10 they overflow, and observed benefits with them
        Field("environment.noise_sigma", "number", 0.05, 0, 10),
        Field("environment.ground_truth_seed", "integer", None, *_SEEDS),
        # a threshold of infinity corrects every leaf
        Field("tuner.uncertainty_threshold", "number", 0.1, 0, math.inf),
        Field("tuner.uncertainty_mix", "number", 0.5, 0, 1, "()"),
        Field("tuner.explore_init", "number", 0.5, 0, MAX_EXPLORE_INIT, "(]"),
        Field("tuner.explore_decay", "number", 0.9, 0, 1, "()"),
        # the MC-dropout batch grows with the passes; at 1,000 a chunk of
        # scored leaves takes about 8 MB
        Field("tuner.mcd_passes", "integer", 20, 2, 1000),
        Field("tuner.epsilon", "number", 0.1, 0, 1),
        Field("tuner.per_table_cap", "integer", 3, 1),
        Field("budget.mode", ("count", "storage"), "count"),
        Field("budget.max_indexes", "integer", 8, 1),
        Field("budget.storage_bytes", "integer", None, 1),
        Field("output_dir", "string", "out"),
        Field("replications", "integer list", [1], *_SEEDS),
    )
}


def check_fields(obj, section: str, **paths) -> None:
    """Check each field of the dataclass ``obj`` against the config field
    ``<section>.<name>``, or the path ``paths`` gives for that name."""
    for name in obj.__dataclass_fields__:
        FIELDS[paths.get(name, f"{section}.{name}")].check(getattr(obj, name))
