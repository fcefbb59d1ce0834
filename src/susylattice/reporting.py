"""Report assembly: tagged rows, tolerance table, CSV/JSON serialization.

CSV is the primary artifact; the schema is fixed to
metric,n,value_re,value_im,target_re,target_im,provenance,pass
with a mandatory header, UTF-8 and LF endings.  JSON mirrors it one object
per row plus a metadata block.  Row order is (metric, n), so the order in
which the cells ran never changes the output bytes.

A report holds its rows as column blocks: `check_rows` builds a block
from arrays, and `check_row` one Row that `Report.extend` stacks with
others into a block.  Both formats render every row with one template.
"""

import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__

PROVENANCE_TAGS = ("PAPER", "TRIVIAL", "DERIVED")

# One versioned defaults table; override per run via --tol-file.
DEFAULT_TOLERANCES = {
    "version": 1,
    "identity": 1e-10,          # exact operator identities
    "machine": 1e-12,           # nilpotency, CAR, exact zeros
    "spectral": 1e-9,           # eigenvalue comparisons
    "overlap": 1e-8,            # quadrature state overlaps
    "gaussian": 0.01,           # extrapolated Gaussian limits
    "odlro": 0.02,              # extrapolated ODLRO values
    "rate": 0.2,                # fitted rate exponents around 1
    "slope": 0.05,              # fitted slopes (phase, variance)
    "growth": 0.1,              # second-moment growth comparisons
    "isometry": 0.02,           # ceiling-band isometry deficit
}


class ReportSchemaError(ValueError):
    """A row violates the report schema (e.g. untagged target)."""


@dataclass(frozen=True)
class Row:
    metric: str
    n: int
    value: complex
    target: complex
    provenance: str
    tolerance: float
    passed: bool

    def __post_init__(self):
        if self.provenance not in PROVENANCE_TAGS:
            raise ReportSchemaError(
                f"row {self.metric!r} carries untagged/unknown provenance "
                f"{self.provenance!r}")


def check_row(metric, n, value, target, provenance, tolerance):
    """Build a Row with the pass verdict |value - target| <= tolerance."""
    value = complex(value)
    target = complex(target)
    return Row(metric=metric, n=int(n), value=value, target=target,
               provenance=provenance, tolerance=float(tolerance),
               passed=bool(abs(value - target) <= tolerance))


# the dtype of each Block column, in the order of Row's fields
_KINDS = (str, np.int64, complex, complex, str, float, bool)


@dataclass(frozen=True)
class Block:
    """Rows as equal-length columns: the fields of Row, one array each."""

    metric: np.ndarray
    n: np.ndarray
    value: np.ndarray
    target: np.ndarray
    provenance: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray

    @classmethod
    def of_rows(cls, rows):
        """The block of a sequence of Rows, in their order."""
        rows = list(rows)
        return cls(*(np.array([getattr(r, f.name) for r in rows],
                              dtype=kind)
                     for f, kind in zip(fields(cls), _KINDS)))


def check_rows(metric, ns, values, targets, provenance, tolerance):
    """check_row element by element, as one Block: every argument is an
    array or a scalar, and they broadcast against each other.  A nan or
    infinite difference fails any finite tolerance, as in check_row."""
    provenance = np.asarray(provenance, dtype=str)
    unknown = set(provenance.ravel().tolist()) - set(PROVENANCE_TAGS)
    if unknown:
        raise ReportSchemaError(f"rows carry untagged/unknown provenance "
                                f"{sorted(unknown)}")
    metric, ns, values, targets, provenance, tolerance = (
        np.ravel(a) for a in np.broadcast_arrays(
            np.asarray(metric, dtype=str), np.asarray(ns).astype(np.int64),
            np.asarray(values, dtype=complex),
            np.asarray(targets, dtype=complex), provenance,
            np.asarray(tolerance, dtype=float)))
    with np.errstate(all="ignore"):     # inf - inf is nan, which fails
        passed = np.abs(values - targets) <= tolerance
    return Block(metric, ns, values, targets, provenance, tolerance, passed)


# one line per row, each float already formatted
_CSV_HEADER = ("metric,n,value_re,value_im,target_re,target_im,provenance,"
               "pass\n")
_CSV_ROW = "%s,%d,%s,%s,%s,%s,%s,%s\n"
_JSON_ROW = """    {
      "metric": %s,
      "n": %d,
      "pass": %s,
      "provenance": %s,
      "target_im": %s,
      "target_re": %s,
      "tolerance": %s,
      "value_im": %s,
      "value_re": %s
    }"""


def _csv_texts(texts):
    """Each text as csv.writer writes it: the few with a delimiter, quote
    or line break go through csv itself."""
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):
        return texts
    out = []
    for text in texts:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text, ""])
        out.append(buf.getvalue()[:-2])
    return out


def _json_float(x):
    """x as json.dumps writes a float."""
    if x != x:
        return "NaN"
    if abs(x) == float("inf"):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _texts(fmt, *columns):
    """fmt(x) for every float x of the equal-length arrays `columns`, one
    list per array; fmt runs once per distinct bit pattern, so -0.0 and
    0.0 stay apart."""
    x = np.concatenate(columns)
    memo = {}
    texts = [memo.get(bits) or memo.setdefault(bits, fmt(v))
             for bits, v in zip(x.view(np.uint64).tolist(), x.tolist())]
    n = len(columns[0])
    return [texts[i * n:(i + 1) * n] for i in range(len(columns))]


@dataclass
class Report:
    config_echo: dict = field(default_factory=dict)
    blocks: list = field(default_factory=list)
    timestamp: float = field(default_factory=time.time)

    def add(self, row):
        self.extend([row])

    def extend(self, rows):
        """Append check_row Rows as one block."""
        self.blocks.append(Block.of_rows(rows))

    def add_block(self, block):
        self.blocks.append(block)

    def all_passed(self):
        return all(b.passed.all() for b in self.blocks)

    def columns(self):
        """Every row as one Block, sorted by (metric, n) in string order;
        rows that tie keep the order they were added in."""
        blocks = self.blocks or [Block.of_rows([])]
        cols = [np.concatenate([getattr(b, f.name) for b in blocks])
                for f in fields(Block)]
        order = np.lexsort((cols[1], cols[0]))      # stable
        return Block(*(c[order] for c in cols))

    def to_csv(self):
        b = self.columns()
        rows = zip(_csv_texts(b.metric.tolist()), b.n.tolist(),
                   *_texts("%.17g".__mod__, b.value.real, b.value.imag,
                           b.target.real, b.target.imag),
                   b.provenance.tolist(),      # the tags need no quotes
                   np.where(b.passed, "pass", "fail").tolist())
        return _CSV_HEADER + "".join(map(_CSV_ROW.__mod__, rows))

    def to_json(self):
        b = self.columns()
        rows = ",\n".join(map(_JSON_ROW.__mod__, zip(
            map(encode_basestring_ascii, b.metric.tolist()), b.n.tolist(),
            np.where(b.passed, "true", "false").tolist(),
            map(encode_basestring_ascii, b.provenance.tolist()),
            *_texts(_json_float, b.target.imag, b.target.real, b.tolerance,
                    b.value.imag, b.value.real))))
        head = json.dumps({"metadata": {
            "artifact_version": __version__,
            "config": self.config_echo,
            "timestamp": self.timestamp,
        }}, indent=2, sort_keys=True)
        # the "metadata" object, then "rows" as json.dumps lays them out
        return (head[:-2] + ',\n  "rows": '
                + (f"[\n{rows}\n  ]" if rows else "[]") + "\n}\n")

    def render(self, fmt):
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def load_tolerances(path=None):
    """DEFAULT_TOLERANCES updated from the JSON object in `path`, whose
    values must be finite, non-negative reals; JSON true is not 1."""
    tol = dict(DEFAULT_TOLERANCES)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ReportSchemaError("tolerance file must hold a JSON object")
        unknown = set(overrides) - set(tol)
        if unknown:
            raise ReportSchemaError(f"unknown tolerance keys {sorted(unknown)}")
        bad = sorted(k for k, v in overrides.items() if isinstance(v, bool)
                     or not isinstance(v, (int, float))
                     or not 0 <= v <= sys.float_info.max)
        if bad:
            raise ReportSchemaError(f"tolerances {bad} are not finite, "
                                    "non-negative reals")
        tol.update(overrides)
    return tol
