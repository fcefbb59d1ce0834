"""Report assembly: tagged rows, tolerance table, CSV/JSON serialization.

CSV is the primary artifact; the schema is fixed to
metric,n,value_re,value_im,target_re,target_im,provenance,pass
with a mandatory header, UTF-8 and LF endings.  JSON mirrors it one object
per row plus a metadata block.  Row order is (metric, n), so the order in
which the cells ran never changes the output bytes.
"""

import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

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


def _fmt(x):
    return f"{x:.17g}"


@dataclass
class Report:
    config_echo: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    timestamp: float = field(default_factory=time.time)

    def add(self, row):
        self.rows.append(row)

    def extend(self, rows):
        self.rows.extend(rows)

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.metric, r.n))

    def failures(self):
        return [r for r in self.rows if not r.passed]

    def all_passed(self):
        return not self.failures()

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["metric", "n", "value_re", "value_im",
                    "target_re", "target_im", "provenance", "pass"])
        for r in self.sorted_rows():
            w.writerow([r.metric, r.n, _fmt(r.value.real), _fmt(r.value.imag),
                        _fmt(r.target.real), _fmt(r.target.imag),
                        r.provenance, "pass" if r.passed else "fail"])
        return buf.getvalue()

    def to_json(self):
        payload = {
            "metadata": {
                "artifact_version": __version__,
                "config": self.config_echo,
                "timestamp": self.timestamp,
            },
            "rows": [
                {
                    "metric": r.metric, "n": r.n,
                    "value_re": r.value.real, "value_im": r.value.imag,
                    "target_re": r.target.real, "target_im": r.target.imag,
                    "provenance": r.provenance, "tolerance": r.tolerance,
                    "pass": r.passed,
                }
                for r in self.sorted_rows()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

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
