"""Run records and their emission as text tables or machine-readable JSON.

A report's born and restricted records are one type: the state restricted
to the measured observable's algebra, its one character column printed as
the outcomes, and to the readout algebra.

Machine form: one JSON object with keys in the fixed order born,
collapsed_diag, restricted, empirical, max_deviation, cross_terms. Every
float is printed with 12 significant digits, and values are pre-rounded
through that decimal form, so emitting, parsing and re-emitting a report is
byte-stable. Every JSON text the package prints (reports, comparison
summaries and verify's results) has exactly the bytes of
json.dumps(payload, indent=2). It comes from one emitter, dumps, that
joins each list of finite numbers in one pass instead of encoding it item by
item; a property test holds it to json.dumps on drawn payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import linalg
from .algebra import SpectralProbabilityMeasure
from .errors import UnknownFormat


_PRINTED = ".12g"  # the 12-significant-digit decimal every float is printed in


def sig12(x: float) -> float:
    """Round through the 12-significant-digit decimal used for output."""
    return float(format(float(x), _PRINTED))


def _sig12_list(xs) -> list[float]:
    """sig12 of every entry of a float sequence or 1-d array."""
    if isinstance(xs, np.ndarray):
        xs = xs.tolist()
    return [float(format(x, _PRINTED)) for x in xs]


def _fmt(x: float) -> str:
    return format(float(x), _PRINTED)


def dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for plain data with string
    keys, indent being the current nesting's leading spaces. json prints an
    exact float or int as its repr unless it is a NaN or an infinity, so a
    list of them is joined with repr in one pass, and a lone one is its
    repr, when the result shows neither; True, False and None are written
    as their literals, and keys and strings through the escaper json.dumps
    itself calls for a str."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, obj)) <= {float, int}:
            body = sep.join(map(repr, obj))
            # the repr of a finite number has no "n"; nan, inf and -inf do
            if "n" not in body:
                return f"[\n{inner}{body}\n{indent}]"
        return f"[\n{inner}{sep.join([dumps(x, inner) for x in obj])}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        sep = ",\n" + inner
        items = [f"{encode_basestring_ascii(k)}: {dumps(v, inner)}" for k, v in obj.items()]
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    if type(obj) in {float, int}:
        text = repr(obj)
        if "n" not in text:
            return text
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    return json.dumps(obj)


@dataclass(frozen=True, eq=False)
class EmpiricalCounts:
    """Sampled outcome counts out of trials; each relative frequency,
    count / trials, is computed where it is printed or read."""

    counts: tuple[int, ...]
    trials: int


@dataclass(frozen=True, eq=False)
class Report:
    """One run's analytic distributions, optional sampling record, and the
    named route residuals of measurement.largest_gaps."""

    born: SpectralProbabilityMeasure
    collapsed_diag: tuple[float, ...]
    restricted: SpectralProbabilityMeasure
    empirical: EmpiricalCounts | None
    residuals: dict[str, tuple[float, int]]
    cross_terms: tuple[float, ...]

    def __post_init__(self) -> None:
        linalg.require_weights(self.collapsed_diag, "collapse diagonal")

    @property
    def max_deviation(self) -> float:
        """The worst disagreement: the largest route residual."""
        return max(gap for gap, _ in self.residuals.values())


def report_payload(r: Report) -> dict:
    """Plain-data form of a report, floats rounded to the printed precision."""
    empirical = None
    if r.empirical is not None:
        empirical = {
            "counts": list(r.empirical.counts),
            "frequencies": _sig12_list([c / r.empirical.trials for c in r.empirical.counts]),
            "trials": r.empirical.trials,
        }
    return {
        "born": {
            "outcomes": _sig12_list(r.born.characters[:, 0]),
            "probabilities": _sig12_list(r.born.weights),
        },
        "collapsed_diag": _sig12_list(r.collapsed_diag),
        "restricted": {
            "characters": [_sig12_list(ch) for ch in r.restricted.characters.tolist()],
            "weights": _sig12_list(r.restricted.weights),
        },
        "empirical": empirical,
        "max_deviation": sig12(r.max_deviation),
        "cross_terms": _sig12_list(r.cross_terms),
    }


def _table(r: Report) -> list[str]:
    lines = ["born vs collapse (outcomes ascending):"]
    lines.append(f"  {'outcome':<20} {'born':<20} collapse")
    outcomes = r.born.characters[:, 0]
    for o, p, c in zip(outcomes, r.born.weights, r.collapsed_diag):
        lines.append(f"  {_fmt(o):<20} {_fmt(p):<20} {_fmt(c)}")
    lines.append("restricted measure:")
    lines.append(f"  {'character':<28} weight")
    for ch, w in zip(r.restricted.characters, r.restricted.weights):
        label = "(" + ", ".join(_fmt(x) for x in ch) + ")"
        lines.append(f"  {label:<28} {_fmt(w)}")
    if r.empirical is not None:
        lines.append(f"empirical (trials={r.empirical.trials}):")
        lines.append(f"  {'outcome':<20} {'count':<12} frequency")
        for o, c in zip(outcomes, r.empirical.counts):
            lines.append(f"  {_fmt(o):<20} {c:<12} {_fmt(c / r.empirical.trials)}")
    lines.append(f"max deviation: {_fmt(r.max_deviation)}")
    lines.append("cross terms:")
    for i, x in enumerate(r.cross_terms):
        lines.append(f"  generator {i}: {_fmt(x)}")
    return lines


def emit_report(r: Report, format_selector: str) -> str:
    """Render a report. format_selector is "table" or "json"."""
    if format_selector == "json":
        return dumps(report_payload(r)) + "\n"
    if format_selector == "table":
        return "\n".join(_table(r)) + "\n"
    raise UnknownFormat(f"unknown format {format_selector!r}")


@dataclass(frozen=True)
class ComparisonSummary:
    """Worst and mean disagreement between the collapse diagonal and the
    restriction weights over randomized runs. worst_case_key is the full
    substream key of the offending case, so it can be replayed alone; route
    is the residual's name, which the printed summary leaves out."""

    dim: int
    n_random: int
    seed: int
    worst: float
    mean: float
    worst_index: int
    worst_case_key: tuple[int, ...]
    route: str


def emit_summary(s: ComparisonSummary, format_selector: str) -> str:
    if format_selector == "json":
        # the fields in declaration order but the route, the floats at printed precision
        payload = {
            **vars(s),
            "worst": sig12(s.worst),
            "mean": sig12(s.mean),
            "worst_case_key": list(s.worst_case_key),
        }
        del payload["route"]
        return dumps(payload) + "\n"
    if format_selector == "table":
        lines = [
            f"collapse vs restriction over {s.n_random} random cases at dim {s.dim} (seed {s.seed}):",
            f"  worst deviation: {_fmt(s.worst)} (case {s.worst_index}, stream key {list(s.worst_case_key)})",
            f"  mean deviation:  {_fmt(s.mean)}",
        ]
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown format {format_selector!r}")


@dataclass(frozen=True)
class CheckResult:
    """One verify check's worst residual, against its pinned tolerance."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str


def emit_checks(results: list[CheckResult], format_selector: str) -> str:
    """Render verify's results: one PASS/FAIL line each, or a JSON list."""
    if format_selector == "json":
        payload = [
            {**vars(r), "worst": sig12(r.worst), "tolerance": sig12(r.tolerance)} for r in results
        ]
        return dumps(payload) + "\n"
    if format_selector == "table":
        return "".join(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: worst {r.worst:.3e}, "
            f"tolerance {r.tolerance:.1e} ({r.detail})\n"
            for r in results
        )
    raise UnknownFormat(f"unknown format {format_selector!r}")
