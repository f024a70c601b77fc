"""CSV ingestion and emission of bid samples.

Two row layouts are accepted, distinguished by header:

* relative:     auction_id, bid_time           (time since the auction opened)
* timestamped:  auction_id, bid_timestamp, auction_start

Times are read in a declared unit and the horizon is declared in the same
unit; nothing is rescaled on the way in.  Rows that fall outside [0, horizon)
are handled by policy: "reject" raises with the offending line number,
"clamp-epsilon" moves negatives to 0 and late times to just inside the
horizon.  Malformed rows always raise; silently dropping data is worse than
stopping.
"""
from __future__ import annotations

import csv
import math
import operator
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .sample import BidSample

__all__ = [
    "MINUTES_PER_UNIT",
    "IngestError",
    "IngestSpec",
    "ingest",
    "ingest_summary",
    "write_sample",
    "read_metadata",
]

MINUTES_PER_UNIT = {
    "seconds": 1.0 / 60.0,
    "minutes": 1.0,
    "hours": 60.0,
    "days": 1440.0,
}

_RELATIVE_COLS = ("auction_id", "bid_time")
_TIMESTAMPED_COLS = ("auction_id", "bid_timestamp", "auction_start")
_POLICIES = ("reject", "clamp-epsilon")
_FORMATS = ("auto", "relative", "timestamped")


class IngestError(ValueError):
    """A data problem, carrying the 1-based CSV record number when known.

    Records are counted as csv reads them, comment and blank lines included.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class IngestSpec:
    path: str | Path
    horizon: float
    unit: str = "days"
    clamp_policy: str = "reject"
    fmt: str = "auto"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.unit not in MINUTES_PER_UNIT:
            raise ValueError(f"unit must be one of {sorted(MINUTES_PER_UNIT)}, got {self.unit!r}")
        if self.clamp_policy not in _POLICIES:
            raise ValueError(f"clamp_policy must be one of {_POLICIES}, got {self.clamp_policy!r}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"fmt must be one of {_FORMATS}, got {self.fmt!r}")


def _float_field(row: Mapping[str, str], col: str, line: int) -> float:
    raw = row.get(col)
    if raw is None or raw.strip() == "":
        raise IngestError(f"missing value in column {col!r}", line)
    try:
        val = float(raw)
    except ValueError:
        raise IngestError(f"cannot parse {raw!r} in column {col!r} as a number", line) from None
    if not math.isfinite(val):
        raise IngestError(f"non-finite value {raw!r} in column {col!r}", line)
    return val


def _layout(header: list[str], fmt: str) -> tuple[str, ...]:
    """The columns a header must supply; raises when it cannot supply them."""
    if fmt == "auto":
        if set(_RELATIVE_COLS) <= set(header):
            fmt = "relative"
        elif set(_TIMESTAMPED_COLS) <= set(header):
            fmt = "timestamped"
        else:
            raise IngestError(
                f"header {header} matches neither {_RELATIVE_COLS} nor {_TIMESTAMPED_COLS}")
    needed = _RELATIVE_COLS if fmt == "relative" else _TIMESTAMPED_COLS
    missing = set(needed) - set(header)
    if missing:
        raise IngestError(f"{fmt} layout is missing columns {sorted(missing)}")
    return needed


def _parse(spec: IngestSpec) -> tuple[np.ndarray, list[str], int]:
    """(times, auction ids, clamped-row count), times not yet sorted.

    A file with any problem is read again row by row, which raises the
    first problem with its line.
    """
    return _parse_columns(spec) or _parse_rows(spec)


def _parse_columns(spec: IngestSpec) -> tuple[np.ndarray, list[str], int] | None:
    """_parse with each column converted in one pass; None on any problem.

    The problem is then reported by _parse_rows, which knows its line.
    """
    cols = _read_columns(spec)
    if cols is None:
        return None
    ids = list(map(str.strip, cols[0]))
    try:
        values = [np.fromiter(map(float, col), float, len(col)) for col in cols[1:]]
    except ValueError:
        return None
    if not all(ids) or not all(np.isfinite(v).all() for v in values):
        return None
    if len(values) == 1:
        times = values[0]
    else:
        stamps, starts = values
        # one distinct (auction, start) pair per auction, or some start changed
        if len(set(zip(ids, starts.tolist()))) != len(set(ids)):
            return None
        # finite values can still differ by more than the largest float; the
        # difference is then inf, as in Python, and out of range
        with np.errstate(over="ignore"):
            times = stamps - starts
    low = times < 0.0
    high = times >= spec.horizon
    clamped = int(np.count_nonzero(low | high))
    if clamped:
        if spec.clamp_policy == "reject":
            return None
        times[low] = 0.0
        times[high] = np.nextafter(spec.horizon, 0.0)
    return times, ids, clamped


def _read_columns(spec: IngestSpec) -> tuple[list[str], ...] | None:
    """Raw fields of the needed columns, auction_id first.

    None when the header is absent or unusable or a data row has the wrong
    number of fields.
    """
    with Path(spec.path).open(newline="") as fh:
        rows = csv.reader(fh)
        for raw in rows:
            if raw and not raw[0].lstrip().startswith("#"):
                header = [h.strip().lower() for h in raw]
                break
        else:
            return None
        try:
            needed = _layout(header, spec.fmt)
        except IngestError:
            return None
        # a repeated header name means its last column, as in _parse_rows
        index = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(*(index[name] for name in needed))
        width = len(header)
        fields: list[str] = []
        extend = fields.extend
        for raw in rows:
            # only a row whose first field holds '#' can be a comment
            if len(raw) != width or "#" in raw[0]:
                if not raw or raw[0].lstrip().startswith("#"):
                    continue
                if len(raw) != width:
                    return None
            extend(pick(raw))
    k = len(needed)
    return tuple(fields[i::k] for i in range(k))


def _parse_rows(spec: IngestSpec) -> tuple[np.ndarray, list[str], int]:
    """_parse one row at a time, to report the problem _parse_columns found.

    Raises the first problem in this order: a wrong field count anywhere,
    then header and layout errors, then the first bad row in file order.
    """
    path = Path(spec.path)
    with path.open(newline="") as fh:
        line = 0
        header: list[str] | None = None
        # leading '#' lines are metadata from our own emitter
        rows = csv.reader(fh)
        records: list[tuple[int, dict[str, str]]] = []
        for raw in rows:
            line += 1
            if not raw or raw[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [h.strip().lower() for h in raw]
                continue
            if len(raw) != len(header):
                raise IngestError(
                    f"expected {len(header)} fields, got {len(raw)}", line)
            records.append((line, dict(zip(header, raw))))
    if header is None:
        raise IngestError(f"no header row found in {path}")
    relative = _layout(header, spec.fmt) == _RELATIVE_COLS

    times: list[float] = []
    ids: list[str] = []
    clamped = 0
    starts: dict[str, float] = {}
    just_inside = np.nextafter(spec.horizon, 0.0)
    for line, row in records:
        auction = row["auction_id"].strip()
        if not auction:
            raise IngestError("empty auction_id", line)
        if relative:
            t = _float_field(row, "bid_time", line)
        else:
            stamp = _float_field(row, "bid_timestamp", line)
            start = _float_field(row, "auction_start", line)
            known = starts.setdefault(auction, start)
            if known != start:
                raise IngestError(
                    f"auction {auction!r} start changed from {known} to {start}", line)
            t = stamp - start
        if not (0.0 <= t < spec.horizon):
            if spec.clamp_policy == "reject":
                raise IngestError(
                    f"bid time {t} outside [0, {spec.horizon})", line)
            t = 0.0 if t < 0.0 else min(t, just_inside)
            clamped += 1
        times.append(t)
        ids.append(auction)
    return np.asarray(times, dtype=float), ids, clamped


def ingest(spec: IngestSpec) -> BidSample:
    """Pooled sample of every bid in the file, tagged by auction id."""
    times, ids, _ = _parse(spec)
    if not ids:
        raise IngestError(f"no bid rows in {spec.path}")
    order = np.argsort(times, kind="stable")
    return BidSample(
        times=times[order],
        T=spec.horizon,
        sources=tuple(np.array(ids, dtype=object)[order]),
    )


def ingest_summary(spec: IngestSpec) -> dict:
    """What ingest would load, without building the sample."""
    times, ids, clamped = _parse(spec)
    per_auction = Counter(ids)
    return {
        "path": str(spec.path),
        "horizon": spec.horizon,
        "unit": spec.unit,
        "clamp_policy": spec.clamp_policy,
        "n_bids": len(ids),
        "n_auctions": len(per_auction),
        "n_clamped": clamped,
        "per_auction_counts": dict(sorted(per_auction.items())),
        # argmin/argmax take the first of tied values, as min/max do, so the
        # sign of a zero is the one seen first
        "first_bid": float(times[times.argmin()]) if ids else None,
        "last_bid": float(times[times.argmax()]) if ids else None,
    }


def write_sample(sample: BidSample, dest: IO[str] | str | Path,
                 metadata: Mapping[str, object] | None = None) -> None:
    """Emit a sample as a relative-layout CSV that ingest() reads back.

    Metadata goes into leading '# key=value' lines; times are written with
    repr precision so the round trip is exact.
    """
    if isinstance(dest, (str, Path)):
        with Path(dest).open("w") as fh:
            write_sample(sample, fh, metadata)
        return
    for key, value in (metadata or {}).items():
        dest.write(f"# {key}={value}\n")
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(_RELATIVE_COLS)
    sources = sample.sources or ("sim",) * sample.n
    for t, a in zip(sample.times, sources):
        writer.writerow([a, repr(float(t))])


def read_metadata(path: str | Path) -> dict[str, str]:
    """The leading '# key=value' lines of a CSV written by write_sample."""
    meta: dict[str, str] = {}
    with Path(path).open() as fh:
        for raw in fh:
            stripped = raw.strip()
            if not stripped.startswith("#"):
                break
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
    return meta
