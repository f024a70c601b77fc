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

The file is opened and read once: csv reads up to the header, the rest in
blocks of whole lines.  A block that holds no '"', '\\r', '#' or blank line,
and whose every line has one comma fewer than the header has fields, is
split at commas, which then yields the fields csv would; from the first
block that fails these tests, csv reads the rest of the file.  Either way
each numeric column is converted block by block, and only auction ids and
the raw fields of non-finite values are kept as strings.  Auction ids are
stripped, and the rows of one auction share one label object, so label
memory grows with the number of auctions, not of bids.  Results, errors and
record numbers are those of csv alone.  Only when a check of the whole
columns fails are per-check masks built, to name the first bad row.
"""
from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Mapping

import numpy as np

from .sample import BidSample, _reordered

if TYPE_CHECKING:
    from .diagnostics import QqData

__all__ = [
    "MINUTES_PER_UNIT",
    "IngestError",
    "IngestSpec",
    "ingest",
    "ingest_summary",
    "write_sample",
    "write_qq",
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
# rows formatted per write by _write_rows
_BLOCK_ROWS = 65536
# characters read per block by _read_columns; its csv path converts its
# fields whenever it has gathered an eighth as many
_BLOCK_CHARS = 1 << 20


class IngestError(ValueError):
    """A data problem, carrying the 1-based CSV record number when known.

    Records are counted as csv reads them: comment and blank lines count, and
    a quoted field holding a newline does not start another.  A record csv
    refuses (a field over its size limit) carries its number; header and
    layout errors carry none.  A byte the text layer cannot decode carries
    the number of the line that holds it, counting every newline.
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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.unit not in MINUTES_PER_UNIT:
            raise ValueError(f"unit must be one of {sorted(MINUTES_PER_UNIT)}, got {self.unit!r}")
        if self.clamp_policy not in _POLICIES:
            raise ValueError(f"clamp_policy must be one of {_POLICIES}, got {self.clamp_policy!r}")


def _layout(header: list[str]) -> tuple[str, ...]:
    """The columns a header supplies, relative layout first; raises when it
    supplies neither layout's."""
    for needed in (_RELATIVE_COLS, _TIMESTAMPED_COLS):
        if set(needed) <= set(header):
            return needed
    raise IngestError(f"header {header} matches neither {_RELATIVE_COLS} nor {_TIMESTAMPED_COLS}")


def _parse(spec: IngestSpec) -> tuple[np.ndarray, list[str], int]:
    """(times, auction ids, clamped-row count), times not yet sorted.

    Each column is converted as it is read and checked as an array; a file
    that fails a check raises the error of its first bad row.
    """
    try:
        table, record_of = _read_columns(spec)
    except UnicodeDecodeError as exc:
        raise _undecodable(Path(spec.path), exc) from None
    ids = table.ids
    values = [np.concatenate(blocks) if blocks else np.empty(0)
              for blocks in table.blocks.values()]
    if len(values) == 1:
        times = values[0]
    else:
        stamps, starts = values
        # finite values can still differ by more than the largest float; the
        # difference is then inf, as in Python, and out of range
        with np.errstate(over="ignore", invalid="ignore"):
            times = stamps - starts
    low = times < 0.0
    high = times >= spec.horizon
    clamped = int(np.count_nonzero(low | high))
    if (not all(ids) or any(table.raw.values())
            # one distinct (auction, start) pair per auction, or some start changed
            or len(values) == 2 and len(set(zip(ids, starts.tolist()))) != len(set(ids))
            or clamped and spec.clamp_policy == "reject"):
        raise _first_bad_row(spec, ids, table.raw, values, times, record_of)
    if clamped:
        times[low] = 0.0
        times[high] = np.nextafter(spec.horizon, 0.0)
    return times, ids, clamped


class _Labels(dict):
    """Raw auction id field -> its stripped label, one str object per label.

    A field seen for the first time is stripped, and every field that strips
    to the same label gets that label's one object, so a file holds as many
    label strings as it has auctions, however many bids each has.
    """

    def __missing__(self, raw: str) -> str:
        stripped = raw.strip()
        label = self[raw] = self.setdefault(stripped, stripped)
        return label


class _Table:
    """The data rows read so far: auction ids (stripped, each label one
    shared object), one float array per block for each numeric column, and
    per column the raw field of each row whose value is not a finite number."""

    def __init__(self, names: list[str]) -> None:
        self.ids: list[str] = []
        self.labels = _Labels()
        self.blocks: dict[str, list[np.ndarray]] = {name: [] for name in names}
        self.raw: dict[str, dict[int, str]] = {name: {} for name in names}

    def add(self, ids: list[str], *columns: list[str]) -> None:
        """Append a block of rows given as raw fields, auction ids first."""
        start = len(self.ids)
        self.ids.extend(map(self.labels.__getitem__, ids))
        for (name, blocks), col in zip(self.blocks.items(), columns):
            try:
                v = np.fromiter(map(float, col), float, len(col))
            except ValueError:
                # nan stands in for each field float() refuses
                v = np.fromiter(map(_number, col), float, len(col))
            for i in np.flatnonzero(~np.isfinite(v)).tolist():
                self.raw[name][start + i] = col[i]
            blocks.append(v)


def _read_columns(spec: IngestSpec) -> tuple[_Table, Callable[[int], int]]:
    """The data rows, converted block by block, and the record number of a
    data row as a function of its index.

    csv reads the records up to the header (_find_header).  After it,
    blocks of text are split at commas while _split accepts them; from the
    first block it refuses, csv reads the rest of the file and its rows are
    converted in blocks of _BLOCK_CHARS // 8 fields.  Raises a wrong field
    count with its record, then header and layout errors.
    """
    path = Path(spec.path)
    with path.open(newline="") as fh:
        header_record, raw = _find_header(fh, path)
        header = [h.strip().lower() for h in raw]
        width = len(header)
        try:
            needed = _layout(header)
        except IngestError as exc:
            # a wrong field count comes first, so every row is still read whole
            layout_error, needed, columns, pick = exc, header, range(width), tuple
        else:
            layout_error = None
            # a repeated header name means its last column, as in a dict of the row
            index = {name: i for i, name in enumerate(header)}
            columns = [index[name] for name in needed]
            pick = operator.itemgetter(*columns)
        table = _Table(needed[1:])
        n = 0  # data rows read
        rows = None
        for block in iter(functools.partial(_read_block, fh), ""):
            split = _split(block, width)
            if split is None:
                rows = csv.reader(itertools.chain(io.StringIO(block, newline=""), fh))
                break
            parts, lines = split
            table.add(*(parts[j:lines * width:width] for j in columns))
            n += lines
        skipped: list[int] = []  # per comment or blank record, the data rows before it
        if rows is not None:
            k = len(columns)
            fields: list[str] = []
            try:
                for raw in rows:
                    # only a row whose first field holds '#' can be a comment
                    if len(raw) != width or "#" in raw[0]:
                        if not raw or raw[0].lstrip().startswith("#"):
                            skipped.append(n)
                            continue
                        if len(raw) != width:
                            raise IngestError(f"expected {width} fields, got {len(raw)}",
                                              header_record + 1 + n + len(skipped))
                    n += 1
                    fields += pick(raw)
                    if len(fields) >= _BLOCK_CHARS // 8:
                        table.add(*(fields[j::k] for j in range(k)))
                        fields = []
            except csv.Error as exc:
                raise IngestError(str(exc), header_record + 1 + n + len(skipped)) from None
            table.add(*(fields[j::k] for j in range(k)))
    if layout_error is not None:
        raise layout_error
    return table, lambda row: header_record + 1 + row + bisect.bisect_right(skipped, row)


def _find_header(fh: IO[str], path: Path) -> tuple[int, list[str]]:
    """(record number of the header, its raw fields).

    csv reads the records up to and including the first that is neither a
    comment nor blank, and no further, so the lines of the file after the
    header are left unread in fh.  Leading '#' lines are metadata from our
    own emitter.
    """
    record = 0
    try:
        for record, raw in enumerate(csv.reader(iter(fh.readline, "")), 1):
            if raw and not raw[0].lstrip().startswith("#"):
                return record, raw
    except csv.Error as exc:
        raise IngestError(str(exc), record + 1) from None
    raise IngestError(f"no header row found in {path}")


def _undecodable(path: Path, exc: UnicodeDecodeError) -> IngestError:
    """The error of the first byte of path that exc's codec cannot decode,
    with the number of the line that holds it.

    The text layer decodes the file in chunks, so exc's position is one
    inside a chunk; the file's bytes give the position in the file.
    """
    data = path.read_bytes()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as err:
        return IngestError(f"cannot decode byte {data[err.start]:#04x} as {err.encoding} "
                           f"({err.reason})", data.count(b"\n", 0, err.start) + 1)
    return IngestError(str(exc))


def _read_block(fh: IO[str]) -> str:
    """Whole lines of fh, about _BLOCK_CHARS characters of them; '' at the end.

    A read of at most 2048 characters makes the text layer decode one chunk
    of its default 8192 bytes (a character takes at most 4), as a line read
    does, so an undecodable byte raises the UnicodeDecodeError csv would.
    """
    pieces: list[str] = []
    size = 0
    while size < _BLOCK_CHARS and (text := fh.read(min(2048, _BLOCK_CHARS - size))):
        pieces.append(text)
        size += len(text)
    pieces.append(fh.readline())
    return "".join(pieces)


def _split(block: str, width: int) -> tuple[list[str], int] | None:
    """(fields, line count) of a block of lines split at commas, when that
    gives the records csv would read, each of width fields; else None.

    It does when the block holds no '"', '\\r', '#' or blank line, every
    line has width - 1 commas, and no line is longer than csv's field size
    limit (csv refuses a longer field).  The field list may end with one
    extra empty field.
    """
    if '"' in block or "\r" in block or "#" in block or "\n\n" in block or block[0] == "\n":
        return None
    data = np.frombuffer(block.encode(), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if block[-1] != "\n":
        ends = np.append(ends, data.size)
    commas_before = np.searchsorted(np.flatnonzero(data == ord(",")), ends)
    if (not np.array_equal(commas_before, np.arange(1, ends.size + 1) * (width - 1))
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    return block.replace("\n", ",").split(","), ends.size


def _first_bad_row(spec: IngestSpec, ids: list[str], raw: dict[str, dict[int, str]],
                   values: list[np.ndarray], times: np.ndarray,
                   record_of: Callable[[int], int]) -> IngestError:
    """The error of the first row in file order that fails a check.

    A row is checked for an empty auction_id, then for a missing, unparseable
    (nan in values) or non-finite value in each numeric column, then for a
    changed auction start, then, under reject, for a time outside
    [0, horizon).  Each check marks its bad rows in one mask; the message is
    that of the row's first failed check, worded from raw, which maps each
    numeric column to the raw fields of its rows that hold no finite number.
    """
    checks: list[tuple[np.ndarray, Callable[[int], str]]] = [
        (np.fromiter(map(operator.not_, ids), bool, len(ids)), lambda i: "empty auction_id")]
    for (name, col), v in zip(raw.items(), values):
        checks.append((~np.isfinite(v), functools.partial(_field_problem, name, col)))
    if len(values) == 2:
        starts = values[1]
        # rows before the first bad row are good, so there each auction's
        # first start is the one a row-by-row reader would know
        known: dict[str, float] = {}
        opened = np.fromiter((known.setdefault(a, s) for a, s in zip(ids, starts.tolist())),
                             float, len(ids))
        checks.append((opened != starts, lambda i: (
            f"auction {ids[i]!r} start changed from {float(opened[i])} to {float(starts[i])}")))
    if spec.clamp_policy == "reject":
        checks.append(((times < 0.0) | (times >= spec.horizon), lambda i: (
            f"bid time {float(times[i])} outside [0, {spec.horizon})")))
    row = int(np.argmax(np.logical_or.reduce([mask for mask, _ in checks])))
    message = next(word for mask, word in checks if mask[row])
    return IngestError(message(row), record_of(row))


def _number(raw: str) -> float:
    """float(raw), or nan where float() refuses it."""
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _field_problem(name: str, col: Mapping[int, str], row: int) -> str:
    """Why col[row], the raw field of numeric column name in a data row, is
    not a finite number."""
    raw = col[row]
    if not raw.strip():
        return f"missing value in column {name!r}"
    try:
        float(raw)
    except ValueError:
        return f"cannot parse {raw!r} in column {name!r} as a number"
    return f"non-finite value {raw!r} in column {name!r}"


def ingest(spec: IngestSpec) -> BidSample:
    """Pooled sample of every bid in the file, tagged by auction id."""
    times, ids, _ = _parse(spec)
    if not ids:
        raise IngestError(f"no bid rows in {spec.path}")
    order = np.argsort(times, kind="stable")
    return BidSample(times=times[order], T=spec.horizon, sources=_reordered(ids, order))


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
    repr precision so the round trip is exact.  Auction labels are quoted as
    csv.writer quotes them; an untagged sample is labelled "sim".
    """
    if isinstance(dest, (str, Path)):
        with Path(dest).open("w") as fh:
            write_sample(sample, fh, metadata)
        return
    for key, value in (metadata or {}).items():
        dest.write(f"# {key}={value}\n")
    dest.write(",".join(_RELATIVE_COLS) + "\n")
    if not sample.sources:
        _write_rows(dest, "sim,%r\n", sample.times)
        return
    quoted = _csv_quoted(set(sample.sources))
    _write_rows(dest, "%s,%r\n", list(map(quoted.__getitem__, sample.sources)),
                sample.times)


def write_qq(qq: QqData, dest: IO[str] | str | Path) -> None:
    """Emit QQ pairs as a 'reference_quantile,observed_quantile' CSV.

    One row per pair, both values with repr precision, so float() reads
    every value back exactly.
    """
    if isinstance(dest, (str, Path)):
        with Path(dest).open("w") as fh:
            write_qq(qq, fh)
        return
    dest.write("reference_quantile,observed_quantile\n")
    _write_rows(dest, "%r,%r\n", qq.reference, qq.observed)


def _csv_quoted(labels: set[str]) -> dict[str, str]:
    """Each label as a field of a csv.writer row, quoted where it needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoted = {}
    for label in labels:
        buf.seek(0)
        buf.truncate()
        # a second, empty field keeps an empty label unquoted, as in a row
        writer.writerow((label, ""))
        quoted[label] = buf.getvalue()[:-2]
    return quoted


def _write_rows(dest: IO[str], template: str, *columns) -> None:
    """Write one template line per row, formatting _BLOCK_ROWS rows at a time.

    Columns are lists or float arrays of equal length; an array block goes
    through .tolist(), so %r formats a Python float as repr() does.  Each
    block is one % operation on the template repeated once per row; blocks
    keep the formatted text, not the whole output, in memory.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        parts = [col[start:start + _BLOCK_ROWS] for col in columns]
        k = len(parts[0])
        values = [None] * (k * width)
        for j, part in enumerate(parts):
            values[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        dest.write(template * k % tuple(values))


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
