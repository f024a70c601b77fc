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
blocks of whole lines of about 64 KiB.  A block that holds no '"', '\\r',
'#' or blank line, and whose every line has one comma fewer than the header
has fields, is split at commas, which then yields the fields csv would; from
the first block that fails these tests, csv reads the rest of the file.
Either way each numeric column is converted block by block, and only auction
ids and each column's first field that is not a finite number are kept as
strings.  Auction ids are stripped, and the rows of one auction share one
label object, so label memory grows with the number of auctions, not of
bids.  Results, errors and record numbers are those of csv alone.  Each row
check finds its own first bad row, and the lowest of these is the error, so
a file that fails peaks no higher than one that loads.  The writers format blocks of
rows of about the same size, so the read and write buffers do not grow with
the file.  The arrays do: in either layout, ingest's peak is the size of its
result (the sorted times and the tuple of labels) plus two sample-sized
arrays.
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
# characters per block read by _read_columns, whose csv path converts its
# fields whenever it holds an eighth as many; _write_rows formats an eighth
# as many rows per write.  A block's text and objects stay far below the
# arrays of a large sample, and larger blocks read and write no faster.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = _BLOCK_CHARS // 8


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

    Each column is converted as it is read.  A row is checked for an empty
    auction_id, then for a missing, unparseable or non-finite value in each
    numeric column, then for a changed auction start, then, under reject,
    for a time outside [0, horizon).  Each check finds its own first bad
    row: the first empty id, the first non-finite field _Table kept per
    column, the first changed start, walked to only when the distinct
    (auction, start) pairs collected as the rows are read show a change, and
    the first set entry of the out-of-range mask that counts clamps.  The
    lowest of these rows raises the message of its first failed check.  A
    column's blocks are dropped once it is joined, so at most four
    sample-sized arrays are alive at once, whether the file loads or fails:
    the ids, and the two columns and their difference.
    """
    try:
        table, record_of = _read_columns(spec)
    except UnicodeDecodeError as exc:
        raise _undecodable(Path(spec.path), exc) from None
    ids = table.ids
    values = []
    for blocks in table.blocks.values():
        values.append(np.concatenate(blocks) if blocks else np.empty(0))
        blocks.clear()
    if len(values) == 1:
        times = values[0]
    else:
        stamps, starts = values
        # finite values can still differ by more than the largest float; the
        # difference is then inf, as in Python, and out of range
        with np.errstate(over="ignore", invalid="ignore"):
            times = stamps - starts
    # (first bad row, its message) of each check that fails, in check order
    bad = []
    if not all(ids):
        bad.append((ids.index(""), "empty auction_id"))
    # a block's columns are converted in order, so two on one row are in check order
    bad += [(row, _field_problem(name, field)) for name, (row, field) in table.raw.items()]
    # one distinct (auction, start) pair per auction, or some start changed
    if len(table.opened) != len(dict(table.opened)):
        # rows before the first bad row are good, so there each auction's
        # first start is the one a row-by-row reader would know; a nan start
        # differs even from itself, so the walk stops at the first one
        known: dict[str, float] = {}
        row = next(i for i, (a, s) in enumerate(zip(ids, starts)) if known.setdefault(a, s) != s)
        bad.append((row, f"auction {ids[row]!r} start changed from "
                         f"{float(known[ids[row]])} to {float(starts[row])}"))
    # built last, so the dict of pairs above is never alive beside the masks
    low = times < 0.0
    high = times >= spec.horizon
    out = low | high
    clamped = int(np.count_nonzero(out))
    if clamped and spec.clamp_policy == "reject":
        row = int(out.argmax())
        bad.append((row, f"bid time {float(times[row])} outside [0, {spec.horizon})"))
    if bad:
        # min keeps the first of tied rows, so a row's first failed check
        row, message = min(bad, key=operator.itemgetter(0))
        raise IngestError(message, record_of(row))
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
    shared object), one float array per block for each numeric column, per
    column the (row, raw field) of its first value that is not a finite
    number, and the distinct (auction id, auction_start) pairs of the rows."""

    def __init__(self, names: list[str]) -> None:
        self.ids: list[str] = []
        self.labels = _Labels()
        self.blocks: dict[str, list[np.ndarray]] = {name: [] for name in names}
        self.raw: dict[str, tuple[int, str]] = {}
        self.opened: set[tuple[str, float]] = set()

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
            if name not in self.raw and not (finite := np.isfinite(v)).all():
                i = int(finite.argmin())
                self.raw[name] = start + i, col[i]
            blocks.append(v)
            if name == "auction_start":
                self.opened.update(zip(self.ids[start:], v.tolist()))


def _read_columns(spec: IngestSpec) -> tuple[_Table, Callable[[int], int]]:
    """The data rows, converted block by block, and the record number of a
    data row as a function of its index.

    csv reads the records up to the header (_find_header).  After it,
    blocks of text are split at commas while _split accepts them; from the
    first block it refuses, csv reads the rest of the file and its rows are
    converted in blocks of _BLOCK_CHARS // 8 fields.  So besides the table,
    only one block of text or fields is held at a time, whatever the size of
    the file.  Raises a wrong field count with its record, then header and
    layout errors.
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
        skipped: list[int] = []  # per comment or blank record, the data rows before it

        def record_of(row: int) -> int:
            return header_record + 1 + row + bisect.bisect_right(skipped, row)

        rows = None
        for block in iter(functools.partial(_read_block, fh), ""):
            split = _split(block, width)
            if split is None:
                rows = csv.reader(itertools.chain(io.StringIO(block, newline=""), fh))
                break
            parts, lines = split
            table.add(*(parts[j:lines * width:width] for j in columns))
            n += lines
            # drop this block's text and fields before the next is read
            del block, split, parts
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
                                              record_of(n))
                    n += 1
                    fields += pick(raw)
                    if len(fields) >= _BLOCK_CHARS // 8:
                        table.add(*(fields[j::k] for j in range(k)))
                        fields = []
            except csv.Error as exc:
                raise IngestError(str(exc), record_of(n)) from None
            table.add(*(fields[j::k] for j in range(k)))
    if layout_error is not None:
        raise layout_error
    return table, record_of


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
    """Whole lines of fh, _BLOCK_CHARS characters of them and the rest of the
    line that holds the last; '' at the end.

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


def _number(raw: str) -> float:
    """float(raw), or nan where float() refuses it."""
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _field_problem(name: str, raw: str) -> str:
    """Why raw, the field of numeric column name in a data row, is not a
    finite number."""
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
    # rebound, so the unsorted times are freed before the labels are gathered
    times = times[order]
    return BidSample(times=times, T=spec.horizon, sources=_reordered(ids, order))


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
    # quote one block's labels at a time, as it is written
    quoted = _csv_quoted(set(sample.sources))
    labels = map(quoted.__getitem__, sample.sources)
    for start in range(0, sample.n, _BLOCK_ROWS):
        _write_rows(dest, "%s,%r\n", list(itertools.islice(labels, _BLOCK_ROWS)),
                    sample.times[start:start + _BLOCK_ROWS])


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
    block is one % operation on the template repeated once per row, so only
    one block's values and formatted text are in memory at a time, not the
    whole output nor a Python object per value of the columns.
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
