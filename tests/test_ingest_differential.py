"""ingest and ingest_summary against a row-by-row reference parser.

The reference below is the row-wise parser barista shipped before ingest
read columns: one dict and one float() call per field.  Generated files,
valid or carrying injected faults, must give the same sample and summary,
or the same error with the same text and line.  ingest reads its input in
blocks of text; most examples shrink the blocks to a few dozen characters,
so that a file spans many of them and a quote, CRLF, comment or blank line,
wrong field count or bad number can land after several clean blocks.
"""
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barista import IngestError, IngestSpec, dataio, ingest, ingest_summary
from barista.sample import BidSample

_RELATIVE_COLS = ("auction_id", "bid_time")
_TIMESTAMPED_COLS = ("auction_id", "bid_timestamp", "auction_start")


# ---------------------------------------------------------------------------
# reference: the row-wise parser
# ---------------------------------------------------------------------------

def _float_field(row, col, line):
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


def reference_parse(spec):
    with open(spec.path, newline="") as fh:
        line = 0
        header = None
        records = []
        for raw in csv.reader(fh):
            line += 1
            if not raw or raw[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [h.strip().lower() for h in raw]
                continue
            if len(raw) != len(header):
                raise IngestError(f"expected {len(header)} fields, got {len(raw)}", line)
            records.append((line, dict(zip(header, raw))))
    if header is None:
        raise IngestError(f"no header row found in {spec.path}")

    if set(_RELATIVE_COLS) <= set(header):
        fmt = "relative"
    elif set(_TIMESTAMPED_COLS) <= set(header):
        fmt = "timestamped"
    else:
        raise IngestError(
            f"header {header} matches neither {_RELATIVE_COLS} nor {_TIMESTAMPED_COLS}")

    times, ids, clamped, starts = [], [], 0, {}
    just_inside = np.nextafter(spec.horizon, 0.0)
    for line, row in records:
        auction = row["auction_id"].strip()
        if not auction:
            raise IngestError("empty auction_id", line)
        if fmt == "relative":
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
                raise IngestError(f"bid time {t} outside [0, {spec.horizon})", line)
            t = 0.0 if t < 0.0 else min(t, just_inside)
            clamped += 1
        times.append(t)
        ids.append(auction)
    return times, ids, clamped


def reference_ingest(spec):
    times, ids, _ = reference_parse(spec)
    if not times:
        raise IngestError(f"no bid rows in {spec.path}")
    order = np.argsort(np.asarray(times, dtype=float), kind="stable")
    return BidSample(times=np.asarray(times, dtype=float)[order], T=spec.horizon,
                     sources=tuple(ids[i] for i in order))


def reference_summary(spec):
    times, ids, clamped = reference_parse(spec)
    per_auction = {}
    for a in ids:
        per_auction[a] = per_auction.get(a, 0) + 1
    return {
        "path": str(spec.path),
        "horizon": spec.horizon,
        "unit": spec.unit,
        "clamp_policy": spec.clamp_policy,
        "n_bids": len(times),
        "n_auctions": len(per_auction),
        "n_clamped": clamped,
        "per_auction_counts": dict(sorted(per_auction.items())),
        "first_bid": min(times) if times else None,
        "last_bid": max(times) if times else None,
    }


# ---------------------------------------------------------------------------
# generated files
# ---------------------------------------------------------------------------

# ids that csv must quote, that strip to the same id, or that differ only by
# a trailing NUL, which csv passes through; "m\nn" makes one record span two
# physical lines, so line numbers must count records
IDS = ("a", " a ", "a\x00", "b", "x,y", 'q"r', "#c", "d e", "m\nn")
# spellings float() accepts that repr() never writes
ODD_TIMES = ("1_0", "-0.0", "0", " 1.5 ", "+2", ".25", "3.", "1e0", "0.0")
ODD_STARTS = ("1_00", "100", " 100.0 ", "1e2", "-0.0", "0.0", "0", "5", "-1.7e308")
EXTRA_VALUES = ("", "z", "#note", " #note", "n#", "1.5")
COMMENTS = ("# meta=1", "  # indented", "#", "")
# ids and extra values that csv writes unquoted and that start no comment
PLAIN_IDS = tuple(a for a in IDS if not set(a) & set('",#\n'))
PLAIN_EXTRAS = tuple(v for v in EXTRA_VALUES if "#" not in v)
FAULTS = ("count", "empty_id", "missing", "garbage", "nonfinite", "start", "range",
          "header")


def _spell_header(draw, name):
    name = draw(st.sampled_from((name, name.upper(), name.title())))
    return draw(st.sampled_from(("", " "))) + name + draw(st.sampled_from(("", "  ")))


@st.composite
def bid_files(draw):
    """(csv text, IngestSpec keywords) for a relative or timestamped file."""
    layout = draw(st.sampled_from(("relative", "timestamped")))
    horizon = draw(st.sampled_from((12.0, 7.5)))
    needed = list(_RELATIVE_COLS if layout == "relative" else _TIMESTAMPED_COLS)
    extras = draw(st.lists(st.sampled_from(("note", "Extra", "bid_time")),
                           max_size=2, unique=True))
    columns = draw(st.permutations(needed + [e for e in extras if e not in needed]))
    header = [_spell_header(draw, c) for c in columns]

    auctions = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    starts = {a: draw(st.sampled_from(ODD_STARTS)) for a in auctions}
    n_rows = draw(st.integers(0, 25))
    # the first plain_rows rows are plain text: plain ids and extras, written
    # with LF and minimal quoting, with no comment line among them; so a
    # quote, CRLF, comment or blank line can start after several clean blocks
    plain_rows = n_rows - draw(st.integers(0, n_rows))
    plain_auctions = [a for a in auctions if a in PLAIN_IDS] or auctions
    rows = []
    for i in range(n_rows):
        plain = i < plain_rows
        auction = draw(st.sampled_from(plain_auctions if plain else auctions))
        if draw(st.booleans()):
            t = draw(st.floats(0.0, horizon, exclude_max=True))
            spelled = repr(t)
        else:
            spelled = draw(st.sampled_from(ODD_TIMES))
            t = float(spelled)
        if draw(st.booleans()):
            spelled = f" {spelled} "
        fields = {"auction_id": auction, "bid_time": spelled}
        if layout == "timestamped":
            fields["auction_start"] = starts[auction]
            fields["bid_timestamp"] = repr(float(starts[auction]) + t)
        extra_values = PLAIN_EXTRAS if plain else EXTRA_VALUES
        rows.append([fields[c] if c in fields else draw(st.sampled_from(extra_values))
                     for c in columns])

    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    time_col = columns.index("bid_time" if layout == "relative" else "bid_timestamp")
    # a row that lost a field takes no further fault
    for fault in sorted(faults, key=lambda f: f == "count"):
        if fault == "header":
            header[columns.index(needed[-1])] = "bid_tyme"
            continue
        if not rows:
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "count":
            if draw(st.booleans()):
                row.append("1.0")
            else:
                row.pop()
        elif fault == "empty_id":
            row[columns.index("auction_id")] = draw(st.sampled_from(("", "  ")))
        elif fault == "missing":
            row[time_col] = draw(st.sampled_from(("", "   ")))
        elif fault == "garbage":
            row[time_col] = draw(st.sampled_from(("abc", "1.2.3", "0x10", "1,5")))
        elif fault == "nonfinite":
            col = draw(st.sampled_from([columns.index(c) for c in needed[1:]]))
            row[col] = draw(st.sampled_from(("nan", "inf", "-Infinity", "1e999")))
        elif fault == "start" and layout == "timestamped":
            row[columns.index("auction_start")] = "50.25"
        elif fault == "range":
            base = 0.0 if layout == "relative" else float(row[columns.index("auction_start")])
            offset = draw(st.sampled_from((-0.5, horizon, horizon + 1.0, -1e300, 1.7e308)))
            # 1.7e308 - -1.7e308 overflows to inf in the subtraction
            row[time_col] = repr(base + offset) if offset != 1.7e308 else "1.7e308"

    buf = io.StringIO()
    endings = ("\n", "\r\n", "\r")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(endings)),
                        quoting=draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL))))
    plain_writer = csv.writer(buf, lineterminator="\n")
    # the lines up to the header end alike, mostly with LF
    eol = draw(st.sampled_from(("\n", "\n", "\n", "\r\n", "\r")))
    lines = [draw(st.sampled_from(COMMENTS)) + eol for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(header) + eol)
    for i, row in enumerate(rows):
        if i >= plain_rows and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(COMMENTS)) + "\n")
        buf.seek(0)
        buf.truncate()
        (plain_writer if i < plain_rows else writer).writerow(row)
        lines.append(buf.getvalue())
    text = "".join(lines)
    if draw(st.booleans()):
        # no final newline
        text = text.removesuffix("\n").removesuffix("\r")
    spec = {
        "horizon": horizon,
        "clamp_policy": draw(st.sampled_from(("reject", "clamp-epsilon"))),
    }
    return text, spec


def _run(fn, spec):
    """(result, None), or (None, (type, text, line)) of the IngestError raised."""
    try:
        return fn(spec), None
    except IngestError as exc:
        return None, (type(exc), str(exc), exc.line)


_STAMPED_HEADER = "auction_id,bid_timestamp,auction_start\n"
_REJECT = {"horizon": 7.0, "clamp_policy": "reject"}


@settings(max_examples=400, deadline=None)
# blocks of 1 to 64 characters, or one in five at the default size
@given(case=bid_files(),
       block=st.integers(1, 80).map(lambda n: n if n <= 64 else dataio._BLOCK_CHARS))
# the lowest bad row is the error, even where a check later in order fails
# it: an out-of-range time before an empty id, a changed start before a
# non-finite stamp, in one block or in several
@example(case=("auction_id,bid_time\na,1.0\nb,9.0\n,2.0\n", _REJECT), block=8)
@example(case=(_STAMPED_HEADER + "a,11.0,10.0\na,12.0,10.5\nb,inf,3.0\n", _REJECT),
         block=dataio._BLOCK_CHARS)
# one row that fails several checks raises its first: an empty id before a
# non-finite stamp and an unparseable start, a stamp before a start, a
# changed start before an out-of-range time
@example(case=(_STAMPED_HEADER + "a,1.0,0.0\n ,nan,x\n", _REJECT), block=8)
@example(case=(_STAMPED_HEADER + "a,1.0,0.0\na,nan,-inf\n", _REJECT), block=dataio._BLOCK_CHARS)
@example(case=(_STAMPED_HEADER + "a,1.0,0.0\na,100.0,5.0\n", _REJECT), block=8)
# a nan start is its auction's first, and a later row changes it; or a nan
# start changes an auction's start, before another auction's change
@example(case=(_STAMPED_HEADER + "a,1.0,nan\na,2.0,1.0\n", _REJECT), block=dataio._BLOCK_CHARS)
@example(case=(_STAMPED_HEADER + "b,1.0,0.0\na,5.0,nan\nb,2.0,1.0\n",
               {"horizon": 7.0, "clamp_policy": "clamp-epsilon"}), block=8)
@example(case=(_STAMPED_HEADER + "b,1.0,0.0\nb,5.0,nan\nb,2.0,1.0\n", _REJECT), block=8)
def test_matches_row_reference(case, block, tmp_path_factory):
    text, kwargs = case
    path = tmp_path_factory.mktemp("diff") / "bids.csv"
    path.write_text(text, newline="")
    spec = IngestSpec(path=path, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_CHARS", block)
        got, err = _run(ingest, spec)
        ref, ref_err = _run(reference_ingest, spec)
        assert err == ref_err
        if ref is not None:
            # bytes, so that the sign of a zero counts
            assert got.times.tobytes() == ref.times.tobytes()
            assert got.sources == ref.sources

        got, err = _run(ingest_summary, spec)
        ref, ref_err = _run(reference_summary, spec)
        assert err == ref_err
        if ref is not None:
            assert got == ref
            assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)


# ---------------------------------------------------------------------------
# a quote before the data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("head", [
    '# note="a, b"\n# seed=1\nauction_id,bid_time\n',
    '"auction_id","bid_time"\n',
    '# say "hi\n\n"auction_id", bid_time\n',
    '"# a comment\nover two lines"\nauction_id,bid_time\n',
], ids=["comment", "header", "comment-and-header", "two-line-comment"])
@pytest.mark.parametrize("block", [16, dataio._BLOCK_CHARS, 1 << 20])
def test_a_quote_before_the_data_leaves_the_rows_to_split(tmp_path, monkeypatch, csv_records,
                                                          head, block):
    # the last row is out of range, so reject names its record
    text = head + "".join(f"a{i % 3},{0.03 * i!r}\n" for i in range(200)) + "b,9.5\n"
    path = tmp_path / "bids.csv"
    path.write_text(text, newline="")
    header_region = list(csv.reader(io.StringIO(head, newline="")))
    monkeypatch.setattr(dataio, "_BLOCK_CHARS", block)
    for policy in ("reject", "clamp-epsilon"):
        spec = IngestSpec(path=path, horizon=7.0, clamp_policy=policy)
        for fn, reference in ((ingest, reference_ingest), (ingest_summary, reference_summary)):
            csv_records.clear()
            got, err = _run(fn, spec)
            # csv reads the lines up to the header, and no data row
            assert csv_records == header_region
            ref, ref_err = _run(reference, spec)
            assert err == ref_err
            if fn is ingest and ref is not None:
                assert got.times.tobytes() == ref.times.tobytes()
                assert got.sources == ref.sources
            else:
                assert got == ref
