import csv
import tracemalloc

import numpy as np
import pytest

from barista import (
    BidSample,
    IngestError,
    IngestSpec,
    ingest,
    ingest_summary,
    read_metadata,
    sample_fixed_n,
    write_sample,
)
from barista import dataio
from barista.dataio import MINUTES_PER_UNIT


def write(tmp_path, text, name="bids.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


RELATIVE = """auction_id,bid_time
a1,0.5
a1,1.25
a2,6.9
"""

TIMESTAMPED = """auction_id,bid_timestamp,auction_start
a1,100.5,100.0
a1,101.25,100.0
a2,106.9,100.0
"""


class TestLayouts:
    def test_relative(self, tmp_path):
        spec = IngestSpec(path=write(tmp_path, RELATIVE), horizon=7.0)
        s = ingest(spec)
        np.testing.assert_allclose(s.times, [0.5, 1.25, 6.9])
        assert s.T == 7.0
        assert s.sources == ("a1", "a1", "a2")

    def test_timestamped_subtracts_start(self, tmp_path):
        spec = IngestSpec(path=write(tmp_path, TIMESTAMPED), horizon=7.0)
        s = ingest(spec)
        np.testing.assert_allclose(s.times, [0.5, 1.25, 6.9])

    def test_layouts_agree(self, tmp_path):
        a = ingest(IngestSpec(path=write(tmp_path, RELATIVE, "a.csv"), horizon=7.0))
        b = ingest(IngestSpec(path=write(tmp_path, TIMESTAMPED, "b.csv"), horizon=7.0))
        # the timestamped layout subtracts starts, so agreement is to an ulp
        np.testing.assert_allclose(a.times, b.times, rtol=1e-14)

    def test_unsorted_input_sorted(self, tmp_path):
        text = "auction_id,bid_time\nx,3.0\nx,1.0\ny,2.0\n"
        s = ingest(IngestSpec(path=write(tmp_path, text), horizon=7.0))
        np.testing.assert_allclose(s.times, [1.0, 2.0, 3.0])
        assert s.sources == ("x", "y", "x")

    def test_comment_lines_skipped(self, tmp_path):
        text = "# horizon=7.0\n# seed=4\nauction_id,bid_time\na,1.0\n# trailing note\na,2.0\n"
        s = ingest(IngestSpec(path=write(tmp_path, text), horizon=7.0))
        assert s.n == 2

    def test_header_whitespace_and_case(self, tmp_path):
        text = "Auction_ID , Bid_Time\na,1.0\n"
        s = ingest(IngestSpec(path=write(tmp_path, text), horizon=7.0))
        assert s.n == 1


class TestErrors:
    def test_unknown_header(self, tmp_path):
        path = write(tmp_path, "foo,bar\n1,2\n")
        with pytest.raises(IngestError, match="header"):
            ingest(IngestSpec(path=path, horizon=7.0))

    def test_bad_float_has_line_number(self, tmp_path):
        text = "auction_id,bid_time\na,1.0\na,oops\n"
        path = write(tmp_path, text)
        with pytest.raises(IngestError, match="line 3") as err:
            ingest(IngestSpec(path=path, horizon=7.0))
        assert err.value.line == 3

    def test_comment_lines_keep_physical_numbering(self, tmp_path):
        text = "# meta\nauction_id,bid_time\n# another\na,nan\n"
        path = write(tmp_path, text)
        with pytest.raises(IngestError, match="line 4"):
            ingest(IngestSpec(path=path, horizon=7.0))

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "auction_id,bid_time\na\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(IngestSpec(path=path, horizon=7.0))

    def test_empty_auction_id(self, tmp_path):
        path = write(tmp_path, "auction_id,bid_time\n,1.0\n")
        with pytest.raises(IngestError, match="auction_id"):
            ingest(IngestSpec(path=path, horizon=7.0))

    def test_inconsistent_auction_start(self, tmp_path):
        text = "auction_id,bid_timestamp,auction_start\na,1.0,0.0\na,2.0,0.5\n"
        path = write(tmp_path, text)
        with pytest.raises(IngestError, match="line 3"):
            ingest(IngestSpec(path=path, horizon=7.0))

    def test_out_of_range_rejected_by_default(self, tmp_path):
        path = write(tmp_path, "auction_id,bid_time\na,7.0\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(IngestSpec(path=path, horizon=7.0))
        path2 = write(tmp_path, "auction_id,bid_time\na,-0.1\n", "neg.csv")
        with pytest.raises(IngestError, match="line 2"):
            ingest(IngestSpec(path=path2, horizon=7.0))

    def test_faulty_file_opened_once(self, tmp_path, monkeypatch):
        path = write(tmp_path, RELATIVE + "a3,9.5\n")
        opened = []
        real_open = type(path).open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(type(path), "open", counting_open)
        for fn in (ingest, ingest_summary):
            with pytest.raises(IngestError, match="line 5: bid time 9.5 outside"):
                fn(IngestSpec(path=path, horizon=7.0))
        assert opened == [path, path]

    def test_no_data_rows(self, tmp_path):
        path = write(tmp_path, "auction_id,bid_time\n")
        with pytest.raises(IngestError, match="no bid rows"):
            ingest(IngestSpec(path=path, horizon=7.0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest(IngestSpec(path=tmp_path / "absent.csv", horizon=7.0))


class TestClampPolicy:
    def test_clamp_epsilon(self, tmp_path):
        text = "auction_id,bid_time\na,-0.25\na,7.0\na,8.5\na,3.0\n"
        path = write(tmp_path, text)
        s = ingest(IngestSpec(path=path, horizon=7.0, clamp_policy="clamp-epsilon"))
        just_inside = np.nextafter(7.0, 0.0)
        np.testing.assert_array_equal(
            s.times, [0.0, 3.0, just_inside, just_inside])

    def test_clamp_count_in_summary(self, tmp_path):
        text = "auction_id,bid_time\na,-0.25\na,7.0\na,3.0\n"
        path = write(tmp_path, text)
        summ = ingest_summary(
            IngestSpec(path=path, horizon=7.0, clamp_policy="clamp-epsilon"))
        assert summ["n_clamped"] == 2
        assert summ["n_bids"] == 3

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            IngestSpec(path=tmp_path / "x.csv", horizon=7.0, clamp_policy="drop")


class TestSpecValidation:
    def test_horizon_positive(self, tmp_path):
        with pytest.raises(ValueError):
            IngestSpec(path=tmp_path / "x.csv", horizon=0.0)

    def test_unit_known(self, tmp_path):
        with pytest.raises(ValueError):
            IngestSpec(path=tmp_path / "x.csv", horizon=1.0, unit="fortnights")
        for unit in MINUTES_PER_UNIT:
            IngestSpec(path=tmp_path / "x.csv", horizon=1.0, unit=unit)

    def test_minutes_conversion_table(self):
        assert MINUTES_PER_UNIT["days"] == 1440.0
        assert MINUTES_PER_UNIT["hours"] == 60.0
        assert MINUTES_PER_UNIT["minutes"] == 1.0
        assert MINUTES_PER_UNIT["seconds"] == pytest.approx(1.0 / 60.0)


class TestSummary:
    def test_contents(self, tmp_path):
        path = write(tmp_path, RELATIVE)
        summ = ingest_summary(IngestSpec(path=path, horizon=7.0, unit="days"))
        assert summ["n_bids"] == 3
        assert summ["n_auctions"] == 2
        assert summ["per_auction_counts"] == {"a1": 2, "a2": 1}
        assert summ["first_bid"] == 0.5
        assert summ["last_bid"] == 6.9
        assert summ["unit"] == "days"
        assert summ["n_clamped"] == 0


class TestRoundTrip:
    def test_write_then_ingest_is_exact(self, tmp_path, p_star):
        s = sample_fixed_n(p_star, 200, seed=17)
        dest = tmp_path / "out.csv"
        write_sample(s, dest, metadata={"seed": 17, "horizon": 7.0})
        back = ingest(IngestSpec(path=dest, horizon=7.0))
        np.testing.assert_array_equal(back.times, s.times)

    def test_metadata_recoverable(self, tmp_path, p_star):
        s = sample_fixed_n(p_star, 10, seed=0)
        dest = tmp_path / "out.csv"
        write_sample(s, dest, metadata={"alpha1": 3.0, "label": "demo"})
        meta = read_metadata(dest)
        assert meta["alpha1"] == "3.0"
        assert meta["label"] == "demo"

    def test_sources_preserved(self, tmp_path):
        from barista import BidSample

        s = BidSample(times=np.array([0.2, 0.8]), T=1.0, sources=("u", "v"))
        dest = tmp_path / "out.csv"
        write_sample(s, dest, metadata={})
        back = ingest(IngestSpec(path=dest, horizon=1.0))
        assert back.sources == ("u", "v")


def _stamped(tmp_path, rows, name="stamped.csv"):
    """A timestamped file with one row per (auction, offset), starts in days
    since the epoch, each float written with repr as bench/datagen.py does."""
    starts = {a: 19_000.0 + 0.37 * k for k, a in enumerate(sorted({a for a, _ in rows}))}
    text = "auction_id,bid_timestamp,auction_start\n" + "".join(
        f"{a},{starts[a] + t!r},{starts[a]!r}\n" for a, t in rows)
    return write(tmp_path, text, name)


class TestBlocks:
    """csv reads the lines up to the header; clean blocks after it are split
    at commas, and from the first other block csv reads the rest."""

    @pytest.mark.parametrize("block", [40, dataio._BLOCK_CHARS])
    def test_clean_files_take_the_split_path(self, tmp_path, monkeypatch, csv_records,
                                             p_star, block):
        s = sample_fixed_n(p_star, 300, seed=5)
        tagged = BidSample(times=s.times, T=s.T,
                           sources=tuple(f"a{i % 7:05d}" for i in range(s.n)))
        dest = tmp_path / "out.csv"
        write_sample(tagged, dest, metadata={"seed": 5, "n": s.n})
        stamped = _stamped(tmp_path,
                           [(f"a{i % 4:05d}", t) for i, t in enumerate(s.times.tolist())])
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", block)
        back = ingest(IngestSpec(path=dest, horizon=7.0))
        # csv reads the metadata and the header, and no data row
        assert csv_records == [["# seed=5"], ["# n=300"], ["auction_id", "bid_time"]]
        np.testing.assert_array_equal(back.times, s.times)
        assert back.sources == tagged.sources
        csv_records.clear()
        summ = ingest_summary(IngestSpec(path=stamped, horizon=7.0))
        assert csv_records == [["auction_id", "bid_timestamp", "auction_start"]]
        assert (summ["n_bids"], summ["n_auctions"], summ["n_clamped"]) == (300, 4, 0)

    @pytest.mark.parametrize("block", [40, dataio._BLOCK_CHARS])
    @pytest.mark.parametrize("last", ['"b"', "b" * 140_000])
    def test_a_quote_or_long_field_in_the_last_row_reaches_csv(self, tmp_path, monkeypatch,
                                                                csv_records, block, last):
        text = "auction_id,bid_time\n" + "a,1.5\n" * 30 + f"{last},2.5\n"
        path = write(tmp_path, text)
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", block)
        if last.startswith('"'):
            assert ingest(IngestSpec(path=path, horizon=7.0)).sources == ("a",) * 30 + ("b",)
            assert csv_records[-1] == ["b", "2.5"]
        else:
            # csv's own refusal of the long field
            with pytest.raises(IngestError, match="^line 32: field larger than field limit"):
                ingest(IngestSpec(path=path, horizon=7.0))
        assert csv_records[0] == ["auction_id", "bid_time"]

    def test_clean_and_handed_off_files_opened_once(self, tmp_path, monkeypatch):
        clean = write(tmp_path, RELATIVE + "a3,2.5\n" * 20, "clean.csv")
        quoted = write(tmp_path, RELATIVE + "a3,2.5\n" * 20 + '"a4",3.5\n', "quoted.csv")
        opened = []
        real_open = type(clean).open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(type(clean), "open", counting_open)
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 16)
        for fn in (ingest, ingest_summary):
            for path in (clean, quoted):
                fn(IngestSpec(path=path, horizon=7.0))
        assert opened == [clean, quoted] * 2

    @pytest.mark.parametrize("rows, line", [
        (10, 1),  # a metadata line before the header
        (10, 2),  # the header
        (5000, 2500),  # the first block
        (150_000, 140_000),  # past the first block
    ], ids=["metadata", "header", "first-block", "past-first-block"])
    @pytest.mark.parametrize("label", ["\u00e9\u00e8", '"\u00e9\u00e8"'], ids=["split", "csv"])
    def test_undecodable_byte_names_its_line(self, tmp_path, rows, line, label):
        # two bytes a character in the ids, so bytes and characters differ;
        # a quoted id sends the data rows to csv
        lines = [b"# source=test\n", b"auction_id,bid_time\n"]
        lines += [f"{label},1.5\n".encode()] * rows
        lines[line - 1] = b"\xff" + lines[line - 1]
        path = tmp_path / "bids.csv"
        path.write_bytes(b"".join(lines))
        for fn in (ingest, ingest_summary):
            with pytest.raises(IngestError) as err:
                fn(IngestSpec(path=path, horizon=7.0))
            assert err.value.line == line
            assert str(err.value) == (f"line {line}: cannot decode byte 0xff as utf-8 "
                                      "(invalid start byte)")

    @pytest.mark.parametrize("text, error", [
        # csv ends a line at a lone CR, so a field count is off by a line
        ("auction_id,bid_time\na,1\rb\n", "line 3: expected 2 fields, got 1"),
        ("auction_id,bid_time\ra,1\rb,9\n", "line 3: bid time 9.0 outside [0, 7.0)"),
        # a row whose first field starts with '#' is a comment
        ("auction_id,bid_time\na,1\n#b,9\n", None),
    ])
    def test_lines_split_as_csv_splits_them(self, tmp_path, text, error):
        path = tmp_path / "bids.csv"
        path.write_text(text, newline="")
        if error is None:
            assert ingest(IngestSpec(path=path, horizon=7.0)).sources == ("a",)
        else:
            with pytest.raises(IngestError) as err:
                ingest(IngestSpec(path=path, horizon=7.0))
            assert str(err.value) == error

    @pytest.mark.parametrize("bad_row, message", [
        ("a,oops", "cannot parse 'oops' in column 'bid_time' as a number"),
        ("a,nan", "non-finite value 'nan' in column 'bid_time'"),
        (" ,1.5", "empty auction_id"),
    ])
    def test_relative_error_past_the_first_block(self, tmp_path, monkeypatch, csv_records,
                                                 bad_row, message):
        lines = ["# seed=1", "auction_id,bid_time"] + ["a,1.5"] * 40 + [bad_row] + ["a,9"]
        path = write(tmp_path, "\n".join(lines) + "\n")
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 24)
        with pytest.raises(IngestError) as err:
            ingest(IngestSpec(path=path, horizon=7.0))
        assert (str(err.value), err.value.line) == (f"line 43: {message}", 43)
        assert csv_records == [["# seed=1"], ["auction_id", "bid_time"]]

    def test_long_field_in_the_header_names_its_line(self, tmp_path):
        # csv reads the header, and refuses its long field
        path = write(tmp_path, '# seed=1\n"auction_id",' + "b" * 140_000 + "\na,1.5\n")
        with pytest.raises(IngestError) as err:
            ingest(IngestSpec(path=path, horizon=7.0))
        limit = csv.field_size_limit()
        assert (str(err.value), err.value.line) == (
            f"line 2: field larger than field limit ({limit})", 2)

    @pytest.mark.parametrize("text, line", [
        ("# seed=1\n# " + "c" * 140_000 + "\nauction_id,bid_time\na,1.5\n", 2),
        ("# seed=1\nauction_id," + "b" * 140_000 + "\na,1.5\n", 2),
    ], ids=["comment", "unquoted-header"])
    def test_long_line_before_the_data_names_its_line(self, tmp_path, text, line):
        # csv reads every line up to the header, so a long one is refused
        # with or without a '"'
        path = write(tmp_path, text)
        for fn in (ingest, ingest_summary):
            with pytest.raises(IngestError) as err:
                fn(IngestSpec(path=path, horizon=7.0))
            limit = csv.field_size_limit()
            assert (str(err.value), err.value.line) == (
                f"line {line}: field larger than field limit ({limit})", line)

    @pytest.mark.parametrize("block", [40, dataio._BLOCK_CHARS])
    def test_long_field_past_the_first_block_names_its_line(self, tmp_path, monkeypatch,
                                                             block):
        text = ("# seed=1\nauction_id,bid_time\n" + "a,1.5\n" * 30
                + "b" * 140_000 + ",2.5\n" + "a,1.5\n")
        path = write(tmp_path, text)
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", block)
        for fn in (ingest, ingest_summary):
            with pytest.raises(IngestError) as err:
                fn(IngestSpec(path=path, horizon=7.0))
            limit = csv.field_size_limit()
            assert (str(err.value), err.value.line) == (
                f"line 33: field larger than field limit ({limit})", 33)

    def test_changed_start_past_the_first_block(self, tmp_path, monkeypatch, csv_records):
        rows = [(f"a{i % 3}", 0.25 * (i % 20)) for i in range(40)]
        path = _stamped(tmp_path, rows)
        text = path.read_text().splitlines(keepends=True)
        # data row 36, on line 38, belongs to a0, which opened at 19000.0
        assert text[37].startswith("a0,")
        text[37] = "a0,19001.0,19000.5\n"
        path.write_text("".join(text))
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 32)
        with pytest.raises(IngestError) as err:
            ingest_summary(IngestSpec(path=path, horizon=7.0))
        assert str(err.value) == "line 38: auction 'a0' start changed from 19000.0 to 19000.5"
        assert err.value.line == 38
        assert csv_records == [["auction_id", "bid_timestamp", "auction_start"]]


class TestSharedLabels:
    """Each distinct auction label is one str object, whatever its padding."""

    @pytest.mark.parametrize("layout", ["relative", "timestamped"])
    @pytest.mark.parametrize("path_taken", ["split", "csv"])
    def test_one_object_per_label(self, tmp_path, monkeypatch, csv_records, layout,
                                  path_taken):
        labels = ["a1", " a1", "a1 ", "b2", "\tb2", "c3"]
        rows = [(labels[i % len(labels)], 0.01 * (i % 600)) for i in range(600)]
        if layout == "relative":
            text = "auction_id,bid_time\n" + "".join(f"{a},{t!r}\n" for a, t in rows)
        else:
            text = "auction_id,bid_timestamp,auction_start\n" + "".join(
                f"{a},{100.0 + t!r},100.0\n" for a, t in rows)
        if path_taken == "csv":
            # a quoted label past the first block sends the rest to csv
            text += '"c3",6.5\n' if layout == "relative" else '"c3",106.5,100.0\n'
        path = write(tmp_path, text)
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 256)
        s = ingest(IngestSpec(path=path, horizon=7.0))
        # csv reads the header, and data rows only from the quoted label's block
        assert csv_records[0] == text.partition("\n")[0].split(",")
        assert (len(csv_records) > 1) == (path_taken == "csv")
        assert set(s.sources) == {"a1", "b2", "c3"}
        assert len(set(map(id, s.sources))) == len(set(s.sources))
        assert s.per_source_counts() == ingest_summary(
            IngestSpec(path=path, horizon=7.0))["per_auction_counts"]

    def test_padded_variants_are_one_label(self, tmp_path):
        path = write(tmp_path, "auction_id,bid_time\n a1,0.5\na1 ,1.5\na1,2.5\n")
        s = ingest(IngestSpec(path=path, horizon=7.0))
        assert s.sources == ("a1",) * 3
        assert len(set(map(id, s.sources))) == 1
        summ = ingest_summary(IngestSpec(path=path, horizon=7.0))
        assert (summ["n_auctions"], summ["per_auction_counts"]) == (1, {"a1": 3})

    @pytest.mark.parametrize("blank", ["", "  ", "\t"])
    def test_empty_label_fails_with_its_line(self, tmp_path, blank):
        path = write(tmp_path, f"auction_id,bid_time\n a1,0.5\na1,1.5\n{blank},2.5\n")
        for fn in (ingest, ingest_summary):
            with pytest.raises(IngestError) as err:
                fn(IngestSpec(path=path, horizon=7.0))
            assert (str(err.value), err.value.line) == ("line 4: empty auction_id", 4)

    def test_label_memory_scales_with_auctions(self, tmp_path, monkeypatch):
        # 100k rows of 100 auctions; a str of its own per row costs over 50
        # bytes, so a peak under 80 bytes a row leaves room for the times, the
        # sort order and the label pointers, not for a label string per bid
        n = 100_000
        rng = np.random.default_rng(12)
        labels = tuple(f"auction-{i % 100:03d}" for i in rng.permutation(n))
        s = BidSample(times=np.sort(rng.uniform(0.0, 7.0, n)), T=7.0, sources=labels)
        path = tmp_path / "bids.csv"
        write_sample(s, path)
        # small blocks keep the read buffers small beside the labels
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 1 << 16)
        tracemalloc.start()
        try:
            back = ingest(IngestSpec(path=path, horizon=7.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.sources == labels
        assert peak < 80 * n
