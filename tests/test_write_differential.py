"""write_sample and write_qq against the per-row writers they replaced.

The references below are frozen copies of the earlier code: write_sample
sent one csv.writer row per bid, and the QQ CSV was a list of f-string lines
joined into one text.  The block writer must produce the same bytes for
every sample, label and destination.
"""
import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barista import BidSample, QqData, qq_points, sample_fixed_n, write_qq, write_sample
from barista.dataio import _BLOCK_ROWS
from conftest import P_STAR

B = _BLOCK_ROWS
# the edges of the first block and of the eighth
SIZES = (0, 1, B - 1, B, B + 1, 8 * B - 1, 8 * B, 8 * B + 1)


# ---------------------------------------------------------------------------
# references: the per-row writers
# ---------------------------------------------------------------------------

def ref_write_sample(sample, dest, metadata=None):
    if isinstance(dest, (str, Path)):
        with Path(dest).open("w") as fh:
            ref_write_sample(sample, fh, metadata)
        return
    for key, value in (metadata or {}).items():
        dest.write(f"# {key}={value}\n")
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(("auction_id", "bid_time"))
    sources = sample.sources or ("sim",) * sample.n
    for t, a in zip(sample.times, sources):
        writer.writerow([a, repr(float(t))])


def ref_write_qq(qq, path):
    lines = ["reference_quantile,observed_quantile"]
    # plain-float repr keeps full precision without numpy scalar noise
    lines += [f"{float(r)!r},{float(o)!r}" for r, o in qq.pairs]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# labels csv must quote, that strip to the same label, that differ only by a
# trailing NUL, and that a % template must not read as a conversion
LABELS = ("a", "a\x00", "x,y", 'q"r', "line\nbreak", "cr\rret", "", " padded ",
          "#lead", "50%", "%s", "%%r", "é", '"', ",")
T_WIDE = 2e16
# -0.0 and 0.0 compare equal, so either order is sorted
ODD_TIMES = np.array([-0.0, 0.0, 5e-324, 1e-05, 0.1, 1 / 3, 7.0, 1e16,
                      np.nextafter(T_WIDE, 0.0)])
METADATA = {"schema": "barista/1", "command": "simulate", "horizon": 7.0,
            "seed": 23, "d2": 5 / 1440, "label": "a,b"}


def tagged(n, seed=0, T=P_STAR.T):
    times = sample_fixed_n(P_STAR, n, seed=seed).times * (T / P_STAR.T)
    rng = np.random.default_rng(seed)
    labels = [LABELS[i] for i in rng.integers(0, len(LABELS), n)]
    return BidSample(times=times, T=T, sources=tuple(labels))


def untagged(n, seed=0):
    return sample_fixed_n(P_STAR, n, seed=seed)


def samples():
    yield "odd-times-untagged", BidSample(times=ODD_TIMES, T=T_WIDE)
    yield "odd-times-tagged", BidSample(times=ODD_TIMES, T=T_WIDE,
                                        sources=LABELS[:ODD_TIMES.size])
    yield "at-T", BidSample(times=[0.5, np.nextafter(7.0, 0.0)], T=7.0,
                            sources=("a", "a\x00"))
    for n in SIZES:
        yield f"untagged-{n}", untagged(n, seed=n)
        yield f"tagged-{n}", tagged(n, seed=n)
    yield "tagged-empty-tuple", BidSample(times=np.empty(0), T=7.0, sources=())


SAMPLES = dict(samples())


def qq_cases():
    yield "odd", QqData(pairs=np.column_stack([-ODD_TIMES[::-1], ODD_TIMES]))
    yield "empty", QqData(pairs=np.empty((0, 2)))
    for n in SIZES[1:]:
        s = sample_fixed_n(P_STAR, n, seed=n)
        yield f"qq-{n}", qq_points(s, P_STAR)
    yield "two-sample", qq_points(untagged(500, seed=1), untagged(300, seed=2))


QQ = dict(qq_cases())


def file_bytes(write, tmp_path, name):
    path = tmp_path / name
    write(path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# write_sample
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(SAMPLES))
def test_write_sample_file_matches_rows(name, tmp_path):
    sample = SAMPLES[name]
    want = file_bytes(lambda p: ref_write_sample(sample, p, METADATA), tmp_path, "ref.csv")
    assert file_bytes(lambda p: write_sample(sample, p, METADATA), tmp_path, "got.csv") == want
    want = file_bytes(lambda p: ref_write_sample(sample, p), tmp_path, "ref-bare.csv")
    assert file_bytes(lambda p: write_sample(sample, str(p)), tmp_path, "got-str.csv") == want


@pytest.mark.parametrize("name", list(SAMPLES))
def test_write_sample_stream_matches_rows(name):
    sample = SAMPLES[name]
    want, got = io.StringIO(), io.StringIO()
    ref_write_sample(sample, want, METADATA)
    write_sample(sample, got, METADATA)
    assert got.getvalue() == want.getvalue()


def test_write_sample_open_file_matches_rows(tmp_path):
    # the CLI opens its --output with newline="", which keeps \r in labels
    for writer, name in ((ref_write_sample, "ref.csv"), (write_sample, "got.csv")):
        with open(tmp_path / name, "w", newline="") as fh:
            writer(SAMPLES["odd-times-tagged"], fh, METADATA)
            writer(SAMPLES[f"tagged-{B + 1}"], fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_sample_stdout_matches_rows(capsys):
    for name in ("odd-times-tagged", "untagged-1", "tagged-0"):
        ref_write_sample(SAMPLES[name], sys.stdout, METADATA)
        want = capsys.readouterr().out
        write_sample(SAMPLES[name], sys.stdout, METADATA)
        assert capsys.readouterr().out == want


@settings(max_examples=150, deadline=None)
@given(labels=st.lists(st.text(max_size=6), min_size=1, max_size=40),
       n=st.integers(0, 60), seed=st.integers(0, 2**16))
def test_write_sample_any_labels(labels, n, seed):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.random(n) * 7.0)
    sources = tuple(labels[i] for i in rng.integers(0, len(labels), n))
    sample = BidSample(times=times, T=7.0, sources=sources)
    want, got = io.StringIO(), io.StringIO()
    ref_write_sample(sample, want)
    write_sample(sample, got)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# write_qq
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(QQ))
def test_write_qq_matches_lines(name, tmp_path):
    qq = QQ[name]
    want = file_bytes(lambda p: ref_write_qq(qq, p), tmp_path, "ref.csv")
    assert file_bytes(lambda p: write_qq(qq, p), tmp_path, "got.csv") == want
    assert file_bytes(lambda p: write_qq(qq, str(p)), tmp_path, "got-str.csv") == want
    buf = io.StringIO()
    write_qq(qq, buf)
    assert buf.getvalue().encode() == want


def test_write_qq_stdout_matches_lines(capsys, tmp_path):
    want = file_bytes(lambda p: ref_write_qq(QQ["odd"], p), tmp_path, "ref.csv")
    write_qq(QQ["odd"], sys.stdout)
    assert capsys.readouterr().out.encode() == want
