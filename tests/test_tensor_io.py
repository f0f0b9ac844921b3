import struct

import numpy as np
import pytest

from conftest import fill_disk_after
from mczsl import tensor_io
from mczsl.errors import FormatError
from mczsl.numeric import make_rng
from mczsl.tensor_io import _CHECK_BLOCK, MAGIC, read_tensor, write_tensor


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_round_trip_bit_exact(tmp_path, shape):
    rng = make_rng(0)
    a = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.msdt"
    write_tensor(path, a)
    back = read_tensor(path)
    assert back.shape == shape
    assert np.array_equal(back, a)
    assert back.dtype == np.float32


def test_write_then_write_is_byte_identical(tmp_path):
    a = make_rng(1).standard_normal((4, 4))
    p1, p2 = tmp_path / "a.msdt", tmp_path / "b.msdt"
    write_tensor(p1, a)
    write_tensor(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


def test_layout_is_as_documented(tmp_path):
    a = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "t.msdt"
    write_tensor(path, a)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert blob[4] == 1  # version
    assert blob[5] == 2  # rank
    assert struct.unpack("<2I", blob[6:14]) == (2, 3)
    payload = np.frombuffer(blob, dtype="<f4", offset=14)
    assert np.array_equal(payload, np.arange(6.0, dtype=np.float32))


def test_failed_write_leaves_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "w.msdt"
    write_tensor(path, np.arange(6.0).reshape(2, 3))
    before = path.read_bytes()
    fill_disk_after(monkeypatch, 20)  # the header is 14 bytes: fail inside the payload
    with pytest.raises(OSError, match="No space left"):
        write_tensor(path, np.ones((2, 3)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.msdt"]


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nowhere.msdt"):
        read_tensor(tmp_path / "nowhere.msdt")


def _valid_blob():
    a = np.arange(12.0).reshape(3, 4)
    header = MAGIC + struct.pack("<BB", 1, 2) + struct.pack("<2I", 3, 4)
    return header + a.astype("<f4").tobytes()


def _write(tmp_path, blob):
    p = tmp_path / "t.msdt"
    p.write_bytes(blob)
    return p


def test_bad_magic(tmp_path):
    blob = b"XSDT" + _valid_blob()[4:]
    with pytest.raises(FormatError, match="offset 0"):
        read_tensor(_write(tmp_path, blob))


def test_bad_version(tmp_path):
    blob = bytearray(_valid_blob())
    blob[4] = 99
    with pytest.raises(FormatError, match="offset 4"):
        read_tensor(_write(tmp_path, bytes(blob)))


@pytest.mark.parametrize("rank", [0, 4, 255])
def test_bad_rank(tmp_path, rank):
    blob = bytearray(_valid_blob())
    blob[5] = rank
    with pytest.raises(FormatError):
        read_tensor(_write(tmp_path, bytes(blob)))


def test_truncated_by_one_byte(tmp_path):
    blob = _valid_blob()
    with pytest.raises(FormatError, match="mismatch"):
        read_tensor(_write(tmp_path, blob[:-1]))


def test_truncated_header(tmp_path):
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(_write(tmp_path, _valid_blob()[:3]))


def test_truncated_dims(tmp_path):
    with pytest.raises(FormatError, match="truncated dims"):
        read_tensor(_write(tmp_path, _valid_blob()[:9]))


@pytest.mark.parametrize("case", ["header_promises_more", "one_byte_short"])
def test_size_checked_before_the_payload_is_read(tmp_path, monkeypatch, case):
    # 2**30 elements are under the element cap, so only the size check stops them
    promises_more = MAGIC + struct.pack("<BB", 1, 2) + struct.pack("<2I", 2**20, 2**10)
    blob = {"header_promises_more": promises_more + b"\x00" * 16,
            "one_byte_short": _valid_blob()[:-1]}[case]
    reads = []
    monkeypatch.setattr(np, "fromfile", lambda *args, **kwargs: reads.append(args))
    with pytest.raises(FormatError, match="mismatch at offset 14"):
        read_tensor(_write(tmp_path, blob))
    assert reads == []


def test_short_payload_read_is_format_error(tmp_path, monkeypatch):
    # the file loses its last value between the size check and the read
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile",
                        lambda *args, count, **kwargs: fromfile(*args, count=count - 1, **kwargs))
    with pytest.raises(FormatError, match="mismatch at offset 14: read 11 of 12 values"):
        read_tensor(_write(tmp_path, _valid_blob()))


def test_trailing_garbage_rejected(tmp_path):
    with pytest.raises(FormatError, match="mismatch"):
        read_tensor(_write(tmp_path, _valid_blob() + b"\x00"))


def test_zero_dimension_rejected(tmp_path):
    blob = bytearray(_valid_blob())
    blob[6:10] = struct.pack("<I", 0)
    with pytest.raises(FormatError, match="zero dimension"):
        read_tensor(_write(tmp_path, bytes(blob)))


def test_zero_dimension_refused_on_write(tmp_path):
    # the writer states the reader's rule, at the reader's offset
    with pytest.raises(FormatError, match=r"attributes\.msdt: zero dimension in shape "
                                          r"\(12, 0\) at offset 6"):
        write_tensor(tmp_path / "attributes.msdt", np.zeros((12, 0)))
    assert list(tmp_path.iterdir()) == []


def test_huge_dims_rejected_before_allocation(tmp_path):
    header = MAGIC + struct.pack("<BB", 1, 3) + struct.pack("<3I", 2**30, 2**30, 2**30)
    with pytest.raises(FormatError, match=r"exceeds the 2\*\*31-element cap at offset 6"):
        read_tensor(_write(tmp_path, header + b"\x00" * 16))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("index", [0, 1, _CHECK_BLOCK - 1, _CHECK_BLOCK + 2])
def test_nonfinite_payload_rejected(tmp_path, value, index):
    # the last index lies past the first check block
    a = np.ones(_CHECK_BLOCK + 3, dtype="<f4")
    a[index] = value
    blob = MAGIC + struct.pack("<BB", 1, 1) + struct.pack("<1I", a.size) + a.tobytes()
    with pytest.raises(FormatError, match="non-finite") as raised:
        read_tensor(_write(tmp_path, blob))
    assert str(raised.value).endswith(f"at offset {10 + 4 * index}")


@pytest.mark.parametrize("array", [[1.0, 1e39], [[0.0, np.nan]]], ids=["overflow", "nan"])
def test_nonfinite_write_refused_before_any_file(tmp_path, array):
    # 1e39 is finite as float64 but inf as the float32 the file would store
    header = 6 + 4 * np.ndim(array)
    with pytest.raises(FormatError, match=f"non-finite payload value at offset {header + 4}"):
        write_tensor(tmp_path / "new.msdt", array)
    assert list(tmp_path.iterdir()) == []
    path = tmp_path / "w.msdt"
    write_tensor(path, np.arange(6.0).reshape(2, 3))
    before = path.read_bytes()
    with pytest.raises(FormatError, match="non-finite"):
        write_tensor(path, array)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.msdt"]


def test_element_cap_is_one_rule_for_write_and_read(tmp_path, monkeypatch):
    path = tmp_path / "t.msdt"
    write_tensor(path, np.ones((3, 4)))
    before = path.read_bytes()
    monkeypatch.setattr(tensor_io, "_MAX_ELEMENTS", 11)  # 3 x 4 is one value over
    cap = r"element count 12 exceeds the 2\*\*31-element cap at offset 6"
    with pytest.raises(FormatError, match=cap) as read:
        read_tensor(path)
    with pytest.raises(FormatError, match=cap) as written:
        write_tensor(path, np.ones((3, 4)))
    assert str(written.value) == str(read.value)
    assert path.read_bytes() == before
    # the shape is refused before the float32 cast, which would fail on strings
    with pytest.raises(FormatError, match=cap):
        write_tensor(tmp_path / "s.msdt", np.full((3, 4), "x"))


def test_rank_out_of_range_on_write(tmp_path):
    with pytest.raises(FormatError):
        write_tensor(tmp_path / "t.msdt", np.zeros((2, 2, 2, 2)))
