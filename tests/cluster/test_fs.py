"""Unit tests for the per-server filesystem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fs import FSError, ServerFS


class TestCreate:
    def test_create_and_exists(self):
        fs = ServerFS()
        fs.create("/store/a", now=1.0)
        assert fs.exists("/store/a")
        assert fs.stat("/store/a").size == 0
        assert fs.stat("/store/a").created_at == 1.0

    def test_duplicate_create_rejected(self):
        fs = ServerFS()
        fs.create("/a")
        with pytest.raises(FSError, match="exists"):
            fs.create("/a")

    def test_relative_path_rejected(self):
        with pytest.raises(FSError, match="absolute"):
            ServerFS().create("a/b")

    def test_put_replaces(self):
        fs = ServerFS()
        fs.put("/a", b"one")
        fs.put("/a", b"twotwo")
        assert fs.stat("/a").size == 6


class TestReadWrite:
    def test_write_then_read(self):
        fs = ServerFS()
        fs.create("/a")
        assert fs.write("/a", 0, b"hello") == 5
        assert fs.read("/a", 0, 5) == b"hello"

    def test_sparse_write_zero_fills(self):
        fs = ServerFS()
        fs.create("/a")
        fs.write("/a", 4, b"x")
        assert fs.read("/a", 0, 5) == b"\x00\x00\x00\x00x"

    def test_read_past_eof_is_short(self):
        fs = ServerFS()
        fs.put("/a", b"abc")
        assert fs.read("/a", 2, 100) == b"c"
        assert fs.read("/a", 10, 5) == b""

    def test_overwrite_middle(self):
        fs = ServerFS()
        fs.put("/a", b"abcdef")
        fs.write("/a", 2, b"XY")
        assert fs.read("/a", 0, 6) == b"abXYef"

    def test_negative_offset_rejected(self):
        fs = ServerFS()
        fs.put("/a", b"abc")
        with pytest.raises(FSError):
            fs.read("/a", -1, 2)
        with pytest.raises(FSError):
            fs.write("/a", -1, b"x")

    def test_missing_file_raises(self):
        with pytest.raises(FSError):
            ServerFS().read("/nope", 0, 1)

    def test_io_accounting(self):
        fs = ServerFS()
        fs.put("/a", b"abc")
        fs.read("/a", 0, 3)
        fs.write("/a", 0, b"zz")
        assert fs.bytes_read == 3
        assert fs.bytes_written == 2


class TestRemoveAndList:
    def test_remove(self):
        fs = ServerFS()
        fs.put("/a", b"x")
        fs.remove("/a")
        assert not fs.exists("/a")

    def test_remove_missing_raises(self):
        with pytest.raises(FSError):
            ServerFS().remove("/a")

    def test_list_by_prefix(self):
        fs = ServerFS()
        for p in ("/store/run1/a", "/store/run1/b", "/store/run2/c", "/atlas/x"):
            fs.put(p, b"")
        assert fs.list("/store/run1") == ["/store/run1/a", "/store/run1/b"]
        assert fs.list() == fs.paths()
        assert len(fs) == 4

    def test_total_bytes(self):
        fs = ServerFS()
        fs.put("/a", b"12345")
        fs.put("/b", b"12")
        assert fs.total_bytes() == 7


_PATHS = st.sampled_from(["/a", "/b", "/c"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _PATHS, st.binary(max_size=40)),
        st.tuples(st.just("create"), _PATHS),
        st.tuples(
            st.just("write"), _PATHS, st.integers(min_value=0, max_value=60), st.binary(max_size=30)
        ),
        st.tuples(st.just("remove"), _PATHS),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_running_total_equals_sum_of_sizes(ops):
    """The O(1) byte total heartbeats read matches a full recount."""
    fs = ServerFS()
    for op, path, *args in ops:
        try:
            getattr(fs, op)(path, *args)
        except FSError:
            pass  # a failed create/write/remove must leave the total alone
        assert fs.total_bytes() == sum(fs.stat(p).size for p in fs.paths())
