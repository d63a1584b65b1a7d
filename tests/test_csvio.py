import pytest

from agestruct.csvio import atomic_open, write_lines


def test_atomic_open_failure_keeps_the_old_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,contents\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_open(target) as fh:
            fh.write("half,written\n")
            fh.flush()
            assert len(list(tmp_path.glob(".*.tmp"))) == 1
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old,contents\n"
    assert list(tmp_path.glob(".*.tmp")) == []


def test_write_lines_ends_every_row_and_writes_nothing_for_no_rows(tmp_path):
    assert write_lines(tmp_path / "two.csv", iter(["a,b", "1.0,2.5"])).read_bytes() == b"a,b\n1.0,2.5\n"
    assert write_lines(tmp_path / "none.txt", []).read_bytes() == b""
