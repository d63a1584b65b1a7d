import pytest

from agestruct.csvio import atomic_open


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
