"""Smoke test of ``bench/nsweep.py``: one small size, the keys only."""
import importlib.util
import json
from pathlib import Path

NSWEEP = Path(__file__).resolve().parents[1] / "bench" / "nsweep.py"


def test_nsweep_writes_its_keys(tmp_path):
    spec = importlib.util.spec_from_file_location("nsweep", NSWEEP)
    nsweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nsweep)
    out = tmp_path / "sweep.json"
    nsweep.main(["--sizes", "8", "--repeats", "1", "--out", str(out)])
    result = json.loads(out.read_text())
    assert tuple(result) == nsweep.KEYS
    assert [row["form"] for row in result["rows"]] == ["divergence", "nondivergence"]
    for row in result["rows"]:
        assert tuple(row) == nsweep.ROW_KEYS
