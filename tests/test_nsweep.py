"""Smoke test of ``bench/nsweep.py``: one small size, its keys, positive
times and the minimum of each timing beside its median."""
import importlib.util
import json
from pathlib import Path

NSWEEP = Path(__file__).resolve().parents[1] / "bench" / "nsweep.py"


def load_nsweep():
    spec = importlib.util.spec_from_file_location("nsweep", NSWEEP)
    nsweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nsweep)
    return nsweep


def test_nsweep_writes_its_keys(tmp_path):
    nsweep = load_nsweep()
    out = tmp_path / "sweep.json"
    nsweep.main(["--sizes", "8", "--repeats", "1", "--out", str(out)])
    result = json.loads(out.read_text())
    assert tuple(result) == nsweep.KEYS
    assert [row["form"] for row in result["rows"]] == ["divergence", "nondivergence"]
    for row in result["rows"]:
        assert tuple(row) == nsweep.ROW_KEYS
        for key in nsweep.TIMINGS:
            assert 0.0 < row[f"{key}_min"] <= row[key], key


def test_nsweep_keeps_the_keys_of_earlier_sweeps():
    nsweep = load_nsweep()
    earlier = json.loads((NSWEEP.parents[1] / "BENCH_25.json").read_text())
    assert set(earlier) == set(nsweep.KEYS)
    assert set(earlier["rows"][0]) < set(nsweep.ROW_KEYS)
    assert {"propagator_loop_us", "csv_row_us", "propagator_loop_us_min"} < set(nsweep.ROW_KEYS)
    assert {"ld_matvec_us", "ld_matvec_us_min"} < set(nsweep.ROW_KEYS)
    # tridiagonal_ms (BENCH_30 to BENCH_34) timed a band reduction that
    # no path makes any more
    spectrum = ("spectrum_ms", "spectrum_all_ms")
    assert set(spectrum) | {f"{key}_min" for key in spectrum} < set(nsweep.ROW_KEYS)
    assert "tridiagonal_ms" not in nsweep.ROW_KEYS


def test_dense_max_dofs_keeps_a_margin_on_the_break_even_count():
    # break-even steps per dof of the rows at n = 128 and 256 (dofs 257,
    # 258 and 513, 514) in sweeps of one tree: those at n = 256 fell on
    # both sides of the threshold, 2 steps per dof, and must read as not
    # repaid every time
    nsweep = load_nsweep()

    def rows(per_dof):
        dofs = {128: (258, 257), 256: (514, 513), 512: (1026, 1025)}
        return [{"n": n, "dofs": m, "break_even_steps": r and r * m}
                for n, pair in per_dof.items() for m, r in zip(dofs[n], pair)]

    for low, high in (((0.88, 0.89), (2.86, 2.97)), ((1.22, 0.88), (3.97, 2.36)),
                      ((0.84, 0.88), (1.94, 1.8)), ((0.83, 0.92), (1.69, 1.09))):
        assert nsweep.dense_max_dofs(rows({128: low, 256: high, 512: (None, None)})) == 258
    limit = nsweep.BREAK_EVEN_MARGIN * nsweep._DENSE_MIN_STEPS_PER_DOF
    assert nsweep.dense_max_dofs(rows({128: (0.5, 1.01 * limit), 256: (3.0, 3.0)})) == 0


def test_nsweep_rounds_start_one_quantity_later_each(monkeypatch):
    # the first timing of a round reads high on small meshes, so no
    # quantity may be the first of every round
    nsweep = load_nsweep()
    calls = []
    seconds = nsweep._seconds

    def record(fn, *args):
        calls.append(fn)
        return seconds(fn, *args)

    monkeypatch.setattr(nsweep, "_seconds", record)
    nsweep.measure(*nsweep.CASES[0], 8, 3)
    size = len(nsweep.TIMINGS)
    rounds = [calls[r * size:(r + 1) * size] for r in range(3)]
    assert len(calls) == 3 * size
    assert rounds[1] == rounds[0][1:] + rounds[0][:1]
    assert rounds[2] == rounds[0][2:] + rounds[0][:2]
