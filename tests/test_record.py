"""The bench recorder's summary step, on fixed numbers: no subprocess
runs and no git call is made."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "record.py"
spec = importlib.util.spec_from_file_location("record", PATH)
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)


def test_summary_reads_medians_quartiles_and_wins_per_pair():
    runs = {
        "base": [{"ops_per_s": v, "op_p50_ms": m} for v, m in
                 [(700, 0.80), (720, 0.78), (690, 0.82), (740, 0.75), (710, 0.80)]],
        "change": [{"ops_per_s": v, "op_p50_ms": m} for v, m in
                   [(800, 0.70), (710, 0.79), (805, 0.82), (790, 0.71), (800, 0.72)]],
    }
    out = record.summarize(runs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    ops = out["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["base"] == {"median": 710, "q1": 700, "q3": 720, "runs": [700, 720, 690, 740, 710]}
    assert (ops["change"]["median"], ops["change"]["q1"], ops["change"]["q3"]) == (800, 790, 800)
    # pair 2 reads lower for the change
    assert ops["change_better"] == "4/5"
    p50 = out["op_p50_ms"]
    # lower is better: pair 2 reads worse and pair 3 ties
    assert p50["change_better"] == "3/5"
    assert p50["base"]["median"] == pytest.approx(0.80) and p50["change"]["median"] == pytest.approx(0.72)


def test_a_single_pair_has_its_value_as_every_quartile():
    out = record.summarize({"base": [{"setup_s": 0.2}], "change": [{"setup_s": 0.2}]},
                           {"setup_s": "lower"})
    assert out["setup_s"]["base"] == {"median": 0.2, "q1": 0.2, "q3": 0.2, "runs": [0.2]}
    # a tie counts for neither side
    assert out["setup_s"]["change_better"] == "0/1"
