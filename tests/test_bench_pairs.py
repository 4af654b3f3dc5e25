import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, correct, attempted, failed, value):
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"work_unit_s": {"value": value, "unit": "s"}}}
    return {"seed": seed, "info": "{}", "result": json.dumps(result)}


def test_summary_sums_operations_and_names_incorrect_runs():
    """Per side: the attempted and failed operations of all runs, and the
    seeds of the runs whose correct is false."""
    spec = {"end_to_end": [{"name": "work_unit_s", "unit": "s",
                            "better": "lower"}]}
    pairs = [{"first": "parent", "parent": _run(1, True, 10, 0, 2.0),
              "change": _run(1, True, 12, 1, 1.0)},
             {"first": "change", "parent": _run(2, False, 9, 3, 2.0),
              "change": _run(2, True, 11, 0, 3.0)}]
    summary = _bench_pairs()._summary(pairs, spec)
    assert summary["operations"] == {
        "parent": {"attempted": 19, "failed": 3, "incorrect_seeds": [2]},
        "change": {"attempted": 23, "failed": 1, "incorrect_seeds": []}}
    assert summary["work_unit_s"]["change_wins"] == 1
