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


def _run(seed, correct, attempted, failed, value, ops_per_s=1.0):
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"work_unit_s": {"value": value, "unit": "s"},
                          "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}
    return {"seed": seed, "info": "{}", "result": json.dumps(result)}


def test_summary_sums_operations_and_names_incorrect_runs():
    """Per side: the attempted and failed operations of all runs, and the
    seeds of the runs whose correct is false."""
    spec = {"end_to_end": [{"name": "work_unit_s", "unit": "s",
                            "better": "lower", "bound": 0.25}]}
    pairs = [{"first": "parent", "parent": _run(1, True, 10, 0, 2.0),
              "change": _run(1, True, 12, 1, 1.0)},
             {"first": "change", "parent": _run(2, False, 9, 3, 2.0),
              "change": _run(2, True, 11, 0, 3.0)}]
    summary = _bench_pairs()._summary(pairs, spec)
    assert summary["operations"] == {
        "parent": {"attempted": 19, "failed": 3, "incorrect_seeds": [2]},
        "change": {"attempted": 23, "failed": 1, "incorrect_seeds": []}}
    assert summary["work_unit_s"]["change_wins"] == 1


def test_summary_says_whether_each_median_is_within_its_bound():
    """Lower is better: the change's median may be at most (1 + bound)
    times the parent's; higher is better: at least (1 - bound) times."""
    spec = {"end_to_end": [
        {"name": "work_unit_s", "unit": "s", "better": "lower",
         "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25}]}

    def summary(parent, change):
        pairs = [{"first": "parent", "parent": _run(1, True, 1, 0, *parent),
                  "change": _run(1, True, 1, 0, *change)}]
        return _bench_pairs()._summary(pairs, spec)

    edge = summary((2.0, 4.0), (2.5, 3.0))
    assert edge["work_unit_s"]["bound"] == 0.25
    assert edge["work_unit_s"]["within_bound"]
    assert edge["ops_per_s"]["within_bound"]
    past = summary((2.0, 4.0), (2.6, 2.9))
    assert not past["work_unit_s"]["within_bound"]
    assert not past["ops_per_s"]["within_bound"]
