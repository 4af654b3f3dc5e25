"""Checks of the benchmark's tracer: every binding of a wrapped function is
replaced, and a traced iteration of each workload records calls to every
function behind the per-layer metrics named for that workload.

    python3 -m pytest perfbench/test_trace.py      # about 90 s on 2 cores
"""

import importlib
import os
import pkgutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

#: functions behind the per-layer metrics of each workload
EXPECTED_CALLS = {
    "census_p11": ["census_fast.moduli_rows", "census_fast.classify_rows",
                   "census.run_census"],
    "models_p11": ["census.class_model", "strata.detect_group",
                   "covariants.shioda", "wps.wps_equal",
                   "strata.reconstruct_stratum",
                   "reconstruct.reconstruct_generic", "census.descend",
                   "forms.roots_in_splitting_field", "fields.norm_solve",
                   "census.find_isomorphism", "store.read_artifact"],
    "rational_q": ["covariants.derive_syzygies", "store.write_artifact",
                   "linsolve.solve_rational", "covariants.express_many",
                   "covariants.shioda", "reconstruct.r_polynomial",
                   "reconstruct.reconstruct_generic"],
}


@pytest.fixture(scope="module")
def tracer():
    originals = {}
    for layer, names in LAYERS.items():
        mod = importlib.import_module("octicmoduli." + layer)
        for name in names:
            originals[id(getattr(mod, name))] = "%s.%s" % (layer, name)
    tr = Tracer().install()
    tr.originals = originals
    return tr


def _package_modules():
    import octicmoduli
    return [octicmoduli] + [
        importlib.import_module("octicmoduli." + info.name)
        for info in pkgutil.iter_modules(octicmoduli.__path__)]


def test_no_binding_left_unwrapped(tracer):
    left = ["%s.%s -> %s" % (mod.__name__, attr, tracer.originals[id(value)])
            for mod in _package_modules()
            for attr, value in vars(mod).items()
            if id(value) in tracer.originals]
    assert not left


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_traced_iteration_calls_every_layer(workload, tracer, tmp_path,
                                            monkeypatch):
    import workloads
    monkeypatch.setenv("OCTICMODULI_CACHE", str(tmp_path))
    tracer.stats.clear()
    run._setup(workload)
    bench = workloads.Run(workload, RefClock())
    workloads.iteration_function(workload)(bench, 1, 0, tracer)
    assert not bench.errors
    missing = [name for name in EXPECTED_CALLS[workload]
               if tracer.stat(name).calls == 0]
    assert not missing
    assert all(tracer.stat(name).total_s > 0
               for name in EXPECTED_CALLS[workload])
