"""Per-layer timing for the benchmark: wraps the public functions of each
octicmoduli module and aggregates the spans in memory.

A wrapper replaces the function under every name that refers to it in
every loaded octicmoduli module, so calls through a `from .x import f`
binding are seen as well as calls through the defining module.  Nested
wrapped calls are child spans; a span's self time is its duration minus
the time of its children.  A function that calls itself adds its outermost
span only to its total time.
"""

import copy
import functools
import importlib
import os
import pkgutil
import time
from contextlib import contextmanager

#: layer (module of octicmoduli) -> the public functions timed in it
LAYERS = {
    "census_fast": ("moduli_rows", "classify_rows"),
    "census": ("run_census", "class_model", "descend", "find_isomorphism"),
    "strata": ("detect_group", "reconstruct_stratum"),
    "reconstruct": ("reconstruct_generic", "r_polynomial",
                    "conic_quartic_models", "derive_triple_models"),
    "covariants": ("shioda", "express_many", "derive_syzygies"),
    "linsolve": ("solve_rational",),
    "wps": ("wps_equal",),
    "forms": ("roots_in_splitting_field", "gl2_act"),
    "fields": ("norm_solve",),
    "store": ("read_artifact", "write_artifact"),
}

#: span name -> amount of work read off the return value
WORK = {
    "census_fast.moduli_rows": lambda rows: int(rows.shape[0]),
    "store.write_artifact": os.path.getsize,
}


class Stat:
    __slots__ = ("calls", "failed", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = self.failed = self.work = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Aggregated spans of the wrapped functions, keyed "module.function".

    Spans are recorded only while the tracer is active, so the benchmark
    can check outputs with the same functions without counting them.
    """

    def __init__(self):
        self.stats = {}
        self.active = True
        self._stack = []          # [name, child seconds] per open span

    def install(self):
        """Wrap every function of LAYERS under every binding of it."""
        import octicmoduli
        modules = [octicmoduli] + [
            importlib.import_module("octicmoduli." + info.name)
            for info in pkgutil.iter_modules(octicmoduli.__path__)]
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = importlib.import_module("octicmoduli." + layer)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._wrap("%s.%s" % (layer, name), fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return self

    def stat(self, name):
        return self.stats.get(name) or Stat()

    def snapshot(self):
        return {name: copy.copy(st) for name, st in self.stats.items()}

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                st.failed += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                st.calls += 1
                st.self_s += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                if all(f[0] != name for f in self._stack):
                    st.total_s += dt
            if work is not None:
                st.work += work(out)
            return out

        return wrapper
