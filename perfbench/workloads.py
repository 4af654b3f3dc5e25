"""The benchmark's three workloads.  Each is a closed loop: one client in
one process runs an iteration, checks its outputs, and starts the next one
until the time is up (always at least one iteration).

* census_p11 -- one run_census(11) per iteration.  The input does not
  depend on the seed.  Exercises census_fast (moduli_rows, classify_rows).
* models_p11 -- per iteration a seeded, stratified sample of real F_11
  classes goes through class_model (with detect_group) and then
  find_isomorphism against a seeded GL2 image of the model.  Exercises the
  scalar F_p / F_{p^k} path: closed forms, the conic method and descent.
* rational_q -- per iteration one derive_syzygies(force=True), express_in_J
  for the nine catalogue invariants and reconstruct_generic over Q on
  seeded random rational octics.  Exercises exact rational arithmetic, the
  interpolation engine and the store write path.

Every operation is timed with perf_counter around the library call only;
input generation and output checks are outside the timed region (and
outside the tracer, when one is installed).  The reference kernel of
refclock is sampled between calls, never inside one, and the operations of
models_p11 and rational_q are reported at reference speed.
"""

import functools
import hashlib
import math
import os
import random
import statistics
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from octicmoduli import (
    census, census_fast, covariants, forms, reconstruct, store, strata,
    unipoly,
)
from octicmoduli.census import expected_counts
from octicmoduli.errors import InterpolationFailure, ModuliError
from octicmoduli.fields import QQ, PrimeField
from octicmoduli.forms import BinaryForm, Gl2Matrix
from octicmoduli.jpoly import JPolynomial
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_equal

HERE = os.path.dirname(os.path.abspath(__file__))
P = 11

#: sha256 prefix of the int64 moduli_rows output at p = 11
ROWS_SHA_P11 = "423d80cbdd08"

#: classes per iteration of models_p11; the 28 classes of the dimension-0
#: and dimension-1 strata are all taken every time.  find_isomorphism runs
#: on every class except the generic ones, where it runs on ISO_C2 of them
#: (root matching costs a C2 class about 15 times its class_model)
SAMPLE_SIZES = {"C2p3": 10, "C4": 10, "D4": 10, "C2": 160}
ISO_C2 = 12
DIM01 = ("C2xS4", "V8", "U6", "C14", "C2xD8", "D12", "C2xC4")

#: random rational octics reconstructed per iteration of rational_q
RECONSTRUCTIONS = 3

#: sha256 prefixes of JPolynomial.serialize() of express_in_J for each
#: catalogue invariant; the interpolant is unique (nullity 0), so every
#: sample seed must give the same polynomial
EXPRESS_SHA = {
    "C2_0": "5cca5acdf3c3e321", "C3_0": "756f7c2a6a718e55",
    "C4_0": "9a512f4f843ea8a4", "C5_0": "5b84be9edeacbb2d",
    "C6_0": "a68acc0354273d8b", "C7_0": "4ceb56a7305aa154",
    "C8_0": "42f1211c35f08d01", "C9_0": "0c2fd6b4d443418a",
    "C10_0": "6dc3ed94f0079942",
}

_SYZYGY_ID = "syzygies-R1..R5"

#: workloads whose operations are timed in raw seconds: census_p11's
#: time is in numpy's vector loops, which the machine's slow periods slow
#: much less than the reference kernel, and a kernel sample before and
#: after a 35-second call says little about the speed during it (see
#: refclock and perfbench/README.md)
RAW_TIMED = ("census_p11",)

#: the calls behind op_p50_ms and op_p90_ms, where not every call: on
#: models_p11 the latency of class_model; find_isomorphism counts in
#: ops_per_s only (its 70 calls per iteration range from 20 ms to over a
#: second, and mixed in they put the 90th percentile on a steep slope)
LATENCY_KINDS = {"models_p11": ("class_model",)}


class Run:
    """Timed calls, failures and check results of one benchmark run.

    A call is kept as its perf_counter stamps; figures() turns the stamps
    into seconds, at reference speed (see refclock) or raw, once the loop
    is over."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.calls = []          # (kind, t0, t1, ok, label, iteration)
        self.failures = []       # (input, label, error class name)
        self.skipped = []        # (input, label, reason) left out of a sample
        self.errors = []         # failed output checks
        self.iterations = 0
        self.extra = Counter()   # per-layer counts the workload computes

    def start(self):
        """Stamp for the start of a timed call; samples the reference
        kernel first when a sample is due, so none falls inside a call."""
        self.clock.tick()
        return time.perf_counter()

    def call(self, kind, t0, ok=True, label=None):
        """Record an operation: a library call that started at t0 and ends
        now."""
        self.calls.append((kind, t0, time.perf_counter(), ok, label,
                           self.iterations))

    def check(self, cond, message):
        if not cond:
            self.errors.append(message)

    def figures(self, scaled=True):
        return Figures(self, [self.clock.scaled(t0, t1) if scaled else t1 - t0
                              for _, t0, t1, *_ in self.calls])


class Figures:
    """Seconds of a run's calls and what the metrics are made of."""

    def __init__(self, run, seconds):
        self.kinds = {}          # library call -> [(seconds, ok)]
        self.by_stratum = {}     # stratum -> class_model seconds
        for (kind, _, _, ok, label, _), s in zip(run.calls, seconds):
            self.kinds.setdefault(kind, []).append((s, ok))
            if kind == "class_model":
                self.by_stratum.setdefault(label, []).append(s)
        self.ops = [(s, call[3]) for call, s in zip(run.calls, seconds)]
        kinds = LATENCY_KINDS.get(run.workload, self.kinds)
        # per iteration: the seconds of the calls behind op_p50_ms and
        # op_p90_ms, and work_unit_s (the projected all-class model census
        # on models_p11, the calls' seconds elsewhere)
        self.latency = []
        self.units = []
        counts = expected_counts(P)
        for it in range(run.iterations):
            ours = [(call, s) for call, s in zip(run.calls, seconds)
                    if call[5] == it]
            self.latency.append([s for call, s in ours if call[0] in kinds])
            if run.workload == "models_p11":
                times = {}
                for (kind, _, _, _, label, _), s in ours:
                    if kind == "class_model":
                        times.setdefault(label, []).append(s)
                self.units.append(sum(counts[label] * statistics.fmean(ts)
                                      for label, ts in times.items()))
            else:
                self.units.append(sum(s for _, s in ours))

    def ops_per_s(self):
        """Operations that succeeded, per second of all operations."""
        return sum(ok for _, ok in self.ops) / sum(t for t, _ in self.ops)


def iteration_function(workload):
    return {"census_p11": census_iteration, "models_p11": models_iteration,
            "rational_q": rational_iteration}[workload]


def _rng(seed, *parts):
    """Independent stream per (seed, iteration, purpose); str seeds are
    hashed with sha512, so streams do not depend on PYTHONHASHSEED."""
    return random.Random(":".join(str(x) for x in (seed,) + parts))


# ---------------------------------------------------------------------------
# setup: imports are done by the caller; these are the program's lazy loads


def setup(workload):
    """Load what the workload's first operation would otherwise load."""
    if workload == "census_p11":
        covariants.derive_syzygies()
        covariants.j8_quintic()
        strata.stratum_systems()
    elif workload == "models_p11":
        strata.stratum_systems()
        for triple in reconstruct.TRIPLES_C4:
            reconstruct.conic_quartic_models(triple)
        for triple in reconstruct.TRIPLES_19:
            reconstruct.r_polynomial(triple)
    elif workload == "rational_q":
        covariants.derive_syzygies()
        reconstruct.conic_quartic_models(reconstruct.TRIPLES_19[0])
        for triple in reconstruct.TRIPLES_19:
            reconstruct.r_polynomial(triple)
    else:
        raise KeyError(workload)


# ---------------------------------------------------------------------------
# census_p11


def census_iteration(run, seed, it, tracer):
    captured = []
    moduli_rows = census_fast.moduli_rows

    def tap(*args, **kwargs):
        rows = moduli_rows(*args, **kwargs)
        captured.append(rows)
        return rows

    census_fast.moduli_rows = tap
    try:
        t0 = run.start()
        report = census.run_census(P)
        run.call("census", t0)
    finally:
        census_fast.moduli_rows = moduli_rows
    run.check(report.total == P ** 5, "census total %d" % report.total)
    run.check(report.counts == expected_counts(P),
              "census counts %s" % report.counts)
    run.check(not report.flags, "census flags %s" % report.flags)
    rows = np.ascontiguousarray(captured[0], dtype=np.int64)
    digest = hashlib.sha256(rows.tobytes()).hexdigest()[:12]
    run.check(digest == ROWS_SHA_P11, "moduli_rows sha256 %s" % digest)


# ---------------------------------------------------------------------------
# models_p11


@functools.cache
def _classes(path=os.path.join(HERE, "classes_p11.txt")):
    """stratum -> rows of the non-generic classes, cheapest first; the
    counts must equal expected_counts(11)."""
    by_label = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            label, row, _outcome, ms = (x.strip() for x in line.split(";"))
            row = tuple(int(v) for v in row.split(","))
            by_label.setdefault(label, []).append((float(ms), row))
    counts = {label: len(items) for label, items in by_label.items()}
    want = {k: v for k, v in expected_counts(P).items() if k != "C2"}
    if counts != want:
        raise ValueError("class list counts %s != %s" % (counts, want))
    return {label: [row for _, row in sorted(items)]
            for label, items in by_label.items()}


def _stratified(rng, rows, n):
    """One row drawn from each of n equal bins of the list: every row can
    be drawn, and on a cost-sorted list every seed gets nearly the same
    cost mix."""
    step = len(rows) / n
    return [rows[int((k + rng.random()) * step)] for k in range(n)]


def _lcm_distribution(n=8):
    """Probability of each lcm of the cycle type of a random permutation
    of n points: the limiting share of degree-n forms over F_q whose
    splitting field has that degree over F_q."""
    out = Counter()

    def parts(rest, largest, acc):
        if rest == 0:
            z = 1
            for size, mult in Counter(acc).items():
                z *= size ** mult * math.factorial(mult)
            out[math.lcm(*acc)] += Fraction(1, z)
            return
        for size in range(min(rest, largest), 0, -1):
            parts(rest - size, size, acc + [size])

    parts(n, n, [])
    return out


def _quotas(dist, n):
    """Largest-remainder apportionment of n draws over dist."""
    exact = {k: p * n for k, p in dist.items()}
    quota = {k: int(v) for k, v in exact.items()}
    spare = n - sum(quota.values())
    for k in sorted(exact, key=lambda k: (quota[k] - exact[k], k))[:spare]:
        quota[k] += 1
    return {k: q for k, q in quota.items() if q}


def _splitting_degree(field, f):
    d = max(i for i, c in enumerate(f.coeffs) if c)
    degs = [unipoly.degree(g) for g, _ in unipoly.factor(field, f.coeffs[:d + 1])]
    return math.lcm(1, *degs)


def _walk_ends_shipped(field, jt):
    """Whether reconstruct_generic's triple walk stops at a triple whose
    models ship with the package.  Any other triple is derived on first
    use, which takes several minutes: more than one run may last."""
    for triple in reconstruct.TRIPLES_19:
        if reconstruct.r_polynomial(triple).evaluate(field, jt):
            try:
                reconstruct.conic_quartic_models(triple, derive_if_missing=False)
            except InterpolationFailure:
                return False
            return True
    return True


def c2_sample(rng, field, n, n_iso, skipped):
    """Invariants of seeded random smooth octics whose census label is C2,
    as (label, row, with_iso) items.  The share of each splitting degree
    is fixed by _lcm_distribution, in the whole sample and in the n_iso
    items marked for find_isomorphism, so that the cost of root matching
    is the same mix for every seed.  Classes whose model needs a triple
    that is not shipped are appended to skipped instead."""
    want = _quotas(_lcm_distribution(), n)
    iso = _quotas(_lcm_distribution(), n_iso)
    c2 = census_fast.strata_labels().index("C2")
    picked = []
    while want:
        need = Counter(want)
        degrees, jts = [], []
        while +need:
            f = BinaryForm(field, 8, [rng.randrange(P) for _ in range(9)])
            if not f.coeffs[8]:
                continue
            k = _splitting_degree(field, f)
            if need[k] and forms.disc_resultant(f):
                need[k] -= 1
                degrees.append(k)
                jts.append(covariants.shioda(f))
        rows = np.array([[v.value for v in jt] for jt in jts], dtype=np.int64)
        labels = census_fast.classify_rows(field, rows)
        for k, jt, row, label in zip(degrees, jts, rows, labels):
            if label != c2 or not want.get(k):
                continue
            row = tuple(int(v) for v in row)
            if not _walk_ends_shipped(field, jt):
                skipped.append((",".join(map(str, row)), "C2",
                                "walk ends at an unshipped triple"))
                continue
            want[k] -= 1
            if not want[k]:
                del want[k]
            with_iso = iso.get(k, 0) > 0
            if with_iso:
                iso[k] -= 1
            picked.append(("C2", row, with_iso))
    return picked


def model_sample(rng, classes, field, skipped):
    items = [(label, row, True) for label in DIM01 for row in classes[label]]
    for label in ("C2p3", "C4", "D4"):
        items += [(label, row, True) for row in
                  _stratified(rng, classes[label], SAMPLE_SIZES[label])]
    items += c2_sample(rng, field, SAMPLE_SIZES["C2"], ISO_C2, skipped)
    # a seeded order spreads each stratum over the run, so that one slow
    # period of the machine does not fall on all of one stratum's calls
    rng.shuffle(items)
    return items


def _random_invertible(rng, field):
    while True:
        m = Gl2Matrix(field, *[rng.randrange(P) for _ in range(4)])
        if m.det():
            return m


def models_iteration(run, seed, it, tracer):
    field = PrimeField(P)
    rng = _rng(seed, "models", it)
    with tracer.paused():
        items = model_sample(rng, _classes(), field, run.skipped)
    detected = []
    detect_group = census.detect_group

    def tap(*args, **kwargs):
        label = detect_group(*args, **kwargs)
        detected.append(label)
        return label

    census.detect_group = tap
    try:
        for label, row, with_iso in items:
            detected.clear()
            _model_one(run, rng, tracer, field, label, row, with_iso,
                       detected)
    finally:
        census.detect_group = detect_group


def _model_one(run, rng, tracer, field, label, row, with_iso, detected):
    """class_model, then (with_iso) find_isomorphism against a random GL2
    image of the model; each call is an operation."""
    jt = [field(v) for v in row]
    t0 = run.start()
    try:
        model, extdeg = census.class_model(field, jt)
    except ModuliError as exc:
        run.call("class_model", t0, ok=False, label=label)
        run.failures.append((",".join(map(str, row)), label,
                             type(exc).__name__))
        return
    run.call("class_model", t0, label=label)
    run.extra["ext_degree.%d.count" % extdeg] += 1
    with tracer.paused():
        run.check(detected == [label], "%s detected as %s" % (row, detected))
        run.check(model.field == field, "%s model not over F_p" % (row,))
        run.check(forms.disc_resultant(model), "%s model singular" % (row,))
        run.check(_wps_same(field, covariants.shioda(model), jt),
                  "%s model invariants differ" % (row,))
    if not with_iso:
        return
    with tracer.paused():
        mat = _random_invertible(rng, field)
        image = forms.gl2_act(mat, model)
    t0 = run.start()
    pair = census.find_isomorphism(model, image)
    run.call("find_isomorphism", t0, ok=pair is not None)
    with tracer.paused():
        if pair is None:
            run.errors.append("%s no isomorphism to a GL2 image" % (row,))
        else:
            m2, e = pair
            big = m2.field
            run.check(forms.gl2_act(m2, model.to_field(big))
                      == image.to_field(big).scale(e),
                      "%s isomorphism does not verify" % (row,))


def _wps_same(field, u, v):
    return wps_equal(WeightedPoint(field, SHIODA_WEIGHTS, u),
                     WeightedPoint(field, SHIODA_WEIGHTS, v))


# ---------------------------------------------------------------------------
# rational_q


def _packaged_syzygies():
    """The syzygy blocks shipped with the package, read from the data
    directory directly (the private cache may hold a derived copy)."""
    path = os.path.join(store.data_dir(), store.artifact_filename(_SYZYGY_ID))
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    out = {}
    for line in lines[1:]:
        name, _, payload = line.partition(" | ")
        out[name.strip()] = payload
    return out


def _sha(poly):
    return hashlib.sha256(poly.serialize().encode()).hexdigest()[:16]


def _random_rational_octic(rng):
    while True:
        f = BinaryForm(QQ, 8, [rng.randint(-20, 20) for _ in range(9)])
        if forms.disc_resultant(f):
            return f


def rational_iteration(run, seed, it, tracer):
    rng = _rng(seed, "rational", it)
    _derive(run, rng)
    for ident in covariants.INVARIANT_IDS:
        _express(run, rng, ident)
    for _ in range(RECONSTRUCTIONS):
        with tracer.paused():
            f = _random_rational_octic(rng)
        _reconstruct(run, tracer, f)


def _derive(run, rng):
    dseed = rng.randrange(1 << 32)
    t0 = run.start()
    try:
        syz = covariants.derive_syzygies(force=True, seed=dseed)
    except ModuliError as exc:
        run.call("derive_syzygies", t0, ok=False)
        run.failures.append(("derive seed %d" % dseed, "syzygies",
                             type(exc).__name__))
    else:
        run.call("derive_syzygies", t0)
        same = {name: JPolynomial.deserialize(payload) == syz.blocks[name]
                for name, payload in _packaged_syzygies().items()}
        run.check(len(same) == 22 and all(same.values()),
                  "derived syzygies differ from the packaged blocks "
                  "(seed %d)" % dseed)
        written = os.path.join(store.cache_dir(),
                               store.artifact_filename(_SYZYGY_ID))
        run.check(os.path.exists(written), "no syzygy artifact written")


def _express(run, rng, ident):
    degree = covariants.catalogue_degree_order(ident)[0]
    eseed = rng.randrange(1 << 32)

    def program(f):
        return covariants.covariant_eval(ident, f).coeffs[0]

    t0 = run.start()
    try:
        res = covariants.express_in_J(program, degree, seed=eseed)
    except ModuliError as exc:
        run.call("express_in_J", t0, ok=False)
        run.failures.append(("%s seed %d" % (ident, eseed), "express",
                             type(exc).__name__))
        return
    run.call("express_in_J", t0)
    run.check(res.nullity == 0, "%s nullity %d" % (ident, res.nullity))
    run.check(_sha(res.polynomial) == EXPRESS_SHA[ident],
              "%s interpolant differs (seed %d)" % (ident, eseed))


def _reconstruct(run, tracer, f):
    t0 = run.start()
    try:
        jt = covariants.shioda(f)
        octic = reconstruct.reconstruct_generic(QQ, jt)
    except ModuliError as exc:
        run.call("reconstruct_generic", t0, ok=False)
        run.failures.append((",".join(map(str, f.coeffs)), "reconstruct",
                             type(exc).__name__))
        return
    run.call("reconstruct_generic", t0)
    with tracer.paused():
        wf = octic.field
        run.check(wps_equal(
            WeightedPoint(wf, SHIODA_WEIGHTS, covariants.shioda(octic)),
            WeightedPoint(wf, SHIODA_WEIGHTS, [wf(Fraction(v)) for v in jt])),
            "reconstruction of %s does not round-trip" % (f.coeffs,))
