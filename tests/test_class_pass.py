"""One level-chain pass per class over F_p: the calls that the benchmark's
models_p11 workload counts, and an oracle for class_model on classes of
every stratum at p = 11 and 13 (labels against classify_rows, models
against the field-element path), with other walk orders, a supplied
conic point and at primes on both sides of the int64/object switch.
"""

import functools
import random
import zlib

import numpy as np
import pytest

from octicmoduli import census
from octicmoduli.census_fast import classify_rows, moduli_rows, strata_labels
from octicmoduli.covariants import shioda
from octicmoduli.errors import AllDeterminantsVanish
from octicmoduli.fields import ExtField, PrimeField
from octicmoduli.forms import BinaryForm, disc_resultant
from octicmoduli.jpoly import PolySet, _Chain
from octicmoduli.reconstruct import (
    QUARTIC_MULTISETS, TRIPLES_19, TRIPLES_C4, conic_matrix,
    conic_parametrize, conic_point, conic_quartic_models, r_polynomial,
    reconstruct_generic, substitute_quartic,
)
from octicmoduli.strata import detect_group, reconstruct_stratum
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_equal

#: the strata of dimension 0 and 1: every class of them is checked
DIM01 = ("C2xS4", "V8", "U6", "C14", "C2xD8", "D12", "C2xC4")

#: the walk indices whose triples' models ship with the package; a walk
#: to TRIPLES_19[4] would derive its models first, for minutes
SHIPPED = (0, 1, 2, 3, 5)

#: walk orders other than the default, each putting a later triple first
ORDERS = ([TRIPLES_19[3], TRIPLES_19[0]], [TRIPLES_19[5], TRIPLES_19[1]])


def _walk_index(p, rows):
    """Per row, the index in TRIPLES_19 of the first triple whose R is
    nonzero there (len(TRIPLES_19) when none is)."""
    out = np.full(rows.shape[0], len(TRIPLES_19))
    left = np.arange(rows.shape[0])
    for k, triple in enumerate(TRIPLES_19):
        r = PolySet([r_polynomial(triple)]).evaluate_mod(rows[left], p)[:, 0]
        out[left[r != 0]] = k
        left = left[r == 0]
        if not left.size:
            break
    return out


@functools.cache
def _classes(p):
    """(label, row, walk index or None) of every class of dimension 0
    and 1, four seeded classes each of C2p3, C4 and D4, one seeded C2
    class for each index in SHIPPED at which its walk stops, and one
    more whose walk stops at 0."""
    field = PrimeField(p)
    rows = moduli_rows(field)
    names = np.array(strata_labels())[classify_rows(field, rows)]
    seed = zlib.crc32(b"class pass %d" % p)
    print(p, "seed", seed)
    rng = random.Random(seed)
    picked = [(i, None) for i in np.flatnonzero(np.isin(names, DIM01))]
    for label in ("C2p3", "C4", "D4"):
        picked += [(i, None) for i in
                   rng.sample(list(np.flatnonzero(names == label)), 4)]
    c2 = np.flatnonzero(names == "C2")
    walk = _walk_index(p, rows[c2])
    picked += [(c2[rng.choice(list(np.flatnonzero(walk == k)))], k)
               for k in SHIPPED]
    # and one whose walk stops at [0] but whose R of [3] vanishes, so
    # that ORDERS[0] reads R of [3] and the models of [0] from the pass
    first = c2[walk == 0]
    r3 = PolySet([r_polynomial(TRIPLES_19[3])]).evaluate_mod(rows[first], p)
    picked.append((rng.choice(list(first[r3[:, 0] == 0])), 0))
    return [(str(names[i]), tuple(int(v) for v in rows[i]), k)
            for i, k in picked]


def _element_octic(field, jt, order, hint=None):
    """reconstruct_generic's octic over F_p by the field-element path:
    R and the 21 values by JPolynomial.evaluate on elements of F_{p^2},
    then conic_point, conic_parametrize and substitute_quartic on
    elements of F_p.  None when every R of order vanishes."""
    ext = ExtField(field.p, 2)
    jext = [ext(v.value) for v in jt]
    chosen = next((tuple(t) for t in order
                   if r_polynomial(tuple(t)).evaluate(ext, jext)), None)
    if chosen is None:
        return None
    values = []
    for v in conic_quartic_models(chosen).polys.at(ext, jext):
        assert not any(v.coeffs[1:])
        values.append(field(v.coeffs[0]))
    A = conic_matrix(values)
    _, point = conic_point(field, A, supplied=hint)
    return substitute_quartic(field, dict(zip(QUARTIC_MULTISETS, values[6:])),
                              conic_parametrize(field, A, point))


def _reference(field, label, jt):
    """class_model's (model, extension degree) by the field-element path:
    _element_octic for C2 and C4, the closed form and descent otherwise,
    from a list of field elements rather than a checked point."""
    if label in ("C2", "C4"):
        order = TRIPLES_C4 if label == "C4" else TRIPLES_19
        return _element_octic(field, jt, order), 1
    model = reconstruct_stratum(label, field, list(jt))
    k = model.field.k
    return (census.descend(model, field) if k > 1 else model), k


def _tap(monkeypatch):
    """Counts of census.detect_group calls (and their labels) and of
    _Chain.values calls, as the benchmark's tap counts detect_group."""
    calls = {"detect": [], "values": 0}
    detect, values = census.detect_group, _Chain.values

    def tap_detect(*args, **kwargs):
        label = detect(*args, **kwargs)
        calls["detect"].append(label)
        return label

    def tap_values(self, xs):
        calls["values"] += 1
        return values(self, xs)

    monkeypatch.setattr(census, "detect_group", tap_detect)
    monkeypatch.setattr(_Chain, "values", tap_values)
    return calls


def test_a_generic_class_is_one_detect_call_and_one_chain_pass(monkeypatch):
    """A C2 class at p = 11 whose walk stops at TRIPLES_19[0]: class_model
    with no stratum calls census.detect_group once and evaluates every
    J-polynomial it reads in one level-chain pass (strata._class_set);
    with the stratum given, in one pass of reconstruct.walk_set.  A walk
    that stops at a later triple adds one pass, for that triple's
    models."""
    field = PrimeField(11)
    by_walk = {k: [field(v) for v in row]
               for label, row, k in _classes(11) if label == "C2"}
    for jt in by_walk.values():
        census.class_model(field, jt)       # chains built outside the count
    calls = _tap(monkeypatch)
    for k, jt in sorted(by_walk.items()):
        for stratum, detected in ((None, ["C2"]), ("C2", [])):
            calls["detect"].clear()
            calls["values"] = 0
            census.class_model(field, jt, stratum)
            assert calls == {"detect": detected,
                             "values": 1 if k == 0 else 2}, (k, stratum)


@pytest.mark.parametrize("p", [11, 13])
def test_class_model_matches_classify_rows_and_the_element_path(
        p, monkeypatch):
    """Every class of dimension 0 and 1 and seeded C2p3, C4, D4 and C2
    classes (walks stopping at TRIPLES_19 indices 0, 1, 2, 3 and 5):
    class_model's one detect_group call gives the classify_rows label,
    its model and extension degree are those of the field-element path,
    and the model's invariants, computed on elements of F_{p^2}, are the
    class."""
    field, ext = PrimeField(p), ExtField(p, 2)
    calls = _tap(monkeypatch)
    for label, row, _ in _classes(p):
        jt = [field(v) for v in row]
        calls["detect"].clear()
        model, extdeg = census.class_model(field, jt)
        assert calls["detect"] == [label], row
        assert (model, extdeg) == _reference(field, label, jt), row
        assert wps_equal(
            WeightedPoint(ext, SHIODA_WEIGHTS, shioda(model.to_field(ext))),
            WeightedPoint(ext, SHIODA_WEIGHTS, [ext(v) for v in row]))


@pytest.mark.parametrize("p", [11, 13])
def test_other_walk_orders_read_the_class_pass(p):
    """At the checked point of a C2 class that detect_group has
    evaluated, reconstruct_generic with an order that puts a later triple
    first reads R from the pass and the models of TRIPLES_19[0] from it
    or the chosen triple's from their own chain: the field-element path's
    octic, or AllDeterminantsVanish with it."""
    field = PrimeField(p)
    chosen = set()
    for label, row, _ in _classes(p):
        if label != "C2":
            continue
        for order in ORDERS:
            point = WeightedPoint(field, SHIODA_WEIGHTS, row)
            assert detect_group(field, point) == "C2"
            assert point.jvalues is not None
            want = _element_octic(field, point.coords, order)
            if want is None:
                with pytest.raises(AllDeterminantsVanish):
                    reconstruct_generic(field, point, triple_order=order)
                continue
            assert reconstruct_generic(field, point,
                                       triple_order=order) == want, row
            chosen.add(next(tuple(t) for t in order if r_polynomial(
                tuple(t)).evaluate(field, point.coords)))
    assert {TRIPLES_19[0], TRIPLES_19[3]} <= chosen


def test_a_supplied_point_and_order_on_the_class_pass():
    """reconstruct --triple-order C5_2,C6_2,C7_2 --point 1,0,1 on the
    worked example over F_11, as a list and as a point that detect_group
    has evaluated: the field-element path's octic."""
    field = PrimeField(11)
    jt, order, hint = [1, 0, 0, 0, 0, 0, 8, 2, 7], [TRIPLES_19[0]], (1, 0, 1)
    point = WeightedPoint(field, SHIODA_WEIGHTS, jt)
    detect_group(field, point)
    want = _element_octic(field, point.coords, order, hint)
    assert [c.value for c in want.coeffs] == [8, 4, 2, 3, 8, 9, 9, 7, 2]
    for tup in (jt, point):
        assert reconstruct_generic(field, tup, triple_order=order,
                                   conic_point_hint=hint) == want


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1],
                         ids=["int64", "object"])
def test_class_model_at_a_large_prime(p, monkeypatch):
    """class_model with no stratum at the largest primes on either side
    of the level chain's int64/object switch: a seeded generic class is
    detected as C2 once, and its model is the field-element path's."""
    field = PrimeField(p)
    rng = random.Random(zlib.crc32(b"class pass large %d" % p))
    f = BinaryForm(field, 8, [rng.randrange(p) for _ in range(9)])
    assert disc_resultant(f)
    jt = shioda(f)
    calls = _tap(monkeypatch)
    model, extdeg = census.class_model(field, jt)
    assert calls["detect"] == ["C2"] and extdeg == 1
    assert model == _element_octic(field, jt, TRIPLES_19)
