"""The vectorized census kernel: the memory guard and its budget, output
pins and stratum counts at p = 11, 13 and 17, pins of the per-class
models at 11 (every C4 class among them), models of sampled Klein-four
classes at 11 and 13 and their descent's normalizer twists against root
matching, sampled oracles built from the scalar solvers, the J8 quintic
and the detection cascade, the arithmetic reduced once at p = 127, the
table-driven normalizer on every support, the degenerate (J9, J10)
solver against a scan of the plane, and the batch J-polynomial
evaluator against the level chain, with its table bound."""

import hashlib
import random
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from octicmoduli import census, census_fast
from octicmoduli.census import (
    _normalizer_twists, _root_matching_twists, class_model, expected_counts,
    run_census,
)
from octicmoduli.census_fast import (
    classify_rows, moduli_rows, normalize_rows, strata_labels,
)
from octicmoduli.covariants import (
    SyzygyCoefficients, _relation_values, derive_syzygies, discriminant_J,
    discriminant_poly, has_invariants, j8_candidates, j8_determinant,
    j8_quintic, j9_j10_closed_form, shioda, solve_j9_j10,
)
from octicmoduli.fields import MAX_LOG_TABLE, PrimeField
from octicmoduli.forms import (
    BinaryForm, disc_resultant, embed_field, gl2_act,
    roots_in_splitting_field,
)
from octicmoduli.jpoly import EVAL_ROWS, JPolynomial, PolySet
from octicmoduli.reconstruct import TRIPLES_19, r_polynomial
from octicmoduli.strata import (
    detect_group, reconstruct_stratum, stratum_systems,
)
from octicmoduli.wps import SHIODA_WEIGHTS, WeightedPoint, wps_normalize

BLOCK_NAMES = SyzygyCoefficients.BLOCK_NAMES

#: sha256 prefixes of moduli_rows(PrimeField(p)).astype(int64).tobytes()
ROWS_SHA = {11: "423d80cbdd08", 13: "4c617579dd32", 17: "328eb406b81d"}


@pytest.fixture(scope="module")
def rows_p11():
    return moduli_rows(PrimeField(11))


@pytest.fixture(scope="module")
def labels_p11(rows_p11):
    return classify_rows(PrimeField(11), rows_p11)


@pytest.fixture(scope="module")
def rows_p13():
    return moduli_rows(PrimeField(13))


def _check_counts(p, labels):
    counts = {name: int((labels == k).sum())
              for k, name in enumerate(strata_labels())}
    assert counts == expected_counts(p)


def _check_pins(p, rows, labels):
    digest = hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest()
    assert digest[:12] == ROWS_SHA[p]
    _check_counts(p, labels)


def test_memory_guard_bounds_the_whole_census(monkeypatch):
    """On a machine with 7.8 GiB, p = 37 (69.3M classes, about 8.3 GiB)
    is refused before anything is allocated; p = 11, 29 and 31 pass the
    guard.  With memory to spare, a prime whose row keys would overflow
    int64 is refused just as early."""
    def physical(gib):
        pages = int(gib * 2 ** 30) // 4096
        monkeypatch.setattr(census_fast.os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name])

    def started(p):
        raise AssertionError("the census at p = %d started" % p)
    # a guard that let p = 37 through fails here instead of running
    monkeypatch.setattr(census_fast, "_ModCtx", started)
    physical(7.8)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="physical memory is 7.8 GiB"):
        moduli_rows(PrimeField(37))
    assert time.perf_counter() - start < 1
    for p in (11, 29, 31):
        census_fast._check_memory(p)
    physical(2 ** 20)
    with pytest.raises(ValueError, match="at most 127"):
        moduli_rows(PrimeField(131))


@pytest.mark.slow
def test_census_memory_stays_within_bytes_per_class():
    """moduli_rows and classify_rows at p = 13 allocate at most
    BYTES_PER_CLASS a class at their peak (tracemalloc), so the budget of
    the memory guard holds for the arrays the census makes."""
    F = PrimeField(13)
    tracemalloc.start()
    try:
        classify_rows(F, moduli_rows(F))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print("peak %d bytes, %.1f a class" % (peak, peak / 13 ** 5))
    assert peak <= census_fast.BYTES_PER_CLASS * 13 ** 5


def test_moduli_rows_pin_p11(rows_p11, labels_p11):
    _check_pins(11, rows_p11, labels_p11)


@pytest.mark.slow
def test_moduli_rows_pin_p13(rows_p13):
    _check_pins(13, rows_p13, classify_rows(PrimeField(13), rows_p13))


def _d4_rows(rows, labels, name, n=None):
    """n seeded Klein-four rows, or all of them in a seeded order."""
    d4 = list(rows[labels == strata_labels().index("D4")])
    seed = zlib.crc32(name.encode())
    print("seed", seed)
    return random.Random(seed).sample(d4, n or len(d4))


def _check_d4_models(monkeypatch, p, rows):
    """Each row gets a smooth F_p model with its invariants, and descent
    never builds a splitting field: the closed forms over F_{p^2} and
    F_{p^4} descend through their normalizer twists.  A twist proves the
    class rational, so descent computes no invariants over an extension
    field."""
    F = PrimeField(p)
    calls = []
    monkeypatch.setattr(census, "roots_in_splitting_field",
                        lambda f: calls.append(f))
    real_shioda = census.shioda
    monkeypatch.setattr(census, "shioda", lambda f: calls.append(f)
                        if f.field.k > 1 else real_shioda(f))
    degrees = set()
    for row in rows:
        jt = [F(int(v)) for v in row]
        model, extdeg = class_model(F, jt, "D4")
        assert model.field == F and disc_resultant(model)
        assert has_invariants(model, jt)
        degrees.add(extdeg)
    assert not calls
    assert degrees == {1, 2, 4}


@pytest.mark.slow
def test_class_model_covers_sampled_d4_classes_p13(rows_p13, monkeypatch):
    """Every sampled Klein-four class at p = 13 gets a smooth F_13 model
    with its invariants; some need descent from F_{13^2} or F_{13^4}."""
    rows = _d4_rows(rows_p13, classify_rows(PrimeField(13), rows_p13),
                    "D4 descent p13", 30)
    _check_d4_models(monkeypatch, 13, rows)


def test_class_model_covers_sampled_d4_classes_p11(rows_p11, labels_p11,
                                                   monkeypatch):
    """The same at p = 11."""
    _check_d4_models(monkeypatch, 11,
                     _d4_rows(rows_p11, labels_p11, "D4 descent p11", 30))


def _projective_key(mat, emb):
    """The entries of mat, embedded by emb and divided by the first
    nonzero one: equal keys are equal matrices up to scalars."""
    entries = [emb(x) for x in (mat.a, mat.b, mat.c, mat.d)]
    lead = next(x for x in entries if x)
    return tuple((x / lead).coeffs for x in entries)


@pytest.mark.parametrize("p", [11, 13])
def test_normalizer_twists_are_the_root_matching_twists(p, rows_p11,
                                                        labels_p11, rows_p13):
    """On seeded Klein-four classes whose closed form lies over F_{p^2} or
    F_{p^4}, the normalizer candidates descend takes are, up to scalars,
    exactly the Frobenius twisting matrices root matching finds over the
    splitting field: a matrix and its product with x -> -x."""
    F = PrimeField(p)
    rows, labels = ((rows_p11, labels_p11) if p == 11
                    else (rows_p13, classify_rows(F, rows_p13)))
    need = {2: 2, 4: 2}
    for row in _d4_rows(rows, labels, "normalizer twists %d" % p):
        if not any(need.values()):
            break
        f = reconstruct_stratum("D4", F, [F(int(v)) for v in row])
        if not need.get(f.field.k):
            continue
        need[f.field.k] -= 1
        frob = BinaryForm(f.field, 8, [f.field.frobenius(c)
                                       for c in f.coeffs])
        twists = _normalizer_twists(f)
        for mat in twists:
            assert gl2_act(mat, f) == frob.scale(f.coeffs[0] / frob.coeffs[0])
        big, _, found = _root_matching_twists(f)
        emb = embed_field(f.field, big)
        keys = {_projective_key(m, emb) for m in twists}
        assert len(keys) == len(twists) == 2
        assert keys == {_projective_key(m, big) for m in found}
    assert not any(need.values())


@pytest.mark.slow
def test_classify_rows_counts_p17():
    rows = moduli_rows(PrimeField(17))
    _check_pins(17, rows, classify_rows(PrimeField(17), rows))


def _random_prefix(rng, p, sparse):
    """A random (j2, ..., j7); in a sparse one each coordinate is zero
    with probability 2/3."""
    return [rng.randrange(p) if not sparse or rng.randrange(3) == 0 else 0
            for _ in range(6)]


@pytest.mark.parametrize("p, n_prefixes", [(11, 64), (1048573, 6)])
def test_j8_determinant_is_minus_the_quintic(p, n_prefixes):
    """At every x in F_p, the determinant moduli_rows tests on batch block
    values equals -j8_quintic(x) evaluated by JPolynomial.evaluate."""
    F = PrimeField(p)
    syz = derive_syzygies()
    quintic = j8_quintic()
    seed = zlib.crc32(b"j8 determinant %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    prefixes = [[0] * 6] + [_random_prefix(rng, p, sparse=i % 2 == 0)
                            for i in range(n_prefixes - 1)]
    rows = np.array(prefixes, dtype=np.int64)
    bvals = PolySet([syz[name] for name, _ in BLOCK_NAMES]).evaluate_mod(
        rows, p)
    x = np.arange(p, dtype=np.int64)
    for prefix, row in zip(prefixes, bvals):
        v = {name: row[k:k + 1] for k, (name, _) in enumerate(BLOCK_NAMES)}
        got = j8_determinant(v, x, lambda a: a % p)
        jt = [F(c) for c in prefix] + [F.zero] * 3
        want = np.zeros(p, dtype=np.int64)
        for c in reversed(quintic):
            want = (want * x + c.evaluate(F, jt).value) % p
        assert np.array_equal(got, -want % p), prefix


@pytest.mark.parametrize("p", [11, 13, 127])
def test_j8_values_interpolate_the_determinant(p):
    """The J8 determinant's values at x = 0..5, extended to all of F_p by
    the Lagrange basis, equal j8_determinant evaluated at every x, on
    seeded prefixes."""
    seed = zlib.crc32(b"j8 values %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    rows = np.array([[0] * 6] + [_random_prefix(rng, p, sparse=i % 2 == 0)
                                 for i in range(63)], dtype=np.int64)
    v = SyzygyCoefficients.named(
        derive_syzygies().block_set.evaluate_mod(rows, p).T)
    want = np.column_stack([j8_determinant(v, x, lambda a: a % p)
                            for x in range(p)])
    assert np.array_equal(census_fast._j8_values(v, p), want)


@pytest.mark.parametrize("p", [11, 127])
def test_float_mod_is_exact_on_every_lagrange_product(p):
    """_float_mod equals integer % on every value _j8_values can reduce:
    0 .. 6 (p - 1)^2, six products of two residues."""
    y = np.arange(6 * (p - 1) ** 2 + 1, dtype=np.int64)
    got = census_fast._float_mod(y.astype(np.float64), p)
    assert np.array_equal(got.astype(np.int64), y % p)
    assert np.array_equal(got, np.floor(got))


class _Magnitude(int):
    """A bound on the absolute value of an integer expression: a sum or a
    difference of bounds is their sum, a product their product."""

    def __add__(self, other):
        return _Magnitude(int(self) + abs(int(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Magnitude(int(self) * abs(int(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __pow__(self, e):
        return _Magnitude(int(self) ** e)


def test_reduce_once_is_exact_at_the_largest_census_prime():
    """At p = MAX_FAST_PRIME = 127, j8_determinant at x = 0..5 and
    _relation_values, computed with no reduce and one % p at the end,
    equal the values reduced mod p at every step: on block values and
    rows whose every residue is p - 1, and on seeded random ones.  The
    bounds the census relies on hold for every input: no intermediate
    of the determinant reaches 2^42, and no relation value 2^31."""
    p = census_fast.MAX_FAST_PRIME
    names = [name for name, _ in BLOCK_NAMES]
    seed = zlib.crc32(b"reduce once %d" % p)
    print("seed", seed)
    rng = np.random.default_rng(seed)
    blocks = np.vstack([np.full((1, len(names)), p - 1),
                        rng.integers(0, p, (255, len(names)))])
    rows = np.vstack([np.full((1, 9), p - 1), rng.integers(0, p, (255, 9))])
    v = SyzygyCoefficients.named(blocks.T)
    x = np.arange(6, dtype=np.int64)
    wide = {name: col[:, None] for name, col in v.items()}
    assert np.array_equal(j8_determinant(wide, x) % p,
                          j8_determinant(wide, x, lambda a: a % p))
    assert np.array_equal(np.array(_relation_values(rows.T, v)) % p,
                          np.array(_relation_values(rows.T, v,
                                                    lambda a: a % p)))

    seen = []

    def track(a):
        seen.append(int(a))
        return a
    top = {name: _Magnitude(p - 1) for name in names}
    j8_determinant(top, _Magnitude(5), track)
    assert max(seen) < 2 ** 42
    assert max(_relation_values([_Magnitude(p - 1)] * 9, top)) < 2 ** 31


@pytest.mark.parametrize("p", [11, 13])
def test_normalize_rows_on_every_support_pattern(p):
    """normalize_rows, read from its tables by support pattern, equals
    wps_normalize on seeded nonzero values on every one of the 511
    nonzero supports, and normalizing its output again changes nothing."""
    F = PrimeField(p)
    seed = zlib.crc32(b"normalize patterns %d" % p)
    print("seed", seed)
    rng = np.random.default_rng(seed)
    support = (np.arange(1, 512)[:, None] >> np.arange(9)) & 1
    rows = support * rng.integers(1, p, (4, 511, 9))
    rows = rows.reshape(-1, 9)
    ctx = census_fast._ModCtx(p)
    fast = normalize_rows(ctx, rows)
    for row, out in zip(rows.tolist(), fast.tolist()):
        pure = wps_normalize(WeightedPoint(F, SHIODA_WEIGHTS, row))
        assert [c.value for c in pure.coords] == out, row
    assert np.array_equal(normalize_rows(ctx, fast), fast)


def _degenerate_pairs(rng, p, n):
    """n pairs of R1 and R2 coefficients (q, a7, a6), (r, s, b7) of rank at
    most 1, in turn rank 0 inconsistent, rank 0 consistent, rank 1
    inconsistent and rank 1 consistent: the rows of a rank-1 pair are
    lam[0] u and lam[1] u.  Each coordinate drawn is zero one time in
    three, so either form may be the zero one."""
    def draw(nonzero=False):
        while True:
            c = [int(c) if rng.random() < 2 / 3 else 0
                 for c in rng.integers(1, p, 2)]
            if any(c) or not nonzero:
                return c

    pairs = []
    for i in range(n):
        rank, consistent = divmod(i % 4, 2)
        u, lam = (draw(True), draw(True)) if rank else ([0, 0], [0, 0])
        while True:
            c = draw()
            if consistent:
                c = [lam[0] * c[0] % p, lam[1] * c[0] % p]
            if ((c[0] * lam[1] - c[1] * lam[0]) % p == 0 if rank
                    else not any(c)) == bool(consistent):
                break
        pairs.append((c[0], lam[0] * u[0] % p, lam[0] * u[1] % p,
                      c[1], lam[1] * u[0] % p, lam[1] * u[1] % p))
    return pairs


@pytest.mark.parametrize("p", [11, 127])
def test_r1_r2_zeros_equal_a_scan_of_the_plane(p):
    """_r1_r2_zeros gives exactly the points of F_p^2 where R1 and R2
    vanish, found by trying all p^2 of them, on seeded degenerate pairs:
    rank 0 and rank 1, consistent and inconsistent."""
    seed = zlib.crc32(b"r1 r2 zeros %d" % p)
    print("seed", seed)
    rng = np.random.default_rng(seed)
    pairs = np.array(_degenerate_pairs(rng, p, 48), dtype=np.int64)
    q, a7, a6, r, s, b7 = pairs.T
    j8 = rng.integers(0, p, pairs.shape[0])
    # block values with r1_r2_linear(v, j8) = ((q, a7, a6), (r, s, b7))
    v = {"A6": a6, "A7": a7, "A8": np.zeros_like(j8),
         "A16": (q - j8 * j8) % p, "B7": b7, "B8": (s - j8) % p,
         "B9": np.zeros_like(j8), "B17": r}
    got = set(zip(*(a.tolist() for a in census_fast._r1_r2_zeros(
        census_fast._ModCtx(p), v, j8))))
    j9, j10 = (a.ravel() for a in np.indices((p, p)))
    want = set()
    for k, (q, a7, a6, r, s, b7) in enumerate(pairs.tolist()):
        on = ((q + a7 * j9 + a6 * j10) % p == 0) & (
            (r + s * j9 + b7 * j10) % p == 0)
        want |= {(k, a, b) for a, b in zip(j9[on].tolist(), j10[on].tolist())}
    assert got == want
    # the consistent pairs, and only they, have zeros
    assert {k for k, _, _ in want} == set(range(1, pairs.shape[0], 2))


@pytest.mark.parametrize("p", [11, 1048573])
def test_relation_values_on_columns_equal_field_values(p):
    """_relation_values on the int64 columns of rows of residues, with
    reduce = mod p, equals the five relation values over F_p row by row:
    zero on the invariants of seeded octics, not all zero on the same
    rows with J10 moved and on random rows."""
    F = PrimeField(p)
    syz = derive_syzygies()
    seed = zlib.crc32(b"relation values %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    on = []
    while len(on) < 8:
        jt = shioda(BinaryForm(F, 8, [rng.randrange(p) for _ in range(9)]))
        if any(jt):
            on.append([c.value for c in jt])
    off = [row[:8] + [(row[8] + 1) % p] for row in on]
    off += [[rng.randrange(p) for _ in range(9)] for _ in range(8)]
    rows = np.array(on + off, dtype=np.int64)
    bvals = syz.block_set.evaluate_mod(rows[:, :6], p)
    got = np.array(_relation_values(
        rows.T, SyzygyCoefficients.named(bvals.T), lambda a: a % p)).T
    want = [[r.value for r in syz.relations_residuals(F, row)]
            for row in rows.tolist()]
    assert np.array_equal(got, np.array(want))
    assert not got[:len(on)].any()
    assert got[len(on):].any(axis=1).all()


def test_classify_rows_matches_detect_group(rows_p11, labels_p11):
    """Every class of the dimension-0 and -1 strata, and 20 seeded classes
    each of C2p3, C4, D4 and C2, get the label of the scalar cascade."""
    F = PrimeField(11)
    names = strata_labels()
    small = np.nonzero(labels_p11 < names.index("C2p3"))[0]
    assert small.size == 28
    picked = list(small)
    for name in ("C2p3", "C4", "D4", "C2"):
        seed = zlib.crc32(name.encode())
        print(name, "seed", seed)
        rows = np.nonzero(labels_p11 == names.index(name))[0]
        picked += random.Random(seed).sample(list(rows), 20)
    for i in picked:
        row = [F(int(v)) for v in rows_p11[i]]
        assert detect_group(F, row) == names[labels_p11[i]], row


def _detect_each(p, rows):
    F = PrimeField(p)
    return [detect_group(F, [F(int(v)) for v in row]) for row in rows]


def test_detect_group_matches_classify_rows_off_the_generic_stratum(
        rows_p11, labels_p11):
    """detect_group, which evaluates every stratum system at one point in
    one pass, against classify_rows, which evaluates them on arrays of
    rows one equation at a time: equal labels on every class of F_11
    outside C2."""
    names = strata_labels()
    picked = np.nonzero(labels_p11 != names.index("C2"))[0]
    assert picked.size == 1322
    assert _detect_each(11, rows_p11[picked]) == [
        names[k] for k in labels_p11[picked]]


@pytest.mark.parametrize("p", [11, 13])
def test_detect_group_matches_classify_rows_on_seeded_classes(
        p, rows_p11, rows_p13):
    """The same comparison on 2,000 seeded classes of F_p."""
    rows = {11: rows_p11, 13: rows_p13}[p]
    seed = zlib.crc32(b"detect_group against classify_rows %d" % p)
    print("seed", seed)
    picked = rows[random.Random(seed).sample(range(len(rows)), 2000)]
    labels = classify_rows(PrimeField(p), picked)
    assert _detect_each(p, picked) == [strata_labels()[k] for k in labels]


#: sha256 prefix of the class_model lines test_class_model_pin_p11 hashes
MODELS_SHA = "0b11a3bb0c06"


def test_class_model_pin_p11(rows_p11, labels_p11):
    """The F_11 models (coefficients and extension degree) of every class
    of the dimension-0 and -1 strata and of 3 seeded classes each of
    C2p3, C4, D4 and C2: this pins the square-root choice, the root
    order and Galois descent."""
    F = PrimeField(11)
    names = strata_labels()
    picked = list(np.nonzero(labels_p11 < names.index("C2p3"))[0])
    for name in ("C2p3", "C4", "D4", "C2"):
        seed = zlib.crc32(b"class_model pin " + name.encode())
        print(name, "seed", seed)
        rows = np.nonzero(labels_p11 == names.index(name))[0]
        picked += random.Random(seed).sample(list(rows), 3)
    digest = hashlib.sha256()
    for i in picked:
        model, extdeg = class_model(F, [F(int(v)) for v in rows_p11[i]],
                                    names[labels_p11[i]])
        digest.update(("%s; %d\n" % (
            ",".join(str(c.value) for c in model.coeffs), extdeg)).encode())
    assert digest.hexdigest()[:12] == MODELS_SHA


def test_class_model_pin_c4(rows_p11, labels_p11):
    """The F_11 models (coefficients and extension degree) of all 101 C4
    classes at p = 11, which walk TRIPLES_C4 through the conic method."""
    F = PrimeField(11)
    digest, count = hashlib.sha256(), 0
    for i in np.nonzero(labels_p11 == strata_labels().index("C4"))[0]:
        model, extdeg = class_model(F, [F(int(v)) for v in rows_p11[i]],
                                    "C4")
        count += 1
        digest.update(("%s; %d\n" % (
            ",".join(str(c.value) for c in model.coeffs), extdeg)).encode())
    assert count == 101
    assert digest.hexdigest()[:12] == "e1a3a5dce27b"


def test_class_model_pin_c2p3_cubic_extensions(rows_p11, labels_p11):
    """The F_11 models of all 40 C2p3 classes at p = 11 whose cubic has
    no root in F_11: reconstruction moves to F_{11^3}, and the order of
    the cubic's roots there decides the model."""
    F = PrimeField(11)
    digest, count = hashlib.sha256(), 0
    for i in np.nonzero(labels_p11 == strata_labels().index("C2p3"))[0]:
        model, extdeg = class_model(F, [F(int(v)) for v in rows_p11[i]],
                                    "C2p3")
        if extdeg == 3:
            count += 1
            digest.update(("%s; %d\n" % (
                ",".join(str(c.value) for c in model.coeffs),
                extdeg)).encode())
    assert count == 40
    assert digest.hexdigest()[:12] == "52969a6934dd"


#: classes whose closed-form model splits over F_{11^s}: (stratum, class,
#: s); 6 is the largest s of any C2p3 class at p = 11
LARGE_SPLIT = (
    ("C2p3", "0,3,3,6,10,8,4,1,7", 6), ("C2p3", "3,3,10,7,4,10,9,0,5", 6),
    ("D4", "0,0,0,5,5,7,1,10,7", 8), ("D4", "0,2,0,4,0,0,0,0,0", 8),
    ("D4", "0,0,5,5,0,7,9,4,2", 12), ("D4", "0,2,0,4,2,3,5,3,5", 12),
    ("D4", "0,1,1,9,0,8,2,6,8", 24),
)


def test_class_model_pin_large_splitting_fields():
    """The F_11 models (coefficients and extension degree) of C2p3 and D4
    classes whose closed forms split over F_{11^6} to F_{11^24}.  C2p3
    descent root-matches over the splitting field; D4 descent takes its
    twisting matrices from the closed form's own field F_{11^2} or
    F_{11^4} and builds no splitting field."""
    F = PrimeField(11)
    digest = hashlib.sha256()
    for stratum, row, split in LARGE_SPLIT:
        jt = [F(int(v)) for v in row.split(",")]
        assert roots_in_splitting_field(
            reconstruct_stratum(stratum, F, jt))[0].k == split
        model, extdeg = class_model(F, jt, stratum)
        digest.update(("%s; %d\n" % (
            ",".join(str(c.value) for c in model.coeffs), extdeg)).encode())
    assert digest.hexdigest()[:12] == "efe98c437e8a"


#: sha256 prefix of the lines test_class_model_pin_generic hashes
C2_MODELS_SHA = "0b61cc7c7c89"


def _c2_classes(p, rows, labels, counts):
    """Seeded C2 classes at p, counts[k] of them whose triple walk ends
    at TRIPLES_19[k]."""
    seed = zlib.crc32(b"C2 class_model pin %d" % p)
    print(p, "seed", seed)
    rng = random.Random(seed)
    c2 = np.nonzero(labels == strata_labels().index("C2"))[0]
    nonzero = PolySet([r_polynomial(t) for t in TRIPLES_19[:len(counts)]]
                      ).evaluate_mod(rows[c2], p) != 0
    ends = np.where(nonzero.any(axis=1), np.argmax(nonzero, axis=1), -1)
    picked = []
    for k, n in enumerate(counts):
        picked += rng.sample(list(c2[ends == k]), n)
    return picked


def test_class_model_pin_generic(rows_p11, labels_p11, rows_p13):
    """The models (coefficients and extension degree) of 40 seeded C2
    classes at p = 11 and 20 at p = 13, including walks that end at the
    second and third triple: this pins the conic point, the
    parametrization and the quartic substitution."""
    digest = hashlib.sha256()
    for p, rows, labels, counts in (
            (11, rows_p11, labels_p11, (30, 5, 5)),
            (13, rows_p13, classify_rows(PrimeField(13), rows_p13),
             (14, 3, 3))):
        F = PrimeField(p)
        for i in _c2_classes(p, rows, labels, counts):
            model, extdeg = class_model(F, [F(int(v)) for v in rows[i]], "C2")
            digest.update(("%s; %d\n" % (
                ",".join(str(c.value) for c in model.coeffs),
                extdeg)).encode())
    assert digest.hexdigest()[:12] == C2_MODELS_SHA


def test_moduli_rows_agree_with_scalar_solvers(rows_p11):
    """Sampled oracle: every completion the scalar solvers give for a
    random prefix is an output row, and every sampled output row is a
    canonical, nonsingular point on all five relations."""
    F = PrimeField(11)
    syz = derive_syzygies()
    seed = zlib.crc32(b"moduli_rows oracle")
    print("seed", seed)
    rng = random.Random(seed)
    out = {tuple(int(v) for v in row) for row in rows_p11}
    generic = degenerate = 0
    while generic < 30 or degenerate < 3:
        j27 = [F(rng.randrange(11)) for _ in range(6)]
        for j8 in j8_candidates(F, j27):
            delta, _, _ = j9_j10_closed_form(syz.evaluate_blocks(F, j27), j8)
            if delta:
                generic += 1
            else:
                degenerate += 1       # solve_j9_j10 scans all pairs
            for j9, j10 in solve_j9_j10(F, j27 + [j8]):
                jt = j27 + [j8, j9, j10]
                if any(jt) and discriminant_J(F, jt):
                    norm = wps_normalize(WeightedPoint(F, SHIODA_WEIGHTS, jt))
                    assert tuple(c.value for c in norm.coords) in out, jt
    for i in rng.sample(range(len(rows_p11)), 200):
        jt = [F(int(v)) for v in rows_p11[i]]
        pt = WeightedPoint(F, SHIODA_WEIGHTS, jt)
        assert wps_normalize(pt).key() == pt.key()
        assert not any(syz.relations_residuals(F, jt))
        assert discriminant_J(F, jt)


def test_polyset_matches_scalar_evaluation():
    polys = [discriminant_poly()] + stratum_systems()["D4"][:4]
    for p in (11, 1048573):           # a census prime and one near 2^20
        F = PrimeField(p)
        seed = zlib.crc32(b"polyset %d" % p)
        print("seed", seed)
        rng = random.Random(seed)
        rows = np.array([[rng.randrange(p) for _ in range(9)]
                         for _ in range(50)], dtype=np.int64)
        want = [[poly.evaluate(F, [F(int(v)) for v in row]).value
                 for poly in polys] for row in rows]
        assert PolySet(polys).evaluate_mod(rows, p).tolist() == want
    with pytest.raises(ValueError):
        PolySet(polys).evaluate_mod(rows, (1 << 31) - 1)


@pytest.mark.parametrize("p", [11, 13, 127, 1048573])
def test_evaluate_mod_equals_the_level_chain(p):
    """evaluate_mod, by discrete logarithms, equals at_mod, the level
    chain, row by row: on seeded rows (some with zeros), the all-zero row,
    a zero in each coordinate, only J10 nonzero, and on rows given by
    other representatives of the same residues."""
    polys = [discriminant_poly()] + stratum_systems()["D4"][:4]
    seed = zlib.crc32(b"evaluate_mod %d" % p)
    print("seed", seed)
    rng = random.Random(seed)
    full = [[rng.randrange(1, p) for _ in range(9)] for _ in range(9)]
    rows = np.array(
        [[0] * 9, [0] * 8 + [rng.randrange(1, p)]]
        + [row[:i] + [0] + row[i + 1:] for i, row in enumerate(full)]
        + full + [[rng.choice([0, rng.randrange(p)]) for _ in range(9)]
                  for _ in range(40)], dtype=np.int64)
    pset = PolySet(polys)
    want = [pset.at_mod(p, row) for row in rows.tolist()]
    assert pset.evaluate_mod(rows, p).tolist() == want
    assert pset.evaluate_mod(rows - p, p).tolist() == want
    assert pset.evaluate_mod(rows + 3 * p, p).tolist() == want


def test_evaluate_mod_on_prefix_rows_of_any_count():
    """The 22 syzygy blocks on 6-column prefix rows: no row, one row, and
    a count that is not a multiple of EVAL_ROWS, equal the level chain;
    rows shorter than the generators the blocks use are refused."""
    p = 13
    block_set = derive_syzygies().block_set
    rng = random.Random(zlib.crc32(b"evaluate_mod blocks"))
    rows = np.array([[rng.randrange(p) for _ in range(6)]
                     for _ in range(2 * EVAL_ROWS + 37)], dtype=np.int64)
    rows[np.arange(6), np.arange(6)] = 0
    want = np.array([block_set.at_mod(p, row + [0, 0, 0])
                     for row in rows.tolist()], dtype=np.int64)
    for n in (0, 1, EVAL_ROWS, rows.shape[0]):
        got = block_set.evaluate_mod(rows[:n], p)
        assert got.shape == (n, len(BLOCK_NAMES))
        assert (got == want[:n]).all()
    with pytest.raises(ValueError, match="use 6 generators"):
        block_set.evaluate_mod(rows[:, :5], p)


def test_evaluate_mod_refuses_a_table_beyond_the_bound():
    """A plan whose power table would pass MAX_LOG_TABLE, D (p - 2) + 2
    entries for monomials of total degree up to D, is refused before
    anything is allocated: J2 at the least prime above 2^24, and the
    discriminant (D = 7) at the least prime above 2^24 / 7, though it is
    evaluated at p = 1048573.  At 2^31 - 1 the float64 bound refuses
    first."""
    row = np.ones((1, 9), dtype=np.int64)
    for poly, p in ((JPolynomial.generator(2), 16777259),
                    (discriminant_poly(), 2396759)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_LOG_TABLE = %d"
                                                 % MAX_LOG_TABLE):
                PolySet([poly]).evaluate_mod(row, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    with pytest.raises(ValueError, match="overflow the float64"):
        PolySet([JPolynomial.generator(2)]).evaluate_mod(row, (1 << 31) - 1)


def test_census_p11_memory_peak():
    """The tracemalloc peak of run_census(11), once its caches are warm,
    is at most the 15.2 MB it measured when PolySet.evaluate_mod went to
    discrete logarithms and CLASSIFY_ROWS to 16,384; it was 22.3 MB
    before, with monomial_matrix and CLASSIFY_ROWS = 65,536.  Its int64
    rows and labels are 12.9 MB of it."""
    run_census(11)
    tracemalloc.start()
    try:
        run_census(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.2 * 2 ** 20


def test_polyset_values_follow_their_polynomials():
    """Compiled coefficients belong to the PolySet: polynomials created at
    the addresses of freed ones get their own values."""
    row = np.arange(1, 10, dtype=np.int64).reshape(1, 9)
    for w in (2, 3, 2):
        sets = [PolySet([JPolynomial.generator(w)]) for _ in range(1000)]
        assert all(s.evaluate_mod(row, 11)[0, 0] == w - 1 for s in sets)
        del sets
