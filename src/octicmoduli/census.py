"""Full census of genus-3 hyperelliptic curves over F_p: enumeration of
all moduli points, per-stratum counting against the closed formulas, model
reconstruction, and Galois descent of models to the prime field.

Expected counts over F_p (p >= 11): one class per dimension-0 stratum,
p - 3 per dimension-1 stratum, p^2 - 2p + 2 for each of the two
dimension-2 strata, p^3 - 2p^2 + 3 for the Klein-four stratum and
p^5 - p^3 + p - 2 generic classes; the grand total is p^5.  The two
largest formulas are flagged, not hard-failed, on mismatch; the total is a
hard failure.
"""

import contextlib
import functools
import random
import time
from itertools import combinations, permutations
from math import lcm

from . import census_fast
from .covariants import has_invariants, shioda
from .errors import (
    CountMismatch, ExhaustedCandidates, MultipleRoot, NotRationalClass,
    WeightMismatch,
)
from .fields import ExtField, PrimeField, first_nonsquare, norm_solve
from .forms import (
    BinaryForm, Gl2Matrix, disc_resultant, embed_field, gl2_act,
    roots_in_splitting_field,
)
from .strata import detect_group, reconstruct_stratum
from .unipoly import random_element
from .wps import SHIODA_WEIGHTS, WeightedPoint, as_point, wps_normalize


def expected_counts(p):
    return {
        "C2xS4": 1, "V8": 1, "U6": 1, "C14": 1,
        "C2xD8": p - 3, "D12": p - 3, "C2xC4": p - 3,
        "C2p3": p * p - 2 * p + 2, "C4": p * p - 2 * p + 2,
        "D4": p ** 3 - 2 * p ** 2 + 3,
        "C2": p ** 5 - p ** 3 + p - 2,
    }

#: formulas the source labels as unproven; mismatches flag, not fail
UNPROVEN = ("D4", "C2")


# ---------------------------------------------------------------------------
# explicit isomorphisms and descent


def _triple_matrix(field, p1, p2, p3):
    """Matrix sending p1, p2, p3 to (1:0), (0:1), (1:1) projectively."""
    alpha = p1[1] * p3[0] - p1[0] * p3[1]
    beta = p2[1] * p3[0] - p2[0] * p3[1]
    return Gl2Matrix(field,
                     alpha * p2[1], -(alpha * p2[0]),
                     beta * p1[1], -(beta * p1[0]))


def find_isomorphism(f, g):
    """(M, e) with gl2_act(M, f) = e * g, via root-triple matching over
    the splitting field; None when the forms are not equivalent."""
    ext_f, roots_f = roots_in_splitting_field(f)
    ext_g, roots_g = roots_in_splitting_field(g)
    if any(m > 1 for _, m in roots_f) or any(m > 1 for _, m in roots_g):
        raise MultipleRoot("isomorphism search needs simple roots")
    # move everything into one field
    kk = lcm(ext_f.k, ext_g.k)
    big = ext_f if kk == 1 else ExtField(f.field.characteristic, kk)
    emb_f, emb_g = embed_field(ext_f, big), embed_field(ext_g, big)
    rf = [(emb_f(x), emb_f(z)) for (x, z), _ in roots_f]
    rg = [(emb_g(x), emb_g(z)) for (x, z), _ in roots_g]
    fb = f.to_field(big, embed_field(f.field, big))
    gb = g.to_field(big, embed_field(g.field, big))
    return next(_isomorphisms_from_roots(big, fb, gb, rf, rg), None)


def _isomorphisms_from_roots(big, fb, gb, rf, rg):
    """Root-matching search, yielding every verified (M, e); they differ
    by automorphisms of f.  A Mobius map carrying all roots of g onto
    roots of f makes f(Mx) and g share their (simple) root divisor, hence
    be proportional; the scalar is read off at one non-root point.
    M = T_f^-1 T(s) (triple matrices of g's roots s and f's first three)
    is formed only when T(s) sends g's roots onto T_f's images of f's."""
    base_m = _triple_matrix(big, rf[0], rf[1], rf[2]).inverse()
    key = big.element_key
    targets = {None, key(big.zero), key(big.one)}
    targets.update(_frame_keys(key, *_pair_dets(rf), (0, 1, 2)))
    dets, invs = _pair_dets(rg)
    for s in permutations(range(len(rg)), 3):
        if all(k in targets for k in _frame_keys(key, dets, invs, s)):
            mat = base_m * _triple_matrix(big, *(rg[i] for i in s))
            e = _scalar_at_point(big, fb, gb, mat)
            if e is not None:
                yield mat, e


def _pair_dets(roots):
    """D[i][j] = z_i x_j - x_i z_j for the points (x : z) of roots, and
    the inverses of the entries off the diagonal (the roots are simple),
    one inversion per pair."""
    dets = [[ri[1] * rj[0] - ri[0] * rj[1] for rj in roots] for ri in roots]
    invs = [[None] * len(roots) for _ in roots]
    for i, j in combinations(range(len(roots)), 2):
        invs[i][j] = dets[i][j].inverse()
        invs[j][i] = -invs[i][j]            # D[j][i] = -D[i][j]
    return dets, invs


def _frame_keys(key, dets, invs, s):
    """Keys of the images under T(s) of the roots outside the triple s,
    T(s) sending its roots to (1:0), (0:1) and (1:1): the cross-ratios
    D[s1][s3] D[s2][j] / (D[s2][s3] D[s1][j])."""
    s1, s2, s3 = s
    c = dets[s1][s3] * invs[s2][s3]
    return (key(c * dets[s2][j] * invs[s1][j])
            for j in range(len(dets)) if j not in s)


def _scalar_at_point(big, fb, gb, mat):
    """e with f(M x0) = e g(x0) at a point avoiding the roots, plus a
    consistency check at a second point."""
    e = None
    checked = 0
    x = big.one
    z = big.one
    while checked < 2:
        gv = gb.evaluate(x, z)
        if gv:
            ix = mat.a * x + mat.b * z
            iz = mat.c * x + mat.d * z
            fv = fb.evaluate(ix, iz)
            if not fv:
                return None
            r = fv / gv
            if e is None:
                e = r
            elif e != r:
                return None
            checked += 1
        x = x + big.one
    return e


def _frobenius_matrix(m, times=1):
    return Gl2Matrix(m.field, *(m.field.frobenius(x, times)
                                for x in (m.a, m.b, m.c, m.d)))


#: seed of the random matrices descend averages through its cocycle
_DESCENT_SEED = 0x0DE5CE17


def descend(f, base):
    """A base-field model of an octic defined over an extension, given
    that its invariant class is rational over the base prime field.

    A Frobenius twisting matrix M (gl2_act(M, f) = e * f^sigma) has a
    twisted norm C that is an automorphism of f, so some power C^r is
    scalar; C^r is the norm of M over the degree-r extension of M's field.
    There M is rescaled by a norm preimage, a random matrix is averaged
    through the cocycle until invertible, and the transported form is
    normalized to base coefficients.  Matrices with r = 1 are tried first.

    The matrices come from the normalizer of x -> -x over f's own field
    when f is an even octic with c_0 = c_8 (_normalizer_twists: the
    Klein-four closed form); for any other form, or when none of those
    sixteen matrices twists f, from root matching over f's splitting
    field.  Over F_p and its extensions alike, a form whose invariants all
    vanish has no invariant class (WeightMismatch), then a form whose
    class is not rational (NotRationalClass) and a form with a multiple
    root (MultipleRoot) are refused; any other form over F_p is its own
    model.
    """
    if not isinstance(base, PrimeField):
        raise NotRationalClass("descent targets the prime field")
    p = base.p
    if f.field.characteristic != p:
        raise NotRationalClass("the form is not over an extension of F_%d"
                               % p)
    if f.is_zero():
        raise WeightMismatch("the zero form has no invariant class")
    squarefree = bool(disc_resultant(f))
    twists = _normalizer_twists(f) if squarefree and f.field.k > 1 else []
    # the class must be rational: normalized invariants in the base field.
    # A twist proves that, and a squarefree form has invariants not all 0.
    if not squarefree or (f.field.k > 1 and not twists):
        norm_pt = wps_normalize(WeightedPoint(f.field, SHIODA_WEIGHTS,
                                              shioda(f)))
        if f.field.k > 1 and any(any(c.coeffs[1:]) for c in norm_pt.coords):
            raise NotRationalClass("invariant class is not rational")
    if not squarefree:
        raise MultipleRoot("descent needs simple roots")
    if f.field.k == 1:
        return f

    big, fb = f.field, f
    if not twists:
        big, fb, twists = _root_matching_twists(f)
    if not twists:
        raise ExhaustedCandidates("no Frobenius twisting candidate")
    candidates = [(mat,) + _scalar_norm_power(mat, big.k) for mat in twists]
    rng = random.Random(_DESCENT_SEED)
    for mat, r, lam in sorted(candidates, key=lambda c: c[1] > 1):
        if any(lam.coeffs[1:]):
            continue
        ext = ExtField(p, big.k * r)
        emb = embed_field(big, ext)
        mat = Gl2Matrix(ext, emb(mat.a), emb(mat.b), emb(mat.c), emb(mat.d))
        out = _average_descent(mat, base(lam.coeffs[0]),
                               fb.to_field(ext, emb), base, rng)
        if out is not None:
            return out
    raise ExhaustedCandidates("descent failed for every candidate")


def _root_matching_twists(f):
    """(big, f over big, the Frobenius twisting matrices of f over big)
    for the splitting field big of f, by root matching."""
    big, roots_f = roots_in_splitting_field(f)
    rf = [(x, z) for (x, z), _ in roots_f]
    # the Frobenius image of f has the Frobenius images of the roots
    rg = [(big.frobenius(x), big.frobenius(z)) for x, z in rf]
    fb = f.to_field(big, embed_field(f.field, big))
    gb = BinaryForm(big, fb.degree, [big.frobenius(c) for c in fb.coeffs])
    return big, fb, [mat for mat, _e in
                     _isomorphisms_from_roots(big, fb, gb, rf, rg)]


def _normalizer_twists(f):
    """The Frobenius twisting matrices of an even octic f with
    c_0 = c_8 != 0 over F_q, 8 | q - 1, that normalize x -> -x: the M
    among diag(z, 1) and [[0, z], [1, 0]], z^8 = 1, with gl2_act(M, f) =
    e * f^sigma, diagonal ones first, then z by element_key.  [] for any
    other form.

    gl2_act sends c_i to c_i z^i, resp. c_(8-i) z^(8-i), so M twists f
    when those equal e sigma(c_i); e = c_0 / sigma(c_0), and then i = 0
    and 8 hold by z^8 = 1, odd i by the zero coefficients.  Every twisting
    matrix of a form whose reduced automorphism group is {1, x -> -x}
    normalizes that group, so for the Klein-four closed form this list is
    all of them, up to scalars."""
    field, c = f.field, f.coeffs
    if (f.degree != 8 or any(c[1::2]) or not c[0] or c[0] != c[8]
            or (field.order - 1) % 8):
        return []
    e = c[0] / field.frobenius(c[0])
    target = [e * field.frobenius(c[i]) for i in (2, 4, 6)]
    out = []
    for flip in (False, True):
        for z in _eighth_roots(field):
            z2 = z * z
            zi = {2: z2, 4: z2 * z2, 6: z2 * z2 * z2}
            if all(c[j] * zi[j] == t for t, j in
                   zip(target, (6, 4, 2) if flip else (2, 4, 6))):
                out.append(Gl2Matrix(field, 0, z, 1, 0) if flip
                           else Gl2Matrix(field, z, 0, 0, 1))
    return out


@functools.cache
def _eighth_roots(field):
    """The eight z with z^8 = 1 in F_q, 8 | q - 1, by element_key: the
    powers of a^((q - 1) / 8) for a = first_nonsquare(field)."""
    zeta = first_nonsquare(field) ** ((field.order - 1) // 8)
    roots = [field.one]
    for _ in range(7):
        roots.append(roots[-1] * zeta)
    return tuple(sorted(roots, key=field.element_key))


def _scalar_norm_power(mat, k):
    """(r, lam) with r >= 1 least such that C^r = lam * I, for the twisted
    norm C = M * M^sigma * ... * M^{sigma^{k-1}}; C is an automorphism of
    the form, of finite order in PGL2."""
    tw = cur = mat
    for _ in range(1, k):
        cur = _frobenius_matrix(cur)
        tw = tw * cur
    r, power = 1, tw
    while power.b or power.c or power.a != power.d:
        r, power = r + 1, power * tw
    return r, power.a


def _average_descent(mat, lam, fb, base, rng):
    """The base-field model from a twisting matrix whose norm over fb's
    field is lam * I, or None when 64 averaged matrices give none."""
    ext = fb.field
    m = ext.k
    mprime = mat.scale(ext.one / norm_solve(ext, lam))
    # the cocycle M' M'^sigma ... M'^(sigma^(i-1)) for i = 1..m-1
    cocycle = [mprime]
    for i in range(1, m - 1):
        cocycle.append(cocycle[-1] * _frobenius_matrix(mprime, i))
    # average a random matrix through the cocycle until invertible
    for _ in range(64):
        pmat = Gl2Matrix(ext, *[random_element(ext, rng) for _ in range(4)])
        avg = pmat
        for i, cof in enumerate(cocycle, 1):
            avg = avg + cof * _frobenius_matrix(pmat, i)
        if avg.det():
            g0 = gl2_act(avg, fb)
            lead = next(c for c in g0.coeffs if c)
            g = g0.scale(ext.one / lead)
            if not any(any(c.coeffs[1:]) for c in g.coeffs):
                out = BinaryForm(base, 8, [c.coeffs[0] for c in g.coeffs])
                if disc_resultant(out):
                    return out
    return None


# ---------------------------------------------------------------------------
# the census driver


class CensusReport:
    def __init__(self, p, counts, total, flags, elapsed, models=None):
        self.p = p
        self.counts = counts
        self.total = total
        self.flags = flags
        self.elapsed = elapsed
        self.models = models

    def lines(self):
        """The report as stdout lines; they hold no timing, so equal runs
        print equal bytes."""
        out = ["p=%d total=%d" % (self.p, self.total)]
        for name in census_fast.strata_labels():
            out.append("%s,%d" % (name, self.counts.get(name, 0)))
        for flag in self.flags:
            out.append("flag: %s" % flag)
        if self.models is not None:
            for rec in self.models:
                out.append("%s; %s; %s; ext-degree %d" % rec)
        return out


def run_census(p, want_models=False, jobs=1, model_limit=None,
               report_path=None):
    """Enumerate all moduli classes over F_p, classify and tally them, and
    (optionally) exhibit one F_p model per class.

    Raises CountMismatch when the grand total differs from p^5; stratum
    counts with unproven closed forms only flag.  With a report_path the
    per-class model lines are appended as they finish and already-recorded
    classes are skipped on resume; the models come back in the order of a
    fresh run.  A model_limit or jobs below 1 is refused (ValueError).
    """
    if model_limit is not None and model_limit < 1:
        raise ValueError("model limit %d is below 1" % model_limit)
    if jobs < 1:
        raise ValueError("jobs %d is below 1" % jobs)
    t0 = time.time()
    field = PrimeField(p)
    rows = census_fast.moduli_rows(field, filter_singular=True)
    labels = census_fast.classify_rows(field, rows)
    names = census_fast.strata_labels()
    counts = {}
    for k, name in enumerate(names):
        counts[name] = int((labels == k).sum())
    total = int(rows.shape[0])

    expected = expected_counts(p)
    flags = []
    if total != p ** 5:
        raise CountMismatch("census total %d != %d = p^5" % (total, p ** 5))
    for name, want in expected.items():
        got = counts.get(name, 0)
        if got != want:
            msg = "stratum %s count %d != expected %d" % (name, got, want)
            if name in UNPROVEN:
                flags.append(msg)
            else:
                raise CountMismatch(msg)

    models = None
    if want_models:
        picked = list(range(total)) if model_limit is None else \
            list(_spread_indices(total, model_limit))
        keys = [",".join(str(int(v)) for v in rows[i]) for i in picked]
        done = _read_checkpoint(report_path)
        work = [(p, tuple(int(v) for v in rows[i]), names[int(labels[i])])
                for i, key in zip(picked, keys) if key not in done]
        results, pool = map(_model_worker, work), contextlib.nullcontext()
        if jobs > 1 and len(work) > 1:
            import multiprocessing
            pool = multiprocessing.Pool(jobs)
            results = pool.imap(_model_worker, work, chunksize=16)
        with pool:
            for rec in results:
                _append_checkpoint(report_path, rec)
                done[rec[0]] = rec
        models = [done[key] for key in keys]
    return CensusReport(p, counts, total, flags, time.time() - t0, models)


def _model_worker(item):
    p, row, stratum = item
    model, extdeg = class_model(PrimeField(p), row, stratum)
    return (",".join(str(v) for v in row), stratum,
            ",".join(str(c) for c in model.coeffs), extdeg)


def _read_checkpoint(path):
    """Finished model records by class key; a line that does not parse,
    such as a last line torn by an interrupted run, is skipped and ended,
    so the next line appended starts a line of its own."""
    import os
    done = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        if text and not text.endswith("\n"):
            with open(path, "a") as fh:
                fh.write("\n")
        for line in text.splitlines():
            parts = line.split("; ")
            if len(parts) != 4:
                continue
            try:
                ext = int(parts[3].split()[-1])
            except (IndexError, ValueError):
                continue
            done[parts[0]] = (parts[0], parts[1], parts[2], ext)
    return done


def _append_checkpoint(path, rec):
    """Append one model line in a single write, flushed at once, so an
    interrupted run leaves at most a torn last line."""
    if path:
        with open(path, "a") as fh:
            fh.write("%s; %s; %s; ext-degree %d\n" % rec)
            fh.flush()


def _spread_indices(total, limit):
    if limit >= total:
        return range(total)
    step = max(1, total // limit)
    return range(0, total, step)[:limit]


def class_model(field, jt, stratum=None):
    """One F_p model for a moduli class, with the extension degree the
    closed-form reconstruction passed through before descent."""
    point = as_point(field, SHIODA_WEIGHTS, jt)
    if stratum is None:
        stratum = detect_group(field, point)
    model = reconstruct_stratum(stratum, field, point)
    extdeg = model.field.k
    if extdeg > 1:
        model = descend(model, field)
    if not has_invariants(model, point):
        raise CountMismatch("reconstructed model invariants differ")
    return model, extdeg
