"""Command line front end: one verb per pipeline stage, line-oriented
machine-readable output, stable exit codes.

Coefficients on the command line are a_0,...,a_8 (constant term first);
rationals are written num/den; extension field elements join their
residue coordinates with dots (c0.c1....).
"""

import argparse
import sys
from fractions import Fraction

from . import store
from .errors import ModuliError, OffModuliVariety
from .fields import ExtField, PrimeField, field_make

VERBS = ("shioda", "disc", "isiso", "wps-eq", "wps-enum", "moduli-enum",
         "autgroup", "reconstruct", "express", "derive-cache", "census",
         "descend")


def _fmt(value):
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if hasattr(value, "coeffs"):
        return ".".join(str(c) for c in value.coeffs)
    return str(value)


def _parse_coeff(field, text):
    if isinstance(field, ExtField) and "." in text:
        return field([int(c) for c in text.split(".")])
    try:
        return field(Fraction(text) if "/" in text else int(text))
    except ZeroDivisionError:
        raise ValueError("coefficient %s has no value in %r"
                         % (text, field)) from None


def _parse_form(field, text):
    from .forms import BinaryForm
    coeffs = [_parse_coeff(field, c) for c in text.split(",")]
    if len(coeffs) < 9:
        coeffs += [field.zero] * (9 - len(coeffs))
    return BinaryForm(field, 8, coeffs)


def _parse_tuple(field, text):
    return [_parse_coeff(field, c) for c in text.split(",")]


def _parse_invariants(field, text):
    """J2..J10: nine coordinates, not all zero (else WeightMismatch)."""
    from .wps import SHIODA_WEIGHTS, WeightedPoint
    return list(WeightedPoint(field, SHIODA_WEIGHTS,
                              _parse_tuple(field, text)).coords)


def _parse_moduli_point(field, text):
    """J2..J10 on which the five relations vanish."""
    from .covariants import derive_syzygies
    t = _parse_invariants(field, text)
    if any(derive_syzygies().relations_residuals(field, t)):
        raise OffModuliVariety("the relations among J2..J10 do not all "
                               "vanish at this tuple")
    return t


def _check_round_trip(field, t, model):
    """Refuse a model whose invariants are not t, compared over the
    model's field."""
    from .covariants import has_invariants
    from .forms import embed_field
    lift = embed_field(field, model.field)
    if not has_invariants(model, [lift(c) for c in t]):
        raise OffModuliVariety("the reconstructed model has other "
                               "invariants")


def _parse_triple(text):
    """A covariant triple: three distinct catalogue covariants of order 2
    (else ValueError naming it; UnknownIdentifier for an unknown name)."""
    from .covariants import catalogue_degree_order
    names = tuple(text.split(","))
    if (len(names) != 3 or len(set(names)) != 3
            or any(catalogue_degree_order(n)[1] != 2 for n in names)):
        raise ValueError("%r is not three distinct covariants of order 2"
                         % text)
    return names


def _weights(args):
    if not args.weights:
        raise ValueError("%s needs --weights" % args.verb)
    return [int(w) for w in args.weights.split(",")]


def _stdin_records(args_payloads):
    if args_payloads:
        return args_payloads
    return [line.strip() for line in sys.stdin if line.strip()]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="octicmoduli",
        description="invariants and moduli of binary octics")
    ap.add_argument("verb", choices=VERBS)
    ap.add_argument("--field", default="Q", help="Q, Fp:<p> or Fpk:<p>:<k>")
    ap.add_argument("--form", action="append", default=[],
                    help="a_0,...,a_8 (repeat for two-form verbs)")
    ap.add_argument("--weights", help="comma-separated positive integers")
    ap.add_argument("--tuple", action="append", default=[],
                    help="comma-separated coordinates")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--cache-dir")
    ap.add_argument("--models", action="store_true")
    ap.add_argument("--model-limit", type=int)
    ap.add_argument("--report",
                    help="census: file of model lines; a rerun resumes")
    ap.add_argument("--triple-order",
                    help="semicolon-separated comma-triples of covariants")
    ap.add_argument("--point",
                    help="reconstruct --triple-order: a conic point x1,x2,x3")
    ap.add_argument("--invariant", help="order-0 catalogue identifier")
    ap.add_argument("--triple", help="covariant triple for derive-cache")
    ap.add_argument("--with-singular", action="store_true",
                    help="keep classes with vanishing discriminant")
    return ap


def dispatch(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.cache_dir:
        store.set_cache_dir(args.cache_dir)
    try:
        return _run(args)
    except ModuliError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return exc.exit_code
    except (ValueError, TypeError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2


def _run(args):
    verb = args.verb
    small_ok = verb in ("wps-eq", "wps-enum")
    field = field_make(args.field, allow_small=small_ok)

    if verb == "shioda":
        from .covariants import shioda
        for payload in _stdin_records(args.form):
            f = _parse_form(field, payload)
            print(",".join(_fmt(v) for v in shioda(f)))
        return 0

    if verb == "disc":
        from .covariants import discriminant_J
        from .forms import disc_resultant
        if args.tuple:
            for payload in args.tuple:
                t = _parse_invariants(field, payload)
                print(_fmt(discriminant_J(field, t)))
        else:
            for payload in _stdin_records(args.form):
                print(_fmt(disc_resultant(_parse_form(field, payload))))
        return 0

    if verb == "isiso":
        from .covariants import is_isomorphic
        records = _stdin_records(args.form)
        if len(records) != 2:
            raise ValueError("isiso needs exactly two forms")
        f = _parse_form(field, records[0])
        g = _parse_form(field, records[1])
        print("true" if is_isomorphic(f, g) else "false")
        return 0

    if verb == "wps-eq":
        from .wps import WeightedPoint, wps_equal
        weights = _weights(args)
        records = _stdin_records(args.tuple)
        if len(records) != 2:
            raise ValueError("wps-eq needs exactly two tuples")
        u = WeightedPoint(field, weights, _parse_tuple(field, records[0]))
        v = WeightedPoint(field, weights, _parse_tuple(field, records[1]))
        print("true" if wps_equal(u, v) else "false")
        return 0

    if verb == "wps-enum":
        from .wps import wps_enumerate
        weights = _weights(args)
        for pt in wps_enumerate(field, weights):
            print(",".join(_fmt(c) for c in pt.coords))
        return 0

    if verb == "moduli-enum":
        from .census_fast import moduli_rows
        for row in moduli_rows(field, filter_singular=not args.with_singular):
            print("%d; %s" % (field.p, ",".join(map(str, row.tolist()))))
        return 0

    if verb == "autgroup":
        from .covariants import shioda
        from .strata import detect_group
        if args.tuple:
            for payload in args.tuple:
                print(detect_group(field,
                                   _parse_moduli_point(field, payload)))
        else:
            for payload in _stdin_records(args.form):
                print(detect_group(field, shioda(_parse_form(field, payload))))
        return 0

    if verb == "reconstruct":
        from .strata import detect_group, reconstruct_stratum
        from .reconstruct import reconstruct_generic
        order = hint = None
        if args.triple_order:
            order = [_parse_triple(t) for t in args.triple_order.split(";")]
        if args.point:
            if order is None:
                raise ValueError("--point needs --triple-order")
            hint = [_parse_coeff(field, c) for c in args.point.split(",")]
        for payload in _stdin_records(args.tuple):
            t = _parse_moduli_point(field, payload)
            if order is not None:
                model = reconstruct_generic(field, t, triple_order=order,
                                            conic_point_hint=hint)
            else:
                stratum = detect_group(field, t)
                model = reconstruct_stratum(stratum, field, t)
            _check_round_trip(field, t, model)
            print(",".join(_fmt(c) for c in model.coeffs))
        return 0

    if verb == "express":
        from .covariants import (
            catalogue_degree_order, covariant_eval, express_in_J,
        )
        ident = args.invariant
        if not ident:
            raise ValueError("express needs --invariant")
        d, r = catalogue_degree_order(ident)
        if r != 0:
            raise ValueError("%s is not an invariant (order %d)"
                             % (ident, r))
        res = express_in_J(
            lambda f: covariant_eval(ident, f).coeffs[0], d)
        print(res.polynomial.serialize())
        print("# nullity %d" % res.nullity)
        return 0

    if verb == "derive-cache":
        from .covariants import derive_syzygies
        if args.triple:
            from .reconstruct import derive_triple_models
            triple = _parse_triple(args.triple)
            derive_triple_models(triple)
            print("derived %s" % (",".join(triple)))
        else:
            derive_syzygies(force=True)
            print("derived syzygies")
        return 0

    if verb == "census":
        from .census import run_census
        if not isinstance(field, PrimeField):
            raise ValueError("census runs over a prime field")
        report = run_census(field.p, want_models=args.models,
                            jobs=args.jobs, model_limit=args.model_limit,
                            report_path=args.report)
        print("# %s" % store.CATALOGUE_VERSION)
        for line in report.lines():
            print(line)
        print("elapsed=%.1fs" % report.elapsed, file=sys.stderr)
        return 0

    if verb == "descend":
        from .census import descend
        if not field.characteristic:
            raise ValueError("descend runs over a finite field")
        base = PrimeField(field.characteristic)
        for payload in _stdin_records(args.form):
            f = _parse_form(field, payload)
            out = descend(f, base)
            print(",".join(_fmt(c) for c in out.coeffs))
        return 0

    raise ValueError("unhandled verb %r" % verb)


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
