"""Command-line front end.

Subcommands:
  prod     multiply two mixed classes
  lambda   lambda^d of an anti-hermitian form
  transfer Morita transfer of an anti-hermitian form (split algebra)
  residue  first/second residue of a Q(t) form at a place
  decide   equality decision for two inputs of the same shape
  psi      generic-splitting image of a mixed class (split algebra)
  check    run a named verification suite

All runs are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import polys as P
from .errors import QuatWittError, SchemaViolation, UnsupportedField
from .fields import Fp, QQ, QT, Place
from .funcfield import (
    FunctionFieldForm,
    conic_parametrize,
    kt_witt_equal,
    psi_split,
    residue,
)
from .hermitian import DEFAULT_SEARCH_BOUND, AntiHermForm, morita_transfer
from .invariants import LambdaInvariant, invariant_equal, lambda_herm
from .mixed import MixedClass, mixed_equal
from .quadforms import QuadForm, witt_equal, witt_zero
from .quaternions import QuatAlgebra, find_nilpotent
from .serialize import parse_input, serialize
from .suites import RunConfig, emit_report, run_suite


def _field_spec(text: str):
    if text == "Q":
        return QQ
    if text == "Qt":
        return QT
    if text[:1] == "F" and text[1:].isdigit():
        return Fp(int(text[1:]))
    raise SchemaViolation(f"unknown field {text!r}")


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaViolation(f"{flag}: not a rational number: {text!r}") \
            from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument starting with a minus
    and a digit, such as -1/5000, as a value, the way it already reads -1
    and -0.0002: none of the options looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_globals(ap: argparse.ArgumentParser, suppress: bool):
    def d(v):
        return argparse.SUPPRESS if suppress else v

    ap.add_argument("--field", default=d("Q"),
                    help="base field: Q, Qt or F<p> (default Q)")
    ap.add_argument("--quat", nargs=2, default=d(["-1", "-1"]),
                    metavar=("a", "b"),
                    help="quaternion algebra parameters (default -1 -1)")
    ap.add_argument("--seed", type=int, default=d(0))
    ap.add_argument("--search-bound", type=int,
                    default=d(DEFAULT_SEARCH_BOUND))
    ap.add_argument("--output", choices=["text", "json"], default=d("text"))


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="quatwitt")
    _add_globals(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        # accept the global flags after the subcommand as well; SUPPRESS
        # keeps the subparser from clobbering values given before it
        p = sub.add_parser(name, help=help_text)
        _add_globals(p, suppress=True)
        return p

    p = add("prod", "multiply two mixed classes")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = add("lambda", "lambda power of an anti-hermitian form")
    p.add_argument("degree", type=int)
    p.add_argument("form")

    p = add("transfer", "Morita transfer to W(k)")
    p.add_argument("form")

    p = add("residue", "residues of a Q(t) form")
    p.add_argument("form")
    p.add_argument("--place", required=True,
                   help='"inf" or comma-separated poly coefficients, '
                        'ascending (e.g. "0,1" for t)')

    p = add("decide", "equality decision for two inputs")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = add("psi", "generic-splitting image of a mixed class")
    p.add_argument("input")

    p = add("check", "run a verification suite")
    p.add_argument("suite")
    return ap


def _emit(doc: dict):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _parse_place(text: str) -> Place:
    if text == "inf":
        return Place("infinite")
    coeffs = [_rational(c, "--place") for c in text.split(",")]
    return Place("poly", pi=P.monic(P.poly(coeffs)))


def _parse(text: str, A: QuatAlgebra, field):
    """parse_input, refusing a --field that the input's shape ignores:
    quaternionic inputs live over Q, Q(t) forms over Q or Q(t)."""
    x = parse_input(text, algebra=A, field=field)
    if isinstance(x, (MixedClass, AntiHermForm, LambdaInvariant)):
        allowed = ("Q",)
    elif isinstance(x, FunctionFieldForm):
        allowed = ("Q", "Qt")
    else:
        return x
    if field.kind not in allowed:
        raise UnsupportedField(
            f"--field {field!r} does not apply to {type(x).__name__} input")
    return x


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.search_bound < 1:
            raise SchemaViolation(
                f"--search-bound: must be at least 1: {args.search_bound}")
        field = _field_spec(args.field)
        A = QuatAlgebra(*(_rational(v, "--quat") for v in args.quat))
        if args.command == "prod":
            x = _parse(args.lhs, A, field)
            y = _parse(args.rhs, A, field)
            if not isinstance(x, MixedClass) or not isinstance(y, MixedClass):
                raise SchemaViolation("prod expects two mixed classes")
            _emit(serialize(x * y))
        elif args.command == "lambda":
            h = _parse(args.form, A, field)
            if not isinstance(h, AntiHermForm):
                raise SchemaViolation("lambda expects an anti-hermitian form")
            _emit(serialize(lambda_herm(args.degree, h)))
        elif args.command == "transfer":
            h = _parse(args.form, A, field)
            if not isinstance(h, AntiHermForm):
                raise SchemaViolation("transfer expects an anti-hermitian form")
            z0 = find_nilpotent(A)
            _emit(serialize(morita_transfer(h, z0)))
        elif args.command == "residue":
            q = _parse(args.form, A, field)
            if not isinstance(q, FunctionFieldForm):
                raise SchemaViolation("residue expects a Q(t) form")
            out = residue(q, _parse_place(args.place))
            _emit({"first": serialize(out.even.anis),
                   "second": serialize(out.odd.anis)})
        elif args.command == "decide":
            x = _parse(args.lhs, A, field)
            y = _parse(args.rhs, A, field)
            if type(x) is not type(y):
                raise SchemaViolation("decide expects two inputs of one shape")
            if isinstance(x, QuadForm):
                verdict = "equal" if witt_equal(x, y) else "distinct"
            elif isinstance(x, MixedClass):
                verdict = mixed_equal(x, y, search_bound=args.search_bound)
            elif isinstance(x, FunctionFieldForm):
                verdict = "equal" if kt_witt_equal(x, y) else "distinct"
            elif isinstance(x, LambdaInvariant):
                verdict = invariant_equal(x, y)
            elif isinstance(x, AntiHermForm):
                verdict = mixed_equal(
                    MixedClass(witt_zero(), x, A),
                    MixedClass(witt_zero(), y, A),
                    search_bound=args.search_bound,
                )
            else:
                raise SchemaViolation("undecidable input shape")
            _emit({"result": verdict})
        elif args.command == "psi":
            x = _parse(args.input, A, field)
            if not isinstance(x, MixedClass):
                raise SchemaViolation("psi expects a mixed class")
            _emit(serialize(psi_split(x, conic_parametrize(A))))
        elif args.command == "check":
            cfg = RunConfig(seed=args.seed, search_bound=args.search_bound)
            rep = run_suite(args.suite, cfg)
            sys.stdout.write(emit_report(rep, args.output))
            return rep.exit_code
    except QuatWittError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
