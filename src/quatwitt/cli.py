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

import functools
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import polys as P
from .errors import (
    FactorizationLimitExceeded,
    MissingFactorization,
    QuatWittError,
    SchemaViolation,
    UnsupportedField,
    quoted,
)
from .fields import Fp, QQ
from .funcfield import (
    FunctionFieldForm,
    Place,
    conic_parametrize,
    kt_witt_equal,
    psi_split,
    residue,
)
from .hermitian import (
    DEFAULT_SEARCH_BOUND,
    AntiHermForm,
    check_search_bound,
    herm_verdict,
    morita_transfer,
)
from .invariants import LambdaInvariant, invariant_equal, lambda_herm
from .mixed import MixedClass, mixed_equal
from .quadforms import QuadForm, witt_equal
from .quaternions import QuatAlgebra, find_nilpotent
from .serialize import parse_input, parse_number, serialize
from .suites import RunConfig, emit_report, run_suite


def _field_spec(text: str):
    if text == "Q":
        return QQ
    if re.fullmatch("F[0-9]+", text):
        return Fp(_rational(text[1:], "--field"))
    raise SchemaViolation(f"unknown field {quoted(text)}")


def _rational(text: str, flag: str) -> int | Fraction:
    """A number given to a flag, read as a JSON document's numbers are."""
    try:
        return parse_number(text, "")
    except SchemaViolation:
        raise SchemaViolation(
            f"{flag}: not a rational number: {quoted(text)}") from None


def _read_integer(text: str) -> int | None:
    """An integer flag or argument: ASCII digits with an optional sign,
    read as a JSON document's integer strings are; None for any other
    text."""
    try:
        x = parse_number(text, "")
    except SchemaViolation:
        return None
    # an int exactly for ASCII digits with a sign
    return x if type(x) is int else None


def _integer(text: str) -> int:
    """_read_integer as an argparse type, which refuses any other text."""
    x = _read_integer(text)
    if x is None:
        import argparse  # a refused command line alone needs it
        raise argparse.ArgumentTypeError(f"not an integer: {quoted(text)}")
    return x


# The grammar of the command line, read by both _read_plain and
# _build_parser: the global flags, and each subcommand with its help line
# and its own arguments, positionals in order, each with the keyword
# arguments of add_argument.
_GLOBALS = {
    "--field": {"default": "Q", "help": "base field: Q or F<p> (default Q)"},
    "--quat": {"nargs": 2, "default": ("-1", "-1"), "metavar": ("a", "b"),
               "help": "quaternion algebra parameters (default -1 -1)"},
    "--seed": {"type": _integer, "default": 0},
    "--search-bound": {"type": _integer, "default": DEFAULT_SEARCH_BOUND},
    "--output": {"choices": ("text", "json"), "default": "text"},
}
_COMMANDS = {
    "prod": ("multiply two mixed classes", {"lhs": {}, "rhs": {}}),
    "lambda": ("lambda power of an anti-hermitian form",
               {"degree": {"type": _integer}, "form": {}}),
    "transfer": ("Morita transfer to W(k)", {"form": {}}),
    "residue": ("residues of a Q(t) form", {"form": {}, "--place": {
        "required": True,
        "help": '"inf" or the comma-separated coefficients of an '
                'irreducible polynomial, ascending (e.g. "0,1" for t)'}}),
    "decide": ("equality decision for two inputs", {"lhs": {}, "rhs": {}}),
    "psi": ("generic-splitting image of a mixed class", {"input": {}}),
    "check": ("run a verification suite", {"suite": {}}),
}

# an argument starting with a minus and a digit, such as -1/5000, is a
# value, the way argparse already reads -1 and -0.0002: none of the
# options looks like a number
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag's value in."""
    return flag[2:].replace("-", "_")


def _plain_value(text: str | None, kw: dict):
    """text read as argparse reads a value of the argument that kw
    describes, or None where argparse would refuse it."""
    if text is None:
        return None
    if "type" in kw:  # _integer, the grammar's one type
        return _read_integer(text)
    return text if text in kw.get("choices", (text,)) else None


def _separate(text: str | None) -> str | None:
    """A token of its own where a value belongs, or None where argparse
    would read it as an option."""
    if text is None or (text.startswith("-")
                        and not _NEGATIVE_NUMBER.match(text)):
        return None
    return text


# The grammar as _read_plain reads it, built once at import: the
# namespace's defaults, each global flag with its dest and keywords, and
# for each subcommand its flags (the global ones and its own, each with
# its dest and keywords), its positionals in order and the dests of its
# required flags.
_PLAIN_DEFAULTS = {_dest(flag): kw["default"] for flag, kw in _GLOBALS.items()}
_PLAIN_GLOBALS = {flag: (_dest(flag), kw) for flag, kw in _GLOBALS.items()}


def _plain_grammar(arguments: dict) -> tuple:
    flags = {n: (_dest(n), a) for n, a in arguments.items()
             if n.startswith("--")}
    return ({**_PLAIN_GLOBALS, **flags},
            tuple((n, a) for n, a in arguments.items() if n not in flags),
            tuple(dest for dest, a in flags.values() if a.get("required")))


_PLAIN_COMMANDS = {command: _plain_grammar(spec[1])
                   for command, spec in _COMMANDS.items()}


def _read_plain(argv):
    """The namespace parse_args gives a plain command line, read without
    argparse: global flags spelled in full, before or after one subcommand
    with exactly its positionals, and values argparse reads as values and
    accepts.  A flag of one value may be given as `--flag=value`, whose
    value is everything after the first `=`, empty or starting with `-`
    as it may be.  A repeated flag keeps its last value.  None for any
    other command line, which is left to argparse: help, abbreviations,
    `--quat=`, `--` and every refusal."""
    args = dict(_PLAIN_DEFAULTS)
    options, positionals, required = _PLAIN_GLOBALS, None, ()
    tokens = iter(argv)
    for token in tokens:
        flag, eq, explicit = token.partition("=")
        option = options.get(flag)
        if option is not None:
            name, kw = option
            if not eq:
                values = [_separate(next(tokens, None))
                          for _ in range(kw.get("nargs", 1))]
            else:  # --quat=… is left to argparse
                values = [None] if "nargs" in kw else [explicit]
        elif positionals is None:
            grammar = _PLAIN_COMMANDS.get(token)
            if grammar is None:
                return None
            args["command"] = token
            options, positionals, required = grammar
            positionals = list(positionals)
            continue
        elif positionals:
            (name, kw), values = positionals.pop(0), [_separate(token)]
        else:
            return None
        values = [_plain_value(v, kw) for v in values]
        if None in values:
            return None
        args[name] = values if "nargs" in kw else values[0]
    if positionals is None or positionals or any(
            name not in args for name in required):
        return None
    return SimpleNamespace(**args)


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The parser of every command line _read_plain leaves, built on the
    first call and shared by every later one: parse_args keeps no state in
    it, and its defaults are immutable."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

    ap = Parser(prog="quatwitt")
    for name, kw in _GLOBALS.items():
        ap.add_argument(name, **kw)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        # accept the global flags after the subcommand as well; SUPPRESS
        # keeps the subparser from clobbering values given before it
        for name, kw in _GLOBALS.items():
            p.add_argument(name, **{**kw, "default": argparse.SUPPRESS})
        for name, kw in arguments.items():
            p.add_argument(name, **kw)
    return ap


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(doc: dict):
    print(_json(doc))


# what decide prints for each verdict, written once at import
_VERDICTS = {v: _json({"result": v}) for v in ("equal", "distinct", "unknown")}


def _parse_place(text: str) -> Place:
    if text == "inf":
        return Place("infinite")
    coeffs = [_rational(c, "--place") for c in text.split(",")]
    pi = P.monic(P.poly(coeffs))
    if P.degree(pi) < 1:
        raise SchemaViolation(
            f"--place: must be a non-constant polynomial: {quoted(text)}")
    try:
        irreducible = P.is_irreducible(pi)
    except (MissingFactorization, FactorizationLimitExceeded) as exc:
        raise SchemaViolation(f"--place: {quoted(text)}: {exc}") from exc
    if not irreducible:
        raise SchemaViolation(f"--place: {quoted(text)} is not irreducible")
    return Place("poly", pi=pi)


def _parse(text: str, A: QuatAlgebra, field, shape=object, refusal=""):
    """parse_input, refusing a --field that the input's shape ignores (only
    diagonal forms {"diag": [...]} read it), then an input that is not an
    instance of shape, with the message refusal at the document's root."""
    x = parse_input(text, algebra=A, field=field)
    if field != QQ and not isinstance(x, QuadForm):
        raise UnsupportedField(
            f"--field {field!r} does not apply to {type(x).__name__} input")
    if not isinstance(x, shape):
        raise SchemaViolation(refusal, "")
    return x


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv) or _build_parser().parse_args(argv)
    try:
        check_search_bound("--search-bound", args.search_bound)
        field = _field_spec(args.field)
        A = QuatAlgebra(*(_rational(v, "--quat") for v in args.quat))
        if args.command == "prod":
            refusal = "prod expects two mixed classes"
            x = _parse(args.lhs, A, field, MixedClass, refusal)
            y = _parse(args.rhs, A, field, MixedClass, refusal)
            _emit(serialize(x * y))
        elif args.command == "lambda":
            h = _parse(args.form, A, field, AntiHermForm,
                       "lambda expects an anti-hermitian form")
            _emit(serialize(lambda_herm(args.degree, h)))
        elif args.command == "transfer":
            h = _parse(args.form, A, field, AntiHermForm,
                       "transfer expects an anti-hermitian form")
            z0 = find_nilpotent(A)
            _emit(serialize(morita_transfer(h, z0)))
        elif args.command == "residue":
            q = _parse(args.form, A, field, FunctionFieldForm,
                       "residue expects a Q(t) form")
            out = residue(q, _parse_place(args.place))
            _emit({"first": serialize(out.even.anis),
                   "second": serialize(out.odd.anis)})
        elif args.command == "decide":
            x = _parse(args.lhs, A, field)
            y = _parse(args.rhs, A, field, type(x),
                       "decide expects two inputs of one shape")
            if isinstance(x, QuadForm):
                verdict = "equal" if witt_equal(x, y) else "distinct"
            elif isinstance(x, MixedClass):
                verdict = mixed_equal(x, y, search_bound=args.search_bound)
            elif isinstance(x, FunctionFieldForm):
                verdict = "equal" if kt_witt_equal(x, y) else "distinct"
            elif isinstance(x, LambdaInvariant):
                verdict = invariant_equal(x, y,
                                          search_bound=args.search_bound)
            else:  # an AntiHermForm, the last shape parse_input returns
                verdict = herm_verdict(x.perp(y.neg()), args.search_bound)
            print(_VERDICTS[verdict])
        elif args.command == "psi":
            x = _parse(args.input, A, field, MixedClass,
                       "psi expects a mixed class")
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
