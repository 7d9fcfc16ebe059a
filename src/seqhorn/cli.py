"""Command-line front end.

Subcommands cover every operation: compose, dual, width, gnd, lm, tp, sld,
xsld, verify, search, similar.  Exit codes: 0 success/true, 1 false or
not-found, 2 usage or parse errors, 3 resource-cap errors.  Identical
inputs produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .compose import CompositionBudgetError, compose
from .decompose import (
    BUDGET_EXCEEDED,
    FOUND,
    ReductionCertificate,
    SearchBounds,
    certificate_to_text,
    search_reduction,
    similar,
    verify,
)
from .programs import (
    CanonicalFormBudgetError,
    GroundingBudgetError,
    Program,
    dual,
    gnd,
    signature_of,
    width,
)
from .semantics import least_model, tp
from .sld import DEFAULT_DEPTH_LIMIT, render_derivation, sld, translated_sld
from .syntax import (
    ParseError,
    atoms_to_text,
    parse_program,
    parse_query,
    program_to_text,
    rule_to_text,
)


def _load(path: str) -> Program:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(1, 1, f"cannot read file: {exc}", path) from exc
    return parse_program(text, path)


def _print_program(p: Program) -> None:
    sys.stdout.write(program_to_text(p))


def _label(path: str) -> str:
    stem = Path(path).stem
    return stem[:1].upper() + stem[1:] if stem else "P"


def _cmd_compose(args) -> int:
    _print_program(compose(_load(args.left), _load(args.right)))
    return 0


def _cmd_dual(args) -> int:
    _print_program(dual(_load(args.program)))
    return 0


def _cmd_width(args) -> int:
    print(width(_load(args.program)))
    return 0


def _cmd_gnd(args) -> int:
    p = _load(args.program)
    _print_program(gnd(p, signature_of(p), args.depth))
    return 0


def _cmd_lm(args) -> int:
    p = _load(args.program)
    grounded = gnd(p, signature_of(p), args.depth)
    sys.stdout.write(atoms_to_text(least_model(grounded)))
    return 0


def _cmd_tp(args) -> int:
    p = _load(args.program)
    i = _load(args.facts)
    if not all(r.is_fact for r in i):
        raise ParseError(1, 1, "facts file must contain facts only", args.facts)
    grounded = gnd(p, signature_of(p, i), args.depth)
    sys.stdout.write(atoms_to_text(tp(grounded, frozenset(r.head for r in i))))
    return 0


def _cmd_sld(args) -> int:
    p = _load(args.program)
    q = parse_query(args.query)
    d = sld(p, q, depth_limit=args.depth)
    if d.is_refutation and args.trace:
        sys.stdout.write(render_derivation(d, labels={"P": _label(args.program)}))
    else:
        print(d.outcome)
    return 0 if d.is_refutation else 1


def _cmd_xsld(args) -> int:
    prefix = _load(args.prefix)
    base = _load(args.base)
    suffix = _load(args.suffix)
    q = parse_query(args.query)
    d = translated_sld(prefix, base, suffix, q, depth_limit=args.depth)
    if d.is_refutation and args.trace:
        sys.stdout.write(render_derivation(d, labels={"R": _label(args.base)}))
    else:
        print(d.outcome)
    return 0 if d.is_refutation else 1


def _cmd_verify(args) -> int:
    cert = ReductionCertificate(
        target=_load(args.target),
        base=_load(args.base),
        prefix=_load(args.prefix),
        suffix=_load(args.suffix),
    )
    result = verify(cert)
    if result:
        print("verified")
        return 0
    print("not equal")
    for r in result.missing:
        print("missing: " + rule_to_text(r))
    for r in result.extra:
        print("extra: " + rule_to_text(r))
    return 1


def _cmd_search(args) -> int:
    target = _load(args.target)
    base = _load(args.base)
    result = search_reduction(target, base, SearchBounds(args.max_body, args.budget))
    if result.status == FOUND:
        sys.stdout.write(certificate_to_text(result.certificate))
        return 0
    if result.status == BUDGET_EXCEEDED:
        print("time budget exceeded")
        return 3
    print("not found (exhaustive bounds)" if result.exhaustive
          else "not found (within bounds)")
    return 1


def _cmd_similar(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    result = similar(left, right, SearchBounds(args.max_body, args.budget))
    print(result.outcome)
    if result.forward.status == BUDGET_EXCEEDED or result.backward.status == BUDGET_EXCEEDED:
        return 3
    return 0 if result.is_similar else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``seqhorn`` argument parser, built on the first call.

    Every later call returns the same parser, so ``main`` pays for its
    construction once per process.  Parsing leaves the parser unchanged:
    each ``parse_args`` returns a new namespace, and argparse looks up
    ``sys.stdout`` and ``sys.stderr`` when it prints.  Callers must not
    modify the parser.
    """
    parser = argparse.ArgumentParser(
        prog="seqhorn",
        description="Sequential composition algebra for Horn logic programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = SearchBounds()

    p = sub.add_parser("compose", help="print the canonical composition of two programs")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("dual", help="print the dual program")
    p.add_argument("program")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("width", help="print the maximum number of bound variables")
    p.add_argument("program")
    p.set_defaults(fn=_cmd_width)

    p = sub.add_parser("gnd", help="print the depth-bounded grounding")
    p.add_argument("program")
    p.add_argument("--depth", type=int, default=0)
    p.set_defaults(fn=_cmd_gnd)

    p = sub.add_parser("lm", help="print the least model of the grounded program")
    p.add_argument("program")
    p.add_argument("--depth", type=int, default=0)
    p.set_defaults(fn=_cmd_lm)

    p = sub.add_parser("tp", help="apply the consequence operator once")
    p.add_argument("program")
    p.add_argument("--facts", required=True)
    p.add_argument("--depth", type=int, default=0)
    p.set_defaults(fn=_cmd_tp)

    p = sub.add_parser("sld", help="run SLD resolution on a query")
    p.add_argument("program")
    p.add_argument("query")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH_LIMIT)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_sld)

    p = sub.add_parser("xsld", help="answer a query through another program")
    p.add_argument("query")
    p.add_argument("--prefix", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--suffix", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH_LIMIT)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_xsld)

    p = sub.add_parser("verify", help="check a reduction certificate")
    p.add_argument("--target", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--prefix", required=True)
    p.add_argument("--suffix", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="search for a one-step reduction")
    p.add_argument("--target", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--max-body", type=int, default=bounds.max_body)
    p.add_argument("--budget", type=float, default=bounds.time_budget)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("similar", help="decide syntactic similarity both ways")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-body", type=int, default=bounds.max_body)
    p.add_argument("--budget", type=float, default=bounds.time_budget)
    p.set_defaults(fn=_cmd_similar)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (CompositionBudgetError, CanonicalFormBudgetError, GroundingBudgetError) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
