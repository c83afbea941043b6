"""Command-line front end.

Boolean verbs exit 0 when the property holds and 1 when it fails, always
mirroring the "result" field of the JSON they print; usage and input errors
exit 2 with diagnostics on stderr. Identical inputs and seeds give
byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from typing import List, Optional

from . import (
    ConstructionResult,
    FinitePoset,
    RationalComplex,
    Signature,
    are_isomorphic,
    con_type,
    connected_components,
    derived,
    find_up_reduction,
    geometric_realization,
    gradify_with_scott,
    gradify_without_scott,
    is_alpha_connected,
    is_alpha_nerve_connected,
    iterated_nerve,
    nervify,
    random_rooted_poset,
    starlike_witness,
    validate_poset,
)
from .errors import MalformedInput, PolynerveError
from .morphisms import SEARCH_BUDGET
from .posets import SIZE_BUDGET
from .signatures import SCOTT


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _load_poset(args) -> FinitePoset:
    return FinitePoset.from_json(_read_input(args.input))


def _load_complex(args) -> RationalComplex:
    return RationalComplex.from_json(_read_input(args.input))


def _parse_lambda(text: str) -> List[Signature]:
    return [Signature.parse(part) for part in text.split(",") if part.strip()]


def _result_payload(verb: str, result: bool, **extra) -> str:
    payload = {"verb": verb, "result": result}
    payload.update(extra)
    return json.dumps(payload, sort_keys=True)


def _poset_out(poset: FinitePoset, args) -> None:
    _emit(poset.to_dot() if args.dot else poset.to_json(), args.output)


def _construction_out(result: ConstructionResult, args) -> None:
    if args.dot:
        _emit(result.output.to_dot(), args.output)
        return
    payload = {
        "output": json.loads(result.output.to_json()),
        "witness": json.loads(result.witness.to_json()),
        "trace": result.trace,
    }
    _emit(json.dumps(payload, sort_keys=True), args.output)


def cmd_validate(args) -> int:
    poset = _load_poset(args)
    payload = {
        "verb": "validate",
        "result": True,
        "elements": len(poset),
        "height": -1 if poset.is_empty else max(poset.heights),
        "components": len(connected_components(poset)),
    }
    if args.logic:
        from .semantics import logic_validates

        payload["logic"] = args.logic
        payload["result"] = logic_validates(poset, args.logic)
    if args.formula:
        from .formulas import parse_formula
        from .semantics import counter_valuation

        refutation = counter_valuation(poset, parse_formula(args.formula))
        payload["formula"] = args.formula
        payload["result"] = payload["result"] and refutation is None
        if refutation is not None:
            payload["counter_valuation"] = {
                name: sorted(members) for name, members in refutation.items()
            }
    _emit(json.dumps(payload, sort_keys=True), args.output)
    return 0 if payload["result"] else 1


def cmd_nerve(args) -> int:
    poset = _load_poset(args)
    result = iterated_nerve(poset, args.k, budget=args.budget)
    _poset_out(result, args)
    return 0


def cmd_contype(args) -> int:
    poset = _load_poset(args)
    _emit(_result_payload("contype", True, contype=con_type(poset).text()), args.output)
    return 0


def _reduction_onto_tree(poset: FinitePoset, alpha: Signature):
    """An up-reduction onto the starlike tree of ``alpha``, or None. It is
    onto, so a tree with more elements (1 + sum of n*m over the entries)
    than the frame is never built."""
    from .starlike import starlike_tree

    if 1 + sum(n * m for n, m in alpha.entries) > poset.n:
        return None
    return find_up_reduction(poset, starlike_tree(alpha))


def cmd_jankov(args) -> int:
    poset = _load_poset(args)
    witness = _reduction_onto_tree(poset, Signature.parse(args.target))
    holds = witness is None
    extra = {} if holds else {"witness": json.loads(witness.to_json())}
    _emit(_result_payload("jankov", holds, target=args.target, **extra), args.output)
    return 0 if holds else 1


def cmd_connected(args) -> int:
    poset = _load_poset(args)
    alpha = Signature.parse(args.target)
    holds = is_alpha_connected(poset, alpha)
    _emit(_result_payload("connected", holds, alpha=args.target), args.output)
    return 0 if holds else 1


def cmd_gradify(args) -> int:
    poset = _load_poset(args)
    lambdas = _parse_lambda(args.lambdas)
    builder = gradify_with_scott if SCOTT in lambdas else gradify_without_scott
    _construction_out(builder(poset, lambdas), args)
    return 0


def cmd_nervify(args) -> int:
    poset = _load_poset(args)
    _construction_out(nervify(poset), args)
    return 0


def cmd_witness(args) -> int:
    poset = _load_poset(args)
    _construction_out(starlike_witness(poset, _parse_lambda(args.lambdas)), args)
    return 0


def cmd_subdivide(args) -> int:
    complex_ = _load_complex(args)
    _emit(derived(complex_, args.k, budget=args.budget).to_json(), args.output)
    return 0


def cmd_realize(args) -> int:
    poset = _load_poset(args)
    _emit(geometric_realization(poset, budget=args.budget).to_json(), args.output)
    return 0


def cmd_iso(args) -> int:
    poset = _load_poset(args)
    other = FinitePoset.from_json(_read_input(args.other))
    mapping = are_isomorphic(poset, other, budget=args.budget)
    holds = mapping is not None
    extra = {"map": dict(sorted(mapping.items()))} if holds else {}
    _emit(_result_payload("iso", holds, **extra), args.output)
    return 0 if holds else 1


def cmd_census(args) -> int:
    if args.size < 1:
        raise MalformedInput("census size must be at least 1")
    if args.size > 8:
        raise MalformedInput("census size is capped at 8")
    if args.samples < 0:
        raise MalformedInput("census samples must be at least 0")
    alphas = _parse_lambda(args.lambdas) if args.lambdas else [Signature.parse("2.1")]
    rng = random.Random(args.seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "size", "alpha", "connected", "jankov", "nerve_connected", "agree"])
    for sample_id in range(args.samples):
        size = rng.randint(1, args.size)
        poset = random_rooted_poset(size, rng)
        for alpha in alphas:
            connected = is_alpha_connected(poset, alpha)
            jankov = _reduction_onto_tree(poset, alpha) is None
            nerve_conn = is_alpha_nerve_connected(poset, alpha)
            writer.writerow(
                [
                    sample_id,
                    size,
                    alpha.text(),
                    str(connected).lower(),
                    str(jankov).lower(),
                    str(nerve_conn).lower(),
                    str(connected == jankov).lower(),
                ]
            )
    _emit(out.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polynerve",
        description="Finite posets, nerves, starlike logics, and rational simplicial geometry.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("-i", "--input", help="input file (default: stdin)")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    def with_budget(p, default):
        """--budget, defaulting to the budget of the library call it feeds."""
        common(p)
        p.add_argument("--budget", type=int, default=default, help="size/search budget")

    p = sub.add_parser("validate", help="load, close and summarise a poset")
    common(p)
    p.add_argument("--logic", help="also test a named logic, e.g. BD:3 or SFL:2.1,1^3")
    p.add_argument("--formula", help="also test a formula, e.g. '(p->q)|(q->p)'")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("nerve", help="iterated nerve of a poset")
    with_budget(p, SIZE_BUDGET)
    p.add_argument("-k", type=int, default=1, help="number of nerve iterations")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(handler=cmd_nerve)

    p = sub.add_parser("contype", help="connectedness type of a poset")
    common(p)
    p.set_defaults(handler=cmd_contype)

    p = sub.add_parser("jankov", help="forbidden-configuration validity against a starlike tree")
    common(p)
    p.add_argument("--target", required=True, help="signature, e.g. 2.1")
    p.set_defaults(handler=cmd_jankov)

    p = sub.add_parser("connected", help="alpha-connectedness of a poset")
    common(p)
    p.add_argument("--target", required=True, help="signature, e.g. 2.1")
    p.set_defaults(handler=cmd_connected)

    p = sub.add_parser("gradify", help="graded cover construction")
    common(p)
    p.add_argument("--lambda", dest="lambdas", required=True, help="signatures, comma separated")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cmd_gradify)

    p = sub.add_parser("nervify", help="diamond-connecting construction")
    common(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cmd_nervify)

    p = sub.add_parser("witness", help="end-to-end starlike completeness witness")
    common(p)
    p.add_argument("--lambda", dest="lambdas", required=True, help="signatures, comma separated")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("subdivide", help="k-th derived subdivision of a complex")
    with_budget(p, SIZE_BUDGET)
    p.add_argument("-k", type=int, default=1)
    p.set_defaults(handler=cmd_subdivide)

    p = sub.add_parser("realize", help="standard-basis realization of a poset")
    with_budget(p, SIZE_BUDGET)
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("iso", help="poset isomorphism check")
    with_budget(p, SEARCH_BUDGET)
    p.add_argument("other", help="second poset file")
    p.set_defaults(handler=cmd_iso)

    p = sub.add_parser("census", help="sample posets and tabulate connectedness vs up-reductions")
    common(p)
    p.add_argument("--size", type=int, default=5, help="maximum poset size (cap 8)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lambdas", help="signatures, comma separated")
    p.set_defaults(handler=cmd_census)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (PolynerveError, ValueError, OSError) as exc:
        print(f"polynerve: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
