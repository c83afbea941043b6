"""Propositional formulas over &, |, ->, ~, T, F with negation as sugar for
implication into falsum. The grammar is the CLI-facing one:

    formula := disj ('->' formula)?          (right associative)
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '~' unary | atom
    atom    := VAR | 'T' | 'F' | '(' formula ')'

Variables match [a-z][a-z0-9]*. print_formula is the exact inverse of
parse_formula on its own output.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from .errors import MissingParameter, ParseError, UnknownName


class Formula:
    __slots__ = ()

    def variables(self) -> Tuple[str, ...]:
        seen = []

        def walk(node):
            if isinstance(node, Var) and node.name not in seen:
                seen.append(node.name)
            elif isinstance(node, (And, Or, Imp)):
                walk(node.left)
                walk(node.right)

        walk(self)
        return tuple(sorted(seen))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)


def Neg(phi: Formula) -> Formula:
    return Imp(phi, FALSE)


_TOKEN = re.compile(r"\s*(->|[&|~()]|T|F|[a-z][a-z0-9]*)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    return tokens


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    index = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def take():
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def fail(message):
        at = tokens[index][1] if index < len(tokens) else len(text)
        raise ParseError(message, at)

    def atom() -> Formula:
        tok = peek()
        if tok is None:
            fail("formula ended unexpectedly")
        if tok == "(":
            take()
            inner = implication()
            if peek() != ")":
                fail("expected ')'")
            take()
            return inner
        if tok == "T":
            take()
            return TRUE
        if tok == "F":
            take()
            return FALSE
        if re.fullmatch(r"[a-z][a-z0-9]*", tok):
            take()
            return Var(tok)
        fail(f"expected an atom, found {tok!r}")

    def unary() -> Formula:
        if peek() == "~":
            take()
            return Neg(unary())
        return atom()

    def conj() -> Formula:
        node = unary()
        while peek() == "&":
            take()
            node = And(node, unary())
        return node

    def disj() -> Formula:
        node = conj()
        while peek() == "|":
            take()
            node = Or(node, conj())
        return node

    def implication() -> Formula:
        node = disj()
        if peek() == "->":
            take()
            return Imp(node, implication())
        return node

    try:
        result = implication()
    except RecursionError:
        fail("formula is nested too deeply")
    if index != len(tokens):
        fail(f"trailing input {tokens[index][0]!r}")
    return result


# precedence levels: -> 1, | 2, & 3, ~ 4, atoms 5. Runs of ~ and the left
# spines of | and & chains are walked in loops, so their length costs no
# recursion depth.
def _render(phi: Formula, level: int) -> str:
    negations = 0
    while isinstance(phi, Imp) and phi.right == FALSE:
        negations += 1
        phi = phi.left
    if negations:
        return "~" * negations + _render(phi, 4)
    if isinstance(phi, Var):
        return phi.name
    if isinstance(phi, Const):
        return "T" if phi.value else "F"
    if isinstance(phi, Imp):
        text = _render(phi.left, 2) + "->" + _render(phi.right, 1)
        return f"({text})" if level > 1 else text
    if isinstance(phi, (Or, And)):
        kind = type(phi)
        op, own = ("|", 2) if kind is Or else ("&", 3)
        rights = []
        while isinstance(phi, kind):
            rights.append(phi.right)
            phi = phi.left
        terms = [_render(phi, own)] + [_render(r, own + 1) for r in reversed(rights)]
        text = op.join(terms)
        return f"({text})" if level > own else text
    raise TypeError(f"not a formula: {phi!r}")


def print_formula(phi: Formula) -> str:
    return _render(phi, 1)


def _or_all(parts) -> Formula:
    parts = list(parts)
    node = parts[0]
    for part in parts[1:]:
        node = Or(node, part)
    return node


def _and_all(parts) -> Formula:
    parts = list(parts)
    node = parts[0]
    for part in parts[1:]:
        node = And(node, part)
    return node


def named_formula(name: str, n: int | None = None) -> Formula:
    """The classical axiom schemes by name: KC, LC, SL (no parameter) and
    BW, BTW, BC (parameter n)."""
    p = Var("p")
    q = Var("q")
    if name == "KC":
        return Or(Neg(p), Neg(Neg(p)))
    if name == "LC":
        return Or(Imp(p, q), Imp(q, p))
    if name == "SL":
        return Imp(Imp(Imp(Neg(Neg(p)), p), Or(p, Neg(p))), Or(Neg(p), Neg(Neg(p))))
    if name in ("BW", "BTW", "BC"):
        if n is None:
            raise MissingParameter(f"{name} needs the bound n")
        ps = [Var(f"p{i}") for i in range(n + 1)]
        if name == "BW":
            return _or_all(
                Imp(ps[i], _or_all(ps[j] for j in range(n + 1) if j != i))
                for i in range(n + 1)
            )
        if name == "BTW":
            if n < 1:
                raise ValueError("BTW needs n >= 1")
            premise = _and_all(
                Neg(And(Neg(ps[i]), Neg(ps[j])))
                for i in range(n + 1)
                for j in range(i + 1, n + 1)
            )
            conclusion = _or_all(
                Imp(Neg(ps[i]), _or_all(Neg(ps[j]) for j in range(n + 1) if j != i))
                for i in range(n + 1)
            )
            return Imp(premise, conclusion)
        disjuncts = [ps[0]]
        for i in range(1, n + 1):
            disjuncts.append(Imp(_and_all(ps[:i]), ps[i]))
        return _or_all(disjuncts)
    raise UnknownName(f"no named formula {name!r}")
