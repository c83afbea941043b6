"""Propositional formulas over &, |, ->, ~, T, F with negation as sugar for
implication into falsum. The grammar is the CLI-facing one:

    formula := disj ('->' formula)?          (right associative)
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '~' unary | atom
    atom    := VAR | 'T' | 'F' | '(' formula ')'

Variables match [a-z][a-z0-9]*. Chains of | and & are read in loops and
may be any length. Parentheses, negations and the right operands of -> nest:
the parser refuses a formula with more than MAX_NESTING of them open at once.
Neither the parser nor the printer recurses, so that limit is the only one.
print_formula is the exact inverse of parse_formula on its own output within
it.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Tuple

from ._support import MAX_NESTING, Frozen
from .errors import MalformedInput, MissingParameter, ParseError, UnknownName


class Formula(Frozen):
    """An immutable formula node, equal to another by value. A node caches
    its hash when it is built, from the cached hashes of its children, and
    equality, `variables()` and `repr()` walk the trees with explicit
    stacks, so none of them recurses however deep the formula is. A node's
    constructor writes its fields, named in `_fields`, and its hash straight
    into the instance dict; the node is Frozen after that."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is recomputed in the new process
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if isinstance(a, (And, Or, Imp)):
                stack += [(a.right, b.right), (a.left, b.left)]
            elif a.__dict__ != b.__dict__:  # a leaf: its field and its hash
                return False
        return True

    def __repr__(self) -> str:
        """``Kind(field=value, ...)`` with each field's repr, a subformula
        written the same way, from a stack of pending pieces: strings to
        write and nodes to expand."""
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            pieces = [type(item).__qualname__ + "("]
            for i, name in enumerate(item._fields):
                value = getattr(item, name)
                pieces.append(f", {name}=" if i else f"{name}=")
                pieces.append(value if isinstance(value, Formula) else repr(value))
            stack += [")", *reversed(pieces)]
        return "".join(out)

    def variables(self) -> Tuple[str, ...]:
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                seen.add(node.name)
            elif isinstance(node, (And, Or, Imp)):
                stack += [node.left, node.right]
        return tuple(sorted(seen))

    def __str__(self) -> str:
        return print_formula(self)


class Var(Formula):
    _fields = ("name",)

    def __init__(self, name: str):
        fields = self.__dict__
        fields["name"] = name
        fields["_hash"] = hash((Var, name))


class Const(Formula):
    _fields = ("value",)

    def __init__(self, value: bool):
        fields = self.__dict__
        fields["value"] = value
        fields["_hash"] = hash((Const, value))


class _Connective(Formula):
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right
        fields["_hash"] = hash((type(self), left, right))


class And(_Connective):
    pass


class Or(_Connective):
    pass


class Imp(_Connective):
    pass


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


_INFIX = {"->": (1, Imp), "|": (2, Or), "&": (3, And)}  # precedence levels


def parse_formula(text: str) -> Formula:
    """The formula the text denotes. Each text is parsed once per nesting
    limit: the formula is kept, as `re` keeps compiled patterns, and the
    same object is returned to later calls; refusals are not kept."""
    return _parsed(text, MAX_NESTING)


_PARSED_KEPT = 512  # texts whose formulas are kept, the least recently used dropped first


@lru_cache(maxsize=_PARSED_KEPT)
def _parsed(text: str, limit: int) -> Formula:
    """One operator-precedence loop over a stack of pending "(" and "~"
    entries and (level, connective, left operand) entries. The nesting
    depth is the number of "(", "~" and "->" entries on the stack, and at
    most `limit`."""
    tokens = _tokenize(text)
    stack: list = []
    depth = index = 0
    node = None  # the operand just read, or None while one is expected

    def fail(message):
        at = tokens[index][1] if index < len(tokens) else len(text)
        raise ParseError(message, at)

    while True:
        if depth > limit:
            fail("formula is nested too deeply")
        tok = tokens[index][0] if index < len(tokens) else None
        if node is None:
            if tok is None:
                fail("formula ended unexpectedly")
            if tok in _INFIX or tok == ")":
                fail(f"expected an atom, found {tok!r}")
            index += 1
            if tok == "(" or tok == "~":
                stack.append(tok)
                depth += 1
                continue
            node = TRUE if tok == "T" else FALSE if tok == "F" else Var(tok)
        elif tok in _INFIX:
            level, kind = _INFIX[tok]
            # & and | group to the left, -> to the right
            while stack and type(stack[-1]) is tuple and stack[-1][0] >= max(level, 2):
                _, connective, left = stack.pop()
                node = connective(left, node)
            index += 1
            stack.append((level, kind, node))
            node = None
            depth += level == 1
            continue
        else:  # the operand is complete up to the innermost open "("
            while stack and type(stack[-1]) is tuple:
                level, connective, left = stack.pop()
                depth -= level == 1
                node = connective(left, node)
            if tok != ")" or not stack:
                if tok is None and not stack:
                    return node
                fail("expected ')'" if stack else f"trailing input {tok!r}")
            stack.pop()
            depth -= 1
            index += 1
        while stack and stack[-1] == "~":
            stack.pop()
            depth -= 1
            node = Neg(node)


# precedence levels: -> 1, | 2, & 3, ~ 4, atoms 5. The text is written from
# a stack of pending pieces, strings and (formula, level) pairs, so printing
# costs no recursion depth however the formula nests.
def print_formula(phi: Formula) -> str:
    out = []
    stack = [(phi, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        phi, level = item
        negations = 0
        while isinstance(phi, Imp) and phi.right == FALSE:
            negations += 1
            phi = phi.left
        if negations:
            out.append("~" * negations)
            stack.append((phi, 4))
            continue
        if isinstance(phi, Var):
            out.append(phi.name)
            continue
        if isinstance(phi, Const):
            out.append("T" if phi.value else "F")
            continue
        # a connective's pieces are listed right to left, as they are pushed
        if isinstance(phi, Imp):
            own, pieces = 1, [(phi.right, 1), "->", (phi.left, 2)]
        elif isinstance(phi, (Or, And)):
            kind = type(phi)
            op, own = ("|", 2) if kind is Or else ("&", 3)
            pieces = []
            while isinstance(phi, kind):
                pieces += [(phi.right, own + 1), op]
                phi = phi.left
            pieces.append((phi, own))
        else:
            raise TypeError(f"not a formula: {phi!r}")
        stack += [")", *pieces, "("] if level > own else pieces
    return "".join(out)


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
                raise MalformedInput("BTW needs n >= 1")
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
