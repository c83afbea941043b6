"""Validity on finite frames via the algebra of upward-closed sets.

An upset valuation assigns each variable an up-closed subset; connectives act
as intersection, union, and the relative pseudo-complement
U -> V = {x | up(x) ∩ U ⊆ V}. A formula is valid when every valuation sends
it to the whole carrier.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import ForbiddenSignature, MalformedInput, PreconditionViolated, SizeBudgetExceeded
from .formulas import And, Const, Formula, Imp, Or, Var
from .posets import FinitePoset, UpsetAlgebra, height  # UpsetAlgebra: re-exported
from .signatures import DIFORK, SCOTT, Signature
from .starlike import is_alpha_connected

VALUATION_BUDGET = 10**7


def _flatten(phi: Formula, variables: Tuple[str, ...]) -> List[tuple]:
    """The distinct subformulas of phi, children before parents and phi
    itself last, as (connective, level, left, right) with children given by
    position. The level is the position in `variables` of the last variable
    the node depends on, or -1 for none; a Const keeps its value as `left`.
    Nodes are listed in the order a left-to-right depth-first walk first
    finishes them; the walk keeps its own stack, so depth costs no recursion."""
    index: Dict[Formula, int] = {}
    nodes: List[tuple] = []
    stack = [phi]  # the path from phi to the node being listed
    while stack:
        node = stack[-1]
        if isinstance(node, (And, Or, Imp)):
            left, right = index.get(node.left), index.get(node.right)
            if left is None or right is None:
                stack.append(node.left if left is None else node.right)
                continue
            entry = (type(node), max(nodes[left][1], nodes[right][1]), left, right)
        elif isinstance(node, Var):
            entry = (Var, variables.index(node.name), None, None)
        elif isinstance(node, Const):
            entry = (Const, -1, node.value, None)
        else:
            raise TypeError(f"not a formula: {node!r}")
        stack.pop()
        index[node] = len(nodes)
        nodes.append(entry)
    return nodes


_PROGRAMS_KEPT = 256  # formulas whose programs are kept, the least recently used dropped first
_OPERATORS = {And: "&", Or: "|"}


def _step_source(kind: type, target: str, left: str, right: str) -> List[str]:
    """Lines setting `target` to `left` kind `right`. An implication reads
    the down-closure memo in place and calls `imp`, the algebra's implies,
    which fills the memo, only on a miss."""
    if kind is Imp:
        return [f"d = dget({left} & ~{right})", f"{target} = imp({left}, {right}) if d is None else top & ~d"]
    return [f"{target} = {left} {_OPERATORS[kind]} {right}"]


def _read(steps: List[tuple], inside: set) -> List[int]:
    """The nodes that `steps` read but do not compute, ascending."""
    return sorted({child for _, _, left, right in steps for child in (left, right)} - inside)


def _span_source(name: str, steps: List[tuple]) -> str:
    """A kernel (lo, hi, dget, imp, top) that sets the interval [lo, hi] of
    each step in order, from the ends of its children's intervals that bound
    it (implication is antitone on the left); nodes of other stages are read
    once, at the start, and a computed end stays in a local as well."""
    body = [f"L{c} = lo[{c}]; H{c} = hi[{c}]" for c in _read(steps, {step[0] for step in steps})]
    for position, kind, left, right in steps:
        low, high = ("H", "L") if kind is Imp else ("L", "H")
        body += _step_source(kind, f"lo[{position}] = L{position}", f"{low}{left}", f"L{right}")
        body += _step_source(kind, f"hi[{position}] = H{position}", f"{high}{left}", f"H{right}")
    return "\n ".join([f"def {name}(lo, hi, dget, imp, top):", *body, "return None"])


def _innermost_source(steps: List[tuple], slot: int, phi: int) -> str:
    """A kernel (lo, elements, dget, imp, top) that runs the variable in
    node `slot` through `elements`, computing each step for each; it loads
    the nodes of outer stages into locals before its loop and returns the
    first upset at which node `phi` is not top, or None."""
    body = [f"L{c} = lo[{c}]" for c in _read(steps, {slot, *(step[0] for step in steps)})]
    body.append(f"for L{slot} in elements:")
    for position, kind, left, right in steps:
        body += [" " + line for line in _step_source(kind, f"L{position}", f"L{left}", f"L{right}")]
    body += [f" if L{phi} != top:", f"  return L{slot}", "return None"]
    return "\n ".join(["def innermost(lo, elements, dget, imp, top):", *body])


@lru_cache(maxsize=_PROGRAMS_KEPT)
def _program(phi: Formula) -> tuple:
    """phi's evaluation program, built once and shared by every frame and by
    every formula equal to phi, as (variables, number of nodes, constants,
    slots, spans, innermost). constants lists each constant as (node, value)
    and slots the node of each variable. A step is (node, connective, left,
    right) from `_flatten`, and stage j + 1 holds the steps whose last
    variable is j, stage 0 those that read none. spans[s] is the kernel that
    bounds stages s.. in order: spans[0] every stage, spans[j + 1] the
    stages after j, bounded once outer variable j is bound, stage j + 1
    coming out exact. innermost is the kernel of the last stage, or None
    for a formula without variables. The kernels are straight-line Python,
    compiled here from node positions and a fixed set of operators alone, so
    no name or text from the formula enters their source; they look up no
    global and take everything they use as arguments."""
    variables = phi.variables()
    nodes = _flatten(phi, variables)
    k = len(variables)
    constants = []
    slots = [0] * k
    stages: List[List[tuple]] = [[] for _ in range(k + 1)]
    for position, (kind, level, left, right) in enumerate(nodes):
        if kind is Var:
            slots[level] = position
        elif kind is Const:
            constants.append((position, left))
        else:
            stages[level + 1].append((position, kind, left, right))
    starts = range(max(k, 1))
    source = [_span_source(f"span{s}", list(chain.from_iterable(stages[s:]))) for s in starts]
    if k:
        source.append(_innermost_source(stages[k], slots[-1], len(nodes) - 1))
    kernels: Dict[str, object] = {}
    exec("\n".join(source), {"__builtins__": {}}, kernels)
    spans = tuple(kernels[f"span{s}"] for s in starts)
    return variables, len(nodes), tuple(constants), tuple(slots), spans, kernels.get("innermost")


def counter_valuation(
    poset: FinitePoset, phi: Formula, budget: int = VALUATION_BUDGET
) -> Optional[Dict[str, FrozenSet[str]]]:
    """A variable assignment refuting the formula on the frame, or None if it
    is valid. Valuations are tried in `itertools.product` order: variables in
    `phi.variables()` order, the last one varying fastest, each over the
    upsets by size and then by bitmask; the first refuting one is returned.

    Evaluation is staged: a subformula is computed once its last variable is
    bound, so work on the outer variables is hoisted out of the inner loops.
    Before the first binding and after each binding of an outer variable,
    every subformula gets an interval [lo, hi] of upsets holding its value
    under every completion of the bound variables, an unbound variable being
    [empty, top] (interval abstract interpretation; implication is antitone
    on the left). If lo of phi is top, no completion refutes phi and the
    subtree is skipped; if hi of phi is not top, every completion refutes it,
    and the first in product order, each remaining variable empty, is
    returned. Neither cut changes the answer or the counter-valuation.
    The upsets and down-closures come from the poset's own UpsetAlgebra,
    shared by every call on the poset, and the stages run as the kernels of
    `_program`, compiled once and shared by every call on an equal formula.
    The budget on the number of valuations is checked while the upsets are
    first listed, which stops as soon as there are too many; a formula
    without variables lists none."""
    variables, size, constants, slots, spans, innermost = _program(phi)
    k = len(variables)
    algebra = poset._upset_algebra
    if k:
        elements = algebra.upsets(k, budget)
    elif budget < 1:
        raise SizeBudgetExceeded("valuations", 1, budget)
    top = algebra.top
    lo = [0] * size  # a bound node's value, and the lower end of an open one
    hi = [top] * size
    for position, value in constants:
        lo[position] = hi[position] = top if value else 0
    dget, imp = algebra._down.get, algebra.implies

    def decided(j: int) -> Optional[bool]:
        """Whether every completion of variables j.. refutes phi (True), none
        does (False), or the bounds cannot tell (None); on True each of
        those variables is set to the empty upset, the first upset listed."""
        if lo[-1] == top:
            return False
        if hi[-1] == top:
            return None
        for slot in slots[j:]:
            lo[slot] = elements[0]
        return True

    def refuted() -> bool:
        """Whether some valuation refutes phi; the refuting upsets are left
        in their variables' slots. Depth first, with the upsets left to try
        for each bound outer variable on a stack; once all outer variables
        are bound, the innermost kernel runs the last one through all
        upsets."""
        untried: List[Iterator[int]] = []
        while True:
            if len(untried) + 1 == k:
                u = innermost(lo, elements, dget, imp, top)
                if u is not None:
                    lo[slots[-1]] = u
                    return True
            else:
                untried.append(iter(elements))
            while untried:  # the next upset of the innermost outer variable
                j = len(untried) - 1
                u = next(untried[-1], None)
                if u is None:
                    lo[slots[j]], hi[slots[j]] = 0, top
                    untried.pop()
                    continue
                lo[slots[j]] = hi[slots[j]] = u
                spans[j + 1](lo, hi, dget, imp, top)
                cut = decided(j + 1)
                if cut:
                    return True
                if cut is None:
                    break  # bind the next variable
            else:
                return False

    spans[0](lo, hi, dget, imp, top)
    cut = decided(0)
    if not (cut or (cut is None and refuted())):
        return None
    return {name: algebra.members(lo[slot]) for name, slot in zip(variables, slots)}


def frame_validates(poset: FinitePoset, phi: Formula, budget: int = VALUATION_BUDGET) -> bool:
    return counter_valuation(poset, phi, budget=budget) is None


def validates_bd(poset: FinitePoset, n: int) -> bool:
    """Bounded-depth validity: no up-reduction onto the chain on n+1
    elements, which on finite frames is exactly height <= n-1."""
    if n < 0:
        raise MalformedInput("the depth bound must be nonnegative")
    return poset.is_empty or height(poset) <= n - 1


def _check_lambdas(lambdas: Iterable[Signature]) -> Set[Signature]:
    lambdas = set(lambdas)
    if DIFORK in lambdas:
        raise ForbiddenSignature("1^2 is not a legal starlike axiom")
    return lambdas


def validates_sfl(poset: FinitePoset, lambdas: Iterable[Signature]) -> bool:
    """Frame validity of the starlike logic axiomatised by the given
    signatures, decided through the connectedness characterisation."""
    return all(is_alpha_connected(poset, alpha) for alpha in _check_lambdas(lambdas))


def logic_validates(poset: FinitePoset, spec: str) -> bool:
    """Validity against a named logic: "BD:3" for a depth bound, or
    "SFL:2.1,1^3" for a starlike axiom set."""
    name, _, argument = spec.partition(":")
    name = name.strip().upper()
    if name == "BD":
        if not argument:
            raise MalformedInput("BD needs a bound, e.g. BD:3")
        try:
            bound = int(argument)
        except ValueError as exc:
            raise MalformedInput(str(exc)) from None
        return validates_bd(poset, bound)
    if name == "SFL":
        lambdas = [Signature.parse(part) for part in argument.split(",") if part.strip()]
        if not lambdas:
            raise MalformedInput("SFL needs signatures, e.g. SFL:2.1,1^3")
        return validates_sfl(poset, lambdas)
    raise MalformedInput(f"unknown logic {spec!r}")


def scott_frame_conditions(poset: FinitePoset, lambdas: Iterable[Signature]) -> bool:
    """The three first-order frame conditions that characterise starlike
    validity once Scott's signature is among the axioms: a height bound from
    the least chain signature, a branching bound at depth 1 from the least
    fork, and connected strict upsets at depth above 1."""
    lambdas = _check_lambdas(lambdas)
    if SCOTT not in lambdas:
        raise PreconditionViolated("the Scott-form conditions need 2.1 in Lambda")
    chain_bound = min((a.entries[0][0] for a in lambdas if a.is_chain), default=None)
    fork_bound = min((a.entries[0][1] for a in lambdas if a.is_fork), default=None)
    if not poset.is_empty and chain_bound is not None and height(poset) >= chain_bound:
        return False
    for d, contype in zip(poset.depths, poset.strict_up_contypes):
        # at depth 1 the strict upset is an antichain: one component per point
        if d == 1 and fork_bound is not None and len(contype) >= fork_bound:
            return False
        if d > 1 and len(contype) != 1:
            return False
    return True
