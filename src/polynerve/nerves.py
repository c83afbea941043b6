"""The nerve operator: the poset of nonempty chains ordered by inclusion.

Nerves explode combinatorially, so sizes are counted before materialising,
and the connectedness check reads the base poset's interval types instead of
building or walking the nerve.
"""
from __future__ import annotations

from typing import List, Tuple

from .errors import EmptyPoset, MalformedInput, SizeBudgetExceeded
from .morphisms import PMorphism, is_up_reduction
from .posets import SIZE_BUDGET, FinitePoset, _bits, poset_from_cover_dag
from .signatures import Signature


class NervePoset(FinitePoset):
    """A poset whose elements are the nonempty chains of a base poset,
    ordered by inclusion. Each element remembers which base elements it
    contains (as a bitmask over the base)."""

    def __init__(self, labels, up_masks, base: FinitePoset, chain_masks: Tuple[int, ...]):
        super().__init__(labels, up_masks, _trusted=True)
        self.base = base
        self.chain_masks = chain_masks


def _chain_label(base: FinitePoset, mask: int) -> str:
    members = sorted(_bits(mask), key=lambda i: (base.heights[i], i))
    return "(" + "|".join(base.labels[i] for i in members) + ")"


def nerve(poset: FinitePoset, budget: int = SIZE_BUDGET) -> NervePoset:
    """All nonempty chains of the poset under inclusion.

    Errors out before materialising anything if the chain count exceeds the
    budget."""
    if (total := poset.count_chains()) > budget:
        raise SizeBudgetExceeded("nerve elements", total, budget)
    chains = list(poset.iter_chain_masks(budget=budget))
    # by size then base indices: a topological order for inclusion
    chains.sort(key=lambda m: (bin(m).count("1"), m))
    position = {m: k for k, m in enumerate(chains)}
    labels = [_chain_label(poset, m) for m in chains]
    covers: List[List[int]] = [[] for _ in chains]
    downs = []
    for k, m in enumerate(chains):
        # removing one element yields exactly the chains it covers; removing
        # a higher one leaves an earlier chain, so the list is built descending
        below = [position[m ^ (1 << i)] for i in _bits(m)] if m & (m - 1) else []
        below.reverse()
        for j in below:
            covers[j].append(k)
        downs.append(tuple(below))
    built = poset_from_cover_dag(labels, covers)
    nerve_poset = NervePoset(labels, built._up, poset, tuple(chains))
    nerve_poset.covers_up, nerve_poset._extension = built.covers_up, built._extension
    nerve_poset.covers_down = tuple(downs)
    return nerve_poset


def iterated_nerve(poset: FinitePoset, k: int, budget: int = SIZE_BUDGET) -> FinitePoset:
    """k-fold nerve; k = 0 returns the poset itself."""
    if k < 0:
        raise MalformedInput("nerve iteration count must be nonnegative")
    current = poset
    for _ in range(k):
        current = nerve(current, budget=budget)
    return current


def max_map(poset: FinitePoset, budget: int = SIZE_BUDGET) -> PMorphism:
    """The p-morphism from the nerve onto the poset sending a chain to its
    maximum element. Verified before returning."""
    if poset.is_empty:
        raise EmptyPoset("the empty poset has an empty nerve and no max map")
    nrv = nerve(poset, budget=budget)
    mapping = {}
    for label, mask in zip(nrv.labels, nrv.chain_masks):
        top = max(_bits(mask), key=poset.heights.__getitem__)
        mapping[label] = poset.labels[top]
    witness = PMorphism(nrv, poset, frozenset(nrv.labels), mapping)
    if not is_up_reduction(witness):
        raise RuntimeError("internal error: max map failed verification")
    return witness


def nerve_is_alpha_connected(poset: FinitePoset, alpha: Signature) -> bool:
    """Whether the nerve of ``poset`` is alpha-connected, decided from the
    base poset's interval types; no chain is enumerated.

    For a chain X, the strict upset of X in the nerve is order-isomorphic to
    the nerve of A(X) = {z not in X | z comparable with all of X}, whose
    components and their heights are those of A(X), so its type is
    ConType(A(X)). For X = x1 < ... < xm, A(X) is the disjoint union of the
    strict downset of x1, the open intervals (xk, xk+1) and the strict upset
    of xm, and elements of different parts are comparable. With two or more
    parts nonempty, A(X) is one component whose chains extend by X to
    chains of the poset, so of height at most L - 1 for L the longest chain
    size; any alpha splitting that type also splits the strict upset of the
    bottom of a longest chain. With one part nonempty, A(X) is that part,
    and a saturated chain realises each strict upset, strict downset and
    open interval of the poset this way; a maximal chain gives (), the type
    of a maximal element's strict upset. So the nerve is alpha-connected iff
    alpha splits no strict upset, strict downset or strict diamond of the
    poset.
    """
    return not any(map(alpha.splits, poset._nerve_contypes))
