"""The nerve operator: the poset of nonempty chains ordered by inclusion.

Nerves explode combinatorially, so sizes are counted before materialising and
a chain-walk variant of the connectedness check is provided for use on large
outputs (it never builds the nerve poset).
"""
from __future__ import annotations

from typing import Iterator, List, Tuple

from .errors import EmptyPoset, SizeBudgetExceeded
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
    total = poset.count_chains()
    if total > budget:
        raise SizeBudgetExceeded(
            f"nerve would have {total} elements, over the budget of {budget}"
        )
    chains = list(poset.iter_chain_masks(budget=budget))
    # by size then base indices: a topological order for inclusion
    chains.sort(key=lambda m: (bin(m).count("1"), m))
    position = {m: k for k, m in enumerate(chains)}
    labels = [_chain_label(poset, m) for m in chains]
    covers: List[List[int]] = [[] for _ in chains]
    for k, m in enumerate(chains):
        # removing one element of a chain yields exactly the chains it covers
        for i in _bits(m):
            smaller = m ^ (1 << i)
            if smaller:
                covers[position[smaller]].append(k)
    nerve_poset = poset_from_cover_dag(labels, covers)
    return NervePoset(labels, nerve_poset._up, poset, tuple(chains))


def iterated_nerve(poset: FinitePoset, k: int, budget: int = SIZE_BUDGET) -> FinitePoset:
    """k-fold nerve; k = 0 returns the poset itself."""
    if k < 0:
        raise ValueError("nerve iteration count must be nonnegative")
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


def nerve_is_alpha_connected(
    poset: FinitePoset, alpha: Signature, budget: int = SIZE_BUDGET
) -> bool:
    """Whether the nerve of ``poset`` is alpha-connected, decided by walking
    the chains of the base poset instead of materialising the nerve.

    For a chain X, the elements strictly above X in the nerve are the chains
    X ∪ S for S a nonempty chain of A(X) = {z ∉ X | z comparable with all of
    X}; that upset is order-isomorphic to the nerve of A(X), whose components
    and component heights agree with those of A(X) itself. So the
    connectedness type of the strict upset of X equals ConType(A(X)).
    This is property-tested against the materialised nerve on small posets.
    """
    return not any(map(alpha.splits, _nerve_contypes(poset, budget)))


def _nerve_contypes(poset: FinitePoset, budget: int = SIZE_BUDGET) -> Iterator[Tuple[int, ...]]:
    """The connectedness type of each strict upset of the nerve, one per
    chain of the base, as ConType(A(X)), in chain-walk order."""
    comparable = poset._comparable
    for chain in poset.iter_chain_masks(budget=budget):
        addable = ~chain
        for i in _bits(chain):
            addable &= comparable[i]
        yield poset.contype_of_mask(addable)
