"""Starlike trees and the connectedness notions their formulas express.

A poset fails alpha-connectedness exactly where some strict upset splits into
open pieces matching the signature; the diamond variant asks the same of
strict diamonds, taken in the completion of the poset so that upsets and
diamonds are covered uniformly by one quantifier.
"""
from __future__ import annotations

from typing import List, Optional

from .errors import ForbiddenSignature, SizeBudgetExceeded
from .posets import SIZE_BUDGET, FinitePoset, poset_from_cover_dag
from .signatures import DIFORK, Signature


def starlike_tree(alpha: Signature) -> FinitePoset:
    """The starlike tree of a signature: a root carrying one chain per
    branch, chain j of length alpha(j). The empty signature gives the
    singleton. Labels: root "r", branch elements "b<j>.<height>". Its size,
    read off the signature's entries, is checked against SIZE_BUDGET before
    anything is built."""
    if (size := 1 + sum(n * m for n, m in alpha.entries)) > SIZE_BUDGET:
        raise SizeBudgetExceeded("starlike tree elements", size, SIZE_BUDGET)
    labels = ["r"]
    covers: List[List[int]] = [[]]
    for j, branch_height in enumerate(alpha.heights, start=1):
        prev = 0  # the root
        for h in range(1, branch_height + 1):
            labels.append(f"b{j}.{h}")
            covers.append([])
            covers[prev].append(len(labels) - 1)
            prev = len(labels) - 1
    return poset_from_cover_dag(labels, covers)


def has_alpha_partition(poset: FinitePoset, alpha: Signature) -> bool:
    """Open partitions into |alpha| pieces with the prescribed heights exist
    iff alpha is below the connectedness type."""
    return alpha.splits(poset.contype_of_mask(poset.full_mask))


def alpha_partition(poset: FinitePoset, alpha: Signature) -> Optional[List[frozenset]]:
    """A witnessing partition (see :func:`alpha_blocks`), or None."""
    if not has_alpha_partition(poset, alpha):
        return None
    return [poset.labels_of(b) for b in alpha_blocks(poset, poset.full_mask, alpha.size)]


def alpha_blocks(poset: FinitePoset, mask: int, k: int) -> List[int]:
    """The k blocks, as masks, of an alpha-partition of ``mask`` for a
    signature alpha of size k that splits it: components are assigned to the
    slots in descending height order (ties in the order ``component_masks``
    lists them), and surplus components are merged into the first slot (any
    open superset keeps the required height)."""
    blocks = [c for c, _ in sorted(poset._typed_components(mask), key=lambda ch: -ch[1])]
    for surplus in blocks[k:]:
        blocks[0] |= surplus
    return blocks[:k]


def is_alpha_connected(poset: FinitePoset, alpha: Signature) -> bool:
    """No element has an alpha-partition of its strict upset; each distinct
    strict-upset type is asked once."""
    return not any(map(alpha.splits, poset._strict_up_types))


def is_alpha_diamond_connected(poset: FinitePoset, alpha: Signature) -> bool:
    """No pair x < y in the completion (the poset plus a synthetic top) has
    an alpha-partition of its strict diamond. The completion is not built: a
    pair ending at the synthetic top has the strict upset of x as its strict
    diamond, and every other pair is a pair of the poset itself."""
    return is_alpha_connected(poset, alpha) and not any(map(alpha.splits, poset.diamond_contypes))


def is_alpha_nerve_connected(poset: FinitePoset, alpha: Signature) -> bool:
    """Alpha-nerve-connectedness, the Nerve Criterion's condition. It is
    diamond-connectedness in the completion, whose strict diamonds include
    the strict upsets, so it implies alpha-connectedness."""
    return is_alpha_diamond_connected(poset, alpha)


def nerve_validates_starlike(poset: FinitePoset, alpha: Signature) -> bool:
    """Validity of the starlike formula on every iterated nerve, decided via
    alpha-nerve-connectedness. The two-pronged fork is not a legal signature
    at this layer."""
    if alpha == DIFORK:
        raise ForbiddenSignature("the signature 1^2 is excluded from the logic layer")
    return is_alpha_nerve_connected(poset, alpha)
