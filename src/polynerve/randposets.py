"""Seeded random poset sampling for the census verb and the test harness.

A random DAG is drawn by including each forward edge of a fixed topological
order with the given probability, then closing transitively; rooting adds a
fresh bottom. Convenience sampling only, with no uniformity claim.
"""
from __future__ import annotations

import random
from .errors import MalformedInput
from .posets import FinitePoset, validate_poset


def random_poset(
    size: int,
    rng: random.Random,
    edge_probability: float = 0.35,
    rooted: bool = False,
) -> FinitePoset:
    """A random poset on exactly ``size`` elements (the root counts)."""
    if size < 1:
        raise MalformedInput("poset size must be at least 1")
    body = size - 1 if rooted else size
    labels = [f"x{i}" for i in range(body)]
    edges = [
        (labels[i], labels[j])
        for i in range(body)
        for j in range(i + 1, body)
        if rng.random() < edge_probability
    ]
    if rooted:
        edges.extend(("rt", lab) for lab in labels)
        labels = ["rt"] + labels
    return validate_poset(labels, edges)


def random_rooted_poset(size: int, rng: random.Random, edge_probability: float = 0.35) -> FinitePoset:
    return random_poset(size, rng, edge_probability, rooted=True)
