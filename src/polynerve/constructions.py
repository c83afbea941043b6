"""The constructive transformations: gradification (two regimes, depending on
whether Scott's signature is among the axioms), nervification, and the
end-to-end witness pipeline.

Every construction re-checks its own postconditions through one verifier
(signature checks, then the witness, then rootedness, height and gradedness)
plus one profile check, and raises ConstructionPostconditionFailed instead
of returning unverified output.
"""
from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import (
    ConstructionPostconditionFailed,
    NotGraded,
    NotRooted,
    PreconditionViolated,
)
from .morphisms import PMorphism, compose, is_up_reduction
from .posets import (
    FinitePoset,
    _bits,
    height,
    is_graded,
    tree_unravelling,
    validate_poset,
)
from .semantics import validates_sfl
from .signatures import SCOTT, Signature
from .starlike import is_alpha_connected

__all__ = [
    "ConstructionResult",
    "gradify_with_scott",
    "gradify_without_scott",
    "nervify",
    "starlike_witness",
]


class ConstructionResult:
    """A construction's output, its witness output -> input (total and
    surjective) and the trace of its steps; equal to another result with
    equal fields, and unhashable."""

    def __init__(self, output: FinitePoset, witness: PMorphism, trace: Optional[List[dict]] = None):
        self.output = output
        self.witness = witness
        self.trace = [] if trace is None else trace

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.output, self.witness, self.trace) == (other.output, other.witness, other.trace)

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(output={self.output!r}, witness={self.witness!r}, trace={self.trace!r})"

    def trace_json(self) -> str:
        return json.dumps(self.trace, sort_keys=True)


def _identity_result(poset: FinitePoset, note: str) -> ConstructionResult:
    witness = PMorphism(
        poset, poset, frozenset(poset.labels), {lab: lab for lab in poset.labels}
    )
    return ConstructionResult(poset, witness, [{"step": note}])


def _assembled(
    labels: List[str],
    edges: List[Tuple[str, str]],
    mapping: Dict[str, str],
    target: FinitePoset,
    trace: List[dict],
) -> ConstructionResult:
    output = validate_poset(labels, edges)
    witness = PMorphism(output, target, frozenset(labels), mapping)
    return ConstructionResult(output, witness, trace)


def _profile(poset: FinitePoset, label: str) -> Tuple[int, ...]:
    """Connectedness type of the strict upset of one element."""
    return poset.strict_up_contypes[poset.index(label)]


def _text(contype: Tuple[int, ...]) -> str:
    """A connectedness type in signature notation, for messages."""
    return Signature.from_heights(contype).text()


def _preconditions(
    poset: FinitePoset, lambdas: Iterable[Signature], scott: Optional[bool] = None
) -> Set[Signature]:
    """The axioms as a set, once the input is rooted, meets the regime's
    demand on Scott's signature (``scott``; None for no regime) and validates
    its own starlike logic. An up-reduction's image keeps validity, so no
    output could pass verification for an input that refutes its axioms."""
    lambdas = set(lambdas)
    if poset.root() is None:
        raise PreconditionViolated("gradification needs a rooted poset")
    if scott is not None and (SCOTT in lambdas) != scott:
        where = "among" if scott else "absent from"
        raise PreconditionViolated(f"this regime needs 2.1 {where} the axioms")
    if not validates_sfl(poset, lambdas):
        raise PreconditionViolated("the input must validate its own starlike logic")
    return lambdas


def _verify(
    result: ConstructionResult,
    base: FinitePoset,
    upsets: Iterable[Signature] = (),
    diamonds: Iterable[Signature] = (),
) -> None:
    """The postconditions every construction shares, cheapest rejections
    first: no alpha in ``upsets`` splits a strict upset of the output, none
    in ``diamonds`` a strict diamond; the witness is a total up-reduction
    onto ``base``; the output stays rooted, keeps the height of ``base`` and
    is graded. Two properties follow unchecked: no alpha in both lists splits
    a strict upset of the nerve (a rooted output's strict downsets are
    connected and no taller than the root's strict upset), and with 2.1 in
    ``upsets`` the Scott-form frame conditions hold (a chain bounds the
    height, a fork the antichain over a depth-1 point, 2.1 the rest)."""
    output, witness = result.output, result.witness
    for alpha in upsets:
        if not is_alpha_connected(output, alpha):
            raise ConstructionPostconditionFailed(f"output lost {alpha}-connectedness")
    for alpha in diamonds:
        if any(map(alpha.splits, output.diamond_contypes)):
            raise ConstructionPostconditionFailed(f"output has a splittable diamond for {alpha}")
    for holds, message in (
        (witness.is_total, "witness must be total on the output"),
        (is_up_reduction(witness), "witness is not a surjective p-morphism onto the input"),
        (output.root() is not None, "output must stay rooted"),
        (height(output) == height(base), "output must keep the height of the input"),
        (is_graded(output) is not None, "output must be graded"),
    ):
        if not holds:
            raise ConstructionPostconditionFailed(message)


def _check_profiles(
    result: ConstructionResult,
    base: FinitePoset,
    labels: Iterable[str],
    split: Optional[Dict[str, int]] = None,
) -> None:
    """The strict-upset profile of each given output label matches that of
    its image in ``base``. ``split`` is nervify's switch; with it, two
    exceptions are sanctioned: a singly-topped middle rung may see a
    two-point antichain where the base sees one point (two chevron tops, no
    fork in any legal axiom set can use it), and each split-rung copy sees
    exactly one point per incident top (``split`` maps each copy to that
    number)."""
    output, witness = result.output, result.witness
    for lab in labels:
        got, want = _profile(output, lab), _profile(base, witness(lab))
        if got != want and (split is None or (got, want) != ((1, 1), (1,))):
            raise ConstructionPostconditionFailed(
                f"profile not preserved at {lab!r}: {_text(got)} vs {_text(want)}"
            )
    for lab, top_count in (split or {}).items():
        got, expected = _profile(output, lab), (1,) * top_count
        if got != expected:
            raise ConstructionPostconditionFailed(
                f"split rung {lab!r} has profile {_text(got)}, expected {_text(expected)}"
            )


def _tree_scaffold(poset: FinitePoset):
    """What the tree-based builders start from: the tree unravelling, its
    map onto the poset, the tree tops grouped by image (each group in label
    order) and a trace holding the unravelling step."""
    tree, last = tree_unravelling(poset)
    fibres: Dict[str, List[int]] = {}
    for t in range(tree.n):
        if tree.depths[t] == 0:
            fibres.setdefault(last(tree.labels[t]), []).append(t)
    for group in fibres.values():
        group.sort(key=lambda t: tree.labels[t])
    return tree, last, fibres, [{"step": "tree_unravelling", "size": tree.n}]


def _tree_meet(tree: FinitePoset, i: int, j: int) -> int:
    """Meet of two tree elements: the top of their shared prefix."""
    return max(_bits(tree.down_mask(i) & tree.down_mask(j)), key=tree.heights.__getitem__)


def gradify_with_scott(poset: FinitePoset, lambdas: Iterable[Signature]) -> ConstructionResult:
    """Graded cover of a frame in the regime where Scott's signature is an
    axiom: unravel to a tree, stretch every tree edge so each element lands
    at rank (height minus its tree depth), then merge the tree tops that
    came from the same element.

    Padding by depth rather than by branch length keeps the strict upsets of
    depth-one elements antichains of merged tops; padding above the tops
    (the obvious alternative) would stack those antichains into parallel
    chains of mixed heights and thereby refute Scott's axiom."""
    lambdas = _preconditions(poset, lambdas, scott=True)
    if Signature.parse("2") in lambdas:
        # the depth-2 axiom caps the height at 1, which forces gradedness
        result = _identity_result(poset, "already graded under the depth bound")
        _verify(result, poset, upsets=lambdas)
        return result

    n = height(poset)
    tree, last, fibres, trace = _tree_scaffold(poset)
    trunk = [i for i in range(tree.n) if tree.depths[i] != 0]
    target_rank = [n - tree.depths[i] for i in range(tree.n)]

    labels: List[str] = [tree.labels[i] for i in trunk]
    edges: List[Tuple[str, str]] = []
    mapping: Dict[str, str] = {tree.labels[i]: last(tree.labels[i]) for i in trunk}

    # every maximal element is the image of some tree top
    merged_label = {u: f"top@{u}" for u in sorted(fibres)}
    for u, lab in merged_label.items():
        labels.append(lab)
        mapping[lab] = u

    for i in range(tree.n):
        for j in tree.covers_up[i]:
            j_lab = tree.labels[j]
            upper = merged_label[last(j_lab)] if tree.depths[j] == 0 else j_lab
            gap = target_rank[j] - target_rank[i] - 1
            pads = [f"{j_lab}~{k}" for k in range(gap)]
            for lab in pads:
                labels.append(lab)
                mapping[lab] = mapping[upper]  # pads ride up to the upper end
            chain = [tree.labels[i]] + pads + [upper]
            edges.extend(zip(chain, chain[1:]))
            if pads:
                trace.append(
                    {"step": "pad", "edge": [tree.labels[i], upper], "added_elements": pads}
                )
    classes = [[tree.labels[t] for t in fibres[u]] for u in merged_label]
    trace.append({"step": "merge_tops", "identified_classes": classes})

    result = _assembled(labels, edges, mapping, poset, trace)
    _verify(result, poset, upsets=lambdas)
    return result


def gradify_without_scott(poset: FinitePoset, lambdas: Iterable[Signature]) -> ConstructionResult:
    """Graded cover in the regime without Scott's signature: unravel to a
    tree and bridge every pair of tops with a shared image by a zigzag path,
    with scaffolding chains dangled down to their meet to keep ranks
    consistent."""
    lambdas = _preconditions(poset, lambdas, scott=False)
    if height(poset) <= 1:
        # covers the degenerate axioms (1 and 2 force height <= 1)
        result = _identity_result(poset, "already graded at height <= 1")
        _verify(result, poset, upsets=lambdas)
        return result

    tree, last, fibres, trace = _tree_scaffold(poset)
    labels = list(tree.labels)
    edges = [(tree.labels[a], tree.labels[b]) for a, b in _cover_pairs(tree)]
    mapping: Dict[str, str] = {lab: last(lab) for lab in tree.labels}

    pair_id = 0
    for u in sorted(fibres):
        group = fibres[u]
        # bridging consecutive tops suffices: longer paths compose
        for a_pos in range(len(group) - 1):
            p, q = group[a_pos], group[a_pos + 1]
            if tree.heights[p] > tree.heights[q]:
                p, q = q, p  # orient so the climb is upward
            r = _tree_meet(tree, p, q)
            l_gap = tree.heights[q] - tree.heights[p]
            k = tree.heights[p] - tree.heights[r] - 1
            # distinct tops with the same image never cover their meet
            assert k >= 1
            z = f"z{pair_id}"
            pair_id += 1
            lower = [f"{z}.a{i}" for i in range(l_gap + 1)]
            labels.extend(lower)
            new_edges: List[Tuple[str, str]] = []
            for i, a_lab in enumerate(lower):
                mapping[a_lab] = u
                rungs = k + i - 1
                below = tree.labels[r]
                for jj in range(1, rungs + 1):
                    d_lab = f"{z}.d{i}.{jj}"
                    labels.append(d_lab)
                    mapping[d_lab] = u
                    new_edges.append((below, d_lab))
                    below = d_lab
                new_edges.append((below, a_lab))
            for i in range(l_gap):
                c_lab, b_lab = f"{z}.c{i}", f"{z}.b{i}"
                labels.extend([c_lab, b_lab])
                mapping[c_lab] = u
                mapping[b_lab] = u
                new_edges.append((lower[i], c_lab))
                new_edges.append((c_lab, b_lab))
                new_edges.append((lower[i + 1], b_lab))
            new_edges.append((lower[0], tree.labels[p]))
            new_edges.append((lower[-1], tree.labels[q]))
            edges.extend(new_edges)
            trace.append(
                {
                    "step": "zigzag",
                    "between": [tree.labels[p], tree.labels[q]],
                    "added_edges": [list(e) for e in new_edges],
                }
            )

    result = _assembled(labels, edges, mapping, poset, trace)
    _check_profiles(result, poset, tree.labels)
    _verify(result, poset, upsets=lambdas)
    return result


def _cover_pairs(poset: FinitePoset) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(poset.n) for j in poset.covers_up[i]]


def _sample_ample_signatures(n: int) -> List[Signature]:
    """A spot-check subset of the signatures nervification protects at
    height n: distinct, no two-pronged fork, no chain shorter than n. It
    holds 1^3 and 2.1, which between them split every connectedness type of
    two or more components other than (1,1); so a verified output's strict
    diamonds are all connected or two-point antichains."""
    texts = ["1^3", "1^4", "2.1", "2^2", "3.1", "2.1^2", f"{n + 1}"]
    if n >= 1:
        texts.append(f"{n}")
    return [Signature.parse(t) for t in texts]


def nervify(
    poset: FinitePoset, lambdas: Optional[Iterable[Signature]] = None
) -> ConstructionResult:
    """Rebuild a graded rooted frame so that, additionally, all its strict
    diamonds are too tangled to split.

    Candidates are built lazily, in this order, and the first one that passes
    verification is returned:

    1. the input itself (often already nerve-connected);
    2. the tree unravelling with its tops kept and neighbouring branches
       glued by mid-level ladders of 'chevron' elements (adjacent-rank pairs
       get a single bridge over their meet, the one spot the ranks leave
       room);
    3. chevron arrangements, which chop the tree tops and rebuild them from
       chevron ladders, splitting penultimate rungs shared between tops into
       copies served once per top. A fibre ordering fixes the plan (the rungs
       to split); the orientation in which tops serve the copies is free.
       Both are searched deterministically: at most 2^7 fibre orderings, 256
       orientation vectors per ordering, at most 4096 arrangements in all.

    With ``lambdas`` given, an input that refutes them is refused up front,
    rungs are split only when the double-cover would let some fork among the
    axioms through, and the postconditions are the per-signature ones the
    pipeline needs; without it the universal (signature-free) checks are
    enforced. When no candidate passes, the
    ConstructionPostconditionFailed message counts the candidates verified
    and the orderings the rung plan rejected, and says whether the cap on
    arrangements stopped the search."""
    if poset.root() is None:
        raise NotRooted("nervification needs a rooted poset")
    if is_graded(poset) is None:
        raise NotGraded("nervification needs a graded poset")
    if lambdas is not None:
        lambdas = _preconditions(poset, lambdas)

    n = height(poset)
    guarded = _sample_ample_signatures(n) if lambdas is None else lambdas

    def failure_of(result: ConstructionResult, profiled, split) -> Optional[ConstructionPostconditionFailed]:
        """The postcondition a candidate fails, or None if it passes."""
        try:
            if lambdas is None:
                _check_profiles(result, poset, profiled, split)
            _verify(result, poset, upsets=lambdas or (), diamonds=guarded)
        except ConstructionPostconditionFailed as exc:
            return exc
        return None

    # the input itself is tried before any tree scaffolding is built
    identity = _identity_result(poset, "already nerve-connected")
    failure = failure_of(identity, poset.labels, {})
    if failure is None:
        return identity

    tree, last, lex_fibres, base_trace = _tree_scaffold(poset)
    # the tree without its tops (a top covers nothing)
    base_labels = [lab for lab, depth in zip(tree.labels, tree.depths) if depth]
    base_edges = [(tree.labels[i], tree.labels[j]) for i, j in _cover_pairs(tree) if tree.depths[j]]

    # Penultimate rung of each branch (its top's lower cover), and its tops.
    pen_of: Dict[int, int] = {}
    incident: Dict[int, List[str]] = {}
    for u, group in lex_fibres.items():
        for t in group:
            if tree.covers_down[t]:  # else a single point, which passes as the identity
                pen_of[t] = pen = tree.covers_down[t][0]
                incident.setdefault(pen, []).append(u)

    fibre_names = sorted(lex_fibres)

    def has_taller(pen: int) -> bool:
        return any(tree.depths[c] != 0 for c in tree.covers_up[pen])

    def order_fibres(order_bits: int) -> Dict[str, List[int]]:
        """Bit 0 per fibre keeps the subtree-contiguous lexicographic order;
        bit 1 steers rungs that cannot absorb an extra cover to the fibre
        ends (middle positions double-cover their rung), preferring the ones
        that keep taller structure, since those cannot be split either."""
        out = {}
        for pos, u in enumerate(fibre_names):
            group = lex_fibres[u]
            if (order_bits >> pos) & 1:
                def risky(t):
                    pen = pen_of[t]
                    return bump_matters(pen, len(incident[pen]) + 1, len(incident[pen]))
                hot = sorted(
                    (t for t in group if risky(t)),
                    key=lambda t: (not has_taller(pen_of[t]), tree.labels[t]),
                )
                cool = [t for t in group if not risky(t)]
                group = hot[:1] + cool + hot[2:] + hot[1:2]
            out[u] = group
        return out

    fork_sizes = (
        None
        if lambdas is None
        else sorted(alpha.entries[0][1] for alpha in lambdas if alpha.is_fork)
    )

    def bump_matters(pen: int, got: int, top_count: int) -> bool:
        """Whether covering this rung ``got`` times (instead of once per
        top) could enable an axiom. The double cover turns each top's single
        blob into up to two, on top of whatever taller components the rung
        keeps; the only universally harmless case is a lone extra blob over
        a rung with nothing else above it."""
        base_comps = len(_profile(poset, last(tree.labels[pen])))
        grown = base_comps + got - top_count
        if fork_sizes is None:
            return not (base_comps == 1 and grown == 2)
        return any(base_comps < k <= grown for k in fork_sizes)

    def plan(fibres: Dict[str, List[int]]) -> Optional[Dict[int, List[str]]]:
        """The rungs this ordering splits, by index in rung order, each with
        its two copy labels; None when a rung that keeps taller structure
        would need splitting."""

        def adjacency(pen: int, u: str) -> int:
            group = fibres[u]
            pos = next(i for i, t in enumerate(group) if pen_of[t] == pen)
            return 1 if len(group) == 1 or pos in (0, len(group) - 1) else 2

        copies_of: Dict[int, List[str]] = {}
        for pen, tops_at in sorted(incident.items()):
            got = sum(adjacency(pen, u) for u in tops_at)
            if got > len(tops_at) and bump_matters(pen, got, len(tops_at)):
                if has_taller(pen):
                    # a copy cannot stand in for the taller continuations, so
                    # this arrangement cannot work; try another ordering
                    return None
                copies_of[pen] = [f"{tree.labels[pen]}%{j}" for j in (1, 2)]
        return copies_of

    def ladder(u: str, i: int, p: int, q: int, meet: int, edges: list) -> List[str]:
        """The chevron elements w@u:i.j that glue the branches below the tops
        p and q of fibre u, one per level from two above their meet to one
        below the tops; element j covers element j - 1 and both branches at
        height meet + j. Their covers go to ``edges``."""
        bottom = tree.heights[meet]
        # distinct tops with the same image never cover their meet
        assert tree.heights[p] - bottom >= 2
        labels = [f"w@{u}:{i}.{j}" for j in range(1, tree.heights[p] - bottom - 1)]
        # the two branches, each the chain below its top listed by height
        chains = [sorted(_bits(tree.down_mask(t)), key=tree.heights.__getitem__) for t in (p, q)]
        for j, lab in enumerate(labels, start=1):
            if j > 1:
                edges.append((labels[j - 2], lab))
            edges.extend((tree.labels[chain[bottom + j]], lab) for chain in chains)
        return labels

    def build_ladders():
        labels = list(tree.labels)
        edges = [(tree.labels[i], tree.labels[j]) for i, j in _cover_pairs(tree)]
        mapping = {lab: last(lab) for lab in labels}
        trace = list(base_trace)
        for u in fibre_names:
            group = lex_fibres[u]
            added: List[str] = []
            for i, (p, q) in enumerate(zip(group, group[1:]), start=1):
                meet = _tree_meet(tree, p, q)
                rungs = ladder(u, i, p, q, meet, edges)
                if not rungs:  # adjacent ranks: a single bridge over the meet
                    rungs = [f"w@{u}:{i}g"]
                    edges.append((tree.labels[meet], rungs[0]))
                added += rungs
                edges.append((rungs[-1], tree.labels[p]))
                edges.append((rungs[-1], tree.labels[q]))
            labels += added
            mapping.update(dict.fromkeys(added, u))
            if added:
                trace.append({"step": "ladder", "top": u, "added_elements": added})
        return _assembled(labels, edges, mapping, poset, trace), tree.labels, {}

    def build_chevrons(fibres, copies_of, orient):
        """The tree without its tops or split rungs, plus the rungs' copies and
        each fibre's chevrons; a top takes its rung, or the rung's copies in
        turn, from the second when ``orient`` says so."""
        removed = {tree.labels[pen] for pen in copies_of}
        labels = [lab for lab in base_labels if lab not in removed]
        profiled = list(labels)
        edges = [(a, b) for a, b in base_edges if a not in removed and b not in removed]
        mapping = {lab: last(lab) for lab in labels}
        trace = base_trace + [
            {"step": "split_rung", "rung": tree.labels[pen], "added_elements": copy_labels}
            for pen, copy_labels in copies_of.items()
        ]
        consumed: Dict[Tuple[int, str], int] = {}

        def next_attachment(pen: int, u: str) -> str:
            copy_labels = copies_of.get(pen)
            if copy_labels is None:
                return tree.labels[pen]
            used = consumed.get((pen, u), 0)
            consumed[(pen, u)] = used + 1
            return copy_labels[(used + orient[(pen, u)]) % 2]

        for u in sorted(fibres):
            group = fibres[u]
            added: List[str] = []
            if len(group) == 1:
                added.append(f"w@{u}")
                edges.append((next_attachment(pen_of[group[0]], u), f"w@{u}"))
            for i, (p, q) in enumerate(zip(group, group[1:]), start=1):
                rungs = ladder(u, i, p, q, _tree_meet(tree, p, q), edges)
                top = f"w@{u}:{i}"
                added += rungs + [top]
                edges.extend((rung, top) for rung in rungs[-1:])
                edges.append((next_attachment(pen_of[p], u), top))
                edges.append((next_attachment(pen_of[q], u), top))
            # every copy of a split rung serves each of its incident tops
            for pen, copy_labels in copies_of.items():
                while u in incident[pen] and consumed.get((pen, u), 0) < len(copy_labels):
                    att = next_attachment(pen, u)
                    added.append(f"w@{u}!{att}")
                    edges.append((att, f"w@{u}!{att}"))
            labels += added
            mapping.update(dict.fromkeys(added, u))
            trace.append({"step": "chevron", "top": u, "added_elements": added})

        # copies of a split rung cover the same parents as the rung they split
        for pen, copy_labels in copies_of.items():
            for lab in copy_labels:
                edges.extend((tree.labels[par], lab) for par in tree.covers_down[pen])
                mapping[lab] = last(tree.labels[pen])
            labels += copy_labels
        split = {lab: len(incident[pen]) for pen, labs in copies_of.items() for lab in labs}
        return _assembled(labels, edges, mapping, poset, trace), profiled, split

    rejected = 0
    capped = False

    def candidates():
        """Each candidate after the input in turn, with the output labels
        whose profiles must match the input's and the number of tops each
        split-rung copy serves."""
        nonlocal rejected, capped
        yield build_ladders()
        arrangements = 0
        for order_bits in range(1 << min(len(fibre_names), 7)):
            fibres = order_fibres(order_bits)
            copies_of = plan(fibres)
            if copies_of is None:
                rejected += 1
                continue
            keys = sorted((pen, u) for pen in copies_of for u in incident[pen])
            for vector in range(min(1 << len(keys), 256)):
                if arrangements == 4096:
                    capped = True
                    return
                arrangements += 1
                orient = {key: (vector >> bit) & 1 for bit, key in enumerate(keys)}
                yield build_chevrons(fibres, copies_of, orient)

    for verified, (result, profiled, split) in enumerate(candidates(), start=2):  # the input was 1
        failure = failure_of(result, profiled, split)
        if failure is None:
            return result
    raise ConstructionPostconditionFailed(
        f"no nervification candidate passed verification: {verified} verified, "
        f"{rejected} fibre orderings rejected by the rung plan, "
        f"{'stopped' if capped else 'not stopped'} by the cap of 4096 arrangements; "
        f"last failure: {failure}"
    )


def starlike_witness(poset: FinitePoset, lambdas: Iterable[Signature]) -> ConstructionResult:
    """The full pipeline: gradify (choosing the regime by whether Scott's
    signature is an axiom), then nervify. The result maps onto the input and
    stays valid on every iterated nerve, which the verifier's upset and
    diamond checks decide (see ``_verify``); no nerve is built."""
    lambdas = set(lambdas)
    step_one = (
        gradify_with_scott(poset, lambdas)
        if SCOTT in lambdas
        else gradify_without_scott(poset, lambdas)
    )
    step_two = nervify(step_one.output, lambdas)
    witness = compose(step_two.witness, step_one.witness)
    result = ConstructionResult(
        step_two.output, witness, step_one.trace + step_two.trace
    )
    _verify(result, poset, upsets=lambdas, diamonds=lambdas)
    return result
