"""The benchmark's view of the package: one attribute per public call.

An untraced ``Library`` binds each attribute to the package function itself,
so the timed loop pays nothing extra. A traced one wraps each function in a
span named ``<module>.<function>[.<qualifier>]``; spans are kept in memory by
a ``Tracer`` and written out when the run ends. Until the package records
spans of its own, time in ``exactla``, ``signatures`` and other internals
counts toward the public function that called them.
"""
from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from polynerve import cli, constructions, formulas, geometry, morphisms, nerves, posets, semantics, starlike
from polynerve.errors import PolynerveError


def _found(result) -> int:
    return int(result is not None)


def _entries():
    """attribute -> (span name, function, optional (size stat, size of result))."""
    return {
        "poset_from_json": ("posets.from_json", posets.FinitePoset.from_json, None),
        "poset_to_json": ("posets.to_json", posets.FinitePoset.to_json, None),
        "is_graded": ("posets.is_graded", posets.is_graded, None),
        "parse_formula": ("formulas.parse_formula", formulas.parse_formula, None),
        "frame_validates": ("semantics.frame_validates", semantics.frame_validates, None),
        "validates_sfl": ("semantics.validates_sfl", semantics.validates_sfl, None),
        "is_alpha_connected": ("starlike.is_alpha_connected", starlike.is_alpha_connected, None),
        "is_alpha_nerve_connected": ("starlike.is_alpha_nerve_connected", starlike.is_alpha_nerve_connected, None),
        "nerve": ("nerves.nerve", nerves.nerve, ("elements", len)),
        "nerve_is_alpha_connected": ("nerves.nerve_is_alpha_connected", nerves.nerve_is_alpha_connected, None),
        "find_up_reduction_frame": ("morphisms.find_up_reduction.frame", morphisms.find_up_reduction, ("found", _found)),
        "find_up_reduction_nerve": ("morphisms.find_up_reduction.nerve", morphisms.find_up_reduction, ("found", _found)),
        "are_isomorphic": ("morphisms.are_isomorphic", morphisms.are_isomorphic, None),
        "is_up_reduction": ("morphisms.is_up_reduction", morphisms.is_up_reduction, None),
        "morphism_to_json": ("morphisms.PMorphism.to_json", morphisms.PMorphism.to_json, None),
        "morphism_from_json": ("morphisms.PMorphism.from_json", morphisms.PMorphism.from_json, None),
        "starlike_witness": ("constructions.starlike_witness", constructions.starlike_witness,
                             ("output_elements", lambda r: len(r.output))),
        "complex_from_json": ("geometry.from_json", geometry.RationalComplex.from_json, ("simplices", len)),
        "complex_to_json": ("geometry.to_json", geometry.RationalComplex.to_json, None),
        "barycentric_subdivision": ("geometry.barycentric_subdivision", geometry.barycentric_subdivision,
                                    ("simplices", len)),
        "geometric_realization": ("geometry.geometric_realization", geometry.geometric_realization,
                                  ("simplices", len)),
        "is_refinement": ("geometry.is_refinement", geometry.is_refinement, None),
        "face_poset": ("geometry.face_poset", geometry.face_poset, None),
        "elementary_farey": ("geometry.elementary_farey", geometry.elementary_farey, None),
        "is_unimodular_complex": ("geometry.is_unimodular_complex", geometry.is_unimodular_complex, None),
    }


class Tracer:
    """Spans in memory: (id, parent id, name, start ns, end ns, attributes)."""

    def __init__(self):
        self.spans: List[Optional[Tuple]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append((span_id, parent, name, time.perf_counter_ns(), None, attrs))
        self.stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        end = time.perf_counter_ns()
        if self.stack.pop() != span_id:
            raise RuntimeError("spans must nest")
        sid, parent, name, start, _, attrs = self.spans[span_id]
        self.spans[span_id] = (sid, parent, name, start, end, attrs)

    def wrap(self, name: str, fn: Callable, size: Optional[Tuple[str, Callable]]) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            span_id = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except PolynerveError:
                counts[name + ".refused"] += 1
                raise
            finally:
                self.close(span_id)
            if size is not None:
                counts[f"{name}.{size[0]}"] += size[1](result)
            return result

        return traced

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self milliseconds): span time minus direct children."""
        child_ns: Counter = Counter()
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Dict[str, List] = {}
        for span_id, _, name, start, end, _ in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start - child_ns[span_id]) / 1e6
        return {name: (calls, ms) for name, (calls, ms) in out.items()}


class Library:
    """The package's public calls as attributes, plain or traced.

    ``qualifier`` is appended to every span name; verification calls use a
    library qualified ``verify`` so they are kept apart from op calls."""

    def __init__(self, tracer: Optional[Tracer] = None, qualifier: str = ""):
        self.tracer = tracer
        for attr, (name, fn, size) in _entries().items():
            if tracer is not None:
                fn = tracer.wrap(f"{name}.{qualifier}" if qualifier else name, fn, size)
            setattr(self, attr, fn)

    def cli_main(self, argv: List[str]) -> int:
        if self.tracer is None:
            return cli.main(argv)
        return self.tracer.wrap(f"cli.main.{argv[0]}", cli.main, None)(argv)
