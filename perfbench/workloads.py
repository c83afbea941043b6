"""The three seeded workloads: input streams, ops and their correctness gates.

An op is one job done the way a library user does it: JSON text in, answer
out. ``Op.run`` holds only the library calls of that job and is what the
runner times; ``Op.verify`` holds the benchmark's own extra checks and runs
outside the timer. Every library call goes through a ``Library`` (see
``tracing.py``), so a traced run can time each call without touching the
package.

Each stream is generated lazily, so the same seed gives the same inputs
however far a run gets, and no input text repeats within a run. Where one op
can take seconds, the shapes come from a fixed sequence and the seed draws
their presentation (see README.md for why).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import string
from fractions import Fraction
from typing import Iterator, List, Optional

from polynerve import Signature
from polynerve.formulas import named_formula, print_formula
from polynerve.posets import COMPLETION_LABEL
from polynerve.randposets import random_rooted_poset
from polynerve.semantics import validates_sfl
from polynerve.starlike import starlike_tree

SEARCH_BUDGET = 10**6  # the CLI's default --budget
EDGE_PROBABILITY = 0.35
NERVE_CAP = 37  # most chains (nerve elements) of a census frame, see README.md
WITNESS_SIZES = (4, 6)  # the construction refuses some frames of 7 or more elements

CENSUS_ALPHAS = [Signature.parse(a) for a in ("2", "1^3", "2.1", "2^2", "3.1")]
CENSUS_FORMULAS = {
    "KC": print_formula(named_formula("KC")),
    "LC": print_formula(named_formula("LC")),
    "SL": print_formula(named_formula("SL")),
    "BW2": print_formula(named_formula("BW", 2)),
    "BC2": print_formula(named_formula("BC", 2)),
}
LAMBDA_POOLS = ["2.1", "1^3", "2.1,1^3", "2^2", "3.1,1^4"]
GEOMETRY_KINDS = ("subdivide", "realize", "farey")
TETRAHEDRON_EVERY = 20  # one subdivide op in 20 is a tetrahedron
FAREY_STEPS = 5
# "inf" is reserved: the package labels the synthetic top of a completion so.
LABELS = [
    label
    for label in ("".join(letters) for letters in itertools.product(string.ascii_lowercase, repeat=3))
    if label != COMPLETION_LABEL
]


class WrongAnswer(Exception):
    """Two independent paths disagree, or an output fails verification."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def _parse_lambdas(text: str) -> List[Signature]:
    return [Signature.parse(part) for part in text.split(",")]


def _bits(values) -> str:
    return "".join("1" if v else "0" for v in values)


class Op:
    """One input of a stream. ``size`` feeds the input-size histogram."""

    kind = ""

    def __init__(self, op_id: int, text: str, size: int):
        self.op_id = op_id
        self.text = text
        self.size = size

    def run(self, lib):
        raise NotImplementedError

    def answers(self, out) -> dict:
        """The mathematically determined answers, for the answer log."""
        raise NotImplementedError

    def verify(self, lib, out) -> None:
        """Checks beyond the op's own cross-checks, run outside the timer."""

    def cli_argv(self, input_path: str, output_path: str) -> Optional[List[str]]:
        """argv for the CLI verb that does the same job, or None."""
        return None

    def cli_agrees(self, out, cli_text: str) -> bool:
        return True


# -- census -------------------------------------------------------------------


class CensusOp(Op):
    """Nerve Criterion on one frame: characterisation against search on the
    frame and on its nerve, and five named formulas as text."""

    kind = "census"
    targets = {alpha: starlike_tree(alpha) for alpha in CENSUS_ALPHAS}

    def run(self, lib):
        frame = lib.poset_from_json(self.text)
        connected, jankov, nerve_connected, walked = [], [], [], []
        for alpha in CENSUS_ALPHAS:
            connected.append(lib.is_alpha_connected(frame, alpha))
            jankov.append(
                lib.find_up_reduction_frame(frame, self.targets[alpha], budget=SEARCH_BUDGET) is None
            )
            nerve_connected.append(lib.is_alpha_nerve_connected(frame, alpha))
            walked.append(lib.nerve_is_alpha_connected(frame, alpha))
        check(connected == jankov, f"op {self.op_id}: is_alpha_connected disagrees with search")
        check(nerve_connected == walked, f"op {self.op_id}: nerve-connectedness disagrees with the chain walk")
        nerve = lib.nerve(frame)
        on_nerve, nerve_jankov = [], []
        for alpha in CENSUS_ALPHAS:
            on_nerve.append(lib.is_alpha_connected(nerve, alpha))
            nerve_jankov.append(
                lib.find_up_reduction_nerve(nerve, self.targets[alpha], budget=SEARCH_BUDGET) is None
            )
        check(on_nerve == nerve_jankov, f"op {self.op_id}: is_alpha_connected(N) disagrees with search")
        check(on_nerve == walked, f"op {self.op_id}: the nerve disagrees with the chain walk")
        valid = [
            lib.frame_validates(frame, lib.parse_formula(text)) for text in CENSUS_FORMULAS.values()
        ]
        return {
            "connected": _bits(connected),
            "nerve_connected": _bits(nerve_connected),
            "nerve_elements": len(nerve),
            "valid": _bits(valid),
        }

    def answers(self, out) -> dict:
        return out

    def cli_argv(self, input_path, output_path):
        return ["jankov", "--target", "2.1", "-i", input_path, "-o", output_path]

    def cli_agrees(self, out, cli_text):
        scott = [a.text() for a in CENSUS_ALPHAS].index("2.1")
        return json.loads(cli_text)["result"] == (out["connected"][scott] == "1")


def _relabelled(poset, rng: random.Random, reorder: bool = True) -> str:
    """The poset as JSON under random three-letter labels, with cover edges
    and (when ``reorder``) elements listed in a random order. Element order
    fixes the package's internal indices, and so its search order."""
    names = dict(zip(poset.labels, rng.sample(LABELS, poset.n)))
    elements = [names[x] for x in poset.labels]
    edges = [[names[a], names[b]] for a, b in poset.cover_edges()]
    if reorder:
        rng.shuffle(elements)
    rng.shuffle(edges)
    return json.dumps({"elements": elements, "edges": edges})


def _fresh(seen: set, make) -> str:
    """An input text not yet in the stream: ``make`` draws a new presentation
    until one is new, so the sequence of shapes is never disturbed. ``seen``
    holds 8-byte digests, not texts, to keep the stream's memory small."""
    while True:
        text = make()
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        if digest not in seen:
            seen.add(digest)
            return text


def _balanced_sizes(rng: random.Random, low: int, high: int) -> Iterator[int]:
    """Sizes low..high, each once per block in a random order, so every
    stretch of the stream has nearly the same size mix."""
    while True:
        block = list(range(low, high + 1))
        rng.shuffle(block)
        yield from block


def census_stream(seed: int) -> Iterator[Op]:
    """Frame shapes follow one fixed sequence, so every run meets the same
    search-bound frames in the same order; the seed draws each frame's labels
    and element order. A frame whose nerve has more than NERVE_CAP elements
    is redrawn at the same size: its nerve search can exceed the budget."""
    shapes = random.Random("census/shapes")
    rng = random.Random(f"census/{seed}")
    seen: set = set()
    for op_id, size in enumerate(_balanced_sizes(shapes, 1, 7)):
        poset = random_rooted_poset(size, shapes, EDGE_PROBABILITY)
        while poset.count_chains() > NERVE_CAP:
            poset = random_rooted_poset(size, shapes, EDGE_PROBABILITY)
        yield CensusOp(op_id, _fresh(seen, lambda: _relabelled(poset, rng)), size)


# -- witness ------------------------------------------------------------------


class WitnessOp(Op):
    """Parse, check the starlike logic holds, build the graded nerve-connected
    witness and emit output and witness as JSON."""

    kind = "witness"

    def __init__(self, op_id, text, size, lambdas: str):
        super().__init__(op_id, text, size)
        self.lambdas = lambdas

    def run(self, lib):
        lambdas = _parse_lambdas(self.lambdas)
        frame = lib.poset_from_json(self.text)
        check(lib.validates_sfl(frame, lambdas), f"op {self.op_id}: set-up and op disagree on validity")
        result = lib.starlike_witness(frame, lambdas)
        return json.dumps(
            {
                "output": json.loads(lib.poset_to_json(result.output)),
                "witness": json.loads(lib.morphism_to_json(result.witness)),
            },
            sort_keys=True,
        )

    def answers(self, out) -> dict:
        return {"validates_sfl": True, "built": True}

    def verify(self, lib, out) -> None:
        """Criterion 6 on the emitted JSON: an up-reduction onto the input,
        graded, and alpha-nerve-connected both ways."""
        payload = json.loads(out)
        frame = lib.poset_from_json(self.text)
        output = lib.poset_from_json(json.dumps(payload["output"]))
        witness = lib.morphism_from_json(json.dumps(payload["witness"]), output, frame)
        check(lib.is_up_reduction(witness), f"op {self.op_id}: witness is not an up-reduction")
        check(set(witness.mapping.values()) == set(frame.labels), f"op {self.op_id}: witness is not onto the input")
        check(lib.is_graded(output) is not None, f"op {self.op_id}: output is not graded")
        for alpha in _parse_lambdas(self.lambdas):
            check(lib.is_alpha_nerve_connected(output, alpha), f"op {self.op_id}: output not {alpha}-nerve-connected")
            check(lib.nerve_is_alpha_connected(output, alpha), f"op {self.op_id}: nerve of output not {alpha}-connected")

    def cli_argv(self, input_path, output_path):
        return ["witness", "--lambda", self.lambdas, "-i", input_path, "-o", output_path]

    def cli_agrees(self, out, cli_text):
        payload = json.loads(cli_text)
        mine = json.loads(out)
        return payload["output"] == mine["output"] and payload["witness"] == mine["witness"]


def witness_stream(seed: int) -> Iterator[Op]:
    """Frames of 4-6 elements paired in rotation with the Lambda pools; set-up
    keeps only the pairs whose starlike logic holds on the frame."""
    rng = random.Random(f"witness/{seed}")
    seen: set = set()
    for op_id, size in enumerate(_balanced_sizes(rng, *WITNESS_SIZES)):
        lambdas = LAMBDA_POOLS[op_id % len(LAMBDA_POOLS)]
        poset = random_rooted_poset(size, rng, EDGE_PROBABILITY)
        while not validates_sfl(poset, _parse_lambdas(lambdas)):
            poset = random_rooted_poset(size, rng, EDGE_PROBABILITY)
        yield WitnessOp(op_id, _fresh(seen, lambda: _relabelled(poset, rng)), size, lambdas)


# -- geometry -----------------------------------------------------------------


def _complex_json(vertices, simplices) -> str:
    return json.dumps(
        {
            "dim": len(vertices[0]),
            "vertices": [[[c.numerator, c.denominator] for c in v] for v in vertices],
            "simplices": simplices,
        },
        sort_keys=True,
    )


def _all_faces(k: int) -> List[List[int]]:
    return [[i for i in range(k) if mask >> i & 1] for mask in range(1, 1 << k)]


def _determinant(rows) -> Fraction:
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _random_simplex(rng: random.Random, dim: int) -> List[tuple]:
    """dim+1 affinely independent points with coordinates p/q, |p| <= 6, q <= 4."""
    while True:
        verts = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(dim + 1)
        ]
        edges = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
        if _determinant(edges) != 0:
            return sorted(verts)


UNIT_TRIANGLE = _complex_json(
    [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
    _all_faces(3),
)


def _farey_steps(rng: random.Random) -> str:
    """The unit triangle and FAREY_STEPS choices of a simplex to subdivide."""
    steps = [rng.randrange(10**6) for _ in range(FAREY_STEPS)]
    return json.dumps({"complex": json.loads(UNIT_TRIANGLE), "steps": steps}, sort_keys=True)


class _ComplexOutputOp(Op):
    """An op whose output is a complex: its JSON is compared with the CLI's
    but kept out of the answer log, which holds determined answers only."""

    def answers(self, out) -> dict:
        return {k: v for k, v in out.items() if k != "json"}

    def cli_agrees(self, out, cli_text):
        return json.loads(cli_text) == json.loads(out["json"])


class SubdivideOp(_ComplexOutputOp):
    kind = "subdivide"

    def run(self, lib):
        complex_ = lib.complex_from_json(self.text)
        subdivided = lib.barycentric_subdivision(complex_)
        refines = lib.is_refinement(subdivided, complex_)
        check(refines, f"op {self.op_id}: the subdivision does not refine the complex")
        iso = lib.are_isomorphic(lib.face_poset(subdivided), lib.nerve(lib.face_poset(complex_)))
        check(iso is not None, f"op {self.op_id}: face poset of sd K is not the nerve of K")
        return {"simplices": len(subdivided), "refines": refines, "is_nerve": True,
                "json": lib.complex_to_json(subdivided)}

    def cli_argv(self, input_path, output_path):
        return ["subdivide", "-k", "1", "-i", input_path, "-o", output_path]


class RealizeOp(_ComplexOutputOp):
    kind = "realize"

    def run(self, lib):
        poset = lib.poset_from_json(self.text)
        realized = lib.geometric_realization(poset)
        text = lib.complex_to_json(realized)
        again = lib.complex_from_json(text)
        check(again == realized, f"op {self.op_id}: realization does not survive a JSON round trip")
        unimodular = lib.is_unimodular_complex(again)
        check(unimodular, f"op {self.op_id}: a standard-basis realization is not unimodular")
        return {"simplices": len(realized), "round_trip": True, "unimodular": unimodular, "json": text}

    def cli_argv(self, input_path, output_path):
        return ["realize", "-i", input_path, "-o", output_path]


class FareyOp(Op):
    kind = "farey"

    def run(self, lib):
        payload = json.loads(self.text)
        base = lib.complex_from_json(json.dumps(payload["complex"]))
        current = base
        for step in payload["steps"]:
            candidates = sorted(current.simplices, key=lambda s: s.label())
            current = lib.elementary_farey(current, candidates[step % len(candidates)])
        unimodular = lib.is_unimodular_complex(current)
        check(unimodular, f"op {self.op_id}: a Farey subdivision is not unimodular")
        refines = lib.is_refinement(current, base)
        check(refines, f"op {self.op_id}: Farey steps do not refine the triangle")
        again = lib.complex_from_json(lib.complex_to_json(current))
        check(again == current, f"op {self.op_id}: Farey complex does not survive a JSON round trip")
        return {"simplices": len(current), "unimodular": unimodular, "refines": refines, "round_trip": True}

    def answers(self, out) -> dict:
        return out


def _translated(vertices, rng: random.Random) -> List[tuple]:
    """The vertices moved by an integer vector with entries in -3..3. A
    translation keeps the vertex order, and with it the op's cost."""
    shift = [rng.randint(-3, 3) for _ in vertices[0]]
    return [tuple(c + k for c, k in zip(v, shift)) for v in vertices]


def geometry_stream(seed: int) -> Iterator[Op]:
    """A fixed rotation of subdivide, realize and farey ops.

    The ops that can take seconds follow fixed sequences, so every run meets
    the same ones: the tetrahedron, one fixed simplex that each round of the
    rotation presents under a new translation, and the shapes of the
    realized posets, which the seed only renames (element order fixes their
    coordinates, and so the isomorphism search order). Triangles, Farey
    steps and translations are drawn from the seed."""
    shapes = random.Random("geometry/shapes")
    rng = random.Random(f"geometry/{seed}")
    tetrahedron = None  # drawn from ``shapes`` when the first round needs it
    realize_sizes = _balanced_sizes(shapes, 3, 7)
    seen: set = set()
    for op_id in itertools.count():
        kind = GEOMETRY_KINDS[op_id % len(GEOMETRY_KINDS)]
        if kind == "subdivide" and (op_id // len(GEOMETRY_KINDS)) % TETRAHEDRON_EVERY == TETRAHEDRON_EVERY - 1:
            tetrahedron = tetrahedron or _random_simplex(shapes, 3)
            text = _fresh(seen, lambda: _complex_json(_translated(tetrahedron, rng), _all_faces(4)))
            yield SubdivideOp(op_id, text, 4)
        elif kind == "subdivide":
            yield SubdivideOp(op_id, _fresh(seen, lambda: _complex_json(_random_simplex(rng, 2), _all_faces(3))), 3)
        elif kind == "realize":
            poset = random_rooted_poset(next(realize_sizes), shapes, EDGE_PROBABILITY)
            yield RealizeOp(op_id, _fresh(seen, lambda: _relabelled(poset, rng, reorder=False)), poset.n)
        else:
            yield FareyOp(op_id, _fresh(seen, lambda: _farey_steps(rng)), FAREY_STEPS)


def stream(workload: str, seed: int) -> Iterator[Op]:
    if workload == "census":
        return census_stream(seed)
    if workload == "witness":
        return witness_stream(seed)
    if workload == "geometry":
        return geometry_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("census", "witness", "geometry")
# An untraced run ends only after an op whose id + 1 is a multiple of its
# workload's round: a geometry round holds one tetrahedron, the op that sets
# most of a run's time.
ROUND = {"census": 1, "witness": 1, "geometry": len(GEOMETRY_KINDS) * TETRAHEDRON_EVERY}
