"""Benchmark of the polynerve package: seeded workloads, timed from outside.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs one workload (census, witness or geometry, see ``workloads.py``) in this
process, one op at a time in a closed loop, for ``--seconds`` of wall time
(and on until MIN_OPS ops were attempted and the workload's round of ops
is complete).
The package is imported from ``src/`` of the checkout holding this file.

``--trace 0`` times each op as a whole and reports the end-to-end metrics.
``--trace 1`` runs every op twice, plain then traced, and reports the time
of each public call (per-layer metrics), the tracing overhead measured on the
same ops, and a CLI parity sample. Both print a human-readable report and,
as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Every run writes ``perfbench/out/<workload>-seed<seed>-trace<t>.json`` with
run metadata and metrics, and the per-op answer log next to it as
``...-answers.jsonl``; ``compare.py`` diffs two runs. A traced run also
writes its spans as ``...-spans.jsonl``.

A wrong answer, a disagreement between two paths, or an exception that is not
a ``PolynerveError`` aborts the run with exit code 1 and no result line.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 11  # fresh interpreters timed for setup_s; the median is reported
SETUP_PREFIX = 64  # inputs built before the first op
CLI_SAMPLE = 3  # ops per workload also sent through polynerve.cli.main
TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it
HASH_SEED = "0"  # PYTHONHASHSEED of every run that does not set its own
MIN_OPS = 100  # an untraced run goes on past --seconds until it has this many ops,
OVERTIME = 4  # but never past this many times --seconds

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed and saved with the end-to-end metrics but not in the result line:
# it reads 0 on every workload as drawn (README.md).
REPORTED = {"fail_rate": "ratio"}

_CALL_STATS = {
    "morphisms.find_up_reduction.nerve": ("calls", "ms", "found", "refused"),
    "morphisms.find_up_reduction.frame": ("calls", "ms", "found", "refused"),
    "starlike.is_alpha_connected": ("calls", "ms"),
    "starlike.is_alpha_nerve_connected": ("calls", "ms"),
    "nerves.nerve_is_alpha_connected": ("calls", "ms"),
    "semantics.frame_validates": ("calls", "ms"),
    "formulas.parse_formula": ("calls", "ms"),
    "nerves.nerve": ("calls", "ms", "elements"),
    "constructions.starlike_witness": ("calls", "ms", "refused", "output_elements"),
    "semantics.validates_sfl": ("calls", "ms"),
    "posets.from_json": ("calls", "ms"),
    "posets.to_json": ("calls", "ms"),
    "morphisms.PMorphism.to_json": ("calls", "ms"),
    "morphisms.are_isomorphic": ("calls", "ms", "refused"),
    "geometry.from_json": ("calls", "ms", "simplices"),
    "geometry.barycentric_subdivision": ("calls", "ms", "simplices"),
    "geometry.geometric_realization": ("calls", "ms", "simplices"),
    "geometry.is_refinement": ("calls", "ms"),
    "geometry.face_poset": ("calls", "ms"),
    "geometry.elementary_farey": ("calls", "ms"),
    "geometry.is_unimodular_complex": ("calls", "ms"),
    "geometry.to_json": ("calls", "ms"),
    "posets.from_json.verify": ("calls", "ms"),
    "morphisms.PMorphism.from_json.verify": ("calls", "ms"),
    "morphisms.is_up_reduction.verify": ("calls", "ms"),
    "posets.is_graded.verify": ("calls", "ms"),
    "starlike.is_alpha_nerve_connected.verify": ("calls", "ms"),
    "nerves.nerve_is_alpha_connected.verify": ("calls", "ms"),
    "cli.main.census": ("calls", "ms"),
    "cli.main.jankov": ("calls", "ms"),
    "cli.main.witness": ("calls", "ms"),
    "cli.main.subdivide": ("calls", "ms"),
    "cli.main.realize": ("calls", "ms"),
}
PER_LAYER = {
    f"{name}.{stat}": "ms" if stat == "ms" else "count" for name, stats in _CALL_STATS.items() for stat in stats
}
PER_LAYER.update({"bench.op.ms": "ms", "bench.fail_rate": "ratio", "trace.overhead_pct": "%"})


def check_declared() -> None:
    """BENCHMARK.json must declare exactly the metrics this file reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[key]}
        if theirs != ours:
            raise SystemExit(f"perfbench: BENCHMARK.json {key} disagrees with run.py: {sorted(set(theirs.items()) ^ set(ours.items()))}")


def import_package():
    """Import polynerve from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polynerve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polynerve package under {src}")
    sys.path.insert(0, str(src))
    import polynerve

    if Path(polynerve.__file__).resolve().parent != (src / "polynerve").resolve():
        raise SystemExit(f"perfbench: imported polynerve from {polynerve.__file__}, not {src}")
    sys.path.insert(0, str(BENCH_DIR))


def build_prefix(workload: str, seed: int):
    """Set-up: the stream and its first inputs, as a user would before the first op."""
    import workloads

    stream = workloads.stream(workload, seed)
    prefix = [next(stream) for _ in range(SETUP_PREFIX)]
    return stream, prefix


class SetupProbes:
    """setup_s: the median wall time of fresh interpreters that import the
    package and build the input prefix, then exit. The probes are spread
    over the run, one each time its share of ``seconds`` has passed, between
    ops and outside the op timer, so that one slow spell of the machine does
    not set the median."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
        self.seconds = seconds
        self.times = []

    def probe(self) -> None:
        started = time.perf_counter()
        subprocess.run(self.argv, check=True, cwd=ROOT)  # no timeout: waiting with one polls
        self.times.append(time.perf_counter() - started)

    def due(self, spent: float) -> None:
        while len(self.times) < SETUP_PROBES and spent >= len(self.times) * self.seconds / SETUP_PROBES:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def percentile_ms(latencies_ns, q: float):
    """Nearest-rank percentile, refused ops counting as +inf; None when fewer
    than TAIL_SAMPLES samples lie beyond it."""
    ordered = sorted(latencies_ns)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1] / 1e6


def input_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


class Run:
    """Everything one run records: per-op latencies, refusals and answers.
    The answer log goes straight to ``log`` (one JSON line per op), so the
    harness's own memory hardly grows with the number of ops."""

    def __init__(self, workload: str, seed: int, trace: bool, log):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.latencies_ns = []  # +inf for a refused op
        self.busy_ns = 0
        self.refusals = collections.Counter()
        self.kinds = collections.Counter()
        self.sizes = collections.Counter()
        self.log = log

    def record(self, op, elapsed_ns: int, out, refusal) -> None:
        self.busy_ns += elapsed_ns
        self.kinds[op.kind] += 1
        self.sizes[op.size] += 1
        entry = {"id": op.op_id, "kind": op.kind, "input": input_digest(op.text), "ms": elapsed_ns / 1e6}
        if refusal is None:
            self.latencies_ns.append(elapsed_ns)
            entry["answers"] = op.answers(out)
        else:
            self.latencies_ns.append(math.inf)
            self.refusals[refusal] += 1
            entry["refused"] = refusal
        self.log.write(json.dumps(entry, sort_keys=True) + "\n")

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return sum(self.refusals.values())

    def metadata(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "nproc": os.cpu_count(),
            "git": git_state(),
            "ops_per_kind": dict(sorted(self.kinds.items())),
            "input_size_histogram": {str(k): v for k, v in sorted(self.sizes.items())},
            "refusals_by_class": dict(sorted(self.refusals.items())),
        }


def git_state() -> dict:
    """SHA and dirty flag of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def run_op(op, lib):
    """(elapsed ns, output, refusal class or None); only library calls are timed."""
    from polynerve.errors import PolynerveError

    started = time.perf_counter_ns()
    try:
        out = op.run(lib)
    except PolynerveError as exc:
        return time.perf_counter_ns() - started, None, type(exc).__name__
    return time.perf_counter_ns() - started, out, None


def untraced_run(run: Run, ops, seconds: float, probes: SetupProbes) -> None:
    """Ops until ``seconds`` have passed and at least MIN_OPS were attempted,
    so that op_p90_ms has TAIL_SAMPLES samples beyond it, and on to the end
    of a round, so that every run holds the same heavy ops."""
    from tracing import Library
    from workloads import ROUND

    lib = Library()
    started = time.monotonic()
    probes.due(0)
    for op in ops:
        elapsed, out, refusal = run_op(op, lib)
        if refusal is None:
            op.verify(lib, out)
        run.record(op, elapsed, out, refusal)
        spent = time.monotonic() - started
        probes.due(spent)
        ends_round = (op.op_id + 1) % ROUND[run.workload] == 0
        if spent >= seconds and run.attempted >= MIN_OPS and ends_round or spent >= OVERTIME * seconds:
            break


def traced_run(run: Run, ops, seconds: float):
    """Each op plain, then traced under a root span; returns the tracer and
    the plain busy time of the same ops."""
    from tracing import Library, Tracer
    from workloads import check

    tracer = Tracer()
    plain, traced, verifier = Library(), Library(tracer), Library(tracer, "verify")
    plain_ns = 0
    cli_done = collections.Counter()
    deadline = time.monotonic() + seconds
    for op in ops:
        elapsed, out, refusal = run_op(op, plain)
        plain_ns += elapsed
        span = tracer.open("bench.op", {"workload": run.workload, "op": op.op_id, "kind": op.kind})
        elapsed, traced_out, traced_refusal = run_op(op, traced)
        tracer.close(span)
        check(traced_refusal == refusal, f"op {op.op_id}: traced and plain runs refuse differently")
        if refusal is None:
            check(op.answers(traced_out) == op.answers(out), f"op {op.op_id}: traced and plain answers differ")
            op.verify(verifier, traced_out)
            if cli_done[op.kind] < CLI_SAMPLE and op.cli_argv("in", "out") is not None:
                cli_parity(op, traced_out, traced)
                cli_done[op.kind] += 1
        run.record(op, elapsed, traced_out, traced_refusal)
        if time.monotonic() >= deadline:
            break
    if run.workload == "census":
        census_cli_parity(run.seed, traced)
    return tracer, plain_ns


def cli_parity(op, out, lib) -> None:
    """Send the op's input through the CLI verb in-process, via temp files."""
    from workloads import check

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        src, dst = Path(tmp, "input.json"), Path(tmp, "output.json")
        src.write_text(op.text, encoding="utf-8")
        code = lib.cli_main(op.cli_argv(str(src), str(dst)))
        check(code in (0, 1), f"op {op.op_id}: the CLI exited {code}")
        check(op.cli_agrees(out, dst.read_text(encoding="utf-8")), f"op {op.op_id}: the CLI and the library disagree")


def census_cli_parity(seed: int, lib) -> None:
    """The census verb samples its own frames; recompute its table through the
    library and require the same rows."""
    import csv
    import random

    from polynerve import is_alpha_connected, is_alpha_nerve_connected, random_rooted_poset, validates_jankov
    from polynerve.starlike import starlike_tree
    from workloads import CENSUS_ALPHAS, SEARCH_BUDGET, check

    alphas = ",".join(a.text() for a in CENSUS_ALPHAS)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        dst = Path(tmp, "census.csv")
        argv = ["census", "--size", "7", "--samples", str(CLI_SAMPLE), "--seed", str(seed), "--lambda", alphas, "-o", str(dst)]
        check(lib.cli_main(argv) == 0, "the census verb failed")
        rows = list(csv.DictReader(dst.read_text(encoding="utf-8").splitlines()))
    rng = random.Random(seed)
    expected = []
    for sample in range(CLI_SAMPLE):
        size = rng.randint(1, 7)
        poset = random_rooted_poset(size, rng)
        for alpha in CENSUS_ALPHAS:
            connected = is_alpha_connected(poset, alpha)
            jankov = validates_jankov(poset, starlike_tree(alpha), budget=SEARCH_BUDGET)
            nerve_connected = is_alpha_nerve_connected(poset, alpha)
            check(connected == jankov, f"census sample {sample}: characterisation disagrees with search")
            expected.append([str(v).lower() for v in (connected, jankov, nerve_connected)])
    got = [[row["connected"], row["jankov"], row["nerve_connected"]] for row in rows]
    check(got == expected, "the census verb and the library disagree")


def end_to_end(run: Run, setup_s: float) -> dict:
    """END_TO_END and REPORTED metrics; an unreportable percentile is None."""
    values = {
        "ops_per_s": (run.attempted - run.failed) / (run.busy_ns / 1e9),
        "op_p50_ms": percentile_ms(run.latencies_ns, 0.5),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p90_ms": percentile_ms(run.latencies_ns, 0.9),
        "fail_rate": run.failed / run.attempted,
    }
    missing = [name for name in END_TO_END if values[name] is None or math.isinf(values[name])]
    if missing:
        raise SystemExit(f"perfbench: too few ops to report {', '.join(missing)}; run longer")
    units = {**END_TO_END, **REPORTED}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def per_layer(run: Run, tracer, plain_ns: int) -> dict:
    values = dict.fromkeys(PER_LAYER, 0)
    for name, (calls, ms) in tracer.self_times().items():
        if name == "bench.op":
            values["bench.op.ms"] = ms
            continue
        values[f"{name}.calls"] = calls
        values[f"{name}.ms"] = ms
    for name, count in tracer.counts.items():
        values[name] = count
    values["bench.fail_rate"] = run.failed / run.attempted
    values["trace.overhead_pct"] = (run.busy_ns / plain_ns - 1) * 100
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def write_results(meta: dict, metrics: dict, tracer, stem: str) -> Path:
    path = OUT_DIR / f"{stem}.json"
    payload = {"metadata": meta, "metrics": metrics, "answers": f"{stem}-answers.jsonl"}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, attrs in tracer.spans:
                record = {"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                if attrs:
                    record.update(attrs)
                handle.write(json.dumps(record) + "\n")
    return path


def report(run: Run, meta: dict, metrics: dict, path: Path) -> None:
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"python {meta['python']}  nproc {meta['nproc']}  git {meta['git']['sha']}")
    print(f"ops {run.attempted} ({meta['ops_per_kind']})  refused {run.failed} {meta['refusals_by_class']}")
    for name, metric in metrics.items():
        if metric["value"] is None:
            print(f"{name} n/a (fewer than {TAIL_SAMPLES} samples beyond it)")
        elif metric["value"] or not run.trace:
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"results {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "witness", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    if args.setup_only:
        build_prefix(args.workload, args.seed)
        return 0
    check_declared()
    from workloads import WrongAnswer

    stream, prefix = build_prefix(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}-answers.jsonl", "w", encoding="utf-8") as log:
        run = Run(args.workload, args.seed, bool(args.trace), log)
        try:
            if args.trace:
                tracer, plain_ns = traced_run(run, itertools.chain(prefix, stream), args.seconds)
                metrics = per_layer(run, tracer, plain_ns)
            else:
                tracer = None
                probes = SetupProbes(args.workload, args.seed, args.seconds)
                untraced_run(run, itertools.chain(prefix, stream), args.seconds, probes)
                metrics = end_to_end(run, probes.median())
        except WrongAnswer as exc:
            print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
            return 1
    meta = run.metadata()
    path = write_results(meta, metrics, tracer, stem)
    report(run, meta, metrics, path)
    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: metrics[name] for name in (PER_LAYER if args.trace else END_TO_END)},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        # String hashing sets the iteration order of sets, which steers the
        # package's searches: the same tetrahedron op took 4.8 s under one
        # hash seed and 7.2 s under another. Re-exec under a fixed one.
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.exit(main())
