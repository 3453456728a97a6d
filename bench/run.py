"""Benchmark of the ribbonpoly command line on seeded workloads.

    python3 bench/run.py                     # every workload, one process each
    python3 bench/run.py --workload compute-large --seed 1 --seconds 20 \\
        --trace 0

A run drives ``ribbonpoly.cli.main`` in-process the way a user's shell
would, in a closed loop: one call at a time, no threads.  It repeats whole
rounds of the same calls until ``--seconds`` have passed, then checks the
outputs apart from the program (``checks.py``).  Call times are scaled to a
reference machine speed, measured between calls by ``probe()``.  With
``--trace 1`` it runs one untraced round, then traced rounds, and reports
per-layer figures (``spans.py``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it names every end-to-end figure of the
workload, per command.

The program is imported from ``src/`` of the checkout that holds this
directory; there is nothing to build.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("compute-large", "corpus-sweep", "specialize")
METHODS = ("statesum", "delcon", "quasitree")
TARGETS = ("krushkal", "surface-tutte", "classical-tutte")
CORPUS_MAX_EDGES, CORPUS_RANDOM = 3, 3
SETUP_REPEATS = 15
# the probe loop's time at the reference speed; see probe()
PROBE_REF_S = 1e-3


@dataclass
class Call:
    kind: str          # statesum, validate, surface_tutte, ...
    label: str         # the input it ran on
    argv: list
    rc: object = None  # exit code, or the exception it raised
    out: str = ""
    wall: float = 0.0     # wall time of the call
    seconds: float = 0.0  # wall time scaled to the reference speed
    work: dict = field(default_factory=dict)  # traced counts of this call


def invoke(main, argv: list) -> tuple[object, str, float]:
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = main(argv)
    except Exception as ex:  # a crash fails this call, not the run
        rc = f"{type(ex).__name__}: {ex}"
    return rc, out.getvalue(), perf_counter() - start


def probe() -> float:
    """Best of three timings of a fixed pure-Python loop.

    The machine's speed was seen to switch between two levels about 40%
    apart every few seconds (this loop, timed in 2-second windows, read 0.63
    to 1.11 of its median).  Timing the loop between calls and scaling each
    call's time by ``PROBE_REF_S / probe`` removes most of that, while a
    slower program still reads slower: the loop runs no program code."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        d: dict = {}
        for i in range(3000):
            k = (i % 97, "e", i & 3)
            d[k] = d.get(k, 0) + 1
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes around it."""
    return seconds * PROBE_REF_S * 2 / (before + after)


def round_calls(workload: str, inputs: list, work: Path, seed: int):
    """The calls of one round, in order.  A generator, so that corpus-sweep
    lists the emitted files after the `corpus` call has run."""
    if workload == "compute-large":
        for inp in inputs:
            for m in METHODS:
                yield Call(m, inp.name, ["compute", str(inp.path), "--method",
                                         m, "--format", "structured"])
    elif workload == "specialize":
        for inp in inputs:
            for t in TARGETS:
                yield Call(t.replace("-", "_"), inp.name,
                           ["specialize", str(inp.path), "--target", t,
                            "--format", "structured"])
    else:
        out = work / "corpus"
        shutil.rmtree(out, ignore_errors=True)
        yield Call("corpus", "corpus",
                   ["corpus", "--max-edges", str(CORPUS_MAX_EDGES),
                    "--random", str(CORPUS_RANDOM), "--seed", str(seed),
                    "--out", str(out)])
        for f in sorted(out.glob("*.rg")):
            yield Call("validate", f.name, ["validate", str(f), "--orders",
                                            "3", "--seed", str(seed)])


def run_round(calls, main, tracer=None) -> list[Call]:
    done = []
    speed = probe()
    for call in calls:
        if tracer is not None:
            tracer.op += 1
            before = tracer.snapshot()
        call.rc, call.out, call.wall = invoke(main, call.argv)
        now = probe()
        call.seconds = scaled(call.wall, speed, now)
        speed = now
        if tracer is not None:
            after = tracer.snapshot()
            call.work = {"delcon_nodes": after[0]["invariants.pst_delcon"]
                         - before[0]["invariants.pst_delcon"],
                         "subsets": after[3]["subsets"] - before[3]["subsets"]}
        done.append(call)
    return done


def setup_once(paths: list[Path]) -> float:
    """Import the program afresh and parse every input once."""
    for name in [k for k in sys.modules
                 if k == "ribbonpoly" or k.startswith("ribbonpoly.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("ribbonpoly.cli")
    parse = importlib.import_module("ribbonpoly.fileformat").parse
    for p in paths:
        parse(p.read_text())
    return perf_counter() - start


def check(workload: str, calls: list[Call], inputs: list, work: Path,
          main) -> list:
    import checks

    def run_cli(argv):
        rc, out, _ = invoke(main, argv)
        return rc, out

    if workload == "compute-large":
        return checks.compute_large(calls, inputs, run_cli, work)
    if workload == "specialize":
        return checks.specialize(calls, inputs)
    return checks.corpus_sweep(calls, sorted((work / "corpus").glob("*.rg")),
                               1 + CORPUS_RANDOM, CORPUS_MAX_EDGES, 4)


def tally(rounds: list[list[Call]], reasons: list) -> tuple[int, int, bool]:
    """(attempted, failed, correct) against the checked first round."""
    ref = rounds[0]
    attempted = failed = 0
    correct = not any(reasons)
    for r in rounds:
        attempted += len(r)
        for i, call in enumerate(r):
            same = (i < len(ref) and call.label == ref[i].label
                    and call.out == ref[i].out)
            if call.rc != 0 or not same or reasons[i]:
                failed += 1
            if call.rc == 0 and not same:
                correct = False
    for why in filter(None, reasons):
        print(f"check failed: {why}", file=sys.stderr)
    return attempted, failed, correct


def round_seconds(rounds: list[list[Call]], kind: str | None = None,
                  wall: bool = False) -> float:
    """Mean scaled (or wall) time of one round, or of its calls of one kind.

    A mean, not a median: what the probe leaves of the machine's two speed
    levels is averaged, where a median of a few rounds would follow
    whichever level held most of them."""
    return statistics.fmean(sum(c.wall if wall else c.seconds for c in r
                                if kind is None or c.kind == kind)
                            for r in rounds)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, setups, rss_mb) -> tuple[dict, dict]:
    """(metrics of the final line, per-command figures of the line before)."""
    per_command = {f"{kind}_s": metric(round_seconds(rounds, kind), "s")
                   for kind in dict.fromkeys(c.kind for c in rounds[0])}
    metrics = {"setup_s": metric(statistics.median(setups), "s"),
               "round_s": metric(round_seconds(rounds), "s"),
               "peak_rss_mb": metric(rss_mb, "MB")}
    wall = {"wall_round_s": metric(round_seconds(rounds, wall=True), "s")}
    return metrics, {**per_command, **metrics, **wall}


def per_layer(marks: list) -> tuple[dict, bool]:
    """Per-layer figures per round, from tracer snapshots taken between
    traced rounds; also whether the counts repeated in every round."""
    import spans

    diffs = [[b - a for a, b in zip(start, end)]
             for start, end in zip(marks, marks[1:])]
    calls, counts = diffs[0][0], diffs[0][3]
    repeat = all(d[0] == calls and d[3] == counts for d in diffs)
    total = [b - a for a, b in zip(marks[0], marks[-1])]
    self_s = {k: v / len(diffs) for k, v in total[1].items()}
    outer_s = {k: v / len(diffs) for k, v in total[2].items()}

    out = {}
    for name in (*spans.SPANS, "cli.main"):
        out[f"{name}.calls"] = metric(calls[name], "count")
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    for name in spans.GENERATORS:
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")

    def per(seconds, n):
        return metric(seconds / n * 1e6 if n else 0.0, "us")

    nodes = calls["invariants.pst_delcon"]
    distinct = counts["delcon_distinct_minors"]
    out.update({
        "invariants.subsets": metric(counts["subsets"], "count"),
        "invariants.us_per_subset": per(
            outer_s.get("invariants.pst_state_sum", 0.0), counts["subsets"]),
        "invariants.delcon_nodes": metric(nodes, "count"),
        "invariants.delcon_distinct_minors": metric(distinct, "count"),
        "invariants.delcon_distinct_ratio": metric(
            distinct / nodes if nodes else 0.0, "ratio"),
        "invariants.us_per_delcon_node": per(
            outer_s.get("invariants.pst_delcon", 0.0), nodes),
        "invariants.quasitrees": metric(counts["quasitrees"], "count"),
        "invariants.us_per_quasitree": per(
            outer_s.get("invariants.pst_quasitree", 0.0),
            counts["expansion_quasitrees"]),
        "invariants.corpus_candidates": metric(calls["ribbon.certificate"],
                                               "count"),
        "invariants.corpus_graphs": metric(counts["corpus_graphs"], "count"),
        "invariants.certificates_per_graph": metric(
            calls["ribbon.certificate"] / counts["corpus_graphs"]
            if counts["corpus_graphs"] else 0.0, "ratio"),
    })
    return out, repeat


def consistent(calls: list[Call], inputs: list) -> bool:
    """Traced counts against the program's own and against 2^m."""
    edges = {inp.name: inp.edges for inp in inputs}
    ok = True
    for c in calls:
        if c.kind == "delcon" and c.rc == 0:
            want = json.loads(c.out)["counters"].get("delcon_nodes")
            if c.work["delcon_nodes"] != want:
                print(f"trace: {c.label} delcon nodes {c.work['delcon_nodes']}"
                      f" but the program counted {want}", file=sys.stderr)
                ok = False
        if c.kind == "statesum" and c.work["subsets"] != 2 ** edges[c.label]:
            print(f"trace: {c.label} visited {c.work['subsets']} subsets",
                  file=sys.stderr)
            ok = False
    return ok


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "ribbonpoly").rglob("*.py")))


def run(workload: str, seed: int, seconds: int, traced: bool,
        work: Path) -> dict:
    import gen

    inputs = gen.generate(workload, seed, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        took = setup_once([inp.path for inp in inputs])
        setups.append(scaled(took, before, probe()))
    cli = sys.modules["ribbonpoly.cli"]

    def rounds_until(deadline, main, tracer=None):
        """Whole rounds until the deadline, at least one; with a tracer,
        also its snapshots before, between and after the rounds."""
        rounds, marks = [], []
        while not rounds or perf_counter() < deadline:
            if tracer:
                marks.append(tracer.snapshot())
            rounds.append(run_round(round_calls(workload, inputs, work, seed),
                                    main, tracer))
        if tracer:
            marks.append(tracer.snapshot())
        return rounds, marks

    if not traced:
        rounds, _ = rounds_until(perf_counter() + seconds, cli.main)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reasons = check(workload, rounds[0], inputs, work, cli.main)
        attempted, failed, correct = tally(rounds, reasons)
        metrics, figures = end_to_end(rounds, setups, rss_mb)
        print(json.dumps({"workload": workload, "seed": seed,
                          "rounds": len(rounds), "attempted": attempted,
                          "failed": failed, "end_to_end": figures}))
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    import spans

    baseline = run_round(round_calls(workload, inputs, work, seed), cli.main)
    reasons = check(workload, baseline, inputs, work, cli.main)
    tracer = spans.Tracer()
    spans.install(tracer)
    main = tracer.span("cli.main", cli.main)
    tracer.on = True
    rest = seconds - sum(c.wall for c in baseline)
    rounds, marks = rounds_until(perf_counter() + rest, main, tracer)
    tracer.on = False
    attempted, failed, correct = tally([baseline] + rounds, reasons)
    metrics, repeat = per_layer(marks)
    if not repeat:
        print("trace: counts differ between traced rounds", file=sys.stderr)
    correct = correct and repeat and consistent(rounds[0], inputs)
    metrics["trace.overhead_ratio"] = metric(
        round_seconds(rounds) / round_seconds([baseline]), "ratio")
    metrics["src.lines"] = metric(src_lines(), "lines")
    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.tsv.gz")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: each in its own process)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ribbonpoly" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'ribbonpoly'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace",
                                 str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)

    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
