"""Self-test of the seeded corpus generator and its reference evaluators.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

Checks, for every workload, that the same seed gives byte-identical
requests and identical references, that another seed gives a different
corpus, and cross-checks the two shortcuts the references take against
the library's own exact evaluators:

* the edge-weight stepping behind sampling references against
  ``event_probability_series``;
* the independence combination for split programs against
  ``evaluate_forever_exact`` on the whole two-walker program.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import corpus  # noqa: E402


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def main() -> int:
    for workload in corpus.WORKLOADS:
        first = corpus.build_corpus(workload, corpus.DEFAULT_SEED)
        again = corpus.build_corpus(workload, corpus.DEFAULT_SEED)
        other = corpus.build_corpus(workload, corpus.DEFAULT_SEED + 1)
        check([r.payload for r in first.requests] == [r.payload for r in again.requests]
              and [r.check for r in first.requests] == [r.check for r in again.requests],
              f"{workload}: same seed, byte-identical requests and references")
        check(first.digest() == again.digest(), f"{workload}: same seed, same digest")
        check(first.digest() != other.digest(), f"{workload}: another seed, another corpus")

    digests = {
        subprocess.run(
            [sys.executable, "-c", "import corpus; print([corpus.build_corpus(w, "
             f"{corpus.DEFAULT_SEED}).digest() for w in corpus.WORKLOADS])"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": os.pathsep.join(sys.path[:2])},
            capture_output=True, text=True, check=True).stdout
        for hash_seed in ("1", "2")
    }
    check(len(digests) == 1, "same seed, same corpora across processes (hash seeds 1, 2)")

    from repro.core import ForeverQuery, evaluate_forever_exact, parse_event
    from repro.core.evaluation.series import event_probability_series
    from repro.io import database_from_json
    from repro.relational import parse_interpretation

    rng = random.Random(0)
    graph = corpus.random_digraph(rng, 6, 2)
    db = corpus.database(graph, {"C": [graph.nodes[0]]})
    query = ForeverQuery(parse_interpretation(corpus.walk_program("C")),
                         parse_event(f"C({graph.nodes[3]})"))
    series = event_probability_series(query, database_from_json(db), 12)
    stepped = [graph.after(graph.nodes[0], t).get(graph.nodes[3], Fraction(0))
               for t in range(13)]
    check(series == stepped, "edge-weight stepping equals event_probability_series")

    graph = corpus.random_digraph(rng, 5, 2)
    c0, d0 = graph.nodes[0], graph.nodes[2]
    db = corpus.database(graph, {"C": [c0], "D": [d0]})
    per_walker = {name: corpus.StateDistribution("forever", corpus.walk_program("C"),
                                                 corpus.database(graph, {"C": [start]}))
                  for name, start in (("C", c0), ("D", d0))}
    x, y = graph.nodes[1], graph.nodes[4]
    px = per_walker["C"].probability(f"C({x})")
    py = per_walker["D"].probability(f"C({y})")
    kernel = parse_interpretation(corpus.walk_program("CD"))
    for event, combined in ((f"C({x}) and D({y})", px * py),
                            (f"C({x}) or D({y})", px + py - px * py)):
        whole = evaluate_forever_exact(ForeverQuery(kernel, parse_event(event)),
                                       database_from_json(db)).probability
        check(whole == combined, f"independence combination equals whole-program exact: {event}")
    print(f"held-out seed for re-checking claims: {corpus.HELD_OUT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
