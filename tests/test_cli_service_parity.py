"""Contract: a local query subcommand answers exactly like the service.

``repro datalog|forever|inflationary ... --json`` must print the payload
a fresh :class:`~repro.service.EngineSession` returns for the request
``repro submit`` would send for the same flags — one query path, one
payload schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import _submit_body, build_arg_parser, main
from repro.runtime import RunContext
from repro.service import EngineSession, QueryRequest

PROGRAMS = Path(__file__).resolve().parent.parent / "examples" / "programs"


@pytest.fixture
def files(tmp_path):
    reach = tmp_path / "reach.ra"
    reach.write_text(
        "Cold := C\n"
        "C := C union rename[J->I](project[J]("
        "repair-key[I@P]((C minus Cold) join E)))\n"
    )
    reach_db = tmp_path / "reach.db.json"
    reach_db.write_text(json.dumps({"relations": {
        "C": {"columns": ["I"], "rows": [["a"]]},
        "Cold": {"columns": ["I"], "rows": []},
        "E": {"columns": ["I", "J", "P"],
              "rows": [["a", "b", 1], ["a", "c", 1], ["b", "c", 1]]},
    }}))
    pc_program = tmp_path / "pc.dl"
    pc_program.write_text(
        "r(q0).\nr(Y) :- r(X), o(X, Y), cl(Y, L), a(L).\ndone(x) :- r(q1).\n"
    )
    pc_db = tmp_path / "pc.db.json"
    pc_db.write_text(json.dumps({"relations": {
        "o": {"columns": ["C1", "C2"], "rows": [["q0", "q1"]]},
        "cl": {"columns": ["C", "L"], "rows": [["q1", "v1"]]},
    }}))
    pc_tables = tmp_path / "pc.json"
    pc_tables.write_text(json.dumps({
        "variables": {"x1": {"values": [0, 1], "weights": [1, 3]}},
        "tables": {"a": {"columns": ["L"], "entries": [
            {"row": ["v1"], "condition": {"var": "x1", "equals": 1}},
            {"row": ["nv1"], "condition": {"var": "x1", "not_equals": 1}},
        ]}},
    }))
    return {
        "walk": str(PROGRAMS / "random_walk.ra"),
        "walk_db": str(PROGRAMS / "random_walk.db.json"),
        "two": str(PROGRAMS / "two_walkers.ra"),
        "two_db": str(PROGRAMS / "two_walkers.db.json"),
        "det": str(PROGRAMS / "deterministic_reach.ra"),
        "det_db": str(PROGRAMS / "deterministic_reach.db.json"),
        "dl": str(PROGRAMS / "reachability.dl"),
        "dl_db": str(PROGRAMS / "reachability.db.json"),
        "reach": str(reach),
        "reach_db": str(reach_db),
        "pc_dl": str(pc_program),
        "pc_db": str(pc_db),
        "pc": str(pc_tables),
    }


WALK = ["forever", "{walk}", "--db", "{walk_db}", "--event", "C(b)"]
MCMC = ["--mcmc", "--samples", "120", "--burn-in", "10", "--seed", "7"]

CASES = {
    "forever-exact": WALK,
    "forever-lumped": WALK + ["--lumped"],
    "forever-mcmc": WALK + MCMC,
    "forever-sparse": WALK + ["--backend", "sparse"],
    "forever-fallback-auto": WALK + ["--fallback", "auto", "--max-states", "1"],
    "forever-partition": [
        "forever", "{two}", "--db", "{two_db}", "--event", "C(b)",
        "--partition", "auto",
    ],
    "forever-columnar": WALK + MCMC + ["--backend", "columnar"],
    "inflationary-exact": [
        "inflationary", "{reach}", "--db", "{reach_db}", "--event", "C(c)",
    ],
    "inflationary-sampling": [
        "inflationary", "{reach}", "--db", "{reach_db}", "--event", "C(c)",
        "--samples", "80", "--seed", "3",
    ],
    "datalog-exact": ["datalog", "{dl}", "--db", "{dl_db}", "--event", "c(c)"],
    "datalog-sampling": [
        "datalog", "{dl}", "--db", "{dl_db}", "--event", "c(c)",
        "--samples", "80", "--seed", "3",
    ],
    "datalog-pc": [
        "datalog", "{pc_dl}", "--db", "{pc_db}", "--pc", "{pc}",
        "--event", "done(x)",
    ],
    "forever-mcmc-ph001": [
        "forever", "{det}", "--db", "{det_db}", "--event", "C(c)",
    ] + MCMC,
}


@pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
def test_cli_prints_the_service_payload(files, capsys, argv):
    argv = [part.format(**files) for part in argv]
    assert main(argv + ["--json"]) == 0
    local = json.loads(capsys.readouterr().out)

    args = build_arg_parser().parse_args(["submit", *argv])
    request = QueryRequest.from_json(_submit_body(args))
    session = EngineSession.prepare(request)
    session.check_event(request.event)
    # Like a scheduler worker: every job runs under its own context.
    context = RunContext(request.make_budget())
    served = session.evaluate(request, context)
    served = json.loads(json.dumps(served, default=str))
    assert local == served
