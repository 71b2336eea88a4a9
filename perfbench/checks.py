"""Correctness checks of every answer the benchmark receives.

Each check returns a list of problems (empty when the answer is right).
Expectations come from the benchmark's own computations — the injected
defect, dependents from the declarations' free variables, the collecting
semantics — never from stored output of an earlier run.
"""

from __future__ import annotations

import json

MISSING_FIELD = "RP0001"
DEPENDENCY = "RP0006"
#: The one known fault (CHANGES.md, FOUND): a right rejection whose
#: RP0001 has no witness.
NO_WITNESS = "RP0001 without a witness"


def decl_diagnostics(report: dict) -> list[dict]:
    found = list(report.get("diagnostics") or [])
    for decl in report.get("decls") or []:
        found.extend(decl.get("diagnostics") or [])
    return found


def witness_problems(diagnostic: dict, label: str | None = None) -> list[str]:
    """An RP0001 witness runs from an ``empty`` step to a ``select`` of
    the diagnostic's label (Observation 1's empty-record→select path)."""
    problems = []
    want = diagnostic.get("label") if label is None else label
    if diagnostic.get("label") != want:
        problems.append(
            f"diagnostic label {diagnostic.get('label')!r}, expected {want!r}"
        )
    steps = diagnostic.get("witness") or []
    if not steps:
        return problems + [NO_WITNESS]
    if steps[0].get("kind") != "empty":
        problems.append(f"witness starts at {steps[0].get('kind')!r}")
    last = steps[-1]
    if last.get("kind") != "select" or f"`{want}`" not in str(
        last.get("description", "")
    ):
        problems.append(f"witness does not end at a select of {want!r}")
    return problems


def decoder_problems(report: dict, exit_code: int, decls: list[str],
                     defect, shadowed: frozenset[str]) -> list[str]:
    """A decoder module's answer: clean, or exactly the defect's shape.

    Clean: exit 0, every declaration ``ok``.  With a defect: exit 1, the
    injected declaration RP0001 with a witness on the injected label,
    exactly its transitive dependents RP0006, every other one ``ok``.
    """
    problems = []
    want_exit = 0 if defect is None else 1
    if exit_code != want_exit or bool(report.get("ok")) != (defect is None):
        problems.append(f"exit {exit_code} / ok={report.get('ok')}, "
                        f"expected exit {want_exit}")
    got = [d.get("decl") for d in report.get("decls") or []]
    if got != decls:
        return problems + [f"declarations {got}, expected {decls}"]
    for decl in report["decls"]:
        name = decl["decl"]
        if defect is not None and name == defect.decl:
            diagnostics = decl.get("diagnostics") or []
            if decl.get("code") != MISSING_FIELD or not diagnostics:
                problems.append(f"{name}: {decl.get('code')}, expected "
                                f"{MISSING_FIELD}")
            for diagnostic in diagnostics:
                if diagnostic.get("code") != MISSING_FIELD:
                    problems.append(f"{name}: diagnostic "
                                    f"{diagnostic.get('code')}")
                problems += [f"{name}: {p}" for p in
                             witness_problems(diagnostic, defect.label)]
        elif name in shadowed:
            if decl.get("code") != DEPENDENCY:
                problems.append(f"{name}: {decl.get('code')}, expected "
                                f"{DEPENDENCY}")
        elif decl.get("status") != "ok" or decl.get("code"):
            problems.append(f"{name}: {decl.get('status')} "
                            f"{decl.get('code')}, expected ok")
    return problems


def verdict_problems(report: dict, exit_code: int,
                     missing_path: bool) -> list[str]:
    """A verdict-mix answer against the collecting semantics.

    Accepted iff no path selects a missing field; a rejection carries
    RP0001 diagnostics (plus RP0006 on the users of a failed let-bound
    function), each with an empty→select witness on its label; an
    acceptance carries none.
    """
    accepted = bool(report.get("ok"))
    diagnostics = decl_diagnostics(report)
    if accepted == missing_path:
        return [f"verdict {'accept' if accepted else 'reject'}, "
                f"semantics says missing-field path={missing_path}"]
    if exit_code != (0 if accepted else 1):
        return [f"exit {exit_code} for ok={accepted}"]
    if accepted:
        return ["accepted with diagnostics"] if diagnostics else []
    problems = []
    codes = [d.get("code") for d in diagnostics]
    if MISSING_FIELD not in codes:
        problems.append(f"rejected without {MISSING_FIELD}: {codes}")
    for diagnostic in diagnostics:
        if diagnostic.get("code") == DEPENDENCY:
            continue  # a let-bound function that failed, seen by its user
        if diagnostic.get("code") != MISSING_FIELD:
            problems.append(f"rejection code {diagnostic.get('code')}")
            continue
        problems += witness_problems(diagnostic)
    return problems


def is_known_fault(problems: list[str]) -> bool:
    """Whether an answer's only fault is the known one: every problem is
    a missing witness (the verdict, codes and labels are right)."""
    return bool(problems) and set(problems) == {NO_WITNESS}


def report_bytes(report: dict) -> str:
    """The CLI's rendering (``CheckReport.to_json``), for byte comparison."""
    return json.dumps(report, indent=2, sort_keys=True)


def served_problems(served: dict, offline_json: str,
                    offline_exit: int) -> list[str]:
    """A served answer against an offline ``repro.api.check_source``."""
    problems = []
    if report_bytes(served["report"]) != offline_json:
        problems.append("served report differs from offline")
    if served.get("exit") != offline_exit:
        problems.append(f"served exit {served.get('exit')}, "
                        f"offline {offline_exit}")
    return problems


def resend_problems(served: dict, previous: dict) -> list[str]:
    """An unchanged re-send replays the previous answer from the cache."""
    problems = []
    if served.get("cached") is not True:
        problems.append("re-send not answered from the replay cache")
    if report_bytes(served["report"]) != report_bytes(previous["report"]):
        problems.append("re-send answer differs from the previous answer")
    return problems


def reconcile_problems(stats_before: dict, stats_after: dict,
                       attempts: int, resends: int) -> list[str]:
    """The client's counts against the fleet's ``stats`` (deltas)."""

    def checks(stats: dict) -> int:
        return sum((stats.get("requests", {}).get("check") or {}).values())

    def hits(stats: dict) -> int:
        return int(stats.get("sessions", {}).get("hits", 0))

    def routed(stats: dict, shard: str) -> int:
        return int(stats.get("router", {}).get("routed", {}).get(shard, 0))

    problems = []
    served = checks(stats_after) - checks(stats_before)
    if served != attempts:
        problems.append(f"client attempted {attempts} checks, fleet "
                        f"counted {served}")
    replayed = hits(stats_after) - hits(stats_before)
    if replayed != resends:
        problems.append(f"client re-sent {resends}, fleet replayed "
                        f"{replayed}")
    for shard in ("0", "1"):
        if routed(stats_after, shard) - routed(stats_before, shard) <= 0:
            problems.append(f"shard {shard} served no traffic")
    return problems
