"""``run.py selftest``: the benchmark checks its own checks.

Runs every workload at a tiny size (timed and traced), then feeds each
correctness check a real answer — which it must accept — and a
deliberately wrong copy of it, which it must reject.
"""

from __future__ import annotations

import copy
import os
import shutil
import time

import checks
import inputs
from workloads import TINY, WORKLOADS, verdict_mix


def _case(results: list, name: str, accepts: list[str],
          rejects: list[str]) -> None:
    ok = not accepts and bool(rejects)
    results.append(ok)
    state = "ok  " if ok else "FAIL"
    detail = rejects[0] if rejects else "wrong answer accepted"
    if accepts:
        detail = f"real answer rejected: {accepts[0]}"
    print(f"{state} {name}: {detail}")


def _decoder_mutations(results: list, answers: list) -> None:
    for _, report, case, decls in answers:
        if case.defect is None or not case.shadowed:
            continue
        real = report.report
        check = lambda r: checks.decoder_problems(  # noqa: E731
            r, report.exit_code, decls, case.defect, case.shadowed)
        missing = copy.deepcopy(real)
        for decl in missing["decls"]:
            if decl["decl"] in case.shadowed:
                decl.update(status="ok", code=None, diagnostics=[])
                break
        _case(results, "decoder-cold: dependent without RP0006",
              check(real), check(missing))
        wrong = copy.deepcopy(real)
        for decl in wrong["decls"]:
            if decl["decl"] == case.defect.decl:
                decl["diagnostics"][0]["witness"].reverse()
        _case(results, "decoder-cold: witness not empty->select",
              check(real), check(wrong))
        return
    results.append(False)
    print("FAIL decoder-cold: no defect with dependents in the tiny run")


def _verdict_mutations(results: list, answers: list) -> None:
    done = set()
    for _, report, program in answers:
        kind = "reject" if program.missing_path else "accept"
        if kind in done:
            continue
        done.add(kind)

        def check(r, exit_code):
            return checks.verdict_problems(r, exit_code,
                                           program.missing_path)

        flipped = copy.deepcopy(report.report)
        flipped["ok"] = not flipped["ok"]
        _case(results, f"verdict-mix: flipped {kind} verdict",
              check(report.report, report.exit_code),
              check(flipped, 1 - report.exit_code))
        if kind == "reject":
            relabelled = copy.deepcopy(report.report)
            for diagnostic in checks.decl_diagnostics(relabelled):
                diagnostic["label"] = "zz"
            _case(results, "verdict-mix: label differs from the witness's select",
                  check(report.report, report.exit_code),
                  check(relabelled, report.exit_code))
    if done != {"accept", "reject"}:
        results.append(False)
        print("FAIL verdict-mix: tiny run lacks an accepted or a rejected "
              "program")
    known_sources = {p.source for p in inputs.known_fault_programs()}
    known = [(report, program) for _, report, program in answers
             if program.source in known_sources]
    report, program = known[0]
    real = checks.verdict_problems(report.report, report.exit_code,
                                   program.missing_path)
    flipped = copy.deepcopy(report.report)
    flipped["ok"] = not flipped["ok"]
    wrong = checks.verdict_problems(flipped, 1 - report.exit_code,
                                    program.missing_path)
    _case(results, "verdict-mix: known-fault program with a wrong verdict",
          [] if not real or checks.is_known_fault(real) else real,
          [] if checks.is_known_fault(wrong) else wrong)


def _fleet_mutations(results: list, answers: list) -> None:
    from repro.api import check_source

    served = [a for a in answers if a[1].kind == "break" and a[1].shadowed]
    resent = [a for a in answers if a[1].kind == "resend"]
    _, request, response = served[0]
    offline = check_source(request.source, request.path)
    differing = copy.deepcopy(response)
    for decl in differing["report"]["decls"]:
        if decl.get("signature"):
            decl["signature"] += " "
            break
    real = checks.served_problems(response, offline.to_json(),
                                  offline.exit_code)
    _case(results, "editor-fleet: served report differs from offline", real,
          checks.served_problems(differing, offline.to_json(),
                                 offline.exit_code))
    no_dependents = copy.deepcopy(response["report"])
    for decl in no_dependents["decls"]:
        if decl.get("code") == checks.DEPENDENCY:
            decl.update(status="ok", code=None)
    decls = [d["decl"] for d in response["report"]["decls"]]

    def rules(report):
        return checks.decoder_problems(report, response["exit"], decls,
                                       request.defect, request.shadowed)

    _case(results, "editor-fleet: break answer without RP0006",
          rules(response["report"]),
          rules(no_dependents))
    _, request, response = resent[0]
    previous = [a[2] for a in answers if a[1].module == request.module
                and a[1].source == request.source and a[2] is not response]
    uncached = dict(response, cached=False)
    _case(results, "editor-fleet: re-send not replayed",
          checks.resend_problems(response, previous[-1]),
          checks.resend_problems(uncached, previous[-1]))
    before = {"requests": {"check": {"ok": 0}}, "sessions": {"hits": 0},
              "router": {"routed": {"0": 0, "1": 0}}}
    after = {"requests": {"check": {"ok": 10}}, "sessions": {"hits": 2},
             "router": {"routed": {"0": 4, "1": 6}}}
    _case(results, "editor-fleet: client and fleet counts disagree",
          checks.reconcile_problems(before, after, 10, 2),
          checks.reconcile_problems(before, after, 11, 2))


def _layer_residual(results: list, traced, src: str, workdir: str) -> None:
    """A traced run in which ``check_source`` spends time outside every
    named layer (a slowed ``CheckReport.from_outcome``) must fail the
    residual check that the real traced run passed."""
    from repro.api import CheckReport

    original = CheckReport.__dict__["from_outcome"]

    def slowed(cls, path, outcome):
        time.sleep(0.002)
        return original.__func__(cls, path, outcome)

    CheckReport.from_outcome = classmethod(slowed)
    try:
        result = verdict_mix(0, 0.0, True, src, workdir, TINY)
    finally:
        CheckReport.from_outcome = original

    def residual(found):
        return [p for p in found if p.startswith("trace")]

    _case(results, "traced run: time in no named layer",
          residual(traced.problems), residual(result.problems))


def main(root: str, src: str) -> int:
    workdir = os.path.join(root, ".perfbench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    outcomes: list[bool] = []
    answers = {}
    traced = {}
    try:
        for name, workload in WORKLOADS.items():
            for trace in (False, True):
                rundir = os.path.join(workdir, f"{name}-{int(trace)}")
                os.makedirs(rundir)
                result = workload(0, 0.0, trace, src, rundir, TINY)
                # Only the known fault may fail, once per program a round.
                known = len(result.params.get("known_fault_programs", ()))
                good = result.correct and result.attempted > 0 and (
                    result.failed <= known * result.params["rounds"])
                outcomes.append(good)
                print(f"{'ok  ' if good else 'FAIL'} {name} "
                      f"trace={int(trace)}: {result.attempted} attempted, "
                      f"{result.failed} failed, problems={result.problems}")
                if trace:
                    traced[name] = result
                else:
                    answers[name] = result.answers
        _decoder_mutations(outcomes, answers["decoder-cold"])
        _verdict_mutations(outcomes, answers["verdict-mix"])
        _fleet_mutations(outcomes, answers["editor-fleet"])
        rundir = os.path.join(workdir, "residual")
        os.makedirs(rundir)
        _layer_residual(outcomes, traced["verdict-mix"], src, rundir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # unless a run uses it
        except OSError:
            pass
    failed = outcomes.count(False)
    print(f"selftest: {len(outcomes) - failed}/{len(outcomes)} passed")
    return 1 if failed else 0
