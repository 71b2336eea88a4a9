"""The three workloads: a timed run gives the end-to-end metrics, a traced
run (``trace=True``) the per-layer ones.  Both check every answer."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import checks
import inputs
from fleet import Fleet, peak_rss_mb
from layers import Tracer, layer_metrics

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
IMPORT_SETUPS = 5
#: Fleets spawned per timed ``editor-fleet`` run (median reported).
FLEET_SETUPS = 3
#: Fixed tail percentiles: each leaves at least ten samples beyond it in a
#: run (verdict-mix: one round is over 1000 programs; editor-fleet: at least
#: ``FLEET_MIN_ROUNDS`` rounds of 16 non-replay requests).
TAIL_PERCENTILE = {"verdict-mix": 95, "editor-fleet": 90}
FLEET_MIN_ROUNDS = 7
#: Traced runs: the residual (time no layer span accounts for) must stay
#: within this share of an operation's wall time.
RESIDUAL_TOLERANCE = 0.05
#: Traced verdict-mix runs: accepted programs timed again with the run's
#: CPU pin lifted, for ``unpinned.accept_p50_ms``.
UNPINNED_SAMPLES = 300

#: The CPUs this process could use before ``pin_one_cpu``.
_ALL_CPUS: set[int] = set()


def pin_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    The workloads keep one operation in flight, so a second CPU adds only
    cross-CPU wake-ups and thread-stack teardown; on a shared VM those
    swing a small check between 0.8 and 3.8 ms and a served edit by a
    third, depending on the host (README, "Pinning").  The traced
    verdict-mix run reports that unpinned cost separately.
    """
    _ALL_CPUS.update(os.sched_getaffinity(0))
    cpu = min(_ALL_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextmanager
def unpinned():
    """Lift ``pin_one_cpu`` for the calling thread, and the threads it
    starts, while the block runs."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _ALL_CPUS or pinned)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


@dataclass
class Result:
    """What one run measured and found."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    problem_count: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    #: Kept only for the self-test: (kind, answer, expectation...) tuples.
    answers: list = field(default_factory=list)

    def problem(self, where: str, found: list[str]) -> None:
        if not found:
            return
        self.problem_count += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {'; '.join(found)}")

    @property
    def correct(self) -> bool:
        return self.problem_count == 0


@dataclass(frozen=True)
class Size:
    """Input sizes; the self-test shrinks them."""

    cold_scale: float = inputs.COLD_SCALE
    verdict_programs: int = inputs.VERDICT_PROGRAMS
    fleet_min_rounds: int = FLEET_MIN_ROUNDS
    keep_answers: bool = False


TINY = Size(cold_scale=0.001, verdict_programs=20, fleet_min_rounds=1,
            keep_answers=True)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_setup_s(src: str, runs: int = IMPORT_SETUPS) -> float:
    """Median seconds for a fresh interpreter to import ``repro.api``."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.api"],
                       env=env, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def traced_metrics(result: Result, tracer: Tracer, ops: int,
                   op_seconds: float, src: str) -> None:
    """Fill the per-layer metrics and check that the named layers account
    for all but ``RESIDUAL_TOLERANCE`` of an operation's wall time."""
    metrics = layer_metrics(tracer, ops, op_seconds)
    metrics["startup.import_ms"] = ms(import_setup_s(src))
    op_ms, residual = metrics["trace.op_ms"], metrics["trace.residual_ms"]
    if abs(residual) > RESIDUAL_TOLERANCE * op_ms:
        result.problem("trace", [
            f"{residual:.3f} ms of a {op_ms:.3f} ms operation is in no "
            f"named layer"
        ])
    result.metrics.update(metrics)


# ---------------------------------------------------------------------------
# decoder-cold
# ---------------------------------------------------------------------------
def decoder_cold(seed: int, seconds: float, trace: bool, src: str,
                 workdir: str, size: Size = Size()) -> Result:
    from repro.api import check_source

    result = Result("decoder-cold")
    setup = None if trace else import_setup_s(src)
    cases = inputs.cold_inputs(seed, size.cold_scale)
    decls = [[s.name for s in inputs.decl_spans(c.source)] for c in cases]
    result.params = {
        "scale": size.cold_scale,
        "corpus_seed": inputs.COLD_CORPUS_SEED,
        "checks_per_round": len(cases),
        "corpora": [
            {"corpus": c.corpus, "lines": c.lines,
             "defect": None if c.defect is None else vars(c.defect),
             "shadowed": sorted(c.shadowed)}
            for c in cases
        ],
    }
    # Lazy imports and first-use set-up happen once per process, not per
    # check: pay them before timing.
    for case in cases[:2]:  # the smallest corpus, clean and broken
        check_source(case.source).to_json()

    tracer = Tracer().install() if trace else None
    rounds: list[list[tuple]] = []  # per round: (case, seconds)
    first: list[str | None] = [None] * len(cases)
    started = time.perf_counter()
    try:
        while True:
            latencies = []
            for index, case in enumerate(cases):
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    report = check_source(case.source)
                    text = report.to_json()
                except Exception as error:  # noqa: BLE001 — counted
                    result.failed += 1
                    result.problem(case.corpus, [repr(error)])
                    continue
                latencies.append((case, time.perf_counter() - t0))
                found = checks.decoder_problems(
                    report.report, report.exit_code, decls[index],
                    case.defect, case.shadowed,
                )
                if first[index] is None:
                    first[index] = text
                elif text != first[index]:
                    found.append("answer differs from an earlier round")
                result.problem(f"{case.corpus} defect={case.defect}", found)
                if size.keep_answers:
                    result.answers.append(("decoder", report, case,
                                           decls[index]))
            rounds.append(latencies)
            if time.perf_counter() - started >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.params["rounds"] = len(rounds)
    if trace:
        traced_metrics(result, tracer, sum(len(r) for r in rounds),
                       sum(t for r in rounds for _, t in r), src)
        return result

    def per_round(pick):
        return statistics.median(pick(r) for r in rounds)

    def clean(r):
        return [(c, t) for c, t in r if c.defect is None]

    # Throughput is Fig. 9's: clean corpora only.  The defect variants
    # give reject_p50_ms; three placements per corpus keep it from
    # depending on where one seeded defect happens to land.
    result.metrics = {
        "setup_s": setup,
        "lines_per_s": per_round(lambda r: sum(c.lines for c, _ in clean(r))
                                 / sum(t for _, t in clean(r))),
        "peak_rss_mb": peak_rss_mb(),
        "accept_p50_ms": ms(per_round(
            lambda r: statistics.median(t for _, t in clean(r)))),
        "reject_p50_ms": ms(per_round(
            lambda r: statistics.fmean(t for c, t in r if c.defect))),
        "tail_ms": ms(per_round(lambda r: max(t for _, t in r))),
    }
    return result


# ---------------------------------------------------------------------------
# verdict-mix
# ---------------------------------------------------------------------------
def verdict_mix(seed: int, seconds: float, trace: bool, src: str,
                workdir: str, size: Size = Size()) -> Result:
    from repro.api import check_source

    result = Result("verdict-mix")
    setup = None if trace else import_setup_s(src)
    seeded = inputs.verdict_programs(seed, size.verdict_programs)
    known = inputs.known_fault_programs()
    programs = seeded + known
    program_lines = statistics.fmean(p.source.count("\n") + 1
                                     for p in programs)
    result.params = {
        "programs_per_round": len(programs),
        "ill_typed_per_round": sum(p.missing_path for p in programs),
        "known_fault_programs": [p.source for p in known],
        "max_paths": inputs.VERDICT_MAX_PATHS,
    }
    for program in seeded[:10]:
        check_source(program.source).to_json()

    tracer = Tracer().install() if trace else None
    accept: list[float] = []
    reject: list[float] = []
    rates: list[float] = []
    traced_ops = [0, 0.0]  # every answered check, known faults included
    rounds = 0
    started = time.perf_counter()
    try:
        while True:
            round_busy, round_ok = 0.0, 0
            for program in programs:
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    report = check_source(program.source)
                    report.to_json()
                except Exception as error:  # noqa: BLE001 — counted
                    result.failed += 1
                    result.problem(program.source, [repr(error)])
                    continue
                elapsed = time.perf_counter() - t0
                traced_ops[0] += 1
                traced_ops[1] += elapsed
                found = checks.verdict_problems(
                    report.report, report.exit_code, program.missing_path)
                if size.keep_answers:
                    result.answers.append(("verdict", report, program))
                if program in known and checks.is_known_fault(found):
                    result.failed += 1
                    continue
                result.problem(program.source, found)
                (reject if program.missing_path else accept).append(elapsed)
                round_busy += elapsed
                round_ok += 1
            rounds += 1
            rates.append(round_ok / round_busy)
            if time.perf_counter() - started >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.params["rounds"] = rounds
    if trace:
        traced_metrics(result, tracer, *traced_ops, src)
        result.metrics["unpinned.accept_p50_ms"] = ms(_unpinned_accept(
            [p for p in seeded if not p.missing_path]))
        return result
    result.metrics = {
        "setup_s": setup,
        # Every program prints on one line: this is verdicts per second.
        "lines_per_s": statistics.median(rates) * program_lines,
        "peak_rss_mb": peak_rss_mb(),
        "accept_p50_ms": ms(statistics.median(accept)),
        "reject_p50_ms": ms(statistics.median(reject)),
        "tail_ms": ms(percentile(accept + reject,
                                 TAIL_PERCENTILE["verdict-mix"])),
    }
    return result


def _unpinned_accept(programs: list) -> float:
    """Median seconds of an accepted program checked with the CPU pin
    lifted: ``check_source`` starts deep-stack threads, whose start and
    teardown cost more when they may run on another CPU."""
    from repro.api import check_source

    times = []
    with unpinned():
        for program in programs[:UNPINNED_SAMPLES]:
            t0 = time.perf_counter()
            check_source(program.source).to_json()
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# editor-fleet
# ---------------------------------------------------------------------------
def shard_of(path: str) -> int:
    """The shard the router pins ``path`` to (its rendezvous choice)."""
    from repro.infer.state import FlowOptions
    from repro.server.routing import routing_key, shard_for
    from repro.store.keys import options_key

    key = routing_key(path, "flow", options_key(FlowOptions()))
    return shard_for(key, list(range(2)))


def _window_mean(before: dict, after: dict, kind: str) -> float:
    """Mean of a per-shard ``check`` latency histogram between two stats
    snapshots (count-weighted across shards)."""
    def totals(stats: dict) -> tuple[float, int]:
        total, count = 0.0, 0
        for shard in stats.get("shards", []):
            entry = (shard.get("latency", {}).get("check") or {}).get(kind)
            if entry:
                total += entry["mean"] * entry["count"]
                count += entry["count"]
        return total, count

    t0, c0 = totals(before)
    t1, c1 = totals(after)
    return (t1 - t0) / (c1 - c0) if c1 > c0 else 0.0


def editor_fleet(seed: int, seconds: float, trace: bool, src: str,
                 workdir: str, size: Size = Size()) -> Result:
    from repro.api import check_source
    from repro.server.client import ServeError
    from repro.store.backend import MemoryCache

    result = Result("editor-fleet")
    setups = []
    if not trace:
        for n in range(FLEET_SETUPS - 1):
            spare = Fleet(src, workdir, f"setup{n}")
            try:
                setups.append(spare.start())
            finally:
                spare.stop()
    fleet = Fleet(src, workdir, "fleet")
    sent: list = []  # (request, response or None, seconds or None)
    try:
        setups.append(fleet.start())
        modules = inputs.fleet_modules(seed, shard_of)
        stream = inputs.FleetStream(seed, modules)
        client = fleet.client
        before = client.stats()
        for request in stream.warmups():
            sent.append((request, client.check(request.path,
                                               request.source), None))
        warm = client.stats()
        rounds = 0
        round_of: list[int] = []
        started = time.perf_counter()
        while True:
            for request in stream.round():
                round_of.append(rounds)
                t0 = time.perf_counter()
                try:
                    response = client.check(request.path, request.source)
                except ServeError as error:
                    result.failed += 1
                    result.problem(request.path, [str(error)])
                    response = None
                sent.append((request, response, time.perf_counter() - t0))
            rounds += 1
            if rounds == size.fleet_min_rounds:
                # Read after a fixed amount of work: the fleet's caches
                # grow with every request served.
                fleet_rss = fleet.rss_mb()
            if (time.perf_counter() - started >= seconds
                    and rounds >= size.fleet_min_rounds):
                break
        after = client.stats()
    finally:
        fleet.stop()
    result.attempted = len(sent)
    resends = sum(1 for r, _, _ in sent if r.kind == "resend")
    result.params = {
        "modules": [m.path for m in modules],
        "module_lines": inputs.FLEET_MODULE_LINES,
        "round": list(inputs.ROUND_SCRIPT),
        "rounds": rounds,
        "shards": 2,
        "client": "one closed-loop connection",
    }
    result.problem("counts", checks.reconcile_problems(
        before, after, len(sent), resends))

    # Every answer, checked: against the decoder rules, against an
    # offline repro.api.check_source of the same text, and re-sends
    # against the answer they repeat.  Offline checks of one module share
    # an in-memory store (unchanged declarations come from it); each
    # module's first and last texts are checked with no store at all.
    stores = [MemoryCache() for _ in modules]
    last: dict[int, dict] = {}
    final: dict[int, tuple] = {}
    for request, response, _ in sent:
        if response is None:
            continue
        where = f"{request.path} {request.kind}"
        if request.kind == "resend":
            result.problem(where, checks.resend_problems(
                response, last[request.module]))
        else:
            decls = [s.name for s in inputs.decl_spans(request.source)]
            found = checks.decoder_problems(
                response["report"], response["exit"], decls,
                request.defect, request.shadowed)
            store = None if request.kind == "warm" else stores[
                request.module]
            offline = check_source(request.source, request.path,
                                   store=store)
            found += checks.served_problems(response, offline.to_json(),
                                            offline.exit_code)
            result.problem(where, found)
            final[request.module] = (request, response)
        last[request.module] = response
        if size.keep_answers:
            result.answers.append(("served", request, response))
    for request, response in final.values():
        offline = check_source(request.source, request.path)
        result.problem(f"{request.path} final", checks.served_problems(
            response, offline.to_json(), offline.exit_code))

    timed = [(r, resp, dt) for r, resp, dt in sent
             if dt is not None and resp is not None]
    edits = [dt for r, _, dt in timed if r.kind in ("edit", "fix")]
    breaks = [dt for r, _, dt in timed if r.kind == "break"]
    replays = [dt for r, _, dt in timed if r.kind == "resend"]
    if trace:
        nonreplay = [(r, resp, dt) for r, resp, dt in timed
                     if r.kind != "resend"]
        rtt = statistics.fmean(dt for _, _, dt in nonreplay)
        # Every edit is new text: a module-store hit (no trace) is a fault.
        service = statistics.fmean(
            resp["trace"].get("total", 0.0) for _, resp, _ in nonreplay)
        if any("total" not in resp["trace"] for _, resp, _ in nonreplay):
            result.problem("trace", ["an edit was answered without "
                                     "checking (module store hit)"])
        queue = _window_mean(warm, after, "queue")
        hits = (after["sessions"]["hits"] - warm["sessions"]["hits"])
        server = {
            "server.rtt_ms": ms(rtt),
            "server.service_ms": ms(service),
            "server.queue_wait_ms": ms(queue),
            "server.transport_ms": ms(rtt - service - queue),
            "server.replay_ms": ms(statistics.fmean(replays)),
            "server.replay_hits": hits / len(timed),
        }
        _replay_in_process(result, sent, workdir, src)
        result.metrics.update(server)
        return result
    # Throughput counts the requests that check text; re-sends are
    # replayed from the registry and have their own per-layer metric.
    per_round: dict[int, list] = {}
    for (request, _, seconds), index in zip(sent[len(modules):], round_of):
        if request.kind == "resend":
            continue
        entry = per_round.setdefault(index, [0, 0.0])
        entry[0] += request.source.count("\n")
        entry[1] += seconds
    result.metrics = {
        "setup_s": statistics.median(setups),
        "lines_per_s": statistics.median(
            lines / busy for lines, busy in per_round.values()),
        "peak_rss_mb": fleet_rss,
        "accept_p50_ms": ms(statistics.median(edits)),
        "reject_p50_ms": ms(statistics.median(breaks)),
        "tail_ms": ms(percentile(edits + breaks,
                                 TAIL_PERCENTILE["editor-fleet"])),
    }
    return result


def _replay_in_process(result: Result, sent: list, workdir: str,
                       src: str) -> None:
    """Replay the served stream through ``repro.server.service`` in this
    process — a warm session per module and a store, as a shard runs it —
    with every layer traced.  Re-sends are answered by the daemon's
    registry, not by the service, and are not replayed."""
    from repro.api import CheckReport
    from repro.infer import InferSession
    from repro.server import service
    from repro.store import open_store
    from repro.util import run_deep

    tracer = Tracer()
    store = open_store(os.path.join(workdir, "replay-store"))
    sessions: dict[int, InferSession] = {}
    busy = [0.0, 0]
    replayed = [(r, resp, dt) for r, resp, dt in sent
                if r.kind != "resend" and resp is not None]

    def replay(requests: list) -> None:
        for request, response, seconds in requests:
            session = sessions.get(request.module)
            if session is None:
                session = sessions[request.module] = InferSession(
                    "flow", None, store=store)
            t0 = time.perf_counter()
            # Looked up per call: the tracer rebinds it once installed.
            outcome = service.check_source(
                request.path, request.source, session=session,
                recheck=request.kind != "warm", deep=False, store=store,
            )
            text = CheckReport.from_outcome(request.path, outcome).to_json()
            if seconds is not None:
                busy[0] += time.perf_counter() - t0
                busy[1] += 1
            if text != checks.report_bytes(response["report"]):
                result.problem(f"{request.path} {request.kind}",
                               ["in-process replay differs from served"])

    run_deep(lambda: replay([x for x in replayed if x[2] is None]))
    tracer.wrap_store(store)
    tracer.install()
    try:
        run_deep(lambda: replay([x for x in replayed if x[2] is not None]))
    finally:
        tracer.uninstall()
    traced_metrics(result, tracer, busy[1], busy[0], src)


WORKLOADS = {
    "decoder-cold": decoder_cold,
    "editor-fleet": editor_fleet,
    "verdict-mix": verdict_mix,
}
