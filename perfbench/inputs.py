"""Seeded inputs of the three workloads.

Everything here is derived from the ``--seed`` argument and constants
fixed in this file; the checker only ever sees the generated text.

* ``decoder-cold``: the four Fig. 9 corpora at ``COLD_SCALE`` (corpus
  seed ``COLD_CORPUS_SEED``), each also in ``COLD_DEFECTS`` variants with
  one injected defect, placed in a declaration chosen by ``--seed``.
* ``editor-fleet``: ``FLEET_MODULES`` mid-size decoder modules and a
  request stream in whole rounds; every round gives each module the same
  mix of edits, a break, its fix and re-sends (``ROUND_SCRIPT``).
* ``verdict-mix``: programs of the Observation 1 fragment (the grammar
  of ``tests/integration/test_observation1.py``), printed as source and
  kept as ``repro.lang.ast`` trees for the collecting-semantics oracle,
  plus ``known_fault_programs``, the same in every round and every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

#: Fig. 9 corpora scale and generator seed (fixed: the paper's workload
#: does not vary; ``--seed`` only places the injected defects).
COLD_SCALE = 0.02
COLD_CORPUS_SEED = 0
#: Defect variants per corpus and round.  A defect's cost depends on how
#: many declarations it shadows, so one placement per corpus would make
#: the defect timings depend on the seed more than on the checker.
COLD_DEFECTS = 3

#: Editor fleet: module count and size.
FLEET_MODULES = 4
FLEET_MODULE_LINES = 120

#: One round of the editor stream, per module, in order.  Edits happen
#: on clean modules only, so an edit's answer is always clean and a
#: break's answer always carries the defect.
ROUND_SCRIPT = ("edit", "break", "resend", "fix", "edit", "resend")

#: Verdict mix: programs checked per round, and the path cap beyond which
#: the collecting semantics would truncate (such programs are redrawn).
VERDICT_PROGRAMS = 1000
VERDICT_MAX_PATHS = 4096

_INT_LIT = re.compile(r"(?<![A-Za-z0-9_])\d+(?![A-Za-z0-9_])")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DECL_HEAD = re.compile(r"^    ([A-Za-z_][A-Za-z0-9_]*) =\n", re.M)
_DECL_END = "\n    ;\n"
_MAIN_HEAD = "\nin\n"
#: ``parse_module`` names the body of a ``let ... in body`` module ``it``.
MAIN_DECL = "it"


# ---------------------------------------------------------------------------
# decoder modules: declarations, literals, dependencies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DeclSpan:
    """One declaration of a generated decoder module: its body's range."""

    name: str
    start: int
    end: int


def decl_spans(source: str) -> list[DeclSpan]:
    """The declarations of a ``let d1 = ...; ...; in body`` decoder module,
    found from the generator's fixed layout (not with the program's
    parser)."""
    spans: list[DeclSpan] = []
    for head in _DECL_HEAD.finditer(source):
        end = source.index(_DECL_END, head.end())
        spans.append(DeclSpan(head.group(1), head.end(), end))
    main = source.index(_MAIN_HEAD) + len(_MAIN_HEAD)
    spans.append(DeclSpan(MAIN_DECL, main, len(source)))
    return spans


def literal_positions(source: str, span: DeclSpan) -> list[tuple[int, int]]:
    """Character ranges of the integer literals in one declaration."""
    return [
        (m.start(), m.end())
        for m in _INT_LIT.finditer(source, span.start, span.end)
    ]


def dependencies(source: str) -> dict[str, set[str]]:
    """Each declaration's free references to other declarations.

    The generator never reuses a declaration name as a field label or a
    local binder, so the identifiers of a body that name declarations are
    exactly its free declaration references; ``_check_layout`` keeps that
    assumption honest.
    """
    spans = decl_spans(source)
    names = {span.name for span in spans}
    return {
        span.name: {
            word for word in _IDENT.findall(source, span.start, span.end)
            if word in names and word != span.name
        }
        for span in spans
    }


def dependents(source: str, root: str) -> set[str]:
    """Declarations that depend on ``root``, transitively."""
    deps = dependencies(source)
    found: set[str] = set()
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for name, uses in deps.items():
            if current in uses and name not in found:
                found.add(name)
                frontier.append(name)
    return found


def _check_layout(source: str) -> None:
    names = {span.name for span in decl_spans(source)}
    for pattern in (r"#(\w+)", r"\{(\w+) =", r"\\(\w+) ->", r"let (\w+) ="):
        clash = names & set(re.findall(pattern, source))
        if clash:
            raise ValueError(f"declaration names reused as binders: {clash}")


def replace(source: str, start: int, end: int, text: str) -> str:
    return source[:start] + text + source[end:]


@dataclass(frozen=True)
class Defect:
    """A select on ``{}`` of a field no declaration writes."""

    decl: str
    label: str

    @property
    def text(self) -> str:
        return f"(#{self.label} {{}})"


def editable_decls(source: str) -> list[DeclSpan]:
    """Declarations that hold an integer literal (edit/defect sites)."""
    return [s for s in decl_spans(source) if literal_positions(source, s)]


def inject_defect(source: str, rng: random.Random, label: str
                  ) -> tuple[str, Defect]:
    """Replace one literal of one seeded declaration by the defect."""
    if label in set(_IDENT.findall(source)):
        raise ValueError(f"defect label {label!r} occurs in the module")
    span = rng.choice(editable_decls(source))
    start, end = rng.choice(literal_positions(source, span))
    defect = Defect(span.name, label)
    return replace(source, start, end, defect.text), defect


# ---------------------------------------------------------------------------
# decoder-cold
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ColdInput:
    """One corpus check: the text and what its answer must show."""

    corpus: str
    source: str
    lines: int
    defect: Defect | None
    #: Declarations expected RP0006 (the defect's transitive dependents).
    shadowed: frozenset[str] = frozenset()


def cold_inputs(seed: int, scale: float = COLD_SCALE) -> list[ColdInput]:
    """The checks of one ``decoder-cold`` round, in order: each corpus
    clean, then in ``COLD_DEFECTS`` defect variants."""
    from repro.gdsl import FIG9_CORPORA, build_corpus

    rng = random.Random(f"decoder-cold:{seed}")
    inputs: list[ColdInput] = []
    for index, spec in enumerate(FIG9_CORPORA):
        program = build_corpus(spec, scale=scale, seed=COLD_CORPUS_SEED)
        source = program.source
        _check_layout(source)
        lines = source.count("\n")
        inputs.append(ColdInput(spec.name, source, lines, None))
        for variant in range(COLD_DEFECTS):
            broken, defect = inject_defect(
                source, rng, f"absent_c{index}_{variant}"
            )
            inputs.append(ColdInput(
                spec.name, broken, lines, defect,
                frozenset(dependents(source, defect.decl)),
            ))
    return inputs


# ---------------------------------------------------------------------------
# editor-fleet
# ---------------------------------------------------------------------------
@dataclass
class FleetModule:
    """One served module and its editing state."""

    path: str
    source: str
    defect: Defect | None = None


@dataclass(frozen=True)
class FleetRequest:
    """One request of the editor stream."""

    kind: str  # warm | edit | break | fix | resend
    module: int
    path: str
    source: str
    defect: Defect | None
    shadowed: frozenset[str] = frozenset()


def fleet_modules(seed: int, shard_of) -> list[FleetModule]:
    """``FLEET_MODULES`` seeded decoder modules, half on each shard.

    ``shard_of(path)`` is the router's rendezvous choice for a path; names
    are drawn until each shard owns half the modules, so both shards serve
    traffic.
    """
    from repro.gdsl import GeneratorConfig, generate_decoder

    rng = random.Random(f"editor-fleet:{seed}")
    wanted = {0: FLEET_MODULES // 2, 1: FLEET_MODULES - FLEET_MODULES // 2}
    paths: list[str] = []
    candidate = 0
    while len(paths) < FLEET_MODULES:
        path = f"src/decoder_{seed}_{candidate}.rp"
        candidate += 1
        shard = shard_of(path)
        if wanted.get(shard, 0) > 0:
            wanted[shard] -= 1
            paths.append(path)
    modules = []
    for path in paths:
        source = generate_decoder(GeneratorConfig(
            target_lines=FLEET_MODULE_LINES,
            with_semantics=True,
            seed=rng.randrange(1 << 30),
        )).source
        _check_layout(source)
        modules.append(FleetModule(path, source))
    return modules


class FleetStream:
    """The editor request stream, produced one whole round at a time.

    Every edit writes a literal value never used before in the run, so
    every non-resend request carries text the fleet has not seen: the
    store cannot answer a whole module, and the session must re-infer.
    """

    def __init__(self, seed: int, modules: list[FleetModule]) -> None:
        self.rng = random.Random(f"editor-stream:{seed}")
        self.modules = modules
        self.fresh = 1000
        self.breaks = 0

    def _literal(self) -> str:
        self.fresh += 1
        return str(self.fresh)

    def _request(self, kind: str, index: int) -> FleetRequest:
        module = self.modules[index]
        rng = self.rng
        if kind == "edit":
            span = rng.choice(editable_decls(module.source))
            start, end = rng.choice(literal_positions(module.source, span))
            module.source = replace(module.source, start, end, self._literal())
        elif kind == "break":
            self.breaks += 1
            module.source, module.defect = inject_defect(
                module.source, rng, f"absent_e{self.breaks}"
            )
        elif kind == "fix":
            defect = module.defect
            assert defect is not None
            at = module.source.index(defect.text)
            module.source = replace(
                module.source, at, at + len(defect.text), self._literal()
            )
            module.defect = None
        shadowed = frozenset()
        if module.defect is not None:
            shadowed = frozenset(dependents(module.source, module.defect.decl))
        return FleetRequest(kind, index, module.path, module.source,
                            module.defect, shadowed)

    def warmups(self) -> list[FleetRequest]:
        return [
            FleetRequest("warm", i, m.path, m.source, None)
            for i, m in enumerate(self.modules)
        ]

    def round(self) -> list[FleetRequest]:
        """One round: each module runs ``ROUND_SCRIPT`` in order; the
        modules' scripts are interleaved in a seeded order."""
        pending = {i: list(ROUND_SCRIPT) for i in range(len(self.modules))}
        requests = []
        while pending:
            index = self.rng.choice(sorted(pending))
            requests.append(self._request(pending[index].pop(0), index))
            if not pending[index]:
                del pending[index]
        return requests


# ---------------------------------------------------------------------------
# verdict-mix
# ---------------------------------------------------------------------------
LABELS = ("a", "b", "c")


@dataclass(frozen=True)
class VerdictProgram:
    """A program of the Observation 1 fragment, as text and as a tree."""

    source: str
    tree: object = field(compare=False)
    #: The oracle: some nondeterministic path of the collecting semantics
    #: selects a field that is absent.
    missing_path: bool = False


class _Fragment:
    """Random programs of the Observation 1 fragment.

    The grammar of the integration test: state-passing updates, selects,
    conditional joins and let-bound record functions, with Int contents.
    Nodes are ``(text, tree)`` pairs built side by side, so the checker
    receives this printer's text and the oracle the matching tree.
    """

    def __init__(self, rng: random.Random) -> None:
        from repro.lang import ast

        self.ast = ast
        self.rng = rng
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def record(self, depth: int, names: list[str]):
        ast, rng = self.ast, self.rng
        choices = ["empty", "update"]
        if names:
            choices += ["var", "var", "update", "update"]
        if depth > 0:
            choices += ["if", "let"]
        kind = rng.choice(choices)
        if kind == "empty":
            return "{}", ast.EmptyRec()
        if kind == "var":
            name = rng.choice(names)
            return name, ast.Var(name)
        if kind == "update":
            inner_text, inner = self.record(depth - 1, names)
            label = rng.choice(LABELS)
            value_text, value = self.integer(depth - 1, names)
            return (f"(@{{{label} = {value_text}}} {inner_text})",
                    ast.App(ast.Update(label, value), inner))
        if kind == "if":
            cond = rng.randint(0, 1)
            then_text, then = self.record(depth - 1, names)
            else_text, orelse = self.record(depth - 1, names)
            return (f"(if {cond} then {then_text} else {else_text})",
                    ast.If(ast.IntLit(cond), then, orelse))
        name = self.fresh("s")
        bound_text, bound = self.record(depth - 1, names)
        body_text, body = self.record(depth - 1, names + [name])
        return (f"(let {name} = {bound_text} in {body_text})",
                ast.Let(name, bound, body))

    def integer(self, depth: int, names: list[str]):
        ast, rng = self.ast, self.rng
        choices = ["lit", "lit"]
        if depth > 0:
            choices += ["select", "if"]
        kind = rng.choice(choices)
        if kind == "lit":
            value = rng.randint(0, 9)
            return str(value), ast.IntLit(value)
        if kind == "select":
            record_text, record = self.record(depth - 1, names)
            label = rng.choice(LABELS)
            return (f"(#{label} {record_text})",
                    ast.App(ast.Select(label), record))
        cond = rng.randint(0, 1)
        then_text, then = self.integer(depth - 1, names)
        else_text, orelse = self.integer(depth - 1, names)
        return (f"(if {cond} then {then_text} else {else_text})",
                ast.If(ast.IntLit(cond), then, orelse))

    def program(self):
        """A program, or ``None`` for a draw of the excluded shape."""
        ast, rng = self.ast, self.rng
        body = self.integer(3, [])
        if rng.random() >= 0.4:
            return body
        fn = self.fresh("f")
        param = self.fresh("s")
        fn_text, fn_body = self.record(2, [param])
        arg_text, arg = self.record(2, [])
        label = rng.choice(LABELS)
        if f"(#{label} {param})" in fn_text:
            # The function selects, from its parameter, the label its
            # caller selects from its result: on this shape the checker
            # can report RP0001 without a witness (CHANGES.md, FOUND), so
            # a seeded draw of it would fail on some seeds only.  The
            # shape is checked instead by ``known_fault_programs``.
            return None
        return (
            f"(let {fn} = (\\{param} -> {fn_text}) in "
            f"(#{label} ({fn} {arg_text})))",
            ast.Let(fn, ast.Lam(param, fn_body),
                    ast.App(ast.Select(label),
                            ast.App(ast.Var(fn), arg))),
        )


def verdict_programs(seed: int, count: int = VERDICT_PROGRAMS
                     ) -> list[VerdictProgram]:
    """``count`` seeded programs with their oracle verdicts.

    A program whose path enumeration exceeds ``VERDICT_MAX_PATHS`` is
    redrawn: a truncated enumeration could miss the error path.  So is
    the rare shape ``_Fragment.program`` excludes (about 0.35% of draws),
    which ``known_fault_programs`` covers in every round instead.
    """
    from repro.semantics import has_missing_field_path

    fragment = _Fragment(random.Random(f"verdict-mix:{seed}"))
    programs: list[VerdictProgram] = []
    while len(programs) < count:
        drawn = fragment.program()
        if drawn is None:
            continue
        text, tree = drawn
        try:
            missing = has_missing_field_path(
                tree, max_paths=VERDICT_MAX_PATHS
            )
        except RuntimeError:
            continue
        programs.append(VerdictProgram(text, tree, missing))
    return programs


def known_fault_programs() -> list[VerdictProgram]:
    """Fixed programs of the shape ``_Fragment.program`` redraws.

    A let-bound function selects, from its parameter, the label its
    caller selects from its result, and one branch of the function can
    return a record without that label.  The checker rejects both
    programs, rightly, but with an ``RP0001`` that has no witness
    (CHANGES.md, FOUND).  They are checked in every round of every seed,
    so the fault shows as the same share of failed operations in every
    run, and a fix shows as that share dropping to zero.
    """
    from repro.lang import ast
    from repro.semantics import has_missing_field_path

    def update(label, value, record):
        return ast.App(ast.Update(label, ast.IntLit(value)), record)

    def select(label, record):
        return ast.App(ast.Select(label), record)

    programs = [
        ("(let f1 = (\\s2 -> (@{c = (#a s2)} (if 0 then s2 else {}))) in "
         "(#a (f1 (@{a = 4} {}))))",
         ast.Let("f1", ast.Lam("s2", ast.App(
             ast.Update("c", select("a", ast.Var("s2"))),
             ast.If(ast.IntLit(0), ast.Var("s2"), ast.EmptyRec()))),
             select("a", ast.App(ast.Var("f1"),
                                 update("a", 4, ast.EmptyRec()))))),
        ("(let f5 = (\\s6 -> (if 0 then (@{b = (#c s6)} s6) else "
         "(@{a = 2} {}))) in (#c (f5 (@{c = 1} {}))))",
         ast.Let("f5", ast.Lam("s6", ast.If(
             ast.IntLit(0),
             ast.App(ast.Update("b", select("c", ast.Var("s6"))),
                     ast.Var("s6")),
             update("a", 2, ast.EmptyRec()))),
             select("c", ast.App(ast.Var("f5"),
                                 update("c", 1, ast.EmptyRec()))))),
    ]
    return [
        VerdictProgram(text, tree, has_missing_field_path(
            tree, max_paths=VERDICT_MAX_PATHS))
        for text, tree in programs
    ]
