"""The reprolint rule set: project invariants as AST checks.

Every rule encodes an invariant the reproduction's guarantees rest on
(deterministic-per-seed ledgers, ``python -O``-safe validation,
crash-atomic persistence) and carries a code, a one-line invariant, a
rationale, and a fix-it hint — ``repro lint --list-rules`` prints the
full table.  Rules are deliberately narrow: each flags a specific
hazardous *shape* of code, and near-misses (a seeded ``default_rng``,
a typed ``except OSError``) must not trigger.

Escape hatches, in increasing order of ceremony:

- ``# repro: ordered`` — DET03 only: asserts that the iteration order
  at this line is intentional and deterministic.
- ``# repro: noqa CODE`` — suppress one rule at one line, forever.
- the baseline file — grandfathers existing findings so the CI gate
  starts green; see :mod:`repro.statics.baseline`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    ClassVar,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .findings import Finding
from .resolve import ImportMap, resolve_call

__all__ = [
    "LintContext",
    "Rule",
    "ALL_RULES",
    "rules_by_code",
    "DET01WallClock",
    "DET02UnseededRandomness",
    "DET03UnorderedIteration",
    "ASSERT01AssertValidation",
    "ANN01QuotedAnnotation",
    "ERR01EmptyErrorMessage",
    "IO01NonAtomicWrite",
    "EXC01SwallowedException",
]


@dataclass
class LintContext:
    """Everything a rule may inspect about the file under lint."""

    path: str
    tree: ast.Module
    imports: ImportMap
    lines: Sequence[str]
    ordered_lines: FrozenSet[int] = field(default_factory=frozenset)

    def parts(self) -> Tuple[str, ...]:
        return tuple(self.path.replace("\\", "/").split("/"))

    def in_tests(self) -> bool:
        parts = self.parts()
        return "tests" in parts or parts[-1].startswith("test_")

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.code,
            path=self.path,
            line=int(line),
            col=int(col) + 1,
            message=message,
            hint=rule.hint,
            snippet=self.snippet(int(line)),
        )


class Rule:
    """Base class: one code, one invariant, one AST visitor."""

    code: ClassVar[str] = ""
    invariant: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    hint: ClassVar[str] = ""
    #: AST node types this rule wants to see (engine dispatch filter).
    interests: ClassVar[Tuple[Type[ast.AST], ...]] = ()

    def applies_to(self, ctx: LintContext) -> bool:
        """Whether this rule runs on the file at all (path scoping)."""
        return not ctx.in_tests()

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> Tuple[str, str, str, str]:
        """(code, invariant, rationale, hint) for ``--list-rules``."""
        return (cls.code, cls.invariant, cls.rationale, cls.hint)


# --------------------------------------------------------------------------
# DET01 — no wall clock
# --------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Modules allowed to touch the host clock: they *define* the injected
#: clock seam everything else must consume.
_CLOCK_MODULE_SUFFIXES = (
    "repro/telemetry/base.py",
    "repro/telemetry/tracing.py",
)


class DET01WallClock(Rule):
    code = "DET01"
    invariant = "no wall-clock reads outside the injected-clock modules"
    rationale = (
        "chaos ledgers and failover timers must replay identically per "
        "seed; an ambient time.time()/datetime.now() read makes a run "
        "unreproducible"
    )
    hint = (
        "accept a clock callable (see repro.telemetry.base) or take the "
        "simulator's time as an argument"
    )
    interests = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        if ctx.in_tests():
            return False
        normalized = ctx.path.replace("\\", "/")
        return not normalized.endswith(_CLOCK_MODULE_SUFFIXES)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = resolve_call(node.func, ctx.imports)
        if name in _WALL_CLOCK_CALLS:
            yield ctx.finding(
                self, node, f"wall-clock read: {name}() is nondeterministic"
            )


# --------------------------------------------------------------------------
# DET02 — no unseeded randomness
# --------------------------------------------------------------------------

_LEGACY_NUMPY_RANDOM = frozenset(
    {
        "numpy.random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.exponential",
    }
)


def _has_seed_argument(node: ast.Call) -> bool:
    if node.args:
        return True
    return any(
        kw.arg in ("seed", "x") or kw.arg is None for kw in node.keywords
    )


class DET02UnseededRandomness(Rule):
    code = "DET02"
    invariant = "all randomness flows from an explicitly seeded generator"
    rationale = (
        "same seed must mean same tables, same fault schedule, same "
        "digests; the module-level random.* state and unseeded "
        "default_rng() draw entropy from the OS"
    )
    hint = (
        "thread a seeded numpy Generator / random.Random through the "
        "constructor instead"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = resolve_call(node.func, ctx.imports)
        if name is None:
            return
        if name == "random.Random" or name == "numpy.random.RandomState":
            if not _has_seed_argument(node):
                yield ctx.finding(
                    self, node, f"{name}() constructed without a seed"
                )
        elif name == "numpy.random.default_rng":
            if not _has_seed_argument(node):
                yield ctx.finding(
                    self,
                    node,
                    "numpy.random.default_rng() without a seed draws "
                    "OS entropy",
                )
        elif name in _LEGACY_NUMPY_RANDOM:
            yield ctx.finding(
                self,
                node,
                f"{name}() uses numpy's hidden module-level RNG state",
            )
        elif name.startswith("random.") and name.count(".") == 1:
            yield ctx.finding(
                self,
                node,
                f"{name}() uses the hidden module-level random state",
            )


# --------------------------------------------------------------------------
# DET03 — no bare unordered iteration feeding ordered output
# --------------------------------------------------------------------------

_ORDERING_SINKS = frozenset({"list", "tuple", "enumerate"})


def _is_unordered_source(expr: ast.expr, imports: ImportMap) -> Optional[str]:
    """Name the unordered collection ``expr`` denotes, if any."""
    if isinstance(expr, ast.Set):
        return "set literal"
    if isinstance(expr, ast.SetComp):
        return "set comprehension"
    if isinstance(expr, ast.Call):
        name = resolve_call(expr.func, imports)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
            and not expr.args
        ):
            return ".keys() view"
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        left = _is_unordered_source(expr.left, imports)
        right = _is_unordered_source(expr.right, imports)
        if left is not None or right is not None:
            return "set expression"
    return None


class DET03UnorderedIteration(Rule):
    code = "DET03"
    invariant = (
        "iteration that feeds ordered output never ranges over a bare "
        "set or .keys() view"
    )
    rationale = (
        "set iteration order depends on PYTHONHASHSEED; a ledger, "
        "digest, or report built from it differs between identical "
        "runs"
    )
    hint = (
        "wrap the iterable in sorted(...), or append '# repro: ordered' "
        "if this order is provably deterministic"
    )
    interests = (
        ast.For,
        ast.AsyncFor,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
        ast.Call,
    )

    def _check(
        self, expr: ast.expr, anchor: ast.AST, ctx: LintContext
    ) -> Iterator[Finding]:
        kind = _is_unordered_source(expr, ctx.imports)
        if kind is None:
            return
        line = int(getattr(anchor, "lineno", 1))
        expr_line = int(getattr(expr, "lineno", line))
        if line in ctx.ordered_lines or expr_line in ctx.ordered_lines:
            return
        yield ctx.finding(
            self,
            anchor,
            f"iteration over a {kind} has hash-dependent order",
        )

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from self._check(node.iter, node, ctx)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                yield from self._check(comp.iter, node, ctx)
        elif isinstance(node, ast.Call) and node.args:
            name = resolve_call(node.func, ctx.imports)
            is_join = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
            )
            if name in _ORDERING_SINKS or is_join:
                yield from self._check(node.args[0], node, ctx)


# --------------------------------------------------------------------------
# ASSERT01 — no assert-based validation
# --------------------------------------------------------------------------


class ASSERT01AssertValidation(Rule):
    code = "ASSERT01"
    invariant = "library code never validates inputs or state with assert"
    rationale = (
        "python -O strips asserts wholesale; a guarantee that only "
        "holds under the default interpreter flags is not a guarantee"
    )
    hint = (
        "raise ValueError (bad input) or RuntimeError (broken state) "
        "with a message instead"
    )
    interests = (ast.Assert,)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if isinstance(node, ast.Assert):
            yield ctx.finding(
                self, node, "assert statement vanishes under python -O"
            )


# --------------------------------------------------------------------------
# ANN01 — no quoted type annotations
# --------------------------------------------------------------------------


class ANN01QuotedAnnotation(Rule):
    code = "ANN01"
    invariant = "type annotations are real expressions, never strings"
    rationale = (
        "quoted annotations dodge the typechecker's name resolution and "
        "rot silently; 'from __future__ import annotations' makes every "
        "forward reference legal unquoted"
    )
    hint = (
        "add 'from __future__ import annotations' at module top and "
        "drop the quotes"
    )
    interests = (ast.AnnAssign, ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, ctx: LintContext) -> bool:
        return True  # tests deserve resolvable annotations too

    @staticmethod
    def _is_quoted(annotation: Optional[ast.expr]) -> bool:
        return isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        )

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if isinstance(node, ast.AnnAssign) and self._is_quoted(
            node.annotation
        ):
            yield ctx.finding(
                self, node.annotation, "quoted variable annotation"
            )
        elif isinstance(node, ast.arg) and self._is_quoted(node.annotation):
            yield ctx.finding(
                self,
                node.annotation if node.annotation is not None else node,
                f"quoted annotation on parameter {node.arg!r}",
            )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and self._is_quoted(node.returns):
            anchor = node.returns if node.returns is not None else node
            yield ctx.finding(
                self, anchor, f"quoted return annotation on {node.name}()"
            )


# --------------------------------------------------------------------------
# ERR01 — errors carry messages
# --------------------------------------------------------------------------

_MESSAGE_REQUIRED = frozenset({"ValueError", "RuntimeError"})


class ERR01EmptyErrorMessage(Rule):
    code = "ERR01"
    invariant = "ValueError/RuntimeError always carry a non-empty message"
    rationale = (
        "a bare ValueError surfacing from a chaos run is undebuggable; "
        "the message is the only context that survives the traceback"
    )
    hint = "say what was wrong and what value made it so"
    interests = (ast.Raise,)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Raise):
            return
        exc = node.exc
        if isinstance(exc, ast.Name) and exc.id in _MESSAGE_REQUIRED:
            yield ctx.finding(
                self, node, f"{exc.id} raised without any message"
            )
            return
        if not isinstance(exc, ast.Call):
            return
        func = exc.func
        if not (isinstance(func, ast.Name) and func.id in _MESSAGE_REQUIRED):
            return
        if not exc.args:
            yield ctx.finding(
                self, node, f"{func.id}() raised with no message"
            )
            return
        first = exc.args[0]
        if isinstance(first, ast.Constant) and (
            not isinstance(first.value, str) or not first.value.strip()
        ):
            yield ctx.finding(
                self, node, f"{func.id}() raised with an empty message"
            )


# --------------------------------------------------------------------------
# IO01 — durable state is written atomically
# --------------------------------------------------------------------------

_DURABLE_PARTS = frozenset({"durability", "sessions", "replication"})
_WRITE_MODE_CHARS = frozenset("wax+")
_WRITE_FLAGS = frozenset("O_WRONLY O_RDWR O_APPEND O_CREAT O_TRUNC".split())


def _mode_is_write(mode: Optional[ast.expr]) -> bool:
    if mode is None:
        return False  # open() defaults to read
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return True  # dynamic mode: assume the worst


def _flags_are_write(flags: Optional[ast.expr]) -> bool:
    """``os.open`` flags: read-only iff an ``|`` of ``O_*`` names, none
    of them a write flag; anything computed is assumed the worst."""
    if isinstance(flags, ast.BinOp) and isinstance(flags.op, ast.BitOr):
        return _flags_are_write(flags.left) or _flags_are_write(flags.right)
    name = getattr(flags, "attr", None) or getattr(flags, "id", "")
    return not name.startswith("O_") or name in _WRITE_FLAGS


def _mode_argument(node: ast.Call, position: int) -> Optional[ast.expr]:
    if len(node.args) > position:
        return node.args[position]
    for kw in node.keywords:
        if kw.arg in ("mode", "flags"):  # open()'s name, os.open()'s
            return kw.value
    return None


class IO01NonAtomicWrite(Rule):
    code = "IO01"
    invariant = (
        "durable-state modules write files only through repro.io's "
        "atomic helpers"
    )
    rationale = (
        "a torn write under durability/, sessions/ or replication/ is "
        "exactly the corruption the recovery path exists to survive — "
        "temp-file + os.replace + dir fsync or nothing"
    )
    hint = (
        "use repro.io.atomic_write_text / atomic_write_bytes (append-"
        "only WAL framing is the one sanctioned exception — mark it)"
    )
    interests = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        if ctx.in_tests():
            return False
        return bool(_DURABLE_PARTS & set(ctx.parts()))

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = resolve_call(node.func, ctx.imports)
        if name in ("open", "os.fdopen", "os.open", "os.write"):
            check = _flags_are_write if name == "os.open" else _mode_is_write
            if name == "os.write" or check(_mode_argument(node, 1)):
                yield ctx.finding(
                    self, node, f"raw {name}() for writing durable state"
                )
            return
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "open" and _mode_is_write(_mode_argument(node, 0)):
                yield ctx.finding(
                    self, node, "raw .open() for writing durable state"
                )
            elif attr in ("write_text", "write_bytes"):
                yield ctx.finding(
                    self,
                    node,
                    f".{attr}() is not crash-atomic (truncate-then-write)",
                )


# --------------------------------------------------------------------------
# EXC01 — no swallowed exceptions
# --------------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _is_silent_body(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring or bare ...
        return False
    return True


class EXC01SwallowedException(Rule):
    code = "EXC01"
    invariant = (
        "recovery and takeover paths never swallow exceptions blind"
    )
    rationale = (
        "a bare 'except:' in a recovery loop turns data loss into "
        "silence; damage must be detected loudly or handled narrowly"
    )
    hint = (
        "catch the specific exception you can actually handle, or let "
        "it propagate"
    )
    interests = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            yield ctx.finding(
                self, node, "bare 'except:' catches even KeyboardInterrupt"
            )
            return
        if (
            isinstance(node.type, ast.Name)
            and node.type.id in _BROAD_EXCEPTIONS
            and _is_silent_body(node.body)
        ):
            yield ctx.finding(
                self,
                node,
                f"'except {node.type.id}: pass' silently swallows failures",
            )


ALL_RULES: Tuple[Type[Rule], ...] = (
    DET01WallClock,
    DET02UnseededRandomness,
    DET03UnorderedIteration,
    ASSERT01AssertValidation,
    ANN01QuotedAnnotation,
    ERR01EmptyErrorMessage,
    IO01NonAtomicWrite,
    EXC01SwallowedException,
)


def rules_by_code(codes: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registry, optionally narrowed to ``codes``."""
    if codes is None:
        return [cls() for cls in ALL_RULES]
    known = {cls.code: cls for cls in ALL_RULES}
    selected: List[Rule] = []
    for code in codes:
        cls = known.get(code.upper())
        if cls is None:
            raise ValueError(
                f"unknown lint rule {code!r}; known rules: "
                + ", ".join(sorted(known))
            )
        selected.append(cls())
    return selected
