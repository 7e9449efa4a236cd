"""What importing the library pulls in.

``scipy.stats`` alone adds ~35 MB of resident memory to a process; the
broker, the fault machinery and the experiment configuration run
without it (the one ``kstest``/``linregress`` and the mixture density
import it where they are called).

The library also ships only what runs: walking ``repro.cli``'s imports
must reach every non-package module but the ones ``UNREACHED`` names,
every public function, class and method must be called from outside
the tests, but the ones ``TEST_ONLY`` names, and every name a module
imports must be read by that module.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_core_imports_leave_scipy_stats_out():
    program = (
        "import sys\n"
        "import repro.core.broker, repro.faults, repro.experiments.config\n"
        "print([m for m in sys.modules if m.startswith('scipy.stats')])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# -- what the CLI can reach ----------------------------------------------------

PACKAGE_ROOT = os.path.join(ROOT, "src", "repro")

#: Modules no ``repro`` command reaches, each with the reason it stays.
UNREACHED = {
    "repro.core.adaptive": "ROADMAP item 5 decides it",
    "repro.faults.sharded": "an alias kept only for bench/layers.py's "
    "patch row naming it; it goes when a bench-only change (ROADMAP "
    "item 1) drops that row",
}


def _source_modules():
    """Every module under ``src/repro``: dotted name -> (path, is_package)."""
    modules = {}
    for directory, _dirs, files in os.walk(PACKAGE_ROOT):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, os.path.dirname(PACKAGE_ROOT))
            parts = relative[: -len(".py")].split(os.sep)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts.pop()
            modules[".".join(parts)] = (path, is_package)
    return modules


def _absolute(module, is_package, node):
    """The dotted module an ``ImportFrom`` node names, relative ones resolved."""
    if not node.level:
        return node.module
    base = module if is_package else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        base = base.rpartition(".")[0]
    return f"{base}.{node.module}" if node.module else base


def _import_nodes(tree):
    """Every import statement that can run, ``if TYPE_CHECKING:`` blocks skipped.

    Yields ``(node, top_level)``; imports inside functions (lazy imports)
    are included with ``top_level`` false.
    """

    def walk(node, top_level):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, top_level
            return
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            children = node.orelse
        nested = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        for child in children:
            yield from walk(child, top_level and not nested)

    yield from walk(tree, True)


def _bound_name(alias):
    """The name an import alias binds in the importing module."""
    return alias.asname or alias.name.partition(".")[0]


class _ImportGraph:
    def __init__(self):
        self.modules = _source_modules()
        self.trees = {}
        for name, (path, _is_package) in self.modules.items():
            with open(path, encoding="utf-8") as handle:
                self.trees[name] = ast.parse(handle.read(), filename=path)

    def defining_module(self, module, name):
        """The module that defines ``name`` as ``from module import name`` sees it.

        A package ``__init__`` that re-exports ``name`` is looked through
        to the module the name comes from.
        """
        submodule = f"{module}.{name}"
        if submodule in self.modules:
            return submodule
        is_package = self.modules[module][1]
        if is_package:
            for node, top_level in _import_nodes(self.trees[module]):
                if not (top_level and isinstance(node, ast.ImportFrom)):
                    continue
                source = _absolute(module, is_package, node)
                if source not in self.modules:
                    continue
                for alias in node.names:
                    if _bound_name(alias) == name:
                        return self.defining_module(source, alias.name)
        return module

    def targets(self, module):
        """The modules ``module``'s own code imports, re-exports looked through.

        A package ``__init__``'s top-level imports count only for the
        names its own code uses; the rest are re-exports.
        """
        is_package = self.modules[module][1]
        tree = self.trees[module]
        used = None
        if is_package:
            used = {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
        for node, top_level in _import_nodes(tree):
            names = [
                alias
                for alias in node.names
                if used is None or not top_level or _bound_name(alias) in used
            ]
            if isinstance(node, ast.Import):
                for alias in names:
                    if alias.name in self.modules:
                        yield alias.name
                continue
            source = _absolute(module, is_package, node)
            if source not in self.modules:
                continue
            for alias in names:
                yield self.defining_module(source, alias.name)

    def reached_from(self, root):
        reached, todo = set(), [root]
        while todo:
            module = todo.pop()
            if module in reached:
                continue
            reached.add(module)
            todo.extend(self.targets(module))
        return reached


def test_every_module_is_reached_from_the_cli():
    """Every non-package module runs under some ``repro`` command.

    The walk starts at ``repro.cli`` and follows lazy imports; a name
    imported from a package counts for the module that defines it, not
    for every module the package ``__init__`` re-exports.
    """
    graph = _ImportGraph()
    reached = graph.reached_from("repro.cli")
    unreached = {
        name
        for name, (_path, is_package) in graph.modules.items()
        if not is_package and name not in reached
    }
    assert unreached == set(UNREACHED), sorted(unreached ^ set(UNREACHED))


# -- what the library's own code calls ----------------------------------------

#: Where a use counts besides the library itself: the benchmark, the
#: pytest benchmarks and the examples (not ``tests/``).
CALLER_ROOTS = ("bench", "benchmarks", "examples")

#: Public names that only tests call, each with the reason it stays
#: (the ``UNREACHED`` modules are skipped whole).
TEST_ONLY = {
    "STree.region_query": "the paper's region query "
    "(docs/paper-mapping.md)",
    "paper_recursive_expected_waste": "the paper's recursion, a reference "
    "implementation tests/clustering/test_waste.py compares against",
    "PointMatcher.match_many": "ROADMAP item 8 (publish_many) gives it "
    "a batch kernel",
    "PubSubBroker.attach_sessions": "session journaling, known and left "
    "on purpose in the ROADMAP (tests/sessions/test_session.py)",
    "DynamicPubSubBroker.repreprocess": "the paper's re-clustering of "
    "the live set (docs/paper-mapping.md); the churn and checkpoint "
    "oracles drive it",
    "FaultInjector.stream_state": "read by the wire oracle, "
    "tests/simulation/test_wire_equivalence.py",
    "surviving_path": "read by the wire oracle, "
    "tests/simulation/test_wire_equivalence.py",
    "BrokerJournal.inflight_sequences": "read by the journal oracle, "
    "tests/durability/test_journal_machine.py",
    "Membership.is_usable": "read by the restart oracle, "
    "tests/durability/test_crash_recovery.py",
    "Interval.intersection": "the interval algebra the geometry "
    "property oracle pins (tests/geometry/test_properties.py)",
    "Rectangle.intersection": "the rectangle algebra the geometry "
    "property oracle pins; tests spell a clipped volume with it",
}


def _python_files(top):
    for directory, dirs, files in os.walk(top):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for filename in files:
            if filename.endswith(".py"):
                yield os.path.join(directory, filename)


def _public_definitions(module, tree):
    """``(qualified name, node)`` of every public top-level function or
    class and every public method of a top-level class."""
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def _uses(tree):
    """``(name, node type, enclosing definitions)`` of every ``Name``,
    ``Attribute`` and string constant, ``__all__`` entries left out."""
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            listed.update(map(id, ast.walk(node.value)))

    def walk(node, enclosing):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            yield node.id, ast.Name, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, ast.Attribute, enclosing
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in listed
        ):
            yield node.value, ast.Constant, enclosing
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing)

    yield from walk(tree, frozenset())


def _uncalled():
    """``file:line name`` of every public definition (outside the
    ``UNREACHED`` modules) that nothing in ``src/`` or ``CALLER_ROOTS``
    uses, by qualified name."""
    graph = _ImportGraph()
    # One tree per file, the library's shared with the graph, all kept
    # alive: a definition is told from the bodies around a use by id.
    trees = {
        path: graph.trees[name] for name, (path, _) in graph.modules.items()
    }
    for root in CALLER_ROOTS:
        for path in _python_files(os.path.join(ROOT, root)):
            with open(path, encoding="utf-8") as handle:
                trees[path] = ast.parse(handle.read(), filename=path)
    uses = {}
    for tree in trees.values():
        for name, kind, enclosing in _uses(tree):
            uses.setdefault(name, []).append((kind, enclosing))
    uncalled = {}
    for module, tree in sorted(graph.trees.items()):
        if module in UNREACHED:
            continue
        for qualified, node in _public_definitions(module, tree):
            owner, _, name = qualified.rpartition(".")
            # A method is reached through an attribute (or named in a
            # string); a bare name of its spelling is something else.
            if not any(
                id(node) not in enclosing
                and not (owner and kind is ast.Name)
                for kind, enclosing in uses.get(name, ())
            ):
                path = os.path.relpath(graph.modules[module][0], ROOT)
                uncalled[qualified] = f"{path}:{node.lineno} {qualified}"
    return uncalled


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function, class or method must be used somewhere in
    ``src/`` or ``CALLER_ROOTS`` outside its own body: as a name, an
    attribute or a string (a patch point, a ``getattr``).  Its own
    ``def``, imports and ``__all__`` entries do not count.  A method is
    credited only through an attribute or a string of its name: a bare
    name of the same spelling (a loop variable, a local) is not a call
    of it, and a keyword argument is no name at all.  The match is still
    by name, so a method counts as called when any attribute of that
    name is read."""
    uncalled = _uncalled()
    offenders = [uncalled[name] for name in uncalled if name not in TEST_ONLY]
    assert not offenders, "called only from tests:\n" + "\n".join(offenders)


def test_every_test_only_entry_is_still_test_only():
    """An allow-list entry whose name is gone, or has gained a caller,
    is stale."""
    stale = set(TEST_ONLY) - set(_uncalled())
    assert not stale, sorted(stale)


# -- what each module imports ----------------------------------------------


def _module_level_imports(body):
    """Import statements run at import time, in ``if`` and ``try``
    blocks included."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)
            for handler in getattr(node, "handlers", ()):
                yield from _module_level_imports(handler.body)
            yield from _module_level_imports(getattr(node, "finalbody", ()))


def _read_names(tree):
    """Every name ``tree`` reads: ``Name`` nodes, the names inside
    string annotations, and the entries of a module's ``__all__``."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                read |= _read_names(ast.parse(part.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {
                part.value
                for part in ast.walk(node.value)
                if isinstance(part, ast.Constant)
            }
    return read


def test_no_module_imports_a_name_it_does_not_read():
    """A package ``__init__`` imports to re-export; any other module
    under ``src/repro`` that imports a name and never reads it carries
    a dead dependency (and, for a module, its import cost)."""
    graph = _ImportGraph()
    unused = []
    for module, tree in sorted(graph.trees.items()):
        path, is_package = graph.modules[module]
        if is_package:
            continue
        read = _read_names(tree)
        for node in _module_level_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if _bound_name(alias) not in read:
                    where = os.path.relpath(path, ROOT)
                    unused.append(f"{where}:{node.lineno} {_bound_name(alias)}")
    assert not unused, "imported and never read:\n" + "\n".join(unused)


# -- what the callers set ------------------------------------------------------

#: Where a call counts as setting a parameter besides the library: the
#: tests (a value a test sets to reach a path is a seam) and
#: ``CALLER_ROOTS``.
PARAMETER_ROOTS = ("tests",) + CALLER_ROOTS

#: Defaulted parameters that no call sets, ``file:Callable.param`` with
#: the file relative to ``src/repro``, each with the reason it stays a
#: parameter and not a constant.
FIXED_ON_PURPOSE = {}


class _Signature:
    """One ``def``: its parameter names and how a call binds them."""

    def __init__(self, node, owner):
        arguments = node.args
        self.node = node
        self.positional = [a.arg for a in arguments.posonlyargs + arguments.args]
        self.kwargs = arguments.kwarg.arg if arguments.kwarg else None
        decorators = {
            d.id for d in node.decorator_list if isinstance(d, ast.Name)
        }
        #: Leading parameters a call through an instance or class binds
        #: itself (``self``, ``cls``).
        self.bound = int(owner is not None and "staticmethod" not in decorators)
        #: An instance method, which ``Class.method(obj, ...)`` calls
        #: with the instance passed as the first argument.
        self.instance_method = (
            self.bound
            and "classmethod" not in decorators
            and node.name != "__init__"
        )
        self.defaulted = self.positional[
            len(self.positional) - len(arguments.defaults):
        ] + [
            a.arg
            for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None
        ]


def _base_names(node):
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


class _Definitions:
    """Every ``def`` and ``class`` in the walked trees, by name.

    Resolution is by name, as in the caller walk: a call reaches every
    definition of its spelling, so an ambiguous name keeps knobs rather
    than losing them.
    """

    def __init__(self, trees):
        self.functions, self.methods, self.classes = {}, {}, {}
        self.subclasses = {}
        #: Names some object stores a value under (``self.x = ...``,
        #: ``x: T`` or ``x = ...`` in a class body): a call through one
        #: may reach a callable the walk cannot see.
        self.stored = set()
        self.signatures = {}
        for tree in trees:
            self._index(tree.body, None)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store
                ):
                    self.stored.add(node.attr)
        for classes in self.classes.values():
            for node in classes:
                for base in _base_names(node):
                    self.subclasses.setdefault(base, []).append(node)

    def _index(self, body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                signature = _Signature(node, owner)
                self.signatures[id(node)] = signature
                table = self.methods if owner is not None else self.functions
                table.setdefault(node.name, []).append(signature)
                self._index(node.body, None)
            elif isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, []).append(node)
                self._index(node.body, node)
            elif owner is not None and isinstance(
                node, (ast.Assign, ast.AnnAssign)
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [
                    node.target
                ]
                self.stored.update(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    inner = getattr(node, field, None)
                    if isinstance(inner, list):
                        self._index(inner, owner)

    def constructors(self, node, seen=None):
        """The ``__init__`` a call of class ``node`` runs (its own, or
        the first a base by name defines)."""
        seen = seen if seen is not None else set()
        if id(node) in seen:
            return []
        seen.add(id(node))
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__init__"
            ):
                return [self.signatures[id(item)]]
        return self.base_constructors(node, seen)

    def base_constructors(self, node, seen=None):
        seen = seen if seen is not None else {id(node)}
        found = []
        for base in _base_names(node):
            for parent in self.classes.get(base, ()):
                found += self.constructors(parent, seen)
            if found:
                break
        return found

    def family(self, node, seen=None):
        """Class ``node`` and its subclasses, by name."""
        seen = seen if seen is not None else set()
        if id(node) in seen:
            return []
        seen.add(id(node))
        found = [node]
        for child in self.subclasses.get(node.name, ()):
            found += self.family(child, seen)
        return found


def _import_aliases(tree):
    """``{alias: name}`` of every ``from x import name as alias``."""
    return {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }


class _ParameterWalk:
    """Which parameter names the calls in ``trees`` set, per ``def``."""

    def __init__(self, trees):
        self.definitions = _Definitions(trees)
        #: ``id(def)`` -> keyword and parameter names its calls pass.
        self.passed = {}
        #: ``id(def)`` of each definition some call sets every parameter of.
        self.everything = set()
        #: Keywords passed to callees the walk cannot resolve.
        self.loose = set()
        #: ``(id(def), signatures, resolved)``: the def forwards its
        #: ``**kwargs`` to a call of these signatures.
        self.forwards = []
        for tree in trees:
            self.aliases = _import_aliases(tree)
            self._walk(tree, None, None)
        self._propagate()

    def _walk(self, node, owner, function):
        if isinstance(node, ast.ClassDef):
            owner = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = self.definitions.signatures.get(id(node))
        elif isinstance(node, ast.Call):
            self._call(node, owner, function)
        for child in ast.iter_child_nodes(node):
            self._walk(child, owner, function)

    def _targets(self, call, owner):
        """``(signatures, bound, resolved)`` of ``call``: ``bound`` is
        false for ``Class.method(obj, ...)``, where the call passes the
        instance itself."""
        defs = self.definitions
        func = call.func
        # ``cls(...)``, ``type(self)(...)``, ``self.__class__(...)``.
        made_by_type = (
            (isinstance(func, ast.Name) and func.id == "cls")
            or (
                isinstance(func, ast.Call)
                and isinstance(func.func, ast.Name)
                and func.func.id == "type"
            )
            or (isinstance(func, ast.Attribute) and func.attr == "__class__")
        )
        if made_by_type and owner is not None:
            targets = [
                s for c in defs.family(owner) for s in defs.constructors(c)
            ]
            return targets, True, bool(targets)
        if isinstance(func, ast.Name):
            name = self.aliases.get(func.id, func.id)
            targets = [
                s for c in defs.classes.get(name, ()) for s in defs.constructors(c)
            ] + defs.functions.get(name, [])
            resolved = bool(targets) or name in defs.classes
            return targets, True, resolved
        if not isinstance(func, ast.Attribute):
            return [], True, False
        name = func.attr
        receiver = func.value
        if (
            name == "__init__"
            and isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and owner is not None
        ):
            return defs.base_constructors(owner), True, True
        targets = (
            defs.methods.get(name, [])
            + defs.functions.get(name, [])
            + [s for c in defs.classes.get(name, ()) for s in defs.constructors(c)]
        )
        unbound = isinstance(receiver, ast.Name) and receiver.id in defs.classes
        resolved = (bool(targets) or name in defs.classes) and (
            name not in defs.stored
        )
        return targets, not unbound, resolved

    def _call(self, call, owner, function):
        targets, bound, resolved = self._targets(call, owner)
        keywords = {k.arg for k in call.keywords if k.arg is not None}
        if not resolved:
            self.loose |= keywords
        mappings = [k.value for k in call.keywords if k.arg is None]
        own = [
            function is not None
            and isinstance(m, ast.Name)
            and m.id == function.kwargs
            for m in mappings
        ]
        if any(own):
            self.forwards.append((id(function.node), targets, resolved))
        unknown = not all(own) or any(
            isinstance(a, ast.Starred) for a in call.args
        )
        for signature in targets:
            key = id(signature.node)
            if unknown:
                self.everything.add(key)
                continue
            skip = 0 if not bound and signature.instance_method else signature.bound
            names = set(signature.positional[skip:][: len(call.args)])
            self.passed.setdefault(key, set()).update(names | keywords)

    def _propagate(self):
        """What a caller passes to a ``def`` that forwards its ``**kwargs``
        reaches the callees it forwards them to."""
        changed = True
        while changed:
            changed = False
            for source, targets, resolved in self.forwards:
                passed = self.passed.get(source, set())
                if not resolved and not passed <= self.loose:
                    self.loose |= passed
                    changed = True
                for signature in targets:
                    key = id(signature.node)
                    if source in self.everything:
                        if key not in self.everything:
                            self.everything.add(key)
                            changed = True
                        continue
                    have = self.passed.setdefault(key, set())
                    if not passed <= have:
                        have |= passed
                        changed = True


def _public_callables(tree):
    """``(qualified name, def)`` of every public top-level function,
    public method of a public top-level class and public class's
    ``__init__`` (named by the class)."""
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or node.name.startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    yield node.name, method
                elif not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


@functools.lru_cache(maxsize=None)
def _unset_parameters():
    """``{file:Callable.param: where}`` of every defaulted parameter of a
    public callable (outside the ``UNREACHED`` modules) that no call in
    ``src/`` or ``PARAMETER_ROOTS`` sets, and the count walked."""
    graph = _ImportGraph()
    trees = [graph.trees[name] for name in sorted(graph.trees)]
    for root in PARAMETER_ROOTS:
        for path in sorted(_python_files(os.path.join(ROOT, root))):
            with open(path, encoding="utf-8") as handle:
                trees.append(ast.parse(handle.read(), filename=path))
    walk = _ParameterWalk(trees)
    unset, walked = {}, 0
    for module, tree in sorted(graph.trees.items()):
        if module in UNREACHED:
            continue
        path = graph.modules[module][0]
        for qualified, node in _public_callables(tree):
            signature = walk.definitions.signatures[id(node)]
            walked += len(signature.defaulted)
            if signature.kwargs or id(node) in walk.everything:
                continue
            passed = walk.passed.get(id(node), set()) | walk.loose
            for param in signature.defaulted:
                if param in passed:
                    continue
                key = f"{os.path.relpath(path, PACKAGE_ROOT)}:{qualified}.{param}"
                where = os.path.relpath(path, ROOT)
                unset[key] = f"{where}:{node.lineno} {qualified}.{param}"
    return unset, walked


def test_every_defaulted_parameter_is_set_by_some_call():
    """A defaulted parameter of a public function, method or class
    constructor must be set by some call in ``src/``, ``tests/`` or
    ``CALLER_ROOTS``: with one value in use it is a constant.

    The walk is conservative, so a wrong guess keeps a knob.  A call
    reaches every definition of its spelling; ``cls(...)`` reaches the
    class and its subclasses, ``super().__init__`` the bases'; a
    ``def`` that forwards its own ``**kwargs`` passes on what its
    callers give it; ``*args`` or any other ``**mapping`` sets every
    parameter; and a keyword passed to a callee the walk cannot
    resolve (a stored callable such as ``self.journal_class``) sets
    every parameter of that name.  A callable that takes ``**kwargs``
    is exempt: removing a parameter would turn a caller's keyword into
    something else silently."""
    unset, _walked = _unset_parameters()
    offenders = [unset[key] for key in sorted(unset) if key not in FIXED_ON_PURPOSE]
    assert not offenders, "set by no call:\n" + "\n".join(offenders)


def test_every_fixed_on_purpose_entry_is_still_unset():
    """An allow-list entry whose parameter is gone, or is now set by
    some call, is stale; every entry gives its reason."""
    unset, _walked = _unset_parameters()
    stale = set(FIXED_ON_PURPOSE) - set(unset)
    assert not stale, sorted(stale)
    assert all(reason.strip() for reason in FIXED_ON_PURPOSE.values())
