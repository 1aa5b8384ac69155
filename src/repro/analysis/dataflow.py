"""Taint-style interprocedural dataflow for the ``--deep`` rules.

The analysis answers three families of questions the per-file rules
cannot:

* **Order provenance** — does a value reach a canonical-order merge sink
  (``merge_member_outputs``, ``MetricsRegistry.merge``,
  ``TraceRecorder.absorb``) or a float accumulation while carrying
  set/dict iteration order (:data:`Tag.UNORDERED`) or worker-completion
  order (:data:`Tag.SHARD_RAW` — ``as_completed``, ``imap_unordered``,
  ``multiprocessing.connection.wait``)?
* **RNG provenance** — does a live ``numpy`` Generator (built by
  ``make_rng`` / ``derive_rng`` / ``substream`` / ``default_rng``) cross
  a shard boundary (a ``FleetSpec``, ``FleetExecutor.fleet_session`` or
  ``FleetExecutor.map`` call) instead of an integer ``stream_root``?
* **Mutation provenance** — which of a function's parameters does it
  mutate, directly or through callees, so that a shard worker mutating
  the coordinator's snapshot graph is visible at the crossing call site?

Every function is analyzed intraprocedurally into :class:`FunctionFacts`
(mutation, call, sink, accumulation and boundary events, each carrying
the *roots* — parameter / ``self``-attribute / ``global`` origins — and
*tags* of the values involved). A small fixpoint then closes
:class:`FunctionSummary` objects over the call graph: return tags,
transitively mutated parameters, and parameters that reach merge sinks,
accumulations or shard boundaries. The rules read only facts and
summaries.

The analysis is deliberately **approximate** (sound enough for the
invariants it guards, cheap enough to run on every lint):

* Call results are *fresh*: provenance does not flow through a call, so
  the sanctioned snapshot idiom ``pickle.loads(pickle.dumps(spec.repo))``
  breaks taint exactly where the runtime copies the object graph.
  (Project calls whose summary says "returns parameter *i*" are the
  exception — thin aliasing helpers stay transparent.)
* Tags *do* flow through unknown calls (union of receiver and argument
  tags): ``future.result()`` arrives in completion order if ``future``
  did, ``str(i)`` of something unordered stays unordered. Explicit
  sanitizers — ``sorted``, ``math.fsum``, ``merge_member_outputs``,
  ``stream_root`` — strip the relevant tags.
* Containers tag their elements: iterating a :data:`Tag.UNORDERED` or
  :data:`Tag.SHARD_RAW` container binds the loop variable with the same
  tag; displays and comprehensions union their inputs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.analysis.project import FunctionInfo, ProjectIndex

__all__ = [
    "Tag",
    "Root",
    "MutationEvent",
    "CallEvent",
    "SinkEvent",
    "AccumEvent",
    "BoundaryEvent",
    "ShardEntryEvent",
    "FunctionFacts",
    "FunctionSummary",
    "ProjectAnalysis",
]

import enum


class Tag(enum.Enum):
    """What a value carries besides its payload."""

    #: A live RNG stream (``numpy`` Generator / ``random.Random``).
    RNG = "rng"
    #: Set/dict iteration order (no canonical order guaranteed).
    UNORDERED = "unordered"
    #: Worker-completion order (differs run to run and shard to shard).
    SHARD_RAW = "shard-raw"


@dataclass(frozen=True)
class Root:
    """Where a value came from, at function granularity.

    ``kind`` is ``"param"`` (key: positional index), ``"self"`` (key:
    attribute name — the value hangs off ``self.<key>``) or ``"global"``
    (key: module-level name declared ``global`` in the function).
    """

    kind: str
    key: int | str

    def describe(self, params: Sequence[str]) -> str:
        if self.kind == "param":
            index = int(self.key)
            if 0 <= index < len(params):
                return f"parameter `{params[index]}`"
            return f"parameter #{index}"
        if self.kind == "self":
            return f"`self.{self.key}`"
        return f"global `{self.key}`"


TagSet = frozenset[Tag]
RootSet = frozenset[Root]
NO_TAGS: TagSet = frozenset()
NO_ROOTS: RootSet = frozenset()
_ORDER_TAGS: TagSet = frozenset({Tag.UNORDERED, Tag.SHARD_RAW})


@dataclass(frozen=True)
class MutationEvent:
    """An in-place mutation (attr/item store or mutator-method call)."""

    roots: RootSet
    line: int
    col: int
    desc: str


@dataclass(frozen=True)
class CallEvent:
    """One call site, with per-argument provenance.

    ``callee`` is a project qname when resolution succeeded (a class
    qname means a constructor call — its parameters are the class
    ``__init__``'s, offset by one for ``self``). ``receiver_roots`` is
    the provenance of ``obj`` in ``obj.method(...)`` calls.
    """

    callee: str | None
    is_constructor: bool
    line: int
    col: int
    arg_roots: tuple[RootSet, ...]
    arg_tags: tuple[TagSet, ...]
    kw_names: tuple[str | None, ...]
    kw_roots: tuple[RootSet, ...]
    receiver_roots: RootSet = NO_ROOTS
    desc: str = ""


@dataclass(frozen=True)
class SinkEvent:
    """A value arriving at a canonical-order merge sink."""

    sink: str
    line: int
    col: int
    roots: RootSet
    tags: TagSet
    desc: str


@dataclass(frozen=True)
class AccumEvent:
    """A bare float accumulation (``sum(...)`` or ``+=``)."""

    line: int
    col: int
    roots: RootSet
    tags: TagSet
    desc: str


@dataclass(frozen=True)
class BoundaryEvent:
    """A value crossing into a shard spec / worker build path."""

    boundary: str
    line: int
    col: int
    arg: str
    roots: RootSet
    tags: TagSet


@dataclass(frozen=True)
class ShardEntryEvent:
    """A callable handed to the fleet executor as shard entry point.

    ``kind`` is ``"session"`` (``fleet_session(factory, spec, ...)`` —
    the factory's parameter 0 is the coordinator-owned spec) or
    ``"map"`` (``map(fn, items)`` — parameter 0 is the shared item).
    """

    factory: str
    kind: str
    line: int
    col: int


@dataclass
class FunctionFacts:
    """Everything the intraprocedural pass learned about one function."""

    info: FunctionInfo
    mutations: list[MutationEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    sinks: list[SinkEvent] = field(default_factory=list)
    accums: list[AccumEvent] = field(default_factory=list)
    boundaries: list[BoundaryEvent] = field(default_factory=list)
    shard_entries: list[ShardEntryEvent] = field(default_factory=list)
    #: ``self.<attr> = value`` assignments: attr -> roots of the value.
    self_attr_roots: dict[str, RootSet] = field(default_factory=dict)
    returns_tags: TagSet = NO_TAGS
    #: Parameter indices whose value the function may return unchanged
    #: (alias-through helpers like ``def pick(spec): return spec.repo``).
    returns_params: frozenset[int] = frozenset()


@dataclass(frozen=True)
class FunctionSummary:
    """Call-graph-closed behaviour of one function."""

    returns_tags: TagSet = NO_TAGS
    returns_params: frozenset[int] = frozenset()
    #: Parameters mutated in place, directly or via callees (``self``
    #: counts as parameter 0 for methods).
    mutates: frozenset[int] = frozenset()
    #: Parameters that reach a merge sink (here or transitively).
    merge_params: frozenset[int] = frozenset()
    #: Parameters that reach a bare float accumulation.
    accum_params: frozenset[int] = frozenset()
    #: Parameters that cross a shard boundary.
    boundary_params: frozenset[int] = frozenset()


# -- qualified-name tables -----------------------------------------------------

_RNG_SOURCES = {
    "repro.common.rng.make_rng",
    "repro.common.make_rng",
    "repro.common.rng.derive_rng",
    "repro.common.derive_rng",
    "repro.common.rng.substream",
    "repro.common.substream",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "random.Random",
}
_RNG_SANITIZERS = {"repro.common.rng.stream_root", "repro.common.stream_root"}
_ORDER_SANITIZERS = {"sorted", "math.fsum"}
_MERGE_SANITIZERS = {
    "repro.parallel.reduce.merge_member_outputs",
    "repro.parallel.merge_member_outputs",
}
_SHARD_RAW_SOURCES = {
    "concurrent.futures.as_completed",
    "multiprocessing.connection.wait",
}
_SHARD_RAW_METHODS = {"imap_unordered"}
_UNORDERED_METHODS = {"keys", "values", "items"}
_MERGE_SINKS = {
    "repro.parallel.reduce.merge_member_outputs",
    "repro.parallel.merge_member_outputs",
    "repro.obs.metrics.MetricsRegistry.merge",
    "repro.obs.trace.TraceRecorder.absorb",
}
#: Attribute names that count as merge sinks when the receiver's type is
#: unknown — ``merge``/``absorb`` are this codebase's reducer verbs.
_MERGE_SINK_ATTRS = {"merge", "absorb"}
_BOUNDARIES = {
    "repro.cloud.fleet.FleetSpec": "FleetSpec",
    "repro.cloud.FleetSpec": "FleetSpec",
    "repro.parallel.executor.FleetExecutor.fleet_session": "fleet_session",
    "repro.parallel.FleetExecutor.fleet_session": "fleet_session",
    "repro.parallel.executor.FleetExecutor.map": "map",
    "repro.parallel.FleetExecutor.map": "map",
}
_SESSION_METHODS = {"fleet_session": "session", "map": "map"}
_MUTATOR_METHODS = {
    "append", "add", "update", "extend", "insert", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse", "write",
}

#: Parameter names treated as carrying a live generator even without a
#: visible construction (the repo-wide convention for threading RNGs).
_RNG_PARAM_NAMES = {"rng"}
_RNG_PARAM_SUFFIX = "_rng"


def _rng_param(name: str, annotation: ast.expr | None) -> bool:
    if name in _RNG_PARAM_NAMES or name.endswith(_RNG_PARAM_SUFFIX):
        return True
    if annotation is not None:
        rendered = ast.dump(annotation)
        if "Generator" in rendered:
            return True
    return False


Value = tuple[RootSet, TagSet]
_NOTHING: Value = (NO_ROOTS, NO_TAGS)


class _FunctionAnalyzer:
    """One pass of abstract interpretation over a function body."""

    def __init__(
        self,
        info: FunctionInfo,
        index: ProjectIndex,
        summaries: dict[str, FunctionSummary],
    ) -> None:
        self.info = info
        self.index = index
        self.summaries = summaries
        self.facts = FunctionFacts(info)
        self.env: dict[str, Value] = {}
        #: Local var -> project class qname (constructor-typed locals).
        self.vartypes: dict[str, str] = {}
        self.globals_declared: set[str] = set()
        self._event_keys: set[tuple[object, ...]] = set()
        args = info.node.args
        for i, arg in enumerate((*args.posonlyargs, *args.args)):
            roots: RootSet = frozenset({Root("param", i)})
            tags: TagSet = (
                frozenset({Tag.RNG})
                if _rng_param(arg.arg, arg.annotation)
                else NO_TAGS
            )
            self.env[arg.arg] = (roots, tags)

    # -- driving ---------------------------------------------------------------

    def run(self) -> FunctionFacts:
        # Two passes over the body approximate a loop fixpoint: a tag
        # acquired late in the body reaches uses earlier in a loop on
        # the second pass. Events dedupe by site, so no double reports.
        for _ in range(2):
            for stmt in self.info.node.body:
                self._stmt(stmt)
        return self.facts

    def _once(self, *key: object) -> bool:
        if key in self._event_keys:
            return False
        self._event_keys.add(key)
        return True

    # -- statements ------------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Global):
            self.globals_declared.update(node.names)
            for name in node.names:
                self.env[name] = (frozenset({Root("global", name)}), NO_TAGS)
        elif isinstance(node, ast.Assign):
            value = self._eval(node.value)
            for target in node.targets:
                self._assign(target, node.value, value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, node.value, self._eval(node.value))
        elif isinstance(node, ast.AugAssign):
            value = self._eval(node.value)
            self._aug_assign(node, value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                roots, tags = self._eval(node.value)
                self.facts.returns_tags = self.facts.returns_tags | tags
                params = frozenset(
                    int(r.key) for r in roots if r.kind == "param"
                )
                self.facts.returns_params = self.facts.returns_params | params
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            roots, tags = self._eval(node.iter)
            self._bind(node.target, (roots, tags))
            for sub in (*node.body, *node.orelse):
                self._stmt(sub)
        elif isinstance(node, ast.While):
            self._eval(node.test)
            for sub in (*node.body, *node.orelse):
                self._stmt(sub)
        elif isinstance(node, ast.If):
            self._eval(node.test)
            for sub in (*node.body, *node.orelse):
                self._stmt(sub)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            for sub in node.body:
                self._stmt(sub)
        elif isinstance(node, ast.Try):
            for sub in (*node.body, *node.orelse, *node.finalbody):
                self._stmt(sub)
            for handler in node.handlers:
                for sub in handler.body:
                    self._stmt(sub)
        elif isinstance(node, ast.Expr):
            self._eval(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Nested defs/classes are indexed as their own functions; the
        # remaining statement kinds carry no dataflow we track.

    def _assign(self, target: ast.expr, value_expr: ast.expr, value: Value) -> None:
        roots, tags = value
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._mutation(
                    frozenset({Root("global", target.id)}),
                    target,
                    f"rebinds global `{target.id}`",
                )
                return
            self.env[target.id] = value
            ctor = self._constructor_class(value_expr)
            if ctor is not None:
                self.vartypes[target.id] = ctor
            elif isinstance(value_expr, ast.Name):
                copied = self.vartypes.get(value_expr.id)
                if copied is not None:
                    self.vartypes[target.id] = copied
            else:
                self.vartypes.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            base_roots, _ = self._eval(target.value)
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.info.is_method
            ):
                merged = self.facts.self_attr_roots.get(target.attr, NO_ROOTS)
                self.facts.self_attr_roots[target.attr] = merged | roots
            if base_roots:
                self._mutation(
                    base_roots, target, f"assigns `{_render(target)}`"
                )
        elif isinstance(target, ast.Subscript):
            base_roots, _ = self._eval(target.value)
            self._eval(target.slice)
            if base_roots:
                self._mutation(
                    base_roots, target, f"stores into `{_render(target.value)}[...]`"
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._assign(inner, value_expr, value)

    def _aug_assign(self, node: ast.AugAssign, value: Value) -> None:
        roots, tags = value
        target = node.target
        if isinstance(node.op, ast.Add) and Tag.SHARD_RAW in tags:
            if self._once("accum", node.lineno, node.col_offset):
                self.facts.accums.append(
                    AccumEvent(
                        node.lineno,
                        node.col_offset,
                        roots,
                        tags,
                        f"`{_render(target)} += ...` over worker-completion-"
                        "order values",
                    )
                )
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._mutation(
                    frozenset({Root("global", target.id)}),
                    target,
                    f"rebinds global `{target.id}`",
                )
                return
            old = self.env.get(target.id, _NOTHING)
            self.env[target.id] = (old[0] | roots, old[1] | tags)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base_roots, _ = self._eval(target.value)
            if base_roots:
                self._mutation(
                    base_roots, target, f"updates `{_render(target)}` in place"
                )

    def _bind(self, target: ast.expr, value: Value) -> None:
        """Bind a loop/with target; elements inherit container tags."""
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            self.vartypes.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._bind(inner, value)

    def _mutation(self, roots: RootSet, node: ast.AST, desc: str) -> None:
        line = getattr(node, "lineno", self.info.node.lineno)
        col = getattr(node, "col_offset", 0)
        if self._once("mut", line, col, desc):
            self.facts.mutations.append(MutationEvent(roots, line, col, desc))

    # -- expressions -----------------------------------------------------------

    def _eval(self, node: ast.expr) -> Value:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return _NOTHING
        if isinstance(node, ast.Attribute):
            base_roots, base_tags = self._eval(node.value)
            roots = base_roots
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.info.is_method
            ):
                roots = roots | frozenset({Root("self", node.attr)})
            return (roots, base_tags)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            self._eval(node.slice)
            return base
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            return self._union(node.elts)
        if isinstance(node, ast.Set):
            roots, tags = self._union(node.elts)
            return (roots, tags | frozenset({Tag.UNORDERED}))
        if isinstance(node, ast.Dict):
            values = [v for v in (*node.keys, *node.values) if v is not None]
            return self._union(values)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            tags = self._comp_generators(node.generators)
            _, elt_tags = self._eval(node.elt)
            tags = tags | elt_tags
            if isinstance(node, ast.SetComp):
                tags = tags | frozenset({Tag.UNORDERED})
            return (NO_ROOTS, tags)
        if isinstance(node, ast.DictComp):
            tags = self._comp_generators(node.generators)
            _, key_tags = self._eval(node.key)
            _, value_tags = self._eval(node.value)
            return (NO_ROOTS, tags | key_tags | value_tags)
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.BinOp):
            return self._union([node.left, node.right])
        if isinstance(node, ast.Compare):
            return self._union([node.left, *node.comparators])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._union([node.body, node.orelse])
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            return self._eval(node.value) if node.value is not None else _NOTHING
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            self._bind(node.target, value)
            return value
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    self._eval(part.value)
            return _NOTHING
        if isinstance(node, ast.Slice):
            for sub in (node.lower, node.upper, node.step):
                if sub is not None:
                    self._eval(sub)
            return _NOTHING
        return _NOTHING

    def _union(self, exprs: Sequence[ast.expr]) -> Value:
        roots: RootSet = NO_ROOTS
        tags: TagSet = NO_TAGS
        for expr in exprs:
            r, t = self._eval(expr)
            roots, tags = roots | r, tags | t
        return (roots, tags)

    def _comp_generators(self, generators: Sequence[ast.comprehension]) -> TagSet:
        tags: TagSet = NO_TAGS
        for gen in generators:
            _, iter_tags = self._eval(gen.iter)
            self._bind(gen.target, (NO_ROOTS, iter_tags))
            tags = tags | (iter_tags & _ORDER_TAGS)
            for cond in gen.ifs:
                self._eval(cond)
        return tags

    # -- calls -----------------------------------------------------------------

    def _constructor_class(self, expr: ast.expr) -> str | None:
        """Project class qname if *expr* is a direct constructor call."""
        if not isinstance(expr, ast.Call):
            return None
        qname = self._callee_qname(expr.func)
        if qname is not None and qname in self.index.classes:
            return qname
        return None

    def _callee_qname(self, func: ast.expr) -> str | None:
        """Resolve a call target to a project/stdlib qualified name.

        Import-qualified names are canonicalized through re-exports so
        ``from repro.parallel import FleetExecutor`` resolves to the
        defining module's qname.
        """
        module = self.info.module
        qualified = module.imports.qualify(func)
        if qualified is not None:
            return self.index.canonical(qualified)
        if isinstance(func, ast.Name):
            return self.index.resolve_name(module, func.id)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self.info.class_qname is not None:
                    cls = self.index.classes.get(self.info.class_qname)
                    if cls is not None and func.attr in cls.methods:
                        return cls.methods[func.attr]
                var_class = self.vartypes.get(base.id)
                if var_class is not None:
                    return f"{var_class}.{func.attr}"
            ctor = self._constructor_class(base) if isinstance(base, ast.Call) else None
            if ctor is not None:
                return f"{ctor}.{func.attr}"
        return None

    def _call(self, node: ast.Call) -> Value:
        qname = self._callee_qname(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        receiver: Value = _NOTHING
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value)

        arg_values = [self._eval(arg) for arg in node.args]
        kw_values = [self._eval(kw.value) for kw in node.keywords]
        arg_roots = tuple(v[0] for v in arg_values)
        arg_tags = tuple(v[1] for v in arg_values)
        kw_names = tuple(kw.arg for kw in node.keywords)
        kw_roots = tuple(v[0] for v in kw_values)
        all_tags: TagSet = NO_TAGS
        for t in (*arg_tags, *(v[1] for v in kw_values)):
            all_tags = all_tags | t

        is_constructor = qname in self.index.classes if qname else False
        project_callee = qname if qname and (
            qname in self.index.functions or is_constructor
        ) else None
        if self._once("call", node.lineno, node.col_offset):
            self.facts.calls.append(
                CallEvent(
                    callee=project_callee,
                    is_constructor=is_constructor,
                    line=node.lineno,
                    col=node.col_offset,
                    arg_roots=arg_roots,
                    arg_tags=arg_tags,
                    kw_names=kw_names,
                    kw_roots=kw_roots,
                    receiver_roots=receiver[0],
                    desc=_render(node.func),
                )
            )

        self._record_sinks(node, qname, attr, arg_values, kw_names, kw_values)
        self._record_boundary(node, qname, attr, arg_values, kw_names, kw_values)
        self._record_shard_entry(node, qname, attr)

        if attr in _MUTATOR_METHODS and receiver[0]:
            self._mutation(
                receiver[0],
                node,
                f"calls `{_render(node.func)}(...)` on a received object",
            )

        return self._call_result(node, qname, attr, receiver, arg_values, all_tags)

    def _call_result(
        self,
        node: ast.Call,
        qname: str | None,
        attr: str | None,
        receiver: Value,
        arg_values: list[Value],
        all_tags: TagSet,
    ) -> Value:
        bare = qname.rsplit(".", 1)[-1] if qname else None
        if qname in _RNG_SOURCES:
            return (NO_ROOTS, frozenset({Tag.RNG}))
        if qname in _RNG_SANITIZERS:
            return _NOTHING
        if qname in _ORDER_SANITIZERS or bare in {"sorted"} or (
            attr is None and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            combined = all_tags | receiver[1]
            return (NO_ROOTS, combined - _ORDER_TAGS)
        if qname in _MERGE_SANITIZERS:
            return (NO_ROOTS, (all_tags | receiver[1]) - _ORDER_TAGS)
        if qname in _SHARD_RAW_SOURCES or attr in _SHARD_RAW_METHODS:
            return (NO_ROOTS, frozenset({Tag.SHARD_RAW}))
        if attr in _UNORDERED_METHODS and not node.args and not node.keywords:
            return (NO_ROOTS, receiver[1] | frozenset({Tag.UNORDERED}))
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return (NO_ROOTS, all_tags | frozenset({Tag.UNORDERED}))
        if qname is not None:
            summary = self.summaries.get(qname)
            if summary is None and qname in self.index.classes:
                init = self.index.classes[qname].init_qname
                summary = self.summaries.get(init) if init else None
            if summary is not None:
                roots: RootSet = NO_ROOTS
                offset = 1 if qname in self.index.classes else 0
                for param in summary.returns_params:
                    position = param - offset
                    if 0 <= position < len(arg_values):
                        roots = roots | arg_values[position][0]
                return (roots, summary.returns_tags)
        # Unknown call: fresh object, but order/RNG tags ride through.
        return (NO_ROOTS, all_tags | receiver[1])

    def _record_sinks(
        self,
        node: ast.Call,
        qname: str | None,
        attr: str | None,
        arg_values: list[Value],
        kw_names: tuple[str | None, ...],
        kw_values: list[Value],
    ) -> None:
        is_sink = qname in _MERGE_SINKS or (
            qname is None and attr in _MERGE_SINK_ATTRS
        )
        if not is_sink:
            return
        sink = qname or f".{attr}"
        for label, (roots, tags) in _labelled_args(node, arg_values, kw_names, kw_values):
            if self._once("sink", node.lineno, node.col_offset, label):
                self.facts.sinks.append(
                    SinkEvent(
                        sink, node.lineno, node.col_offset, roots, tags,
                        f"argument `{label}` of `{_render(node.func)}`",
                    )
                )
        # ``sum()`` is the other canonical reducer; recorded as an
        # accumulation rather than a merge sink.

    def _record_boundary(
        self,
        node: ast.Call,
        qname: str | None,
        attr: str | None,
        arg_values: list[Value],
        kw_names: tuple[str | None, ...],
        kw_values: list[Value],
    ) -> None:
        boundary = _BOUNDARIES.get(qname) if qname else None
        if boundary is None and qname is None and attr == "fleet_session":
            boundary = "fleet_session"
        if boundary is None:
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and arg_values
                and Tag.SHARD_RAW in arg_values[0][1]
            ):
                if self._once("accum", node.lineno, node.col_offset):
                    self.facts.accums.append(
                        AccumEvent(
                            node.lineno,
                            node.col_offset,
                            arg_values[0][0],
                            arg_values[0][1],
                            "`sum(...)` over worker-completion-order values",
                        )
                    )
            return
        for label, (roots, tags) in _labelled_args(node, arg_values, kw_names, kw_values):
            if self._once("boundary", node.lineno, node.col_offset, label):
                self.facts.boundaries.append(
                    BoundaryEvent(
                        boundary, node.lineno, node.col_offset, label, roots, tags
                    )
                )

    def _record_shard_entry(
        self, node: ast.Call, qname: str | None, attr: str | None
    ) -> None:
        kind: str | None = None
        if qname in _BOUNDARIES and _BOUNDARIES[qname] in _SESSION_METHODS:
            kind = _SESSION_METHODS[_BOUNDARIES[qname]]
        elif qname is None and attr == "fleet_session":
            kind = "session"
        if kind is None or not node.args:
            return
        factory_expr = node.args[0]
        factory: str | None = None
        if isinstance(factory_expr, ast.Name):
            factory = self.index.resolve_name(self.info.module, factory_expr.id)
        elif isinstance(factory_expr, ast.Attribute):
            factory = self._callee_qname(factory_expr)
        if factory is None:
            return
        if self._once("entry", node.lineno, node.col_offset, factory):
            self.facts.shard_entries.append(
                ShardEntryEvent(factory, kind, node.lineno, node.col_offset)
            )


def _labelled_args(
    node: ast.Call,
    arg_values: list[Value],
    kw_names: tuple[str | None, ...],
    kw_values: list[Value],
) -> Iterator[tuple[str, Value]]:
    for i, value in enumerate(arg_values):
        yield (_render(node.args[i]) or f"arg {i}", value)
    for name, value in zip(kw_names, kw_values):
        yield (f"{name}=" if name else "**", value)


def _render(node: ast.expr) -> str:
    """Compact source-ish rendering for messages (best effort)."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs we emit
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


class ProjectAnalysis:
    """Dataflow facts and summaries for every indexed function.

    Construction runs the intraprocedural pass over each function, then
    iterates analysis + summary closure to a fixpoint (bounded — the
    lattice is finite and summaries only grow) so that call-result tags,
    alias-through returns and transitive parameter effects propagate
    through call chains.
    """

    #: Fixpoint iteration bound; chains deeper than this many calls are
    #: out of scope for the approximation (and unheard of in this repo).
    MAX_PASSES = 4

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.facts: dict[str, FunctionFacts] = {}
        self.summaries: dict[str, FunctionSummary] = {}
        for _ in range(self.MAX_PASSES):
            if not self._pass():
                break

    def _pass(self) -> bool:
        """One analyze-all + summarize-all round; True if anything grew."""
        for info in self.index.iter_functions():
            self.facts[info.qname] = _FunctionAnalyzer(
                info, self.index, self.summaries
            ).run()
        changed = False
        for qname, facts in self.facts.items():
            summary = self._summarize(qname, facts)
            if self.summaries.get(qname) != summary:
                self.summaries[qname] = summary
                changed = True
        return changed

    def _summarize(self, qname: str, facts: FunctionFacts) -> FunctionSummary:
        mutates = self._param_set(facts, (m.roots for m in facts.mutations))
        merge_params = self._param_set(facts, (s.roots for s in facts.sinks))
        accum_params = self._param_set(facts, (a.roots for a in facts.accums))
        boundary_params = self._param_set(
            facts, (b.roots for b in facts.boundaries)
        )
        # Close over callees: passing parameter i where a callee mutates
        # (or sinks) that position charges the effect to parameter i.
        for call in facts.calls:
            callee = self._callee_summary(call)
            if callee is None:
                continue
            summary, offset = callee
            for pos, roots in enumerate(call.arg_roots):
                callee_param = pos + offset
                for root in roots:
                    if root.kind != "param":
                        continue
                    i = int(root.key)
                    if callee_param in summary.mutates:
                        mutates = mutates | {i}
                    if callee_param in summary.merge_params:
                        merge_params = merge_params | {i}
                    if callee_param in summary.accum_params:
                        accum_params = accum_params | {i}
                    if callee_param in summary.boundary_params:
                        boundary_params = boundary_params | {i}
            if 0 in summary.mutates and not call.is_constructor:
                # Mutating ``self`` counts against the receiver.
                for root in call.receiver_roots:
                    if root.kind == "param":
                        mutates = mutates | {int(root.key)}
        return FunctionSummary(
            returns_tags=facts.returns_tags,
            returns_params=facts.returns_params,
            mutates=frozenset(mutates),
            merge_params=frozenset(merge_params),
            accum_params=frozenset(accum_params),
            boundary_params=frozenset(boundary_params),
        )

    def _callee_summary(
        self, call: CallEvent
    ) -> tuple[FunctionSummary, int] | None:
        """Summary of the resolved callee plus its parameter offset.

        Constructor calls resolve to ``__init__`` with offset 1 (the
        call's positional 0 is the method's parameter 1); bound method
        calls likewise skip ``self``.
        """
        if call.callee is None:
            return None
        if call.is_constructor:
            cls = self.index.classes.get(call.callee)
            init = cls.init_qname if cls else None
            if init is None or init not in self.summaries:
                return None
            return (self.summaries[init], 1)
        summary = self.summaries.get(call.callee)
        if summary is None:
            return None
        info = self.index.functions.get(call.callee)
        offset = 1 if info is not None and info.is_method else 0
        return (summary, offset)

    @staticmethod
    def _param_set(
        facts: FunctionFacts, root_sets: Iterator[RootSet]
    ) -> frozenset[int]:
        out: set[int] = set()
        for roots in root_sets:
            for root in roots:
                if root.kind == "param":
                    out.add(int(root.key))
        return frozenset(out)

    def facts_for_module(self, relpath_str: str) -> Iterator[FunctionFacts]:
        """Facts of functions defined in the module at *relpath_str*."""
        for facts in self.facts.values():
            if str(facts.info.module.relpath) == relpath_str:
                yield facts
