"""Stream-topology analysis over ``runtime.ops`` thread factories.

Builds the producer/consumer graph of a workload *without running it*:
which threads read, write and close which bounded streams.  The walk is
interprocedural over the factory source (``yield Call(fn, ...)``,
``yield from fn(...)`` and ``yield Spawn(...)`` are followed into the
callee with the caller's argument bindings), with a may-binding
environment so patterns like ``stream = work_streams[i % k]`` and
``for stream in work_streams`` resolve to every member of the bound
stream list.

Verdicts:

* a stream some thread reads that **no** thread ever writes or closes
  is a *guaranteed* deadlock (the reader blocks forever; the kernel's
  watchdog raises ``DeadlockError`` at run time) — an error finding,
  provided the walk resolved every stream operation;
* cycles through bounded streams (thread → stream it writes → thread
  that reads it → ...) are *candidate* deadlocks: whether they bite
  depends on buffer capacities and data volume (§5.1), so they are
  reported in the report ``meta`` — or as warnings in pedantic mode —
  and cross-checked dynamically by the differential suite;
* written-never-read and read-never-closed streams are likewise
  pedantic-mode warnings (a reader that stops before end-of-stream is
  legitimate, e.g. the fork/join parent collecting a known item count).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import (ERROR, WARNING, AnalysisReport, Finding)
from repro.runtime import ops as _ops
from repro.runtime.streams import Stream

#: op classes that touch a stream (first constructor argument)
_READ_OPS = (_ops.Read, _ops.ReadLine)
_WRITE_OPS = (_ops.Write,)
_CLOSE_OPS = (_ops.CloseStream,)

#: interprocedural recursion limits (factories are shallow in practice)
_MAX_DEPTH = 24

#: an abstract value set, kept as an *ordered* may-set (dict keys in
#: first-bound order) so the walk — and the stream numbering it yields —
#: follows source and list order, never hash (heap address) order
_Values = Dict[Any, None]


class _Unresolved:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<unresolved>"


UNRESOLVED = _Unresolved()


class _Box:
    """Identity-hashable holder for unhashable values (stream lists)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __hash__(self) -> int:
        return id(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Box) and other.value is self.value


def _box(value: Any) -> Any:
    try:
        hash(value)
    except TypeError:
        return _Box(value)
    return value


def _unbox(value: Any) -> Any:
    return value.value if isinstance(value, _Box) else value


class ThreadNode:
    """One (possibly spawned) thread and the streams it touches."""

    def __init__(self, name: str, factory_name: str):
        self.name = name
        self.factory_name = factory_name
        #: stream indices (see ``TopologyGraph.streams``)
        self.reads: Set[int] = set()
        self.writes: Set[int] = set()
        self.closes: Set[int] = set()
        #: some stream operation or call target could not be resolved
        self.partial = False


class StreamNode:
    """One stream and the thread names on each side of it."""

    def __init__(self, stream: Stream, index: int):
        self.stream = stream
        self.index = index
        self.name = stream.name or ("stream#%d" % index)
        self.capacity = stream.capacity
        self.readers: Set[str] = set()
        self.writers: Set[str] = set()
        self.closers: Set[str] = set()


class TopologyGraph:
    """The full producer/consumer graph of a workload."""

    def __init__(self) -> None:
        self.threads: List[ThreadNode] = []
        #: every stream some thread touches, in first-seen order; a
        #: stream's position is its index
        self.streams: List[StreamNode] = []
        #: ``id(stream)`` -> index; a lookup only (the nodes keep the
        #: streams alive), never an order
        self._index: Dict[int, int] = {}

    @property
    def partial(self) -> bool:
        return any(t.partial for t in self.threads)

    def node_of(self, stream: Stream) -> Optional[StreamNode]:
        """The node of ``stream``, or None if no thread touches it."""
        index = self._index.get(id(stream))
        return None if index is None else self.streams[index]

    def _stream_node(self, stream: Stream) -> StreamNode:
        node = self.node_of(stream)
        if node is None:
            node = StreamNode(stream, len(self.streams))
            self._index[id(stream)] = node.index
            self.streams.append(node)
        return node

    def cycles(self) -> List[List[str]]:
        """Cycles in the bipartite thread → stream → thread graph.

        Edges: a thread points at every stream it writes; a stream
        points at every thread that reads it.  Returned as alternating
        ``[thread, stream, thread, ..., thread]`` name lists (the first
        and last name coincide).
        """
        succ: Dict[str, List[str]] = {}
        for t in self.threads:
            key = "t:" + t.name
            succ[key] = ["s:%d" % sid for sid in sorted(t.writes)]
        for s in self.streams:
            succ["s:%d" % s.index] = sorted("t:" + r for r in s.readers)

        found: List[List[str]] = []
        seen_cycles: Set[Tuple[str, ...]] = set()
        for start in sorted(succ):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            visited: Set[str] = set()
            while stack:
                node, path = stack.pop()
                for nxt in succ.get(node, ()):
                    if nxt == start:
                        cycle = path + [start]
                        key = tuple(sorted(set(cycle)))
                        if key not in seen_cycles:
                            seen_cycles.add(key)
                            found.append(self._render_cycle(cycle))
                    elif nxt not in visited and nxt not in path:
                        visited.add(nxt)
                        stack.append((nxt, path + [nxt]))
        return found

    def _render_cycle(self, cycle: Sequence[str]) -> List[str]:
        out = []
        for node in cycle:
            if node.startswith("s:"):
                out.append(self.streams[int(node[2:])].name)
            else:
                out.append(node[2:])
        return out

    def summary(self) -> Dict[str, Any]:
        return {
            "threads": [
                {"name": t.name, "factory": t.factory_name,
                 "reads": sorted(self.streams[s].name for s in t.reads),
                 "writes": sorted(self.streams[s].name for s in t.writes),
                 "closes": sorted(self.streams[s].name for s in t.closes),
                 "partial": t.partial}
                for t in self.threads],
            "streams": [
                {"name": s.name, "capacity": s.capacity,
                 "readers": sorted(s.readers), "writers": sorted(s.writers),
                 "closers": sorted(s.closers)}
                for s in self.streams],
            "cycles": self.cycles(),
            "partial": self.partial,
        }


# -- the interprocedural factory walk ------------------------------------

_SOURCE_CACHE: Dict[Any, Optional[ast.FunctionDef]] = {}


def _function_ast(func) -> Optional[ast.FunctionDef]:
    if func in _SOURCE_CACHE:
        return _SOURCE_CACHE[func]
    node: Optional[ast.FunctionDef] = None
    try:
        source = textwrap.dedent(inspect.getsource(func))
        module = ast.parse(source)
        for stmt in ast.walk(module):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = stmt  # outermost definition comes first
                break
    except (OSError, TypeError, SyntaxError, IndentationError):
        node = None
    _SOURCE_CACHE[func] = node
    return node


def _bind_args(func, argsets: Sequence[_Values]) -> Dict[str, _Values]:
    """Map parameter names to abstract value sets, defaults included."""
    env: Dict[str, _Values] = {}
    try:
        params = list(inspect.signature(func).parameters.values())
    except (ValueError, TypeError):
        return env
    i = 0
    for param in params:
        if param.kind == param.VAR_POSITIONAL:
            env[param.name] = {tuple(): None}
            i = len(argsets)
        elif i < len(argsets):
            env[param.name] = dict(argsets[i])
            i += 1
        elif param.default is not param.empty:
            env[param.name] = {_box(param.default): None}
        else:
            env[param.name] = {UNRESOLVED: None}
    return env


class _Walker:
    """Walks one thread's factory (and its callees) into the graph."""

    def __init__(self, graph: TopologyGraph, thread: ThreadNode):
        self.graph = graph
        self.thread = thread
        self._memo: Set[Tuple[int, Tuple[Any, ...]]] = set()

    # -- value resolution --------------------------------------------------

    def _globals_of(self, func) -> Dict[str, Any]:
        scope = dict(getattr(func, "__globals__", {}) or {})
        try:
            closure = inspect.getclosurevars(func)
            scope.update(closure.nonlocals)
        except (TypeError, ValueError):
            pass
        return scope

    def _resolve(self, expr: ast.expr, env: Dict[str, _Values],
                 scope: Dict[str, Any]) -> _Values:
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return dict(env[expr.id])
            if expr.id in scope:
                return {_box(scope[expr.id]): None}
            return {UNRESOLVED: None}
        if isinstance(expr, ast.Constant):
            return {_box(expr.value): None}
        if isinstance(expr, ast.Subscript):
            return _elements(self._resolve(expr.value, env, scope))
        if isinstance(expr, (ast.List, ast.Tuple)):
            out: _Values = {}
            for element in expr.elts:
                out.update(self._resolve(element, env, scope))
            return out
        return {UNRESOLVED: None}

    def _streams_of(self, expr: ast.expr, env: Dict[str, _Values],
                    scope: Dict[str, Any]) -> List[Stream]:
        values = [_unbox(v) for v in self._resolve(expr, env, scope)]
        streams = [v for v in values if isinstance(v, Stream)]
        if any(v is UNRESOLVED for v in values) or not streams:
            self.thread.partial = True
        return streams

    # -- the walk ----------------------------------------------------------

    def walk(self, func, argsets: Sequence[_Values], depth: int = 0) -> None:
        if depth > _MAX_DEPTH:
            self.thread.partial = True
            return
        key = (id(func), tuple(
            frozenset(id(v) for v in argset) for argset in argsets))
        if key in self._memo:
            return
        self._memo.add(key)
        node = _function_ast(func)
        if node is None:
            self.thread.partial = True
            return
        env = _bind_args(func, argsets)
        scope = self._globals_of(func)
        # two passes: may-bindings introduced late (loop-carried names)
        # are visible to stream operations earlier in the source
        for __ in range(2):
            for stmt in node.body:
                self._walk_stmt(stmt, env, scope, depth)

    def _walk_stmt(self, stmt: ast.stmt, env, scope, depth: int) -> None:
        if isinstance(stmt, ast.Assign):
            values = self._assigned(stmt.value, env, scope, depth)
            for target in stmt.targets:
                self._bind_target(target, values, env)
        elif isinstance(stmt, ast.AugAssign):
            self._assigned(stmt.value, env, scope, depth)
        elif isinstance(stmt, ast.For):
            elements = _elements(self._resolve(stmt.iter, env, scope))
            self._bind_target(stmt.target, elements, env)
            for sub in stmt.body + stmt.orelse:
                self._walk_stmt(sub, env, scope, depth)
        elif isinstance(stmt, (ast.While, ast.If)):
            body = stmt.body + stmt.orelse
            for sub in body:
                self._walk_stmt(sub, env, scope, depth)
        elif isinstance(stmt, (ast.With,)):
            for sub in stmt.body:
                self._walk_stmt(sub, env, scope, depth)
        elif isinstance(stmt, ast.Try):
            for sub in (stmt.body + stmt.orelse + stmt.finalbody
                        + [s for h in stmt.handlers for s in h.body]):
                self._walk_stmt(sub, env, scope, depth)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._assigned(stmt.value, env, scope, depth)

    def _bind_target(self, target: ast.expr, values: _Values, env) -> None:
        if isinstance(target, ast.Name):
            env.setdefault(target.id, {}).update(values)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, {UNRESOLVED: None}, env)

    def _assigned(self, expr: ast.expr, env, scope, depth: int) -> _Values:
        """Visit an expression for yields; return its abstract value."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Yield) and node.value is not None:
                self._visit_yield(node.value, env, scope, depth)
            elif isinstance(node, ast.YieldFrom):
                self._visit_yield_from(node.value, env, scope, depth)
        return self._resolve(expr, env, scope)

    def _visit_yield(self, value: ast.expr, env, scope, depth: int) -> None:
        if not isinstance(value, ast.Call):
            return
        targets = [_unbox(t) for t in self._resolve(value.func, env, scope)]
        for target in targets:
            if target in _READ_OPS:
                self._record("reads", value, env, scope)
            elif target in _WRITE_OPS:
                self._record("writes", value, env, scope)
            elif target in _CLOSE_OPS:
                self._record("closes", value, env, scope)
            elif target in (_ops.Call, _ops.Spawn):
                self._follow_call(value, env, scope, depth)
            # Tick/YieldCPU/Join/FlushHint touch no stream

    def _record(self, kind: str, call: ast.Call, env, scope) -> None:
        if not call.args:
            self.thread.partial = True
            return
        side = {"reads": "readers", "writes": "writers",
                "closes": "closers"}[kind]
        for stream in self._streams_of(call.args[0], env, scope):
            node = self.graph._stream_node(stream)
            getattr(node, side).add(self.thread.name)
            getattr(self.thread, kind).add(node.index)

    def _follow_call(self, call: ast.Call, env, scope, depth: int) -> None:
        if not call.args:
            self.thread.partial = True
            return
        callees = [_unbox(c)
                   for c in self._resolve(call.args[0], env, scope)]
        argsets = [self._resolve(arg, env, scope) for arg in call.args[1:]]
        resolved = False
        for callee in callees:
            if callable(callee) and callee is not UNRESOLVED:
                self.walk(callee, argsets, depth + 1)
                resolved = True
        if not resolved:
            self.thread.partial = True

    def _visit_yield_from(self, value: ast.expr, env, scope,
                          depth: int) -> None:
        if not isinstance(value, ast.Call):
            self.thread.partial = True
            return
        callees = [_unbox(c) for c in self._resolve(value.func, env, scope)]
        argsets = [self._resolve(arg, env, scope) for arg in value.args]
        resolved = False
        for callee in callees:
            if callable(callee) and callee is not UNRESOLVED:
                self.walk(callee, argsets, depth + 1)
                resolved = True
        if not resolved:
            self.thread.partial = True


def _elements(values: _Values) -> _Values:
    """Members of every list/tuple among ``values`` (in list order);
    anything else is unresolved."""
    out: _Values = {}
    for value in values:
        value = _unbox(value)
        if isinstance(value, (list, tuple)):
            out.update((_box(element), None) for element in value)
        else:
            out[UNRESOLVED] = None
    return out


def analyze_threads(threads: Iterable[Any]) -> TopologyGraph:
    """Build the graph from spawned threads (``.factory``/``.args``)."""
    graph = TopologyGraph()
    for thread in threads:
        name = getattr(thread, "name", "") or (
            getattr(thread.factory, "__name__", "?"))
        node = ThreadNode(name, getattr(thread.factory, "__name__", "?"))
        graph.threads.append(node)
        _Walker(graph, node).walk(
            thread.factory, [{_box(arg): None} for arg in thread.args])
    return graph


def topology_findings(graph: TopologyGraph,
                      pedantic: bool = False) -> List[Finding]:
    findings: List[Finding] = []
    complete = not graph.partial
    for stream in graph.streams:
        if stream.readers and not stream.writers and not stream.closers:
            findings.append(Finding(
                rule="stream-never-written",
                severity=ERROR if complete else WARNING,
                message="stream %r is read by %s but never written or "
                        "closed by any thread"
                        % (stream.name, ", ".join(sorted(stream.readers))),
                file=stream.name,
                hint="the reader blocks forever (DeadlockError at run "
                     "time); add a producer or close the stream"))
        elif pedantic and stream.writers and not stream.readers:
            findings.append(Finding(
                rule="stream-never-read", severity=WARNING,
                message="stream %r is written by %s but never read"
                        % (stream.name, ", ".join(sorted(stream.writers))),
                file=stream.name,
                hint="writers block once %d buffered bytes accumulate"
                     % stream.capacity))
        elif (pedantic and stream.readers and stream.writers
              and not stream.closers):
            findings.append(Finding(
                rule="stream-not-closed", severity=WARNING,
                message="stream %r is read by %s but no thread closes it"
                        % (stream.name, ", ".join(sorted(stream.readers))),
                file=stream.name,
                hint="a reader draining to end-of-stream never wakes; "
                     "yield CloseStream(...) when production ends"))
    if pedantic:
        for cycle in graph.cycles():
            findings.append(Finding(
                rule="stream-cycle", severity=WARNING,
                message="cycle through bounded streams: %s"
                        % " -> ".join(cycle),
                file=cycle[1] if len(cycle) > 1 else "",
                hint="a candidate deadlock: whether it bites depends on "
                     "buffer capacities and data volume (§5.1)"))
    return findings


def analyze_kernel(kernel: Any, pedantic: bool = False) -> AnalysisReport:
    """Topology report for a built (not yet run) kernel or probe."""
    graph = analyze_threads(kernel.threads)
    report = AnalysisReport(tool="repro.analysis.topology")
    report.extend(topology_findings(graph, pedantic=pedantic))
    report.meta.update(graph.summary())
    report.sort()
    return report


class ProbeKernel:
    """Duck-typed stand-in for :class:`repro.runtime.kernel.Kernel`.

    Workload builders only call ``stream(...)`` and ``spawn(...)``;
    building against the probe records the topology without paying for
    a window file, scheme or scheduler — this is how the fuzzer
    pre-validates a workload plan before burning a trial.
    """

    class _Thread:
        __slots__ = ("tid", "name", "factory", "args")

        def __init__(self, tid: int, name: str, factory, args):
            self.tid = tid
            self.name = name or getattr(factory, "__name__", "t%d" % tid)
            self.factory = factory
            self.args = args

    def __init__(self) -> None:
        self.threads: List[ProbeKernel._Thread] = []
        self.streams: List[Stream] = []

    def stream(self, capacity: int, name: str = "") -> Stream:
        stream = Stream(capacity, name)
        self.streams.append(stream)
        return stream

    def spawn(self, factory, *args, name: str = ""):
        thread = self._Thread(len(self.threads), name, factory, args)
        self.threads.append(thread)
        return thread


def analyze_workload_config(config: Dict[str, Any],
                            pedantic: bool = False) -> AnalysisReport:
    """Topology report for a crash-bundle/fuzz workload ``config``.

    Builds the named workload against a :class:`ProbeKernel` (no
    window file, no scheduler) and analyzes what it spawned.  A config
    naming an unknown workload or whose builder raises yields a report
    with a single ``workload-build-error`` error finding.
    """
    from repro.faults.workloads import get_workload

    probe = ProbeKernel()
    try:
        workload = get_workload(str(config.get("workload")))
        workload.build(probe, config)
    except Exception as exc:
        report = AnalysisReport(tool="repro.analysis.topology")
        report.add(Finding(
            rule="workload-build-error", severity=ERROR,
            message="workload %r cannot be built: %s"
                    % (config.get("workload"), exc),
            hint="the config would fail before the kernel even runs"))
        return report
    return analyze_kernel(probe, pedantic=pedantic)
