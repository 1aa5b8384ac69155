#!/usr/bin/env python
"""Measure line coverage of ``src/repro`` without coverage.py, or its reach.

CI runs the real coverage gate via pytest-cov; this tool exists so the
``--cov-fail-under`` baseline can be (re)measured in environments where
coverage.py isn't installed — it uses the stdlib :mod:`sys.monitoring`
API (PEP 669, Python >= 3.12) to record executed lines while driving
the tier-1 pytest suite in-process.

Usage::

    PYTHONPATH=src python tools/coverage_baseline.py [pytest args...]
    PYTHONPATH=src python tools/coverage_baseline.py --entry-points

Default mode prints per-module and total line coverage. The numbers are
close to, but not identical with, coverage.py's (no branch analysis, and
``co_lines`` denominators differ slightly from coverage.py's arc
parser) — treat the total as a floor-setting estimate, then keep the CI
gate a few points below it for slack.

``--entry-points`` answers a different question: which code does only
the test suite reach? It runs every product entry point in
:data:`ENTRY_POINTS` in-process under :func:`sys.setprofile` and prints
each module's outermost functions (methods count; nested functions and
lambdas are part of their parent; ``@overload`` stubs,
``@abstractmethod`` bodies and ``Protocol`` members never run, so they
are not listed) that no entry point called, keyed on the first line of
the definition (its first decorator, which is ``co_firstlineno``).
Definitions matching :data:`KNOWN_UNREACHED` are printed under their
own heading with the reason they stay.

It is a gate: it exits 1 when an entry point fails, when a
``src/repro`` module changes while the entry points run (definitions are
read before the run, so a mid-run edit would shift the line numbers
they are matched on), when a definition outside
:data:`KNOWN_UNREACHED` is never called, or when a
:data:`KNOWN_UNREACHED` qualname glob matches no never-called
definition (its code was deleted or is now reached), so the allow-list
cannot go stale. :func:`reach_verdict` makes that decision.

Before running anything, ``--entry-points`` also checks *state*, by
name and without running code: every attribute name ``src/repro``
stores (``x.a = …``, ``x.a += …``, ``x.a[k] = …``,
``x.a.append/extend/add/update/insert(…)`` and dataclass fields) must be
loaded, or used as a string constant, by some ``.py`` file outside
``tests/`` and ``loopbench/tests/``. A write into what ``x.a`` holds
(``x.a[k] = …`` or a mutator call) counts as a store of ``a`` only when
``src/repro`` also stores ``a`` directly, by assignment or as a
dataclass field: ``k.flat[…] += …`` writes through numpy's ``flat``,
which no product code owns. A name nothing reads fails the gate
unless :data:`KNOWN_UNREAD` names it with a reason, and so does a
:data:`KNOWN_UNREAD` name that is read or no longer stored.
:func:`state_verdict` makes that decision. The check goes by name only,
so it never flags a name that is read anywhere, even on another type.
"""

from __future__ import annotations

import ast
import contextlib
import fnmatch
import os
import sys
import tempfile
import threading
from collections import defaultdict
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The product's entry points: ``repro`` CLI argument lists and
#: ``loopbench/run.py`` argument lists. ``repro trace`` gets an ``--out``
#: under a temporary directory; everything runs with one worker, in this
#: process.
ENTRY_POINTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    *(
        ("repro", ("run", target))
        for target in (
            "ablations", "fig02", "fig03", "fig05", "fig06", "fig07",
            "fig08", "fig09", "fig10", "fig12", "fig14", "fig15",
        )
    ),
    ("repro", ("run", "fig09", "--fleet-size", "6", "--hours", "2")),
    ("repro", ("run", "fig09", "--fleet-size", "6", "--hours", "2",
               "--features", "surrogate,knob-select")),
    ("repro", ("run", "fig10", "--flavor", "mysql")),
    ("repro", ("run", "fig12", "--tuner", "cdbtune")),
    ("repro", ("chaos", "--quick")),
    ("repro", ("chaos", "--quick", "--features", "surrogate,knob-select")),
    ("repro", ("chaos", "--quick", "--profile", "adversarial")),
    ("repro", ("trace", "chaos")),
    ("repro", ("trace", "fleet")),
    *(
        ("repro", ("demo", name))
        for name in (
            "quickstart", "paas_fleet", "workload_shift",
            "downtime_maintenance", "tuner_comparison",
        )
    ),
    ("repro", ("ablate", "knobs")),
    ("repro", ("lint",)),
    *(
        ("loopbench", ("--workload", name, "--seed", "1", "--seconds", "20",
                       "--trace", "1"))
        for name in ("fleet-tde", "landscape-periodic", "landscape-governed")
    ),
)

#: Definitions no entry point calls that stay on purpose:
#: ``(module glob, qualname globs, reason)``, matched against the path
#: under ``src/`` and the definition's qualified name; the qualname
#: globs are separated by spaces.
_PROCESS = "process backend: --workers > 1 children are not traced"
KNOWN_UNREACHED: tuple[tuple[str, str, str], ...] = (
    ("repro/parallel/executor.py",
     "WorkerCrashed.* _map_main _session_main _receive FleetExecutor._context",
     _PROCESS),
    ("repro/tuners/hybrid.py", "*", "reached by the ablation_hybrid bench"),
    ("repro/experiments/ablation_hybrid.py", "*",
     "reached by the ablation_hybrid bench"),
    ("repro/core/director/config_director.py", "ConfigDirector._serve_fallback",
     "fault path: every tuner instance tripped or unreachable"),
    ("repro/core/director/breaker.py",
     "CircuitBreaker.allows_requests CircuitBreaker._trip",
     "fault path: circuit-breaker trip"),
    ("repro/core/director/load_balancer.py", "LeastLoadedBalancer.set_health",
     "fault path: circuit-breaker trip"),
    ("repro/core/director/safety.py", "SafetyGovernor.revert_failed",
     "fault path: a revert that itself fails"),
    ("repro/experiments/fig05_disk_latency.py", "resample_mean",
     "read by the fig05 bench"),
    ("repro/experiments/fig03_04_entropy.py", "mean_separation",
     "read by the fig03 and fig04 benches"),
    ("repro/experiments/fig06_mdp_learning.py",
     "MDPLearningRun.cumulative_mean_accuracy", "read by the fig06 bench"),
    ("repro/experiments/fig09_requests_per_minute.py", "Fig09Run.tde_peak_hour",
     "read by the fig09 bench"),
    ("repro/experiments/fig10_11_throttles.py", "ThrottlePanel.dominant_class",
     "read by the fig10 bench"),
    ("repro/tuners/ottertune.py", "OtterTuneTuner.surrogate_screen",
     "read by the perf_recommend bench"),
    ("repro/dbsim/replication.py", "ReplicatedService.run",
     "wrapped by loopbench: its ledger patches it as dbsim.run"),
    ("repro/tuners/base.py", "Tuner.configure", "abstract tuner interface"),
    ("repro/cli.py", "_positive_int", "CLI option check on invalid input"),
    ("repro/*", "*.__repr__", "debugging aid"),
)


#: Attribute names ``src/repro`` stores that no code outside the tests
#: reads, kept on purpose: ``(names, reason)``; the names are separated
#: by spaces.
KNOWN_UNREAD: tuple[tuple[str, str], ...] = (
    ("writeable", "numpy array flag: numpy reads it and refuses writes"),
    ("text",
     "a query-log row's statement text, as the log shows it; the TDE reads "
     "the family templates instead"),
    ("credentials username password",
     "a deployment's access credentials, held for the operator; the "
     "password draw feeds the seeds of later deployments"),
)

#: Methods that write into the container they are called on.
_MUTATORS = frozenset({"append", "extend", "add", "update", "insert"})


def main(argv: list[str]) -> int:
    if argv[:1] == ["--entry-points"]:
        if argv[1:]:
            print("--entry-points takes no further arguments", file=sys.stderr)
            return 2
        return _report_reach()

    import pytest

    executed: dict[str, set[int]] = defaultdict(set)
    prefix = str(SRC / "repro")

    if sys.version_info >= (3, 12):
        exit_code = _run_monitored(pytest, argv, executed, prefix)
    else:
        # Pre-3.12 fallback: sys.settrace. Much slower (it fires for
        # every frame, not just instrumented code), but line-accurate.
        exit_code = _run_traced(pytest, argv, executed, prefix)
    if exit_code != 0:
        print(f"pytest exited {exit_code}; coverage numbers unreliable", file=sys.stderr)
        return int(exit_code)

    total_lines = 0
    total_hit = 0
    rows: list[tuple[str, int, int]] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        lines = _measurable_lines(path)
        if not lines:
            continue
        hit = len(executed.get(str(path), set()) & lines)
        rows.append((str(path.relative_to(SRC)), hit, len(lines)))
        total_hit += hit
        total_lines += len(lines)

    width = max(len(name) for name, _, _ in rows)
    for name, hit, count in rows:
        print(f"{name:<{width}}  {hit:>5}/{count:<5}  {100.0 * hit / count:6.1f}%")
    pct = 100.0 * total_hit / total_lines if total_lines else 0.0
    print("-" * (width + 22))
    print(f"{'TOTAL':<{width}}  {total_hit:>5}/{total_lines:<5}  {pct:6.1f}%")
    return 0


def _run_monitored(pytest, argv, executed, prefix) -> int:
    mon = sys.monitoring
    tool_id = mon.COVERAGE_ID

    def on_line(code, line_number):
        filename = code.co_filename
        if filename.startswith(prefix):
            executed[filename].add(line_number)
            return None
        return mon.DISABLE

    mon.use_tool_id(tool_id, "coverage_baseline")
    mon.register_callback(tool_id, mon.events.LINE, on_line)
    mon.set_events(tool_id, mon.events.LINE)
    try:
        return int(pytest.main(["-x", "-q", *(argv or ["tests"])]))
    finally:
        mon.set_events(tool_id, 0)
        mon.register_callback(tool_id, mon.events.LINE, None)
        mon.free_tool_id(tool_id)


def _run_traced(pytest, argv, executed, prefix) -> int:
    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if event == "line":
            executed[filename].add(frame.f_lineno)
        return tracer

    sys.settrace(tracer)
    try:
        return int(pytest.main(["-x", "-q", *(argv or ["tests"])]))
    finally:
        sys.settrace(None)


def _report_reach() -> int:
    """Check the state, run :data:`ENTRY_POINTS`, print both reports, gate.

    Definitions are read before the entry points run and matched against
    that snapshot, so the line numbers are those of the code that ran; a
    module whose text changes during the run fails the gate.
    """
    sources = _read_sources()
    state_failed = _report_state(sources)
    functions = {path: _outermost_functions(text) for path, text in sources.items()}
    called = _run_entry_points()
    if called is None:
        return 1
    changed = changed_sources(sources, _read_sources())
    if changed:
        for path in changed:
            print(f"FAIL: {path.relative_to(SRC)} changed during the run")
        print("Reach gate: FAIL (rerun it on a tree nothing edits)")
        return 1
    unreached: list[tuple[str, int, int, str]] = []
    known: list[tuple[str, int, int, str, str]] = []
    for path, definitions in functions.items():
        module = str(path.relative_to(SRC))
        for first, last, qualname in definitions:
            if (str(path), first) in called:
                continue
            reason = _known_reason(module, qualname)
            if reason is None:
                unreached.append((module, first, last, qualname))
            else:
                known.append((module, first, last, qualname, reason))

    print("Never called by an entry point (module, first line, lines, name):")
    for module, first, last, qualname in unreached:
        print(f"  {module}:{first}  {last - first + 1:>4}  {qualname}")
    print(
        f"  {len(unreached)} definitions, "
        f"{sum(last - first + 1 for _, first, last, _ in unreached)} lines"
    )
    print()
    print("Known false positives, kept on purpose:")
    for module, first, last, qualname, reason in known:
        print(f"  {module}:{first}  {last - first + 1:>4}  {qualname}  -- {reason}")
    print(
        f"  {len(known)} definitions, "
        f"{sum(last - first + 1 for _, first, last, _, _ in known)} lines"
    )
    print()
    problems = reach_verdict(unreached, known, KNOWN_UNREACHED)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("Reach gate: " + ("FAIL" if problems else "pass"))
    return 1 if problems or state_failed else 0


def _read_sources() -> dict[Path, str]:
    """The text of every ``src/repro`` module, by path."""
    return {path: path.read_text() for path in sorted((SRC / "repro").rglob("*.py"))}


def changed_sources(before: dict[Path, str], after: dict[Path, str]) -> list[Path]:
    """The modules added, deleted or edited between two :func:`_read_sources`."""
    return sorted(
        path for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )


def _report_state(sources: dict[Path, str]) -> bool:
    """Print the stored-but-unread attribute names; True when they fail."""
    product = {str(path.relative_to(SRC)): text for path, text in sources.items()}
    # This file is left out too: its allow-list names every unread name.
    readers = [
        path.read_text()
        for path in sorted(ROOT.rglob("*.py"))
        if not _is_test_or_hidden(path.relative_to(ROOT).parts)
        and path != Path(__file__).resolve()
    ]
    unread = unread_state(product, readers)
    known = {name: reason for names, reason in KNOWN_UNREAD for name in names.split()}
    print("Stored but never read outside the tests (name, where stored):")
    for name in sorted(unread.keys() - known.keys()):
        print(f"  {name}  {' '.join(unread[name])}")
    print()
    print("Known unread state, kept on purpose:")
    for name in sorted(unread.keys() & known.keys()):
        print(f"  {name}  {' '.join(unread[name])}  -- {known[name]}")
    print()
    problems = state_verdict(unread, KNOWN_UNREAD)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("State gate: " + ("FAIL" if problems else "pass"))
    print()
    return bool(problems)


def _is_test_or_hidden(parts: tuple[str, ...]) -> bool:
    return (
        parts[0] == "tests"
        or parts[:2] == ("loopbench", "tests")
        or any(part.startswith(".") for part in parts)
    )


def unread_state(
    product: dict[str, str], readers: Sequence[str]
) -> dict[str, list[str]]:
    """Attribute names *product* stores that no source in *readers* reads.

    *product* maps a module's path to its source, *readers* are the
    sources that count as reading (the product's own among them). The
    result maps each unread name to the ``module:line`` places that
    store it.
    """
    stored: dict[str, list[str]] = defaultdict(list)
    owned: set[str] = set()
    for module, source in product.items():
        for name, line, direct in _writes(ast.parse(source))[0]:
            stored[name].append(f"{module}:{line}")
            if direct:
                owned.add(name)
    read: set[str] = set()
    for source in readers:
        read |= _reads(ast.parse(source))
    return {
        name: places
        for name, places in stored.items()
        if name in owned and name not in read
    }


def state_verdict(
    unread: dict[str, list[str]], known: Sequence[tuple[str, str]]
) -> list[str]:
    """Why the state gate fails; empty when it passes.

    *unread* is :func:`unread_state`'s result, *known* the allow-list in
    the shape of :data:`KNOWN_UNREAD`. Every unread name the allow-list
    does not cover fails the gate, and so does every allow-listed name
    that is not unread.
    """
    allowed = {name for names, _ in known for name in names.split()}
    problems = [
        f"{name} is stored at {' '.join(unread[name])} but never read "
        "outside the tests"
        for name in sorted(unread.keys() - allowed)
    ]
    problems += [
        f"KNOWN_UNREAD name {name} is read or no longer stored"
        for name in sorted(allowed - unread.keys())
    ]
    return problems


def _writes(tree: ast.AST) -> tuple[list[tuple[str, int, bool]], set[int]]:
    """Attribute names *tree* stores, with their lines, and write receivers.

    Each store is ``(name, line, direct)``: direct for an assignment to
    ``x.a`` and a dataclass field, not for a write through a receiver. A
    write receiver is an ``x.a`` load that only writes into ``a``:
    ``x.a[k] = …`` and a statement ``x.a.append(…)`` (or another of
    :data:`_MUTATORS`).
    """
    stored: list[tuple[str, int, bool]] = []
    receivers: set[int] = set()

    def receiver(node: ast.expr, line: int) -> None:
        if isinstance(node, ast.Attribute):
            receivers.add(id(node))
            stored.append((node.attr, line, False))

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                receiver(func.value, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    receiver(target.value, node.lineno)
        elif isinstance(node, ast.ClassDef) and "dataclass" in {
            _bare_name(d) for d in node.decorator_list
        }:
            stored += [
                (item.target.id, item.lineno, True)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return stored, receivers


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names *tree* loads, other than as a write receiver, and its
    string constants."""
    receivers = _writes(tree)[1]
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load) and id(node) not in receivers:
                read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def reach_verdict(
    unreached: Sequence[tuple[str, int, int, str]],
    known: Sequence[tuple[str, int, int, str, str]],
    globs: Sequence[tuple[str, str, str]],
) -> list[str]:
    """Why the reach gate fails; empty when it passes.

    *unreached* are the never-called definitions no glob covers
    ``(module, first, last, qualname)``, *known* the ones a glob covers
    (the same plus the reason), *globs* the allow-list in the shape of
    :data:`KNOWN_UNREACHED`. Every unreached definition fails the gate,
    and so does every qualname glob that matches none of *known*.
    """
    problems = [
        f"{module}:{first} {qualname} is never called by an entry point"
        for module, first, _, qualname in unreached
    ]
    for module_glob, name_globs, _ in globs:
        for glob in name_globs.split():
            if not any(
                fnmatch.fnmatch(module, module_glob)
                and fnmatch.fnmatch(qualname, glob)
                for module, _, _, qualname, _ in known
            ):
                problems.append(
                    f"KNOWN_UNREACHED glob {module_glob} {glob} matches no "
                    "never-called definition"
                )
    return problems


def _run_entry_points() -> set[tuple[str, int]] | None:
    """``(filename, co_firstlineno)`` of every ``src/repro`` code run."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    from loopbench import run as loopbench_run
    from repro import cli

    prefix = str(SRC / "repro")
    # Keyed on id() with the code object kept alive: hashing a code
    # object walks its bytecode and constants on every call event.
    seen: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code

    os.chdir(ROOT)
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        for index, (program, args) in enumerate(ENTRY_POINTS):
            argv = list(args)
            if program == "repro" and argv[0] == "trace":
                argv += ["--out", str(Path(scratch) / f"trace{index}")]
            entry = cli.main if program == "repro" else loopbench_run.main
            print(f"[{index + 1}/{len(ENTRY_POINTS)}] {program} {' '.join(args)}",
                  file=sys.stderr, flush=True)
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    status = entry(argv)
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            if status:
                failed.append((program, args, status))
    for program, args, status in failed:
        print(f"{program} {' '.join(args)} exited {status}", file=sys.stderr)
    if failed:
        return None
    return {
        (code.co_filename, code.co_firstlineno)
        for code in seen.values()
        if code.co_filename.startswith(prefix)
    }


def _outermost_functions(source: str) -> list[tuple[int, int, str]]:
    """``(first line, last line, qualname)`` of each outermost function.

    Functions nested in classes count; functions nested in functions are
    part of their parent. ``@overload`` stubs, ``@abstractmethod`` bodies
    and ``Protocol`` members never run and are left out. The first line
    is the first decorator's, as in ``co_firstlineno``.
    """
    found: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if {_bare_name(d) for d in child.decorator_list} & {
                    "overload", "abstractmethod"
                }:
                    continue
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found.append((first, child.end_lineno, scope + child.name))
            elif isinstance(child, ast.ClassDef):
                if "Protocol" not in {_bare_name(base) for base in child.bases}:
                    visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _bare_name(node: ast.expr) -> str:
    """``typing.overload`` gives ``overload``, ``Protocol[T]`` ``Protocol``,
    ``dataclass(frozen=True)`` ``dataclass``."""
    if isinstance(node, (ast.Subscript, ast.Call)):
        node = node.value if isinstance(node, ast.Subscript) else node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _known_reason(module: str, qualname: str) -> str | None:
    for module_glob, name_globs, reason in KNOWN_UNREACHED:
        if fnmatch.fnmatch(module, module_glob) and any(
            fnmatch.fnmatch(qualname, glob) for glob in name_globs.split()
        ):
            return reason
    return None


def _measurable_lines(path: Path) -> set[int]:
    """Executable line numbers of *path* per its compiled code objects."""
    try:
        code = compile(path.read_text(), str(path), "exec")
    except SyntaxError:
        return set()
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, _, line in obj.co_lines():
            if line is not None:
                lines.add(line)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # Module docstrings / future imports compile to line 0 sentinels.
    lines.discard(0)
    return lines


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
