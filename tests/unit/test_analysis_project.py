"""Unit suite for the whole-program substrate: index, dataflow, call graph."""

import textwrap
from pathlib import Path, PurePosixPath

import pytest

from repro.analysis.dataflow import ProjectAnalysis, Root, Tag
from repro.analysis.engine import Linter, ParsedModule
from repro.analysis.project import (
    ProjectContext,
    ProjectIndex,
    module_name,
)


def parse_tree(tmp_path: Path, files: dict[str, str]) -> list[ParsedModule]:
    """Write *files* (relpath -> source) and parse them all."""
    linter = Linter(root=tmp_path)
    modules = []
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        parsed = linter.parse(target)
        assert isinstance(parsed, ParsedModule), f"{relpath} failed to parse"
        modules.append(parsed)
    return modules


def build_context(tmp_path: Path, files: dict[str, str]) -> ProjectContext:
    """Parse *files* and build a full context (no package fill-in)."""
    return ProjectContext.build(parse_tree(tmp_path, files))


class TestModuleName:
    @pytest.mark.parametrize(
        ("relpath", "expected"),
        [
            ("src/repro/parallel/reduce.py", "repro.parallel.reduce"),
            ("repro/cloud/fleet.py", "repro.cloud.fleet"),
            ("src/repro/__init__.py", "repro"),
            ("src/repro/obs/__init__.py", "repro.obs"),
            ("tests/fixtures/mutants/m_x.py", "tests.fixtures.mutants.m_x"),
            ("tool.py", "tool"),
        ],
    )
    def test_mapping(self, relpath, expected):
        assert module_name(PurePosixPath(relpath)) == expected

    def test_absolute_package_path_anchors_at_repro(self):
        path = PurePosixPath("/opt/env/site-packages/repro/common/rng.py")
        assert module_name(path) == "repro.common.rng"


class TestProjectIndex:
    def test_functions_classes_and_methods_indexed(self, tmp_path):
        (module,) = parse_tree(
            tmp_path,
            {
                "app/mod.py": """
                def top():
                    def nested():
                        return 1
                    return nested()

                class Box:
                    def __init__(self, value):
                        self.value = value

                    def get(self):
                        return self.value
                """
            },
        )
        index = ProjectIndex([module])
        assert "app.mod.top" in index.functions
        assert "app.mod.top.nested" in index.functions
        assert "app.mod.Box" in index.classes
        box = index.classes["app.mod.Box"]
        assert box.methods == {
            "__init__": "app.mod.Box.__init__",
            "get": "app.mod.Box.get",
        }
        assert box.init_qname == "app.mod.Box.__init__"
        init = index.functions["app.mod.Box.__init__"]
        assert init.is_method and init.params == ("self", "value")
        assert init.param_index("value") == 1

    def test_resolve_name_prefers_local_then_imports(self, tmp_path):
        modules = parse_tree(
            tmp_path,
            {
                "app/util.py": """
                def helper():
                    return 1
                """,
                "app/mod.py": """
                from app.util import helper

                def local():
                    return helper()
                """,
            },
        )
        index = ProjectIndex(modules)
        mod = index.modules["app.mod"]
        assert index.resolve_name(mod, "local") == "app.mod.local"
        assert index.resolve_name(mod, "helper") == "app.util.helper"
        assert index.resolve_name(mod, "unknown") is None

    def test_canonical_follows_reexports(self, tmp_path):
        modules = parse_tree(
            tmp_path,
            {
                "pkg/impl.py": """
                class Engine:
                    def start(self):
                        return 1
                """,
                "pkg/__init__.py": """
                from pkg.impl import Engine
                """,
            },
        )
        index = ProjectIndex(modules)
        assert index.canonical("pkg.Engine") == "pkg.impl.Engine"
        assert index.canonical("pkg.Engine.start") == "pkg.impl.Engine.start"
        assert index.canonical("math.sqrt") == "math.sqrt"  # unchanged


class TestDataflow:
    def _analysis(self, tmp_path, files):
        return ProjectAnalysis(ProjectIndex(parse_tree(tmp_path, files)))

    def test_rng_source_and_sanitizer_tags(self, tmp_path):
        analysis = self._analysis(
            tmp_path,
            {
                "app/mod.py": """
                from repro.common.rng import make_rng, stream_root

                def live(seed):
                    return make_rng(seed)

                def root(seed):
                    return stream_root(seed)
                """
            },
        )
        assert analysis.summaries["app.mod.live"].returns_tags == {Tag.RNG}
        assert analysis.summaries["app.mod.root"].returns_tags == frozenset()

    def test_unordered_tag_from_sets_and_dict_views(self, tmp_path):
        analysis = self._analysis(
            tmp_path,
            {
                "app/mod.py": """
                def dedupe(items):
                    return set(items)

                def ordered(items):
                    return sorted(set(items))
                """
            },
        )
        summaries = analysis.summaries
        assert Tag.UNORDERED in summaries["app.mod.dedupe"].returns_tags
        assert Tag.UNORDERED not in summaries["app.mod.ordered"].returns_tags

    def test_call_results_drop_provenance_roots(self, tmp_path):
        analysis = self._analysis(
            tmp_path,
            {
                "app/mod.py": """
                import pickle

                def snapshot(spec):
                    fresh = pickle.loads(pickle.dumps(spec.repository))
                    fresh.add(1)
                    return fresh
                """
            },
        )
        facts = analysis.facts["app.mod.snapshot"]
        # ``fresh`` is a new object: mutating it charges no parameter.
        assert all(
            root.kind != "param"
            for mutation in facts.mutations
            for root in mutation.roots
        )

    def test_mutation_roots_use_load_semantics(self, tmp_path):
        analysis = self._analysis(
            tmp_path,
            {
                "app/mod.py": """
                def direct(spec, sample):
                    spec.repository.add(sample)
                """
            },
        )
        facts = analysis.facts["app.mod.direct"]
        (mutation,) = facts.mutations
        assert Root("param", 0) in mutation.roots

    def test_summary_closes_mutation_over_calls(self, tmp_path):
        analysis = self._analysis(
            tmp_path,
            {
                "app/mod.py": """
                def leaf(store, item):
                    store.append(item)

                def outer(store, items):
                    for item in items:
                        leaf(store, item)
                """
            },
        )
        assert 0 in analysis.summaries["app.mod.leaf"].mutates
        assert 0 in analysis.summaries["app.mod.outer"].mutates

    def test_alias_through_returns_param_roots(self, tmp_path):
        analysis = self._analysis(
            tmp_path,
            {
                "app/mod.py": """
                def pick(spec):
                    return spec

                def outer(spec):
                    pick(spec).registry.update({1: 2})
                """
            },
        )
        assert analysis.summaries["app.mod.pick"].returns_params == {0}
        facts = analysis.facts["app.mod.outer"]
        assert any(
            Root("param", 0) in mutation.roots for mutation in facts.mutations
        )


class TestCallGraph:
    def test_edges_and_reachability(self, tmp_path):
        context = build_context(
            tmp_path,
            {
                "app/mod.py": """
                def a():
                    return b() + 1

                def b():
                    return c()

                def c():
                    return 0

                def island():
                    return 9
                """
            },
        )
        graph = context.graph
        assert graph.callees("app.mod.a") == {"app.mod.b"}
        assert graph.callers("app.mod.c") == {"app.mod.b"}
        reach = graph.reachable(["app.mod.a"])
        assert reach == {"app.mod.a", "app.mod.b", "app.mod.c"}
        assert "app.mod.island" not in reach

    def test_constructor_edges_to_every_method(self, tmp_path):
        context = build_context(
            tmp_path,
            {
                "app/mod.py": """
                class Worker:
                    def __init__(self, spec):
                        self.spec = spec

                    def step(self):
                        return 1

                def factory(spec):
                    return Worker(spec)
                """
            },
        )
        callees = context.graph.callees("app.mod.factory")
        assert "app.mod.Worker.__init__" in callees
        assert "app.mod.Worker.step" in callees

    def test_shard_reachability_seeded_from_entries(self, tmp_path):
        context = ProjectContext.build(
            parse_tree(
                tmp_path,
                {
                    "app/mod.py": """
                    from repro.parallel.executor import FleetExecutor

                    def work(item):
                        return helper(item)

                    def helper(item):
                        return item * 2

                    def coordinator_only():
                        return 1

                    def run(items, workers):
                        executor = FleetExecutor(workers=workers)
                        return executor.map(work, items)
                    """
                },
            ),
            parser=Linter(root=tmp_path).parse,
        )
        reach = context.graph.shard_reachable()
        assert "app.mod.work" in reach
        assert "app.mod.helper" in reach
        assert "app.mod.coordinator_only" not in reach
        assert "app.mod.run" not in reach
        entries = [e.kind for _, e in context.graph.shard_entry_events()]
        assert entries == ["map"]


class TestProjectContextBuild:
    def test_package_seams_filled_in_for_fixture_trees(self, tmp_path):
        modules = parse_tree(
            tmp_path,
            {
                "app/mod.py": """
                from repro.obs.metrics import MetricsRegistry

                def fresh():
                    return MetricsRegistry()
                """
            },
        )
        context = ProjectContext.build(
            modules, parser=Linter(root=tmp_path).parse
        )
        assert "repro.obs.metrics.MetricsRegistry" in context.index.classes
        assert "repro.parallel.executor.FleetExecutor" in context.index.classes

    def test_no_parser_means_no_fill_in(self, tmp_path):
        context = build_context(
            tmp_path,
            {
                "app/mod.py": """
                def f():
                    return 1
                """
            },
        )
        assert "repro.obs.metrics.MetricsRegistry" not in context.index.classes
