"""Command-line interface: run experiments and demos from the shell.

Usage (installed as ``repro`` or via ``python -m repro``)::

    repro list                         # list reproducible figures
    repro run fig02                    # regenerate one figure's data
    repro run fig09 --fleet-size 80 --hours 24   # paper scale
    repro demo quickstart              # run an example scenario
    repro trace chaos                  # record a deterministic trace
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.core.features import FEATURE_NAMES, Features
from repro.experiments import (
    ablations,
    fig02_memory_table,
    fig03_04_entropy,
    fig05_disk_latency,
    fig06_mdp_learning,
    fig07_reload_iops,
    fig08_arrival_rate,
    fig09_requests_per_minute,
    fig10_11_throttles,
    fig12_13_throughput,
    fig14_workload_shift,
    fig15_accuracy,
    format_table,
)

__all__ = ["main"]


def _run_fig02(args: argparse.Namespace) -> None:
    rows = fig02_memory_table.run(seed=args.seed)
    print(
        format_table(
            ("workload", "work_mem MB", "memory MB", "disk MB"),
            [
                (r.workload, r.work_mem_allocated_mb, r.memory_used_mb, r.disk_used_mb)
                for r in rows
            ],
        )
    )


def _run_entropy(args: argparse.Namespace) -> None:
    points = fig03_04_entropy.run(
        adulteration_p=args.adulteration, windows=args.windows, seed=args.seed
    )
    print(
        format_table(
            ("window", "tpcc", "adulterated"),
            [
                (p.window, f"{p.entropy_tpcc:.3f}", f"{p.entropy_adulterated:.3f}")
                for p in points
            ],
        )
    )


def _run_fig05(args: argparse.Namespace) -> None:
    run = fig05_disk_latency.run(seed=args.seed)
    print(
        f"default write latency: mean {run.default_mean_ms:.2f} ms, "
        f"max {run.default_latency.max():.2f} ms"
    )
    print(
        f"tuned   write latency: mean {run.tuned_mean_ms:.2f} ms, "
        f"max {run.tuned_latency.max():.2f} ms"
    )


def _run_fig06(args: argparse.Namespace) -> None:
    run = fig06_mdp_learning.run(seed=args.seed)
    print(
        format_table(
            ("episode", "reward", "accuracy"),
            [
                (i, f"{r:.4f}", f"{a:.3f}")
                for i, (r, a) in enumerate(
                    zip(run.episodic_rewards, run.accuracies)
                )
            ],
        )
    )


def _run_fig07(args: argparse.Namespace) -> None:
    comparison = fig07_reload_iops.run(seed=args.seed)
    for name, report in (
        ("no reload", comparison.no_reload),
        ("reload signal", comparison.reload_signal),
        ("socket activation", comparison.socket_activation),
    ):
        print(
            f"{name:18s} mean tps {report.mean_tps:8.0f}"
            f"  relative {comparison.relative_tps(report):.3f}"
        )


def _run_fig08(args: argparse.Namespace) -> None:
    points = fig08_arrival_rate.run(seed=args.seed)
    print(
        format_table(
            ("hour", "queries", "rate/s"),
            [(p.hour, p.queries, f"{p.rate_per_s:.0f}") for p in points],
        )
    )
    print(f"daily total: {fig08_arrival_rate.daily_total(points):,}")


def _run_fig09(args: argparse.Namespace) -> None:
    run = fig09_requests_per_minute.run(
        fleet_size=args.fleet_size, hours=args.hours, seed=args.seed,
        workers=args.workers, features=args.features,
    )
    print(
        format_table(
            ("hour", "TDE rpm", "5min rpm", "10min rpm"),
            [
                (f"{p.hour:.0f}", f"{p.tde_rpm:.2f}",
                 f"{p.periodic_5min_rpm:.2f}", f"{p.periodic_10min_rpm:.2f}")
                for p in run.points
            ],
        )
    )
    print(
        f"totals: TDE {run.tde_total} vs 5-min {run.periodic_5min_total}"
        f" vs 10-min {run.periodic_10min_total}"
    )


def _run_fig10(args: argparse.Namespace) -> None:
    panels = fig10_11_throttles.run(
        flavor=args.flavor, seed=args.seed, workers=args.workers
    )
    rows = [
        (panel, r.workload, f"{r.memory:.2f}", f"{r.background_writer:.2f}",
         f"{r.async_planner:.2f}")
        for panel, results in panels.items()
        for r in results
    ]
    print(
        format_table(
            ("panel", "workload", "memory", "bgwriter", "async/planner"), rows
        )
    )


def _run_fig12(args: argparse.Namespace) -> None:
    series = fig12_13_throughput.run(
        tuner_kind=args.tuner, flavor=args.flavor, hours=args.hours,
        seed=args.seed,
    )
    print(
        format_table(
            ("hour", "gated tps", "ungated tps"),
            [
                (f"{h:.0f}", f"{g:.0f}", f"{u:.0f}")
                for h, g, u in zip(series.hours, series.gated_tps, series.ungated_tps)
            ],
        )
    )
    print(
        f"requests: gated {series.gated_requests} vs ungated"
        f" {series.ungated_requests}; daytime advantage"
        f" {series.gated_advantage:.2f}x"
    )


def _run_fig14(args: argparse.Namespace) -> None:
    results = fig14_workload_shift.run(seed=args.seed)
    print(
        format_table(
            ("#", "transition", "throttles", "classes"),
            [
                (r.spec.number, f"{r.spec.source}->{r.spec.target}",
                 r.throttles_total, ",".join(r.observed_classes()) or "-")
                for r in results
            ],
        )
    )


def _run_fig15(args: argparse.Namespace) -> None:
    result = fig15_accuracy.run(seed=args.seed)
    for cls in ("memory", "background_writer", "async_planner"):
        accuracy = result.accuracy(cls)
        rendered = f"{accuracy:.2f}" if accuracy is not None else "-"
        print(f"{cls:18s} accuracy {rendered} ({result.total.get(cls, 0)} throttles)")


def _run_ablations(args: argparse.Namespace) -> None:
    print(ablations.ablate_entropy_filter())
    print(ablations.ablate_mapping_growth())
    print(ablations.ablate_slave_first())


_EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], None]]] = {
    "fig02": ("Fig. 2 memory table", _run_fig02),
    "fig03": ("Fig. 3/4 entropy variation", _run_entropy),
    "fig05": ("Fig. 5 disk latency default vs tuned", _run_fig05),
    "fig06": ("Fig. 6 MDP learning curves", _run_fig06),
    "fig07": ("Fig. 7 reload-signal IOPS", _run_fig07),
    "fig08": ("Fig. 8 production arrival rate", _run_fig08),
    "fig09": ("Fig. 9 tuning requests per minute", _run_fig09),
    "fig10": ("Fig. 10/11 throttles by class", _run_fig10),
    "fig12": ("Fig. 12/13 gated vs ungated throughput", _run_fig12),
    "fig14": ("Table 1 + Fig. 14 workload transitions", _run_fig14),
    "fig15": ("Fig. 15 throttle accuracy", _run_fig15),
    "ablations": ("DESIGN.md ablations", _run_ablations),
}

_DEMOS = (
    "quickstart",
    "paas_fleet",
    "workload_shift",
    "downtime_maintenance",
    "tuner_comparison",
)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _feature_bundle(value: str) -> Features:
    try:
        return Features.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    # One declaration of --features, shared by every subcommand that
    # can arm the opt-in tuner tiers.
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument(
        "--features", type=_feature_bundle, default=Features(),
        metavar="NAMES",
        help="comma-separated opt-in tiers to arm on the tuners, from "
        f"{','.join(FEATURE_NAMES)}: a coreset-GP prefilter shortlists "
        "candidates before the exact GP scores them, and a Lasso-ranked "
        "active subspace narrows what each workload tunes (run: fig09 "
        "only; chaos: standard profile only); deterministic, none by "
        "default",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoDBaaS (EDBT 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run = sub.add_parser(
        "run", parents=[features], help="regenerate one experiment"
    )
    run.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--fleet-size", type=int, default=16, dest="fleet_size")
    run.add_argument("--hours", type=float, default=12.0)
    run.add_argument("--windows", type=int, default=20)
    run.add_argument("--adulteration", type=float, default=0.8)
    run.add_argument("--flavor", choices=("postgres", "mysql"), default="postgres")
    run.add_argument("--tuner", choices=("ottertune", "cdbtune"), default="ottertune")
    run.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel worker processes (fig09/fig10 only; output is "
        "byte-identical for any worker count)",
    )

    demo = sub.add_parser("demo", help="run an example scenario")
    demo.add_argument("name", choices=_DEMOS)

    chaos = sub.add_parser(
        "chaos",
        parents=[features],
        help="run the deterministic fault-injection recovery experiment",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--fleet-size", type=_positive_int, default=3, dest="fleet_size"
    )
    chaos.add_argument("--windows", type=_positive_int, default=28)
    chaos.add_argument(
        "--quick", action="store_true",
        help="small fleet / short horizon (CI determinism check)",
    )
    chaos.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel worker processes (the two landscapes run "
        "concurrently; the report is byte-identical either way)",
    )
    chaos.add_argument(
        "--profile", choices=("standard", "adversarial"), default="standard",
        help="standard: the six-kind fault recovery experiment; "
        "adversarial: a rogue tuner versus the safety governor "
        "(bounded steps, canary-on-slave, auto-revert)",
    )

    trace = sub.add_parser(
        "trace",
        parents=[features],
        help="run an experiment under the trace recorder and export it",
    )
    trace.add_argument(
        "experiment",
        choices=("chaos", "fleet"),
        help="what to trace: the quick chaos profile or a small live fleet",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--out", default="artifacts/trace",
        help="output prefix: writes <out>.jsonl and <out>.chrome.json "
        "(default: artifacts/trace; parent directories are created)",
    )
    trace.add_argument(
        "--profile", action="store_true",
        help="measure host time per span and print the profile table",
    )
    trace.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry in Prometheus text format",
    )
    trace.add_argument(
        "--fleet-size", type=_positive_int, default=3, dest="fleet_size",
        help="fleet experiment only: live fleet size",
    )
    trace.add_argument(
        "--hours", type=float, default=1.0,
        help="fleet experiment only: simulated hours after warm-up",
    )
    trace.add_argument(
        "--warmup-hours", type=float, default=0.5, dest="warmup_hours",
        help="fleet experiment only: warm-up hours before counting",
    )
    trace.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel worker processes; the exported trace is "
        "byte-identical for any worker count",
    )

    ablate = sub.add_parser(
        "ablate",
        help="run an ablation study and print its deterministic report",
    )
    ablate.add_argument(
        "target", choices=("knobs",),
        help="knobs: fixed full-space tuning vs dynamic per-workload "
        "knob selection across tpcc/ycsb/tpch on one seed",
    )
    ablate.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint", help="run the repro static invariant checker"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="output format",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.add_argument(
        "--deep", action="store_true",
        help="also run the interprocedural rules (R009-R012): builds a "
        "whole-program index, dataflow pass and call graph once, then "
        "checks shard-divergence invariants across function boundaries",
    )
    lint.add_argument(
        "--changed-only", action="store_true", dest="changed_only",
        help="lint only files changed vs the git merge-base with the "
        "default branch (plus untracked files); falls back to the "
        "given paths when git is unavailable",
    )
    return parser


def _run_lint(args: argparse.Namespace) -> int:
    # Imported lazily: `repro run`/`repro demo` should not pay for (or
    # depend on) the analysis package.
    from pathlib import Path

    from repro.analysis import Linter, all_rules, render

    if args.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.id}  [{rule_cls.severity.value}]  {rule_cls.title}")
        return 0
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    try:
        linter = Linter(select=select, deep=args.deep)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.changed_only:
        changed = _changed_python_files(paths)
        if changed is not None:
            paths = changed
    findings = linter.lint_paths(paths)
    print(render(findings, args.fmt))
    return 1 if findings else 0


def _changed_python_files(paths: "list[Path]") -> "list[Path] | None":
    """Python files under *paths* changed vs the default-branch merge-base.

    The fast pre-commit path: the working tree's diff against the
    merge-base with ``origin/main`` (first of origin/main, origin/master,
    main, master that resolves), plus untracked files. Returns ``None``
    — lint everything — when git is unavailable or errors, so
    ``--changed-only`` can never *hide* findings by failing silently.
    """
    import subprocess
    from pathlib import Path

    def git(*argv: str) -> str:
        result = subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=False
        )
        if result.returncode != 0:
            raise OSError(result.stderr.strip())
        return result.stdout

    try:
        base = ""
        for ref in ("origin/main", "origin/master", "main", "master"):
            try:
                base = git("merge-base", "HEAD", ref).strip()
                break
            except OSError:
                continue
        names = set(
            git("diff", "--name-only", base or "HEAD").splitlines()
        )
        names.update(
            git("ls-files", "--others", "--exclude-standard").splitlines()
        )
        toplevel = Path(git("rev-parse", "--show-toplevel").strip())
    except OSError:
        return None
    roots = [p.resolve() for p in paths]
    changed: list[Path] = []
    for name in sorted(names):
        candidate = toplevel / name
        if candidate.suffix != ".py" or not candidate.is_file():
            continue
        resolved = candidate.resolve()
        if any(
            resolved == root or root in resolved.parents for root in roots
        ):
            changed.append(candidate)
    return changed


def _run_trace(args: argparse.Namespace) -> int:
    # Imported lazily: the harness pulls in the chaos and fleet drivers.
    from pathlib import Path

    from repro.experiments import trace_run

    artifacts = trace_run.run(
        experiment=args.experiment,
        seed=args.seed,
        host_time=args.profile,
        fleet_size=args.fleet_size,
        hours=args.hours,
        warmup_hours=args.warmup_hours,
        workers=args.workers,
        features=args.features,
    )
    jsonl_path = Path(f"{args.out}.jsonl")
    chrome_path = Path(f"{args.out}.chrome.json")
    jsonl_path.parent.mkdir(parents=True, exist_ok=True)
    jsonl_path.write_text(artifacts.jsonl)
    chrome_path.write_text(artifacts.chrome_json)
    print(artifacts.summary(), end="")
    print(f"wrote: {jsonl_path} {chrome_path}")
    if args.profile:
        print()
        print(artifacts.profile_table, end="")
        if artifacts.pipe_table:
            print()
            print(artifacts.pipe_table, end="")
    if args.metrics:
        print()
        print(artifacts.metrics_text, end="")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Piped into head/less that closed early — not an error.
        import os

        os.close(sys.stderr.fileno())
        return 0


def _dispatch(argv: Sequence[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, (description, _) in sorted(_EXPERIMENTS.items()):
            print(f"{name:10s} {description}")
        return 0
    if args.command == "run":
        if args.features and args.experiment != "fig09":
            print("error: --features applies to fig09 only", file=sys.stderr)
            return 2
        try:
            _EXPERIMENTS[args.experiment][1](args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "chaos":
        # Imported lazily like the analysis package: the chaos harness
        # pulls in the whole faults layer.
        if args.profile == "adversarial":
            if args.features:
                print(
                    "error: --features applies to the standard profile only",
                    file=sys.stderr,
                )
                return 2
            from repro.experiments import chaos_adversarial

            adversarial = chaos_adversarial.run(
                fleet_size=args.fleet_size,
                windows=args.windows,
                seed=args.seed,
                quick=args.quick,
                workers=args.workers,
            )
            print(adversarial.render(), end="")
            return 0
        from repro.experiments import chaos_recovery

        report = chaos_recovery.run(
            fleet_size=args.fleet_size,
            windows=args.windows,
            seed=args.seed,
            quick=args.quick,
            workers=args.workers,
            features=args.features,
        )
        print(report.render(), end="")
        return 0
    if args.command == "ablate":
        # Imported lazily: the study builds live landscapes per arm.
        from repro.experiments import ablation_knob_selection

        ablation = ablation_knob_selection.run(seed=args.seed)
        print(ablation.render(), end="")
        return 0
    if args.command == "demo":
        # The examples only exist in a source checkout and are not an
        # installed package, so load the script by path next to this
        # package rather than importing ``examples.<name>``.
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / f"{args.name}.py"
        if not path.exists():
            print(f"error: {path} not found (demos need a source checkout)",
                  file=sys.stderr)
            return 2
        spec = importlib.util.spec_from_file_location(f"demo_{args.name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        return 0
    return 2  # unreachable with required=True; defensive


if __name__ == "__main__":
    sys.exit(main())
