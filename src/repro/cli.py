"""Command-line interface: the paper's analyses from a shell.

Examples::

    python -m repro assess --device K20 --site leadville --room --rain
    python -m repro campaign --seed 7
    python -m repro top10
    python -m repro ddr --generation 4 --hours 2
    python -m repro water
    python -m repro shield --device K20
    python -m repro checkpoint --device K20 --site lanl --nodes 4000
    python -m repro run --plan heterogeneous --checkpoint ck.json
    python -m repro run --plan heterogeneous --checkpoint ck.json --resume
    python -m repro lint --statistics
    python -m repro chaos --trials 2 --json chaos.json
    python -m repro serve --port 7920 --cache-dir /tmp/fit-cache
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.analysis import format_table
from repro.beam import IrradiationCampaign, chipir, rotax
from repro.core import (
    BORATED_POLY_SLAB,
    CADMIUM_SHEET,
    RiskAssessment,
    ShieldingEvaluator,
    project_top10,
    top10_table,
)
from repro.core.checkpoint import CheckpointPlanner
from repro.detector import water_step_experiment
from repro.devices import DEVICES, get_device
from repro.environment import (
    Site,
    WeatherCondition,
    datacenter_scenario,
    outdoor_scenario,
)
from repro.exitcodes import ExitCode
from repro.faults.models import Outcome
from repro.memory import (
    CorrectLoopTester,
    DDR_SENSITIVITIES,
    ErrorCategory,
)
from repro.service.protocol import SERVICE_SITES
from repro.spectra import ROTAX_THERMAL_FLUX
from repro.transport.api import ENGINE_POLICIES


def _site(args: argparse.Namespace) -> Site:
    if args.altitude is not None:
        return Site("custom", args.altitude, args.latitude)
    return SERVICE_SITES[args.site]


def _scenario(args: argparse.Namespace):
    site = _site(args)
    weather = (
        WeatherCondition.RAIN if args.rain else WeatherCondition.SUNNY
    )
    if args.room:
        scenario = datacenter_scenario(
            site, liquid_cooled=not args.air_cooled, weather=weather
        )
    else:
        scenario = outdoor_scenario(site, weather=weather)
    return scenario


def _add_site_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--site", choices=sorted(SERVICE_SITES), default="nyc",
        help="named deployment site",
    )
    parser.add_argument(
        "--altitude", type=float, default=None,
        help="custom altitude in metres (overrides --site)",
    )
    parser.add_argument(
        "--latitude", type=float, default=45.0,
        help="geomagnetic latitude for a custom site",
    )
    parser.add_argument(
        "--room", action="store_true",
        help="machine-room scenario (concrete + cooling water)",
    )
    parser.add_argument(
        "--air-cooled", action="store_true",
        help="machine room without liquid cooling",
    )
    parser.add_argument(
        "--rain", action="store_true", help="thunderstorm weather"
    )


def cmd_assess(args: argparse.Namespace) -> int:
    """FIT decomposition for devices in a scenario."""
    devices = [get_device(name) for name in args.device] or list(
        DEVICES.values()
    )
    report = RiskAssessment().assess(devices, [_scenario(args)])
    print(report.to_table())
    for finding in report.findings:
        print(f"[{finding.severity}] {finding.message}")
    return ExitCode.OK


def cmd_campaign(args: argparse.Namespace) -> int:
    """Virtual ChipIR + ROTAX ratio campaign (Figure 4)."""
    campaign = IrradiationCampaign(seed=args.seed)
    chip, rot = chipir(), rotax()
    for device in DEVICES.values():
        for code in device.supported_codes:
            campaign.expose_counting(
                chip, device, code, args.chipir_hours * 3600.0
            )
            campaign.expose_counting(
                rot, device, code, args.rotax_hours * 3600.0
            )
    if args.save:
        from repro.beam.logbook import CampaignLogbook

        CampaignLogbook(
            result=campaign.result,
            seed=args.seed,
            notes="virtual ChipIR+ROTAX campaign via CLI",
        ).save(args.save)
        print(f"logbook written to {args.save}")
    rows = []
    for name in campaign.result.device_names():
        sdc = campaign.result.beam_ratio(name, Outcome.SDC)
        try:
            due = campaign.result.beam_ratio(name, Outcome.DUE)
            due_cell = f"{due.ratio:.2f} [{due.lower:.2f}, {due.upper:.2f}]"
        except ValueError:
            due_cell = "(too few DUEs)"
        rows.append(
            [
                name,
                f"{sdc.ratio:.2f} [{sdc.lower:.2f}, {sdc.upper:.2f}]",
                due_cell,
            ]
        )
    print(
        format_table(
            ["device", "SDC HE/thermal ratio", "DUE HE/thermal ratio"],
            rows,
            title="Virtual ChipIR + ROTAX campaign (Figure 4)",
        )
    )
    return ExitCode.OK


def cmd_top10(args: argparse.Namespace) -> int:
    """Top-10 supercomputer DDR FIT projection."""
    del args
    print(top10_table(project_top10()))
    return ExitCode.OK


def cmd_ddr(args: argparse.Namespace) -> int:
    """DDR correct-loop beam experiment."""
    sensitivity = DDR_SENSITIVITIES[args.generation]
    capacity = 32.0 if args.generation == 3 else 64.0
    tester = CorrectLoopTester(sensitivity, capacity, seed=args.seed)
    result = tester.run(
        ROTAX_THERMAL_FLUX, duration_s=args.hours * 3600.0
    )
    rows = [
        [cat.value, result.count(cat)] for cat in ErrorCategory
    ]
    print(
        format_table(
            ["category", "errors"],
            rows,
            title=(
                f"DDR{args.generation} correct-loop:"
                f" {len(result.errors)} errors,"
                f" sigma/GBit"
                f" {result.total_cell_cross_section_per_gbit():.2e}"
                f" cm^2, dominant direction"
                f" {result.dominant_direction_fraction():.0%}"
            ),
        )
    )
    return ExitCode.OK


def cmd_water(args: argparse.Namespace) -> int:
    """Tin-II water-box detector experiment (Figure 5)."""
    result = water_step_experiment(seed=args.seed)
    print(
        "Tin-II water experiment: step detected at sample"
        f" {result.step.index}"
        f" (water on at hour {result.true_water_start_h:.0f}),"
        f" thermal rate {result.measured_enhancement:+.1%}"
        " (paper: +24%)"
    )
    return ExitCode.OK


def cmd_shield(args: argparse.Namespace) -> int:
    """Shielding trade-off analysis."""
    if getattr(args, "surrogate_root", ""):
        from repro.transport import api as transport_api

        transport_api.configure(args.surrogate_root)
    evaluator = ShieldingEvaluator(
        n_neutrons=args.histories, engine=args.engine
    )
    device = get_device(args.device[0] if args.device else "K20")
    scenario = _scenario(args)
    rows = []
    for option in (CADMIUM_SHEET, BORATED_POLY_SLAB):
        ev = evaluator.evaluate(option, device, scenario)
        rows.append(
            [
                option.material.name,
                f"{option.thickness_cm:.2f}",
                f"{ev.thermal_transmission:.4f}",
                f"{ev.fit_reduction:.1%}",
                "yes" if ev.practical else "NO",
            ]
        )
    print(
        format_table(
            ["shield", "cm", "thermal transmission",
             "FIT reduction", "practical"],
            rows,
            title=f"Shielding options for {device.name}",
        )
    )
    return ExitCode.OK


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Checkpoint-interval planning from DUE FIT."""
    planner = CheckpointPlanner()
    device = get_device(args.device[0] if args.device else "K20")
    scenario = _scenario(args)
    plan = planner.plan(
        device,
        scenario,
        n_devices=args.nodes,
        checkpoint_cost_hours=args.cost_minutes / 60.0,
    )
    print(
        f"{args.nodes} x {device.name} in {scenario.label}:"
        f" fleet DUE MTBF {plan.mtbf_hours:.2f} h,"
        f" checkpoint every {plan.interval_hours:.2f} h,"
        f" efficiency {plan.expected_efficiency:.1%}"
    )
    rainy = scenario.with_weather(WeatherCondition.RAIN)
    penalty = planner.weather_penalty(
        device, scenario, rainy, args.nodes, args.cost_minutes / 60.0
    )
    print(
        "Running the fair-weather plan through a thunderstorm costs"
        f" {penalty:.2%} efficiency vs re-planning."
    )
    return ExitCode.OK


def cmd_report(args: argparse.Namespace) -> int:
    """Full Markdown reliability report."""
    from repro.core.report import ReportOptions, generate_report

    devices = [get_device(name) for name in args.device] or list(
        DEVICES.values()
    )
    text = generate_report(
        devices,
        _scenario(args),
        ReportOptions(
            fleet_size=args.nodes,
            checkpoint_cost_hours=args.cost_minutes / 60.0,
            mc_histories=args.histories,
        ),
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return ExitCode.OK


def cmd_avf(args: argparse.Namespace) -> int:
    """Per-array vulnerability factors of a workload."""
    from repro.workloads import create_workload
    from repro.workloads.metrics import (
        measure_vulnerability,
        most_vulnerable_surface,
        workload_avf,
    )

    workload = create_workload(args.code)
    vulns = measure_vulnerability(
        workload, samples_per_array=args.samples, seed=args.seed
    )
    rows = [
        [
            v.stage, v.array, v.bits,
            f"{v.sdc_fraction:.2f}", f"{v.due_fraction:.2f}",
        ]
        for v in sorted(
            vulns, key=lambda v: v.weighted_avf, reverse=True
        )[: args.top]
    ]
    print(
        format_table(
            ["stage", "array", "bits", "SDC AVF", "DUE AVF"],
            rows,
            title=f"Most vulnerable surfaces of {args.code}",
        )
    )
    sdc, due = workload_avf(vulns)
    hot = most_vulnerable_surface(vulns)
    print(
        f"workload AVF: SDC {sdc:.2f}, DUE {due:.2f};"
        f" hottest surface: {hot.array!r} at stage {hot.stage!r}"
    )
    return ExitCode.OK


def cmd_run(args: argparse.Namespace) -> int:
    """Supervised campaign with checkpoint/resume and budgets."""
    from repro.beam.logbook import CampaignLogbook
    from repro.obs import core as obs_core
    from repro.obs.cli import export_metrics, observer_from_args
    from repro.runtime.budget import Budget
    from repro.runtime.errors import (
        CheckpointError,
        ConfigurationError,
    )
    from repro.runtime.supervisor import (
        PLAN_FACTORIES,
        CampaignRunner,
        signal_interrupt,
    )

    try:
        observer = observer_from_args(args)
    except ConfigurationError as exc:
        print(f"usage error: {exc}")
        return ExitCode.USAGE
    plan = PLAN_FACTORIES[args.plan]()
    budget = Budget(
        wall_clock_s=args.deadline_s,
        max_events=args.max_events,
    )
    # Graceful interrupt: SIGINT/SIGTERM raise a flag the runner
    # polls between steps, so the final checkpoint still flushes and
    # the process exits with a distinct, scriptable code instead of
    # dying mid-write.
    with signal_interrupt() as interrupt:
        runner = CampaignRunner(
            plan,
            seed=args.seed,
            budget=budget,
            checkpoint_path=args.checkpoint or None,
            checkpoint_every=args.checkpoint_every,
            interrupt=interrupt,
        )
        try:
            if observer is not None:
                with obs_core.observing(observer):
                    outcome = runner.run(
                        resume=args.resume, max_steps=args.max_steps
                    )
                if args.metrics:
                    export_metrics(observer, args.metrics)
                    print(f"metrics written to {args.metrics}")
                if args.trace:
                    print(f"trace written to {args.trace}")
            else:
                outcome = runner.run(
                    resume=args.resume, max_steps=args.max_steps
                )
        except CheckpointError as exc:
            print(f"checkpoint error: {exc}")
            print(
                "the checkpoint was not used; re-run without --resume"
                " to start over, or restore a valid checkpoint"
            )
            return ExitCode.CHECKPOINT
    status = "completed" if outcome.completed else "INCOMPLETE"
    if outcome.interrupted:
        status = "INTERRUPTED"
    print(
        f"plan {args.plan!r} {status}:"
        f" {outcome.steps_completed}/{outcome.steps_total} steps,"
        f" {outcome.events_used} simulated strikes,"
        f" {outcome.isolation_count()} isolated,"
        f" {outcome.degradation_count()} degraded"
    )
    for event in outcome.events:
        print(f"  [{event.kind}] {event.label}: {event.message}")
    if args.save:
        CampaignLogbook(
            result=outcome.result,
            seed=args.seed,
            notes=f"supervised {args.plan} plan via CLI",
            metadata={"status": status},
        ).save(args.save)
        print(f"logbook written to {args.save}")
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(outcome.to_markdown())
        print(f"report written to {args.report}")
    if not outcome.completed and args.checkpoint:
        print(
            f"resume with: python -m repro run --plan {args.plan}"
            f" --seed {args.seed} --checkpoint {args.checkpoint}"
            " --resume"
        )
    if outcome.interrupted:
        return ExitCode.INTERRUPTED
    return (
        ExitCode.OK if outcome.completed else ExitCode.INCOMPLETE
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Long-running FIT query service (see repro.service)."""
    from repro.service.cli import run_serve

    return run_serve(args)


def cmd_studies(args: argparse.Namespace) -> int:
    """Durable sharded studies (see repro.studies)."""
    from repro.studies.cli import run_studies

    return run_studies(args)


def cmd_surrogate(args: argparse.Namespace) -> int:
    """Surrogate artifact tooling (see repro.transport.surrogate)."""
    from repro.transport.surrogate.cli import run_surrogate

    return run_surrogate(args)


def cmd_obs(args: argparse.Namespace) -> int:
    """Observability tooling (see repro.obs)."""
    from repro.obs.cli import run_obs

    return run_obs(args)


def cmd_lint(args: argparse.Namespace) -> int:
    """Static-analysis pass over the repo (see repro.devtools)."""
    from repro.devtools.cli import run_lint

    return run_lint(args)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection sweep over the runtime (see repro.chaos)."""
    from repro.chaos.cli import run_chaos

    return run_chaos(args)


def cmd_validate(args: argparse.Namespace) -> int:
    """Recompute every paper anchor and report PASS/FAIL."""
    from repro.core.validation import (
        all_passed,
        validate_reproduction,
        validation_table,
    )

    checks = validate_reproduction(seed=args.seed)
    print(validation_table(checks))
    if all_passed(checks):
        print("All paper anchors reproduced.")
        return ExitCode.OK
    print("Some anchors FAILED — see the table above.")
    return ExitCode.FAILURE


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Thermal-neutron reliability analyses (DSN 2020"
            " reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "assess", help="FIT decomposition for devices in a scenario"
    )
    p.add_argument(
        "--device", action="append", default=[],
        help="device name (repeatable; default: all)",
    )
    _add_site_args(p)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser(
        "campaign", help="virtual ChipIR + ROTAX ratio campaign"
    )
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--chipir-hours", type=float, default=0.5)
    p.add_argument("--rotax-hours", type=float, default=4.0)
    p.add_argument(
        "--save", default="",
        help="write a JSON campaign logbook to this path",
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "top10", help="Top-10 supercomputer DDR FIT projection"
    )
    p.set_defaults(func=cmd_top10)

    p = sub.add_parser("ddr", help="DDR correct-loop experiment")
    p.add_argument("--generation", type=int, choices=(3, 4), default=4)
    p.add_argument("--hours", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=2020)
    p.set_defaults(func=cmd_ddr)

    p = sub.add_parser("water", help="Tin-II water-box experiment")
    p.add_argument("--seed", type=int, default=2019)
    p.set_defaults(func=cmd_water)

    p = sub.add_parser("shield", help="shielding trade-off analysis")
    p.add_argument("--device", action="append", default=[])
    p.add_argument("--histories", type=int, default=2000)
    p.add_argument(
        "--engine",
        choices=ENGINE_POLICIES,
        default="batch",
        help="transport engine policy (deterministic = noise-free"
        " multigroup solve, --histories inert; auto/surrogate"
        " serve from certified surfaces, see --surrogate-root)",
    )
    p.add_argument(
        "--surrogate-root",
        default="",
        help="certified surrogate artifact directory (from"
        " 'repro surrogate build'); used by engine=auto/surrogate",
    )
    _add_site_args(p)
    p.set_defaults(func=cmd_shield)

    p = sub.add_parser(
        "avf", help="per-array vulnerability factors of a workload"
    )
    p.add_argument("--code", default="LUD")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--seed", type=int, default=2020)
    p.set_defaults(func=cmd_avf)

    p = sub.add_parser(
        "run",
        help=(
            "supervised campaign: checkpoint/resume, deadlines,"
            " event budgets, crash isolation"
        ),
    )
    p.add_argument(
        "--plan", choices=("figure4", "heterogeneous"),
        default="heterogeneous",
        help="built-in exposure plan to execute",
    )
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument(
        "--checkpoint", default="",
        help="JSON checkpoint path (enables resume)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint instead of starting over",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="write a checkpoint after this many steps",
    )
    p.add_argument(
        "--max-steps", type=int, default=None,
        help="process at most this many steps, then stop",
    )
    p.add_argument(
        "--max-events", type=int, default=None,
        help="simulated-strike budget (degrades when exhausted)",
    )
    p.add_argument(
        "--deadline-s", type=float, default=None,
        help="wall-clock budget in seconds",
    )
    p.add_argument(
        "--save", default="",
        help="write a JSON campaign logbook to this path",
    )
    p.add_argument(
        "--report", default="",
        help="write the Markdown run report to this path",
    )
    from repro.obs.cli import add_obs_arguments, add_observer_arguments

    add_observer_arguments(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "serve",
        help=(
            "fault-tolerant FIT query service: NDJSON protocol,"
            " result cache, coalescing, admission control"
        ),
    )
    from repro.service.cli import add_serve_arguments

    add_serve_arguments(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "studies",
        help=(
            "durable sharded studies: crash-tolerant FIT sweeps"
            " with a write-ahead ledger and poison-shard quarantine"
        ),
    )
    from repro.studies.cli import add_studies_arguments

    add_studies_arguments(p)
    p.set_defaults(func=cmd_studies)

    p = sub.add_parser(
        "surrogate",
        help=(
            "certified transport response surfaces: build and"
            " inspect content-addressed surrogate artifacts"
        ),
    )
    from repro.transport.surrogate.cli import add_surrogate_arguments

    add_surrogate_arguments(p)
    p.set_defaults(func=cmd_surrogate)

    p = sub.add_parser(
        "obs",
        help=(
            "observability tooling: summarize a --trace file into"
            " a run report"
        ),
    )
    add_obs_arguments(p)
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "lint",
        help=(
            "run the repro static-analysis pass (determinism,"
            " unit suffixes, API hygiene, mutability)"
        ),
    )
    from repro.devtools.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "chaos",
        help=(
            "deterministic fault injection: prove the runtime's"
            " recovery invariants across the (site, action) matrix"
        ),
    )
    from repro.chaos.cli import add_chaos_arguments

    add_chaos_arguments(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "validate",
        help="recompute every paper anchor and report PASS/FAIL",
    )
    p.add_argument("--seed", type=int, default=2020)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "report", help="full Markdown reliability report"
    )
    p.add_argument("--device", action="append", default=[])
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--cost-minutes", type=float, default=10.0)
    p.add_argument("--histories", type=int, default=1500)
    p.add_argument(
        "--output", default="", help="write to a file instead of stdout"
    )
    _add_site_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "checkpoint", help="checkpoint-interval planning"
    )
    p.add_argument("--device", action="append", default=[])
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--cost-minutes", type=float, default=10.0)
    _add_site_args(p)
    p.set_defaults(func=cmd_checkpoint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
