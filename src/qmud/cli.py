"""Command-line front end: experiments and CSV emission.

Subcommands:

* ``run``        one Monte Carlo experiment from a scenario JSON
* ``sweep``      the same experiment across one swept parameter
* ``povm-table`` analytic outcome probabilities for a gain grid

Scenario files are read by ``config.parse_config``, which names every key.

Exit codes: 0 success, 1 config or validation problems, 2 runtime failures.

``main`` returns, or exits through argparse, with the collector's heap
frozen (``gc.freeze``): the interpreter's final collection at exit then
skips numpy's and qmud's module graphs, which it would otherwise traverse
for nothing just before the process ends.  An in-process caller that lives
on can call ``gc.unfreeze()`` to let the collector see those objects again.
"""

from __future__ import annotations

import gc
import sys

from .config import Scenario, parse_config
from .errors import (DomainError, IoError, ParseError, QmudError,
                     UnknownParameter, ValidationError)
from .harness import ALL_DETECTORS, MetricsReport, run_trials, sweep

# After the engine: argparse imported first leaves a heap layout that reads
# about 0.2 MB higher in every CLI call's peak RSS, with no more data retained.
import argparse  # noqa: E402

RESULTS_HEADER = ("scenario_id,detector,param_name,param_value,trials,bit_errors,ber,"
                  "correct,no_message,ambiguous,inconclusive,coverage_miss,mean_reps,seed")


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6g}"


def _report_rows(report: MetricsReport) -> list[str]:
    """One row per detector in ``RESULTS_HEADER`` order; a classical one has no receiver counts."""
    decided = report.trials * report.users
    errors = {kind.value: report.detector_bit_errors[kind] for kind in ALL_DETECTORS}
    q = report.qmud
    # Each outcome: detector, bit errors, correct, the four receiver categories, mean_reps.
    outcomes = [(name, e, decided - e, 0, 0, 0, 0, None) for name, e in errors.items()]
    outcomes.append(("qmud", q.false_decisions, q.correct, q.no_message, q.ambiguous,
                     q.inconclusive, q.coverage_miss, q.mean_reps))
    point = [report.param_name or "", _fmt(report.param_value), str(report.trials)]
    return [",".join([report.scenario_id, detector, *point, str(e), _fmt(e / decided),
                      *map(str, counts), _fmt(mean_reps), str(report.seed)])
            for detector, e, *counts, mean_reps in outcomes]


def write_csv(reports, out_path) -> None:
    """Emit the frozen results schema, one detector row set per report."""
    lines = [RESULTS_HEADER]
    for report in reports:
        lines.extend(_report_rows(report))
    _write_lines(lines, out_path)


def write_povm_table(n_s_values, betas, out_path) -> None:
    from .povm import povm_table_rows  # the operator model; run and sweep never load it
    rows = povm_table_rows(n_s_values, betas)
    lines = ["n_s,beta,alpha,state,p1,p2,p3"]
    for n_s, beta, alpha, label, p1, p2, p3 in rows:
        lines.append(",".join([str(n_s), _fmt(beta), _fmt(alpha), label,
                               _fmt(p1), _fmt(p2), _fmt(p3)]))
    _write_lines(lines, out_path)


def _write_lines(lines, out_path) -> None:
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from exc


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _parse_number_list(raw: str, caster, flag: str):
    tokens = raw.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValidationError(f"{flag}: expected at least one number in every "
                              f"comma-separated item, got {raw!r}")
    try:
        return [caster(tok) for tok in tokens]
    except ValueError as exc:
        raise ValidationError(f"{flag}: expected a comma-separated number list") from exc


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 with an ``error:`` line on a bad command line, as do its subparsers."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qmud", description="DS-CDMA multi-user detection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--out", required=True)
    experiment.add_argument("--trials", type=int, default=1000)
    experiment.add_argument("--seed", type=int, default=None,
                            help="override the scenario seed")

    sub.add_parser("run", parents=[experiment], help="run one Monte Carlo experiment")
    sweep_p = sub.add_parser("sweep", parents=[experiment],
                             help="sweep one scenario parameter")
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True)

    tab_p = sub.add_parser("povm-table", help="analytic outcome probabilities")
    tab_p.add_argument("--ns", required=True, help="comma-separated populations")
    tab_p.add_argument("--beta", required=True, help="comma-separated reject gains")
    tab_p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Every way out, argparse's own ``SystemExit`` included, leaves the
    collector's heap frozen, so the exit that follows skips collecting it.
    A caller that lives on can undo it with ``gc.unfreeze()``.
    """
    try:
        args = _build_parser().parse_args(argv)
        if args.command in ("run", "sweep"):
            scenario = _load_scenario(args.config)
            seed = args.seed if args.seed is not None else scenario.seed
            if args.command == "run":
                reports = [run_trials(scenario, trials=args.trials, master_seed=seed)]
                summary = f"scenario {reports[0].scenario_id}, {args.trials} trials, seed {seed}"
            else:
                values = _parse_number_list(args.values, float, "--values")
                reports = sweep(scenario, args.param, values, args.trials, seed)
                summary = f"{len(reports)} sweep points over {args.param}"
            write_csv(reports, args.out)
            print(f"wrote {args.out}: {summary}")
        else:
            n_s_values = _parse_number_list(args.ns, int, "--ns")
            betas = _parse_number_list(args.beta, float, "--beta")
            write_povm_table(n_s_values, betas, args.out)
            print(f"wrote {args.out}: {len(n_s_values) * len(betas) * 2} rows")
    except (ParseError, ValidationError, UnknownParameter, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QmudError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
