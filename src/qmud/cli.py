"""Command-line front end: scenario parsing, experiments, CSV emission.

Subcommands:

* ``run``        one Monte Carlo experiment from a scenario JSON
* ``sweep``      the same experiment across one swept parameter
* ``povm-table`` analytic outcome probabilities for a gain grid

Exit codes: 0 success, 1 config or validation problems, 2 runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from .config import QuantizerSpec, Scenario, _real, default_amplitude
from .errors import (DomainError, IoError, ParseError, QmudError,
                     UnknownParameter, ValidationError)
from .harness import ALL_DETECTORS, MetricsReport, run_trials, sweep
from .povm import povm_table_rows

RESULTS_HEADER = ("scenario_id,detector,param_name,param_value,trials,bit_errors,ber,"
                  "correct,no_message,ambiguous,inconclusive,coverage_miss,mean_reps,seed")

_REQUIRED_KEYS = {"K", "PG", "signatures", "energies", "gains", "noise_sigma",
                  "N_ch", "gamma", "reps_max", "seed"}
_OPTIONAL_KEYS = {"amplitude_A", "delays"}


def parse_config(text: str) -> Scenario:
    """Build a validated Scenario from scenario JSON text.

    Signatures are re-normalized to unit norm, with a warning when the
    input norm is off by more than 1e-6.  Unknown keys are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be a single JSON object")

    unknown = set(doc) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ValidationError(f"missing config keys: {sorted(missing)}")

    signatures = doc["signatures"]
    if not isinstance(signatures, list):
        raise ValidationError("signatures: expected a list of chip sequences")
    normalized = []
    for k, sig in enumerate(signatures):
        sig = _real(f"signatures[{k}]", sig, sequence=True)
        # A vector whose peak chip lies outside [2**-500, 2**500] is scaled
        # by the exact power of two 2**-e that brings its peak into [0.5, 1),
        # so no square overflows or underflows; every other vector keeps
        # e = 0 and the plain sum of squares.
        peak = max(map(abs, sig), default=0.0)
        e = 0 if peak == 0 or 2.0 ** -500 <= peak <= 2.0 ** 500 else math.frexp(peak)[1]
        sig = tuple(math.ldexp(c, -e) for c in sig)
        norm = math.sqrt(sum(c ** 2 for c in sig))
        if norm == 0:
            raise ValidationError(f"signatures[{k}]: zero vector cannot be normalized")
        # The input's norm, 2**e times the scaled one, in two factors so that
        # it reads inf where it overflows.
        input_norm = norm * 2.0 * 2.0 ** (e - 1)
        if abs(input_norm - 1.0) > 1e-6:
            warnings.warn(f"signatures[{k}]: norm {input_norm:.6g} re-normalized to 1")
        normalized.append(tuple(c / norm for c in sig))

    # Counts, ranges and integrality are Scenario's and QuantizerSpec's to check;
    # a missing amplitude_A is derived only from lengths Scenario has accepted.
    try:
        amplitude = doc.get("amplitude_A")
        scenario = Scenario(
            K=doc["K"],
            PG=doc["PG"],
            signatures=tuple(normalized),
            energies=doc["energies"],
            gains=doc["gains"],
            noise_sigma=doc["noise_sigma"],
            quantizer=QuantizerSpec(doc["N_ch"], 1.0 if amplitude is None else amplitude),
            gamma=doc["gamma"],
            delays=doc.get("delays", [0]),
            reps_max=doc["reps_max"],
            seed=doc["seed"],
        )
        if amplitude is not None:
            return scenario
        derived = default_amplitude(scenario.signatures, scenario.energies, scenario.gains)
        return scenario.with_overrides(
            quantizer=QuantizerSpec(scenario.quantizer.n_ch, derived))
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config value: {exc}") from exc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def _report_rows(report: MetricsReport) -> list[str]:
    decided = report.trials * report.users
    rows = []
    common = (report.scenario_id, report.param_name or "", _fmt(report.param_value),
              str(report.trials))
    for kind in ALL_DETECTORS:
        errors = report.detector_bit_errors[kind]
        rows.append(",".join([
            common[0], kind.value, common[1], common[2], common[3],
            str(errors), _fmt(report.ber(kind)), str(decided - errors),
            "0", "0", "0", "0", "", str(report.seed),
        ]))
    q = report.qmud
    rows.append(",".join([
        common[0], "qmud", common[1], common[2], common[3],
        str(q.false_decisions), _fmt(q.false_decisions / decided), str(q.correct),
        str(q.no_message), str(q.ambiguous), str(q.inconclusive),
        str(q.coverage_miss), _fmt(q.mean_reps), str(report.seed),
    ]))
    return rows


def write_csv(reports, out_path) -> None:
    """Emit the frozen results schema, one detector row set per report."""
    lines = [RESULTS_HEADER]
    for report in reports:
        lines.extend(_report_rows(report))
    _write_lines(lines, out_path)


def write_povm_table(n_s_values, betas, out_path) -> None:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmud", description="DS-CDMA multi-user detection simulator")
    sub = parser.add_subparsers(dest="command")

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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
