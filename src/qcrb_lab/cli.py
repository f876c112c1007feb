"""Command-line interface.

Reads a model specification file, runs the requested analysis, and emits
text, JSON, or CSV. Exit codes: 0 success, 2 specification or usage error,
3 not-optimal verdict (``check-optimal`` only), 4 runtime or numeric error.
Exit code 2 also refuses a command, before its first phase, whose
:func:`~.modelspec.footprint` exceeds physical memory.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from .errors import MetrologyError, SingularOutcomeError, SpecFileError
from .fisher import _cfi_values, sld
from .ghz import X_BASIS, Y_BASIS, ghz_model, two_qubit_lambda_solution
from .modelspec import ModelSpec, _phase_grid, footprint, load_model_spec, parse_angle
from .modelspec import _RUN_BOUNDS, _admit, _integer, _positive_float
from .optimality import (
    OPTIMALITY_RTOL,
    _check_observable_optimality,
    _error_propagation,
    _moments,
    error_propagation,
)
from .simulate import run_mle_trials, run_sample_mean_trials

SCAN_COLUMNS = ("phi", "qfi", "cfi", "variance", "slope", "delta_phi_ep",
                "qcrb", "alpha", "residual_rel", "is_optimal", "singular_flag")

EXIT_SPEC_ERROR = 2
EXIT_NOT_OPTIMAL = 3
EXIT_RUNTIME_ERROR = 4


def _matrix_pairs(matrix: np.ndarray) -> list[list[float]]:
    """Row-major flat list of [re, im] pairs (the model-file matrix format)."""
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


# One definition per flag; each command attaches the ones it reads, so a flag
# outside a command's list is a click usage error (exit 2).
_OPTIONS = {
    "--model": click.option("--model", "model_path", type=click.Path(), default=None,
                            help="Model specification file (YAML)."),
    "--phi": click.option("--phi", "phi_text", default=None,
                          help="Phase value; accepts expressions like 'pi/8'."),
    "--phi-range": click.option("--phi-range", "phi_range_text", default=None,
                                metavar="START:STOP:STEPS",
                                help="Phase grid; parts accept expressions."),
    "--nu": click.option("--nu", type=int, default=None,
                         help="Number of measurement repetitions."),
    "--seed": click.option("--seed", type=int, default=None, help="RNG seed."),
    "--trials": click.option("--trials", type=int, default=None,
                             help="Number of independent simulation trials."),
    "--tol": click.option("--tol", type=float, default=None,
                          help="Relative residual tolerance for optimality verdicts."),
    "--show-sld": click.option("--show-sld", is_flag=True, default=False,
                               help="Include the SLD matrix in qfi output."),
}


def _command(name, *flags, formats=("text", "json")):
    """Register a ``main`` command taking the named ``_OPTIONS``, then
    ``--output FORMAT`` and ``--out``, with its errors mapped to exit codes."""
    def attach(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            try:
                fn(**kwargs)
            except SpecFileError as exc:
                click.echo(f"specification error: {exc}", err=True)
                sys.exit(EXIT_SPEC_ERROR)
            except (MetrologyError, ValueError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_RUNTIME_ERROR)
            except ArithmeticError as exc:
                click.echo(f"numeric error: {exc}", err=True)
                sys.exit(EXIT_RUNTIME_ERROR)

        run = click.option("--out", "out_path", type=click.Path(), default=None,
                           help="Write output to a file instead of stdout.")(run)
        run = click.option("--output", "output_format", type=click.Choice(formats),
                           default="text", help="Output format.")(run)
        for flag in reversed(flags):
            run = _OPTIONS[flag](run)
        return main.command(name=name)(run)
    return attach


def _load_spec(model_path, *, phi_text=None, phi_range_text=None, nu=None,
               seed=None, trials=None, tol=None) -> ModelSpec:
    """The spec file with its command's overrides, once its footprint is admitted."""
    if model_path is None:
        raise SpecFileError("a --model specification file is required")
    spec = load_model_spec(model_path)
    changes: dict = {}
    if phi_text is not None and phi_range_text is not None:
        raise SpecFileError("--phi and --phi-range are mutually exclusive")
    if phi_text is not None:
        changes.update(phis=np.array([parse_angle(phi_text)]), phi_is_range=False)
    elif phi_range_text is not None:
        parts = phi_range_text.split(":")
        if len(parts) != 3:
            raise SpecFileError("--phi-range must be START:STOP:STEPS")
        try:
            steps = int(parts[2])
        except ValueError:
            steps = parts[2]  # not an integer: _integer rejects it by name
        steps = _integer(steps, 2, fieldname="--phi-range STEPS")
        changes.update(phis=_phase_grid(
            parse_angle(parts[0], fieldname="phi-range.start"),
            parse_angle(parts[1], fieldname="phi-range.stop"),
            steps, fieldname="phi-range"), phi_is_range=True)
    for key, value in (("nu", nu), ("trials", trials), ("seed", seed)):
        if value is not None:
            changes[key] = _integer(value, *_RUN_BOUNDS[key], fieldname=f"--{key}")
    if tol is not None:
        changes["tolerances"] = {**spec.tolerances,
                                 "optimality": _positive_float(tol, fieldname="--tol")}
    spec = replace(spec, **changes)
    context = click.get_current_context()
    _admit(footprint(spec, context.info_name, show_sld=context.params.get("show_sld", False),
                     output=context.params["output_format"]), context.info_name)
    return spec


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows_as_text(rows: list[dict], columns) -> str:
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _render_rows(command: str, rows: list[dict], columns, output_format: str) -> str:
    if output_format == "json":
        return _to_json({"command": command, "rows": rows})
    if output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        return buffer.getvalue()
    return _rows_as_text(rows, columns)


def _table(command: str, spec: ModelSpec, row, output_format: str,
           out_path: str | None, povm=None) -> list[dict]:
    """Emit ``row(phi)`` for each phase of ``spec`` as one table whose
    columns are the first row's keys; returns the rows. With ``povm``, each
    row is ``row(phi, info)``, ``info`` the phase's classical Fisher
    information of ``povm`` or the :class:`SingularOutcomeError` it has
    there, read from one pass over the grid."""
    phis = spec.phis.tolist()
    if povm is None:
        rows = [row(phi) for phi in phis]
    else:
        rows = [row(phi, info) for phi, info in
                zip(phis, _cfi_values(spec.model, phis, povm))]
    _emit(_render_rows(command, rows, tuple(rows[0]), output_format), out_path)
    return rows


def _required(spec: ModelSpec, section: str, command: str):
    """The spec's ``observable`` or ``povm``, which ``command`` cannot run without."""
    value = getattr(spec, section)
    if value is None:
        article = "an" if section == "observable" else "a"
        raise SpecFileError(f"{command} requires {article} {section}", field=section)
    return value


@click.group()
@click.version_option(__version__, prog_name="qcrb-lab")
def main() -> None:
    """Quantum Fisher information and Cramér-Rao saturation toolkit."""


@_command("qfi", "--model", "--phi", "--phi-range", "--show-sld")
def cmd_qfi(model_path, phi_text, phi_range_text, show_sld, output_format, out_path):
    """Quantum Fisher information at each phase."""
    spec = _load_spec(model_path, phi_text=phi_text, phi_range_text=phi_range_text)

    def row(phi):
        result = sld(spec.model, phi)
        if show_sld:
            return {"phi": phi, "qfi": result.qfi,
                    "sld_matrix": _matrix_pairs(result.L.matrix)}
        return {"phi": phi, "qfi": result.qfi}

    _table("qfi", spec, row, output_format, out_path)


@_command("sld", "--model", "--phi", "--phi-range")
def cmd_sld(model_path, phi_text, phi_range_text, output_format, out_path):
    """SLD operator, residual, and kernel dimension at each phase."""
    spec = _load_spec(model_path, phi_text=phi_text, phi_range_text=phi_range_text)

    def row(phi):
        result = sld(spec.model, phi)
        return {"phi": phi, "qfi": result.qfi, "residual": result.residual,
                "kernel_dim": result.kernel_dim,
                "matrix": _matrix_pairs(result.L.matrix)}

    _table("sld", spec, row, output_format, out_path)


@_command("errprop", "--model", "--phi", "--phi-range", "--nu")
def cmd_errprop(model_path, phi_text, phi_range_text, nu, output_format, out_path):
    """Error-propagation phase variance of the observable at each phase."""
    spec = _load_spec(model_path, phi_text=phi_text, phi_range_text=phi_range_text,
                      nu=nu)
    observable = _required(spec, "observable", "errprop")

    def row(phi):
        report = error_propagation(spec.model, phi, observable, spec.nu)
        return {"phi": phi, "variance": report.variance, "slope": report.slope,
                "nu": report.nu, "delta_phi_sq": report.delta_phi_sq,
                "intermediate_bound": report.intermediate_bound,
                "qcrb": report.qcrb, "qfi": report.qfi, "mean": report.mean,
                "second_moment": report.second_moment}

    _table("errprop", spec, row, output_format, out_path)


@_command("check-optimal", "--model", "--phi", "--phi-range", "--tol")
@click.option("--variant", type=click.Choice(["mixed", "pure", "pure_unitary"]),
              default="mixed", help="Saturation-condition variant.")
def cmd_check_optimal(model_path, phi_text, phi_range_text, tol, output_format,
                      out_path, variant):
    """Certify (exit 0) or refute (exit 3) observable optimality."""
    spec = _load_spec(model_path, phi_text=phi_text, phi_range_text=phi_range_text,
                      tol=tol)
    _required(spec, "observable", "check-optimal")
    opt_tol = spec.tolerances.get("optimality", OPTIMALITY_RTOL)
    rows = _table("check_optimal", spec,
                  lambda phi: _check_optimal_row(spec, phi, variant, opt_tol),
                  output_format, out_path)
    if not all(row["is_optimal"] for row in rows):
        sys.exit(EXIT_NOT_OPTIMAL)


def _check_optimal_row(spec: ModelSpec, phi: float, variant: str,
                       opt_tol: float) -> dict:
    result = sld(spec.model, phi)
    moments = _moments(spec.model, spec.observable, result)
    report = _check_observable_optimality(spec.model, spec.observable, variant,
                                          result, moments, tol=opt_tol)
    singular = moments.singular
    return {"phi": phi, "alpha": report.alpha, "residual_rel": report.residual_rel,
            "im_part": report.im_part,
            "anticommutator_mean": report.anticommutator_mean,
            "is_optimal": bool(report.is_optimal and not singular),
            "condition_variant": report.condition_variant,
            "singular_flag": singular, "diagnostic": report.diagnostic}


def _scan_row(spec: ModelSpec, phi: float, opt_tol: float, info=None) -> dict:
    """One ``scan`` row; ``info`` is the phase's classical Fisher
    information of the spec's POVM, or its :class:`SingularOutcomeError`,
    evaluated here when not given."""
    row: dict = {c: None for c in SCAN_COLUMNS}
    row["phi"] = phi
    result = sld(spec.model, phi)
    row["qfi"] = result.qfi
    row["qcrb"] = 1.0 / (spec.nu * result.qfi) if result.qfi > 0.0 else None
    singular = False
    if spec.povm is not None:
        if info is None:
            info = next(_cfi_values(spec.model, [phi], spec.povm))
        if isinstance(info, SingularOutcomeError):
            singular = True
        else:
            row["cfi"] = info
    if spec.observable is not None:
        moments = _moments(spec.model, spec.observable, result)
        if moments.singular:
            singular = True
            row["is_optimal"] = False
        else:
            report = _error_propagation(phi, spec.observable, spec.nu, result, moments)
            row["variance"] = report.variance
            row["slope"] = report.slope
            row["delta_phi_ep"] = report.delta_phi_sq
            check = _check_observable_optimality(spec.model, spec.observable,
                                                 "mixed", result, moments, tol=opt_tol)
            row["alpha"] = check.alpha
            row["residual_rel"] = check.residual_rel
            row["is_optimal"] = bool(check.is_optimal)
    row["singular_flag"] = singular
    return row


@_command("scan", "--model", "--phi-range", "--nu", "--tol",
          formats=("text", "json", "csv"))
def cmd_scan(model_path, phi_range_text, nu, tol, output_format, out_path):
    """One row per grid phase: QFI, CFI, error propagation, optimality."""
    spec = _load_spec(model_path, phi_range_text=phi_range_text, nu=nu, tol=tol)
    if not spec.phi_is_range:
        raise SpecFileError("scan requires a phi range with steps >= 2", field="phi")
    opt_tol = spec.tolerances.get("optimality", OPTIMALITY_RTOL)
    _table("scan", spec, lambda phi, info=None: _scan_row(spec, phi, opt_tol, info),
           output_format, out_path, spec.povm)


@_command("cfi", "--model", "--phi", "--phi-range")
def cmd_cfi(model_path, phi_text, phi_range_text, output_format, out_path):
    """Classical Fisher information of the POVM at each phase."""
    spec = _load_spec(model_path, phi_text=phi_text, phi_range_text=phi_range_text)
    _table("cfi", spec, _cfi_row, output_format, out_path, _required(spec, "povm", "cfi"))


def _cfi_row(phi: float, info) -> dict:
    """One ``cfi`` row, or the phase's :class:`SingularOutcomeError` raised."""
    if isinstance(info, SingularOutcomeError):
        raise info
    return {"phi": phi, "cfi": info}


def _require_two_qubit_ghz(model) -> None:
    """``lambda`` solves only the two-qubit GHZ state under ``J_z``."""
    reference = ghz_model(2)
    if model.dim != reference.dim or not np.allclose(
            model.density(0.0).matrix, reference.density(0.0).matrix, atol=1e-12):
        raise SpecFileError("lambda solves only the two-qubit GHZ state", field="state")
    if not np.allclose(model.generator.matrix, reference.generator.matrix, atol=1e-12):
        raise SpecFileError("lambda solves only the collective J_z generator",
                            field="parametrization.generator")


@_command("lambda", "--model", "--phi")
@click.option("--basis", type=click.Choice([X_BASIS, Y_BASIS]), default=X_BASIS,
              help="Two-qubit product basis for the diagonal SLD ansatz.")
def cmd_lambda(model_path, phi_text, output_format, out_path, basis):
    """Diagonal-projector SLD coefficients for the two-qubit GHZ state."""
    phi = 0.0
    if model_path is not None:
        spec = _load_spec(model_path, phi_text=phi_text)
        if spec.phi_is_range:
            raise SpecFileError("lambda takes a single phase", field="phi")
        _require_two_qubit_ghz(spec.model)
        phi = float(spec.phis[0])
    elif phi_text is not None:
        phi = parse_angle(phi_text)
    solution = two_qubit_lambda_solution(phi, basis)
    payload = {"command": "lambda", "phi": phi, "basis": solution.basis,
               "singular": solution.singular,
               "lambda_pp": solution.lambda_pp,
               "lambda_pm": solution.lambda_pm,
               "lambda_mp": solution.lambda_mp,
               "lambda_mm": solution.lambda_mm}
    if output_format == "json":
        _emit(_to_json(payload), out_path)
    else:
        lines = [f"{key}: {_fmt(payload[key])}"
                 for key in ("phi", "basis", "singular", "lambda_pp",
                             "lambda_pm", "lambda_mp", "lambda_mm")]
        _emit("\n".join(lines) + "\n", out_path)


@_command("simulate", "--model", "--phi", "--nu", "--seed", "--trials")
def cmd_simulate(model_path, phi_text, nu, seed, trials, output_format, out_path):
    """Monte Carlo estimation trials with per-trial RNG streams."""
    spec = _load_spec(model_path, phi_text=phi_text, nu=nu, seed=seed, trials=trials)
    if spec.observable is None and spec.povm is None:
        raise SpecFileError("simulate requires an observable or a povm",
                            field="observable")
    if spec.phi_is_range:
        raise SpecFileError("simulate takes a single phase", field="phi")
    phi = float(spec.phis[0])
    results = []
    if spec.observable is not None:
        results.append(run_sample_mean_trials(
            spec.model, spec.observable, phi, spec.nu, spec.trials, spec.seed))
    if spec.povm is not None:
        results.append(run_mle_trials(
            spec.model, spec.povm, phi, spec.nu, spec.trials, spec.seed))
    payload = {
        "command": "simulate", "phi": phi, "nu": spec.nu,
        "trials": spec.trials, "seed": spec.seed,
        "rng_algorithm": results[0].rng_algorithm,
        "results": [{
            "method": summary.method,
            "estimates": [float(x) for x in summary.estimates],
            "mse": summary.mse,
            "variance_term": summary.decomposition.variance_term,
            "bias_term": summary.decomposition.bias_term,
            "se_empirical": summary.se_empirical,
            "predicted_delta_phi_sq": summary.predicted_delta_phi_sq,
            "qcrb": summary.qcrb,
            "n_clipped": summary.n_clipped,
        } for summary in results],
    }
    if output_format == "json":
        _emit(_to_json(payload), out_path)
    else:
        lines = [f"phi: {phi!r}", f"nu: {spec.nu}", f"trials: {spec.trials}",
                 f"seed: {spec.seed}"]
        for entry in payload["results"]:
            lines.append(f"[{entry['method']}]")
            for key in ("mse", "variance_term", "bias_term", "se_empirical",
                        "predicted_delta_phi_sq", "qcrb", "n_clipped"):
                lines.append(f"  {key}: {_fmt(entry[key])}")
        _emit("\n".join(lines) + "\n", out_path)


if __name__ == "__main__":
    main()
