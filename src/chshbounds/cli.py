"""Command-line front end for verification runs, maximization, and sweeps.

Subcommands:

  verify    evaluate one track (or all) at a measurement configuration and
            compare against the matching bound, emitting a machine-readable
            report
  optimize  run a maximizer and serialize the best point found
  sweep     tabulate the coplanar quantum family between the two bounds

Run parameters come from flags or a UTF-8 YAML config file; flags win.  The
config file accepts::

    track: all                 # classical | quantum | ga | all
    configuration: canonical   # or explicit vectors / in-plane angles:
    #   a: [1.0, 0.0, 0.0]
    #   a_prime: [0.0, 1.0, 0.0]
    #   b: [-0.70710678118654757, -0.70710678118654757, 0.0]
    #   b_prime: [-0.70710678118654757, 0.70710678118654757, 0.0]
    # or:
    #   angles_deg: [0, 90, 225, 135]
    lhv_model:                 # classical track; omit to use the
      states:                  # deterministic maximum
        - weight: 0.5
          responses: [1, 1, 1, 1]
        - weight: 0.5
          responses: [1, -1, 1, -1]
    coefficients: [1, 1, 1, 1] # vector-track response magnitudes
    seed: 0
    samples: 0                 # Monte Carlo cross-check when >= 1
    output_path: report.json
    output_format: json        # json | csv

Explicit vectors must be unit within 1e-9; they are renormalized to full
precision before use and echoed back verbatim in the report.  Exit codes:
0 success, 1 the output could not be written (for example an unwritable
``--out`` or ``output_path``), 2 malformed configuration or usage (an
unreadable config file included), 3 a bound was violated beyond tolerance (the
report is still written).  Exit 2 also covers every range or limit check the
library makes (restarts on every ``optimize`` track, sweep steps, samples
(< 2**63), lhv_model weights and responses, coefficients); the error line then
quotes the library's own message.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Sequence

from ._version import __version__
from .geometry import (
    UNIT_GATE_TOLERANCE,
    Configuration,
    canonical_configuration,
    normalized,
    require_unit,
)
from .lhv import (
    CLASSICAL_BOUND,
    LhvModel,
    chsh_classical_value,
    classical_correlations,
    monte_carlo_correlations,
)
from .optimize import (
    DEFAULT_RESTARTS,
    OptimizationResult,
    _coplanar_rows,
    _require_restarts,
    maximize_classical,
    maximize_ga,
    maximize_quantum,
)
from .quantum import (
    TSIRELSON_BOUND,
    chsh_operator,
    chsh_quantum_value,
    chsh_squared_identity_deviation,
    cross_commutator_residual,
    operator_norm,
)
from .reporting import (
    BoundReport,
    canonical_json,
    reports_to_csv,
    reports_to_json,
    sweep_chunks,
    violation_exit_code,
)
from .vector_values import (
    ResponseCoefficients,
    chsh_vector_value,
    vector_bound_expression,
)

__all__ = ["ConfigError", "main"]

_CONFIG_KEYS = frozenset(
    {
        "track",
        "configuration",
        "lhv_model",
        "coefficients",
        "seed",
        "samples",
        "output_path",
        "output_format",
    }
)

_VERIFY_TRACKS = ("classical", "quantum", "ga", "all")

# What each report instantiates, for --paper output.  The statements cite
# the standard literature for the inequalities being checked.
_REFERENCE_LINES = {
    "classical": (
        "CHSH inequality for local hidden-variable models: "
        "|E(a,b) + E(a,b') + E(a',b) - E(a',b')| <= 2 "
        "(Bell 1964; Clauser, Horne, Shimony & Holt 1969)."
    ),
    "quantum": (
        "singlet-state CHSH expectation against the Tsirelson ceiling "
        "|<B>| <= 2*sqrt(2) (Cirel'son 1980)."
    ),
    "quantum_norm": (
        "operator-norm Tsirelson bound ||B|| <= 2*sqrt(2), via "
        "B^2 = 4*I - [A,A'] (x) [B,B'] with commutator norm at most 4 "
        "(Landau 1987)."
    ),
    "ga": (
        "vector-response CHSH combination |P(a,b) + P(a,b')| + "
        "|P(a',b) - P(a',b')| <= 2*sqrt(2) for factorized pair responses "
        "P(x,y) = alpha*beta*(x.y) with |alpha|, |beta| <= 1."
    ),
    "ga_bound": (
        "parallelogram-law cap |alpha*b + beta*b'| + |alpha*b - beta*b'| "
        "<= |b + b'| + |b - b'| <= 2*sqrt(2) for unit b, b'."
    ),
}


class ConfigError(ValueError):
    """A command-line rule (YAML types, keys, track and format names) broken; exit code 2."""


def _require_number(value: object, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}{_yaml_number_hint(value)}")
    try:
        v = float(value)
    except OverflowError:
        # Past 4300 digits even repr() of the int raises, so name only its size.
        raise ConfigError(
            f"{label} must fit in a float, got an integer of {value.bit_length()} bits"
        ) from None
    if not math.isfinite(v):
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return v


def _yaml_number_hint(value: object) -> str:
    """A hint for text that reads as a finite number, such as YAML 1.1's ``1e-3``."""
    if isinstance(value, str):
        try:
            if math.isfinite(float(value)):
                return (
                    " (YAML reads a quoted number, or an exponent without a decimal point,"
                    " as text; write it unquoted with a decimal point, for example 1.0e-3)"
                )
        except ValueError:
            pass
    return ""


def _require_int(value: object, label: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{label} must be >= {minimum}, got {value}")
    return value


def _require_numbers(value: object, count: int, label: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ConfigError(f"{label} must be a list of {count} numbers")
    return [_require_number(x, f"{label}[{i}]") for i, x in enumerate(value)]


def _load_config_file(path: str) -> dict:
    import yaml  # only --config needs the parser, so other runs skip its import cost

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: bytes that are not UTF-8, or an int over Python's digit limit.
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    except RecursionError:
        # PyYAML's composer recurses once per level of nesting.
        raise ConfigError(f"config file {path} is nested too deeply") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a mapping at top level")
    unknown = sorted(str(key) for key in data if key not in _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _parse_configuration(spec: object) -> tuple[Configuration, object]:
    """Build a Configuration and the echo of how it was specified."""
    if spec is None or spec == "canonical":
        return canonical_configuration(), "canonical"
    if isinstance(spec, dict) and set(spec) == {"angles_deg"}:
        angles = _require_numbers(spec["angles_deg"], 4, "configuration.angles_deg")
        cfg = Configuration.coplanar(*(math.radians(x) for x in angles))
        return cfg, {"angles_deg": angles}
    vector_keys = ("a", "a_prime", "b", "b_prime")
    if isinstance(spec, dict) and set(spec) == set(vector_keys):
        echo: dict[str, object] = {}
        vectors = []
        for key in vector_keys:
            raw = _require_numbers(spec[key], 3, f"configuration.{key}")
            require_unit(raw, UNIT_GATE_TOLERANCE, f"configuration.{key}")
            echo[key] = raw
            vectors.append(normalized(raw))
        return Configuration.from_vectors(*vectors), echo
    raise ConfigError(
        "configuration must be 'canonical', a mapping with keys "
        "a, a_prime, b, b_prime, or a mapping with key angles_deg"
    )


def _parse_model(spec: object) -> tuple[LhvModel, object]:
    if not isinstance(spec, dict) or set(spec) != {"states"}:
        raise ConfigError("lhv_model must be a mapping with a 'states' list")
    raw_states = spec["states"]
    if not isinstance(raw_states, list) or not raw_states:
        raise ConfigError("lhv_model.states must be a non-empty list")
    pairs = []
    echo_states = []
    for i, entry in enumerate(raw_states):
        label = f"lhv_model.states[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"weight", "responses"}:
            raise ConfigError(f"{label} must map 'weight' and 'responses'")
        weight = _require_number(entry["weight"], f"{label}.weight")
        responses = _require_numbers(entry["responses"], 4, f"{label}.responses")
        pairs.append((weight, responses))
        echo_states.append({"weight": weight, "responses": responses})
    return LhvModel.from_pairs(pairs), {"states": echo_states}


def _parse_coefficients(spec: object) -> ResponseCoefficients:
    if spec is None:
        return ResponseCoefficients.ones()
    return ResponseCoefficients(*_require_numbers(spec, 4, "coefficients"))


def _pick(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _emit(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks in turn to ``path``, or to stdout when it is None.

    The file is opened once the first chunk is formed, so an error raised
    while forming it leaves no file behind.
    """
    chunks = iter(chunks)
    first = next(chunks)
    if path is None:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(first)
            fh.writelines(chunks)


def _classical_reports(
    model: LhvModel | None, model_echo: object, samples: int, seed: int
) -> list[BoundReport]:
    details: dict[str, object] = {}
    if model is None:
        # No model supplied: report the deterministic maximum (every mixture
        # is a convex combination of the deterministic strategies).
        best_strategy = maximize_classical().best_strategy
        model = LhvModel.deterministic(*best_strategy)
        model_echo = "deterministic-maximum"
        details["maximizing_responses"] = list(best_strategy)
    correlations = classical_correlations(model)
    value = chsh_classical_value(correlations)
    details["correlations"] = list(correlations.as_tuple())
    if samples >= 1:
        estimate = monte_carlo_correlations(model, samples, seed)
        details["monte_carlo"] = {
            "samples": estimate.samples,
            "correlations": list(estimate.correlations.as_tuple()),
            "std_errors": list(estimate.std_errors),
            "chsh_value": chsh_classical_value(estimate.correlations),
        }
    inputs = {"lhv_model": model_echo, "samples": samples}
    return [
        BoundReport(
            track="classical",
            value=value,
            bound=CLASSICAL_BOUND,
            inputs=inputs,
            seed=seed,
            details=details,
        )
    ]


def _quantum_reports(cfg: Configuration, cfg_echo: object, seed: int) -> list[BoundReport]:
    value = chsh_quantum_value(cfg)
    norm = operator_norm(chsh_operator(cfg))
    inputs = {"configuration": cfg_echo}
    return [
        BoundReport(
            track="quantum",
            value=value,
            bound=TSIRELSON_BOUND,
            inputs=inputs,
            seed=seed,
            details={
                "squared_identity_deviation": chsh_squared_identity_deviation(cfg),
                "cross_commutator_residual": cross_commutator_residual(cfg),
            },
        ),
        BoundReport(
            track="quantum_norm",
            value=norm,
            bound=TSIRELSON_BOUND,
            inputs=inputs,
            seed=seed,
        ),
    ]


def _ga_reports(
    cfg: Configuration, cfg_echo: object, co: ResponseCoefficients, seed: int
) -> list[BoundReport]:
    inputs = {"configuration": cfg_echo, "coefficients": list(co.as_tuple())}
    return [
        BoundReport(
            track="ga",
            value=chsh_vector_value(cfg, co),
            bound=TSIRELSON_BOUND,
            inputs=inputs,
            seed=seed,
        ),
        BoundReport(
            track="ga_bound",
            value=vector_bound_expression(cfg.b, cfg.b_prime, co.alpha_b, co.alpha_b_prime),
            bound=TSIRELSON_BOUND,
            inputs=inputs,
            seed=seed,
        ),
    ]


def _run_verify(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config) if args.config else {}
    track = args.track if args.track is not None else config.get("track")
    if track is None:
        raise ConfigError("verify needs --track or a 'track' entry in the config file")
    if track not in _VERIFY_TRACKS:
        raise ConfigError(f"track must be one of {', '.join(_VERIFY_TRACKS)}, got {track!r}")
    seed = _require_int(_pick(args.seed, config, "seed", 0), "seed")
    samples = _require_int(_pick(args.samples, config, "samples", 0), "samples", minimum=0)
    out_path = _pick(args.out, config, "output_path", None)
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output_path must be a string, got {out_path!r}")
    out_format = _pick(args.format, config, "output_format", "json")
    if out_format not in ("json", "csv"):
        raise ConfigError(f"output_format must be json or csv, got {out_format!r}")

    configuration_spec = "canonical" if args.canonical else config.get("configuration")
    cfg, cfg_echo = _parse_configuration(configuration_spec)
    model = None
    model_echo: object = None
    if config.get("lhv_model") is not None:
        model, model_echo = _parse_model(config["lhv_model"])
    coefficients = _parse_coefficients(config.get("coefficients"))

    reports: list[BoundReport] = []
    if track in ("classical", "all"):
        reports.extend(_classical_reports(model, model_echo, samples, seed))
    if track in ("quantum", "all"):
        reports.extend(_quantum_reports(cfg, cfg_echo, seed))
    if track in ("ga", "all"):
        reports.extend(_ga_reports(cfg, cfg_echo, coefficients, seed))

    text = reports_to_json(reports) if out_format == "json" else reports_to_csv(reports)
    _emit([text], out_path)
    if args.paper:
        for report in reports:
            print(f"{report.track}: {_REFERENCE_LINES[report.track]}", file=sys.stderr)
    return violation_exit_code(reports)


def _optimization_mapping(result: OptimizationResult, verdict: BoundReport) -> dict[str, object]:
    """The result's set fields (``history`` as ``improvements``) plus the verdict."""
    out: dict[str, object] = {}
    for name, value in zip(result._fields, result._values()):
        if isinstance(value, Configuration):
            value = dict(zip(value._fields, value._values()))
        elif isinstance(value, ResponseCoefficients):
            value = value.as_tuple()
        if value is not None:
            out["improvements" if name == "history" else name] = value
    out.update(margin=verdict.margin, attained=verdict.attained, version=verdict.version)
    return out


def _run_optimize(args: argparse.Namespace) -> int:
    # The classical track runs no search, so check the restart count here too.
    _require_restarts(args.restarts)
    if args.track == "classical":
        result = maximize_classical()
    elif args.track == "quantum":
        result = maximize_quantum(restarts=args.restarts, seed=args.seed)
    else:
        result = maximize_ga(restarts=args.restarts, seed=args.seed)
    # The best value is judged by the same margin rules as a verify report.
    verdict = BoundReport(result.track, result.best_value, result.bound, inputs={}, seed=args.seed)
    _emit([canonical_json(_optimization_mapping(result, verdict))], args.out)
    return violation_exit_code([verdict])


def _run_sweep(args: argparse.Namespace) -> int:
    points = _coplanar_rows(args.steps)
    _emit(sweep_chunks(points, CLASSICAL_BOUND, TSIRELSON_BOUND, args.format), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshbounds",
        description=(
            "Verify, maximize, and tabulate CHSH-type bounds across the "
            "classical, quantum, and vector-response tracks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="evaluate tracks at a configuration and compare against their bounds",
        description=(
            "Evaluate the selected track(s) and emit bound reports. Without "
            "--canonical or a config-file configuration, the canonical "
            "maximizing configuration is used."
        ),
    )
    verify.add_argument(
        "--track",
        choices=_VERIFY_TRACKS,
        help="track to verify (required here or in the config file)",
    )
    verify.add_argument("--config", metavar="FILE", help="YAML run configuration")
    verify.add_argument(
        "--canonical",
        action="store_true",
        help="use the canonical maximizing configuration (overrides the config file)",
    )
    verify.add_argument("--seed", type=int, help="sampling seed (default 0)")
    verify.add_argument(
        "--samples",
        type=int,
        help="Monte Carlo sample count for the classical track (default 0 = skip)",
    )
    verify.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    verify.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
    verify.add_argument(
        "--paper",
        action="store_true",
        help="print the inequality each report instantiates, with citations, to stderr",
    )

    optimize = sub.add_parser(
        "optimize",
        help="maximize a track's objective and report the best point found",
    )
    optimize.add_argument("--track", choices=("classical", "quantum", "ga"), required=True)
    optimize.add_argument(
        "--restarts",
        type=int,
        default=DEFAULT_RESTARTS,
        help=f"random restarts for the continuous tracks (default {DEFAULT_RESTARTS})",
    )
    optimize.add_argument("--seed", type=int, default=0, help="restart-stream seed (default 0)")
    optimize.add_argument("--out", metavar="FILE", help="write the result here instead of stdout")

    sweep = sub.add_parser(
        "sweep",
        help="tabulate the coplanar quantum family against both bounds",
    )
    sweep.add_argument("--steps", type=int, required=True, help="grid points over [0, pi] (>= 2)")
    sweep.add_argument("--out", metavar="FILE", help="write the table here instead of stdout")
    sweep.add_argument("--format", choices=("json", "csv"), default="json", help="table format")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "optimize":
            return _run_optimize(args)
        return _run_sweep(args)
    except ValueError as exc:
        # ConfigError and every range or limit check the library makes.
        print(f"chshbounds: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"chshbounds: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
