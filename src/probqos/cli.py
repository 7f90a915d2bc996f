"""Command-line front-end.

Verbs: check (profile vs requirement), learn (fit a KDE profile from records),
select (rank a repository against a requirement), integrate (region
probability), volume (polytope volume estimate).
Each verb prints one JSON document on stdout; errors go to stderr.

Exit codes: 0 satisfied / success, 1 violated / nothing selected,
2 indeterminate, 10 malformed input or usage, 11 schema mismatch, 12 unbounded
region.
"""

from __future__ import annotations

import argparse
import json
import sys

from .broker import BrokerError, load_repository, select
from .geometry import (
    DimensionMismatchError,
    GeometryError,
    UnboundedPolytopeError,
    estimate_volume,
)
from .integrate import DEFAULT_SAMPLES, SchemaMismatchError, integrate_uniform
from .learning import (
    CV_FOLDS,
    LearningError,
    QoSRecordSet,
    bandwidth_scott,
    fit_kde_cv,
    KDEProfile,
)
from .profiles import AttributeSchema, ProfileError
from .requirements import (
    RequirementError,
    RequirementSyntaxError,
    parse_region,
    parse_requirement,
    qos_check,
)
from .rng import RngStream
from .serialize import SerializationError, load_profile, save_profile

EXIT_SATISFIED = 0
EXIT_VIOLATED = 1
EXIT_INDETERMINATE = 2
EXIT_MALFORMED = 10
EXIT_SCHEMA_MISMATCH = 11
EXIT_UNBOUNDED = 12

_VERDICT_EXIT = {
    "satisfied": EXIT_SATISFIED,
    "violated": EXIT_VIOLATED,
    "indeterminate": EXIT_INDETERMINATE,
}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _read_requirement(path: str, schema):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SerializationError(f"{path}: {exc}")
    return parse_requirement(text, schema)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_MALFORMED: argparse's 2 is EXIT_INDETERMINATE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, samples: bool, z: bool,
                seed_help: str = "master RNG seed") -> None:
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    if samples:
        parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                            help="Monte Carlo samples per estimate")
    if z:
        parser.add_argument("--z", type=float, default=3.0,
                            help="confidence band half-width in standard errors; "
                                 "0 decides on the point estimates")
    parser.add_argument("--json", action="store_true",
                        help="accepted and ignored: the output is always JSON")


def _cmd_check(args) -> int:
    profile = load_profile(args.profile)
    req = _read_requirement(args.requirement, profile.schema)
    report = qos_check(profile, req, k=args.samples, rng=RngStream(args.seed),
                       confidence_z=args.z)
    _emit(report.to_dict())
    return _VERDICT_EXIT[report.verdict]


def _cmd_select(args) -> int:
    entries = load_repository(args.repository)
    req = _read_requirement(args.requirement, entries[0].profile.schema)
    result = select(entries, req, k=args.samples, seed=args.seed, confidence_z=args.z)
    _emit(result.to_dict())
    satisfied = any(rep.verdict == "satisfied" for _, rep in result.ranked)
    return EXIT_SATISFIED if satisfied else EXIT_VIOLATED


def _cmd_learn(args) -> int:
    records = QoSRecordSet.from_csv(args.records)
    if args.cv:
        profile = fit_kde_cv(records, rng=RngStream(args.seed))
    else:
        h = bandwidth_scott(records)
        profile = KDEProfile(records.schema, records, "gaussian", h,
                             fit_info={"method": "scott", "kernel": "gaussian",
                                       "bandwidths": [float(v) for v in h]})
    save_profile(profile, args.output)
    _emit({**profile.fit_info, "records": records.m, "output": args.output})
    return EXIT_SATISFIED


def _cmd_integrate(args) -> int:
    profile = load_profile(args.profile)
    region = parse_region(args.region, profile.schema)
    est = integrate_uniform(profile, region, args.samples, RngStream(args.seed))
    _emit({"estimate": est.value, "std_error": est.std_error, "k": est.k,
           "volume_used": est.volume_used})
    return EXIT_SATISFIED


def _cmd_volume(args) -> int:
    names = tuple(name.strip() for name in args.attributes.split(","))
    region = parse_region(args.region, AttributeSchema(names))
    volume, se = estimate_volume(region, args.samples, RngStream(args.seed))
    _emit({"volume": volume, "std_error": se, "k": args.samples})
    return EXIT_SATISFIED


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="probqos",
        description="Probabilistic QoS contract checking and service selection",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="decide whether a profile meets a requirement")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("requirement", help="requirement text file")
    _add_common(p, samples=True, z=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("select", help="rank a repository against a requirement")
    p.add_argument("repository", help="directory of profile JSON files")
    p.add_argument("requirement", help="requirement text file")
    _add_common(p, samples=True, z=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("learn", help="fit a KDE profile from a records CSV")
    p.add_argument("records", help="CSV with a header of attribute names")
    p.add_argument("-o", "--output", required=True, help="profile JSON to write")
    p.add_argument("--cv", action="store_true",
                   help="cross-validate the kernel (Gaussian or Laplace) and the "
                        f"Scott bandwidths' scale (0.25-4) over {CV_FOLDS} folds")
    _add_common(p, samples=False, z=False,
                seed_help="seeds the --cv folds; the rule-of-thumb fit draws nothing")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("integrate", help="estimate P(X in R)")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("--region", required=True,
                   help="conjunction of linear inequalities over the schema")
    _add_common(p, samples=True, z=False)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("volume", help="estimate the volume of a bounded region")
    p.add_argument("--region", required=True,
                   help="conjunction of linear inequalities")
    p.add_argument("--attributes", required=True,
                   help="comma-separated attribute names fixing the axis order")
    _add_common(p, samples=True, z=False)
    p.set_defaults(func=_cmd_volume)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return EXIT_MALFORMED
    except UnboundedPolytopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (SchemaMismatchError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA_MISMATCH
    except (SerializationError, RequirementError, LearningError, BrokerError,
            ProfileError, GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
