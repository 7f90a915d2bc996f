"""Command-line front-end.

Verbs: check (profile vs requirement), learn (fit a KDE profile from records),
select (rank a repository against a requirement), integrate (region
probability and convergence scan), volume (polytope volume estimate).

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
from .integrate import (
    DEFAULT_SAMPLES,
    SchemaMismatchError,
    convergence_scan,
    integrate_uniform,
)
from .learning import (
    KERNELS,
    LearningError,
    QoSRecordSet,
    bandwidth_scott,
    bandwidth_silverman,
    fit_kde_cv,
    KDEProfile,
)
from .profiles import ProfileError
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


def _add_common(parser: argparse.ArgumentParser, samples: bool, z: bool) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    if samples:
        parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                            help="Monte Carlo samples per estimate")
    if z:
        parser.add_argument("--z", type=float, default=3.0,
                            help="confidence band half-width in standard errors; "
                                 "0 decides on the point estimates")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")


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
    result = select(entries, req, k=args.samples, seed=args.seed, confidence_z=args.z,
                    include_indeterminate=args.include_indeterminate)
    _emit(result.to_dict())
    satisfied = any(rep.verdict == "satisfied" for _, rep in result.ranked)
    return EXIT_SATISFIED if satisfied else EXIT_VIOLATED


def _cmd_learn(args) -> int:
    records = QoSRecordSet.from_csv(args.records)
    if args.cv:
        grid = tuple(float(g) for g in args.grid.split(","))
        profile = fit_kde_cv(records, kernels=tuple(args.kernel),
                             bandwidth_grid=grid, folds=args.folds,
                             rng=RngStream(args.seed))
    else:
        rule = bandwidth_scott if args.bandwidth == "scott" else bandwidth_silverman
        h = rule(records)
        kernel = args.kernel[0]
        profile = KDEProfile(records.schema, records, kernel, h,
                             fit_info={"method": args.bandwidth, "kernel": kernel,
                                       "bandwidths": [float(v) for v in h]})
    save_profile(profile, args.output)
    info = dict(profile.fit_info)
    info.update(records=records.m, output=args.output)
    if args.json:
        _emit(info)
    else:
        print(f"fitted kde profile -> {args.output}")
        print(f"  records:    {records.m}")
        print(f"  kernel:     {profile.kernel}")
        print(f"  bandwidths: {[round(float(v), 6) for v in profile.bandwidths]}")
        if "cv_score" in info:
            print(f"  cv score:   {info['cv_score']:.6f} "
                  f"(multiplier {info['multiplier']}, {info['folds']} folds)")
    return EXIT_SATISFIED


def _cmd_integrate(args) -> int:
    profile = load_profile(args.profile)
    region = parse_region(args.region, profile.schema)
    if args.scan:
        ks = [int(v) for v in args.ks.split(",")]
        if args.truth is None:
            raise RequirementError("--scan requires --truth (a reference value)")
        seeds = [args.seed + i for i in range(args.scan_seeds)]
        scan = convergence_scan(profile, region, ks, seeds, args.truth)
        doc = {"rows": [{"k": k, "mean_abs_error": e} for k, e in scan.rows],
               "slope": scan.slope, "truth": args.truth}
        if args.json:
            _emit(doc)
        else:
            for k, e in scan.rows:
                print(f"k={k:>10d}  mean |error| = {e:.3e}")
            print(f"log-log slope: {scan.slope:+.3f}")
        return EXIT_SATISFIED
    est = integrate_uniform(profile, region, args.samples, RngStream(args.seed))
    if args.json:
        _emit({"estimate": est.value, "std_error": est.std_error, "k": est.k,
               "volume_used": est.volume_used})
    else:
        print(f"P(X in R) = {est.value:.6f} +/- {est.std_error:.6f} (k={est.k})")
    return EXIT_SATISFIED


def _cmd_volume(args) -> int:
    from .profiles import AttributeSchema

    names = tuple(name.strip() for name in args.attributes.split(","))
    region = parse_region(args.region, AttributeSchema(names))
    volume, se = estimate_volume(region, args.samples, RngStream(args.seed))
    if args.json:
        _emit({"volume": volume, "std_error": se, "k": args.samples})
    else:
        print(f"volume = {volume:.6f} +/- {se:.6f} (k={args.samples})")
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
    p.add_argument("--include-indeterminate", action="store_true",
                   help="also list indeterminate services, marked as such")
    _add_common(p, samples=True, z=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("learn", help="fit a KDE profile from a records CSV")
    p.add_argument("records", help="CSV with a header of attribute names")
    p.add_argument("-o", "--output", required=True, help="profile JSON to write")
    p.add_argument("--cv", action="store_true",
                   help="cross-validate kernel and bandwidth scale")
    p.add_argument("--bandwidth", choices=("scott", "silverman"), default="scott",
                   help="rule-of-thumb bandwidths (ignored with --cv)")
    p.add_argument("--kernel", action="append", choices=sorted(KERNELS),
                   help="kernel(s) to consider; repeatable with --cv")
    p.add_argument("--folds", type=int, default=5, help="CV fold count")
    p.add_argument("--grid", default="0.25,0.5,1.0,2.0,4.0",
                   help="CV bandwidth-scale grid (comma-separated)")
    _add_common(p, samples=False, z=False)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("integrate", help="estimate P(X in R) or scan convergence")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("--region", required=True,
                   help="conjunction of linear inequalities over the schema")
    p.add_argument("--scan", action="store_true", help="run a convergence scan")
    p.add_argument("--ks", default="100,1000,10000,100000",
                   help="sample counts for --scan (comma-separated)")
    p.add_argument("--scan-seeds", type=int, default=20,
                   help="replicates per k for --scan")
    p.add_argument("--truth", type=float, help="reference value for --scan errors")
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
    if args.verb == "learn" and args.kernel is None:
        args.kernel = ["gaussian", "exponential"] if args.cv else ["gaussian"]
    try:
        return args.func(args)
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
