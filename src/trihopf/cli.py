"""Command-line surface.

Subcommands: build, verify, analyze, twist, modify, septuple validate,
atlas.  Exit codes are a stable contract: 0 success, 1 verification or
theorem failure, 2 malformed input, 3 unsupported stratum.  The
environment variable HOPF_MAX_DIM (default 32) bounds accepted
dimensions.

A command imports the modules it runs when it runs: the module itself
loads only the errors and the wire formats, so a fresh process spends
no start-up on builders, groups, the atlas or a process pool that its
command never calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    BicharacterError,
    GroupError,
    HopfError,
    NotAbelian,
    NotInvertible,
    SeptupleInvariantViolation,
    ShapeError,
    TwistError,
    UnsupportedStratum,
)
from .serialize import (
    _int,
    _object,
    _resolve_ref,
    bicharacter_from_file_obj,
    dumps,
    group_from_file_obj,
    hopf_dumps,
    hopf_from_obj,
    load,
    rep_from_file_obj,
    save,
    septuple_from_file_obj,
    tensor2_dumps,
    tensor2_from_obj,
)
from .tensor import Vec, check_tensor_dims

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3

MALFORMED_ERRORS = (
    json.JSONDecodeError,
    OSError,
    KeyError,
    IndexError,
    TypeError,
    ValueError,
    ShapeError,
    GroupError,
    BicharacterError,
    NotAbelian,
    SeptupleInvariantViolation,
)


def max_dim() -> int:
    return int(os.environ.get("HOPF_MAX_DIM", "32"))


def _check_dim(dim: int):
    if dim > max_dim():
        raise ShapeError(f"dimension {dim} exceeds HOPF_MAX_DIM={max_dim()}")


def _check_predicted_dim(group_obj, degree=0):
    """Bound the output dimension |G| * 2^degree, read off the input file
    (|G| the row count of the group's table, 1 without a group), before
    any group or algebra is built."""
    order = 1 if group_obj is None else len(group_obj["table"])
    degree = _int(degree, "degree")
    # 2^degree > degree, so degree >= max_dim() needs no power
    if degree >= max_dim() or (degree >= 0 and order << degree > max_dim()):
        raise ShapeError(f"dimension {order}*2^{degree} exceeds HOPF_MAX_DIM={max_dim()}")


def _check_septuple_dim(obj, base):
    """Bound a septuple file's |G| * 2^deg W before it is loaded, for its
    group and for the group its rep names, on which the rep is built."""
    rep_obj, rep_dir = _resolve_ref(obj, "rep", base)
    _check_predicted_dim(_resolve_ref(obj, "group", base)[0], rep_obj["degree"])
    if "group" in rep_obj or "group_ref" in rep_obj:
        _check_predicted_dim(_resolve_ref(rep_obj, "group", rep_dir)[0], rep_obj["degree"])


def _load_hopf(path):
    obj = _object(load(path), "a Hopf dump")
    _check_dim(_int(obj["dim"], "dim"))
    return hopf_from_obj(obj)


def _print_report(obj, fmt: str):
    if fmt == "text":
        lines: list[str] = []

        def flatten(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    flatten(f"{prefix}{k}.", value[k])
            elif isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
                for idx, x in enumerate(value):
                    flatten(f"{prefix}{idx}.", x)
            else:
                lines.append(f"{prefix[:-1]}: {value}")

        flatten("", obj)
        print("\n".join(lines))
    else:
        sys.stdout.write(dumps(obj))


def _derived_r_path(out_path: str) -> str:
    p = Path(out_path)
    if p.suffix == ".json":
        return str(p.with_suffix("")) + ".r.json"
    return out_path + ".r.json"


def cmd_build(args) -> int:
    kind = args.kind
    obj = _object(load(args.input), "a build input")
    base = Path(args.input).parent
    r = None
    # each kind bounds its output dimension before it imports a builder,
    # so an input refused here compiles no groups or constructions
    if kind == "group-algebra":
        _check_predicted_dim(obj)
        from .constructions import group_algebra

        h = group_algebra(group_from_file_obj(obj))
    elif kind == "exterior":
        n = _int(obj["n"], "n")
        _check_predicted_dim(None, n)
        from .constructions import exterior_algebra

        h = exterior_algebra(n)
    elif kind == "supergroup":
        _check_predicted_dim(_resolve_ref(obj, "group", base)[0], obj["degree"])
        from .constructions import supergroup_algebra

        rep = rep_from_file_obj(obj, base)
        h = supergroup_algebra(rep.group, rep)
    elif kind == "modified-supergroup":
        # a rep file names its group relative to its own directory
        rep_obj, rep_dir = _resolve_ref(obj, "rep", base)
        _check_predicted_dim(_resolve_ref(rep_obj, "group", rep_dir)[0], rep_obj["degree"])
        from .constructions import modified_supergroup_algebra

        rep = rep_from_file_obj(rep_obj, rep_dir)
        h, r = modified_supergroup_algebra(rep.group, rep, _int(obj["u"], "u"))
    elif kind == "semisimple-triangular":
        group_obj, _ = _resolve_ref(obj, "group", base)
        _check_predicted_dim(group_obj)
        from .constructions import semisimple_triangular
        from .groups import AbelianSubgroup

        group = group_from_file_obj(group_obj)
        sub = AbelianSubgroup(group, [_int(i, "subgroup element") for i in obj["subgroup"]])
        gamma = bicharacter_from_file_obj(obj["bicharacter"])
        h, r = semisimple_triangular(group, sub, gamma, _int(obj["u"], "u"))
    elif kind == "septuple-pipeline":
        _check_septuple_dim(obj, base)
        from .constructions import septuple_twist

        septuple = septuple_from_file_obj(obj, base)
        h, r = septuple_twist(septuple).apply()
    else:  # argparse choices make this unreachable
        raise ShapeError(f"unknown kind {kind}")
    save(args.output, hopf_dumps(h))
    if r is not None:
        r_path = args.r_out or _derived_r_path(args.output)
        save(r_path, tensor2_dumps(r))
    return EXIT_OK


def cmd_verify(args) -> int:
    h = _load_hopf(args.dump)
    if args.super and not h.super:
        raise ShapeError("--super given but the dump is not a superalgebra")
    report = h.axioms
    out = {"axioms": report.to_obj(), "ok": report.ok}
    ok = report.ok
    if args.r:
        from .triangular import verify_triangular

        r = tensor2_from_obj(load(args.r))
        tri = verify_triangular(h, r)
        out["triangular"] = tri
        out["ok"] = ok = ok and tri
    if args.twist:
        from .constructions import Twist

        j = tensor2_from_obj(load(args.twist))
        # the check trihopf twist makes; a refused J's reason goes in the report
        try:
            Twist(h, j)
            tw = True
        except (TwistError, NotInvertible) as exc:
            tw = False
            out["twist_failure"] = str(exc)
        out["twist"] = tw
        out["ok"] = ok = ok and tw
    _print_report(out, args.format)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_analyze(args) -> int:
    from .triangular import analysis_report, theorems_hold

    h = _load_hopf(args.dump)
    axioms = h.axioms
    if not axioms.ok:
        _print_report({"axioms": axioms.to_obj(), "ok": False}, args.format)
        return EXIT_VERIFY_FAIL
    r = tensor2_from_obj(load(args.r)) if args.r else None
    report = analysis_report(h, r)
    _print_report(report, args.format)
    if r is not None and not theorems_hold(report):
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_twist(args) -> int:
    from .constructions import apply_twist

    h = _load_hopf(args.dump)
    j = tensor2_from_obj(load(args.twist))
    r = tensor2_from_obj(load(args.r)) if args.r else None
    # apply_twist checks the twist identities and inverts J itself;
    # TwistError and NotInvertible reach main's HopfError handler
    h2, r2 = apply_twist(h, j, r=r)
    save(args.output, hopf_dumps(h2))
    if r2 is not None:
        save(args.r_out or _derived_r_path(args.output), tensor2_dumps(r2))
    return EXIT_OK


def cmd_modify(args) -> int:
    from .triangular import modify_r

    h = _load_hopf(args.dump)
    r = tensor2_from_obj(load(args.r))
    check_tensor_dims(h, r)
    u = Vec.basis(h.dim, int(args.u))
    r2 = modify_r(h, r, u)
    save(args.output, tensor2_dumps(r2))
    return EXIT_OK


def cmd_septuple_validate(args) -> int:
    from .constructions import validate_septuple

    obj, base = load(args.input), Path(args.input).parent
    _check_septuple_dim(obj, base)
    septuple = septuple_from_file_obj(obj, base)
    report = validate_septuple(septuple)
    _print_report(report.to_obj(), args.format)
    return EXIT_OK if report.valid else EXIT_VERIFY_FAIL


def cmd_atlas(args) -> int:
    if args.max_order > max_dim():
        raise ShapeError(f"--max-order exceeds HOPF_MAX_DIM={max_dim()}")
    from .atlas import run_atlas

    ok, manifest = run_atlas(args.max_order, args.output, workers=args.workers)
    print(f"atlas: {len(manifest['instances'])} instances, all verified: {ok}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihopf",
        description="Construct and verify finite-dimensional triangular Hopf algebras, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an algebra from a data file")
    p.add_argument("input", help="JSON input file for the chosen kind")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "group-algebra",
            "exterior",
            "supergroup",
            "modified-supergroup",
            "semisimple-triangular",
            "septuple-pipeline",
        ],
    )
    p.add_argument("-o", "--output", required=True, help="Hopf dump path")
    p.add_argument("--r-out", help="R-matrix output path (default: <output>.r.json)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the axiom suites on a dump")
    p.add_argument("dump")
    p.add_argument("--r", help="R-matrix file to check triangularity")
    p.add_argument("--twist", help="twist file to check the twist axioms")
    p.add_argument("--super", action="store_true", help="require the dump to be super")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="print the structural report for a dump")
    p.add_argument("dump")
    p.add_argument("--r", help="R-matrix file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("twist", help="apply a verified twist to a dump")
    p.add_argument("dump")
    p.add_argument("--twist", required=True, help="twist (Tensor2) file")
    p.add_argument("--r", help="R-matrix to transform alongside")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--r-out", help="transformed R output path")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("modify", help="multiply an R-matrix by R_u")
    p.add_argument("dump")
    p.add_argument("--r", required=True)
    p.add_argument("--u", required=True, help="basis index of the group-like involution")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("septuple", help="septuple operations")
    ssub = p.add_subparsers(dest="septuple_command", required=True)
    pv = ssub.add_parser("validate", help="validate a septuple file")
    pv.add_argument("input")
    pv.add_argument("--format", choices=["json", "text"], default="json")
    pv.set_defaults(func=cmd_septuple_validate)

    p = sub.add_parser("atlas", help="enumerate and verify the catalog")
    p.add_argument("--max-order", type=int, default=16, help="output dimension bound")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_atlas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedStratum as exc:
        print(f"unsupported stratum: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except MALFORMED_ERRORS as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except HopfError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
