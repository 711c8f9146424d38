"""Command-line front end.

Subcommands operate on JSON config files and print JSON reports (CSV for
direction sweeps).  Exit codes: 0 on success or a CONSISTENT audit, 1 on
VIOLATION or a failed computation, 2 on usage or config schema errors.
Reports are deterministic: identical inputs and seed give identical bytes,
keys are sorted, and every numeric report embeds the tolerances it used.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import example
from . import invariants as inv
from . import pencil as pencils
from .curvature import reports_to_csv, ricci_expanded, ricci_expanded_batch
from .example import ExampleParams, find_example_params, verify_example
from .germ import COND_LIMIT, Germ
from .invariants import (audit_codim2, audit_hypersurface, audit_ruled,
                         point_invariants, sphere_grid)
from .minkowski import (VALIDATION_SAMPLES, ConeTooNarrow, NormModel,
                        validate_norm)
from .norm_expr import (ArityError, ExprSyntaxError, NonFiniteConstant,
                        UnknownVariable)


class ConfigError(ValueError):
    """Config schema problem; the message starts with a JSON pointer."""


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"/: cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"/: {path!r} is not valid JSON: {exc}") from exc


def _require(data, key: str, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or '/'}: expected a JSON object")
    if key not in data:
        raise ConfigError(f"{path}/{key}: missing")
    return data[key]


def _number(data, key: str, path: str) -> float:
    val = _require(data, key, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}/{key}: expected a number")
    if not np.isfinite(val):
        raise ConfigError(f"{path}/{key}: not finite: {val}")
    return float(val)


def _integer(data, key: str, path: str) -> int:
    val = _require(data, key, path)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}/{key}: expected an integer")
    return val


def _array(data, key: str, path: str) -> np.ndarray:
    val = _require(data, key, path)
    try:
        arr = np.asarray(val, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}/{key}: not a numeric array: {exc}") from exc
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        where = "".join(f"/{i}" for i in bad[0])
        raise ConfigError(f"{path}/{key}{where}: not finite: "
                          f"{arr[tuple(bad[0])]}")
    return arr


def norm_from_config(data, path: str) -> NormModel:
    kind = _require(data, "kind", path)
    try:
        if kind == "euclidean":
            return NormModel.euclidean(_integer(data, "dim", path))
        if kind == "randers":
            return NormModel.randers(_array(data, "a", path),
                                     _array(data, "b", path))
        if kind == "example4":
            return NormModel.example4(_number(data, "A", path),
                                      _number(data, "B", path),
                                      _number(data, "eps1", path),
                                      _number(data, "eps2", path))
        if kind == "expression":
            text = _require(data, "text", path)
            if not isinstance(text, str):
                raise ConfigError(f"{path}/text: expected a string")
            return NormModel.expression(text, _integer(data, "dim", path))
    except (ExprSyntaxError, UnknownVariable, ArityError,
            NonFiniteConstant) as exc:
        raise ConfigError(f"{path}/text: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path or '/'}: {exc}") from exc
    raise ConfigError(f"{path}/kind: unknown norm kind {kind!r}")


def germ_from_config(data, path: str) -> Germ:
    n = _integer(data, "n", path)
    p = _integer(data, "p", path)
    d2 = _array(data, "d2", path)
    d3 = _array(data, "d3", path)
    try:
        return Germ.make(n, p, d2, d3)
    except ValueError as exc:
        raise ConfigError(f"{path or '/'}: {exc}") from exc


def _section(data, key: str, marker: str) -> tuple:
    """(object, JSON pointer) of the config's ``key`` section: the root of
    a flat config, which has ``marker``, else data[key]."""
    if isinstance(data, dict) and marker in data:
        return data, ""
    return _require(data, key, ""), f"/{key}"


def _norm_and_germ(data) -> tuple:
    """The config's norm and germ, and the germ's JSON pointer; the norm
    must act on R^(n + p)."""
    norm_data, norm_path = _section(data, "norm", "kind")
    germ_data, germ_path = _section(data, "germ", "d2")
    norm = norm_from_config(norm_data, norm_path)
    germ = germ_from_config(germ_data, germ_path)
    if norm.dim != germ.n + germ.p:
        raise ConfigError(f"{norm_path or '/'}: norm dimension {norm.dim} "
                          f"does not match the germ's n + p = "
                          f"{germ.n + germ.p}")
    return norm, germ, germ_path


def pencil_from_config(data, path: str = ""):
    try:
        pen = pencils.SymPencil.make(_array(data, "A1", path),
                                     _array(data, "A2", path))
    except ValueError as exc:
        raise ConfigError(f"{path or '/'}: {exc}") from exc
    N = pen.dim
    cubics = []
    for key in ("psi1", "psi2"):
        if key in data:
            T = _array(data, key, path)
            if T.shape != (N, N, N):
                raise ConfigError(f"{path}/{key}: expected shape "
                                  f"({N},{N},{N}), got {T.shape}")
            cubics.append(T)
        else:
            cubics.append(np.zeros((N, N, N)))
    return pen, cubics[0], cubics[1]


def _parse_direction(text: str, n: int) -> np.ndarray:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--direction: {exc}") from exc
    if len(parts) != n:
        raise ConfigError(f"--direction: expected {n} components, "
                          f"got {len(parts)}")
    if not np.all(np.isfinite(parts)):
        raise ConfigError("--direction: components must be finite")
    scale = max(map(abs, parts))
    if scale * scale == 0.0:    # then u . u, which the norm tests, is 0
        raise ConfigError("--direction: must not be zero" + (
            " (its squared length underflows)" if scale else ""))
    return np.asarray(parts)


def _emit_json(obj: dict) -> str:
    # numpy arrays and scalars serialize through their tolist()
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=lambda x: x.tolist()) + "\n"


# -- subcommand handlers ------------------------------------------------------
# Each returns (report, passed): a dict for JSON, or CSV text; main stamps
# the seed, prints the report and writes --out.


def _cmd_check_norm(args) -> tuple:
    norm = norm_from_config(*_section(_load_json(args.config), "norm", "kind"))
    report = validate_norm(norm, samples=args.grid, seed=args.seed,
                           min_axis_fraction=args.min_axis_fraction)
    return {**report.to_dict(), "norm": norm.to_config()}, report.valid


def _cmd_curvature(args) -> tuple:
    norm, germ, _ = _norm_and_germ(_load_json(args.config))
    u = _parse_direction(args.direction, germ.n)
    with np.errstate(all="ignore"):     # a non-finite field is named
        rep = ricci_expanded(norm, germ, u).require_finite()
    parts = dict(zip(("cubicGroup", "zetaGroup", "etaGroup", "rhoGroup"),
                     rep.ric_parts))
    return {"u": rep.u, "S": rep.S, "Ric": rep.Ric, "ricParts": parts,
            "g": rep.g, "h": rep.h, "kappa": rep.kappa, "G": rep.G,
            "xi": rep.xi, "zeta": rep.zeta, "eta": rep.eta, "rho": rep.rho,
            "Rik": rep.Rik, "tolerances": {"condLimit": COND_LIMIT}}, True


def _cmd_ricci_grid(args) -> tuple:
    norm, germ, _ = _norm_and_germ(_load_json(args.config))
    sweep = ricci_expanded_batch(norm, germ, sphere_grid(germ.n, args.grid))
    return reports_to_csv(sweep), True


def _cmd_invariants(args) -> tuple:
    germ = germ_from_config(*_section(_load_json(args.config), "germ", "d2"))
    return {**point_invariants(germ, seed=args.seed).to_dict(),
            "tolerances": {"rankTol": inv.RANK_TOL,
                           "eigTol": pencils.EIG_TOL}}, True


def _cmd_pencil_type(args) -> tuple:
    pen, _, _ = pencil_from_config(_load_json(args.file))
    return {"type": pencils.pencil_type(pen), "method": "arcs",
            "tolerances": {"eigTol": pencils.EIG_TOL,
                           "pencilCondLimit": pencils.PENCIL_COND_LIMIT}}, True


def _cmd_pencil_classify(args) -> tuple:
    pen, _, _ = pencil_from_config(_load_json(args.file))
    # the three calls share the pencil's one reference search
    gen = pencils.genericity_check(pen, args.seed)
    out = {"genericity": gen.to_dict(),
           "spectral": None, "canonical": None, "topology": None,
           "type": pencils.pencil_type(pen), "notes": [],
           "tolerances": {"eigTol": pencils.EIG_TOL,
                          "clusterTol": pencils.CLUSTER_TOL,
                          "canonicalAngleTol": pencils.CANONICAL_ANGLE_TOL,
                          "pencilCondLimit": pencils.PENCIL_COND_LIMIT}}
    try:    # json writes the tuples below as arrays
        spec = pencils.spectral_split(pen)
        out["spectral"] = {"realPairs": spec.real_pairs,
                           "complexPairs": spec.complex_pairs}
        canon = pencils.canonical_from_spectral(spec)
        out["canonical"] = {"l": canon.l, "n": canon.n, "s": canon.s}
        out["topology"] = pencils.classify_topology(canon).to_dict()
    except (pencils.NotSemisimple, pencils.SingularA2) as exc:
        out["notes"].append(f"spectral split unavailable: {exc}")
    except ValueError as exc:
        out["notes"].append(f"not at canonical angles: {exc}")
    return out, True


def _cmd_pencil_common_zero(args) -> tuple:
    pen, T1, T2 = pencil_from_config(_load_json(args.file))
    point = pencils.common_zero_search(pen.A1, pen.A2, T1, T2,
                                       budget=args.budget, seed=args.seed)
    found = point is not None
    residual = None
    if found:
        vals = pencils._residuals(pen.A1, pen.A2, T1, T2, point)
        residual = float(np.sqrt(vals @ vals))
    return {"found": found, "point": point, "residual": residual,
            "budget": args.budget,
            "tolerances": {"residualSq": pencils.RESIDUAL_SQ}}, found


def _cmd_verify_example(args) -> tuple:
    if args.auto:
        budget = example.SEARCH_BUDGET if args.budget is None else args.budget
        report = example.search_example(budget, grid=args.grid,
                                        seed=args.seed)
    else:
        data = _load_json(args.params)
        values = {f.name: _number(data, f.name, "")
                  for f in fields(ExampleParams)}
        try:
            params = ExampleParams(**values)
        except ValueError as exc:   # the message starts with the key
            raise ConfigError(f"/{exc}") from exc
        report = verify_example(params, grid=args.grid, seed=args.seed)
    if args.csv:
        Path(args.csv).write_text(report.csv_text())
    tolerances = {"relTol": example.REL_TOL,
                  "gridRefinementRad": example.REFINE_HALF_WIDTH}
    return ({**report.to_dict(), "tolerances": tolerances},
            report.verdict == "SUCCESS")


def _cmd_find_params(args) -> tuple:
    params = find_example_params(args.budget, grid=args.grid, seed=args.seed)
    return {"params": params.to_dict(), "budget": args.budget}, True


def _cmd_audit(args) -> tuple:
    norm, germ, path = _norm_and_germ(_load_json(args.config))
    out = {"tolerances": {"ricNonnegTol": args.tol}}
    if args.audit_cmd == "ruled":
        u = _parse_direction(args.direction, germ.n)
        report = audit_ruled(norm, germ, u, tol=args.tol, seed=args.seed)
        out["tolerances"].update(ruledTol=inv.RULED_TOL,
                                 ruledAgreeTol=inv.RULED_AGREE_TOL,
                                 ruledInLTol=inv.RULED_IN_L_TOL)
    else:
        try:
            report = (audit_hypersurface if args.audit_cmd == "hyper" else
                      audit_codim2)(norm, germ, grid=args.grid, tol=args.tol)
        except inv.AuditScopeError as exc:  # a usage error, not a failure
            raise ConfigError(f"{path}/{exc}") from exc
    out.update(report.to_dict())
    return out, report.verdict == "CONSISTENT"


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # every leaf command takes --out; only those with a randomized step
    # take --seed
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="also write the report to this file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized steps (default 0)")
    directions = "direction-grid size (default depends on n)"
    angles = "circle angles before refinement (default %(default)d)"

    parser = argparse.ArgumentParser(
        prog="minksub",
        description="local invariants of submanifold germs in Minkowski "
                    "spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-norm", parents=[seeded],
                       help="validate a norm config")
    p.add_argument("--config", required=True)
    p.add_argument("--min-axis-fraction", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=VALIDATION_SAMPLES,
                   help="sampled directions (default %(default)d)")
    p.set_defaults(handler=_cmd_check_norm)

    p = sub.add_parser("curvature", parents=[common],
                       help="full curvature report at one direction")
    p.add_argument("--config", required=True)
    p.add_argument("--direction", required=True,
                   help="comma-separated tangent components")
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("ricci-grid", parents=[common],
                       help="CSV sweep of curvature reports")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, help=directions)
    p.set_defaults(handler=_cmd_ricci_grid)

    p = sub.add_parser("invariants", parents=[seeded],
                       help="relative nullity, point type, kernel basis")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_invariants)

    pencil_parser = sub.add_parser("pencil", help="symmetric pencil tools")
    pencil_sub = pencil_parser.add_subparsers(dest="pencil_cmd",
                                              required=True)
    p = pencil_sub.add_parser("type", parents=[common])
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_pencil_type)
    p = pencil_sub.add_parser("classify", parents=[seeded])
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_pencil_classify)
    p = pencil_sub.add_parser("common-zero", parents=[seeded])
    p.add_argument("--file", required=True)
    p.add_argument("--budget", type=int, default=pencils.ZERO_SEARCH_BUDGET)
    p.set_defaults(handler=_cmd_pencil_common_zero)

    p = sub.add_parser("verify-example", parents=[seeded],
                       help="reproduce the surface example")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--params",
                        help="JSON file with A, B, eps1, eps2, eps3, C")
    source.add_argument("--auto", action="store_true",
                        help="search the parameter grid first")
    p.add_argument("--budget", type=int,
                   help="search budget of --auto (default "
                        f"{example.SEARCH_BUDGET})")
    p.add_argument("--csv", default=None,
                   help="write per-angle closed-form vs pipeline CSV here")
    p.add_argument("--grid", type=int, default=example.GRID, help=angles)
    p.set_defaults(handler=_cmd_verify_example)

    p = sub.add_parser("find-params", parents=[seeded],
                       help="search the example parameter grid")
    p.add_argument("--budget", type=int, default=example.SEARCH_BUDGET)
    p.add_argument("--grid", type=int, default=example.GRID, help=angles)
    p.set_defaults(handler=_cmd_find_params)

    audit_parser = sub.add_parser("audit", help="proposition auditors")
    audit_sub = audit_parser.add_subparsers(dest="audit_cmd", required=True)
    for name in ("hyper", "codim2", "ruled"):
        p = audit_sub.add_parser(name, parents=[seeded if name == "ruled"
                                                else common])
        p.add_argument("--config", required=True)
        if name == "ruled":
            p.add_argument("--direction", required=True)
        else:
            p.add_argument("--grid", type=int, help=directions)
        p.add_argument("--tol", type=float, default=inv.RIC_NONNEG_TOL,
                       help="Ric >= -tol counts as nonnegative "
                            "(default %(default)g)")
        p.set_defaults(handler=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        min_grid = (example.MIN_GRID
                    if args.command in ("verify-example", "find-params")
                    else 1)
        for flag, least in (("grid", min_grid), ("budget", 1), ("seed", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                parser.error(f"--{flag} must be at least {least}, got {value}")
        if not getattr(args, "auto", True) and args.budget is not None:
            parser.error("--budget needs --auto")
        try:
            inv.check_tol(getattr(args, "tol", 0.0))
        except ValueError as exc:
            parser.error(f"--{exc}")
        if not 0.0 <= getattr(args, "min_axis_fraction", 0.0) < 1.0:
            parser.error("--min-axis-fraction must lie in [0, 1), "
                         f"got {args.min_axis_fraction}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, passed = args.handler(args)
        if isinstance(report, dict):    # JSON, not CSV text
            if "seed" in args:
                report["seed"] = args.seed
            report = _emit_json(report)     # a non-finite field exits 1
        sys.stdout.write(report)
        if args.out:
            Path(args.out).write_text(report)
        return 0 if passed else 1
    except (ConfigError, ConeTooNarrow, pencils.ZeroPencil) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
