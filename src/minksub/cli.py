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


def _norm_section(data) -> NormModel:
    if isinstance(data, dict) and "kind" in data:
        return norm_from_config(data, "")
    return norm_from_config(_require(data, "norm", ""), "/norm")


def _germ_section(data) -> Germ:
    if isinstance(data, dict) and "d2" in data:
        return germ_from_config(data, "")
    return germ_from_config(_require(data, "germ", ""), "/germ")


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


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _emit_json(obj: dict, out: str | None) -> None:
    # numpy arrays and scalars serialize through their tolist()
    _emit(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                     default=lambda x: x.tolist()) + "\n", out)


# -- subcommand handlers ------------------------------------------------------


def _cmd_check_norm(args) -> int:
    norm = _norm_section(_load_json(args.config))
    report = validate_norm(norm, samples=args.grid, seed=args.seed,
                           min_axis_fraction=args.min_axis_fraction)
    out = report.to_dict()
    out["norm"] = norm.to_config()
    _emit_json(out, args.out)
    return 0 if report.valid else 1


def _cmd_curvature(args) -> int:
    data = _load_json(args.config)
    norm = _norm_section(data)
    germ = _germ_section(data)
    u = _parse_direction(args.direction, germ.n)
    with np.errstate(all="ignore"):     # a non-finite field is named
        rep = ricci_expanded(norm, germ, u).require_finite()
    parts = dict(zip(("cubicGroup", "zetaGroup", "etaGroup", "rhoGroup"),
                     rep.ric_parts))
    _emit_json({"u": rep.u, "S": rep.S, "Ric": rep.Ric, "ricParts": parts,
                "g": rep.g, "h": rep.h, "kappa": rep.kappa, "G": rep.G,
                "xi": rep.xi, "zeta": rep.zeta, "eta": rep.eta, "rho": rep.rho,
                "Rik": rep.Rik, "tolerances": {"condLimit": COND_LIMIT}},
               args.out)
    return 0


def _cmd_ricci_grid(args) -> int:
    data = _load_json(args.config)
    norm = _norm_section(data)
    germ = _germ_section(data)
    grid = inv.default_grid(germ.n) if args.grid is None else args.grid
    sweep = ricci_expanded_batch(norm, germ, sphere_grid(germ.n, grid))
    _emit(reports_to_csv(sweep), args.out)
    return 0


def _cmd_invariants(args) -> int:
    germ = _germ_section(_load_json(args.config))
    out = point_invariants(germ, seed=args.seed).to_dict()
    out["seed"] = args.seed
    out["tolerances"] = {"rankTol": inv.RANK_TOL, "eigTol": pencils.EIG_TOL}
    _emit_json(out, args.out)
    return 0


def _cmd_pencil_type(args) -> int:
    pen, _, _ = pencil_from_config(_load_json(args.file))
    _emit_json({"type": pencils.pencil_type(pen), "method": "arcs",
                "tolerances": {"eigTol": pencils.EIG_TOL,
                               "pencilCondLimit": pencils.PENCIL_COND_LIMIT}},
               args.out)
    return 0


def _cmd_pencil_classify(args) -> int:
    pen, _, _ = pencil_from_config(_load_json(args.file))
    # the three calls share the pencil's one reference search
    gen = pencils.genericity_check(pen, args.seed)
    out = {"seed": args.seed, "genericity": gen.to_dict(),
           "spectral": None, "canonical": None, "topology": None,
           "type": pencils.pencil_type(pen), "notes": [],
           "tolerances": {"eigTol": pencils.EIG_TOL,
                          "clusterTol": pencils.CLUSTER_TOL,
                          "canonicalAngleTol": pencils.CANONICAL_ANGLE_TOL,
                          "pencilCondLimit": pencils.PENCIL_COND_LIMIT}}
    try:
        spec = pencils.spectral_split(pen)
    except (pencils.NotSemisimple, pencils.SingularA2) as exc:
        out["notes"].append(f"spectral split unavailable: {exc}")
    else:
        out["spectral"] = {"realPairs": [list(p) for p in spec.real_pairs],
                           "complexPairs": [list(p)
                                            for p in spec.complex_pairs]}
        try:
            canon = pencils.canonical_from_spectral(spec)
            out["canonical"] = {"l": canon.l, "n": list(canon.n),
                                "s": canon.s}
            out["topology"] = pencils.classify_topology(canon).to_dict()
        except ValueError as exc:
            out["notes"].append(f"not at canonical angles: {exc}")
    _emit_json(out, args.out)
    return 0


def _cmd_pencil_common_zero(args) -> int:
    pen, T1, T2 = pencil_from_config(_load_json(args.file))
    point = pencils.common_zero_search(pen.A1, pen.A2, T1, T2,
                                       budget=args.budget, seed=args.seed)
    found = point is not None
    residual = None
    if found:
        vals = pencils._residuals(pen.A1, pen.A2, T1, T2, point)
        residual = float(np.sqrt(vals @ vals))
    _emit_json({"found": found,
                "point": point if found else None,
                "residual": residual,
                "budget": args.budget, "seed": args.seed,
                "tolerances": {"residualSq": pencils.RESIDUAL_SQ}}, args.out)
    return 0 if found else 1


def _cmd_verify_example(args) -> int:
    if args.auto:
        budget = example.SEARCH_BUDGET if args.budget is None else args.budget
        params = find_example_params(budget, grid=args.grid, seed=args.seed)
    else:
        data = _load_json(args.params)
        values = {f.name: _number(data, f.name, "")
                  for f in fields(ExampleParams)}
        try:
            params = ExampleParams(**values)
        except ValueError as exc:   # the message starts with the key
            raise ConfigError(f"/{exc}") from exc
    report = verify_example(params, grid=args.grid, seed=args.seed)
    out = report.to_dict()
    out["seed"] = args.seed
    out["tolerances"] = {"relTol": example.REL_TOL,
                         "gridRefinementRad": example.REFINE_HALF_WIDTH}
    _emit_json(out, args.out)
    if args.csv:
        Path(args.csv).write_text(report.csv_text())
    return 0 if report.verdict == "SUCCESS" else 1


def _cmd_find_params(args) -> int:
    params = find_example_params(args.budget, grid=args.grid, seed=args.seed)
    _emit_json({"params": params.to_dict(), "budget": args.budget,
                "seed": args.seed}, args.out)
    return 0


def _cmd_audit(args) -> int:
    data = _load_json(args.config)
    norm = _norm_section(data)
    germ = _germ_section(data)
    out = {"tolerances": {"ricNonnegTol": args.tol}}
    if args.audit_cmd == "ruled":
        u = _parse_direction(args.direction, germ.n)
        report = audit_ruled(norm, germ, u, tol=args.tol, seed=args.seed)
        out["seed"] = args.seed
        out["tolerances"].update(ruledTol=inv.RULED_TOL,
                                 ruledAgreeTol=inv.RULED_AGREE_TOL,
                                 ruledInLTol=inv.RULED_IN_L_TOL)
    else:
        # a germ of the wrong shape is a usage error, not a failed audit
        path = "" if "d2" in data else "/germ"    # as _germ_section read it
        need_p = 1 if args.audit_cmd == "hyper" else 2
        if germ.p != need_p:
            raise ConfigError(f"{path}/p: audit {args.audit_cmd} needs "
                              f"p = {need_p}, got {germ.p}")
        if need_p == 1 and germ.n < 2:
            raise ConfigError(f"{path}/n: audit hyper needs n >= 2, "
                              f"got {germ.n}")
        report = (audit_hypersurface if args.audit_cmd == "hyper" else
                  audit_codim2)(norm, germ, grid=args.grid, tol=args.tol)
        out["grid"] = {"kind": "circle" if germ.n == 2 else "sobol",
                       "directions": args.grid or inv.default_grid(germ.n)}
    out.update(report.to_dict())
    _emit_json(out, args.out)
    return 0 if report.verdict == "CONSISTENT" else 1


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
        if not 0.0 <= getattr(args, "tol", 0.0) < float("inf"):
            parser.error(f"--tol must be finite and >= 0, got {args.tol}")
        if not 0.0 <= getattr(args, "min_axis_fraction", 0.0) < 1.0:
            parser.error("--min-axis-fraction must lie in [0, 1), "
                         f"got {args.min_axis_fraction}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, ConeTooNarrow, pencils.ZeroPencil) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
