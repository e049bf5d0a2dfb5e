"""Command line interface.

Exit codes: 0 success (and positive verdicts), 1 negative mathematical
verdict, 2 malformed input, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formats
from .connection import (
    atlas_from_fan,
    compatibility_check,
    nondescent_witness,
    reconstruct,
)
from .cusp import build_fan, emit_figure, hull_vertices, self_intersections
from .errors import ResourceBoundError, SemitoricError
from .fans import (
    GroupElement,
    Support,
    common_refinement,
    is_mumford_type,
    is_refinement,
    sbb_decomposition,
    strata,
    validate_decomposition,
)
from .lattice import ExactScalar, IntMatrix
from .monodromy import is_maximally_unipotent, quasi_canonical_coordinates
from .quadfield import (
    CuspData,
    QuadIdeal,
    cusp_cone,
    fundamental_totally_positive_unit,
)
from .series import Framing, effectivity_check, reframe, reframing_preserves_effectivity


def _emit(args, text: str):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise SemitoricError(f"{args.output}: {e}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, formats.canonical_dumps(obj))


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SemitoricError(f"{path}: not valid JSON: {e}") from None
    except OSError as e:
        raise SemitoricError(f"{path}: {e}") from None


def _parse_pair(text: str, D: int) -> ExactScalar:
    parts = text.split(",")
    if len(parts) != 2:
        raise SemitoricError(f"expected 'a,b' for a + b*sqrt(D), got {text!r}")
    try:
        a, b = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as e:
        raise SemitoricError(f"bad scalar {text!r}: {e}") from None
    return ExactScalar(a, b, D if b != 0 else None)


def _parse_int_matrix(text: str) -> IntMatrix:
    try:
        rows = tuple(
            tuple(int(x) for x in row.split(",")) for row in text.split(";")
        )
        return IntMatrix(rows)
    except ValueError as e:
        raise SemitoricError(f"bad matrix {text!r}: {e}") from None


def _cusp_from_args(args) -> CuspData:
    D = args.discriminant
    if args.ideal:
        rows = args.ideal.split(";")
        if len(rows) != 2:
            raise SemitoricError("an ideal takes two generators 'a1,b1;a2,b2'")
        alpha = _parse_pair(rows[0], D)
        beta = _parse_pair(rows[1], D)
        ideal = QuadIdeal(alpha, beta, D)
    else:
        ideal = QuadIdeal.maximal_order(D)
    if args.unit:
        unit = _parse_pair(args.unit, D)
    else:
        unit = fundamental_totally_positive_unit(D, bound=args.pell_bound)
    return CuspData(ideal, unit)


# -- cusp commands ------------------------------------------------------------------


def cmd_cusp_resolve(args) -> int:
    cusp = _cusp_from_args(args)
    chain = hull_vertices(cusp, box_limit=args.box_limit)
    cycle = self_intersections(chain, strict=False)
    _emit_json(
        args,
        {"chain": formats.dump_chain(chain), "cycle": formats.dump_cycle(cycle)},
    )
    return 0


def cmd_cusp_fan(args) -> int:
    cusp = _cusp_from_args(args)
    chain = hull_vertices(cusp, box_limit=args.box_limit)
    _emit_json(args, formats.dump_fan(build_fan(chain)))
    return 0


def cmd_cusp_figure(args) -> int:
    cusp = _cusp_from_args(args)
    chain = hull_vertices(cusp, box_limit=args.box_limit)
    obj = chain if args.kind == "hull" else self_intersections(chain, strict=False)
    _emit(args, emit_figure(obj, args.kind))
    return 0


# -- fan commands -------------------------------------------------------------------


def cmd_fan_validate(args) -> int:
    P = formats.load_fan(_read_json(args.file))
    rep = validate_decomposition(P, shell_depth=args.shell)
    _emit_json(args, formats.dump_report(rep, witnesses=True))
    return 0 if rep.passed else 1


def cmd_fan_sbb(args) -> int:
    if args.file:
        P = formats.load_fan(_read_json(args.file))
        support, group = P.support, P.group
    elif args.discriminant:
        cusp = CuspData.standard(args.discriminant, bound=args.pell_bound)
        support = Support(
            cusp_cone(cusp.ideal).closure(), interior_only=True, include_origin=False
        )
        group = (GroupElement(cusp.unit_action()),)
    else:
        raise SemitoricError("sbb needs either --file or a discriminant")
    _emit_json(args, formats.dump_fan(sbb_decomposition(support, group)))
    return 0


def cmd_fan_mumford(args) -> int:
    P = formats.load_fan(_read_json(args.file))
    verdict = is_mumford_type(P)
    _emit_json(args, {"mumford_type": verdict})
    return 0 if verdict else 1


def cmd_fan_strata(args) -> int:
    P = formats.load_fan(_read_json(args.file))
    out = [
        {
            "generators": [formats.dump_vector(g) for g in s.cone.generators],
            "complex_dim": s.complex_dim,
            "torus_dim": s.torus_dim,
        }
        for s in strata(P)
    ]
    _emit_json(args, {"strata": out})
    return 0


def cmd_fan_refines(args) -> int:
    fine = formats.load_fan(_read_json(args.fine))
    coarse = formats.load_fan(_read_json(args.coarse))
    verdict = is_refinement(fine, coarse)
    _emit_json(args, {"refines": verdict})
    return 0 if verdict else 1


def cmd_fan_common(args) -> int:
    a = formats.load_fan(_read_json(args.first))
    b = formats.load_fan(_read_json(args.second))
    _emit_json(args, formats.dump_fan(common_refinement(a, b)))
    return 0


# -- atlas commands -----------------------------------------------------------------


def cmd_atlas_from_fan(args) -> int:
    P = formats.load_fan(_read_json(args.file))
    _emit_json(args, formats.dump_atlas(atlas_from_fan(P)))
    return 0


def cmd_atlas_check(args) -> int:
    atlas = formats.load_atlas(_read_json(args.file))
    rep = compatibility_check(atlas)
    _emit_json(args, formats.dump_report(rep))
    return 0 if rep.passed else 1


def cmd_atlas_reconstruct(args) -> int:
    atlas = formats.load_atlas(_read_json(args.file))
    rec = reconstruct(atlas)
    _emit_json(
        args,
        {
            **formats.dump_lattice(rec.lattice),
            "support": formats.dump_support(rec.support),
            "fan": formats.dump_fan(rec.decomposition),
        },
    )
    return 0


def cmd_atlas_witness(args) -> int:
    _emit_json(args, formats.dump_nondescent_witness(nondescent_witness(args.order)))
    return 0


# -- monodromy commands --------------------------------------------------------------


def cmd_monodromy_check(args) -> int:
    data = formats.load_monodromy(_read_json(args.file))
    rep = is_maximally_unipotent(
        data["operators"], weight=data["weight"], draws=args.draws, seed=args.seed
    )
    _emit_json(args, formats.dump_report(rep))
    return 0 if rep.passed else 1


def cmd_monodromy_coords(args) -> int:
    data = formats.load_monodromy(_read_json(args.file))
    if data["pairing"] is None or data["omega0"] is None:
        raise SemitoricError("coordinates need both 'pairing' and 'omega0'")
    qc = quasi_canonical_coordinates(
        data["operators"],
        data["pairing"],
        data["omega0"],
        basis=data["basis"],
        order=args.order,
    )
    _emit_json(args, formats.dump_coordinates(qc))
    return 0 if not qc.degenerate else 1


# -- series commands -------------------------------------------------------------------


def cmd_series_reframe(args) -> int:
    s = formats.load_series(_read_json(args.file))
    M = _parse_int_matrix(args.matrix)
    _emit_json(args, formats.dump_series(reframe(s, M)))
    return 0


def cmd_series_check(args) -> int:
    s = formats.load_series(_read_json(args.file))
    framing = Framing(_parse_int_matrix(args.framing)) if args.framing else None
    rep = effectivity_check(s, framing)
    out = {"effective": rep.passed, "witness": list(rep.witness) if rep.witness else None}
    if args.matrix:
        M = _parse_int_matrix(args.matrix)
        if M.nrows != s.rank:
            raise SemitoricError("framing change has the wrong rank")
        pres = reframing_preserves_effectivity(M, framing)
        out["reframing_preserves_effectivity"] = pres.passed
        out["reframing_witness"] = list(pres.witness) if pres.witness else None
        rep.conditions += pres.conditions
    _emit_json(args, out)
    return 0 if rep.passed else 1


# -- parser ------------------------------------------------------------------------------


def _add_pell_bound(p: argparse.ArgumentParser):
    p.add_argument("--pell-bound", type=int, default=10**8,
                   help="largest sqrt(D) coefficient (times 2 when D = 1 mod 4) "
                   "of the fundamental unit")


def _add_cusp_options(p: argparse.ArgumentParser):
    p.add_argument("-D", "--discriminant", type=int, required=True,
                   help="squarefree discriminant of the real quadratic field")
    p.add_argument("--ideal", help="module generators 'a1,b1;a2,b2' as a+b*sqrt(D)")
    p.add_argument("--unit", help="totally positive unit 'a,b' fixing the module")
    _add_pell_bound(p)
    p.add_argument("--box-limit", type=int, default=None,
                   help="largest |coordinate| a chain vertex may take (default: no limit)")
    p.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitoric",
        description="exact cusp resolutions, cone decompositions, flat boundary "
        "atlases, monodromy weight data and instanton series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cusp = sub.add_parser("cusp", help="cusp cross-section geometry")
    cusp_sub = cusp.add_subparsers(dest="subcommand", required=True)
    p = cusp_sub.add_parser("resolve", help="boundary chain and resolution cycle")
    _add_cusp_options(p)
    p.set_defaults(func=cmd_cusp_resolve)
    p = cusp_sub.add_parser("fan", help="decomposition induced by the chain")
    _add_cusp_options(p)
    p.set_defaults(func=cmd_cusp_fan)
    p = cusp_sub.add_parser("figure", help="SVG picture of the hull or the cycle")
    _add_cusp_options(p)
    p.add_argument("--kind", choices=("hull", "cycle"), default="hull")
    p.set_defaults(func=cmd_cusp_figure)

    fan = sub.add_parser("fan", help="cone decompositions")
    fan_sub = fan.add_subparsers(dest="subcommand", required=True)
    p = fan_sub.add_parser("validate", help="check the decomposition conditions")
    p.add_argument("file")
    p.add_argument("--shell", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_fan_validate)
    p = fan_sub.add_parser("sbb", help="face decomposition of a support")
    p.add_argument("--file", help="fan file whose support and group to reuse")
    p.add_argument("-D", "--discriminant", type=int,
                   help="use the cusp cone of this discriminant as support")
    _add_pell_bound(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_fan_sbb)
    p = fan_sub.add_parser("mumford", help="are all members unimodular")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fan_mumford)
    p = fan_sub.add_parser("strata", help="boundary strata by dimension")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fan_strata)
    p = fan_sub.add_parser("refines", help="does the first fan refine the second")
    p.add_argument("fine")
    p.add_argument("coarse")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fan_refines)
    p = fan_sub.add_parser("common", help="common refinement of two fans")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fan_common)

    atlas = sub.add_parser("atlas", help="boundary atlases for flat connections")
    atlas_sub = atlas.add_subparsers(dest="subcommand", required=True)
    p = atlas_sub.add_parser("from-fan", help="atlas of a full-dimensional fan")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_atlas_from_fan)
    p = atlas_sub.add_parser("check", help="compatibility of the local data")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_atlas_check)
    p = atlas_sub.add_parser("reconstruct", help="lattice, support and fan of a compatible atlas")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_atlas_reconstruct)
    p = atlas_sub.add_parser("witness", help="model computation behind the compatibility conditions")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--output")
    p.set_defaults(func=cmd_atlas_witness)

    mono = sub.add_parser("monodromy", help="unipotency and canonical coordinates")
    mono_sub = mono.add_subparsers(dest="subcommand", required=True)
    p = mono_sub.add_parser("check", help="maximal unipotency test")
    p.add_argument("file")
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output")
    p.set_defaults(func=cmd_monodromy_check)
    p = mono_sub.add_parser("coords", help="quasi-canonical coordinates")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--output")
    p.set_defaults(func=cmd_monodromy_coords)

    ser = sub.add_parser("series", help="instanton series and framings")
    ser_sub = ser.add_subparsers(dest="subcommand", required=True)
    p = ser_sub.add_parser("reframe", help="apply a framing change")
    p.add_argument("file")
    p.add_argument("--matrix", required=True, help="unimodular matrix 'a,b;c,d'")
    p.add_argument("--output")
    p.set_defaults(func=cmd_series_reframe)
    p = ser_sub.add_parser("check", help="effectivity, optionally under a reframing")
    p.add_argument("file")
    p.add_argument("--framing", help="framing basis 'a,b;c,d'")
    p.add_argument("--matrix", help="also test this framing change")
    p.add_argument("--output")
    p.set_defaults(func=cmd_series_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse ends --help with 0 and a bad flag with 2
        return e.code
    try:
        return args.func(args)
    except ResourceBoundError as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return 3
    except SemitoricError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
