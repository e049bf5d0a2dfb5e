"""Command line interface.

Every command is declared once, in ``_COMMANDS``.  Its handler returns the
document it answers with (a dict, or the SVG text of ``cusp figure``) and
its exit code; ``main`` writes the document to stdout or to ``--output``.
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
    PELL_BOUND,
    CuspData,
    QuadIdeal,
    check_bound,
    cusp_cone,
    fundamental_totally_positive_unit,
)
from .series import Framing, effectivity_check, reframe, reframing_preserves_effectivity


def _emit(path: str | None, document):
    text = document if isinstance(document, str) else formats.canonical_dumps(document)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise SemitoricError(f"{path!r}: {e}") from None


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SemitoricError(f"{path!r}: not valid JSON: {e}") from None
    except OSError as e:
        raise SemitoricError(f"{path!r}: {e}") from None


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


def _cusp_chain(args):
    """The boundary chain of the cusp that the cusp options name."""
    check_bound("pell bound", args.pell_bound)
    check_bound("box limit", args.box_limit)
    D = args.discriminant
    if args.ideal is None:
        ideal = QuadIdeal.maximal_order(D)
    else:
        rows = args.ideal.split(";")
        if len(rows) != 2:
            raise SemitoricError("an ideal takes two generators 'a1,b1;a2,b2'")
        alpha = _parse_pair(rows[0], D)
        beta = _parse_pair(rows[1], D)
        ideal = QuadIdeal(alpha, beta, D)
    if args.unit is None:
        unit = fundamental_totally_positive_unit(D, bound=args.pell_bound)
    else:
        unit = _parse_pair(args.unit, D)
    return hull_vertices(CuspData(ideal, unit), box_limit=args.box_limit)


# -- cusp commands ------------------------------------------------------------------


def cmd_cusp_resolve(args):
    chain = _cusp_chain(args)
    cycle = self_intersections(chain, strict=False)
    return {"chain": formats.dump_chain(chain), "cycle": formats.dump_cycle(cycle)}, 0


def cmd_cusp_fan(args):
    return formats.dump_fan(build_fan(_cusp_chain(args))), 0


def cmd_cusp_figure(args):
    return emit_figure(_cusp_chain(args), args.kind), 0


# -- fan commands -------------------------------------------------------------------


def cmd_fan_validate(args):
    P = formats.load_fan(_read_json(args.file))
    rep = validate_decomposition(P, shell_depth=args.shell)
    return formats.dump_report(rep, witnesses=True), 0 if rep.passed else 1


def cmd_fan_sbb(args):
    if (args.file is None) == (args.discriminant is None):
        raise SemitoricError("sbb needs exactly one of --file and a discriminant")
    if args.file is not None:
        P = formats.load_fan(_read_json(args.file))
        support, group = P.support, P.group
    else:
        check_bound("pell bound", args.pell_bound)
        cusp = CuspData.standard(args.discriminant, bound=args.pell_bound)
        support = Support(
            cusp_cone(cusp.ideal).closure(), interior_only=True, include_origin=False
        )
        group = (GroupElement(cusp.unit_action()),)
    return formats.dump_fan(sbb_decomposition(support, group)), 0


def cmd_fan_mumford(args):
    P = formats.load_fan(_read_json(args.file))
    verdict = is_mumford_type(P)
    return {"mumford_type": verdict}, 0 if verdict else 1


def cmd_fan_strata(args):
    P = formats.load_fan(_read_json(args.file))
    out = [
        {
            "generators": [formats.dump_vector(g) for g in s.cone.generators],
            "complex_dim": s.complex_dim,
            "torus_dim": s.torus_dim,
        }
        for s in strata(P)
    ]
    return {"strata": out}, 0


def cmd_fan_refines(args):
    fine = formats.load_fan(_read_json(args.fine))
    coarse = formats.load_fan(_read_json(args.coarse))
    verdict = is_refinement(fine, coarse)
    return {"refines": verdict}, 0 if verdict else 1


def cmd_fan_common(args):
    a = formats.load_fan(_read_json(args.first))
    b = formats.load_fan(_read_json(args.second))
    return formats.dump_fan(common_refinement(a, b)), 0


# -- atlas commands -----------------------------------------------------------------


def cmd_atlas_from_fan(args):
    P = formats.load_fan(_read_json(args.file))
    return formats.dump_atlas(atlas_from_fan(P)), 0


def cmd_atlas_check(args):
    atlas = formats.load_atlas(_read_json(args.file))
    rep = compatibility_check(atlas)
    return formats.dump_report(rep), 0 if rep.passed else 1


def cmd_atlas_reconstruct(args):
    atlas = formats.load_atlas(_read_json(args.file))
    rec = reconstruct(atlas)
    return {
        **formats.dump_lattice(rec.lattice),
        "support": formats.dump_support(rec.support),
        "fan": formats.dump_fan(rec.decomposition),
    }, 0


def cmd_atlas_witness(args):
    return formats.dump_nondescent_witness(nondescent_witness(args.order)), 0


# -- monodromy commands --------------------------------------------------------------


def cmd_monodromy_check(args):
    data = formats.load_monodromy(_read_json(args.file))
    rep = is_maximally_unipotent(
        data["operators"], weight=data["weight"], draws=args.draws, seed=args.seed
    )
    return formats.dump_report(rep), 0 if rep.passed else 1


def cmd_monodromy_coords(args):
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
    return formats.dump_coordinates(qc), 0 if not qc.degenerate else 1


# -- series commands -------------------------------------------------------------------


def cmd_series_reframe(args):
    s = formats.load_series(_read_json(args.file))
    M = _parse_int_matrix(args.matrix)
    return formats.dump_series(reframe(s, M)), 0


def cmd_series_check(args):
    s = formats.load_series(_read_json(args.file))
    framing = None if args.framing is None else Framing(_parse_int_matrix(args.framing))
    rep = effectivity_check(s, framing)
    out = {"effective": rep.passed, "witness": list(rep.witness) if rep.witness else None}
    if args.matrix is not None:
        M = _parse_int_matrix(args.matrix)
        if M.nrows != s.rank:
            raise SemitoricError("framing change has the wrong rank")
        pres = reframing_preserves_effectivity(M, framing)
        out["reframing_preserves_effectivity"] = pres.passed
        out["reframing_witness"] = list(pres.witness) if pres.witness else None
        rep.conditions += pres.conditions
    return out, 0 if rep.passed else 1


# -- parser ------------------------------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


_FILE = _arg("file")
_PELL_BOUND = _arg("--pell-bound", type=int, default=PELL_BOUND,
                   help="largest sqrt(D) coefficient (times 2 when D = 1 mod 4) "
                   "of the fundamental unit")
_CUSP = (
    _arg("-D", "--discriminant", type=int, required=True,
         help="squarefree discriminant of the real quadratic field"),
    _arg("--ideal", help="module generators 'a1,b1;a2,b2' as a+b*sqrt(D)"),
    _arg("--unit", help="totally positive unit 'a,b' fixing the module"),
    _PELL_BOUND,
    _arg("--box-limit", type=int,
         help="largest |coordinate| a chain vertex may take (default: no limit)"),
)

# (group, help, commands); a command is (name, help, handler, its arguments),
# and every command also takes --output.
_COMMANDS = (
    ("cusp", "cusp cross-section geometry", (
        ("resolve", "boundary chain and resolution cycle", cmd_cusp_resolve, _CUSP),
        ("fan", "decomposition induced by the chain", cmd_cusp_fan, _CUSP),
        ("figure", "SVG picture of the hull or the cycle", cmd_cusp_figure,
         _CUSP + (_arg("--kind", choices=("hull", "cycle"), default="hull"),)),
    )),
    ("fan", "cone decompositions", (
        ("validate", "check the decomposition conditions", cmd_fan_validate,
         (_FILE, _arg("--shell", type=int, default=1))),
        ("sbb", "face decomposition of a support", cmd_fan_sbb, (
            _arg("--file", help="fan file whose support and group to reuse"),
            _arg("-D", "--discriminant", type=int,
                 help="use the cusp cone of this discriminant as support"),
            _PELL_BOUND,
        )),
        ("mumford", "are all members unimodular", cmd_fan_mumford, (_FILE,)),
        ("strata", "boundary strata by dimension", cmd_fan_strata, (_FILE,)),
        ("refines", "does the first fan refine the second", cmd_fan_refines,
         (_arg("fine"), _arg("coarse"))),
        ("common", "common refinement of two fans", cmd_fan_common,
         (_arg("first"), _arg("second"))),
    )),
    ("atlas", "boundary atlases for flat connections", (
        ("from-fan", "atlas of a full-dimensional fan", cmd_atlas_from_fan, (_FILE,)),
        ("check", "compatibility of the local data", cmd_atlas_check, (_FILE,)),
        ("reconstruct", "lattice, support and fan of a compatible atlas",
         cmd_atlas_reconstruct, (_FILE,)),
        ("witness", "model computation behind the compatibility conditions",
         cmd_atlas_witness, (_arg("--order", type=int, default=4),)),
    )),
    ("monodromy", "unipotency and canonical coordinates", (
        ("check", "maximal unipotency test", cmd_monodromy_check,
         (_FILE, _arg("--draws", type=int, default=20), _arg("--seed", type=int, default=7))),
        ("coords", "quasi-canonical coordinates", cmd_monodromy_coords,
         (_FILE, _arg("--order", type=int, default=6))),
    )),
    ("series", "instanton series and framings", (
        ("reframe", "apply a framing change", cmd_series_reframe,
         (_FILE, _arg("--matrix", required=True, help="unimodular matrix 'a,b;c,d'"))),
        ("check", "effectivity, optionally under a reframing", cmd_series_check, (
            _FILE,
            _arg("--framing", help="framing basis 'a,b;c,d'"),
            _arg("--matrix", help="also test this framing change"),
        )),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitoric",
        description="exact cusp resolutions, cone decompositions, flat boundary "
        "atlases, monodromy weight data and instanton series",
    )
    groups = parser.add_subparsers(dest="command", required=True)
    for group, group_help, commands in _COMMANDS:
        sub = groups.add_parser(group, help=group_help)
        leaves = sub.add_subparsers(dest="subcommand", required=True)
        for name, command_help, handler, arguments in commands:
            p = leaves.add_parser(name, help=command_help)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.add_argument("--output", help="write to this file instead of stdout")
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse ends --help with 0 and a bad flag with 2
        return e.code
    try:
        document, code = args.func(args)
        _emit(args.output, document)
        return code
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
