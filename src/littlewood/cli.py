"""Command-line surface.

Every public operation is reachable through exactly one subcommand.  Output
is plain text by default; --format json emits exactly one JSON document on
stdout.  Exit codes: 0 success or verification pass, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .acceptance import criterion_ids, run_all, run_criterion
from .bott import SPIN_FAMILIES, SPINOR_FAMILIES, bott, spin_cohomology
from .characters import (
    CoordSystem,
    Weight,
    build_root_system,
    Character,
    decompose_character,
    dim_irrep,
    schur_character,
    weight_multiplicities,
)
from .complexes import (
    LITTLEWOOD_FAMILIES,
    branch_gl_to_iso,
    bracket_weight,
    littlewood_complex,
    parse_case,
    spinor_complex,
    verify_littlewood_identity,
    verify_spinor_identity,
)
from .errors import LittlewoodError
from .partitions import (
    FORMS,
    Q_FORMS,
    Q_VARIANTS,
    Partition,
    check_q_size,
    enumerate_q,
    in_q,
    lr_coefficient,
    plethysm_wedge_power,
    skew_schur_expand,
    dim_schur,
)
from .resolutions import (
    AUDITS,
    G2_Y2_BETTI_CHAR2,
    BettiTable,
    betti_of,
    cauchy_slice,
    g2_equivariant_resolution,
    hilbert_numerator,
    koszul_complex,
    koszul_terms,
    label_dimension,
    run_audit,
)


def parse_partition(text: str) -> Partition:
    if text.strip() in ("", "-"):
        return Partition()
    try:
        return Partition(int(x) for x in text.split(","))
    except ValueError:  # a part that is no int, a part above the one before it, or a negative part
        raise LittlewoodError(
            f"parse_partition: {text!r} is not a partition; expected weakly decreasing comma-separated integers >= 0, or - for the empty one"
        ) from None


def parse_type(text: str):
    name = text.strip()
    try:
        return name[0].upper(), int(name[1:])
    except (IndexError, ValueError):  # empty, or no int after the family letter
        raise LittlewoodError(f"parse_type: {text!r} is not a type; expected a family letter then a rank, e.g. G2") from None


def parse_half(text: str) -> int:
    """Twice a coordinate written as an integer or as n/2: "3/2" -> 3."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if den.strip() != "2":
            raise LittlewoodError(f"not a half-integer: {text}")
        return int(num)
    return 2 * int(text)


def parse_weight(text: str, family: str, rank: int) -> Weight:
    prefix, colon, coords = text.strip().partition(":")
    try:
        kind = {"fund": "fundamental", "eps": "epsilon"}[prefix] if colon else "fundamental"
        twice = tuple(parse_half(x) for x in (coords if colon else prefix).split(","))
    except (KeyError, ValueError):  # an unknown prefix, a coordinate that is no int, or two slashes
        raise LittlewoodError(
            f"parse_weight: {text!r} is not a weight; expected an optional fund: or eps: prefix, "
            "then comma-separated coordinates, each an integer or n/2"
        ) from None
    return Weight(CoordSystem(kind, family, rank), twice)


def weight_from_key(text: str) -> Weight:
    try:
        kind, name, coords = text.split(":")
        family, rank = parse_type(name)
    except (ValueError, LittlewoodError):  # not three fields, or no type in the middle one
        raise LittlewoodError(
            f"weight_from_key: {text!r} is not a weight key; expected <fund|eps>:<type>:<coordinates>, e.g. fund:G2:1,0"
        ) from None
    return parse_weight(f"{kind}:{coords}", family, rank)


def _named_betti(name: str) -> BettiTable:
    if name in AUDITS:
        return run_audit(name).betti
    if name == "g2-y2-char2":
        return G2_Y2_BETTI_CHAR2
    if name.startswith("koszul:"):
        try:
            _, form, m = name.split(":")
            m = int(m)
        except ValueError:  # too few or too many fields, or an m that is no int
            raise LittlewoodError(f"betti table {name!r} is not of the form koszul:<{'|'.join(FORMS)}>:<m>") from None
        return betti_of(koszul_complex(form, m), lambda lam: dim_schur(lam, m))
    raise LittlewoodError(f"unknown betti table {name!r}")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, payload, text_lines)


def _decomposition(build):
    """The handler that prints the decomposition build(args)."""
    def handler(args):
        dec = build(args)
        return 0, dec.to_json(), [repr(dec)]
    return handler


def _term_list(letter, build):
    """The handler that prints one `<letter>_i(-d): content` line per term of build(args)."""
    def handler(args):
        terms = build(args)
        return 0, [t.to_json() for t in terms], [f"{letter}_{t.index}(-{t.degree}): {t.content!r}" for t in terms]
    return handler


def _verdict(passed, payload, lines):
    return (0 if passed else 1), payload, lines


def _type_weight(type_text, weight_text):
    """The root system of a type, and a weight on it (None without weight text)."""
    family, rank = parse_type(type_text)
    rs = build_root_system(family, rank)
    return rs, None if weight_text is None else parse_weight(weight_text, family, rank)


def _cmd_bott(args):
    if args.spin:
        lam = parse_partition(args.lam or "")
        if args.n is None:
            raise LittlewoodError(f"bott --spin {args.spin} needs --n, the rank")
        out = spin_cohomology(args.spin, args.n, lam)
    elif not args.type or not args.weight:
        raise LittlewoodError("bott needs --type/--weight, or --spin with --n/--lambda")
    else:
        out = bott(*_type_weight(args.type, args.weight))
    piece = out.label if args.spin else out.weight
    return 0, out.to_json(), ["vanishes" if out.vanishes else f"degree {out.degree}: {piece}"]


def _cmd_dim(args):
    d = dim_irrep(*_type_weight(args.type, args.weight))
    return 0, {"dim": d}, [str(d)]


def _cmd_mults(args):
    rs, weight = _type_weight(args.type, args.weight)
    char = weight_multiplicities(rs, weight, bound=args.bound)
    lines = [f"{rs.weight(fc)}: {m}" for fc, m in char.sorted_items()]
    lines.append(f"total {char.dimension()}")
    return 0, char.to_json(), lines


def _cmd_decompose(args):
    rs, weight = _type_weight(args.type, None if args.input else args.weight)
    if args.input:
        try:
            data = json.loads(sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise LittlewoodError(f"decompose --input {args.input}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
        except json.JSONDecodeError as exc:
            raise LittlewoodError(f"decompose --input {args.input}: not JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise LittlewoodError(
                f"decompose --input {args.input}: the document is not a character; expected a JSON object of weight keys to integer multiplicities"
            )
        for key, mult in data.items():
            if not isinstance(mult, int):
                raise LittlewoodError(f"decompose --input {args.input}: {mult!r} at {key!r} is not a multiplicity; expected an integer")

        def coords(key):
            w = weight_from_key(key)
            if (w.system.family, w.system.rank) != (rs.family, rs.rank):
                raise LittlewoodError(f"decompose --input {args.input}: the weight key {key!r} is of type {w.system.family}{w.system.rank}, not --type {args.type}")
            return w.fund_coords()

        dec = decompose_character(rs, Character(rs, ((coords(key), mult) for key, mult in data.items())))
    elif weight is None:
        raise LittlewoodError("decompose needs --weight (plus optional --schur) or --input")
    elif args.schur:
        dec = schur_character(rs, weight, parse_partition(args.schur))
    else:
        dec = decompose_character(rs, weight_multiplicities(rs, weight))
    return 0, dec.to_json(), [f"{w}: {m}" for w, m in dec.sorted_items()]


def _cmd_lr(args):
    c = lr_coefficient(parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu))
    return 0, {"coefficient": c}, [str(c)]


def _cmd_qset(args):
    if args.check is not None:
        lam = parse_partition(args.check)
        payload = {
            "partition": lam.to_json(),
            "member": in_q(lam, args.variant),
            "transpose": lam.transpose().to_json(),
            "rank": lam.rank,
        }
        line = f"{lam} in Q[{args.variant}]: {payload['member']} (transpose {lam.transpose()}, rank {lam.rank})"
        return 0, payload, [line]
    if args.size is None:
        raise LittlewoodError("qset needs --size or --check")
    if args.oracle:
        check_q_size(args.size)
        # The longest minus member is the hook (size/2, 1^(size/2)); the
        # longest plus member is its transpose.
        rows = args.size // 2 + (args.variant == "minus" and args.size > 0)
        if args.dim_e < rows:
            raise LittlewoodError(
                f"qset --oracle at size {args.size}: --dim-e {args.dim_e} is below the {rows} rows "
                f"the longest {args.variant} member needs"
            )
        dec = plethysm_wedge_power(args.size // 2, Q_FORMS[args.variant], args.dim_e)
        members = sorted(dec.support(), key=lambda p: p.parts)
    else:
        members = enumerate_q(args.variant, args.size)
    return 0, [p.to_json() for p in members], [str(p) for p in members]


def _cmd_verify_lwood(args):
    report = verify_littlewood_identity(args.family, parse_partition(args.lam), args.n, oracle=args.oracle)
    return _verdict(report.passed, report.to_json(), [f"{'pass' if report.passed else 'FAIL'}: {report.case}"])


def _cmd_verify_spinor(args):
    report = verify_spinor_identity(args.family, args.n, parse_partition(args.lam))
    line = f"{'pass' if report.passed else 'FAIL'}: {report.case} ({report.lhs} = {report.rhs})"
    return _verdict(report.passed, report.to_json(), [line])


def _cmd_bracket(args):
    w = bracket_weight(parse_case(args.case), parse_partition(args.lam))
    return 0, w.to_json(), [str(w)]


def _cmd_slice(args):
    case = parse_case(args.case)
    dec = cauchy_slice(case, args.degree)
    total = dec.total(label_dimension(case))
    return 0, {"content": dec.to_json(), "dimension": total}, [repr(dec), f"dimension {total}"]


def _cmd_betti(args):
    table = _named_betti(args.case)
    # the stated characteristic-2 table is its text in JSON as well
    payload = {"table": table.render()} if args.case == "g2-y2-char2" else table.to_json()
    return 0, payload, [table.render()]


def _cmd_hilbert(args):
    table = _named_betti(args.case)
    if table.ambient_dim is None:
        raise LittlewoodError(f"hilbert --case {args.case}: the table has no ambient dimension to fix the Krull dimension")
    hd = hilbert_numerator(table, args.codim)
    return 0, hd.to_json(), [hd.numerator_str(), f"krull dim {hd.krull_dim}"]


def _cmd_audit(args):
    report = run_audit(args.case)
    lines = [f"F_{r.index}: {r.computed} (expected {r.expected}: {'ok' if r.passed else 'MISMATCH'})" for r in report.rows]
    lines.append("pass" if report.passed else "FAIL")
    return _verdict(report.passed, report.to_json(), lines)


def _cmd_suite(args):
    results = [run_criterion(args.name)] if args.name else run_all()
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append("all criteria pass" if ok else "FAILURES present")
    return _verdict(ok, [r.to_json() for r in results], lines)


_cmd_skew = _decomposition(lambda args: skew_schur_expand(parse_partition(args.outer), parse_partition(args.inner)))
_cmd_pleth = _decomposition(lambda args: plethysm_wedge_power(args.k, args.form, args.dim_e))
_cmd_branch = _decomposition(lambda args: branch_gl_to_iso(parse_partition(args.lam), args.target, oracle=args.oracle))
_cmd_koszul = _decomposition(lambda args: koszul_terms(args.form, args.m, args.i))
_cmd_lwood = _term_list("C", lambda args: littlewood_complex(args.family, parse_partition(args.lam)))
_cmd_spinor = _term_list("F", lambda args: spinor_complex(args.family, args.n))
_cmd_g2_resolution = _term_list("F", lambda args: g2_equivariant_resolution())


# ---------------------------------------------------------------------------
# the subcommand table: (name, handler, help, arguments), each argument a flag
# and its add_argument keywords; every subcommand also takes --format

_TYPE = ("--type", {"help": "root system, e.g. G2, B3, E6"})
_WEIGHT = ("--weight", {"help": "coords, e.g. 1,0 or eps:3/2,1/2"})
_TYPE_WEIGHT = [(flag, {**kwargs, "required": True}) for flag, kwargs in (_TYPE, _WEIGHT)]
_LAMBDA = ("--lambda", {"dest": "lam", "required": True})
_FORM = ("--form", {"choices": FORMS, "required": True})
_N = ("--n", {"type": int, "required": True})
_LITTLEWOOD_FAMILY = ("--family", {"choices": LITTLEWOOD_FAMILIES, "required": True})
_SPINOR_FAMILY = ("--family", {"choices": SPINOR_FAMILIES, "required": True})
# A cut resolution is refused at every codimension, so hilbert does not offer it.
_WHOLE = sorted(name for name, spec in AUDITS.items() if spec.cut is None)

SUBCOMMANDS = (
    ("bott", _cmd_bott, "cohomology of an equivariant line bundle", [
        _TYPE,
        _WEIGHT,
        ("--spin", {"choices": SPIN_FAMILIES, "help": "closed-form spinor-twist cohomology instead of a walk"}),
        ("--n", {"type": int, "help": "rank for --spin"}),
        ("--lambda", {"dest": "lam", "help": "shape for --spin"})]),
    ("dim", _cmd_dim, "Weyl dimension of an irreducible", _TYPE_WEIGHT),
    ("mults", _cmd_mults, "weight multiplicities of an irreducible", [
        *_TYPE_WEIGHT,
        ("--bound", {"type": int, "default": None, "help": "dimension guard override"})]),
    ("decompose", _cmd_decompose, "decompose a character into irreducibles", [
        ("--type", {"required": True}),
        ("--weight", {"help": "highest weight of the base character"}),
        ("--schur", {"help": "apply this Schur functor to the base first"}),
        ("--input", {"help": "JSON character file, or - for stdin"})]),
    ("lr", _cmd_lr, "Littlewood-Richardson coefficient", [
        _LAMBDA,
        ("--mu", {"required": True}),
        ("--nu", {"required": True})]),
    ("skew", _cmd_skew, "skew Schur expansion", [
        ("--outer", {"required": True}),
        ("--inner", {"required": True})]),
    ("qset", _cmd_qset, "partitions of a given size in a Q-set", [
        ("--variant", {"choices": Q_VARIANTS, "required": True}),
        ("--size", {"type": int, "default": None}),
        ("--check", {"default": None, "help": "report membership, transpose, and rank of one shape"}),
        ("--oracle", {"action": "store_true", "help": "recompute through the plethysm oracle"}),
        ("--dim-e", {"type": int, "default": 6})]),
    ("pleth", _cmd_pleth, "Schur expansion of an exterior power of a quadric space", [
        ("--k", {"type": int, "required": True}),
        _FORM,
        ("--dim-e", {"type": int, "required": True})]),
    ("branch", _cmd_branch, "restrict a GL Schur functor to an isometry group", [
        _LAMBDA,
        ("--target", {"required": True, "help": "sp:2n or o:m"}),
        ("--oracle", {"action": "store_true", "help": "use the character oracle"})]),
    ("lwood", _cmd_lwood, "terms of a Littlewood complex", [
        _LITTLEWOOD_FAMILY,
        _LAMBDA]),
    ("verify-lwood", _cmd_verify_lwood, "Euler identity of a Littlewood complex", [
        _LITTLEWOOD_FAMILY,
        _LAMBDA,
        _N,
        ("--oracle", {"action": "store_true"})]),
    ("spinor", _cmd_spinor, "terms of a spinor complex", [
        _SPINOR_FAMILY,
        _N]),
    ("verify-spinor", _cmd_verify_spinor, "dimension Euler identity of a spinor complex", [
        _SPINOR_FAMILY,
        _N,
        _LAMBDA]),
    ("bracket", _cmd_bracket, "bracket weight of a shape", [
        ("--case", {"required": True, "help": "G2, F4_3, E6_5, SpC(3), OD(4), ..."}),
        _LAMBDA]),
    ("koszul", _cmd_koszul, "Schur constituents of a Koszul term", [
        _FORM,
        ("--m", {"type": int, "required": True}),
        ("--i", {"type": int, "required": True})]),
    ("slice", _cmd_slice, "coordinate-ring degree slice with exact dimension", [
        ("--case", {"required": True}),
        ("--degree", {"type": int, "required": True})]),
    ("g2-resolution", _cmd_g2_resolution, "reconstructed equivariant resolution terms", []),
    ("betti", _cmd_betti, "render a graded Betti table", [
        ("--case", {"required": True, "help": f"one of {', '.join(sorted(AUDITS))}, g2-y2-char2, koszul:<form>:<m>"})]),
    ("hilbert", _cmd_hilbert, "Hilbert-series numerator of a named Betti table, divided by (1-T)^codim", [
        ("--case", {"required": True, "help": f"one of {', '.join(_WHOLE)}, g2-y2-char2"}),
        ("--codim", {"type": int, "required": True})]),
    ("audit", _cmd_audit, "Betti totals of a named resolution against the stated ones", [
        ("--case", {"choices": sorted(AUDITS), "required": True})]),
    ("suite", _cmd_suite, "run acceptance criteria", [
        ("--name", {"choices": criterion_ids(), "default": None})]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="littlewood", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_, arguments in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payload, lines = args.fn(args)
    except (LittlewoodError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
