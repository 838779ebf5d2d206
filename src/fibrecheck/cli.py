"""Command-line front end.

Subcommands: scan, alex, untwist-check, homs.  Exit codes: 0 for any
completed verdict, 2 for input errors, 3 for internal cross-check failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .alexander import InternalCheckError, full_report
from .fibring import ScanConfig, emit_report, scan
from .fixtures import load_fixture
from .foxcalc import CONVENTION
from .polyalg import CoefficientField, NotInSpan
from .quotients import (
    FiniteQuotient,
    cyclic_group,
    enumerate_homs,
    load_table_group,
    make_quotient,
    symmetric_group,
    trivial_quotient,
)
from .reidschreier import rewrite_subgroup
from .words import (
    Character,
    ParseError,
    Presentation,
    parse_character,
    parse_presentation,
    render_character,
    render_presentation,
    render_word,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Largest n accepted in s<n>: S_n has n! elements and its table is checked
# for associativity in time cubic in n!; S6 would take 216 times as long as
# S5, which takes 0.2 s.
MAX_SYMMETRIC_DEGREE = 5


def _load_presentation(args) -> tuple[Presentation, Character | None]:
    if args.fixture and args.pres:
        raise ValueError("give either --fixture or --pres, not both")
    if args.fixture:
        p, chi = load_fixture(args.fixture)
    elif args.pres:
        text = Path(args.pres).read_text()
        lines = text.splitlines()
        char_lines = [ln for ln in lines if ln.strip().startswith("char:")]
        p = parse_presentation("\n".join(ln for ln in lines if not ln.strip().startswith("char:")))
        chi = parse_character(p, char_lines[0]) if char_lines else None
    else:
        raise ValueError("a presentation is required: --fixture NAME or --pres FILE")
    if args.char:
        chi = parse_character(p, args.char)
    return p, chi


def _load_presentation_and_char(args) -> tuple[Presentation, Character]:
    p, chi = _load_presentation(args)
    if chi is None:
        raise ValueError("a character is required: --char or a 'char:' line in the file")
    return p, chi


def _parse_field(name: str) -> CoefficientField:
    name = name.strip().lower()
    if name == "q":
        return CoefficientField.rationals()
    if name.startswith("f") and name[1:].isdigit():
        return CoefficientField.prime(int(name[1:]))
    raise ValueError(f"unknown field {name!r} (use q, f2, f3, f5, ...)")


def _parse_fields(text: str) -> tuple[CoefficientField, ...]:
    return tuple(_parse_field(part) for part in text.split(",") if part.strip())


def _parse_target(text: str):
    name = text.strip()
    low = name.lower()
    if low == "trivial":
        return None
    if low.startswith("z") and low[1:].isdigit():
        return cyclic_group(int(low[1:]))
    if low.startswith("s") and low[1:].isdigit():
        n = int(low[1:])
        if n > MAX_SYMMETRIC_DEGREE:
            raise ValueError(f"s{n} is too large: at most s{MAX_SYMMETRIC_DEGREE} is supported")
        return symmetric_group(n)
    if low.startswith("file:"):
        path = Path(name[len("file:"):])
        return load_table_group(path.read_text(), path.stem)
    raise ValueError(f"unknown target {text!r} (use trivial, z<m>, s<n>, or file:<path>)")


def _parse_quotient(p: Presentation, text: str) -> FiniteQuotient:
    if text.strip().lower().startswith("file:"):
        target_text, _, image_text = text.rpartition(":")
    else:
        target_text, _, image_text = text.partition(":")
    group = _parse_target(target_text)
    if group is None:
        return trivial_quotient(p)
    if not image_text:
        raise ValueError("quotient needs generator images, e.g. z3:0,1")
    try:
        images = tuple(int(x) for x in image_text.split(","))
    except ValueError:
        raise ValueError(f"bad image list {image_text!r}")
    return make_quotient(p, group, images)


def _print_reports(p: Presentation, reports, out) -> None:
    for r in reports:
        order = "order skipped" if r.order_skipped else f"order: {r.order.render()}"
        out.write(
            f"degree {r.degree}: {'VANISHING' if r.vanishing else 'nonvanishing'}, "
            f"rank {r.rank_over_frac}, {order}\n"
        )


def _cmd_scan(args, out) -> int:
    p, chi = _load_presentation_and_char(args)
    extra = []
    for path in args.extra_group or []:
        extra.append(load_table_group(Path(path).read_text(), Path(path).stem))
    cfg = ScanConfig(
        presentation=p,
        character=chi,
        max_quotient_order=args.max_quotient_order,
        fields=_parse_fields(args.fields),
        extra_groups=tuple(extra),
        asserted_lerf=args.assert_lerf,
        asserted_detection=args.assert_detection,
    )
    verdict = scan(cfg, jobs=args.jobs)
    if args.json:
        Path(args.json).write_text(emit_report(verdict, "json"))
        out.write(f"wrote {args.json}\n")
    out.write(emit_report(verdict, "text"))
    return EXIT_OK


def _cmd_alex(args, out) -> int:
    p, chi = _load_presentation_and_char(args)
    q = _parse_quotient(p, args.quotient)
    f = _parse_field(args.field)
    reports = full_report(p, chi, q, f)
    if args.json:
        doc = {
            "schema": 1,
            "tool": "fibrecheck",
            "version": __version__,
            "convention": CONVENTION,
            "reports": [r.as_dict(p) for r in reports],
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        out.write(f"wrote {args.json}\n")
    out.write(f"presentation: {render_presentation(p).replace(chr(10), ' | ')}\n")
    out.write(f"character: {render_character(p, chi)}\n")
    q = reports[0].quotient
    out.write(f"quotient: {q.group.name} (order {q.group.order}), images {list(q.gen_images)}\n")
    out.write(f"field: {f.name}\nconvention: {CONVENTION}\n")
    _print_reports(p, reports, out)
    return EXIT_OK


def _cmd_untwist_check(args, out) -> int:
    p, chi = _load_presentation_and_char(args)
    q = _parse_quotient(p, args.quotient)
    f = _parse_field(args.field)
    twisted = full_report(p, chi, q, f)
    sub = rewrite_subgroup(p, q, chi)
    untwisted = full_report(sub.presentation, sub.restricted_character,
                            trivial_quotient(sub.presentation), f)
    t_ord, u_ord = twisted[1].order, untwisted[1].order
    doc = {
        "schema": 1,
        "tool": "fibrecheck",
        "version": __version__,
        "convention": CONVENTION,
        "field": f.name,
        "ambient": {
            "presentation": render_presentation(p),
            "character": render_character(p, chi),
            "quotient": twisted[0].quotient.label(),
        },
        "kernel": {
            "presentation": render_presentation(sub.presentation),
            "character": render_character(sub.presentation, sub.restricted_character),
            "index": sub.index,
            "schreier_generators": [
                {"name": name, "word": render_word(p, w)}
                for name, w in zip(sub.presentation.generator_names, sub.schreier_words)
            ],
        },
        "orders": {
            "twisted_degree1": None if t_ord is None else t_ord.render(),
            "untwisted_degree1": None if u_ord is None else u_ord.render(),
            "equal": t_ord == u_ord,
        },
        "reports": {
            "twisted": [r.as_dict(p) for r in twisted],
            "untwisted": [r.as_dict(sub.presentation) for r in untwisted],
        },
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.json:
        Path(args.json).write_text(text)
        out.write(f"wrote {args.json}\n")
    else:
        out.write(text)
    if t_ord != u_ord:
        raise InternalCheckError("twisted and untwisted normalized orders differ")
    return EXIT_OK


def _cmd_homs(args, out) -> int:
    p, _chi = _load_presentation(args)
    group = _parse_target(args.target)
    if group is None:
        raise ValueError("homs needs a nontrivial target")
    homs = enumerate_homs(p, group, surjective_only=args.epi_only)
    kind = "epimorphisms" if args.epi_only else "homomorphisms"
    out.write(f"target: {group.name} (order {group.order})\n")
    out.write(f"{kind}: {len(homs)}\n")
    for h in homs:
        images = ", ".join(
            f"{name}={img}" for name, img in zip(p.generator_names, h.gen_images)
        )
        out.write(f"  {images}{'  [epi]' if h.surjective else ''}\n")
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--fixture", help="named example, e.g. bs:1:2, trefoil, f2xz")
    sub.add_argument("--pres", help="presentation file (gens:/rels: lines, optional char: line)")
    sub.add_argument("--char", help="character values, e.g. 'a=0, t=1'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrecheck",
        description="Twisted Alexander polynomial computations for finitely presented groups",
    )
    parser.add_argument("--version", action="version", version=f"fibrecheck {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("scan", help="sweep finite quotients for vanishing polynomials")
    _add_common(s)
    s.add_argument("--max-quotient-order", type=int, default=12)
    s.add_argument("--fields", default="f2,f3,q")
    s.add_argument("--extra-group", action="append", help="table group file (repeatable)")
    s.add_argument("--assert-lerf", action="store_true",
                   help="assert the group is LERF (unverified user metadata)")
    s.add_argument("--assert-detection", action="store_true",
                   help="assert nonvanishing detects semi-fibring for this group")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--json", help="also write the JSON report to this file")
    s.set_defaults(func=_cmd_scan)

    s = subs.add_parser("alex", help="single quotient report (degrees 0 and 1)")
    _add_common(s)
    s.add_argument("--quotient", required=True, help="trivial, z<m>:<images>, s<n>:<images>, file:<path>:<images>")
    s.add_argument("--field", default="q")
    s.add_argument("--json", help="write the JSON report to this file")
    s.set_defaults(func=_cmd_alex)

    s = subs.add_parser("untwist-check", help="compare twisted vs kernel-subgroup untwisted order")
    _add_common(s)
    s.add_argument("--quotient", required=True)
    s.add_argument("--field", default="q")
    s.add_argument("--json", help="write the JSON report to this file")
    s.set_defaults(func=_cmd_untwist_check)

    s = subs.add_parser("homs", help="enumerate homomorphisms to a finite target")
    _add_common(s)
    s.add_argument("--target", required=True, help="z<m>, s<n>, or file:<path>")
    s.add_argument("--epi-only", action="store_true")
    s.set_defaults(func=_cmd_homs)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our input-error code
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalCheckError, NotInSpan) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
