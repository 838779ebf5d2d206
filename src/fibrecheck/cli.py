"""Command-line front end.

Subcommands: scan, alex, untwist-check, homs.  Exit codes: 0 for any
completed verdict, 2 for input errors, 3 for internal cross-check failures.

The command line is read against one table, `COMMANDS`: each command maps
to its handler, a help line and its options, and each option to its kind,
its default and its help text.  The kinds are

- ``str``: one value, the last one given wins;
- ``int``: the same, read by `int`;
- ``flag``: no value; True where given, else False;
- ``repeat``: one value each time it is given, collected in a list;
- ``required``: one value, which must be given.

A value follows its option as the next word or after ``=``
(``--max-quotient-order 4``, ``--max-quotient-order=4``), and a long option
may be shortened to any prefix that names it alone (``--max-q 4``).  A
next word that starts with ``-`` is a value only where it reads as a
negative number.  ``-h``/``--help`` at the top or after a command prints
that level's options, ``--version`` the version, both with exit 0; every
other mistake is one ``error:`` line on stderr and exit 2.  The table stands
in for argparse, whose import and per-run parser building cost more than a
small command's algebra.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .alexander import InternalCheckError, full_report
from .fibring import ScanConfig, default_fields, emit_report, json_text, scan, schema_header
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


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _table_group(path: str):
    """The table group in a file, named by the file's stem."""
    return load_table_group(_read(path), os.path.splitext(os.path.basename(path))[0])


def _load_presentation(args) -> tuple[Presentation, Character | None]:
    if args.fixture and args.pres:
        raise ValueError("give either --fixture or --pres, not both")
    if args.fixture:
        p, chi = load_fixture(args.fixture)
    elif args.pres:
        text = _read(args.pres)
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
        return symmetric_group(int(low[1:]))
    if low.startswith("file:"):
        return _table_group(name[len("file:"):])
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
        out.write(
            f"degree {r.degree}: {'VANISHING' if r.vanishing else 'nonvanishing'}, "
            f"rank {r.rank_over_frac}, order: {r.order.render()}\n"
        )


def _cmd_scan(args, out) -> int:
    p, chi = _load_presentation_and_char(args)
    extra = [_table_group(path) for path in args.extra_group]
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
        with open(args.json, "w") as fh:
            emit_report(verdict, "json", fh)
        out.write(f"wrote {args.json}\n")
    emit_report(verdict, "text", out)
    return EXIT_OK


def _cmd_alex(args, out) -> int:
    p, chi = _load_presentation_and_char(args)
    q = _parse_quotient(p, args.quotient)
    f = _parse_field(args.field)
    reports = full_report(p, chi, q, f)
    if args.json:
        doc = {**schema_header(), "reports": [r.as_dict(p) for r in reports]}
        _write(args.json, json_text(doc) + "\n")
        out.write(f"wrote {args.json}\n")
    out.write(f"presentation: {render_presentation(p).replace(chr(10), ' | ')}\n")
    out.write(f"character: {render_character(p, chi)}\n")
    action = reports[0].quotient
    out.write(f"quotient: {action.name} (order {action.order}), images {list(action.gen_images)}\n")
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
        **schema_header(),
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
            "twisted_degree1": t_ord.render(),
            "untwisted_degree1": u_ord.render(),
            "equal": t_ord == u_ord,
        },
        "reports": {
            "twisted": [r.as_dict(p) for r in twisted],
            "untwisted": [r.as_dict(sub.presentation) for r in untwisted],
        },
    }
    text = json_text(doc) + "\n"
    if args.json:
        _write(args.json, text)
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


def _cmd_show(text: str, out) -> int:
    """Print a help or version text."""
    out.write(text)
    return EXIT_OK


_COMMON = {
    "--fixture": ("str", None, "named example, e.g. bs:1:2, trefoil, f2xz"),
    "--pres": ("str", None, "presentation file (gens:/rels: lines, optional char: line)"),
    "--char": ("str", None, "character values, e.g. 'a=0, t=1'"),
}

# command -> (handler, help, {option: (kind, default, help)}); see the module docstring.
COMMANDS = {
    "scan": (_cmd_scan, "sweep finite quotients for vanishing polynomials", {
        **_COMMON,
        "--max-quotient-order": ("int", 12, "largest order of a target group in the catalog"),
        "--fields": ("str", ",".join(f.name.lower() for f in default_fields()),
                     "coefficient fields in the order they run, each once"),
        "--extra-group": ("repeat", None, "table group file (repeatable)"),
        "--assert-lerf": ("flag", False, "assert the group is LERF (unverified user metadata)"),
        "--assert-detection": ("flag", False,
                               "assert nonvanishing detects semi-fibring for this group"),
        "--jobs": ("int", 1, "worker processes for the quotients' jobs, 1 to 64"),
        "--json": ("str", None, "also write the JSON report to this file"),
    }),
    "alex": (_cmd_alex, "single quotient report (degrees 0 and 1)", {
        **_COMMON,
        "--quotient": ("required", None,
                       "trivial, z<m>:<images>, s<n>:<images>, file:<path>:<images>"),
        "--field": ("str", "q", "coefficient field: q, f2, f3, f5, ..."),
        "--json": ("str", None, "write the JSON report to this file"),
    }),
    "untwist-check": (_cmd_untwist_check, "compare twisted vs kernel-subgroup untwisted order", {
        **_COMMON,
        "--quotient": ("required", None, "the quotient whose kernel is rewritten, as for alex"),
        "--field": ("str", "q", "coefficient field: q, f2, f3, f5, ..."),
        "--json": ("str", None, "write the JSON report to this file"),
    }),
    "homs": (_cmd_homs, "enumerate homomorphisms to a finite target", {
        **_COMMON,
        "--target": ("required", None, "z<m>, s<n>, or file:<path>"),
        "--epi-only": ("flag", False, "list only the surjective ones"),
    }),
}

_HELP = ("flag", False, "show this help and exit")
_TOP = {"--help": _HELP, "--version": ("flag", False, "show the version and exit")}

# A word that starts with "-" and is still a value, as argparse reads one.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


class UsageError(ValueError):
    """A command line that the table does not accept."""


def _option(word: str, options: dict) -> str:
    """The option that `word`, up to any "=", names: itself or the one option
    it is a prefix of; "-h" is "--help"."""
    if word == "-h":
        return "--help"
    name = word.partition("=")[0]
    if name in options:
        return name
    matches = [o for o in options if o.startswith(name)] if name.startswith("--") else []
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise UsageError(f"ambiguous option {name} (could be {', '.join(matches)})")
    raise UsageError(f"unknown option {name}")


def _help(usage: str, about: str, sections: list[tuple[str, dict]]) -> str:
    lines = [f"usage: {usage}", "", about]
    for title, rows in sections:
        width = max(map(len, rows)) + 2
        lines += ["", f"{title}:"]
        lines += [f"  {left.ljust(width)}{right}" for left, right in rows.items()]
    return "\n".join(lines) + "\n"


def _spelling(name: str, kind: str) -> str:
    """An option as its help shows it: with a placeholder for its value."""
    if kind == "flag":
        return "-h, --help" if name == "--help" else name
    return f"{name} {'N' if kind == 'int' else name[2:].upper().replace('-', '_')}"


def _option_rows(options: dict) -> dict[str, str]:
    rows = {}
    for name, (kind, default, text) in options.items():
        if kind == "required":
            text += " (required)"
        elif kind != "flag" and default is not None:
            text += f" (default: {default})"
        rows[_spelling(name, kind)] = text
    return rows


def _top_help() -> str:
    return _help("fibrecheck [-h] [--version] COMMAND [options]",
                 "Twisted Alexander polynomial computations for finitely presented groups",
                 [("commands", {name: about for name, (_, about, _) in COMMANDS.items()}),
                  ("options", _option_rows(_TOP))])


def _command_help(command: str) -> str:
    _, about, options = COMMANDS[command]
    required = "".join(f" {_spelling(name, kind)}" for name, (kind, _, _) in options.items()
                       if kind == "required")
    return _help(f"fibrecheck {command}{required} [options]", about,
                 [("options", _option_rows({"--help": _HELP, **options}))])


def _is_value(word: str) -> bool:
    """Whether the word after an option is its value rather than another option."""
    return not word.startswith("-") or bool(_NEGATIVE_NUMBER.fullmatch(word)) or " " in word


def parse_args(argv) -> tuple:
    """(handler, args) for a command line, the handler called as handler(args, out).

    `args` holds one attribute per option of the command, named without
    the dashes and with "_" for "-", at its default where not given.  Help
    and version come back as (_cmd_show, text).
    """
    words = list(argv)
    if words and words[0].startswith("-"):
        word = words[0]
        if "=" in word:
            raise UsageError(f"option {word.partition('=')[0]} takes no value")
        if _option(word, _TOP) == "--help":
            return _cmd_show, _top_help()
        return _cmd_show, f"fibrecheck {__version__}\n"
    if not words:
        raise UsageError(f"a command is required: {', '.join(COMMANDS)}")
    command, *words = words
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r} (use {', '.join(COMMANDS)})")
    handler, _, options = COMMANDS[command]
    values = {name: [] if kind == "repeat" else default
              for name, (kind, default, _) in options.items()}
    words.reverse()  # popped from the end, in command-line order
    while words:
        word = words.pop()
        if not word.startswith("-") or _NEGATIVE_NUMBER.fullmatch(word):
            raise UsageError(f"unexpected argument {word!r}")
        name = _option(word, {"--help": _HELP, **options})
        if name == "--help":
            return _cmd_show, _command_help(command)
        kind = options[name][0]
        has_value, value = "=" in word, word.partition("=")[2]
        if kind == "flag":
            if has_value:
                raise UsageError(f"option {name} takes no value")
            values[name] = True
            continue
        if not has_value:
            if not words or not _is_value(words[-1]):
                raise UsageError(f"option {name} needs a value")
            value = words.pop()
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"option {name} needs an integer, not {value!r}") from None
        if kind == "repeat":
            values[name].append(value)
        else:
            values[name] = value
    missing = [name for name, (kind, _, _) in options.items()
               if kind == "required" and values[name] is None]
    if missing:
        raise UsageError(f"option {missing[0]} is required")
    return handler, SimpleNamespace(**{name[2:].replace("-", "_"): value
                                       for name, value in values.items()})


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args, out)
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: that ends the output, not
        # the run.  Stdout then points at the null device, so that the
        # interpreter's last flush at exit has somewhere to go.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalCheckError, NotInSpan) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
