"""Named example groups with default characters, for the CLI and tests."""

from __future__ import annotations

from .words import (MAX_WORD_LENGTH, Character, Presentation, Word, parse_presentation,
                    validate_character)

__all__ = ["FIXTURE_NAMES", "load_fixture"]

FIXTURE_NAMES = ("bs", "trefoil", "klein", "zn", "f", "f2xz", "surface")


def _check_length(letters: int) -> None:
    """The cap of a parsed presentation, applied before any relator is built."""
    if letters > MAX_WORD_LENGTH:
        raise ValueError(f"relators exceed {MAX_WORD_LENGTH} letters in total ({letters})")


def _bs(m: int, n: int) -> tuple[Presentation, Character]:
    p = parse_presentation(f"gens: a t\nrels: t a^{m} t^-1 a^-{n}")
    return p, validate_character(p, [0, 1])


def _trefoil() -> tuple[Presentation, Character]:
    p = parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1")
    return p, validate_character(p, [1, 1])


def _klein() -> tuple[Presentation, Character]:
    p = parse_presentation("gens: a t\nrels: t a t^-1 a")
    return p, validate_character(p, [0, 1])


def _zn(n: int) -> tuple[Presentation, Character]:
    """Free abelian group of rank n."""
    if n < 1:
        raise ValueError("zn needs rank >= 1")
    _check_length(2 * n * (n - 1))  # n(n-1)/2 commutators of 4 letters
    names = tuple(f"x{i}" for i in range(1, n + 1))
    relators = tuple(
        Word((i, j, -i, -j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    p = Presentation(names, relators)
    return p, validate_character(p, [1] + [0] * (n - 1))


def _free(n: int) -> tuple[Presentation, Character]:
    if not 1 <= n <= 26:
        raise ValueError("f needs rank between 1 and 26")
    names = tuple(chr(ord("a") + i) for i in range(n))
    p = Presentation(names, ())
    return p, validate_character(p, [1] + [0] * (n - 1))


def _f2xz() -> tuple[Presentation, Character]:
    p = parse_presentation("gens: a b z\nrels: a z a^-1 z^-1 ; b z b^-1 z^-1")
    return p, validate_character(p, [0, 0, 1])


def _surface(genus: int) -> tuple[Presentation, Character]:
    """Genus-g closed surface group, relator the product of commutators."""
    if genus < 1:
        raise ValueError("surface needs genus >= 1")
    _check_length(4 * genus)
    names = []
    for i in range(1, genus + 1):
        names.extend([f"a{i}", f"b{i}"])
    letters = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        letters.extend([a, b, -a, -b])
    p = Presentation(tuple(names), (Word.of(letters),))
    return p, validate_character(p, [1] + [0] * (2 * genus - 1))


def load_fixture(name_and_args: str) -> tuple[Presentation, Character]:
    """Load ``name`` or ``name:arg:...``, e.g. ``bs:1:2``, ``f:2``, ``zn:2``."""
    name, *args = name_and_args.split(":")
    try:
        if name == "bs":
            if len(args) != 2:
                raise ValueError("bs takes two parameters, e.g. bs:1:2")
            return _bs(int(args[0]), int(args[1]))
        if name == "trefoil" and not args:
            return _trefoil()
        if name == "klein" and not args:
            return _klein()
        if name == "zn" and len(args) == 1:
            return _zn(int(args[0]))
        if name == "f" and len(args) == 1:
            return _free(int(args[0]))
        if name == "f2xz" and not args:
            return _f2xz()
        if name == "surface" and len(args) == 1:
            return _surface(int(args[0]))
    except ValueError as exc:
        raise ValueError(f"bad fixture {name_and_args!r}: {exc}")
    raise ValueError(f"unknown fixture {name_and_args!r} (known: {', '.join(FIXTURE_NAMES)})")
