"""Scan driver: sweep finite quotients and aggregate fibring obstructions.

A vanishing degree-1 twisted polynomial at any probed quotient/field is an
unconditional obstruction: the character is not FP1-semi-fibred and its
kernel is not finitely generated.  Nonvanishing everywhere up to the bound
is only as strong as the bound; the verdict says exactly that, optionally
strengthened by user-asserted group properties that are not verifiable here.

One job is one kept quotient: its chain is built once over Z
(`alexander.integral_chain`) and read over each field in turn, and the job
stops after the first field with a vanishing degree-1 report.  The serial
loop and the process pool run the same jobs, in the same order.

Only one kept quotient per orbit of the presentation's chi-fixing
automorphisms runs a job; the others take its reports.  One finder,
`words.automorphisms`, gives maps of the generators to words (signed
generator maps and Nielsen moves), each kept by one rule: it fixes chi, and
it provably maps every relator into the relators' normal closure, which its
inverse then does too (see `words.automorphisms`), so it induces an
automorphism sigma of the group G with chi o sigma = chi.  The coefficient
module F[t^{+-1}][Q] of q o sigma, twisted by chi, is that of q pulled back
along sigma, so sigma induces isomorphisms
H_k(G; M(q o sigma)) ~ H_k(G; M(q)) of F[t^{+-1}]-modules: ranks, vanishing
and canonical orders agree in degrees 0 and 1, for chi and for -chi (the
twisted polynomial is an invariant of the group, the character and the
representation, not of the presentation: Wada 1994, Kirk-Livingston 1999).
The module depends only on the kernel, which `kernel_key` labels, so a kept
quotient whose key lies in the orbit of a representative q has the reports
of q, field by field, with its own label, that of its image's permutation
action (`quotients.image_action`), and its job would stop after the same
field.  The output is byte for byte that of computing every job; both
routes check the representative.  An orbit is a closure over the
homomorphisms into one target, a finite set that q -> q o sigma permutes,
so the closure under the maps found is the orbit of the group they
generate, which may be infinite and is never listed; the signed maps are
first reduced to a generating set of theirs (`words.generating_subset`).

The bookkeeping around the jobs is kept to what each new fact costs: the
orbit walk looks a kernel key up once per image tuple it has not met, not
once per member and map (`_register_orbit`), and the report renders each
distinct report text after its label once, however many orbit members
reuse it (`emit_report`).
"""

from __future__ import annotations

from collections import deque
from json.encoder import encode_basestring_ascii

from . import __version__
from .alexander import AlexanderReport, chain_reports, integral_chain
from .foxcalc import CONVENTION
from .polyalg import CoefficientField
from .quotients import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    FiniteQuotient,
    build_catalog,
    image_action,
    keyed_homs,
    orbit_key,
    trivial_group,
)
from .words import (Character, Presentation, automorphisms, generating_subset, render_character,
                    render_presentation)

__all__ = ["ScanConfig", "FibringVerdict", "scan", "emit_report", "schema_header", "json_text"]

# Most worker processes `scan` starts.  A pool starts all of its workers at
# the first submit, so the count is checked before any pool is built.
MAX_JOBS = 64


def default_fields() -> tuple[CoefficientField, ...]:
    return (CoefficientField.prime(2), CoefficientField.prime(3), CoefficientField.rationals())


class ScanConfig:
    """What `scan` sweeps; the fields default to `default_fields()`."""

    __slots__ = ("presentation", "character", "max_quotient_order", "fields", "extra_groups",
                 "asserted_lerf", "asserted_detection")

    def __init__(self, presentation: Presentation, character: Character,
                 max_quotient_order: int = 12, fields: tuple[CoefficientField, ...] | None = None,
                 extra_groups: tuple[FiniteGroup, ...] = (), asserted_lerf: bool = False,
                 asserted_detection: bool = False):
        self.presentation = presentation
        self.character = character
        self.max_quotient_order = max_quotient_order
        self.fields = default_fields() if fields is None else fields
        self.extra_groups = extra_groups
        self.asserted_lerf = asserted_lerf
        # nonvanishing is asserted to detect semi-fibring
        self.asserted_detection = asserted_detection


class FibringVerdict:
    """The outcome of one `scan`."""

    __slots__ = ("status", "bound", "witness", "interpretation", "reports", "tested_quotients",
                 "skipped_quotients", "config", "warnings")

    def __init__(self, status: str, bound: int, witness: AlexanderReport | None,
                 interpretation: tuple[str, ...], reports: tuple[AlexanderReport, ...],
                 tested_quotients: tuple[FiniteQuotient, ...],
                 skipped_quotients: tuple[tuple[FiniteQuotient, FiniteQuotient], ...],
                 config: ScanConfig, warnings: tuple[str, ...] = ()):
        self.status = status  # "obstructed" | "no_obstruction_up_to"
        self.bound = bound
        self.witness = witness
        self.interpretation = interpretation
        self.reports = reports
        self.tested_quotients = tested_quotients
        self.skipped_quotients = skipped_quotients
        self.config = config
        self.warnings = warnings


def _quotient_stream(p: Presentation, cfg: ScanConfig):
    """Yield ("kept", q, r) / ("skipped", q, representative) events in scan order.

    The trivial quotient always comes first; a later homomorphism whose
    `kernel_key` matches that of an earlier kept quotient is merged into it.
    The keys come with the homomorphisms (`keyed_homs`, which finds those
    into Z/m by the relators' exponent sums), from a memo
    (`quotients.orbit_key`) that walks one image per orbit of each
    target's automorphisms: alpha o h has the kernel of h.  The cyclic
    targets share one memo; each other target has its own, dropped when
    the stream moves on, since its entries are keyed by image tuples.
    Every key, a kept representative's included, is `kernel_key`'s, so
    merging across targets is unchanged.  r is None where the job of q
    runs, else the position, among the kept quotients, of the orbit
    representative whose reports q takes.  After a job has run, which is
    when the consumer asks for the next event, the kernels of its orbit
    are registered (`_register_orbit`), one lookup per distinct image
    tuple the walk meets; the automorphisms are found then, once, by one
    call of `words.automorphisms`, so a scan that ends at the trivial
    quotient never looks for them.  The catalog is built first, so that a
    clash of target names is refused before any job.
    """
    targets = (trivial_group(),) + build_catalog(cfg.max_quotient_order, list(cfg.extra_groups))
    cyclic_memo: dict = {}
    kept: dict = {}
    orbit: dict = {}
    symmetries = None
    for group in targets:
        memo = cyclic_memo if group.cyclic else {}
        for hom, key in keyed_homs(p, group, memo):
            rep = kept.setdefault(key, hom)
            if rep is not hom:
                yield "skipped", hom, rep
                continue
            position = orbit.get(key)
            yield "kept", hom, position
            if position is None:
                if symmetries is None:
                    symmetries = generating_subset(automorphisms(p, cfg.character))
                _register_orbit(hom, key, symmetries, orbit, len(kept) - 1, memo)


def _register_orbit(q: FiniteQuotient, key, symmetries, orbit: dict, position: int,
                    memo: dict) -> None:
    """Map the `kernel_key` of every quotient q o sigma_1 o ... o sigma_k to `position`.

    Each sigma is a tuple of generator-image words, so q o sigma is the
    homomorphism with images q(sigma(x_i)), into the same group, each read
    through its table from the identity.  The closure is walked
    breadth-first from q, whose key the stream has already made.  An image
    tuple that the walk has met already, as a member or as the image of
    one, has its key in `orbit`, so only the others look a key up, in the
    memo of q's target (`quotients.orbit_key`): into an abelian target
    a -> ab and a -> ba give one tuple, and a map may fix a member or take
    it back to an earlier one.  The closure is taken over the homomorphisms
    into that target, a finite set that q -> q o sigma permutes, so it is
    the orbit under the group the maps generate, without listing that
    group.
    """
    orbit[key] = position
    group = q.group
    table, inverse = group.table, group.inverse
    members = [q.gen_images]
    met = {q.gen_images}
    for images in members:  # grows while it is walked
        # Letter x reads its image at index x, x_i^-1 from the end.
        signed = (0, *images, *map(inverse, reversed(images)))
        for sigma in symmetries:
            moved = []
            for word in sigma:
                e = 0  # the identity, element 0 of every table
                for x in word:
                    e = table[e][signed[x]]
                moved.append(e)
            moved = tuple(moved)
            if moved not in met:
                met.add(moved)
                k = orbit_key(group, moved, memo)
                if k not in orbit:
                    orbit[k] = position
                    members.append(moved)


def _scan_job(args) -> list[AlexanderReport]:
    """Reports of one quotient over each field in turn, up to the first
    field with a vanishing degree-1 report.

    Each field gives degree 0 and degree 1 for the character, then for its
    negation.  Only the character itself is computed; the minus direction
    is derived by t -> t^-1.  That substitution is a ring automorphism of
    F[t^{+-1}] and maps the chain of the character onto the chain of its
    negation entry by entry, so ranks and vanishing agree and each order is
    the canonical reciprocal of the plus order.  ord H0 = (t^d - 1)^c is its
    own canonical reciprocal, so degree 0 keeps it.

    The fields read one `integral_chain`, which writes b2 and only b1's
    shape, and gives H0 in one closed form, checked against chi.  chi != 0
    gives b1 a block t^s P - I, a minor that is nonzero over every field, so
    rank b1 is |Q|, an identity, and b2 @ b1 = 0 makes that block of b2 a
    combination of the others over F(t) (the Wada matrix), so rank b2 is
    read on b2 less it, one bound per field.  That rank over Q(t) is at
    least its rank over F_p(t), so Q after a prime field takes the full rank
    that the first such field proved, and eliminates nothing for it: a rank
    of b2 below its bound over F_p is a vanishing that ends the job
    before Q.  Q first in `fields` runs its own bound.  The order
    route of the first field eliminates b2 less the n - 1 columns of the
    image's Schreier tree, which has b2's invariant factors (b2 @ b1 = 0
    makes b2 equivalent to it and zero columns over Z[t^{+-1}]), to
    D (+) R, pivoting only on entries with top coefficient +-1, and
    multiplies D's entries once over Z; every field reduces that product mod
    p and multiplies in R, usually empty, finished by the field's own
    diagonal form.  The order route reads no rank of b2, and the two routes
    drop different columns of b2, so both still check every verdict.

    `scan` runs this only for the representative of each orbit of the
    chi-fixing automorphisms; every other kept quotient of the orbit takes
    these reports relabelled with its own `image_action`.
    That is exact, like the minus direction: its chain computes the
    homology of isomorphic modules (see the module docstring).
    """
    presentation, character, quotient, fields = args
    chain = integral_chain(presentation, character, quotient)
    minus = character.negate()
    out: list[AlexanderReport] = []
    for f in fields:
        deg0, deg1 = chain_reports(chain.over(f))
        out += [deg0, deg1,
                AlexanderReport(0, deg0.vanishing, deg0.rank_over_frac, deg0.order, f,
                                deg0.quotient, minus),
                AlexanderReport(1, deg1.vanishing, deg1.rank_over_frac,
                                deg1.order.reciprocal().canonical(), f, deg1.quotient, minus)]
        if deg1.vanishing:
            break
    return out


def _witness_index(chunk: list[AlexanderReport]) -> int | None:
    """Position of the first vanishing degree-1 report of a job, if any."""
    return next((i for i, r in enumerate(chunk) if r.degree == 1 and r.vanishing), None)


def scan(cfg: ScanConfig, jobs: int = 1) -> FibringVerdict:
    """Run the quotient sweep in both character directions.

    Each job is one kept quotient over every field (see `_scan_job`), and
    only orbit representatives run one; the others reuse their
    representative's reports.
    With jobs > 1 the representatives' jobs fan out to a process pool of
    that many workers, at most MAX_JOBS, fed from the same lazy stream a
    few jobs ahead; the witness is the first vanishing degree-1 report in
    enumeration order, so the verdict is identical to a serial run.
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"--jobs {jobs} is out of range: use 1 to {MAX_JOBS}")
    if not cfg.fields:
        raise ValueError("at least one coefficient field is required")
    names = [f.name for f in cfg.fields]
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise ValueError(f"field {repeated} is given more than once")
    if cfg.max_quotient_order < 1:
        raise ValueError("max quotient order must be at least 1")
    if cfg.max_quotient_order > MAX_GROUP_ORDER:
        raise ValueError(f"max quotient order {cfg.max_quotient_order} is too large: "
                         f"at most {MAX_GROUP_ORDER} is supported")
    if cfg.character.is_zero:
        raise ValueError("non-trivial character required")

    def job_for(q):
        return (cfg.presentation, cfg.character, q, cfg.fields)

    def run(events, compute) -> AlexanderReport | None:
        """Consume the events up to the witness, which it returns; `compute`
        gives the chunk of each orbit representative, in the order they come."""
        chunks: list[list[AlexanderReport]] = []
        for kind, q, rep in events:
            if kind == "skipped":
                skipped.append((q, rep))
                continue
            quotients.append(q)
            if rep is None:
                chunk = compute(q)
                idx = _witness_index(chunk)
                if idx is not None:
                    flat.extend(chunk[: idx + 1])
                    return chunk[idx]
            else:
                # The representative's chunk came first and had no witness,
                # so this one, of the same reports, has none either.
                label = image_action(q)
                chunk = [AlexanderReport(r.degree, r.vanishing, r.rank_over_frac, r.order,
                                         r.field, label, r.character) for r in chunks[rep]]
            chunks.append(chunk)
            flat.extend(chunk)
        return None

    quotients: list[FiniteQuotient] = []
    skipped: list[tuple[FiniteQuotient, FiniteQuotient]] = []
    flat: list[AlexanderReport] = []

    if jobs > 1:
        # The stream is read lazily here too, only as far as it takes to keep
        # 4 * jobs representatives' jobs submitted ahead of the one the scan
        # waits for; at a witness the jobs not yet started are cancelled and
        # the rest of the stream is never read, as in a serial run.
        # Imported here: the pool's modules would add about 15-20 ms to every
        # serial run's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            running = deque()  # the jobs of representatives read and not yet consumed

            def events():
                ahead = deque()
                for event in _quotient_stream(cfg.presentation, cfg):
                    ahead.append(event)
                    if event[0] == "kept" and event[2] is None:
                        running.append(pool.submit(_scan_job, job_for(event[1])))
                    while len(running) >= 4 * jobs:  # run() consumes one job per representative
                        yield ahead.popleft()
                yield from ahead

            witness = run(events(), lambda q: running.popleft().result())
            pool.shutdown(cancel_futures=True)
    else:
        # Lazy enumeration: an early witness stops the sweep immediately.
        witness = run(_quotient_stream(cfg.presentation, cfg), lambda q: _scan_job(job_for(q)))

    warnings = []
    if cfg.max_quotient_order < 2 and not cfg.extra_groups:
        warnings.append("catalog is empty: only the trivial quotient was tested")

    if witness is not None:
        status = "obstructed"
        interpretation = (
            "A vanishing degree-1 twisted Alexander polynomial was found.",
            f"Witness: quotient {witness.quotient.name} (order "
            f"{witness.quotient.order}) over {witness.field.name}, character "
            f"{render_character(cfg.presentation, witness.character)}.",
            "Unconditionally, the character is not FP1-semi-fibred; kernel not "
            "finitely generated.",
        )
    else:
        status = "no_obstruction_up_to"
        lines = [
            f"No vanishing twisted Alexander polynomial up to quotient order "
            f"{cfg.max_quotient_order} over fields "
            f"{', '.join(f.name for f in cfg.fields)} (both character directions).",
        ]
        if cfg.asserted_lerf or cfg.asserted_detection:
            lines.append(
                "Under the asserted hypothesis, this is consistent with an "
                "algebraically fibred character; the certificate is complete only "
                "under the exhaustive quantifier over all finite quotients."
            )
        else:
            lines.append(
                "Inconclusive: no group hypothesis was asserted, so nonvanishing up "
                "to this bound neither certifies nor refutes fibring."
            )
        lines.append(
            "Note: nonvanishing alone certifies at most semi-fibring; the kernel "
            "may still fail to be finitely generated (one-sided)."
        )
        interpretation = tuple(lines)

    return FibringVerdict(
        status=status,
        bound=cfg.max_quotient_order,
        witness=witness,
        interpretation=interpretation,
        reports=tuple(flat),
        tested_quotients=tuple(quotients),
        skipped_quotients=tuple(skipped),
        config=cfg,
        warnings=tuple(warnings),
    )


def _renderers(p: Presentation):
    """`LaurentPoly.render` and `render_character` on p, memoised for one report.

    A kept quotient that reuses its orbit representative's reports shares
    the representative's order objects, so an order is keyed by its object,
    whose id stays unique while the verdict holds it.  The scan's reports
    carry two characters, chi and -chi, in many equal objects, so a
    character is keyed by value.
    """
    orders: dict[int, str] = {}
    characters: dict[Character, str] = {}

    def order(poly) -> str:
        text = orders.get(id(poly))
        if text is None:
            text = orders[id(poly)] = poly.render()
        return text

    def character(chi: Character) -> str:
        text = characters.get(chi)
        if text is None:
            text = characters[chi] = render_character(p, chi)
        return text

    return order, character


def schema_header() -> dict:
    """The keys that open every schema-1 JSON document, in their order."""
    return {"schema": 1, "tool": "fibrecheck", "version": __version__, "convention": CONVENTION}


def verdict_to_dict(v: FibringVerdict) -> dict:
    p = v.config.presentation
    order, character = _renderers(p)

    def report(r: AlexanderReport) -> dict:
        return r.as_dict(p, order(r.order), character(r.character))

    return {
        **schema_header(),
        "status": v.status,
        "bound": v.bound,
        "fields": [f.name for f in v.config.fields],
        "assertions": {
            "lerf": v.config.asserted_lerf,
            "detection": v.config.asserted_detection,
        },
        "presentation": {
            "generators": list(p.generator_names),
            "text": render_presentation(p),
        },
        "character": character(v.config.character),
        "witness": None if v.witness is None else report(v.witness),
        "interpretation": list(v.interpretation),
        "reports": [report(r) for r in v.reports],
        "tested_quotients": [q.label() for q in v.tested_quotients],
        "skipped_quotients": [
            {"quotient": q.label(), "merged_into": rep.label()}
            for q, rep in v.skipped_quotients
        ],
        "warnings": list(v.warnings),
    }


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for a document of dicts
    with str keys, lists, tuples, str, int, bool and None.

    With an indent, `json.dumps` runs CPython's pure-Python encoder; this
    walk writes the same layout and escapes strings with the C escaper that
    `json.dumps` uses by default (`ensure_ascii`), in about 0.6 of the time.
    Any other value raises TypeError.
    """
    out: list[str] = []
    append = out.append

    def write(o, pad: str) -> None:
        if o.__class__ is str:
            append(encode_basestring_ascii(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for k, v in o.items():
                if k.__class__ is not str:
                    raise TypeError(f"key {k!r} is not a str")
                append(f"{sep}{encode_basestring_ascii(k)}: ")
                write(v, inner)
                sep = ",\n" + inner
            append("\n" + pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = pad + "  "
            sep = "[\n" + inner
            for v in o:
                append(sep)
                write(v, inner)
                sep = ",\n" + inner
            append("\n" + pad + "]")
        else:
            raise TypeError(f"{o.__class__.__name__} is not written as JSON here")

    write(doc, "")
    return "".join(out)


def emit_report(v: FibringVerdict, format: str = "text") -> str:
    """Schema-stable JSON, or a human-readable text block.

    A kept quotient that reuses its orbit representative's reports shares
    their order, field and character objects, so a report's text after its
    quotient's label is keyed by those objects' ids, unique while the
    verdict holds them, and by its degree, vanishing and rank: each distinct
    text is rendered once, and each reuse only puts its own label before
    it.  Each label, and each representative that skipped quotients merge
    into, is rendered once too.
    """
    if format == "json":
        return json_text(verdict_to_dict(v)) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    p = v.config.presentation
    order, character = _renderers(p)
    lines = [
        f"fibrecheck scan (schema 1, version {__version__}, convention {CONVENTION})",
        f"presentation: {render_presentation(p).replace(chr(10), ' | ')}",
        f"character: {character(v.config.character)} (minus direction scanned alongside)",
        f"fields: {', '.join(f.name for f in v.config.fields)}",
        f"catalog bound: {v.bound}",
        f"assertions: lerf={'yes' if v.config.asserted_lerf else 'no'}, "
        f"detection={'yes' if v.config.asserted_detection else 'no'}",
    ]
    for w in v.warnings:
        lines.append(f"warning: {w}")
    lines.append(f"verdict: {'OBSTRUCTED' if v.status == 'obstructed' else f'NO OBSTRUCTION up to order {v.bound}'}")
    if v.witness is not None:
        w = v.witness
        lines.append(
            f"witness: quotient {w.quotient.name} (order {w.quotient.order}), "
            f"field {w.field.name}, degree 1, character {character(w.character)}"
        )
    lines.append("interpretation:")
    for text in v.interpretation:
        lines.append(f"  - {text}")
    vanish_count = sum(1 for r in v.reports if r.vanishing)
    lines.append(f"reports: {len(v.reports)} computed, {vanish_count} vanishing")
    texts: dict[tuple, str] = {}
    quotient = None
    for r in v.reports:
        if r.quotient is not quotient:  # a quotient's reports come together
            quotient = r.quotient
            label = f"  [{quotient.name} ord {quotient.order} | "
        key = (id(r.order), id(r.field), id(r.character), r.degree, r.vanishing, r.rank_over_frac)
        text = texts.get(key)
        if text is None:
            text = texts[key] = (
                f"{r.field.name} | {character(r.character)}] deg {r.degree}: "
                f"{'VANISHING' if r.vanishing else 'nonvanishing'}, rank {r.rank_over_frac}, "
                f"order {order(r.order)}"
            )
        lines.append(label + text)
    lines.append(f"tested quotients: {len(v.tested_quotients)}; skipped (same kernel): {len(v.skipped_quotients)}")
    merged: dict[int, str] = {}
    for q, rep in v.skipped_quotients:
        into = merged.get(id(rep))
        if into is None:
            into = merged[id(rep)] = f" -> merged into {rep.group.name} images {list(rep.gen_images)}"
        lines.append(f"  skipped {q.group.name} images {list(q.gen_images)}{into}")
    return "\n".join(lines) + "\n"
