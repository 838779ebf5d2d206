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
of q, field by field, and its job would stop after the same field; the
output is byte for byte that of computing every job, and both routes check
the representative.  An orbit is walked as a closure under a generating set
of the maps (`words.generating_subset`, `_register_orbit`).

The bookkeeping follows the jobs.  A verdict keeps each job's chunk of
reports once, and each other kept quotient of its orbit only the chunk's
position (`FibringVerdict`) and, when the reports are read, a label read
off its image's elements with no permutation built (`quotients.image_label`).
The report goes to its stream one kept quotient at a time, each chunk's
texts rendered once (`emit_report`).
"""

from __future__ import annotations

from collections import Counter, deque
from io import StringIO
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from . import __version__
from .alexander import AlexanderReport, chain_reports, integral_chain
from .foxcalc import CONVENTION
from .polyalg import CoefficientField
from .quotients import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    FiniteQuotient,
    ImageLabel,
    build_catalog,
    image_label,
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
    """The outcome of one `scan`, with one chunk of reports per job.

    The kept quotient `tested_quotients[i]` has the reports
    `chunks[chunk_of[i]]`, under its own label where another quotient ran
    the job, and a witness ends the last chunk.  `skipped` holds one
    (target, images, representative) entry per merged homomorphism;
    `reports` and `skipped_quotients` are derived on each read."""

    __slots__ = ("status", "bound", "witness", "interpretation", "chunks", "chunk_of",
                 "tested_quotients", "skipped", "config", "warnings")

    def __init__(self, status: str, bound: int, witness: AlexanderReport | None,
                 interpretation: tuple[str, ...], chunks: list[list[AlexanderReport]],
                 chunk_of: list[int], tested_quotients: tuple[FiniteQuotient, ...],
                 skipped: list[tuple[FiniteGroup, tuple[int, ...], FiniteQuotient]],
                 config: ScanConfig, warnings: tuple[str, ...] = ()):
        self.status = status  # "obstructed" | "no_obstruction_up_to"
        self.bound = bound
        self.witness = witness
        self.interpretation = interpretation
        self.chunks = chunks
        self.chunk_of = chunk_of
        self.tested_quotients = tested_quotients
        self.skipped = skipped
        self.config = config
        self.warnings = warnings

    def labelled_chunks(self):
        """(chunk position, label) of each kept quotient in scan order: the
        first of a chunk ran its job, and any other has its `image_label`."""
        fresh = 0  # the chunks come in the order their jobs ran
        for q, c in zip(self.tested_quotients, self.chunk_of):
            yield c, self.chunks[c][0].quotient if c == fresh else image_label(q)
            fresh = max(fresh, c + 1)

    @property
    def reports(self) -> tuple[AlexanderReport, ...]:
        return tuple(r if r.quotient is label else AlexanderReport(
            r.degree, r.vanishing, r.rank_over_frac, r.order, r.field, label, r.character)
            for c, label in self.labelled_chunks() for r in self.chunks[c])

    @property
    def skipped_quotients(self) -> tuple[tuple[FiniteQuotient, FiniteQuotient], ...]:
        # A merged quotient has its representative's kernel, hence image.
        return tuple((FiniteQuotient(target, images, image_label(rep).order == target.order), rep)
                     for target, images, rep in self.skipped)


def _quotient_stream(p: Presentation, cfg: ScanConfig):
    """Yield ("kept", q, r) / ("skipped", (target, images), rep) events in scan order.

    The trivial quotient always comes first; a later homomorphism whose
    `kernel_key` (from `keyed_homs`) matches that of an earlier kept quotient
    is merged into it, and only a kept one becomes a `FiniteQuotient`.  r is
    None where the job of q runs, else the position, among the kept
    quotients, of the orbit representative whose reports q takes.  After a
    job has run, which is when the consumer asks for the next event, the
    kernels of its orbit are registered (`_register_orbit`); the
    automorphisms are found then, once, by one call of
    `words.automorphisms`, so a scan that ends at the trivial quotient never
    looks for them.  The catalog is built first, so that a clash of target
    names is refused before any job.
    """
    targets = (trivial_group(),) + build_catalog(cfg.max_quotient_order, list(cfg.extra_groups))
    cyclic_memo: dict = {}
    kept: dict = {}
    orbit: dict = {}
    symmetries = None
    for group in targets:
        memo = cyclic_memo if group.cyclic else {}
        for images, key in keyed_homs(p, group, memo):
            rep = kept.get(key)
            if rep is not None:
                yield "skipped", (group, images), rep
                continue
            q = kept[key] = FiniteQuotient(group, images, len(key[0]) == group.order)
            position = orbit.get(key)
            yield "kept", q, position
            if position is None:
                if symmetries is None:
                    symmetries = generating_subset(automorphisms(p, cfg.character))
                _register_orbit(q, key, symmetries, orbit, len(kept) - 1, memo)


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

    The fields read one `integral_chain`, built once over Z; the `alexander`
    module docstring tells how each field reads its two routes off it.

    `scan` runs this only for the representative of each orbit of the
    chi-fixing automorphisms; every other kept quotient of the orbit takes
    these reports relabelled with its own `image_label`.
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


def scan(cfg: ScanConfig, jobs: int = 1) -> FibringVerdict:
    """Run the quotient sweep in both character directions.

    Each job is one kept quotient over every field (see `_scan_job`), and
    only orbit representatives run one; the others keep a reference to
    their representative's chunk of reports (see `FibringVerdict`).
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
        for kind, q, rep in events:
            if kind == "skipped":
                skipped.append((*q, rep))
                continue
            quotients.append(q)
            if rep is not None:
                # The representative's chunk came first and had no witness,
                # so this quotient, of the same reports, has none either.
                chunk_of.append(chunk_of[rep])
                continue
            chunk = compute(q)
            chunk_of.append(len(chunks))
            chunks.append(chunk)
            for i, r in enumerate(chunk):
                if r.degree == 1 and r.vanishing:  # the witness ends the chunk
                    del chunk[i + 1:]
                    return r
        return None

    quotients: list[FiniteQuotient] = []
    skipped: list[tuple[FiniteGroup, tuple[int, ...], FiniteQuotient]] = []
    chunks: list[list[AlexanderReport]] = []
    chunk_of: list[int] = []

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
        chunks=chunks,
        chunk_of=chunk_of,
        tested_quotients=tuple(quotients),
        skipped=skipped,
        config=cfg,
        warnings=tuple(warnings),
    )


def _renderers(v: FibringVerdict):
    """`LaurentPoly.render` and `render_character`, memoised for one report.

    An order is keyed by its object, whose id stays unique while the verdict
    holds it: a job's degree-0 reports for chi and -chi share one.  The
    reports carry two characters, chi and -chi, in many equal objects, so
    each is rendered once up front and looked up by value.
    """
    chi, p = v.config.character, v.config.presentation
    orders: dict[int, str] = {}

    def order(poly) -> str:
        text = orders.get(id(poly))
        if text is None:
            text = orders[id(poly)] = poly.render()
        return text

    return order, {c: render_character(p, c) for c in (chi, chi.negate())}.__getitem__


def schema_header() -> dict:
    """The keys that open every schema-1 JSON document, in their order."""
    return {"schema": 1, "tool": "fibrecheck", "version": __version__, "convention": CONVENTION}


def _verdict_doc(v: FibringVerdict) -> dict:
    """The schema-1 document of v, with its long lists as generators."""
    p = v.config.presentation
    order, character = _renderers(v)

    def report(r: AlexanderReport, label=None) -> dict:
        return r.as_dict(p, order(r.order), character(r.character), label)

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
        "reports": (report(r, label) for c, label in v.labelled_chunks() for r in v.chunks[c]),
        "tested_quotients": (q.label() for q in v.tested_quotients),
        "skipped_quotients": (
            {"quotient": ImageLabel(target.name, target.order, images).label(),
             "merged_into": rep.label()} for target, images, rep in v.skipped),
        "warnings": list(v.warnings),
    }


def json_text(doc, write=None) -> str | None:
    """`json.dumps(doc, indent=2)`, byte for byte, for a document of dicts
    with str keys, lists, tuples, str, int, bool and None; or, given
    `write`, the same text written through it.  A generator stands for a
    list, and each of its items is written as soon as it is made.

    With an indent, `json.dumps` runs CPython's pure-Python encoder; this
    walk writes the same layout and escapes strings with the C escaper that
    `json.dumps` uses by default (`ensure_ascii`), in about 0.6 of the time.
    Any other value raises TypeError.
    """
    out: list[str] = []
    append = out.append

    def put(o, pad: str) -> None:
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
                put(v, inner)
                sep = ",\n" + inner
            append("\n" + pad + "}")
        elif isinstance(o, (list, tuple, GeneratorType)):
            inner = pad + "  "
            sep = "[\n" + inner
            for v in o:
                append(sep)
                put(v, inner)
                sep = ",\n" + inner
                if write and o.__class__ is GeneratorType:
                    write("".join(out))
                    out.clear()
            append("[]" if sep[0] == "[" else "\n" + pad + "]")
        else:
            raise TypeError(f"{o.__class__.__name__} is not written as JSON here")

    put(doc, "")
    if write is None:
        return "".join(out)
    write("".join(out))


def emit_report(v: FibringVerdict, format: str = "text", out=None) -> str | None:
    """Write schema-stable JSON, or a human-readable text block, to the text
    stream `out` one kept quotient at a time; with no stream, return it.

    Each chunk's report texts are rendered once, and a kept quotient that
    reuses the chunk only puts its own label before them; each
    representative that skipped quotients merge into is rendered once too."""
    stream = StringIO() if out is None else out
    write = stream.write
    if format == "json":
        json_text(_verdict_doc(v), write)
        write("\n")
        return stream.getvalue() if out is None else None
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    p = v.config.presentation
    order, character = _renderers(v)
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
    uses = Counter(v.chunk_of).items()
    lines.append(f"reports: {sum(n * len(v.chunks[c]) for c, n in uses)} computed, "
                 f"{sum(n * sum(r.vanishing for r in v.chunks[c]) for c, n in uses)} vanishing")
    write("\n".join(lines) + "\n")
    texts: list[list[str]] = []  # per chunk, its reports' texts after the quotient's label
    for c, label in v.labelled_chunks():
        if c == len(texts):
            texts.append([f"{r.field.name} | {character(r.character)}] deg {r.degree}: "
                          f"{'VANISHING' if r.vanishing else 'nonvanishing'}, "
                          f"rank {r.rank_over_frac}, order {order(r.order)}" for r in v.chunks[c]])
        prefix = f"  [{label.name} ord {label.order} | "
        write(prefix + ("\n" + prefix).join(texts[c]) + "\n")
    write(f"tested quotients: {len(v.tested_quotients)}; skipped (same kernel): {len(v.skipped)}\n")
    into = {rep: f" -> merged into {rep.group.name} images {list(rep.gen_images)}\n"
            for rep in dict.fromkeys(rep for _, _, rep in v.skipped)}
    for target, images, rep in v.skipped:
        write(f"  skipped {target.name} images {list(images)}{into[rep]}")
    return stream.getvalue() if out is None else None
