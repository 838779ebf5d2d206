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
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .alexander import AlexanderReport, chain_reports, full_report, integral_chain
from .foxcalc import CONVENTION
from .polyalg import CoefficientField
from .quotients import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    FiniteQuotient,
    build_catalog,
    enumerate_homs,
    kernel_key,
    trivial_quotient,
)
from .words import Character, Presentation, direct_product, render_character, render_presentation

__all__ = ["ScanConfig", "FibringVerdict", "scan", "product_vanishing_test", "emit_report"]

# Most worker processes `scan` starts.  A pool starts all of its workers at
# the first submit, so the count is checked before any pool is built.
MAX_JOBS = 64


def default_fields() -> tuple[CoefficientField, ...]:
    return (CoefficientField.prime(2), CoefficientField.prime(3), CoefficientField.rationals())


@dataclass(frozen=True)
class ScanConfig:
    presentation: Presentation
    character: Character
    max_quotient_order: int = 12
    fields: tuple[CoefficientField, ...] = field(default_factory=default_fields)
    extra_groups: tuple[FiniteGroup, ...] = ()
    asserted_lerf: bool = False
    asserted_detection: bool = False  # nonvanishing is asserted to detect semi-fibring


@dataclass(frozen=True)
class FibringVerdict:
    status: str  # "obstructed" | "no_obstruction_up_to"
    bound: int
    witness: AlexanderReport | None
    interpretation: tuple[str, ...]
    reports: tuple[AlexanderReport, ...]
    tested_quotients: tuple[FiniteQuotient, ...]
    skipped_quotients: tuple[tuple[FiniteQuotient, FiniteQuotient], ...]
    config: ScanConfig
    warnings: tuple[str, ...] = ()


def _quotient_stream(p: Presentation, cfg: ScanConfig):
    """Yield ("kept", q, None) / ("skipped", q, representative) events in scan order.

    The trivial quotient always comes first; a later homomorphism whose
    `kernel_key` matches that of an earlier kept quotient is merged into it.
    """
    trivial = trivial_quotient(p)
    kept = {kernel_key(trivial): trivial}
    yield "kept", trivial, None
    for group in build_catalog(cfg.max_quotient_order, list(cfg.extra_groups)):
        for hom in enumerate_homs(p, group, surjective_only=False):
            rep = kept.setdefault(kernel_key(hom), hom)
            yield ("kept", hom, None) if rep is hom else ("skipped", hom, rep)


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

    The fields read one `integral_chain`.  Its rank over Q(t) is at least its
    rank over F_p(t), so Q after a prime field takes the ranks that field
    proved wherever they reach Q's upper bounds, and eliminates nothing for
    them: chi != 0 gives b1 full column rank, and a rank of b2 below its
    bound over F_p is a vanishing that ends the job before Q.  Q first in
    `fields` runs its own rank route.  The order route of the first field
    eliminates b2 over Z[t^{+-1}] to b2 ~ D (+) R, pivoting only on entries
    with top coefficient +-1, and every field reads that: D reduced mod p,
    and R, usually empty, finished by the field's own diagonal form.  The
    order route reads no rank, so both routes still check every verdict.
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

    Each job is one kept quotient over every field (see `_scan_job`).
    With jobs > 1 the jobs fan out to a process pool of that many workers,
    at most MAX_JOBS; the witness is the first vanishing degree-1 report in
    enumeration order, so the verdict is identical to a serial run.
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"--jobs {jobs} is out of range: use 1 to {MAX_JOBS}")
    if not cfg.fields:
        raise ValueError("at least one coefficient field is required")
    if cfg.max_quotient_order < 1:
        raise ValueError("max quotient order must be at least 1")
    if cfg.max_quotient_order > MAX_GROUP_ORDER:
        raise ValueError(f"max quotient order {cfg.max_quotient_order} is too large: "
                         f"at most {MAX_GROUP_ORDER} is supported")
    if cfg.character.is_zero:
        raise ValueError("non-trivial character required")

    def job_for(q):
        return (cfg.presentation, cfg.character, q, cfg.fields)

    quotients: list[FiniteQuotient] = []
    skipped: list[tuple[FiniteQuotient, FiniteQuotient]] = []
    flat: list[AlexanderReport] = []
    witness = None

    if jobs > 1:
        # Fan out every job, then truncate to what a serial run would report.
        events = list(_quotient_stream(cfg.presentation, cfg))
        kept = [q for kind, q, _ in events if kind == "kept"]
        witness_quotient = None
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for job_idx, chunk in enumerate(pool.map(_scan_job, map(job_for, kept), chunksize=2)):
                idx = _witness_index(chunk)
                if idx is not None:
                    witness = chunk[idx]
                    flat.extend(chunk[: idx + 1])
                    witness_quotient = job_idx
                    break
                flat.extend(chunk)
        seen = -1
        for kind, q, rep in events:
            if kind == "kept":
                seen += 1
                quotients.append(q)
                if seen == witness_quotient:
                    break
            else:
                skipped.append((q, rep))
    else:
        # Lazy enumeration: an early witness stops the sweep immediately.
        for kind, q, rep in _quotient_stream(cfg.presentation, cfg):
            if kind == "skipped":
                skipped.append((q, rep))
                continue
            quotients.append(q)
            chunk = _scan_job(job_for(q))
            idx = _witness_index(chunk)
            if idx is not None:
                witness = chunk[idx]
                flat.extend(chunk[: idx + 1])
                break
            flat.extend(chunk)

    warnings = []
    if cfg.max_quotient_order < 2 and not cfg.extra_groups:
        warnings.append("catalog is empty: only the trivial quotient was tested")

    if witness is not None:
        status = "obstructed"
        interpretation = (
            "A vanishing degree-1 twisted Alexander polynomial was found.",
            f"Witness: quotient {witness.quotient.group.name} (order "
            f"{witness.quotient.group.order}) over {witness.field.name}, character "
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


def product_vanishing_test(p1: Presentation, chi1: Character, q1: FiniteQuotient,
                           p2: Presentation,
                           coefficient_field: CoefficientField | None = None) -> bool:
    """Degree-1 vanishing of (p1 x p2, (chi1, 0)) at the quotient pulled back
    through the projection onto the first factor."""
    if chi1.is_zero:
        raise ValueError("non-trivial character required on the first factor")
    coefficient_field = coefficient_field or CoefficientField.rationals()
    product = direct_product(p1, p2)
    chi = Character(chi1.values + (0,) * p2.generator_count)
    composite = FiniteQuotient(
        q1.group,
        q1.gen_images + (0,) * p2.generator_count,
        q1.surjective,
    )
    reports = full_report(product, chi, composite, coefficient_field)
    return reports[1].vanishing


def verdict_to_dict(v: FibringVerdict) -> dict:
    p = v.config.presentation
    return {
        "schema": 1,
        "tool": "fibrecheck",
        "version": __version__,
        "convention": CONVENTION,
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
        "character": render_character(p, v.config.character),
        "witness": None if v.witness is None else v.witness.as_dict(p),
        "interpretation": list(v.interpretation),
        "reports": [r.as_dict(p) for r in v.reports],
        "tested_quotients": [q.label() for q in v.tested_quotients],
        "skipped_quotients": [
            {"quotient": q.label(), "merged_into": rep.label()}
            for q, rep in v.skipped_quotients
        ],
        "warnings": list(v.warnings),
    }


def emit_report(v: FibringVerdict, format: str = "text") -> str:
    """Schema-stable JSON, or a human-readable text block."""
    if format == "json":
        return json.dumps(verdict_to_dict(v), indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    p = v.config.presentation
    lines = [
        f"fibrecheck scan (schema 1, version {__version__}, convention {CONVENTION})",
        f"presentation: {render_presentation(p).replace(chr(10), ' | ')}",
        f"character: {render_character(p, v.config.character)} (minus direction scanned alongside)",
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
            f"witness: quotient {w.quotient.group.name} (order {w.quotient.group.order}), "
            f"field {w.field.name}, degree 1, character {render_character(p, w.character)}"
        )
    lines.append("interpretation:")
    for text in v.interpretation:
        lines.append(f"  - {text}")
    vanish_count = sum(1 for r in v.reports if r.vanishing)
    lines.append(f"reports: {len(v.reports)} computed, {vanish_count} vanishing")
    for r in v.reports:
        lines.append(
            f"  [{r.quotient.group.name} ord {r.quotient.group.order} | {r.field.name} | "
            f"{render_character(p, r.character)}] deg {r.degree}: "
            f"{'VANISHING' if r.vanishing else 'nonvanishing'}, rank {r.rank_over_frac}, "
            f"order {r.order.render()}"
        )
    lines.append(f"tested quotients: {len(v.tested_quotients)}; skipped (same kernel): {len(v.skipped_quotients)}")
    for q, rep in v.skipped_quotients:
        lines.append(
            f"  skipped {q.group.name} images {list(q.gen_images)} -> merged into "
            f"{rep.group.name} images {list(rep.gen_images)}"
        )
    return "\n".join(lines) + "\n"
