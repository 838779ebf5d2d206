import hashlib
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck.fibring import ScanConfig, emit_report, scan
from fibrecheck.fixtures import load_fixture
from fibrecheck.polyalg import CoefficientField
from fibrecheck.quotients import trivial_quotient
from fibrecheck.words import validate_character
from product_oracle import direct_product, product_vanishing_test
from random_presentations import presentations_with_quotient, symmetric_presentations_with_quotient

Q = CoefficientField.rationals()
F2 = CoefficientField.prime(2)
F3 = CoefficientField.prime(3)


def test_scan_rejects_bad_config():
    p, chi = load_fixture("bs:1:2")
    with pytest.raises(ValueError, match="non-trivial character"):
        scan(ScanConfig(presentation=p, character=validate_character(p, [0, 0])))
    with pytest.raises(ValueError):
        scan(ScanConfig(presentation=p, character=chi, fields=()))
    with pytest.raises(ValueError):
        scan(ScanConfig(presentation=p, character=chi, max_quotient_order=0))
    # A field given twice would run twice and print its reports twice.
    for fields, name in (((F2, F3, F2), "F2"), ((Q, Q), "Q")):
        with pytest.raises(ValueError, match=f"field {name} is given more than once"):
            scan(ScanConfig(presentation=p, character=chi, fields=fields))


def test_scan_bs12_no_obstruction():
    p, chi = load_fixture("bs:1:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=6))
    assert v.status == "no_obstruction_up_to"
    assert v.bound == 6
    assert v.witness is None
    assert all(not r.vanishing for r in v.reports)
    # without assertions, the interpretation is explicitly inconclusive
    assert any("Inconclusive" in line for line in v.interpretation)


def test_scan_obstructed_f2xz():
    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 0, 0])
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=6))
    assert v.status == "obstructed"
    assert v.witness is not None
    assert v.witness.quotient.name == "trivial"
    assert v.witness.vanishing and v.witness.degree == 1
    assert any("not FP1-semi-fibred; kernel not finitely generated" in line
               for line in v.interpretation)
    # the witness report is the last one kept
    assert v.reports[-1] is v.witness


def test_scan_obstructed_surface_group():
    # A closed genus-2 surface group admits no algebraically semi-fibred
    # character, and the obstruction already shows at the trivial quotient.
    p, chi = load_fixture("surface:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=2))
    assert v.status == "obstructed"
    assert v.witness.quotient.name == "trivial"
    assert v.witness.rank_over_frac == 2


def test_scan_trefoil_includes_s3():
    p, chi = load_fixture("trefoil")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=6))
    assert v.status == "no_obstruction_up_to"
    assert any(q.group.name == "S3" and q.group.order == 6 for q in v.tested_quotients)


def test_scan_empty_catalog_warns():
    p, chi = load_fixture("bs:1:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=1))
    assert v.status == "no_obstruction_up_to"
    assert v.bound == 1
    assert v.warnings


def test_scan_monotone_obstruction():
    # Enlarging the bound never turns Obstructed into NoObstruction.
    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 0, 0])
    small = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=2))
    big = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    assert small.status == big.status == "obstructed"
    assert small.witness.quotient.label() == big.witness.quotient.label()


def test_scan_deterministic_bytes():
    p, chi = load_fixture("bs:1:2")
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
    assert emit_report(scan(cfg), "json") == emit_report(scan(cfg), "json")
    assert emit_report(scan(cfg), "text") == emit_report(scan(cfg), "text")


def test_scan_parallel_matches_serial():
    p, chi = load_fixture("trefoil")
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
    assert emit_report(scan(cfg, jobs=1), "json") == emit_report(scan(cfg, jobs=2), "json")
    p2, _ = load_fixture("f2xz")
    chi2 = validate_character(p2, [1, 0, 0])
    cfg2 = ScanConfig(presentation=p2, character=chi2, max_quotient_order=3)
    assert emit_report(scan(cfg2, jobs=1), "json") == emit_report(scan(cfg2, jobs=2), "json")


def test_scan_obstructed_witness_reproducible():
    # Soundness: re-running the witness triple independently reproduces
    # the vanishing verdict through both code paths.
    from fibrecheck.alexander import h1_vanishing
    from fibrecheck.foxcalc import build_representation
    from fibrecheck.quotients import image_action
    from dense_oracle import chain_over, h1_order

    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 0, 0])
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    w, q = v.witness, v.tested_quotients[-1]
    assert image_action(q).label() == w.quotient.label()
    chain = chain_over(build_representation(p, w.character, q), w.field)
    vanish, _ = h1_vanishing(chain)
    assert vanish
    assert h1_order(chain).is_zero


def test_kernel_dedup_is_transparent():
    p, chi = load_fixture("bs:1:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    assert v.skipped_quotients
    doc = json.loads(emit_report(v, "json"))
    assert doc["skipped_quotients"]
    for entry in doc["skipped_quotients"]:
        assert set(entry) == {"quotient", "merged_into"}
        assert entry["merged_into"] in doc["tested_quotients"]


def test_scan_pairs_minus_character():
    p, chi = load_fixture("bs:1:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=2,
                        fields=(Q,)))
    chars = {r.character for r in v.reports}
    assert chi in chars and chi.negate() in chars
    # the paired reports agree on vanishing
    by_key = {}
    for r in v.reports:
        key = (r.quotient.label()["name"], tuple(r.quotient.gen_images), r.field.name, r.degree)
        by_key.setdefault(key, []).append(r.vanishing)
    for verdicts in by_key.values():
        assert len(set(verdicts)) == 1


def test_interpretation_with_assertion():
    p, chi = load_fixture("bs:1:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=2,
                        asserted_lerf=True))
    assert any("consistent with an algebraically fibred" in line for line in v.interpretation)
    assert any("exhaustive quantifier" in line for line in v.interpretation)


def test_product_vanishing_propagates():
    pz, _ = load_fixture("zn:1")
    p1, _ = load_fixture("f2xz")
    chi1 = validate_character(p1, [1, 0, 0])
    assert product_vanishing_test(p1, chi1, trivial_quotient(p1), pz) is True

    p_tr, chi_tr = load_fixture("trefoil")
    assert product_vanishing_test(p_tr, chi_tr, trivial_quotient(p_tr), pz) is False


def test_product_with_trivial_factor_matches():
    # Crossing with the trivial group leaves the verdict unchanged.
    from fibrecheck.alexander import full_report
    from fibrecheck.words import parse_presentation

    triv = parse_presentation("gens: e\nrels: e")
    for name, values in (("trefoil", None), ("f2xz", [1, 0, 0])):
        p, chi = load_fixture(name)
        if values is not None:
            chi = validate_character(p, values)
        direct = full_report(p, chi, trivial_quotient(p), Q)[1].vanishing
        assert product_vanishing_test(p, chi, trivial_quotient(p), triv) == direct


def test_emit_report_schema():
    p, chi = load_fixture("bs:1:2")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=3))
    doc = json.loads(emit_report(v, "json"))
    assert doc["schema"] == 1
    assert doc["status"] == "no_obstruction_up_to"
    assert doc["convention"] == "row-right"
    assert doc["assertions"] == {"lerf": False, "detection": False}
    for r in doc["reports"]:
        assert set(r) == {"degree", "vanishing", "rank", "order", "order_skipped",
                          "field", "quotient", "character", "convention"}
        assert r["order_skipped"] is False
    text = emit_report(v, "text")
    assert "verdict: NO OBSTRUCTION up to order 3" in text
    with pytest.raises(ValueError):
        emit_report(v, "yaml")


def test_emit_report_obstructed_json():
    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 0, 0])
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=2))
    doc = json.loads(emit_report(v, "json"))
    assert doc["status"] == "obstructed"
    assert doc["witness"]["vanishing"] is True
    assert doc["witness"]["degree"] == 1


# Scalars of the documents that `json_text` writes, with strings that need
# escaping (quotes, backslashes, control characters) or are not ASCII.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=-(2 ** 70), max_value=-1)
                 | st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00", "é", "t^-1 ∂", "😀"]))


@settings(max_examples=200)
@given(doc=st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=30))
def test_json_text_is_json_dumps_with_indent_2(doc):
    from fibrecheck.fibring import json_text

    assert json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_refuses_what_it_does_not_write():
    from fibrecheck.fibring import json_text

    for doc in (1.5, {1: 2}, [set()]):
        with pytest.raises(TypeError):
            json_text(doc)


# SHA-256 of the JSON report of `scan --fixture f2xz --max-quotient-order 4
# --json FILE`; the CI smoke pins it too.
_F2XZ_ORDER_4_JSON = "826dd0460c1db206a12d880edf2d550122c2f9a7819d65f04683187ad71fd3ce"


@pytest.mark.parametrize("format", ["text", "json"])
def test_emit_report_renders_each_order_and_character_once(format, monkeypatch):
    # A kept quotient that reuses its orbit representative's reports shares
    # its order objects, and the reports carry two characters, chi and -chi.
    # One report renders each order object and each character once, and its
    # bytes are the pinned ones.
    from fibrecheck import alexander, fibring
    from fibrecheck.polyalg import LaurentPoly

    p, chi = load_fixture("f2xz")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    orders = Counter(id(r.order) for r in v.reports)
    assert len(v.reports) == 588 and len(orders) == 108  # 12 reports and 9 orders per job
    renders, characters = Counter(), Counter()
    render, render_character = LaurentPoly.render, fibring.render_character
    monkeypatch.setattr(LaurentPoly, "render", lambda f: renders.update([id(f)]) or render(f))
    monkeypatch.setattr(fibring, "render_character",
                        lambda p, c: characters.update([c]) or render_character(p, c))
    monkeypatch.setattr(alexander, "render_character", lambda p, c: pytest.fail("not memoised"))
    text = emit_report(v, format)
    assert renders.keys() == orders.keys() and max(renders.values()) == 1
    assert characters == Counter([chi, chi.negate()])
    digest = _F2XZ_ORDER_4_JSON if format == "json" else _F2XZ_ORDER_4[()]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fox_images_run_once_per_relator_per_orbit_representative(monkeypatch):
    # The chain over Z is built once per orbit of kept quotients under the
    # chi-fixing automorphisms of f2xz (a <-> b, the inversions of a and b,
    # and the Nielsen moves a -> ab, a -> ba, b -> ab, b -> ba, all fixing
    # chi = z) and read by every field: 12 orbits among 49 kept quotients.
    from fibrecheck import alexander

    walk, calls = alexander.fox_images, []
    monkeypatch.setattr(alexander, "fox_images", lambda rep, r: calls.append(r) or walk(rep, r))
    p, chi = load_fixture("f2xz")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    assert v.status == "no_obstruction_up_to" and len(v.config.fields) == 3
    assert len(v.tested_quotients) == 49
    assert len(calls) == len(p.relators) * 12


# SHA-256 of the stdout of `scan --fixture f2xz --max-quotient-order 4`, with
# the default fields (F2, F3, Q) and with Q first; the CI smoke pins both.
_F2XZ_ORDER_4 = {
    (): "4442d173e2d1b4b3c3bb5ec94e55ceb8a59ab5f4197a49ebe3b428abea84083d",
    ("--fields", "q,f2,f3"): "e5064e7a2a90465d6ea46dfd8b6ec9f8f2437154a9a71f5edc90d3e01cd8dbc7",
}


@pytest.mark.parametrize("fields, q_bounds", [((), 0), (("--fields", "q,f2,f3"), 12)])
def test_q_reads_the_rank_certificate_of_an_earlier_prime(fields, q_bounds, monkeypatch):
    # Each job's b1 has the unit minor of z's block, t P - I, so its rank is
    # |Q| over every field and no field bounds it; rank b2 is read on b2 less
    # that column block, 2|Q| x 2|Q|, by one bound per job and field.  Rank
    # over Q(t) >= rank over F_p(t) for the same integral rows, so once F2 has
    # proved that rank at its upper bound, Q eliminates nothing for it: 12
    # jobs, one per orbit of the 49 kept quotients.  Where Q comes first it
    # runs its own bound on every job.  No rank falls short, so Bareiss never
    # runs.
    from fibrecheck import alexander
    from fibrecheck.cli import main

    bound, calls = alexander.rank_lower_bound, Counter()

    def counted(m):
        assert m.rows == m.cols
        calls.update([m.field.name])
        return bound(m)

    monkeypatch.setattr(alexander, "rank_lower_bound", counted)
    monkeypatch.setattr(alexander, "rank_over_fraction_field", lambda m: pytest.fail("Bareiss ran"))
    out = io.StringIO()
    assert main(["scan", "--fixture", "f2xz", "--max-quotient-order", "4", *fields], out) == 0
    assert calls == Counter({"F2": 12, "F3": 12, "Q": q_bounds})
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _F2XZ_ORDER_4[fields]


def _z2_times_z4():
    """Z/2 x Z/4 as a table group, with (i, j) at id 4i + j."""
    from fibrecheck.quotients import FiniteGroup

    table = tuple(tuple(4 * ((a // 4 + b // 4) % 2) + (a + b) % 4 for b in range(8)) for a in range(8))
    return FiniteGroup(8, table, "Z2xZ4")


# Every fixture, at an order that keeps the scan short; with chi = a on f2xz
# the scan ends at its witness, the trivial quotient.  The table group
# Z/2 x Z/4 adds kept quotients onto a Klein four-group, which the catalog
# lacks, so their reports carry restricted labels, in orbits of a <-> b.
# Two direct products (f * g is `direct_product` of the fixtures f and g)
# have Nielsen moves within a block: a -> ab, a -> ba, b -> ab and b -> ba
# on F2 x Z^2 at chi = a1, and the Dehn twists a1 -> a1 b1, a2 -> a2 b2 and
# b2 -> b2 a2 on Sigma_2 x Z at chi = a1 + a.
_FIXTURE_SCANS = [("bs:1:2", None, 8, False), ("trefoil", None, 8, False),
                  ("klein", None, 8, False), ("zn:3", None, 5, False), ("zn:4", None, 4, False),
                  ("f:2", None, 4, False), ("f2xz", None, 6, False), ("f2xz", [1, 0, 0], 4, False),
                  ("f2xz", None, 4, True), ("surface:1", None, 6, False), ("surface:2", None, 2, False),
                  ("f:2*surface:1", [0, 0, 1, 0], 4, False),
                  ("surface:2*f:1", [1, 0, 0, 0, 1], 3, False)]


@pytest.mark.parametrize("name, values, order, extra", _FIXTURE_SCANS,
                         ids=[f"{n}-{o}" + ("-a" if v else "") + ("+Z2xZ4" if e else "")
                              for n, v, o, e in _FIXTURE_SCANS])
def test_orbit_reuse_matches_computing_every_job(name, values, order, extra, monkeypatch):
    # Reports reused across an orbit of the chi-fixing automorphisms are
    # those that computing every kept quotient's job gives, byte for byte.
    from fibrecheck import fibring

    if "*" in name:
        p = direct_product(*(load_fixture(factor)[0] for factor in name.split("*")))
        assert any(max(map(len, sigma)) > 1
                   for sigma in fibring.automorphisms(p, validate_character(p, values)))
    else:
        p, chi = load_fixture(name)
    if values is not None:
        chi = validate_character(p, values)
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=order,
                     extra_groups=(_z2_times_z4(),) if extra else ())
    reused = emit_report(scan(cfg), "json")
    if extra:
        assert "Z2xZ4>im4" in reused
    monkeypatch.setattr(fibring, "automorphisms", lambda p, chi: ())
    assert reused == emit_report(scan(cfg), "json")


def _assert_emitted_as_plainly_rendered(v):
    """Text and JSON `emit_report` of v against a renderer with no memo,
    which formats every report and every merged pair in full: the text's
    report and merged lines, and the JSON's witness, reports and merged
    pairs, written by `json.dumps`."""
    from fibrecheck.words import render_character

    p = v.config.presentation
    reports = [f"  [{r.quotient.name} ord {r.quotient.order} | {r.field.name} | "
               f"{render_character(p, r.character)}] deg {r.degree}: "
               f"{'VANISHING' if r.vanishing else 'nonvanishing'}, rank {r.rank_over_frac}, "
               f"order {r.order.render()}" for r in v.reports]
    merged = [f"  skipped {q.group.name} images {list(q.gen_images)} -> merged into "
              f"{rep.group.name} images {list(rep.gen_images)}" for q, rep in v.skipped_quotients]
    lines = emit_report(v, "text").splitlines()
    start = lines.index(f"reports: {len(reports)} computed, "
                        f"{sum(r.vanishing for r in v.reports)} vanishing") + 1
    assert lines[start:start + len(reports)] == reports
    assert lines[start + len(reports)].startswith("tested quotients: ")
    assert lines[start + len(reports) + 1:] == merged
    text = emit_report(v, "json")
    doc = json.loads(text)
    doc["witness"] = None if v.witness is None else v.witness.as_dict(p)
    doc["reports"] = [r.as_dict(p) for r in v.reports]
    doc["skipped_quotients"] = [{"quotient": q.label(), "merged_into": rep.label()}
                                for q, rep in v.skipped_quotients]
    assert text == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name, values, order, extra", _FIXTURE_SCANS,
                         ids=[f"{n}-{o}" + ("-a" if v else "") + ("+Z2xZ4" if e else "")
                              for n, v, o, e in _FIXTURE_SCANS])
def test_the_report_renders_every_report_as_a_plain_renderer_does(name, values, order, extra, jobs):
    # Each distinct report text is rendered once and reused under the
    # labels of the orbit's other members, and each merged-into label once:
    # the bytes are those of formatting every report and merged pair anew,
    # serially and from the pool, whose reports are unpickled objects.
    if "*" in name:
        p = direct_product(*(load_fixture(factor)[0] for factor in name.split("*")))
    else:
        p, chi = load_fixture(name)
    if values is not None:
        chi = validate_character(p, values)
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=order,
                     extra_groups=(_z2_times_z4(),) if extra else ())
    _assert_emitted_as_plainly_rendered(scan(cfg, jobs=jobs))


@settings(max_examples=6)
@given(data=st.data())
def test_the_report_renders_random_scans_as_a_plain_renderer_does(data):
    # The same on random presentations, half of them closed under a
    # symmetry, so that orbits and merged quotients occur.
    if data.draw(st.booleans()):
        p, chi, _, _ = data.draw(symmetric_presentations_with_quotient())
    else:
        p, chi, _ = data.draw(presentations_with_quotient())
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
    for jobs in (1, 2):
        _assert_emitted_as_plainly_rendered(scan(cfg, jobs=jobs))


@pytest.mark.parametrize("fixture, order, fields, kept, chains, symmetries, generators, moves, "
                         "registered, walks", [
    ("f2xz", 4, (F2, F3, Q), 49, 12, 6, 2, 4, 47, 49),
    ("f2xz", 12, (F2, F3, Q), 1174, 67, 6, 2, 4, 1491, 1195),
    ("zn:4", 6, (F2, F3, Q), 932, 117, 15, 3, 0, 951, 988),
    ("trefoil", 24, (F3,), 27, 27, 1, 1, 0, 3, 36),
], ids=["f2xz-4", "f2xz-12", "zn:4-6", "trefoil-24-f3"])
def test_one_chain_per_orbit(fixture, order, fields, kept, chains, symmetries, generators, moves,
                             registered, walks, monkeypatch):
    # One chain is built per orbit of kept quotients.  Each homomorphism
    # looks up one kernel key.  Registering an orbit walks its members
    # under the maps: the signed maps, reduced to a generating set (a ->
    # a^-1 and a <-> b on f2xz, x2 -> x2^-1, (x2 x3) and (x2 x4) on zn:4),
    # and the Nielsen moves (a -> ab, a -> ba, b -> ab and b -> ba on f2xz,
    # which is F2 x Z; none on zn:4, whose blocks are single generators, or
    # on the trefoil, whose chi is nonzero on both).  It looks a key up only
    # for an image tuple that the walk has not met yet, and no tuple of a
    # target twice, since orbits are disjoint: far fewer than one per member
    # and map ((generators + moves) * kept: 294, 7044, 2796 and
    # 27): into an abelian target a -> ab and a -> ba give one tuple, the
    # involutions take each member back to the one it came from, and the
    # trefoil's x <-> y fixes every cyclic image.  A lookup walks an image
    # only for the first of its orbit under the target's automorphisms
    # (`orbit_key`): on f2xz to order 4 once per kept kernel.  The trefoil
    # walks one image per order 1..24 for its cyclic quotients, 4 in S3 and
    # 8 in S4, one per conjugacy class of homomorphisms; its one symmetry,
    # x <-> y, moves each pair to a conjugate one and so walks nothing.
    from fibrecheck import fibring, quotients
    from fibrecheck.words import generating_subset

    built, walked, homs, lookups = [], [], [], []
    chain, walk, lookup = fibring.integral_chain, quotients._kernel_key, quotients.orbit_key

    monkeypatch.setattr(fibring, "integral_chain", lambda p, chi, q: built.append(q) or chain(p, chi, q))
    monkeypatch.setattr(quotients, "_kernel_key", lambda t, images: walked.append(images) or walk(t, images))
    monkeypatch.setattr(quotients, "orbit_key",
                        lambda target, images, memo: homs.append(images) or lookup(target, images, memo))
    monkeypatch.setattr(fibring, "orbit_key",
                        lambda target, images, memo:
                        lookups.append((id(target), images)) or lookup(target, images, memo))
    p, chi = load_fixture(fixture)
    found = fibring.automorphisms(p, chi)
    assert len(found) == symmetries + moves
    assert sum(max(map(len, sigma)) > 1 for sigma in found) == moves
    assert len(generating_subset(found)) == generators + moves
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=order, fields=fields))
    assert v.status == "no_obstruction_up_to"
    assert (len(v.tested_quotients), len(built)) == (kept, chains)
    assert len(homs) == len(v.tested_quotients) + len(v.skipped_quotients)
    assert len(lookups) == len(set(lookups)) == registered
    assert len(walked) == walks


def test_a_scan_walks_each_homomorphisms_image_once(monkeypatch):
    # The stream takes each homomorphism's kernel key from the enumeration,
    # which walks an image only for the first homomorphism of each orbit of
    # its target's automorphisms, and no image twice; on f2xz to order 4
    # every merged homomorphism lies in the orbit of the kept one, so the 100
    # homomorphisms cost 49 walks, one per kept kernel.  Nothing calls
    # `image_closure`, not even for the kept quotients onto a proper image
    # that the table group Z/2 x Z/4 adds.  The catalog is built before the
    # walks are counted, as Light's test walks subgroups of each table.
    from fibrecheck import fibring, quotients

    monkeypatch.setattr(quotients, "image_closure", lambda g, seeds: pytest.fail("image_closure ran"))
    p, chi = load_fixture("f2xz")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4,
                        extra_groups=(_z2_times_z4(),)))
    assert not all(q.surjective for q in v.tested_quotients)
    catalog = (quotients.trivial_group(),) + quotients.build_catalog(4)
    monkeypatch.setattr(fibring, "trivial_group", lambda: catalog[0])
    monkeypatch.setattr(fibring, "build_catalog", lambda order, extra: catalog[1:])
    walks = Counter()
    labels = quotients._labels
    monkeypatch.setattr(quotients, "_labels",
                        lambda t, images: walks.update([(id(t), tuple(images))]) or labels(t, images))
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    homs = Counter((id(q.group.table), q.gen_images)
                   for q in v.tested_quotients + tuple(q for q, _ in v.skipped_quotients))
    assert len(homs) == 100 and max(homs.values()) == 1
    assert max(walks.values()) == 1 and set(walks) <= set(homs)
    assert sum(walks.values()) == len(v.tested_quotients) == 49


def test_a_scan_builds_a_finite_group_only_for_its_targets(monkeypatch):
    # Every kept quotient is read as its image's action off its target's
    # table, so the trefoil scan to order 24 builds a FiniteGroup for the
    # trivial group and the catalog's targets only, not for the image S4>im12
    # or any other.  Those are groups by construction: without --extra-group
    # no table is put to Light's test.
    from fibrecheck import quotients

    catalog = quotients.build_catalog(24)
    built, tested = [], []
    init, light = quotients.FiniteGroup.__init__, quotients._is_associative
    monkeypatch.setattr(quotients.FiniteGroup, "__init__",
                        lambda self, order, table, name, perms=None:
                        built.append(name) or init(self, order, table, name, perms))
    monkeypatch.setattr(quotients, "_is_associative", lambda table: tested.append(len(table)) or light(table))
    p, chi = load_fixture("trefoil")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=24, fields=(F3,)))
    assert sorted(built) == sorted(["trivial"] + [g.name for g in catalog])
    assert tested == []
    assert "S4>im12" in {r.quotient.name for r in v.reports}


def test_only_a_job_builds_its_image_action(monkeypatch):
    # f2xz to order 8 runs 35 jobs for 343 kept quotients, and only the jobs
    # build an image action, with its permutations, in the scan or when its
    # reports are read; every other kept quotient is labelled from its
    # image's elements (`image_label`), with the label that `image_action`
    # gives.  The table group Z/2 x Z/4 adds reused quotients onto a Klein
    # four-group (Z2xZ4>im4), not onto their target, beside the reused ones
    # onto theirs.  Every homomorphism of F2 into S4 checks `image_label`
    # against `image_action` directly, on images such as S4>im12 too, whose
    # elements are not met in ascending order.
    from fibrecheck.quotients import (ImageAction, enumerate_homs, image_action, image_label,
                                      symmetric_group)

    homs = enumerate_homs(load_fixture("f:2")[0], symmetric_group(4))
    assert "S4>im12" in {image_label(q).name for q in homs}
    for q in homs:
        assert image_label(q).label() == image_action(q).label()

    built, init = [], ImageAction.__init__
    monkeypatch.setattr(ImageAction, "__init__",
                        lambda self, *args: built.append(args[0]) or init(self, *args))
    p, chi = load_fixture("f2xz")
    reused = []
    for order, extra in ((8, ()), (4, (_z2_times_z4(),))):
        built.clear()
        v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=order,
                            extra_groups=extra))
        labels = [label for _, label in v.labelled_chunks()]
        assert len(v.reports) == sum(len(v.chunks[c]) for c in v.chunk_of)
        assert len(built) == len(v.chunks) < len(v.tested_quotients)
        if order == 8:
            assert (len(v.chunks), len(v.tested_quotients)) == (35, 343)
        for q, label in zip(v.tested_quotients, labels, strict=True):
            assert label.label() == image_action(q).label()
            if label.__class__ is not ImageAction:
                reused.append((q.surjective, label.name))
    assert ((False, "Z2xZ4>im4") in reused) and any(onto for onto, _ in reused)


def test_the_text_report_is_streamed_a_block_at_a_time():
    # The text report of f2xz to order 16 (2607 kept quotients, 31284 report
    # lines) goes to its stream in pieces, none as large as an eighth of it,
    # and the pieces join to the pinned bytes and to the string form.
    class Sink:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    p, chi = load_fixture("f2xz")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=16))
    sink = Sink()
    assert emit_report(v, "text", sink) is None
    text = "".join(sink.writes)
    assert hashlib.sha256(text.encode()).hexdigest() == _F2XZ_ORDER_16
    assert max(map(len, sink.writes)) < len(text) / 8
    assert emit_report(v, "text") == text


# SHA-256 of the stdout of `scan --fixture f2xz --max-quotient-order 16`; the
# CI smoke pins it too, serially and with --jobs 2.
_F2XZ_ORDER_16 = "48d070bd3436c643c6ba59b5c1ae17a4c90c4aa18ab61064adbe35f37a021fa2"


def test_reproducer_names_the_quotient_that_was_computed(monkeypatch):
    # A failed cross-check ends with an `alex` line for the quotient as given,
    # s4:1,2,0, not its restriction S4>im6, which `alex` cannot parse; in a
    # scan, where an orbit's other quotients reuse its reports, the line names
    # the quotient whose chain was built.  The line runs in bash.
    import os
    import shlex
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    from fibrecheck import fibring
    from fibrecheck.alexander import InternalCheckError, TwistedChain, full_report
    from fibrecheck.cli import _parse_quotient
    from fibrecheck.quotients import image_action, make_quotient, symmetric_group

    def fields(q):
        return q.group.name, q.group.order, q.gen_images, q.surjective

    def argument(message, flag):
        line = message.splitlines()[-1]
        assert line.startswith("reproduce: fibrecheck alex --pres <(printf ")
        words = shlex.split(line.split(") ", 1)[1])
        return words[words.index(flag) + 1]

    p, chi = load_fixture("f2xz")
    q = make_quotient(p, symmetric_group(4), (1, 2, 0))
    with monkeypatch.context() as m:
        m.setattr(TwistedChain, "rank_b2", lambda c: 0)
        with pytest.raises(InternalCheckError) as err:
            full_report(p, chi, q, CoefficientField.prime(2))
    message = str(err.value)
    assert "S4>im6" in message and argument(message, "--quotient") == "s4:1,2,0"
    assert (argument(message, "--char"), argument(message, "--field")) == ("a=0, b=0, z=1", "f2")
    assert fields(_parse_quotient(p, argument(message, "--quotient"))) == fields(q)
    bash = shutil.which("bash")
    if bash:
        line = message.splitlines()[-1].removeprefix("reproduce: ")
        line = line.replace("fibrecheck", f"{shlex.quote(sys.executable)} -m fibrecheck.cli", 1)
        src = str(Path(fibring.__file__).parents[1])
        run = subprocess.run([bash, "-c", line], capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert "quotient: S4>im6 (order 6), images [1, 2, 0]" in run.stdout

    built = []
    chain, rank_b2 = fibring.integral_chain, TwistedChain.rank_b2
    monkeypatch.setattr(fibring, "integral_chain", lambda p, chi, q: built.append(q) or chain(p, chi, q))
    monkeypatch.setattr(TwistedChain, "rank_b2", lambda c: 0 if c.block_size == 4 else rank_b2(c))
    with pytest.raises(InternalCheckError) as err:
        scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    assert fields(_parse_quotient(p, argument(str(err.value), "--quotient"))) == fields(built[-1])
    assert image_action(built[-1]).order == 4


@settings(max_examples=4)
@given(data=st.data())
def test_serial_and_pool_scans_agree_on_random_presentations(data):
    # The pool runs only the orbit representatives' jobs and the scan reuses
    # their reports in stream order, as a serial run does: the same bytes,
    # which are also those of computing every job.  Half the presentations
    # are closed under a symmetry, so orbits occur; on the others, a
    # generator that no relator contains has Nielsen moves.
    from fibrecheck import fibring

    if data.draw(st.booleans()):
        p, chi, _, _ = data.draw(symmetric_presentations_with_quotient())
    else:
        p, chi, _ = data.draw(presentations_with_quotient())
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
    serial = emit_report(scan(cfg), "json")
    assert serial == emit_report(scan(cfg, jobs=2), "json")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fibring, "automorphisms", lambda p, chi: ())
        assert serial == emit_report(scan(cfg), "json")


@pytest.mark.parametrize("name, order", [("f2xz", 6), ("trefoil", 8)])
def test_the_stream_merges_exactly_the_quotients_of_one_kernel(name, order):
    # A skipped quotient has its representative's `_kernel_key` and the kept
    # ones have distinct keys, with the Klein four-group V4 (g*h = g XOR h)
    # as a table target before S3.  The two tables' element ids name other
    # elements, so each table target has a memo of its own: one memo shared
    # by both would give S3 homomorphisms the keys of V4's.
    from fibrecheck import fibring
    from fibrecheck.quotients import FiniteGroup, _kernel_key

    def key(q):
        return _kernel_key(q.group.table, q.gen_images)

    klein = FiniteGroup(4, tuple(tuple(g ^ h for h in range(4)) for g in range(4)), "V4")
    p, chi = load_fixture(name)
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=order, extra_groups=(klein,))
    kept = set()
    for kind, q, rep in fibring._quotient_stream(p, cfg):
        if kind == "kept":
            assert key(q) not in kept, q.label()
            kept.add(key(q))
        else:
            target, images = q
            assert _kernel_key(target.table, images) == key(rep), (target.name, images, rep.label())
    assert len(kept) > order


@settings(max_examples=20)
@given(data=st.data())
def test_a_generating_set_registers_the_orbits_of_all_maps(data):
    # An orbit is the closure under the maps, and the closure under a
    # generating set of the signed maps, with the Nielsen moves beside it,
    # is the same: registering with the reduced signed maps gives every
    # kept quotient the representative position that registering with all
    # of them gives.
    from fibrecheck import fibring

    if data.draw(st.booleans()):
        p, chi, _, _ = data.draw(symmetric_presentations_with_quotient())
    else:
        p, chi, _ = data.draw(presentations_with_quotient())
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=6)

    def events():
        return [(kind, q.label(), rep) if kind == "kept" else (kind, q[0].name, q[1], rep.label())
                for kind, q, rep in fibring._quotient_stream(p, cfg)]

    reduced = events()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fibring, "generating_subset", lambda maps: maps)
        assert reduced == events()
