import hashlib
import io
import json
from collections import Counter

import pytest

from fibrecheck.fibring import ScanConfig, emit_report, product_vanishing_test, scan
from fibrecheck.fixtures import load_fixture
from fibrecheck.polyalg import CoefficientField
from fibrecheck.quotients import trivial_quotient
from fibrecheck.words import validate_character

Q = CoefficientField.rationals()


def test_scan_rejects_bad_config():
    p, chi = load_fixture("bs:1:2")
    with pytest.raises(ValueError, match="non-trivial character"):
        scan(ScanConfig(presentation=p, character=validate_character(p, [0, 0])))
    with pytest.raises(ValueError):
        scan(ScanConfig(presentation=p, character=chi, fields=()))
    with pytest.raises(ValueError):
        scan(ScanConfig(presentation=p, character=chi, max_quotient_order=0))


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
    assert v.witness.quotient.group.name == "trivial"
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
    assert v.witness.quotient.group.name == "trivial"
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
    from fibrecheck.quotients import restrict_to_image
    from dense_oracle import chain_over, h1_order

    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 0, 0])
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    w = v.witness
    chain = chain_over(build_representation(
        p, w.character, restrict_to_image(p, w.quotient)), w.field)
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


def test_fox_images_run_once_per_relator_per_kept_quotient(monkeypatch):
    # The chain over Z is built once per kept quotient and read by every field.
    from fibrecheck import alexander

    walk, calls = alexander.fox_images, []
    monkeypatch.setattr(alexander, "fox_images", lambda rep, r: calls.append(r) or walk(rep, r))
    p, chi = load_fixture("f2xz")
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=4))
    assert v.status == "no_obstruction_up_to" and len(v.config.fields) == 3
    assert len(calls) == len(p.relators) * len(v.tested_quotients) == 2 * 49


# SHA-256 of the stdout of `scan --fixture f2xz --max-quotient-order 4`, with
# the default fields (F2, F3, Q) and with Q first; the CI smoke pins both.
_F2XZ_ORDER_4 = {
    (): "4442d173e2d1b4b3c3bb5ec94e55ceb8a59ab5f4197a49ebe3b428abea84083d",
    ("--fields", "q,f2,f3"): "e5064e7a2a90465d6ea46dfd8b6ec9f8f2437154a9a71f5edc90d3e01cd8dbc7",
}


@pytest.mark.parametrize("fields, q_bounds", [((), 0), (("--fields", "q,f2,f3"), 49)])
def test_q_reads_the_rank_certificate_of_an_earlier_prime(fields, q_bounds, monkeypatch):
    # Each job's b1 has the unit minor of z's block, t P - I, so its rank is
    # |Q| over every field and no field bounds it; rank b2 is read on b2 less
    # that column block, 2|Q| x 2|Q|, by one bound per job and field.  Rank
    # over Q(t) >= rank over F_p(t) for the same integral rows, so once F2 has
    # proved that rank at its upper bound, Q eliminates nothing for it: 49
    # jobs.  Where Q comes first it runs its own bound on every job.  No rank
    # falls short, so Bareiss never runs.
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
    assert calls == Counter({"F2": 49, "F3": 49, "Q": q_bounds})
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _F2XZ_ORDER_4[fields]
