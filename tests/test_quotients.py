import itertools
import random

import pytest

from fibrecheck.quotients import (
    build_catalog,
    cyclic_group,
    enumerate_homs,
    image_closure,
    load_table_group,
    make_quotient,
    regular_representation,
    restrict_to_image,
    same_kernel,
    symmetric_group,
    trivial_group,
    trivial_quotient,
)
from fibrecheck.words import parse_presentation

F2 = parse_presentation("gens: a b\nrels:")
BS12 = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
Z = parse_presentation("gens: t\nrels:")


def test_group_validation():
    with pytest.raises(ValueError):
        load_table_group("order: 2\n0 1\n1 1", "bad")  # 1 has no inverse
    with pytest.raises(ValueError):
        load_table_group("order: 2\n1 0\n0 1", "bad")  # 0 not the identity
    g = load_table_group("order: 2\n0 1\n1 0", "C2")
    assert g.order == 2 and g.inverse(1) == 1


def test_enumerate_homs_counts():
    s3 = symmetric_group(3)
    homs = enumerate_homs(F2, s3)
    epis = enumerate_homs(F2, s3, surjective_only=True)
    assert len(homs) == 36
    assert len(epis) == 18

    z3 = cyclic_group(3)
    assert len(enumerate_homs(BS12, z3)) == 3
    assert len(enumerate_homs(BS12, z3, surjective_only=True)) == 2

    z2 = cyclic_group(2)
    assert len(enumerate_homs(Z, z2)) == 2
    assert len(enumerate_homs(Z, z2, surjective_only=True)) == 1


def test_enumerate_homs_brute_force_agreement():
    # Independent oracle: test all image tuples with full relator evaluation.
    for p, target in ((BS12, cyclic_group(4)), (BS12, symmetric_group(3)),
                      (parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1"), symmetric_group(3))):
        expected = []
        for images in itertools.product(range(target.order), repeat=p.generator_count):
            if all(target.word_image(r, images) == 0 for r in p.relators):
                expected.append(images)
        got = enumerate_homs(p, target)
        assert [h.gen_images for h in got] == expected


def test_enumerate_homs_deterministic_order():
    homs = enumerate_homs(F2, cyclic_group(3))
    assert [h.gen_images for h in homs] == sorted(h.gen_images for h in homs)


def test_image_closure():
    s3 = symmetric_group(3)
    transpositions = [i for i, p in enumerate(s3.perms) if sorted(p) == [0, 1, 2] and sum(p[j] != j for j in range(3)) == 2]
    assert len(image_closure(s3, transpositions[:2])) == 6
    z4 = cyclic_group(4)
    assert image_closure(z4, [2]) == {0, 2}
    assert image_closure(z4, []) == {0}


def test_same_kernel_examples():
    z3 = cyclic_group(3)
    q1 = make_quotient(Z, z3, (1,))
    q2 = make_quotient(Z, z3, (2,))
    assert same_kernel(Z, q1, q2)
    q3 = make_quotient(Z, cyclic_group(2), (1,))
    assert not same_kernel(Z, q1, q3)


def test_same_kernel_is_equivalence():
    s3 = symmetric_group(3)
    homs = enumerate_homs(F2, s3)
    rng = random.Random(21)
    sample = rng.sample(homs, 12)
    for q in sample:
        assert same_kernel(F2, q, q)
    for q1, q2 in itertools.combinations(sample, 2):
        assert same_kernel(F2, q1, q2) == same_kernel(F2, q2, q1)
    for q1, q2, q3 in itertools.combinations(sample, 3):
        if same_kernel(F2, q1, q2) and same_kernel(F2, q2, q3):
            assert same_kernel(F2, q1, q3)


def test_regular_representation():
    z3 = cyclic_group(3)
    assert regular_representation(z3, 0) == [0, 1, 2]
    assert regular_representation(z3, 1) == [1, 2, 0]
    z2 = cyclic_group(2)
    assert regular_representation(z2, 1) == [1, 0]


def test_build_catalog():
    cat = build_catalog(6)
    assert [g.name for g in cat] == ["Z/2", "Z/3", "Z/4", "Z/5", "S3", "Z/6"]
    assert build_catalog(1) == ()
    names24 = [g.name for g in build_catalog(24)]
    assert "S4" in names24


def test_build_catalog_extras_dedup():
    extra = load_table_group("order: 2\n0 1\n1 0", "C2")
    cat = build_catalog(3, [extra, extra])
    assert [g.name for g in cat] == ["C2", "Z/2", "Z/3"]
    orders = [g.order for g in cat]
    assert orders == sorted(orders)


def test_restrict_to_image():
    q = make_quotient(Z, cyclic_group(4), (2,))
    assert not q.surjective
    r = restrict_to_image(Z, q)
    assert r.surjective and r.group.order == 2 and r.gen_images == (1,)
    # all-trivial images restrict to the trivial group
    q0 = make_quotient(F2, cyclic_group(5), (0, 0))
    r0 = restrict_to_image(F2, q0)
    assert r0.group.name == "trivial" and r0.group.order == 1


def test_hom_counts_match_abelianization():
    # |Hom(G, Z/m)| = m^(free rank) * prod gcd(d_i, m), with d_i the integer
    # invariant factors of the relator exponent matrix.
    def integer_snf_diagonal(mat):
        mat = [row[:] for row in mat]
        rows, cols = len(mat), len(mat[0]) if mat else 0
        diag = []
        k = 0
        while k < min(rows, cols):
            pivot = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if mat[i][j] != 0 and (pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            i0, j0 = pivot
            mat[k], mat[i0] = mat[i0], mat[k]
            for row in mat:
                row[k], row[j0] = row[j0], row[k]
            dirty = False
            for i in range(k + 1, rows):
                q = mat[i][k] // mat[k][k]
                for j in range(k, cols):
                    mat[i][j] -= q * mat[k][j]
                dirty = dirty or mat[i][k] != 0
            for j in range(k + 1, cols):
                q = mat[k][j] // mat[k][k]
                for i in range(k, rows):
                    mat[i][j] -= q * mat[i][k]
                dirty = dirty or mat[k][j] != 0
            if dirty:
                continue
            bad = next((i for i in range(k + 1, rows)
                        for j in range(k + 1, cols) if mat[i][j] % mat[k][k] != 0), None)
            if bad is not None:
                for j in range(k, cols):
                    mat[k][j] += mat[bad][j]
                continue
            diag.append(abs(mat[k][k]))
            k += 1
        return diag

    import math

    fixtures = [
        BS12,
        parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1"),
        parse_presentation("gens: a t\nrels: t a t^-1 a"),
        parse_presentation("gens: a b z\nrels: a z a^-1 z^-1 ; b z b^-1 z^-1"),
    ]
    for p in fixtures:
        g = p.generator_count
        exponent_rows = []
        for r in p.relators:
            sums = [0] * g
            for x in r.letters:
                sums[abs(x) - 1] += 1 if x > 0 else -1
            exponent_rows.append(sums)
        diag = integer_snf_diagonal(exponent_rows) if exponent_rows else []
        free_rank = g - len(diag)
        for m in (2, 3, 4, 5, 6):
            expected = m ** free_rank
            for d in diag:
                expected *= math.gcd(d, m)
            assert len(enumerate_homs(p, cyclic_group(m))) == expected


def test_quotients_reverified_through_representation():
    # Every enumerated quotient passes the phi(relator) = identity check.
    from fibrecheck.foxcalc import build_representation
    from fibrecheck.polyalg import CoefficientField
    from fibrecheck.words import validate_character

    chi = validate_character(BS12, [0, 1])
    for target in (cyclic_group(4), symmetric_group(3)):
        for q in enumerate_homs(BS12, target):
            build_representation(BS12, chi, restrict_to_image(BS12, q), CoefficientField.prime(2))


def test_trivial_quotient():
    q = trivial_quotient(BS12)
    assert q.group.order == 1 and q.surjective
    assert trivial_group().name == "trivial"
