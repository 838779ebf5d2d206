import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck.fixtures import load_fixture
from fibrecheck.quotients import (
    FiniteGroup,
    _check_table,
    _kernel_key,
    build_catalog,
    cyclic_group,
    enumerate_homs,
    image_action,
    image_closure,
    kernel_key,
    keyed_homs,
    load_table_group,
    make_quotient,
    symmetric_group,
    trivial_group,
    trivial_quotient,
)
from fibrecheck.words import parse_presentation
from quotient_oracle import is_associative_brute, same_kernel
from random_presentations import PROPERTY_TARGETS, presentations_with_quotient

F2 = parse_presentation("gens: a b\nrels:")
BS12 = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
Z = parse_presentation("gens: t\nrels:")


def test_group_validation():
    with pytest.raises(ValueError):
        load_table_group("order: 2\n0 1\n1 1", "bad")  # 1 has no inverse
    with pytest.raises(ValueError):
        load_table_group("order: 2\n1 0\n0 1", "bad")  # 0 not the identity
    with pytest.raises(ValueError, match="not associative"):
        # identity 0 and right inverses, but (1*1)*2 = 2 and 1*(1*2) = 1
        load_table_group("order: 3\n0 1 2\n1 0 0\n2 0 0", "bad")
    g = load_table_group("order: 2\n0 1\n1 0", "C2")
    assert g.order == 2 and g.inverse(1) == 1


_KLEIN = FiniteGroup(4, tuple(tuple(g ^ h for h in range(4)) for g in range(4)), "V4")


@st.composite
def _tables(draw):
    """Tables of order <= 4 with identity 0: a group relabelled, some
    entries overwritten or not, or all other entries random."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rest = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
        return tuple(tuple(g if h == 0 else h if g == 0 else rest[(g - 1) * (n - 1) + h - 1]
                           for h in range(n)) for g in range(n))
    base = draw(st.sampled_from([g for g in (cyclic_group(n), _KLEIN) if g.order == n]))
    relabel = [0] + draw(st.permutations(range(1, n)))
    table = [[0] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            table[relabel[g]][relabel[h]] = relabel[base.table[g][h]]
    if n > 1:
        for _ in range(draw(st.integers(0, 2))):
            g, h = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            table[g][h] = draw(st.integers(0, n - 1))
    return tuple(map(tuple, table))



@pytest.mark.parametrize("table, message", [
    (((0, 1), (1,)), "malformed multiplication table"),
    (((0, 1), (1, 2)), "table entry out of range"),
    (((0, 1), (1, -1)), "table entry out of range"),
    (((1, 0), (0, 1)), "id 0 is not an identity element"),
    (((0, 1), (0, 1)), "id 0 is not an identity element"),
    (((0, 1, 2), (1, 1, 2), (2, 2, 2)), "element 1 has no inverse"),
    (((0, 1, 2), (1, 0, 0), (2, 0, 1)), "table is not associative"),
], ids=["ragged", "too-large", "negative", "row-0", "column-0", "no-inverse", "not-associative"])
def test_malformed_tables_are_refused(table, message):
    # Each check of a table, in the order they run; a table can come from a
    # --extra-group file.
    with pytest.raises(ValueError, match=message):
        _check_table(len(table), table)


@settings(max_examples=300)
@given(table=_tables())
def test_associativity_check_matches_triple_loop(table):
    # Light's test rejects exactly the tables the triple loop rejects.
    n = len(table)
    if not all(0 in row for row in table):
        expected = "has no inverse"
    elif not is_associative_brute(table):
        expected = "not associative"
    else:
        _check_table(n, table)
        return
    with pytest.raises(ValueError, match=expected):
        _check_table(n, table)


def test_the_catalog_groups_pass_the_table_check():
    # The catalog's Z/m and S_n are built without the check, as groups by
    # construction; each of their tables, and the trivial group's, passes it.
    for g in (trivial_group(),) + build_catalog(120):
        _check_table(g.order, g.table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_composes_left_to_right(n):
    # S_n lists the permutations of 0..n-1 in lexicographic order, the
    # identity first, and its table composes left to right: (g*h)(x) =
    # h(g(x)).  S0 and S1 skip itemgetter, which gives a scalar for one
    # index; S2 and up are built through it.
    g = symmetric_group(n)
    perms = list(itertools.permutations(range(n)))
    assert (g.order, g.name, g.perms) == (len(perms), f"S{n}", tuple(perms))
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            assert perms[g.table[a][b]] == tuple(pb[pa[x]] for x in range(n))


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


def _brute_force_homs(p, target) -> list[tuple[int, ...]]:
    """Every image tuple that kills every relator, by full relator evaluation."""
    return [images for images in itertools.product(range(target.order), repeat=p.generator_count)
            if all(target.word_image(r, images) == 0 for r in p.relators)]


@settings(max_examples=40)
@given(data=st.data())
def test_enumerate_homs_brute_force_agreement(data):
    # Independent oracle: test all image tuples with full relator evaluation.
    # A random presentation runs the targets in catalog order, the trivial
    # group first, with the memos a scan uses: one shared by the cyclic
    # targets, searched by exponent sums, and one of its own for each table
    # target, V4 and S3, searched through its table.  Every key is the
    # walk's own even where the memo gave it from another homomorphism or
    # target.
    for p, target in ((BS12, cyclic_group(4)), (BS12, symmetric_group(3)),
                      (parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1"), symmetric_group(3))):
        assert [h.gen_images for h in enumerate_homs(p, target)] == _brute_force_homs(p, target)
    p, _, _ = data.draw(presentations_with_quotient())
    memo: dict = {}
    for target in [trivial_group()] + sorted(PROPERTY_TARGETS + [_KLEIN], key=lambda g: (g.order, g.name)):
        homs = keyed_homs(p, target, memo if target.cyclic else {})
        assert [images for images, _ in homs] == _brute_force_homs(p, target)
        for images, key in homs:
            assert key == _kernel_key(target.table, images)


def test_cyclic_targets_are_recognised_by_their_table():
    # The exponent-sum search and the unit orbits run on Z/m's own table,
    # whatever its name; a relabelled Z/4 or any other table takes the
    # table search and the conjugation orbits, with the same homomorphisms.
    assert all(cyclic_group(m).cyclic for m in range(1, 13)) and trivial_group().cyclic
    assert not symmetric_group(3).cyclic and not _KLEIN.cyclic
    assert load_table_group("order: 3\n0 1 2\n1 2 0\n2 0 1", "C3").cyclic
    relabelled = load_table_group("order: 4\n0 1 2 3\n1 0 3 2\n2 3 1 0\n3 2 0 1", "C4")
    assert not relabelled.cyclic
    for p in (BS12, Z, F2):
        assert [q.gen_images for q in enumerate_homs(p, relabelled)] == _brute_force_homs(p, relabelled)


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


@settings(max_examples=40)
@given(data=st.data())
def test_keyed_homs_match_kernel_key_and_image_closure(data):
    # The enumeration walks each image once; the key it labels is
    # `kernel_key`'s, and the walk's length decides surjectivity as
    # `image_closure` does, for every homomorphism, in lexicographic order.
    p, _, _ = data.draw(presentations_with_quotient())
    for target in PROPERTY_TARGETS:
        homs = keyed_homs(p, target)
        assert [images for images, _ in homs] == sorted({images for images, _ in homs})
        for (images, key), q in zip(homs, enumerate_homs(p, target), strict=True):
            assert q.gen_images == images and key == kernel_key(q)
            assert q.surjective == (len(key[0]) == target.order)
            assert q.surjective == (len(image_closure(target, images)) == target.order)


def test_kernel_key_matches_same_kernel():
    # Every fixture, catalog to order 12: equal keys exactly when same_kernel.
    catalog = build_catalog(12)
    for name in ("bs:1:2", "trefoil", "klein", "zn:2", "f:2", "f2xz", "surface:1"):
        p, _ = load_fixture(name)
        buckets: dict = {}
        for q in [trivial_quotient(p)] + [h for g in catalog for h in enumerate_homs(p, g)]:
            buckets.setdefault(kernel_key(q), []).append(q)
        representatives: dict[int, list] = {}
        for key, members in buckets.items():
            assert all(same_kernel(p, members[0], q) for q in members[1:]), (name, key)
            representatives.setdefault(len(key[0]), []).append(members[0])
        for same_order in representatives.values():
            for q1, q2 in itertools.combinations(same_order, 2):
                assert not same_kernel(p, q1, q2), (name, q1, q2)


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
    # A name is deduplicated only with its own table: an extra S3 with S3's
    # table is the catalog's S3, with Z/6's or Z/4's it is refused instead of
    # one of the two tables being dropped.
    for other in (symmetric_group(3), cyclic_group(6), cyclic_group(4)):
        text = f"order: {other.order}\n" + "\n".join(" ".join(map(str, row)) for row in other.table)
        extras = [load_table_group(text, "S3")]
        if other.name == "S3":
            assert [g.perms is not None for g in build_catalog(6, extras) if g.name == "S3"] == [True]
        else:
            with pytest.raises(ValueError, match="two different tables are named S3"):
                build_catalog(6, extras)


def test_image_action_restricts_to_the_image():
    q = make_quotient(Z, cyclic_group(4), (2,))
    assert not q.surjective
    r = image_action(q)
    assert (r.name, r.order, r.gen_images) == ("Z/4>im2", 2, (1,))
    assert r.perms == r.inverses == ((1, 0),)
    # all-trivial images restrict to the trivial group
    r0 = image_action(make_quotient(F2, cyclic_group(5), (0, 0)))
    assert r0.label() == {"name": "trivial", "order": 1, "gen_images": [0, 0]}
    assert r0.perms == r0.inverses == ((0,), (0,))
    # A surjective quotient keeps its target's ids: its permutations are the
    # table's columns at the generator images and at their inverses.
    s3 = symmetric_group(3)
    r3 = image_action(make_quotient(F2, s3, (1, 3)))
    assert (r3.name, r3.order, r3.gen_images) == ("S3", 6, (1, 3))
    for a, perm, inverse in zip((1, 3), r3.perms, r3.inverses):
        assert perm == tuple(row[a] for row in s3.table)
        assert inverse == tuple(row[s3.inverse(a)] for row in s3.table)


def test_image_action_labels_a_subgroup_of_s4_by_ascending_ambient_id():
    # Every homomorphism of F2 into S4: the points of its action are the
    # image's elements in ascending ambient id, and each permutation is right
    # multiplication by a generator's image, or by its inverse, there.
    s4 = symmetric_group(4)
    orders = set()
    for q in enumerate_homs(F2, s4):
        r = image_action(q)
        elements = sorted(image_closure(s4, q.gen_images))
        label = {e: i for i, e in enumerate(elements)}
        orders.add(r.order)
        assert r.order == len(elements)
        assert r.name == ("S4" if q.surjective else "trivial" if r.order == 1
                          else f"S4>im{r.order}")
        assert r.gen_images == tuple(label[a] for a in q.gen_images)
        for a, perm, inverse in zip(q.gen_images, r.perms, r.inverses):
            assert perm == tuple(label[s4.mul(e, a)] for e in elements)
            assert inverse == tuple(label[s4.mul(e, s4.inverse(a))] for e in elements)
    assert orders == {1, 2, 3, 4, 6, 8, 12, 24}


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
    from fibrecheck.words import validate_character

    chi = validate_character(BS12, [0, 1])
    for target in (cyclic_group(4), symmetric_group(3)):
        for q in enumerate_homs(BS12, target):
            build_representation(BS12, chi, q)


def test_trivial_quotient():
    q = trivial_quotient(BS12)
    assert q.group.order == 1 and q.surjective
    assert trivial_group().name == "trivial"
