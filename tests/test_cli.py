import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibrecheck
from fibrecheck.cli import COMMANDS, main, parse_args

GOLDEN = Path(__file__).parent / "golden"

# Every command documented in the README, checked byte-for-byte.
DOCUMENTED = {
    "alex_bs12_trivial.txt": ["alex", "--fixture", "bs:1:2", "--quotient", "trivial"],
    "scan_f2xz_a1.txt": ["scan", "--fixture", "f2xz", "--char", "a=1"],
    "homs_f2_s3_epi.txt": ["homs", "--fixture", "f:2", "--target", "s3", "--epi-only"],
    "untwist_trefoil_s3.json": ["untwist-check", "--fixture", "trefoil", "--quotient", "s3:2,1"],
}


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("golden_name", sorted(DOCUMENTED))
def test_documented_examples_match_golden(golden_name):
    code, out = run_cli(DOCUMENTED[golden_name])
    assert code == 0
    assert out == (GOLDEN / golden_name).read_text()


@pytest.mark.parametrize("argv, vanishing", [
    (["scan", "--fixture", "trefoil", "--max-quotient-order", "6"], False),
    (["untwist-check", "--fixture", "f2xz", "--quotient", "z6:1,1,0"], False),
    (["alex", "--fixture", "f2xz", "--char", "a=1", "--quotient", "z3:1,0,0", "--field", "q"], True),
], ids=["scan", "untwist-check", "alex-vanishing"])
def test_production_multiplies_no_matrices(argv, vanishing, monkeypatch):
    # Chains are filled from the group table and checked in the group ring:
    # no module of the package defines a matrix product or binds the dense
    # matrix of the tests, and Bareiss, which every vanishing verdict runs,
    # reads the chain's sparse integer rows.
    import importlib
    import pkgutil

    from fibrecheck import alexander
    from fibrecheck.polyalg import SparseMatrix

    names = [m.name for m in pkgutil.iter_modules(fibrecheck.__path__) if m.name != "__main__"]
    for module in [fibrecheck] + [importlib.import_module(f"fibrecheck.{n}") for n in names]:
        assert "PolyMatrix" not in vars(module), module.__name__
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert "__matmul__" not in vars(obj), (module.__name__, obj.__name__)
    bareiss, seen = alexander.rank_over_fraction_field, []
    monkeypatch.setattr(alexander, "rank_over_fraction_field",
                        lambda m: seen.append(type(m)) or bareiss(m))
    code, _ = run_cli(argv)
    assert code == 0
    assert all(kind is SparseMatrix for kind in seen)
    assert bool(seen) == vanishing


def test_alex_prints_hand_computed_order():
    code, out = run_cli(["alex", "--fixture", "bs:1:2", "--quotient", "trivial"])
    assert code == 0
    assert "degree 1: nonvanishing, rank 0, order: -2 + t" in out


def test_alex_reports_orders_above_the_old_ceiling():
    # b1 is 99 x 33 here: above the 96 rows at which the orders used to be skipped.
    code, out = run_cli(["alex", "--fixture", "f2xz", "--quotient", "z33:1,0,0", "--field", "q"])
    assert code == 0
    assert "skipped" not in out
    assert "degree 0: nonvanishing, rank 0, order: -1 + t\n" in out
    assert "degree 1: nonvanishing, rank 0, order: 1 + -34*t + 561*t^2 + " in out


def test_scan_obstructed_text():
    code, out = run_cli(["scan", "--fixture", "f2xz", "--char", "a=1"])
    assert code == 0
    assert "verdict: OBSTRUCTED" in out
    assert "not FP1-semi-fibred; kernel not finitely generated" in out


def test_homs_count():
    code, out = run_cli(["homs", "--fixture", "f:2", "--target", "s3", "--epi-only"])
    assert code == 0
    assert "epimorphisms: 18" in out


def test_presentation_file_with_char_line(tmp_path):
    pres = tmp_path / "group.pres"
    pres.write_text("gens: a t\nrels: t a t^-1 a^-2\nchar: t=1\n")
    code, out = run_cli(["alex", "--pres", str(pres), "--quotient", "trivial"])
    assert code == 0
    assert "order: -2 + t" in out


def test_char_flag_overrides_file(tmp_path):
    pres = tmp_path / "group.pres"
    pres.write_text("gens: x y\nrels: x y x y^-1 x^-1 y^-1\n")
    code, out = run_cli(["alex", "--pres", str(pres), "--char", "x=1, y=1",
                         "--quotient", "trivial"])
    assert code == 0
    assert "order: 1 + -t + t^2" in out


def test_scan_json_output(tmp_path):
    out_path = tmp_path / "verdict.json"
    code, _ = run_cli(["scan", "--fixture", "bs:1:2", "--max-quotient-order", "3",
                       "--json", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == 1
    assert doc["status"] == "no_obstruction_up_to"
    assert doc["bound"] == 3


def test_untwist_check_json_fields():
    code, out = run_cli(["untwist-check", "--fixture", "bs:1:2", "--quotient", "z2:0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"]["equal"] is True
    assert doc["kernel"]["index"] == 2
    assert doc["ambient"]["quotient"]["gen_images"] == [0, 1]


def test_untwist_check_of_a_relator_that_does_not_close_exits_3(monkeypatch, capsys):
    # Reidemeister-Schreier checks that every rewritten relator returns to
    # the coset it started from.  An action whose inverse letters fix every
    # coset breaks that for the trefoil at S3: x y x, the relator's positive
    # letters, is a transposition, not the identity.  The run exits 3 with
    # the internal-check line, not a traceback.
    from fibrecheck import reidschreier
    from fibrecheck.quotients import ImageAction

    real = reidschreier.image_action

    def broken(q):
        action = real(q)
        fixed = (tuple(range(action.order)),) * len(action.perms)
        return ImageAction(action.name, action.order, action.perms, fixed)

    monkeypatch.setattr(reidschreier, "image_action", broken)
    code, out = run_cli(["untwist-check", "--fixture", "trefoil", "--quotient", "s3:2,1"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith(
        "internal check failed: Reidemeister-Schreier: relator 1 read from coset ")


def test_untwist_check_at_index_120_takes_well_under_two_seconds():
    # The kernel of f2xz -> S5 has index 120: 241 generators and 240
    # relators.  Its chain and rewriting cost one step per relator letter,
    # about 0.1 s in all; a cost that grew with index^2 would show here.
    import time

    start = time.perf_counter()
    code, out = run_cli(["untwist-check", "--fixture", "f2xz", "--quotient", "s5:1,32,0"])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["orders"]["equal"] is True
    assert json.loads(out)["kernel"]["index"] == 120
    assert elapsed < 2.0, elapsed


def test_quotient_spec_forms():
    code, out = run_cli(["alex", "--fixture", "bs:1:2", "--quotient", "z3:0,1"])
    assert code == 0
    code, out = run_cli(["alex", "--fixture", "trefoil", "--quotient", "s3:2,1",
                         "--field", "f2"])
    assert code == 0
    assert "field: F2" in out


def test_extra_group_table(tmp_path):
    table = tmp_path / "c2.grp"
    table.write_text("order: 2\n0 1\n1 0\n")
    code, out = run_cli(["scan", "--fixture", "zn:1", "--max-quotient-order", "1",
                         "--extra-group", str(table)])
    assert code == 0
    assert "c2" in out


def test_extra_group_named_for_a_catalog_target(tmp_path, capsys):
    # A file S3.txt holding S3's own table is the catalog's S3, and the scan
    # prints the bytes of one without it; holding Z/6's table it exits 2
    # rather than scan one of the two tables named S3 and drop the other.
    from fibrecheck.quotients import cyclic_group, symmetric_group

    argv = ["scan", "--fixture", "trefoil", "--max-quotient-order", "6", "--fields", "f3"]
    table = tmp_path / "S3.txt"
    for group in (symmetric_group(3), cyclic_group(6)):
        table.write_text("order: 6\n" + "\n".join(" ".join(map(str, row)) for row in group.table))
        code, out = run_cli(argv + ["--extra-group", str(table)])
        if group.name == "S3":
            assert (code, out) == run_cli(argv)
        else:
            assert code == 2 and out == ""
            assert capsys.readouterr().err == "error: two different tables are named S3\n"


def test_exit_code_input_errors(tmp_path, capsys):
    code, _ = run_cli(["alex", "--fixture", "nope", "--quotient", "trivial"])
    assert code == 2
    code, _ = run_cli(["scan", "--fixture", "bs:1:2", "--char", "a=1, t=0"])
    assert code == 2  # not a homomorphism
    code, _ = run_cli(["scan", "--fixture", "bs:1:2", "--char", "a=0, t=0"])
    assert code == 2  # zero character
    code, _ = run_cli(["alex", "--fixture", "bs:1:2", "--quotient", "z3:1,1"])
    assert code == 2  # relator not killed
    for images in ("z3:-1", "z3:3"):
        code, _ = run_cli(["alex", "--fixture", "zn:1", "--quotient", images])
        assert code == 2 and "out of range" in capsys.readouterr().err  # not in Z/3
    pres = tmp_path / "broken.pres"
    pres.write_text("gens: a\nrels: b\n")
    code, _ = run_cli(["alex", "--pres", str(pres), "--char", "a=1", "--quotient", "trivial"])
    assert code == 2
    code, _ = run_cli(["homs", "--fixture", "f:2", "--target", "weird"])
    assert code == 2


def test_input_caps_exit_2_before_building(tmp_path, monkeypatch, capsys):
    from fibrecheck import quotients
    from fibrecheck.words import MAX_WORD_LENGTH

    def no_build(*args):
        raise AssertionError("a permutation was listed or a group was built")

    # S6 is the first past the order cap; n! of a large n is never formed.
    monkeypatch.setattr(quotients.itertools, "permutations", no_build)
    monkeypatch.setattr(quotients, "FiniteGroup", no_build)
    for n in (6, 999999999):
        assert run_cli(["homs", "--fixture", "f:2", "--target", f"s{n}"])[0] == 2
        assert run_cli(["alex", "--fixture", "f:2", "--char", "a=1",
                        "--quotient", f"s{n}:0,0"])[0] == 2
        err = capsys.readouterr().err
        assert err.count(f"S{n} of order at least 720 is too large: at most 120") == 2
    pres = tmp_path / "long.pres"
    pres.write_text(f"gens: a\nrels: a^{MAX_WORD_LENGTH + 1}\n")
    code, _ = run_cli(["alex", "--pres", str(pres), "--char", "a=1", "--quotient", "trivial"])
    assert code == 2


def test_fixture_length_cap_exit_2_before_building(monkeypatch, capsys):
    from fibrecheck import fixtures
    from fibrecheck.words import MAX_WORD_LENGTH

    for name, letters in (("zn:22", 924), ("surface:250", 1000)):  # largest under the cap
        p, _ = fixtures.load_fixture(name)
        assert sum(len(r.letters) for r in p.relators) == letters <= MAX_WORD_LENGTH

    def no_build(*args, **kwargs):
        raise AssertionError("a relator was built")

    monkeypatch.setattr(fixtures, "Word", no_build)
    for name, letters in (("zn:23", 1012), ("surface:251", 1004)):  # smallest over it
        assert run_cli(["alex", "--fixture", name, "--quotient", "trivial"])[0] == 2
        assert f"exceed {MAX_WORD_LENGTH} letters in total ({letters})" in capsys.readouterr().err


def test_group_order_cap_exit_2_before_building(tmp_path, monkeypatch, capsys):
    from fibrecheck import fibring, quotients

    def no_build(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr(quotients, "FiniteGroup", no_build)
    monkeypatch.setattr(fibring, "build_catalog", no_build)
    n = quotients.MAX_GROUP_ORDER + 1
    table = tmp_path / "big.txt"
    table.write_text(f"order: {n}\n")  # refused at the order line, before any row is read
    for argv in (["homs", "--fixture", "f:2", "--target", f"z{n}"],
                 ["alex", "--fixture", "f:2", "--char", "a=1", "--quotient", f"z{n}:0,0"],
                 ["homs", "--fixture", "f:2", "--target", f"file:{table}"],
                 ["scan", "--fixture", "trefoil", "--extra-group", str(table)],
                 ["scan", "--fixture", "trefoil", "--max-quotient-order", str(n)]):
        assert run_cli(argv)[0] == 2, argv
        assert f"{n} is too large: at most {quotients.MAX_GROUP_ORDER}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -2])
def test_table_group_order_below_1_exits_2_at_the_order_line(n, tmp_path, capsys):
    table = tmp_path / "bad.txt"
    table.write_text(f"order: {n}\n")
    assert run_cli(["homs", "--fixture", "f:2", "--target", f"file:{table}"])[0] == 2
    assert capsys.readouterr().err == f"error: table group order {n} must be at least 1\n"


def test_field_prime_cap_exit_2_before_primality_test(monkeypatch, capsys):
    from fibrecheck import polyalg

    cap = polyalg.MAX_FIELD_PRIME
    assert polyalg.CoefficientField.prime(cap).p == cap  # the cap is itself prime

    def no_test(p):
        raise AssertionError(f"primality of {p} was tested")

    monkeypatch.setattr(polyalg, "_is_prime", no_test)
    for n in (cap + 1, 10 ** 29 + 7):  # the smallest value over the cap; a 30-digit one
        for argv in (["alex", "--fixture", "bs:1:2", "--quotient", "trivial", "--field", f"f{n}"],
                     ["untwist-check", "--fixture", "trefoil", "--quotient", "s3:2,1",
                      "--field", f"f{n}"],
                     ["scan", "--fixture", "trefoil", "--fields", f"q,f{n}"]):
            assert run_cli(argv)[0] == 2, argv
            assert f"F{n} is too large: at most F{cap}" in capsys.readouterr().err


def test_closed_stdout_ends_the_run_quietly(tmp_path, capsys):
    # As in `homs --fixture f:3 --target z30 | head -1`: the reader closes the
    # pipe after one line, the next write fails with EPIPE, and that ends the
    # output with exit 0 and nothing on stderr.  Any other OSError still exits 2.
    env = {**os.environ, "PYTHONPATH": str(Path(fibrecheck.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibrecheck.cli", "homs", "--fixture", "f:3", "--target", "z30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"target: Z/30 (order 30)\n"
    proc.stdout.close()  # about 0.6 MB of output is still to come
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 0
    proc.stderr.close()

    code, out = run_cli(["alex", "--pres", str(tmp_path / "missing.pres"), "--quotient", "trivial"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: [Errno 2]")


# stdout digests of `alex --fixture f2xz --quotient z10:2,5,7 --field <f>`,
# recorded before b2 was eliminated over Z[t^{+-1}].
_Z10_DIGESTS = {
    "q": "42195adb39879abd549164fc6ac71c8d7537584dfeabfc41bbd8a72161f4e277",
    "f2": "4c66d66a143b168072f81c3ed20133e79460af1a97cf105c2323a56574104cc8",
    "f3": "1e65d12e3bc00d4f375ad4033fbf21c3aa07f4353c35f3a1b944f00dc47514e1",
}


def test_integral_phase_stops_and_each_field_finishes_the_residual():
    # At Z/10 with images (2, 5, 7), b2 is 20 x 30, 20 x 21 less the 9
    # columns of the image's Schreier tree, and over Z the pivot t - 1
    # leaves a remainder 2 that no pivot of top coefficient +-1 divides: the
    # integral phase must stop there and leave a residual for each field to
    # finish.  Each run is a child process with a timeout, so a phase that
    # loops fails here instead of hanging the suite.
    from fibrecheck.alexander import integral_chain
    from fibrecheck.fixtures import load_fixture
    from fibrecheck.quotients import cyclic_group, make_quotient

    env = {**os.environ, "PYTHONPATH": str(Path(fibrecheck.__file__).parents[1])}
    for field, digest in _Z10_DIGESTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "fibrecheck.cli", "alex", "--fixture", "f2xz",
             "--quotient", "z10:2,5,7", "--field", field],
            capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0 and proc.stderr == b"", field
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, field
    p, chi = load_fixture("f2xz")
    chain = integral_chain(p, chi, make_quotient(p, cyclic_group(10), (2, 5, 7)))
    phase = chain.b2_form()
    assert phase.residual and (len(chain.b2), phase.cols) == (20, 21)


def test_zech_tables_are_read_only_when_a_small_prime_field_runs():
    # Importing the CLI and running over Q reads no Zech table, so neither
    # the import nor a Q-only command pays for it; an alex over F2 reads one.
    script = (
        "import io\n"
        "from fibrecheck.cli import main\n"
        "from fibrecheck.polyalg import _zech_field\n"
        "sizes = [_zech_field.cache_info().currsize]\n"
        "main(['untwist-check', '--fixture', 'f2xz', '--quotient', 'z4:1,0,0'], out=io.StringIO())\n"
        "sizes.append(_zech_field.cache_info().currsize)\n"
        "main(['alex', '--fixture', 'f2xz', '--quotient', 'z4:1,0,0', '--field', 'f2'], out=io.StringIO())\n"
        "sizes.append(_zech_field.cache_info().currsize)\n"
        "print(sizes)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fibrecheck.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "[0, 0, 1]\n"


def test_usage_error_exit_code():
    assert main(["unknown-subcommand"], out=io.StringIO()) == 2


def test_repeated_field_is_an_input_error(capsys):
    for fields, name in (("f2,f2", "F2"), ("q,Q", "Q")):
        code, out = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "2",
                             "--fields", fields])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: field {name} is given more than once\n"


# Modules that a serial run must not load: the record decorator and what it
# pulls in, the argument parser and its translations, and the process pool.
_NOT_LOADED = ("dataclasses", "inspect", "argparse", "gettext", "locale",
               "concurrent.futures", "multiprocessing", "subprocess")


def test_a_serial_run_imports_only_what_it_runs():
    # A fresh interpreter lists the modules that importing the CLI adds over a
    # bare `python -c pass`, and those that a serial scan and an untwist-check
    # then add.  Neither list holds a module of _NOT_LOADED, and the runs add
    # none at all: a module first imported inside a command costs every run of
    # it, which is what set-up is there to pay.
    script = (
        "import sys\n"
        "from fibrecheck.cli import main\n"
        "imported = sorted(sys.modules)\n"
        "import io, json\n"
        "for argv in (['scan', '--fixture', 'f2xz', '--max-quotient-order', '4'],\n"
        "             ['untwist-check', '--fixture', 'f2xz', '--quotient', 'z12:1,1,0']):\n"
        "    assert main(argv, out=io.StringIO()) == 0\n"
        "print(json.dumps([imported, sorted(set(sys.modules) - set(imported))]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fibrecheck.__file__).parents[1])}
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    imported, ran = json.loads(proc.stdout)
    imported = sorted(set(imported) - set(bare.stdout.split()))
    assert "fibrecheck.cli" in imported
    for name in imported + ran:
        assert not any(name == m or name.startswith(m + ".") for m in _NOT_LOADED), name
    assert ran == []


def test_every_fixture_parses_with_valid_default_character():
    from fibrecheck.fixtures import load_fixture
    from fibrecheck.words import parse_presentation, render_presentation, validate_character

    for name in ("bs:1:2", "bs:1:3", "trefoil", "klein", "zn:1", "zn:2", "zn:3",
                 "f:1", "f:2", "f:3", "f2xz", "surface:1", "surface:2"):
        p, chi = load_fixture(name)
        assert parse_presentation(render_presentation(p)) == p
        validate_character(p, chi.values)


def test_jobs_flag_same_output():
    _, out1 = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "4"])
    _, out2 = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "4",
                       "--jobs", "2"])
    assert out1 == out2


# `scan --pres` of <a, t | a^2> with a=0, t=1 over F3 then F2, to order 4: the
# chain of the trivial quotient is built once, and only F2 sees b2 = (2, 0)
# as zero, so the witness is at the second field of the first job.
_LATER_FIELD_WITNESS = """\
fibrecheck scan (schema 1, version 0.1.0, convention row-right)
presentation: gens: a t | rels: a^2
character: a=0, t=1 (minus direction scanned alongside)
fields: F3, F2
catalog bound: 4
assertions: lerf=no, detection=no
verdict: OBSTRUCTED
witness: quotient trivial (order 1), field F2, degree 1, character a=0, t=1
interpretation:
  - A vanishing degree-1 twisted Alexander polynomial was found.
  - Witness: quotient trivial (order 1) over F2, character a=0, t=1.
  - Unconditionally, the character is not FP1-semi-fibred; kernel not finitely generated.
reports: 6 computed, 1 vanishing
  [trivial ord 1 | F3 | a=0, t=1] deg 0: nonvanishing, rank 0, order 2 + t
  [trivial ord 1 | F3 | a=0, t=1] deg 1: nonvanishing, rank 0, order 1
  [trivial ord 1 | F3 | a=0, t=-1] deg 0: nonvanishing, rank 0, order 2 + t
  [trivial ord 1 | F3 | a=0, t=-1] deg 1: nonvanishing, rank 0, order 1
  [trivial ord 1 | F2 | a=0, t=1] deg 0: nonvanishing, rank 0, order 1 + t
  [trivial ord 1 | F2 | a=0, t=1] deg 1: VANISHING, rank 1, order 0
tested quotients: 1; skipped (same kernel): 0
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_witness_at_a_later_field_stops_the_job(jobs, tmp_path):
    pres = tmp_path / "a2.pres"
    pres.write_text("gens: a t\nrels: a^2\nchar: a=0, t=1\n")
    code, out = run_cli(["scan", "--pres", str(pres), "--fields", "f3,f2",
                         "--max-quotient-order", "4", "--jobs", jobs])
    assert code == 0
    assert out == _LATER_FIELD_WITNESS


def test_pooled_scan_stops_reading_targets_at_an_early_witness(monkeypatch):
    # f:2 at a=1, b=0 is obstructed at the trivial quotient, the first of
    # 123 targets to order 120.  A serial scan reads that one target; the
    # pool reads the stream lazily too, only as far as it takes to keep its
    # jobs submitted ahead, and prints the same bytes.
    from fibrecheck import fibring
    from fibrecheck.quotients import build_catalog

    assert len(build_catalog(120, [])) + 1 == 123
    read, keyed = [], fibring.keyed_homs
    monkeypatch.setattr(fibring, "keyed_homs",
                        lambda p, group, memo: read.append(group.name) or keyed(p, group, memo))
    argv = ["scan", "--fixture", "f:2", "--char", "a=1,b=0", "--max-quotient-order", "120"]
    code, serial = run_cli(argv)
    assert code == 0 and "verdict: OBSTRUCTED" in serial
    assert read == ["trivial"]
    read.clear()
    code, pooled = run_cli(argv + ["--jobs", "2"])
    assert code == 0 and pooled == serial
    assert read[0] == "trivial" and len(read) <= 8


def test_nonvanishing_scan_builds_no_dense_chain(monkeypatch):
    # The fields read the chain's integer rows; no rank here falls short of its
    # bound, so Bareiss, the one kernel that reads them into dense rows, never runs.
    from fibrecheck import alexander

    monkeypatch.setattr(alexander, "rank_over_fraction_field", lambda m: pytest.fail("Bareiss ran"))
    code, out = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "6"])
    assert code == 0
    assert "NO OBSTRUCTION up to order 6" in out


@pytest.mark.parametrize("jobs", ["0", "-3", "65"])
def test_jobs_out_of_range_is_an_input_error(jobs, monkeypatch, capsys):
    # Checked before any pool is built: a pool starts all its workers at once.
    # `scan` imports the pool from concurrent.futures only to build one.
    import concurrent.futures

    from fibrecheck import fibring

    assert fibring.MAX_JOBS == 64
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **k: pytest.fail("a process pool was built"))
    code, out = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "4",
                         "--jobs", jobs])
    assert code == 2 and out == ""
    assert f"--jobs {jobs} is out of range: use 1 to 64" in capsys.readouterr().err


# Every option of every command, as the argparse front end spelled them.
_COMMON_OPTIONS = ["--fixture", "--pres", "--char"]
_OPTIONS = {
    "scan": _COMMON_OPTIONS + ["--max-quotient-order", "--fields", "--extra-group",
                               "--assert-lerf", "--assert-detection", "--jobs", "--json"],
    "alex": _COMMON_OPTIONS + ["--quotient", "--field", "--json"],
    "untwist-check": _COMMON_OPTIONS + ["--quotient", "--field", "--json"],
    "homs": _COMMON_OPTIONS + ["--target", "--epi-only"],
}


def _parsed(argv):
    handler, args = parse_args(argv)
    return handler, vars(args)


def test_parser_defaults():
    from fibrecheck import cli

    assert _parsed(["scan", "--fixture", "f2xz"]) == (cli._cmd_scan, {
        "fixture": "f2xz", "pres": None, "char": None, "max_quotient_order": 12,
        "fields": "f2,f3,q", "extra_group": [], "assert_lerf": False,
        "assert_detection": False, "jobs": 1, "json": None})
    for command, handler in (("alex", cli._cmd_alex), ("untwist-check", cli._cmd_untwist_check)):
        assert _parsed([command, "--pres", "g.pres", "--quotient", "trivial"]) == (handler, {
            "fixture": None, "pres": "g.pres", "char": None, "quotient": "trivial",
            "field": "q", "json": None})
    assert _parsed(["homs", "--target", "s3"]) == (cli._cmd_homs, {
        "fixture": None, "pres": None, "char": None, "target": "s3", "epi_only": False})
    assert {name: list(options) for name, (_, _, options) in COMMANDS.items()} == _OPTIONS


def test_parser_reads_every_argparse_spelling():
    # A value as the next word or after "=", a long option by any prefix that
    # names it alone, the last value of an option given twice, every value of
    # a repeated --extra-group, flags, and negative numbers as values.
    spellings = [
        ["scan", "--fixture", "f2xz", "--max-quotient-order", "4", "--jobs", "2"],
        ["scan", "--fixture=f2xz", "--max-quotient-order=4", "--jobs=2"],
        ["scan", "--fix", "f2xz", "--max-q", "4", "--jo", "2"],
        ["scan", "--jobs", "1", "--max-q=4", "--fixture", "trefoil", "--fixture=f2xz",
         "--job", "2"],
    ]
    parsed = [_parsed(argv) for argv in spellings]
    assert all(p == parsed[0] for p in parsed)
    assert (parsed[0][1]["fixture"], parsed[0][1]["max_quotient_order"], parsed[0][1]["jobs"]) \
        == ("f2xz", 4, 2)
    _, args = _parsed(["scan", "--extra-group", "a.grp", "--extra-group=b.grp", "--extra", "c.grp",
                       "--assert-lerf", "--assert-d", "--char", "a=1, b=-1", "--jobs", "-3"])
    assert args["extra_group"] == ["a.grp", "b.grp", "c.grp"]
    assert args["assert_lerf"] is args["assert_detection"] is True
    assert (args["char"], args["jobs"]) == ("a=1, b=-1", -3)
    assert _parsed(["homs", "--fixture", "f:2", "--tar", "s3", "--epi"])[1]["epi_only"] is True
    assert _parsed(["alex", "--quot=z3:0,1", "--fie", "f2"])[1]["field"] == "f2"


def test_abbreviated_options_print_the_same_scan():
    full = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "4", "--fields", "f3"])
    short = run_cli(["scan", "--fix=trefoil", "--max-q", "4", "--fie=f3"])
    assert full == short and full[0] == 0


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"]]
                         + [[command, flag] for command in _OPTIONS for flag in ("-h", "--help")],
                         ids=" ".join)
def test_help_lists_every_option_with_its_text(argv, capsys):
    code, out = run_cli(argv)
    assert code == 0 and capsys.readouterr() == ("", "")
    assert out.startswith("usage: fibrecheck")
    lines = out.splitlines()
    if len(argv) == 1:
        for command, (_, about, _) in COMMANDS.items():
            assert any(line.split() == [command, *about.split()] for line in lines), command
        assert any(line.split()[:1] == ["--version"] for line in lines)
        return
    _, about, options = COMMANDS[argv[0]]
    assert about in lines
    assert any(line.split()[:2] == ["-h,", "--help"] for line in lines)
    for name in _OPTIONS[argv[0]]:
        text = options[name][2]
        assert any(line.split()[:1] == [name] and text in line for line in lines), name


def test_version(capsys):
    assert run_cli(["--version"]) == (0, f"fibrecheck {fibrecheck.__version__}\n")
    assert fibrecheck.__version__ == "0.1.0"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["--bogus"],
    ["--version=1"],
    ["scan", "--fixture", "trefoil", "--bogus"],
    ["scan", "--fi", "trefoil"],  # --fixture or --fields
    ["scan", "--fixture", "trefoil", "--assert-lerf=yes"],
    ["scan", "--fixture", "trefoil", "stray"],
    ["scan", "--fixture", "trefoil", "--jobs", "x"],
    ["scan", "--fixture", "trefoil", "--jobs"],
    ["scan", "--fixture", "--jobs", "2"],
    ["alex", "--fixture", "bs:1:2"],
    ["untwist-check", "--fixture", "trefoil"],
    ["homs", "--fixture", "f:2"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_usage_errors_exit_2_with_one_error_line(argv, capsys):
    code, out = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 2 and out == "" and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_readme_shows_the_top_level_help():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code, text = run_cli(["--help"])
    assert code == 0
    assert f"```sh\nfibrecheck --help\n```\n\n```\n{text}```\n" in readme
