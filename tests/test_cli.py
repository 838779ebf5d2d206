import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibrecheck
from fibrecheck.cli import main

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


def test_input_caps_exit_2_before_building(tmp_path, monkeypatch):
    from fibrecheck import cli
    from fibrecheck.words import MAX_WORD_LENGTH

    def no_build(n):
        raise AssertionError(f"S{n} was built")

    monkeypatch.setattr(cli, "symmetric_group", no_build)
    n = cli.MAX_SYMMETRIC_DEGREE + 1
    assert run_cli(["homs", "--fixture", "f:2", "--target", f"s{n}"])[0] == 2
    assert run_cli(["alex", "--fixture", "f:2", "--char", "a=1",
                    "--quotient", f"s{n}:0,0"])[0] == 2
    pres = tmp_path / "long.pres"
    pres.write_text(f"gens: a\nrels: a^{MAX_WORD_LENGTH + 1}\n")
    code, _ = run_cli(["alex", "--pres", str(pres), "--char", "a=1", "--quotient", "trivial"])
    assert code == 2


def test_fixture_length_cap_exit_2_before_building(monkeypatch, capsys):
    from fibrecheck import fixtures
    from fibrecheck.words import MAX_WORD_LENGTH

    for name, letters in (("zn:22", 924), ("surface:250", 1000)):  # largest under the cap
        p, _ = fixtures.load_fixture(name)
        assert sum(len(r) for r in p.relators) == letters <= MAX_WORD_LENGTH

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
    # At Z/10 with images (2, 5, 7), b2 is 20 x 30, and over Z the pivot t - 1
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
    phase = integral_chain(p, chi, make_quotient(p, cyclic_group(10), (2, 5, 7))).b2_form()
    assert phase.residual and (phase.rows, phase.cols) == (20, 30)


def test_usage_error_exit_code():
    assert main(["unknown-subcommand"], out=io.StringIO()) == 2


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
    from fibrecheck import fibring

    assert fibring.MAX_JOBS == 64
    monkeypatch.setattr(fibring, "ProcessPoolExecutor",
                        lambda *a, **k: pytest.fail("a process pool was built"))
    code, out = run_cli(["scan", "--fixture", "trefoil", "--max-quotient-order", "4",
                         "--jobs", jobs])
    assert code == 2 and out == ""
    assert f"--jobs {jobs} is out of range: use 1 to 64" in capsys.readouterr().err
