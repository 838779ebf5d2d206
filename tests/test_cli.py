import io
import json
from pathlib import Path

import pytest

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


def test_alex_prints_hand_computed_order():
    code, out = run_cli(["alex", "--fixture", "bs:1:2", "--quotient", "trivial"])
    assert code == 0
    assert "degree 1: nonvanishing, rank 0, order: -2 + t" in out


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


def test_exit_code_input_errors(tmp_path):
    code, _ = run_cli(["alex", "--fixture", "nope", "--quotient", "trivial"])
    assert code == 2
    code, _ = run_cli(["scan", "--fixture", "bs:1:2", "--char", "a=1, t=0"])
    assert code == 2  # not a homomorphism
    code, _ = run_cli(["scan", "--fixture", "bs:1:2", "--char", "a=0, t=0"])
    assert code == 2  # zero character
    code, _ = run_cli(["alex", "--fixture", "bs:1:2", "--quotient", "z3:1,1"])
    assert code == 2  # relator not killed
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
