"""Command line interface: outputs, exit codes, file formats."""

import json
from pathlib import Path

import pytest

from coxabs import classify, cli, rootsystem, verify
from coxabs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_named(capsys):
    code, out, _ = run(capsys, "build", "B3")
    assert code == 0
    assert "type: B3" in out
    assert "positive roots: 9" in out
    assert "group order: 48" in out
    assert "w0 acts as -Id: yes" in out


def test_build_symbolic_dihedral(capsys):
    code, out, _ = run(capsys, "build", "I2(8)")
    assert code == 0
    assert "I2(8)" in out and "symbolic" in out
    assert "group order: 16" in out


def test_build_matrix_file(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text("3\n1 3 2\n3 1 3\n2 3 1\n")
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0
    assert "type: A3" in out


def test_build_unknown_type_is_a_usage_error(capsys):
    code, _, err = run(capsys, "build", "Q9")
    assert code == 2
    assert "unknown type" in err


def test_build_bad_matrix_file(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text("1 3\n3 1\n")
    code, _, err = run(capsys, "build", str(path))
    assert code == 2
    assert "bad matrix file" in err


def test_oversized_reflection_table_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text("3\n1 3 2\n3 1 3\n2 3 1\n")
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 100)
    code, out, err = run(capsys, "build", str(path))
    assert code == 2
    assert out == ""
    assert "over the cap of 100" in err


@pytest.mark.parametrize("argv", [["lattice", "E8", "--w0"], ["classify", "E8"]])
def test_e8_interval_is_refused_by_the_search_and_exits_2(capsys, argv):
    # all 199 952 involutions of E8 lie below w0 = -Id; the search stops
    # at 42 660, past what TABLE_CAP_BYTES admits for its rows and the
    # down-sets
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "involution search passed 42659 elements" in err


def test_length_with_rank2_letters(capsys):
    code, out, _ = run(capsys, "length", "B2", "--word", "s,t,s,t")
    assert code == 0
    assert "l_S = 4" in out
    assert "l_T (fixed-space rank) = 2" in out
    assert "agrees" in out


def test_length_of_w0(capsys):
    code, out, _ = run(capsys, "length", "A3", "--w0")
    assert code == 0
    assert "l_S = 6" in out
    assert "l_T (fixed-space rank) = 2" in out


def test_length_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "dyer_reflection_length", lambda system, word: 3)
    code, out, _ = run(capsys, "length", "B2", "--word", "s,t,s,t")
    assert code == 1
    assert "l_T (deletion oracle) = 3, DISAGREES" in out


def test_length_malformed_word(capsys):
    code, _, err = run(capsys, "length", "B2", "--word", "s,q")
    assert code == 2
    assert "malformed" in err


def test_length_out_of_range_generator(capsys):
    code, _, err = run(capsys, "length", "A3", "--word", "s4")
    assert code == 2
    assert "out of range" in err


def test_interval_json(capsys):
    code, out, _ = run(capsys, "interval", "B2", "--w0")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_lattice"] is True
    assert len(payload["elements"]) == 6


def test_interval_rejects_non_involutions(capsys):
    code, _, err = run(capsys, "interval", "A2", "--word", "s,t")
    assert code == 2
    assert "involution" in err


def test_interval_dot_file(capsys, tmp_path):
    path = tmp_path / "poset.dot"
    code, _, _ = run(capsys, "interval", "A2", "--w0", "--dot", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("digraph")
    assert "->" in text


def test_lattice_positive(capsys):
    code, out, _ = run(capsys, "lattice", "H3", "--w0")
    assert code == 0
    assert "LATTICE" in out
    assert "NOT" not in out


def test_lattice_negative_with_witness(capsys):
    code, out, _ = run(capsys, "lattice", "D6", "--w0")
    assert code == 0
    assert "NOT A LATTICE; witness: P1 ∩ P2 of type A3" in out


def test_lattice_f4_witness(capsys):
    code, out, _ = run(capsys, "lattice", "F4", "--w0")
    assert code == 0
    assert "NOT A LATTICE; witness: P1 ∩ P2 of type A2" in out


def test_lattice_symbolic(capsys):
    code, out, _ = run(capsys, "lattice", "I2(10)", "--w0")
    assert code == 0
    assert "LATTICE" in out


def test_symbolic_build_reads_closed_forms(capsys):
    code, out, _ = run(capsys, "build", "I2(1000000)")
    assert code == 0
    assert "group order: 2000000" in out.splitlines()
    assert "w0 acts as -Id: yes" in out.splitlines()


@pytest.mark.parametrize(
    "argv", [["lattice", "I2(40000)", "--w0"], ["classify", "I2(40000)"]]
)
def test_oversized_symbolic_interval_exits_2(capsys, argv):
    # the 40 002 x 40 002 order matrix would take 1.6 GB
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "order matrix would pass the cap" in err


def test_lattice_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(classify, "lattice_by_classification", lambda u: False)
    code, out, _ = run(capsys, "lattice", "H3", "--w0")
    assert code == 1
    assert "classification=False agree=False" in out


def test_symbolic_lattice_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.Dihedral, "lattice_structural", lambda self, u: (False, None)
    )
    code, out, _ = run(capsys, "lattice", "I2(10)", "--w0")
    assert code == 1
    assert "structural=False" in out and "agree=False" in out


def test_classify_disagreement_exits_1(capsys, monkeypatch):
    verdict = classify.lattice_by_classification
    monkeypatch.setattr(classify, "lattice_by_classification", lambda u: not verdict(u))
    code, out, _ = run(capsys, "classify", "B3")
    assert code == 1
    rows = [line.split() for line in out.splitlines()[1:]]
    assert rows and all(row[-3:] == ["True", "True", "False"] for row in rows)


def test_symbolic_classify_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.Dihedral, "lattice_structural", lambda self, u: (False, None)
    )
    assert run(capsys, "classify", "I2(8)")[0] == 1


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "B3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].split()[:3] == ["t-word", "size", "l_T"]
    assert len(lines) > 3
    assert all("False" not in l for l in lines)  # every B3 interval is a lattice
    # the t-words name roots by index, so they pin the root numbering
    words = [l.split()[0] for l in lines[1:]]
    assert words == ["e", "t2", "t8", "t1*t8", "t2*t7", "t0*t2*t7"]
    code, out, _ = run(capsys, "classify", "H3")
    assert code == 0
    words = [l.split()[0] for l in out.splitlines()[1:] if l.strip()]
    assert words == ["e", "t2", "t2*t14", "t0*t2*t14"]


def test_classify_symbolic(capsys):
    code, out, _ = run(capsys, "classify", "I2(8)")
    assert code == 0
    assert "I2(8)" in out


def test_classify_json_mirror(capsys, tmp_path):
    path = tmp_path / "classes.json"
    code, _, _ = run(capsys, "classify", "B2", "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["type"] == "B2"
    assert sum(row["class_size"] for row in payload["classes"]) == 6
    assert all("closure_type" in row for row in payload["classes"])


def test_missing_word_and_w0(capsys):
    code, _, err = run(capsys, "length", "A3")
    assert code == 2
    assert "--word" in err or "--w0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["I2(8)", "--word", "1,2"], "lattice requires an involution word"),
        (["I2(8)"], "need --word or --w0"),
        (["I2(6)", "--word", "1,2"], "lattice requires an involution word"),
        (["I2(6)"], "need --word or --w0"),
    ],
)
def test_lattice_refuses_a_missing_element_or_a_non_involution(
    capsys, argv, message
):
    code, out, err = run(capsys, "lattice", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_symbolic_lattice_decides_the_given_involution(capsys, monkeypatch):
    tops = []
    verdicts = ("lattice_bruteforce", "lattice_structural", "lattice_by_classification")
    for name in verdicts:
        real = getattr(cli.Dihedral, name)

        def recording(self, u, real=real):
            tops.append(u)
            return real(self, u)

        monkeypatch.setattr(cli.Dihedral, name, recording)
    code, out, _ = run(capsys, "lattice", "I2(8)", "--word", "2")
    assert (code, out.splitlines()[0]) == (0, "LATTICE")
    assert tops == [cli.Dihedral(8).reflection(1)] * 3


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{tmp}"],
        ["interval", "A3", "--w0", "--dot", "{tmp}/missing/x.dot"],
        ["classify", "A3", "--json", "{tmp}/missing/x.json"],
        ["verify", "--only", "hurwitz", "--json", "{tmp}/missing/x.json"],
    ],
)
def test_a_path_that_cannot_be_read_or_written_is_a_usage_error(
    capsys, tmp_path, argv
):
    code, _, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_on_no_arguments():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_verify_single_check_passes(capsys):
    # the full suite is exercised elsewhere; run the cheapest check alone
    code, out, _ = run(capsys, "verify", "--only", "hurwitz")
    assert code == 0
    assert "PASS" in out
    assert "ALL CHECKS PASSED" in out


def test_verify_only_reports_a_crashing_check_as_failed(capsys, monkeypatch):
    def crash():
        raise RuntimeError("check exploded")

    monkeypatch.setattr(
        verify, "ALL_CHECKS", (("B2 Hurwitz orbits", crash, False),)
    )
    code, out, _ = run(capsys, "verify", "--only", "hurwitz")
    assert code == 1
    assert "FAIL  B2 Hurwitz orbits" in out
    assert "RuntimeError: check exploded" in out
    assert "CHECKS FAILED" in out


def test_verify_unknown_check_name(capsys):
    code, _, err = run(capsys, "verify", "--only", "nonsense")
    assert code == 2
    assert "no check matches" in err


def test_oversized_matrix_file_is_refused_from_its_diagram(capsys):
    # the recognizer names A128 before any root exists, like the label
    path = Path(__file__).parent / "data" / "matrices" / "a128.txt"
    code, out, err = run(capsys, "build", str(path))
    assert code == 2
    assert out == ""
    assert "16512 or more roots" in err
