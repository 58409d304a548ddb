import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from littlewood import cli
from littlewood.complexes import Report, verify_littlewood_identity
from littlewood.resolutions import AUDITS


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_text(capsys):
    code, out, _ = run_cli(capsys, "dim", "--type", "G2", "--weight", "1,0")
    assert code == 0 and out.strip() == "7"


def test_qset_json(capsys):
    code, out, _ = run_cli(capsys, "qset", "--variant", "minus", "--size", "4", "--format", "json")
    assert code == 0 and json.loads(out) == [[2, 1, 1]]


def test_qset_oracle_agrees(capsys):
    _, plain, _ = run_cli(capsys, "qset", "--variant", "plus", "--size", "6", "--format", "json")
    _, oracled, _ = run_cli(
        capsys, "qset", "--variant", "plus", "--size", "6", "--oracle", "--dim-e", "6", "--format", "json"
    )
    assert json.loads(plain) == json.loads(oracled)


def test_verify_lwood_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-lwood", "--family", "C", "--lambda", "2,2", "--n", "2")
    assert code == 0 and out.startswith("pass")


def test_verify_failure_exits_one(capsys, monkeypatch):
    failed = Report(passed=False, case="forced", lhs=0, rhs=1)
    monkeypatch.setattr(cli, "verify_littlewood_identity", lambda *a, **k: failed)
    code, out, _ = run_cli(capsys, "verify-lwood", "--family", "C", "--lambda", "1", "--n", "1")
    assert code == 1 and "FAIL" in out


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "dim", "--type", "G2")[0] == 2
    assert run_cli(capsys, "dim", "--type", "G9", "--weight", "1,0")[0] == 2
    code, _, err = run_cli(capsys, "verify-lwood", "--family", "C", "--lambda", "1,1,1", "--n", "2")
    assert code == 2 and "error" in err


def test_json_output_round_trips(capsys):
    commands = [
        ("bott", "--type", "D3", "--weight", "eps:1/2,1/2,-3/2"),
        ("dim", "--type", "E6", "--weight", "1,0,0,0,0,0"),
        ("lr", "--lambda", "2,1", "--mu", "1", "--nu", "1,1"),
        ("skew", "--outer", "2,2", "--inner", "1,1"),
        ("pleth", "--k", "2", "--form", "alternating", "--dim-e", "4"),
        ("branch", "--lambda", "1,1", "--target", "sp:4"),
        ("lwood", "--family", "C", "--lambda", "2,2"),
        ("spinor", "--family", "Dfull", "--n", "2"),
        ("bracket", "--case", "G2", "--lambda", "3,1"),
        ("koszul", "--form", "alternating", "--m", "3", "--i", "2"),
        ("slice", "--case", "E6_3", "--degree", "2"),
        ("betti", "--case", "g2-y2"),
        ("hilbert", "--case", "e6-cone", "--codim", "10"),
        ("mults", "--type", "G2", "--weight", "0,1"),
        ("decompose", "--type", "C2", "--schur", "2,2", "--weight", "eps:1,0"),
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 1, argv  # exactly one JSON document
        payload = json.loads(lines[0])
        assert json.dumps(payload, sort_keys=True) == lines[0], argv


def test_bott_text(capsys):
    code, out, _ = run_cli(capsys, "bott", "--type", "C2", "--weight", "eps:-2,0")
    assert code == 0 and out.strip() == "vanishes"


def test_decompose_stdin_character(capsys, monkeypatch):
    import io

    char = {"fund:G2:1,0": 1, "fund:G2:-1,1": 1, "fund:G2:0,0": 1, "fund:G2:1,-1": 1,
            "fund:G2:-1,0": 1, "fund:G2:-2,1": 1, "fund:G2:2,-1": 1}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(char)))
    code, out, _ = run_cli(capsys, "decompose", "--type", "G2", "--input", "-", "--format", "json")
    assert code == 0 and json.loads(out) == {"fund:G2:1,0": 1}


def test_audit_command(capsys):
    for name in sorted(AUDITS):  # every registry name
        code, out, err = run_cli(capsys, "audit", "--case", name)
        assert (code, err) == (0, "") and out.endswith("pass\n"), name
    code, out, _ = run_cli(capsys, "audit", "--case", "g2-y1", "--format", "json")
    assert code == 0 and json.loads(out)["pass"] is True


def test_betti_golden_text(capsys):
    code, out, _ = run_cli(capsys, "betti", "--case", "g2-y2")
    assert code == 0
    assert out.splitlines()[1] == "total: 1 10 16 16 10 1"
    code, out, _ = run_cli(capsys, "betti", "--case", "g2-y2-char2")
    assert code == 0 and "total: 1 10 17 17 10 1" in out


# Each named table at its codimension: (numerator as text, Krull dimension);
# the characteristic-2 table has the characteristic-0 K-polynomial.
HILBERT_AT_CODIM = {
    "g2-y2": (5, "1 + 5T + 5T^2 + T^3", 9),
    "g2-y2-char2": (5, "1 + 5T + 5T^2 + T^3", 9),
    "g2-y1": (7, "1 + 7T + 4T^2", 7),
    "e6-cone": (10, "1 + 10T + 28T^2 + 28T^3 + 10T^4 + T^5", 17),
    "f4-cone": (10, "1 + 10T + 28T^2 + 28T^3 + 10T^4 + T^5", 16),
}


def test_hilbert_text(capsys):
    # e8-start is cut, and refused (test_hilbert_refuses_a_cut_table)
    assert set(HILBERT_AT_CODIM) | {"e8-start"} == set(AUDITS) | {"g2-y2-char2"}
    for name, (codim, numerator, krull) in HILBERT_AT_CODIM.items():
        assert run_cli(capsys, "hilbert", "--case", name, "--codim", str(codim)) == (0, f"{numerator}\nkrull dim {krull}\n", "")


def test_g2_resolution_listing(capsys):
    code, out, _ = run_cli(capsys, "g2-resolution")
    assert code == 0 and len(out.splitlines()) == 6


def test_suite_single(capsys):
    code, out, _ = run_cli(capsys, "suite", "--name", "koszul")
    assert code == 0 and out.startswith("PASS koszul")


def test_verify_spinor_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-spinor", "--family", "B", "--n", "2", "--lambda", "2,1")
    assert code == 0 and "64 = 64" in out


def test_bott_spin_mode(capsys):
    code, out, _ = run_cli(capsys, "bott", "--spin", "Dplus", "--n", "3", "--lambda", "2,1")
    assert code == 0 and out.strip() == "degree 1: Delta-"
    code, out, _ = run_cli(capsys, "bott", "--spin", "B", "--n", "3", "--lambda", "1", "--format", "json")
    assert code == 0 and json.loads(out) == {"vanishes": True}
    assert run_cli(capsys, "bott", "--spin", "B", "--n", "2")[0] == 0  # empty shape default
    assert run_cli(capsys, "bott")[0] == 2


def test_qset_check_mode(capsys):
    code, out, _ = run_cli(capsys, "qset", "--variant", "minus", "--check", "2,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"member": True, "partition": [2, 1, 1], "rank": 1, "transpose": [3, 1]}
    assert run_cli(capsys, "qset", "--variant", "minus")[0] == 2


def test_qset_odd_size_refused_on_both_paths(capsys):
    # one check, naming the size, before the listing and before the oracle
    for extra in ((), ("--oracle",)):
        for size, why in (("7", "odd"), ("-2", "negative")):
            got = run_cli(capsys, "qset", "--variant", "minus", "--size", size, *extra)
            assert got == (2, "", f"error: Q-sets contain only even sizes; size {size} is {why}\n"), extra


def test_qset_size_past_the_bound_exits_2(capsys, monkeypatch):
    # The bound is checked before any partition is made, so a stand-in
    # partitions_of shows which sizes would start the enumeration.
    from littlewood import partitions

    class Enumerated(Exception):
        pass

    def enumerate_nothing(*args, **kwargs):
        raise Enumerated

    monkeypatch.setattr(partitions, "partitions_of", enumerate_nothing)
    bound = partitions.Q_SIZE_BOUND
    with pytest.raises(Enumerated):
        cli.run(["qset", "--variant", "minus", "--size", str(bound)])
    code, out, err = run_cli(capsys, "qset", "--variant", "minus", "--size", str(bound + 2))
    assert code == 2 and out == ""
    assert err == f"error: enumerate_q minus: size {bound + 2} is past Q_SIZE_BOUND {bound}\n"


@pytest.mark.parametrize(
    "variant,size,dim_e,rows",
    [("minus", "10", "5", 6), ("plus", "6", "2", 3), ("minus", "12", None, 7)],
)
def test_qset_oracle_refuses_too_few_rows(capsys, variant, size, dim_e, rows):
    # Each input used to exit 0 without the member whose rows exceed --dim-e.
    extra = ("--dim-e", dim_e) if dim_e else ()
    code, out, err = run_cli(capsys, "qset", "--variant", variant, "--size", size, "--oracle", *extra)
    assert code == 2 and out == ""
    assert f"size {size}" in err and f"--dim-e {dim_e or 6}" in err and f"{rows} rows" in err


@pytest.mark.parametrize(
    "lam,target,text",
    [("1,1,1", "o:5", "{[1,1,1]:1}"), ("1,1", "o:3", "{[1,1]:1}"), ("2,1,1", "o:5", "{[1,1]:1, [2,1,1]:1}")],
)
def test_branch_oracle_odd_orthogonal_outside_the_stable_range(capsys, lam, target, text):
    code, out, _ = run_cli(capsys, "branch", "--lambda", lam, "--target", target, "--oracle")
    assert code == 0 and out == text + "\n"


def test_branch_oracle_refuses_even_orthogonal_outside_the_stable_range(capsys):
    code, out, err = run_cli(capsys, "branch", "--lambda", "1,1,1", "--target", "o:4", "--oracle")
    assert code == 2 and out == "" and "[1,1,1] has 3" in err


def run_python(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_entry_point():
    done = run_python("-m", "littlewood", "dim", "--type", "G2", "--weight", "1,0")
    assert done.returncode == 0 and done.stdout == "7\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each command is a fresh process that pays for every module the import
    # pulls in; -S keeps modules that site imports out of the count.
    done = run_python("-S", "-c", "import sys, littlewood.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr


def test_decompose_closes_its_input_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"fund:G2:0,0": 1}')
    done = run_python("-X", "dev", "-W", "error::ResourceWarning", "-m", "littlewood", "decompose", "--type", "G2", "--input", str(path))
    assert done.returncode == 0 and "ResourceWarning" not in done.stderr, done.stderr
    assert done.stdout == "fund:G2:0,0: 1\n"


# Golden output of the two derived audits, frozen from when their terms were
# typed-in tables: (case, codim, Betti totals, Betti cells, Betti text,
# Hilbert numerator as text and as a list, Krull dimension).
DERIVED_AUDIT_GOLDENS = [
    (
        "g2-y1",
        7,
        [1, 24, 84, 126, 119, 77, 27, 4],
        {"0,0": 1, "1,2": 24, "2,3": 84, "3,4": 126, "4,5": 84, "4,6": 35, "5,6": 35, "5,7": 42, "6,7": 6, "6,8": 21, "7,9": 4},
        """\
       0  1  2   3   4  5  6 7
total: 1 24 84 126 119 77 27 4
    0: 1  .  .   .   .  .  . .
    1: . 24 84 126  84 35  6 .
    2: .  .  .   .  35 42 21 4
""",
        "1 + 7T + 4T^2",
        [1, 7, 4],
        7,
    ),
    (
        "f4-cone",
        10,
        [1, 27, 78, 351, 650, 702, 650, 351, 78, 27, 1],
        {"0,0": 1, "1,2": 27, "10,15": 1, "2,3": 78, "3,5": 351, "4,6": 650, "5,7": 351, "5,8": 351, "6,9": 650, "7,10": 351, "8,12": 78, "9,13": 27},
        """\
       0  1  2   3   4   5   6   7  8  9 10
total: 1 27 78 351 650 702 650 351 78 27  1
    0: 1  .  .   .   .   .   .   .  .  .  .
    1: . 27 78   .   .   .   .   .  .  .  .
    2: .  .  . 351 650 351   .   .  .  .  .
    3: .  .  .   .   . 351 650 351  .  .  .
    4: .  .  .   .   .   .   .   . 78 27  .
    5: .  .  .   .   .   .   .   .  .  .  1
""",
        "1 + 10T + 28T^2 + 28T^3 + 10T^4 + T^5",
        [1, 10, 28, 28, 10, 1],
        16,
    ),
]


@pytest.mark.parametrize("case,codim,totals,cells,betti_text,hilbert_text,numerator,krull", DERIVED_AUDIT_GOLDENS)
def test_derived_audit_cli_goldens(capsys, case, codim, totals, cells, betti_text, hilbert_text, numerator, krull):
    def out_of(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        return out

    def as_json(payload):
        return json.dumps(payload, sort_keys=True) + "\n"

    ambient = {"g2-y1": 14, "f4-cone": 26}[case]
    betti_json = {"ambient": ambient, "entries": cells}
    rows = [{"computed": t, "expected": t, "i": i, "pass": True} for i, t in enumerate(totals)]
    assert out_of("audit", "--case", case) == "".join(f"F_{i}: {t} (expected {t}: ok)\n" for i, t in enumerate(totals)) + "pass\n"
    assert out_of("audit", "--case", case, "--format", "json") == as_json(
        {"betti": betti_json, "name": case, "pass": True, "rows": rows}
    )
    assert out_of("betti", "--case", case) == betti_text
    assert out_of("betti", "--case", case, "--format", "json") == as_json(betti_json)
    assert out_of("hilbert", "--case", case, "--codim", str(codim)) == f"{hilbert_text}\nkrull dim {krull}\n"
    assert out_of("hilbert", "--case", case, "--codim", str(codim), "--format", "json") == as_json(
        {"krull_dim": krull, "numerator": numerator}
    )


@pytest.mark.parametrize("argv", [("koszul", "--form", "alternating", "--m", "-2", "--i", "1"), ("betti", "--case", "koszul:alternating:-3")])
def test_koszul_negative_m_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "alternating" in err and "is negative" in err


def test_unknown_koszul_form_is_refused_with_the_form(capsys):
    for command in (("betti", "--case", "koszul:foo:3"), ("hilbert", "--case", "koszul:foo:3", "--codim", "1")):
        for fmt in ("text", "json"):
            assert run_cli(capsys, *command, "--format", fmt) == (2, "", "error: koszul foo: form must be alternating or symmetric\n")


@pytest.mark.parametrize("name", ["koszul:alternating", "koszul:alternating:x", "koszul:alternating:3:1"])
def test_malformed_koszul_name_is_refused_with_its_form(capsys, name):
    # too few fields, an m that is no integer, too many fields
    for command in (("betti", "--case", name), ("hilbert", "--case", name, "--codim", "1")):
        for fmt in ("text", "json"):
            assert run_cli(capsys, *command, "--format", fmt) == (
                2, "", f"error: betti table {name!r} is not of the form koszul:<alternating|symmetric>:<m>\n"
            )


@pytest.mark.parametrize("name", ["g2-y2", "e8-start", "g2-y2-char2"])
def test_hilbert_refuses_a_negative_codimension(capsys, name):
    # refused before any property of the table, the cut of e8-start included
    for fmt in ("text", "json"):
        assert run_cli(capsys, "hilbert", "--case", name, "--codim", "-1", "--format", fmt) == (
            2, "", "error: hilbert: codim -1 is below 0\n"
        )


# Weights enter as text, with half-integers as n/2, and leave through one
# formatter; each case is (argv, exit code, text stdout, JSON stdout, stderr).
WEIGHT_EDGE_GOLDENS = [
    (["dim", "--type", "B3", "--weight=eps:3/2,1/2,1/2"], 0, "48\n", '{"dim": 48}\n', ""),
    (["dim", "--type", "C2", "--weight=eps:1/2,0"], 2, "", "", "error: eps:C2:1/2,0 is not on the weight lattice\n"),
    (["dim", "--type", "C2", "--weight=eps:1/3,0"], 2, "", "", "error: not a half-integer: 1/3\n"),
    (["decompose", "--type", "B2", "--input", "{spinor}"], 0, "fund:B2:0,1: 1\n", '{"fund:B2:0,1": 1}\n', ""),
    (["bracket", "--case", "SOB(2)", "--lambda", "2,1"], 0, "eps:B2:2,1\n", '{"coords": [2, 1], "system": "epsilon:B2"}\n', ""),
]


@pytest.mark.parametrize("argv,code,text,as_json,err", WEIGHT_EDGE_GOLDENS)
def test_weight_edge_goldens(capsys, tmp_path, argv, code, text, as_json, err):
    spinor = tmp_path / "spinor.json"  # the B2 spin character, keyed in epsilon coordinates
    spinor.write_text(json.dumps({f"eps:B2:{a}/2,{b}/2": 1 for a in (1, -1) for b in (1, -1)}))
    argv = [arg.format(spinor=spinor) for arg in argv]
    assert run_cli(capsys, *argv) == (code, text, err)
    assert run_cli(capsys, *argv, "--format", "json") == (code, as_json, err)


def test_hilbert_refuses_a_table_shorter_than_its_codimension(capsys):
    # e8-start holds homological degrees 0-2 only: a cut resolution
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "hilbert", "--case", "e8-start", "--codim", "3", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            "error: hilbert: the table has homological length 2, below the codimension 3; "
            "a resolution is never shorter than its codimension, so this table is cut\n"
        )


@pytest.mark.parametrize("codim", [0, 1, 2])
def test_hilbert_refuses_a_cut_table(capsys, codim):
    # within its length e8-start is refused for its cut, not for its data
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "hilbert", "--case", "e8-start", "--codim", str(codim), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            "error: hilbert: the table is cut at internal degree 3, so its K-polynomial is not the "
            "resolution's and has no Hilbert numerator\n"
        )


@pytest.mark.parametrize("name", ["koszul:alternating:3", "koszul:symmetric:2"])
def test_hilbert_refuses_a_table_with_no_ambient_dimension(capsys, name):
    for codim in (0, 3):
        code, out, err = run_cli(capsys, "hilbert", "--case", name, "--codim", str(codim))
        assert (code, out) == (2, "")
        assert err == f"error: hilbert --case {name}: the table has no ambient dimension to fix the Krull dimension\n"


def test_hilbert_help_lists_only_the_tables_it_answers(capsys):
    # hilbert answers exactly the names of test_hilbert_text; the cut e8-start
    # and the Koszul family are refused, while betti renders every name
    def listed(command):
        assert cli.run([command, "--help"]) == 0
        return " ".join(capsys.readouterr().out.split()).split("--case CASE one of ", 1)[1].split(" --codim")[0].split(", ")

    assert listed("hilbert") == sorted(HILBERT_AT_CODIM)
    assert listed("betti") == sorted(AUDITS) + ["g2-y2-char2", "koszul:<form>:<m>"]


@pytest.mark.parametrize("weight", ["foo:1,0", "eps:1/2/3,0,0", "eps:x,0,0"])
def test_malformed_weight_names_the_operation_the_input_and_the_form(capsys, weight):
    code, out, err = run_cli(capsys, "dim", "--type", "B3", f"--weight={weight}")
    assert (code, out) == (2, "")
    assert err == (
        f"error: parse_weight: {weight!r} is not a weight; expected an optional fund: or eps: prefix, "
        "then comma-separated coordinates, each an integer or n/2\n"
    )


def test_every_listed_betti_name_renders(capsys):
    assert cli.run(["betti", "--help"]) == 0
    listed = " ".join(capsys.readouterr().out.split()).split("--case CASE one of ", 1)[1].split(", ")
    assert set(AUDITS) | {"g2-y2-char2", "koszul:<form>:<m>"} == set(listed)
    names = [n for n in listed if not n.startswith("koszul:")] + ["koszul:alternating:3", "koszul:symmetric:2"]
    for name in names:
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "betti", "--case", name, "--format", fmt)
            assert (code, err) == (0, "") and out.strip(), (name, fmt)


@pytest.mark.parametrize(
    "argv,err",
    [
        (("slice", "--case", "E6_3", "--degree", "13"), "error: cauchy_slice E6_3: degree 13 is past SLICE_BOUND 12\n"),
        (("slice", "--case", "SpC(2)", "--degree", "-1"), "error: cauchy_slice SpC(2): degree -1 is below 0\n"),
        (("spinor", "--family", "Dfull", "--n", "9"), "error: spinor_complex Dfull: n 9 is past the bound 8\n"),
        (("spinor", "--family", "B", "--n", "0"), "error: spinor_complex B: n 0 is below 1\n"),
        (("decompose", "--type", "G2", "--weight", "1,0", "--schur", "9"), "error: schur_character [9] of fund:G2:1,0: size 9 is past SCHUR_SIZE_BOUND 8\n"),
        (("dim", "--type", "G", "--weight", "1,0"), "error: parse_type: 'G' is not a type; expected a family letter then a rank, e.g. G2\n"),
        (("dim", "--type", "2G", "--weight", "1,0"), "error: parse_type: '2G' is not a type; expected a family letter then a rank, e.g. G2\n"),
        (("branch", "--lambda", "2", "--target", "foo"), "error: branch_gl_to_iso: 'foo' is not a target; expected Sp:<m> or O:<m>, e.g. O:5 or Sp(4)\n"),
        (("branch", "--lambda", "2", "--target", "sp:x"), "error: branch_gl_to_iso: 'sp:x' is not a target; expected Sp:<m> or O:<m>, e.g. O:5 or Sp(4)\n"),
        (
            ("slice", "--case", "SpC(x)", "--degree", "1"),
            "error: parse_case: 'SpC(x)' is not a case; expected a kind, or a classical kind with its rank, e.g. SpC(3)\n",
        ),
        (
            ("lr", "--lambda", "1,x", "--mu", "1", "--nu", "x"),
            "error: parse_partition: '1,x' is not a partition; expected weakly decreasing comma-separated integers >= 0, or - for the empty one\n",
        ),
        (
            ("lr", "--lambda", "1,3", "--mu", "1", "--nu", "1"),
            "error: parse_partition: '1,3' is not a partition; expected weakly decreasing comma-separated integers >= 0, or - for the empty one\n",
        ),
        (
            ("mults", "--type", "E8", "--weight", "0,0,0,0,0,0,1,1"),
            "error: weight_multiplicities fund:E8:0,0,0,0,0,0,1,1: dim 4096000 is past LITTLEWOOD_DIM_BOUND 1000000\n",
        ),
        (("mults", "--type", "G2", "--weight", "2,1", "--bound", "100"), "error: weight_multiplicities fund:G2:2,1: dim 189 is past the bound 100\n"),
        (("decompose", "--type", "E8", "--weight", "1,1,0,0,0,0,0,0"), "error: char_of_irrep fund:E8:1,1,0,0,0,0,0,0: dim 301694976 is past LITTLEWOOD_DIM_BOUND 1000000\n"),
        (("pleth", "--k", "7", "--form", "alternating", "--dim-e", "4"), "error: plethysm_wedge_power alternating: k 7 is past the bound 6\n"),
        (("qset", "--variant", "plus", "--size", "14", "--oracle", "--dim-e", "8"), "error: plethysm_wedge_power symmetric: k 7 is past the bound 6\n"),
        (("verify-spinor", "--family", "B", "--n", "9", "--lambda", "1"), "error: spinor_complex B: n 9 is past the bound 8\n"),
        (("verify-spinor", "--family", "Dfull", "--n", "1", "--lambda", "1"), "error: verify_spinor_identity Dfull: n 1 is below 2\n"),
        (("verify-spinor", "--family", "Dplus", "--n", "1", "--lambda", "-"), "error: verify_spinor_identity Dplus: n 1 is below 2\n"),
        (("dim", "--type", "A9", "--weight", "1,0,0,0,0,0,0,0,0"), "error: build_root_system A: rank 9 is past RANK_BOUND 8\n"),
        (("dim", "--type", "D1", "--weight", "1"), "error: unsupported type D1: D takes ranks 2 and up\n"),
        (("dim", "--type", "E5", "--weight", "1,0,0,0,0"), "error: unsupported type E5: E takes ranks 6 to 8\n"),
        (("dim", "--type", "F3", "--weight", "1,0,0"), "error: unsupported type F3: F takes rank 4\n"),
        (("bott", "--spin", "B", "--n", "-2", "--lambda", "1"), "error: spin_cohomology B [1]: n -2 is below 1\n"),
        (("bott", "--spin", "B", "--n", "0"), "error: spin_cohomology B []: n 0 is below 1\n"),
        (("bott", "--spin", "Dplus", "--n", "0"), "error: spin_cohomology Dplus []: n 0 is below 1\n"),
        (("bott", "--spin", "Dminus", "--n", "-2", "--lambda", "1"), "error: spin_cohomology Dminus [1]: n -2 is below 1\n"),
        (
            ("branch", "--lambda", "11,10,9,8,7,6,5,4,3,2,1", "--target", "o:44"),
            "error: branch_gl_to_iso [11,10,9,8,7,6,5,4,3,2,1]: size 66 is past RULE_SIZE_BOUND 55\n",
        ),
        (
            ("verify-lwood", "--family", "C", "--lambda", "9,8,7,6,5,4,3,2,1", "--n", "9"),
            "error: verify_littlewood_identity C [9,8,7,6,5,4,3,2,1]: size 45 is past IDENTITY_SIZE_BOUND 36\n",
        ),
    ],
)
def test_refusals_name_the_operation_the_input_and_the_bound(capsys, monkeypatch, argv, err):
    monkeypatch.delenv("LITTLEWOOD_DIM_BOUND", raising=False)
    assert run_cli(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv,err",
    [
        # a rank below 1 is refused before any target is built
        (("verify-lwood", "--family", "C", "--lambda", "-", "--n", "0"), "verify_littlewood_identity C []: n 0 is below 1"),
        (("verify-lwood", "--family", "B", "--lambda", "-", "--n", "-1"), "verify_littlewood_identity B []: n -1 is below 1"),
        (("verify-lwood", "--family", "D", "--lambda", "1", "--n", "0"), "verify_littlewood_identity D [1]: n 0 is below 1"),
        (
            ("verify-lwood", "--family", "B", "--lambda", "1,1,1", "--n", "2"),
            "verify_littlewood_identity B [1,1,1]: need at most 2 rows in the stable range, got 3",
        ),
        (("verify-spinor", "--family", "Dplus", "--n", "2", "--lambda", "1,1,1"), "verify_spinor_identity Dplus [1,1,1]: need at most 2 rows, got 3"),
        (("bott", "--spin", "Dplus", "--n", "3", "--lambda", "4"), "spin_cohomology Dplus [4]: the shape does not fit in the 3x3 box"),
        (("bott", "--spin", "B", "--n", "2", "--lambda", "1,1,1"), "spin_cohomology B [1,1,1]: the shape does not fit in the 2x2 box"),
        (("bracket", "--case", "OD(1)", "--lambda", "1"), "case OD needs a rank n >= 2, got 1"),
        (("slice", "--case", "SpC(0)", "--degree", "1"), "case SpC needs a rank n >= 1, got 0"),
        (("slice", "--case", "SOB", "--degree", "1"), "case SOB needs a rank n >= 1, got None"),
        (("branch", "--lambda", "1", "--target", "sp:3"), "branch_gl_to_iso: 'sp:3' is not a target; Sp needs an even dimension m >= 2"),
        (("branch", "--lambda", "1", "--target", "sp:0"), "branch_gl_to_iso: 'sp:0' is not a target; Sp needs an even dimension m >= 2"),
        (("branch", "--lambda", "1", "--target", "o:1"), "branch_gl_to_iso: 'o:1' is not a target; O needs a dimension m >= 2"),
        (
            ("branch", "--lambda", "1", "--target", "x:4"),
            "branch_gl_to_iso: 'x:4' is not a target; expected Sp:<m> or O:<m>, e.g. O:5 or Sp(4)",
        ),
    ],
)
def test_refusals_in_the_classical_and_spin_tables_name_the_input(capsys, argv, err):
    for fmt in ("text", "json"):
        assert run_cli(capsys, *argv, "--format", fmt) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "family,n,lam,least",
    [("B", "-1", "-", 1), ("B", "0", "1", 1), ("B", "0", "-", 1), ("Dminus", "-1", "-", 2), ("Dminus", "0", "1", 2), ("Dfull", "1", "1,1", 2)],
)
def test_verify_spinor_refuses_a_bad_rank_before_it_counts_rows(capsys, family, n, lam, least):
    # B_n needs n >= 1 and D_n n >= 2, and the rank is checked before the rows are counted
    for fmt in ("text", "json"):
        got = run_cli(capsys, "verify-spinor", "--family", family, "--n", n, "--lambda", lam, "--format", fmt)
        assert got == (2, "", f"error: verify_spinor_identity {family}: n {n} is below {least}\n")


def test_verify_lwood_answers_for_the_rank_one_orthogonal_group(capsys):
    # O(2) is a group the Littlewood identity holds for, though D1 is no root system
    assert run_cli(capsys, "verify-lwood", "--family", "D", "--lambda", "1", "--n", "1") == (0, "pass: D lambda=[1] n=1\n", "")
    with pytest.raises(ValueError, match=r"^family must be B, C, or D$"):
        verify_littlewood_identity("X", (1,), 1)


@pytest.mark.parametrize(
    "argv,err",
    [
        (("bott", "--spin", "B"), "bott --spin B needs --n, the rank"),
        (("bott", "--spin", "Dplus", "--lambda", "1"), "bott --spin Dplus needs --n, the rank"),
        (("bott",), "bott needs --type/--weight, or --spin with --n/--lambda"),
        (("bott", "--type", "G2"), "bott needs --type/--weight, or --spin with --n/--lambda"),
        (("decompose", "--type", "G2"), "decompose needs --weight (plus optional --schur) or --input"),
        (("decompose", "--type", "G2", "--schur", "2"), "decompose needs --weight (plus optional --schur) or --input"),
        (("qset", "--variant", "minus"), "qset needs --size or --check"),
        (("qset", "--variant", "plus", "--oracle"), "qset needs --size or --check"),
    ],
)
def test_a_mode_without_its_required_option_exits_2_with_one_error_line(capsys, argv, err):
    # argparse cannot require these: which option a mode needs depends on the mode
    for fmt in ("text", "json"):
        assert run_cli(capsys, *argv, "--format", fmt) == (2, "", f"error: {err}\n")


def test_spinor_complex_of_rank_one_answers(capsys):
    # only the identity check, which needs the root system D_n, refuses n = 1
    assert run_cli(capsys, "spinor", "--family", "Dplus", "--n", "1") == (0, "F_0(-0): {[]|Delta+:1}\nF_1(-1): {[1]|Delta-:1}\n", "")


def test_dim_bound_that_is_not_an_integer_is_named(capsys, monkeypatch):
    monkeypatch.setenv("LITTLEWOOD_DIM_BOUND", "abc")
    got = run_cli(capsys, "mults", "--type", "G2", "--weight", "1,0")
    assert got == (2, "", "error: dim_bound: LITTLEWOOD_DIM_BOUND 'abc' is not an integer\n")


def test_answers_the_dimension_bound_used_to_refuse_after_the_work(capsys, monkeypatch):
    # the bound limits weight expansion, not a constituent nobody expands
    # (dim V_{3 omega_8} = 1763125) nor a dimension already computed
    monkeypatch.delenv("LITTLEWOOD_DIM_BOUND", raising=False)
    code, out, err = run_cli(capsys, "decompose", "--type", "E8", "--weight", "0,0,0,0,0,0,0,1", "--schur", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"fund:E8:{w}: 1" for w in ("0,0,0,0,0,0,0,1", "0,0,0,0,0,0,0,3", "0,0,0,0,0,0,1,0", "1,0,0,0,0,0,0,1")]
    monkeypatch.setenv("LITTLEWOOD_DIM_BOUND", "50")
    assert run_cli(capsys, "verify-spinor", "--family", "B", "--n", "3", "--lambda", "2,1") == (0, "pass: B n=3 lambda=[2,1] (512 = 512)\n", "")


def test_schur_functor_of_the_e8_adjoint_answers(capsys):
    # the 248-dimensional base was refused while Schur functors were filled
    # weight by weight; wedge^2(248) = 248 + 30380
    code, out, err = run_cli(capsys, "decompose", "--type", "E8", "--weight", "0,0,0,0,0,0,0,1", "--schur", "1,1")
    assert (code, err) == (0, "")
    assert out == "fund:E8:0,0,0,0,0,0,0,1: 1\nfund:E8:0,0,0,0,0,0,1,0: 1\n"


@pytest.mark.parametrize(
    "type_,content,err",
    [
        ("", None, "parse_type: '' is not a type; expected a family letter then a rank, e.g. G2"),
        (
            "G2",
            '{"fund::1": 1}',
            "weight_from_key: 'fund::1' is not a weight key; expected <fund|eps>:<type>:<coordinates>, e.g. fund:G2:1,0",
        ),
        (
            "G2",
            "[1, 2]",
            "decompose --input {path}: the document is not a character; expected a JSON object of weight keys to integer multiplicities",
        ),
        ("G2", '{"fund:G2:1,0": "x"}', "decompose --input {path}: 'x' at 'fund:G2:1,0' is not a multiplicity; expected an integer"),
        ("G2", "{bad", "decompose --input {path}: not JSON at line 1 column 2: Expecting property name enclosed in double quotes"),
        ("E6", '{"fund:G2:0,0": 1}', "decompose --input {path}: the weight key 'fund:G2:0,0' is of type G2, not --type E6"),
        ("B2", '{"fund:G2:0,0": 1}', "decompose --input {path}: the weight key 'fund:G2:0,0' is of type G2, not --type B2"),
    ],
    ids=["empty-type", "key-without-type", "json-list", "string-multiplicity", "not-json", "key-of-a-longer-type", "key-of-a-same-rank-type"],
)
def test_malformed_type_and_character_input_exit_2_not_with_a_traceback(capsys, tmp_path, type_, content, err):
    # exit 1 is a verification failure; these were IndexError, AttributeError and TypeError
    if content is None:
        argv = ("dim", "--type", type_, "--weight", "1")
    else:
        path = tmp_path / "f.json"
        path.write_text(content)
        argv = ("decompose", "--type", type_, "--input", str(path))
    assert run_cli(capsys, *argv) == (2, "", f"error: {err.format(path=argv[-1])}\n")


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b'{"fund:G2:0,0": 1, "\xff": 1}'), "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    ],
    ids=["missing", "directory", "not-utf-8"],
)
def test_unreadable_input_names_the_operation_and_the_path(capsys, tmp_path, make, reason):
    path = tmp_path / "f.json"
    make(path)
    assert run_cli(capsys, "decompose", "--type", "G2", "--input", str(path)) == (2, "", f"error: decompose --input {path}: cannot read: {reason}\n")
