import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qmpaths
from qmpaths.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_diagrams_count(capsys):
    code, out, _ = run_cli(capsys, "diagrams", "2", "2", "--count-only")
    assert code == 0
    assert out.strip() == "14"


def test_diagrams_count_only_4x4(capsys):
    code, out, _ = run_cli(capsys, "diagrams", "4", "4", "--count-only")
    assert code == 0
    assert out.strip() == "6902"
    code, out, _ = run_cli(
        capsys, "diagrams", "4", "4", "--count-only", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 6902


def test_diagrams_4x4_listing_bytes(capsys):
    # the text listing is printed as it is enumerated and the JSON listing
    # keeps only the inline strings; the bytes are those of the listings
    # built whole
    want = {
        "text": "f9905b31d3e7b48f035e58f7251d7a5297502efa2df9629e5447ae7c55061c80",
        "json": "2e803888afcde633478a0407afee499134f0350c584bdabf32dd1b176b027bd2",
    }
    for fmt, digest in want.items():
        code, out, _ = run_cli(capsys, "diagrams", "4", "4", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_diagrams_relaxed_1x1(capsys):
    code, out, _ = run_cli(
        capsys, "diagrams", "1", "1", "--relaxed", "--count-only"
    )
    assert code == 0
    assert out.strip() == "2"


def test_diagrams_requires_relaxed_for_thin_shapes(capsys):
    code, _out, err = run_cli(capsys, "diagrams", "1", "3", "--count-only")
    assert code == 2
    assert "relaxed" in err


def test_diagrams_cap(capsys):
    code, _out, err = run_cli(capsys, "diagrams", "5", "4", "--count-only")
    assert code == 2
    assert "cap" in err
    code, out, _ = run_cli(
        capsys, "diagrams", "5", "4", "--count-only", "--cap", "20"
    )
    assert code == 0
    assert int(out) > 0


def test_diagrams_listing_and_json(capsys):
    code, out_text, _ = run_cli(capsys, "diagrams", "2", "2")
    assert code == 0
    assert out_text.count("\n\n") >= 13
    code, out_json, _ = run_cli(capsys, "diagrams", "2", "2", "--format", "json")
    data = json.loads(out_json)
    assert data["schema"] == 1
    assert data["count"] == 14
    assert data["diagrams"][0] == "../.."


def test_hprime_minimal(capsys):
    code, out, _ = run_cli(
        capsys, "hprime", "3", "4", "--diagram", "#.../##../....", "--minimal"
    )
    assert code == 0
    assert out.splitlines() == [
        "[1,2|1,2]",
        "[1,3|1,2]",
        "[2,3|1,2]",
        "[2,3|1,3]",
        "[2,3|2,3]",
    ]


def test_hprime_full_list_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "hprime", "3", "4", "--diagram", "#.../##../....", "--format", "json",
    )
    data = json.loads(out)
    assert data["t"] == 12
    assert len(data["minors"]) == 7


def test_hprime_all_white_and_all_black(capsys):
    code, out, _ = run_cli(capsys, "hprime", "2", "2", "--diagram", "../..")
    assert code == 0 and out.strip() == ""
    # every minor of the all-black square is in the kernel; the minimal
    # filter keeps exactly the generators
    code, out, _ = run_cli(
        capsys, "hprime", "2", "2", "--diagram", "##/##", "--minimal"
    )
    assert code == 0
    assert out.splitlines() == ["[1|1]", "[1|2]", "[2|1]", "[2|2]"]
    code, out, _ = run_cli(capsys, "hprime", "2", "2", "--diagram", "##/##")
    assert code == 0
    assert out.splitlines() == ["[1|1]", "[1|2]", "[2|1]", "[2|2]", "[1,2|1,2]"]


def test_hprime_rejects_non_cauchon(capsys):
    code, _out, err = run_cli(
        capsys, "hprime", "3", "4", "--diagram", "#.../#.#./...."
    )
    assert code == 2
    assert "(2, 3)" in err


def test_hprime_minimal_requires_top_threshold(capsys):
    code, _out, err = run_cli(
        capsys, "hprime", "2", "2", "--diagram", "#./..", "--minimal", "-t", "3"
    )
    assert code == 2


def test_generators_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "generators", "2", "3", "--diagram", "#../...", "-t", "5",
        "--format", "json",
    )
    data = json.loads(out)
    assert data["t"] == 5
    # the (1,1) image is a single monomial with exponents t12 t22^-1 t21
    entry = data["matrix"][0][0]
    assert entry == [
        {"N": [[1, 2, 1], [2, 1, 1], [2, 2, -1]], "coeff": [[1, 1, 1]]}
    ]


def test_minor_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "minor", "3", "4", "--diagram", "#.../##../....",
        "--spec", "[1,2|1,2]", "--format", "json",
    )
    data = json.loads(out)
    assert data["zero"] is True
    assert data["in_kernel"] is True
    assert data["value"] == []
    code, out, _ = run_cli(
        capsys,
        "minor", "3", "4", "--diagram", "#.../##../....",
        "--spec", "[1|2]", "--format", "json",
    )
    data = json.loads(out)
    assert data["zero"] is False


def test_graph_dot_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "graph", "2", "2", "--diagram", "../..")
    assert code == 0
    assert out.startswith("digraph cauchon {")
    target = tmp_path / "g.dot"
    code, out, _ = run_cli(
        capsys, "graph", "2", "2", "--diagram", "../..", "-o", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph cauchon {")


def test_verify_relations_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "relations", "--max", "2", "2")
    assert code == 0
    assert "relations: PASS" in out


def test_verify_groebner_single_diagram(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "groebner", "--diagram", "#.../##../....",
        "--samples", "25", "--seed", "7", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["reports"][0]["suite"] == "groebner"


def test_verify_output_deterministic(capsys):
    args = [
        "verify", "groebner", "--diagram", "#./..",
        "--samples", "20", "--seed", "3", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_samples_and_seed_default_to_200_and_0(capsys):
    args = ["verify", "ddalg", "--max", "2", "2", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--samples", "200", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["reports"][0]["params"]["samples"] == 200


def test_diagrams_listing_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "diagrams", "2", "3", "--format", "json")
    code2, out2, _ = run_cli(capsys, "diagrams", "2", "3", "--format", "json")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["diagrams"]) == 2
    _ = capsys.readouterr()
    assert main(["nonsense"]) == 2
    _ = capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "groebner", "--diagram", "#x/.."],
        ["verify", "groebner", "--diagram", "#./..", "-t", "99"],
        ["verify", "groebner", "--diagram", "#./..", "-t", "0"],
        ["verify", "groebner", "--diagram", "#./..", "--samples", "-5"],
        ["verify", "ddalg", "--samples", "-5"],
        ["verify", "relations", "--max", "1", "1"],
        ["verify", "all", "--max", "1", "3"],
        ["hprime", "2", "2", "--diagram-file", "/nonexistent/diagram.txt"],
        ["hprime", "2", "2", "--diagram", "../..", "--diagram-file", "/dev/null"],
        ["verify", "relations", "--diagram", "#./.."],
        ["verify", "lindstrom", "-t", "2"],
        ["verify", "ddalg", "--diagram", "#./..", "-t", "2"],
        ["verify", "all", "--diagram", "#./.."],
        ["verify", "groebner", "-t", "2"],
        ["minor", "2", "2", "--diagram", "../..", "--spec", "[0|1]"],
        ["minor", "2", "2", "--diagram", "../..", "--spec", "[-1|1]"],
        ["graph", "2", "2", "--diagram", "../..", "-o", "/nonexistent/dir/x.dot"],
        ["graph", "2", "2", "--diagram", "../..", "-t", "99"],
        ["verify", "relations", "--max", "2", "2", "--seed", "-5"],
        ["verify", "lindstrom", "--max", "2", "2", "--samples", "6"],
        ["verify", "groebner", "--diagram", "../..", "--max", "9", "9",
         "--samples", "2"],
    ],
    ids=["bad-diagram-char", "t-too-large", "t-zero", "negative-samples",
         "negative-samples-ddalg", "max-1-1", "max-1-3", "missing-diagram-file",
         "diagram-and-diagram-file",
         "relations-diagram", "lindstrom-t", "ddalg-diagram-t", "all-diagram",
         "groebner-t-without-diagram", "minor-index-0", "minor-index-negative",
         "graph-unwritable-output", "graph-t", "relations-seed", "lindstrom-samples",
         "groebner-diagram-max"],
)
def test_bad_input_is_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_diagram_and_diagram_file_together_are_refused(capsys, tmp_path):
    # even when both name a valid diagram, neither one is silently dropped
    path = tmp_path / "d.txt"
    path.write_text("#./..\n")
    code, out, _ = run_cli(capsys, "hprime", "2", "2", "--diagram-file", str(path))
    assert code == 0 and out
    code, out, err = run_cli(
        capsys, "hprime", "2", "2", "--diagram", "../..", "--diagram-file", str(path)
    )
    assert (code, out) == (2, "")
    assert err == "error: give --diagram or --diagram-file, not both\n"


def test_module_entry_point():
    # run from the directory that holds the imported package, so `-m` finds
    # it with or without PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "qmpaths", "diagrams", "2", "2", "--count-only"],
        capture_output=True,
        text=True,
        cwd=Path(qmpaths.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "14"


def test_closed_output_pipe_exits_quietly():
    # the 4x4 listing is far larger than a pipe buffer, so the writer is
    # still printing when the reader closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmpaths", "diagrams", "4", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=Path(qmpaths.__file__).resolve().parents[1],
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err
