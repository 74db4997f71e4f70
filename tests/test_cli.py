import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourneylab import canonical_form, format_edge_list, imbalanced_rps, parse_edge_list
from tourneylab import cli, tournament, verify
from tourneylab.construct import classic_cycle
from tourneylab.cli import _jobs_arg, _json_text, main
from conftest import rewrite_class_list

WELL_EDGES = """\
4
# label 0 rock
# label 1 paper
# label 2 scissors
# label 3 well
0 2
2 1
1 0
3 0
3 2
1 3
"""

CYCLE_EDGES = "3\n0 1\n1 2\n2 0\n"

WELL_CSV = """\
,rock,paper,scissors,well
rock,,0.2,0.7,0.1
paper,0.8,,0.35,0.6
scissors,0.3,0.65,,0.4
well,0.9,0.4,0.6,
"""


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_cycle_playable(tmp_path, capsys):
    path = tmp_path / "cycle.edges"
    path.write_text(CYCLE_EDGES)
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["playability"]["class"] == "strongly_playable"
    assert doc["equilibrium"]["exact"] == ["1/3", "1/3", "1/3"]
    assert doc["imbalance"]["ui_variance"]["exact"] == "0"


def test_analyze_well_unplayable_exit_2(tmp_path, capsys):
    path = tmp_path / "well.edges"
    path.write_text(WELL_EDGES)
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["playability"]["class"] == "unplayable"
    assert doc["playability"]["witness"] == "well weakly dominates rock"
    assert doc["equilibrium"] is None


def test_analyze_markdown(tmp_path, capsys):
    path = tmp_path / "well.edges"
    path.write_text(WELL_EDGES)
    code, out, _ = run_cli(["analyze", str(path), "--md"], capsys)
    assert code == 2
    assert "well weakly dominates rock" in out
    assert out.startswith("# Analysis")


def test_analyze_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("3\n0 1\n1 0\n1 2\n")
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1
    assert "contradictory" in err
    path.write_text("3\nx y\n")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1 and "line 2" in err


def test_analyze_out_of_range_label_exit_1(tmp_path, capsys):
    path = tmp_path / "label.edges"
    path.write_text("3\n0 1\n# label 3 x\n1 2\n2 0\n")
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == "error: line 3: label index 3 out of range for n=3\n"


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/file.edges"], capsys)
    assert code == 1 and "cannot read" in err


def test_analyze_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "utf16.edges"
    path.write_bytes(b"\xff\xfe3\x00\n\x00")
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_analyze_csv_matches_edge_list(tmp_path, capsys):
    csv_path = tmp_path / "well.csv"
    csv_path.write_text(WELL_CSV)
    code, out, _ = run_cli(["analyze", str(csv_path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["playability"]["witness"] == "well weakly dominates rock"
    edge_doc = WELL_EDGES
    path = tmp_path / "well.edges"
    path.write_text(edge_doc)
    _, out2, _ = run_cli(["analyze", str(path)], capsys)
    assert json.loads(out2)["degree_profile"] == doc["degree_profile"]


def test_analyze_csv_rejects_exact_half(tmp_path, capsys):
    bad = WELL_CSV.replace("0.2", "0.5").replace("0.8", "0.5")
    path = tmp_path / "tie.csv"
    path.write_text(bad)
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1
    assert "exactly 0.5" in err and "rock" in err and "paper" in err


@pytest.mark.parametrize("good, bad", [("0.8", "1.5"), ("0.2", "-0.5")])
def test_analyze_csv_rejects_rates_outside_unit_interval(tmp_path, capsys, good, bad):
    # WELL_CSV gives paper 0.8 against rock, and rock 0.2 against paper
    path = tmp_path / "range.csv"
    path.write_text(WELL_CSV.replace(good, bad, 1))
    assert run_cli(["analyze", str(path)], capsys) == (
        1, "", "error: rate for pair (rock, paper) is outside [0, 1]\n"
    )


@pytest.mark.parametrize(
    "cell, message",
    [
        ("1e-999999999", "error: contradictory rates for pair (a, b)"),
        ("1e-9999999999999999999",
         "error: row 2: cell for (a, b) is not a number: '1e-9999999999999999999'"),
    ],
    ids=["tiny", "beyond-decimal-range"],
)
def test_analyze_csv_extreme_exponent_exits_at_once(tmp_path, cell, message):
    # as a Fraction the first cell expands 10**999999999 and never returns
    path = tmp_path / "exp.csv"
    path.write_text(f",a,b\na,,{cell}\nb,0.3,\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tourneylab.cli", "analyze", str(path)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")


def test_analyze_csv_rejects_contradiction(tmp_path, capsys):
    bad = WELL_CSV.replace("0.8", "0.3")
    path = tmp_path / "contra.csv"
    path.write_text(bad)
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1 and "contradictory" in err


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "dup.csv",
            WELL_CSV.replace("paper", "rock"),
            "header row: label 'rock' names more than one object",
        ),
        ("dup.edges", WELL_EDGES.replace("paper", "rock"), "label 'rock' names more than one object"),
        (
            "twice.edges",
            WELL_EDGES.replace("label 1", "label 0"),
            "line 3: label index 0 is already labeled 'rock'",
        ),
    ],
    ids=["csv-header", "same-name", "same-index"],
)
def test_analyze_repeated_labels_exit_1(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli(["analyze", str(path)], capsys) == (1, "", f"error: {message}\n")


def test_analyze_5x5_csv_thresholds_to_tournament(tmp_path, capsys):
    t = imbalanced_rps(2)
    header = "," + ",".join(t.labels)
    rows = [header]
    for i in range(t.n):
        cells = [t.labels[i]]
        for j in range(t.n):
            if i == j:
                cells.append("")
            else:
                cells.append("0.7" if t.beats[i][j] else "0.3")
        rows.append(",".join(cells))
    csv_path = tmp_path / "rates.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(["analyze", str(csv_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibrium"]["exact"] == ["1/3", "1/3", "1/9", "1/9", "1/9"]
    assert doc["input"]["labels"] == list(t.labels)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_imbalanced_two(capsys):
    code, out, _ = run_cli(["generate", "imbalanced", "--n", "2"], capsys)
    assert code == 0
    t = parse_edge_list(out)
    assert t.labels == ("r1", "p1", "r2", "p2", "s")
    assert canonical_form(t) == canonical_form(imbalanced_rps(2))
    assert "# equilibrium r1 1/3" in out
    assert "# equilibrium s 1/9" in out


def test_generate_imbalanced_one_is_cycle(capsys):
    code, out, _ = run_cli(["generate", "imbalanced", "--n", "1"], capsys)
    assert code == 0
    t = parse_edge_list(out)
    assert t.n == 3 and canonical_form(t) == canonical_form(imbalanced_rps(1))


def test_generate_classic_cycle(capsys):
    code, out, _ = run_cli(["generate", "classic-cycle", "--n", "5"], capsys)
    assert code == 0
    t = parse_edge_list(out)
    for i in range(5):
        assert t.beats[i][(i + 1) % 5] and t.beats[i][(i + 2) % 5]


def test_generate_invalid_n(capsys):
    code, _, err = run_cli(["generate", "imbalanced", "--n", "0"], capsys)
    assert code == 1 and "error" in err
    code, _, err = run_cli(["generate", "classic-cycle", "--n", "4"], capsys)
    assert code == 1 and "odd" in err


@pytest.mark.parametrize(
    "kind, n, objects",
    [
        ("imbalanced", 501, 1003),
        ("classic-cycle", 1003, 1003),
        ("imbalanced", 10**8, 2 * 10**8 + 1),
        ("classic-cycle", 10**8, 10**8),
    ],
)
def test_generate_above_the_cap_exits_before_building(kind, n, objects, capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(["generate", kind, "--n", str(n)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: generate is bounded at {cli.GENERATE_MAX_OBJECTS} objects, got {objects}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("kind, n", [("imbalanced", 500), ("classic-cycle", 1001)])
def test_generate_builds_at_the_cap(kind, n, monkeypatch, capsys):
    built = []
    for name in ("imbalanced_rps", "classic_cycle"):
        monkeypatch.setattr(cli, name, lambda n: built.append(n) or classic_cycle(3))
    monkeypatch.setattr(cli, "imbalanced_equilibrium_closed_form", lambda n: (Fraction(1, 3),) * 3)
    code, out, _ = run_cli(["generate", kind, "--n", str(n)], capsys)
    assert code == 0 and built == [n]
    assert parse_edge_list(out) == classic_cycle(3)


def test_generate_json(capsys):
    code, out, _ = run_cli(["generate", "imbalanced", "--n", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibrium"]["exact"] == ["1/3", "1/3", "1/9", "1/9", "1/9"]
    assert doc["labels"][-1] == "s"


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------

def _write_generated(tmp_path, capsys, name, *args):
    code, out, _ = run_cli(["generate", *args], capsys)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return path


def test_blowup_three_at_s(tmp_path, capsys):
    rps3 = _write_generated(tmp_path, capsys, "rps3.edges", "imbalanced", "--n", "1")
    code, out, _ = run_cli(["blowup", str(rps3), "s", str(rps3)], capsys)
    assert code == 0
    blown = parse_edge_list(out)
    assert canonical_form(blown) == canonical_form(imbalanced_rps(2))
    assert "s.r1" in blown.labels


def test_blowup_iterated_makes_seven(tmp_path, capsys):
    rps3 = _write_generated(tmp_path, capsys, "rps3.edges", "imbalanced", "--n", "1")
    rps5 = _write_generated(tmp_path, capsys, "rps5.edges", "imbalanced", "--n", "2")
    code, out, _ = run_cli(["blowup", str(rps5), "s", str(rps3)], capsys)
    assert code == 0
    assert canonical_form(parse_edge_list(out)) == canonical_form(imbalanced_rps(3))


def test_blowup_unknown_label(tmp_path, capsys):
    rps3 = _write_generated(tmp_path, capsys, "rps3.edges", "imbalanced", "--n", "1")
    code, _, err = run_cli(["blowup", str(rps3), "zz", str(rps3)], capsys)
    assert code == 1 and "zz" in err


def test_blowup_unknown_vertex_message_unquoted(tmp_path, capsys):
    g = tmp_path / "g.edges"
    g.write_text(CYCLE_EDGES)
    for vertex in ("-1", "²"):  # "²" is a digit to str.isdigit, not to int()
        assert run_cli(["blowup", str(g), vertex, str(g)], capsys) == (
            1, "", f"error: no vertex labeled '{vertex}'\n"
        )


def test_blowup_repeated_labels_exit_1(tmp_path, capsys):
    rps3 = _write_generated(tmp_path, capsys, "rps3.edges", "imbalanced", "--n", "1")
    dup = tmp_path / "dup.edges"
    dup.write_text(rps3.read_text().replace("label 1 p1", "label 1 r1"))
    assert run_cli(["blowup", str(dup), "r1", str(rps3)], capsys) == (
        1, "", "error: label 'r1' names more than one object\n"
    )
    outer = tmp_path / "outer.edges"
    outer.write_text(rps3.read_text().replace("label 1 p1", "label 1 s.r1"))
    assert run_cli(["blowup", str(outer), "s", str(rps3)], capsys) == (
        1, "", "error: label 's.r1' names more than one object\n"
    )


def test_blowup_non_utf8_file_exit_1(tmp_path, capsys):
    rps3 = _write_generated(tmp_path, capsys, "rps3.edges", "imbalanced", "--n", "1")
    bad = tmp_path / "utf16.edges"
    bad.write_bytes(b"\xff\xfe3\x00\n\x00")
    for outer, inner in ((bad, rps3), (rps3, bad)):
        code, out, err = run_cli(["blowup", str(outer), "s", str(inner)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {bad}: ")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_theorem_n2(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(
        ["verify", "theorem", "--n", "2", "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    assert "theorem_n2: PASS" in out
    report = json.loads((out_dir / "theorem_n2.json").read_text())
    assert report["ok"] and report["schema"] == 1
    assert (out_dir / "theorem_n2.md").exists()


def test_verify_reports_byte_identical_across_runs(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code, _, _ = run_cli(
            ["verify", "theorem", "--n", "2", "--out-dir", str(d)], capsys
        )
        assert code == 0
    assert (d1 / "theorem_n2.json").read_bytes() == (d2 / "theorem_n2.json").read_bytes()
    assert (d1 / "theorem_n2.md").read_bytes() == (d2 / "theorem_n2.md").read_bytes()


def test_verify_even(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", "even", "--max-n", "4", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 0 and "even_maxn4: PASS" in out


def test_verify_structural(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", "structural", "--objects", "5", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 0 and "structural_n5: PASS" in out


# sha256 of every report the runs below write; a change to any report byte
# must change these on purpose
REPORT_DIGESTS = {
    "even_maxn4.json": "be4a601416aa00d0595137a2a7ca761e593838efb8a9ddf3c7602e9f1ec80151",
    "even_maxn4.md": "54827c899d79252316b0703464e2df6f28b92d5e6ae1b993e7fd26a894edc6b3",
    "even_maxn6.json": "f5d5ace99b8b939fe2f818d68ffdc25b51cb70119cc5743476bcdc435facc7ad",
    "even_maxn6.md": "43eab96677f87cf4e51237e37b79096c0c1f3b87a18a68f08101b3589975b20d",
    "structural_n3.json": "0e175c810e8088ea810801e83cc78f141b643e7604dc7058e3cb99bf615ebaea",
    "structural_n3.md": "7eaf12707860c098d7e3e2ff25be061dd302cda6251f963f4b038dc5a6dcc1fd",
    "structural_n5.json": "8aff5188d7d99b8ca0679cf2a9c390ab402a36f202d12a1ab0d0c22350012180",
    "structural_n5.md": "c5ae806108469e19c42ffbd8903e808e7fbf5c3bdcc60298ae74331ec512806b",
    "structural_n7.json": "ccfad4aa9b9443086e7971b4c1d12a36de02392d4e77d58b0f3fea71c1e0599f",
    "structural_n7.md": "0ba0e2a357ed27f8e9d64a2d980fee7fa20122ebdff744b5d7fea65b10bfe2c3",
    "theorem_n1.json": "677be913a7c157ad13af7e9f12c181bf92e0992fcb387560e60f6a24139f314e",
    "theorem_n1.md": "7508d7adafa20c5e89936199d7231049dcedee37d9ecc7c275c9c2d12d07a542",
    "theorem_n2.json": "a6051f320399c652c63973638bcaa92fa27c64e81c3d70d668f075c03f59c134",
    "theorem_n2.md": "37579910c44497b3caeb3ff7cd7feb00bf8dc5c583e45555b7fd05d0f0b24106",
    "theorem_n3.json": "41270f0b28013a82b3815eeab2c66fa5a4a213bc34514ed4f654eb8de2049bb9",
    "theorem_n3.md": "dfeb058da28c803729fb5b6a47cb60b481fcaeabbf009df17271fd3d446e4641",
}


def test_verify_reports_match_pinned_digests(tmp_path, capsys):
    runs = [["theorem", "--n", n] for n in ("1", "2", "3")]
    runs += [["structural", "--objects", m] for m in ("3", "5", "7")]
    runs += [["even", "--max-n", m] for m in ("4", "6")]
    for args in runs:
        run_cli(["verify", *args, "--out-dir", str(tmp_path)], capsys)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == REPORT_DIGESTS


RESULTS = Path(__file__).resolve().parents[1] / "results"


def test_nine_object_reports_match_the_committed_results(tmp_path, capsys):
    # the theorem run fails criterion (d) at 9 objects, so it exits 1
    for args, expected_code in (
        (["theorem", "--n", "4"], 1),
        (["structural", "--objects", "9"], 0),
    ):
        code, _, _ = run_cli(
            ["verify", *args, "--jobs", "1", "--out-dir", str(tmp_path)], capsys
        )
        assert code == expected_code
    names = ["structural_n9.json", "structural_n9.md", "theorem_n4.json", "theorem_n4.md"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name


ODD_LABELS_EDGES = '3\n# label 0 é\n# label 1 a"b\n# label 2 c\\d\n0 1\n1 2\n2 0\n'


# sha256 of every analyze and generate output of the test below, taken from the output of
# json.dumps(doc, indent=2); a change to any output byte must change these on purpose
OUTPUT_DIGESTS = {
    "generate_imbalanced_1.json": "576f0f87ed4f70bdad8df1ee2560f6517893d003ea67f3daca2a4e19eb649c8f",
    "generate_imbalanced_2.json": "8d31f7128443afe6c19e4e03984f3313ae9cd2ecfa1e80791a2fc438a25b5875",
    "generate_imbalanced_3.json": "d2bbe17a178a09b1d3de5c9954618aa942df85b53051dfbafa9f2e4b36672205",
    "generate_imbalanced_4.json": "12f2514d7a1fd61e1e0475a47ef11c706697fa042b4dc943584809af50d17e86",
    "generate_imbalanced_5.json": "54a5199a632b2133dc4b5db4ce655863e6ea95ddb82d42baf9389ab5184f5531",
    "generate_classic-cycle_25.json": "7fdfac4c4cc369bd6eeb2272f4f6c1a1eab5c05f83b348533b92b2fe76df4841",
    "analyze_one.edges.json": "69fbdbd0328550ce1fc1dadbf7d63a0a38509e74032d5e8ce1d7b96c475f653c",
    "analyze_one.edges.md": "47b6c06972d189df58005008c6d566b7b95fd2b68abaa9ca8f62f9fe615f77de",
    "analyze_two.edges.json": "2c04eed10930e82c5a1924ca94126d08033879dcb111a4cfc0031ed7cb9c90eb",
    "analyze_two.edges.md": "1717d53d88fe4199a16c435b5938c3c06cb499ae1765992d08f011fb6b009da7",
    "analyze_well.edges.json": "6dfd23285b69ef81882a0723b99ade31bd012261be2b57185738fbc9a563c160",
    "analyze_well.edges.md": "b11df470f513ca2e974d3f3cc20cae94f6bba212cb258efd8aab0cc7dc5378c1",
    "analyze_well.csv.json": "6dfd23285b69ef81882a0723b99ade31bd012261be2b57185738fbc9a563c160",
    "analyze_well.csv.md": "b11df470f513ca2e974d3f3cc20cae94f6bba212cb258efd8aab0cc7dc5378c1",
    "analyze_odd_labels.edges.json": "f49d0a74f2fd4d917751bef84d12293a78fd30fdbd419386a960afef1eeda06d",
    "analyze_odd_labels.edges.md": "a82fb2c854040fb49a9446c98afef5d6bebac605052c633200f9ca647d6770d7",
    "analyze_imbalanced_1.edges.json": "106afd49fb26114094969d2bbccb62ad4c3f38d03a486b3500596c5e4cbd1ab9",
    "analyze_imbalanced_1.edges.md": "0e85b6296f1f1bf76e1a379a7dae2c64b5d9381ca09d5249c2856b2540aa1b63",
    "analyze_imbalanced_2.edges.json": "5bf08f96de06fe9680085e973823f17331a1932f30d54a19bd61a78127667746",
    "analyze_imbalanced_2.edges.md": "c5a64415bb7f15c66b34312df509357cc3a98efd757c51ce2b70a68a15376222",
    "analyze_imbalanced_3.edges.json": "998ec0b79da5129346583baa3e85b9cdea67b46b571c9c990017740b8328e1d4",
    "analyze_imbalanced_3.edges.md": "f39d74354e46d96f55a01d8140edec0f64d14d70a5abd76a6c1dc71cc9b2f5a6",
    "analyze_imbalanced_4.edges.json": "f0d5a6e77846202c72b75319d61192b7c580e83d7c5e7c1d3fb053920a6b3e93",
    "analyze_imbalanced_4.edges.md": "91c5d26a6adc6dbc5d74905b5197d208f63c7948c9e584891523cc211e094c52",
    "analyze_imbalanced_5.edges.json": "00d41076f8af3263efd1a7facf241654375bd8e4b167740ac4cfa7ef2edf6441",
    "analyze_imbalanced_5.edges.md": "207ad208f8859c792cdbd6a776ca3009e086a078c99c0ad8c24b041be7178981",
    "analyze_classic-cycle_25.edges.json": "4189c610933bfefc4f1011c2be6f99beca49cf9a9c45a61c37e03d07ba5c5b2a",
    "analyze_classic-cycle_25.edges.md": "710c9104b529f3d9a2f8912c53605df249c2c78e4dd4a22b0d031c551261574b",
    "analyze_blowup.edges.json": "6c05401392b3266b738c2d89dc1b520a6315169c147281442b6cb0fe81591bb2",
    "analyze_blowup.edges.md": "a51cabd042168ba5a3e8b5cd3570ff647d755c7b14edd7995464ad0abaf4aade",
}


def test_analyze_and_generate_match_pinned_digests(tmp_path, capsys):
    # stdout of `analyze` (JSON and --md) and `generate --json` on a fixed input set
    inputs = {
        "one.edges": "1\n",
        "two.edges": "2\n0 1\n",
        "well.edges": WELL_EDGES,
        "well.csv": WELL_CSV,
        "odd_labels.edges": ODD_LABELS_EDGES,
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    names = list(inputs)
    outputs = {}
    for kind, n in [("imbalanced", str(k)) for k in range(1, 6)] + [("classic-cycle", "25")]:
        name = f"{kind}_{n}"
        outputs[f"generate_{name}.json"] = run_cli(["generate", kind, "--n", n, "--json"], capsys)[1]
        names.append(_write_generated(tmp_path, capsys, f"{name}.edges", kind, "--n", n).name)
    outer, inner = (str(tmp_path / f"imbalanced_{k}.edges") for k in (2, 1))
    (tmp_path / "blowup.edges").write_text(run_cli(["blowup", outer, "s", inner], capsys)[1])
    for name in names + ["blowup.edges"]:
        path = str(tmp_path / name)
        outputs[f"analyze_{name}.json"] = run_cli(["analyze", path], capsys)[1]
        outputs[f"analyze_{name}.md"] = run_cli(["analyze", path, "--md"], capsys)[1]
    digests = {name: hashlib.sha256(out.encode("utf-8")).hexdigest() for name, out in outputs.items()}
    assert digests == OUTPUT_DIGESTS


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner)
    | st.lists(st.integers() | st.booleans())
    | st.lists(st.tuples(st.integers(), st.integers()) | st.lists(st.integers(), max_size=3))
    # runs of int pairs that share their first entry, as in an edge list
    | st.lists(st.tuples(st.integers(0, 2), st.integers()) | st.lists(st.integers(0, 2), min_size=2)),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
@example({"x": [float("nan"), float("inf"), -float("inf"), 0.1, {}, [], (), [True, 1]]})
@example([[0, 1], (0, -2), [1, 0], [0, 3], [0, 10**30]])
@example([[0, 1], [0, True]])
def test_json_text_equals_indented_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_one_parser_serves_successive_calls(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cycle.edges"
    path.write_text(CYCLE_EDGES)
    assert run_cli(["analyze", str(path), "--md"], capsys)[1].startswith("# Analysis")
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0 and json.loads(out)["input"]["n"] == 3

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    jobs_seen = []

    def even(max_n, jobs, budget_secs):
        jobs_seen.append(jobs)
        return verify.verify_even_unplayable(max_n)

    monkeypatch.setattr("tourneylab.cli.verify_even_unplayable", even)
    for jobs in (["--jobs", "2"], []):
        run_cli(["verify", "even", "--max-n", "2", *jobs, "--out-dir", str(tmp_path)], capsys)
    assert jobs_seen == [2, 1]

    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 1
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0 and json.loads(out)["playability"]["class"] == "strongly_playable"


def test_verify_budget_exceeded_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "verify",
            "theorem",
            "--n",
            "3",
            "--budget",
            "0.000001",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 3 and "budget exceeded" in err


def test_verify_budget_names_class_build_phase(tmp_path, capsys):
    # the classes come from the shipped lists, not from a build: with no budget
    # left, the run stops as it starts to load the 7-object playable list
    code, out, err = run_cli(
        ["verify", "theorem", "--n", "3", "--budget", "0", "--out-dir", str(tmp_path / "r")],
        capsys,
    )
    assert code == 3 and out == ""
    assert err == "budget exceeded: verification time budget exceeded during loading playable_n7.bin\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "args, passed, phase",
    [
        # one poll to load the list, then one every 64 classes
        (["theorem", "--n", "4"], 12, "per-class statistics at 9 objects: 704/792 classes"),
        (["theorem", "--n", "3"], 1, "per-class statistics at 7 objects: 0/12 classes"),
        # then one poll per distinct (win sequence, variance) of the 12 classes
        (["theorem", "--n", "3"], 2, "Schur pass over wins at 7 objects: 0/6 groups"),
        (["theorem", "--n", "3"], 8, "Schur pass over equilibria at 7 objects: 0/10 groups"),
        (["structural", "--objects", "7"], 1, "structural checks at 7 objects: 0/12 classes"),
        # two polls each at 2, 4 and 6 objects, one to load the 8-object list,
        # then one every 64 classes
        (["even", "--max-n", "8"], 17, "even sweep at 8 objects: 640/6880 classes"),
    ],
    ids=["theorem", "theorem-statistics", "theorem-schur-wins", "theorem-schur-equilibria",
         "structural", "even"],
)
def test_verify_budget_names_per_class_phase(tmp_path, capsys, monkeypatch, args, passed, phase):
    # the clock reads 0 at the budget's start and its first `passed` polls,
    # then far past it
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= 1 + passed else 100.0

    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=clock))
    code, out, err = run_cli(["verify", *args, "--budget", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 3 and out == ""
    assert err == f"budget exceeded: verification time budget exceeded during {phase}\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_guard_band_hit_exit_1(tmp_path, capsys, monkeypatch):
    # an entropy comparison inside the guard band ends the run with an error
    # line and no report, not with a traceback
    def guard_band(x, y):
        raise verify.GuardBandError("entropy comparison inside the guard band; manual review required")

    monkeypatch.setattr(verify, "compare_entropies", guard_band)
    out_dir = tmp_path / "reports"
    code, out, err = run_cli(["verify", "theorem", "--n", "2", "--out-dir", str(out_dir)], capsys)
    assert code == 1 and out == ""
    assert err == "error: entropy comparison inside the guard band; manual review required\n"
    assert not out_dir.exists()


def _resorted(forms, auts):
    order = sorted(range(len(forms)), key=forms.__getitem__)
    return [forms[k] for k in order], [auts[k] for k in order]


def _swap_two_distinct_auts(forms, auts):
    # the weights still add up, so only the per-class re-check can tell
    i = auts.index(1)
    j = next(k for k, a in enumerate(auts) if a != 1)
    auts[i], auts[j] = auts[j], auts[i]
    return forms, auts


def _relabeled_form(forms, auts):
    # one form replaced by another labeling of its class
    k = auts.index(1)
    forms[k] = max(tournament._orbit_masks(7, forms[k]))
    return _resorted(forms, auts)


def _unplayable_form(forms, auts):
    # one playable class replaced by an unplayable class with |Aut T| = 1 too
    k = auts.index(1)
    forms[k] = next(
        c for c, a in zip(tournament._iso_classes(7), tournament._automorphism_counts(7))
        if a == 1 and verify.tournament_equilibrium(
            tournament.tournament_from_canonical(7, c).win) is None
    )
    return _resorted(forms, auts)


def _edit(fn):
    return lambda path: rewrite_class_list(path, fn)


@pytest.mark.parametrize(
    "args, name, corrupt, check",
    [
        (["theorem", "--n", "3"], "playable_n7.bin",
         _edit(lambda f, a: (f[:3] + f[4:], a[:3] + a[4:])), "orbit weights n!/|Aut T| sum to"),
        (["theorem", "--n", "3"], "playable_n7.bin",
         _edit(lambda f, a: (f[:4] + f[3:], a[:4] + a[3:])),
         "forms not strictly increasing at entry 4"),
        (["theorem", "--n", "3"], "playable_n7.bin", _edit(_relabeled_form),
         "is not a canonical form"),
        (["structural", "--objects", "7"], "playable_n7.bin", _edit(_swap_two_distinct_auts),
         "has |Aut T| = "),
        (["structural", "--objects", "7"], "playable_n7.bin", _edit(_unplayable_form),
         "is not playable: its kernel is not one-signed"),
        (["even", "--max-n", "6"], "all_n6.bin",
         _edit(lambda f, a: (f[:-1], a[:-1])), "holds 55 classes, not Davis's 56"),
        (["even", "--max-n", "6"], "all_n6.bin",
         lambda path: path.write_bytes(path.read_bytes()[:-1]), "truncated: bytes are missing"),
        (["theorem", "--n", "3"], "playable_n7.bin",
         lambda path: path.write_bytes(path.read_bytes() + b"\x00"), "trailing bytes"),
        (["structural", "--objects", "7"], "playable_n7.bin", Path.unlink,
         "cannot be read: No such file or directory"),
    ],
    ids=["dropped", "duplicated", "non-canonical", "wrong-aut", "unplayable", "all-count",
         "truncated", "trailing", "missing"],
)
def test_verify_refuses_a_corrupt_class_list(tmp_path, capsys, class_dir, args, name, corrupt, check):
    path = class_dir / name
    corrupt(path)
    out_dir = tmp_path / "reports"
    code, out, err = run_cli(["verify", *args, "--out-dir", str(out_dir)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: class list {path}: ") and err.count("\n") == 1
    assert check in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args", [["theorem", "--n", "3"], ["theorem", "--n", "4"],
             ["structural", "--objects", "7"], ["structural", "--objects", "9"]]
)
def test_verify_reports_identical_across_jobs(tmp_path, capsys, args):
    for jobs in ("1", "2"):
        run_cli(["verify", *args, "--jobs", jobs, "--out-dir", str(tmp_path / jobs)], capsys)
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 2
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_verify_even_budget_zero_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out, err = run_cli(
        ["verify", "even", "--max-n", "8", "--budget", "0", "--out-dir", str(out_dir)], capsys
    )
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_verify_bad_budget_exit_1(tmp_path, capsys, budget):
    code, _, err = run_cli(
        ["verify", "theorem", "--n", "2", "--budget", budget, "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: --budget")


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "theorem", "--n", "5"],
        ["verify", "even", "--max-n", "10"],
        ["verify", "structural", "--objects", "4"],
        ["verify", "theorem", "--n", "0"],
        ["verify", "even", "--max-n", "0"],
        ["verify", "structural", "--objects", "-1"],
        ["verify", "structural", "--objects", "1"],
        ["verify", "all", "--n", "5"],
        ["verify", "structural", "--objects", "11"],
        # a size option that the suite does not read
        ["verify", "theorem", "--objects", "9"],
        ["verify", "structural", "--n", "4"],
        ["verify", "even", "--n", "4"],
    ],
)
def test_verify_out_of_range_exit_1(tmp_path, capsys, args):
    out_dir = tmp_path / "x" / "deep"
    code, _, err = run_cli(args + ["--out-dir", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    # a rejected run leaves no report directory behind
    assert not (tmp_path / "x").exists()


def test_verify_all_checks_every_bound_first(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the theorem sweep started before the bounds were checked")

    monkeypatch.setattr("tourneylab.cli.verify_theorem", never)
    code, out, err = run_cli(
        ["verify", "all", "--n", "3", "--max-n", "10", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: even-order exhaustion is bounded")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_verify_all_runs_every_odd_structural_size(tmp_path, capsys, monkeypatch, k):
    asked = []

    def stub(suite):
        def run(size, **opts):
            asked.append((suite, size))
            return SimpleNamespace(ok=True, to_json_dict=dict, to_markdown=str)

        return run

    for suite in ("verify_theorem", "verify_even_unplayable", "verify_structural_lemmas"):
        monkeypatch.setattr(f"tourneylab.cli.{suite}", stub(suite))
    code, _, _ = run_cli(["verify", "all", "--n", str(k), "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    structural = [size for suite, size in asked if suite == "verify_structural_lemmas"]
    assert structural == list(range(3, 2 * k + 2, 2))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_exit_1(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "even", "--max-n", "2", "--jobs", jobs, "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err


def test_jobs_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _jobs_arg("1") == 1
    assert _jobs_arg("2") == 2
    assert _jobs_arg("64") == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _jobs_arg("8") == 1


def test_analyze_generate_round_trip(tmp_path, capsys):
    path = _write_generated(tmp_path, capsys, "imb3.edges", "imbalanced", "--n", "3")
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibrium"]["exact"] == [
        "1/3",
        "1/3",
        "1/9",
        "1/9",
        "1/27",
        "1/27",
        "1/27",
    ]


def test_analyze_regular_25_cycle(tmp_path, capsys):
    # every object ties on losses, so each k-minimizing set has C(25, k) choices
    path = _write_generated(tmp_path, capsys, "cycle25.edges", "classic-cycle", "--n", "25")
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["playability"]["class"] == "strongly_playable"
    assert doc["equilibrium"]["exact"] == ["1/25"] * 25
    kmin = doc["structural"]["k_minimizing"]
    assert [e["k"] for e in kmin] == list(range(1, 14))
    assert all(e["ok"] is True for e in kmin)


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required argument
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def _parser_corpus(tmp_path):
    """(argvs main reads without argparse, argvs only the full parser answers:
    other valid forms, help and usage errors)."""
    edges, csv_path, out = tmp_path / "cycle.edges", tmp_path / "well.csv", str(tmp_path / "out")
    edges.write_text(CYCLE_EDGES)
    csv_path.write_text(WELL_CSV)
    equals = tmp_path / "a=b.edges"
    equals.write_text(CYCLE_EDGES)
    plain = [
        ["analyze", str(edges)], ["analyze", str(edges), "--md"],
        ["analyze", str(csv_path), "--format", "csv"], ["analyze", str(edges), "--format=edges"],
        ["analyze", "--md", str(equals)], ["analyze", ""],
        ["generate", "imbalanced", "--n", "2"], ["generate", "imbalanced", "--n=3"],
        ["generate", "classic-cycle", "--n", "3", "--json"],
        ["blowup", str(edges), "1", str(edges)],
        ["verify", "theorem", "--n", "1", "--out-dir", out],
        ["verify", "--n", "1", "--out-dir", out, "theorem"],
        ["verify", "even", "--max-n", "2", "--out-dir", out],
        ["verify", "structural", "--objects", "3", "--jobs", "1", "--budget", "60",
         "--out-dir", out],
        ["verify", "all", "--n", "1", "--max-n", "2", "--out-dir", out],
        ["verify", "theorem", "--n", "1", "--out-dir="],
    ]
    other = [
        ["verify", "theorem", "--n=2", "--out", out], ["verify", "even", "--max-n", "2", "--out", out],
        ["verify", "theorem", "--n", "1", "--n", "2", "--out-dir", out],
        ["verify", "theorem", "--budget", "-1", "--out-dir", out],
        ["verify", "theorem", "--n", "-1", "--out-dir", out],
        ["verify", "--out-dir", out, "--", "theorem"], ["analyze", "-"],
        ["-h"], ["--help"], [], *([cmd, "-h"] for cmd in cli._COMMANDS),
        ["frobnicate"], ["verify", "--bogus", "theorem"], ["verify", "nope"],
        ["analyze", str(edges), "--format", "xml"], ["generate", "imbalanced", "--n", "x"],
        ["generate", "imbalanced", "--n="], ["analyze", str(edges), "--md=1"],
        ["verify", "theorem", "--jobs", "x"], ["verify", "theorem", "--out-dir"],
        ["generate", "imbalanced"], ["analyze"], ["blowup", str(edges)],
        ["generate", "imbalanced", "--n", "2", "extra"], ["verify", "theorem", "--jobs", "0"],
        ["analyze", "-h", str(edges)], ["--bogus", "analyze", str(edges)],
    ]
    return plain, other


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _full_parser_run(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def test_main_answers_as_the_full_parser(tmp_path, capsys, monkeypatch):
    # main reads a plain argv itself and hands every other to the full parser;
    # each argv gives the exit code, output and messages of the full parser
    # followed by dispatch, and the reader's namespace is the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    plain, other = _parser_corpus(tmp_path)
    for argv in plain:
        assert cli._plain_args(argv) == cli.build_parser().parse_args(argv), argv
    for argv in other:
        assert cli._plain_args(argv) is None, argv
    for argv in plain + other:
        assert _outcome(main, argv, capsys) == _outcome(_full_parser_run, argv, capsys), argv


def test_plain_argv_build_no_parser_and_others_the_full_one_once(tmp_path, capsys, monkeypatch):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    monkeypatch.chdir(tmp_path)
    cli._parser.cache_clear()
    try:
        plain, _ = _parser_corpus(tmp_path)
        for argv in plain:
            _outcome(main, argv, capsys)
        assert built == []
        help_abbreviation_and_errors = (
            ["-h"], ["verify", "theorem", "--n", "1", "--out", str(tmp_path / "out")],
            ["frobnicate"], ["verify", "--bogus", "theorem"], ["analyze", "-h"],
        )
        for argv in help_abbreviation_and_errors:
            _outcome(main, argv, capsys)
        # one full parser for every call: the top level and a subparser per command
        assert sorted(built) == sorted(["tourneylab", *(f"tourneylab {c}" for c in cli._COMMANDS)])
    finally:
        cli._parser.cache_clear()


def test_console_script_subprocess(tmp_path):
    path = tmp_path / "cycle.edges"
    path.write_text(CYCLE_EDGES)
    proc = subprocess.run(
        [sys.executable, "-m", "tourneylab.cli", "analyze", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["playability"]["class"] == "strongly_playable"


IMPORT_BOUNDARY = """\
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from tourneylab import cli
analyze = cli.main(["analyze", sys.argv[1]])
theorem = cli.main(["verify", "theorem", "--n", "3", "--jobs", "1", "--out-dir", sys.argv[2]])
print(analyze, theorem, "multiprocessing" in sys.modules, "locale" in sys.modules,
      cli._parser.cache_info().currsize)
"""


def test_serial_runs_import_neither_mpmath_nor_multiprocessing(tmp_path):
    # plain argvs build no argparse parser, whose first use loads locale for
    # gettext (-S keeps site hooks out of the check)
    src = Path(__file__).resolve().parents[1] / "src"
    path = tmp_path / "rps7.edges"
    path.write_text(format_edge_list(imbalanced_rps(3)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_BOUNDARY, str(path), str(tmp_path / "reports")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    # analyze exits 0 on a playable game; the 7-object theorem report says FAIL (exit 1)
    assert proc.stdout.splitlines()[-1] == "0 1 False False 0"
    report = json.loads((tmp_path / "reports" / "theorem_n3.json").read_text())
    assert report == verify.verify_theorem(3).to_json_dict()


def test_import_loads_no_dataclass_machinery():
    # the records are NamedTuples: importing the package and its CLI must pull
    # in neither dataclasses nor inspect (-S keeps site hooks out of the check)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, tourneylab, tourneylab.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "tourneylab.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_budget_env_var(tmp_path):
    path = tmp_path / "reports"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tourneylab.cli",
            "verify",
            "theorem",
            "--n",
            "3",
            "--out-dir",
            str(path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "TOURNEYLAB_BUDGET_SECS": "0.000001"},
    )
    assert proc.returncode == 3, proc.stderr
    assert "budget exceeded" in proc.stderr


def test_bad_budget_env_var_exit_1(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tourneylab.cli",
            "verify",
            "theorem",
            "--n",
            "2",
            "--out-dir",
            str(tmp_path / "reports"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "TOURNEYLAB_BUDGET_SECS": "abc"},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: TOURNEYLAB_BUDGET_SECS")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("where", ["file", "file/reports"])
def test_verify_out_dir_on_a_file_exit_1_before_any_suite(tmp_path, capsys, monkeypatch, where):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the output directory was checked")

    monkeypatch.setattr("tourneylab.cli.verify_theorem", never)
    (tmp_path / "file").write_text("kept")
    code, out, err = run_cli(
        ["verify", "theorem", "--n", "2", "--out-dir", str(tmp_path / where)], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"error: --out-dir: {tmp_path / 'file'} is not a directory\n"
    assert (tmp_path / "file").read_text() == "kept"


def test_verify_report_write_error_exit_1(tmp_path, capsys):
    (tmp_path / "theorem_n2.json").mkdir()
    code, out, err = run_cli(["verify", "theorem", "--n", "2", "--out-dir", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "theorem_n2.json" in err
