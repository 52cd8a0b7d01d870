"""Command-line entry: subcommands, formats, exit codes."""

import io
import json
from pathlib import Path

import pytest

from intersets.cli import main
from intersets.serialize import TSV_COLUMNS, report_from_json

FAMILY_JSON = {
    "family": "tail",
    "core": {
        "kind": "union",
        "parts": [
            {"kind": "congruence", "modulus": "4", "residues": ["0"]},
            {"kind": "finite", "elements": ["1"]},
        ],
    },
}


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY_JSON))
    return str(path)


def test_hset_tsv(family_file, capsys):
    assert main(["hset", "--family", family_file, "--hmax", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == list(TSV_COLUMNS)
    assert len(lines) == 5
    statuses = [ln.split("\t")[1] for ln in lines[1:]]
    assert statuses == ["CertifiedIn", "CertifiedOut", "CertifiedOut", "CertifiedIn"]


def test_hset_json_round_trips(family_file, capsys):
    assert main(["hset", "--family", family_file, "--hmax", "3",
                 "--format", "json"]) == 0
    rep = report_from_json(json.loads(capsys.readouterr().out))
    assert rep.statuses == ("CertifiedIn", "CertifiedOut", "CertifiedOut")
    assert rep.verdicts[1].witness == -1


# no member of the second part lies within _ELEMENT_SEARCH of its bound 1,
# so the least-element fallback reads the whole search range
FAR_MEMBERS_JSON = {
    "family": "explicit",
    "sets": [
        {
            "kind": "union",
            "parts": [
                {"kind": "half-tail", "threshold": "1000000"},
                {
                    "kind": "intersection",
                    "parts": [
                        {"kind": "congruence", "modulus": "70001", "residues": ["0"]},
                        {"kind": "half-tail", "threshold": "1"},
                    ],
                },
            ],
        }
    ],
}


def test_hset_far_members_frozen(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR_MEMBERS_JSON))
    assert main(["hset", "--family", str(path), "--hmax", "4"]) == 0
    rows = [
        "1\tCertifiedIn\t-\t1-fold sums are the sets themselves; "
        "the chain intersection matches by construction\t8\t-24:24"
    ] + [
        f"{h}\tEmpiricalEqual\t-\ttruncated layer intersections match the "
        f"{h}-fold sumset at (Q=1, [-24,24]) and (Q=1, [-48,48])\t8\t-24:24"
        for h in (2, 3, 4)
    ]
    assert capsys.readouterr().out == "\n".join(["\t".join(TSV_COLUMNS), *rows, ""])


def test_hset_out_file(family_file, tmp_path, capsys):
    out = tmp_path / "report.tsv"
    assert main(["hset", "--family", family_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("h\tstatus")


def test_hset_missing_file(tmp_path, capsys):
    assert main(["hset", "--family", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_hset_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hset", "--family", str(bad)]) == 2


def test_verify_pass(capsys):
    assert main(["verify", "countable", "--hmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.strip().endswith("checks)")


def test_verify_fail_exit_code(capsys):
    # a window this small makes the coverage claims fail honestly
    assert main(["verify", "sharp", "--window", "0:4"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_verify_json(capsys):
    assert main(["verify", "countable", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "countable"
    assert doc["ok"] is True
    assert all(a["passed"] for a in doc["assertions"])


def test_verify_tsv(capsys):
    assert main(["verify", "countable", "--hmax", "3", "--format", "tsv"]) == 0
    rows = [
        ("H = {1} with certified exits", "witnesses [-1, -1]"),
        ("witnesses re-verify independently",
         "certificate membership and certified absence"),
    ]
    expected = ["check\tstatus\tdetail"] + [
        f"core {core}: {check}\tpass\t{detail}"
        for core in ("[0, 1]", "[0, 2, 5]", "[-3, 0, 4]")
        for check, detail in rows
    ]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_verify_unknown_scenario():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "galaxies"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [["--Q", "-3"], ["--Q", "0"], ["--gen-radius", "0"]], ids=" ".join
)
def test_hset_out_of_range_config(family_file, flags, capsys):
    assert main(["hset", "--family", family_file, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    [["--Q", "0"], ["--hmax", "0"], ["--samples", "0"], ["--gen-radius", "0"],
     ["--Q", "-1"]],
    ids=" ".join,
)
def test_verify_out_of_range_options(flags, capsys):
    # 0 is refused, not swapped for the scenario default
    assert main(["verify", "open-intervals", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


OPEN_OPTIONS = Path(__file__).parent / "golden" / "open-intervals-options.json"


@pytest.mark.parametrize(
    "case", json.loads(OPEN_OPTIONS.read_text(encoding="utf-8")),
    ids=lambda case: " ".join(case["args"]),
)
def test_verify_open_intervals_options_golden(case, capsys):
    args = ["verify", "open-intervals", "--format", "json", *case["args"]]
    assert main(args) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_bad_window_format(family_file, capsys):
    # argparse surfaces value errors itself, with the same exit code
    for bad in ("abc", "5:1"):
        with pytest.raises(SystemExit) as exc:
            main(["hset", "--family", family_file, "--window", bad])
        assert exc.value.code == 2


def test_negative_window_lo(family_file, capsys):
    # leading '-' with a ':' in the value must still parse
    assert main(["hset", "--family", family_file, "--window", "-100:100"]) == 0


def test_sumset_closed(capsys):
    assert main(["sumset", "--set", "halftail:2", "--h", "3"]) == 0
    line = capsys.readouterr().out.strip()
    tag, payload = line.split("\t")
    assert tag == "closed"
    assert json.loads(payload) == {"kind": "half-tail", "threshold": "6"}


def test_sumset_closed_json_lists_window_members(capsys):
    assert main(["sumset", "--set", "halftail:3", "--h", "2",
                 "--window", "0:6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "h": "2",
        "input": {"kind": "half-tail", "threshold": "3"},
        "result": {
            "kind": "closed",
            "set": {"kind": "half-tail", "threshold": "6"},
            "window": {"lo": "0", "hi": "6"},
            "members": ["6"],
        },
    }


def test_sumset_huge_modulus(capsys):
    assert main(["sumset", "--set", "congruence:1000000000000000000:5",
                 "--h", "2"]) == 0
    tag, payload = capsys.readouterr().out.strip().split("\t")
    assert tag == "closed"
    assert json.loads(payload) == {
        "kind": "congruence",
        "modulus": "1000000000000000000",
        "residues": ["10"],
    }


def test_sumset_windowed_members(capsys):
    assert main(["sumset", "--set", "finite:0,1,3", "--h", "2",
                 "--window", "-2:8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x"
    assert [int(v) for v in lines[1:]] == [0, 1, 2, 3, 4, 6]


# 30 squares: no rule closes a finite set of more than 24 points
SQUARES = "finite:" + ",".join(str(x * x) for x in range(30))
# the sums of two squares up to 40
SQUARE_SUMS = [0, 1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 26, 29, 32,
               34, 36, 37, 40]


def test_sumset_windowed_json(capsys):
    assert main(["sumset", "--set", SQUARES, "--h", "2", "--window", "0:40",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {
        "kind": "windowed",
        "window": {"lo": "0", "hi": "40"},
        "members": [str(x) for x in SQUARE_SUMS],
        "complete": True,
        "generation_radius": "96",
    }


def test_sumset_windowed_text(capsys):
    assert main(["sumset", "--set", SQUARES, "--h", "2",
                 "--window", "0:40"]) == 0
    assert capsys.readouterr().out == "x\n" + "".join(
        f"{x}\n" for x in SQUARE_SUMS
    )


def test_sumset_no_closed_form_hint(capsys):
    # lazy intersections have no sum rule and no window was given
    assert main(["sumset", "--set", "all", "--h", "0"]) == 2


def test_sumset_without_closed_form_needs_a_window(capsys):
    # 31 points: past the fold cap, so no rule closes the 2-fold sum
    numbers = ",".join(str(x) for x in range(31))
    assert main(["sumset", "--set", f"finite:{numbers}", "--h", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no closed form for this sumset; pass --window LO:HI to enumerate\n"
    )


def test_repfn_tsv_golden(capsys):
    assert main(["repfn", "--set", "finite:0,1,3", "--h", "2",
                 "--window", "0:6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x\tcount\texact"
    counts = [ln.split("\t")[1] for ln in lines[1:]]
    assert counts == ["1", "2", "1", "2", "2", "0", "1"]


def test_repfn_infinite(capsys):
    assert main(["repfn", "--set", "congruence:2:0", "--h", "2",
                 "--target", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "4\tinf\tyes"


def test_repfn_json(capsys):
    # 2Z holds infinitely many pairs summing to 4, and none summing to 3,
    # since 2Z + 2Z = 2Z holds no odd number
    assert main(["repfn", "--set", "congruence:2:0", "--h", "2",
                 "--window", "3:4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "h": "2",
        "mode": "add",
        "input": {"kind": "congruence", "modulus": "2", "residues": ["0"]},
        "counts": [
            {"x": "3", "count": "0", "exact": True},
            {"x": "4", "count": None, "exact": True},
        ],
    }


def test_repfn_cap_exit_code(capsys):
    assert main(["repfn", "--set", "halftail:0", "--h", "2",
                 "--target", "1000000"]) == 3
    assert "cap" in capsys.readouterr().err.lower()


def test_repfn_mult_cap_exit_code(capsys):
    assert main(["repfn", "--set", "cofinite:0", "--h", "2", "--mode", "mult",
                 "--window", "1000000000000000000:1000000000000000000"]) == 3
    assert "cap" in capsys.readouterr().err.lower()


def test_repfn_window_cap_exit_code(capsys):
    # checked before the 3,000,001 targets are listed
    assert main(["repfn", "--set", "finite:0,1", "--h", "2",
                 "--window=-1500000:1500000"]) == 3
    assert "cap" in capsys.readouterr().err.lower()


def test_repfn_needs_target_or_window(capsys):
    assert main(["repfn", "--set", "finite:0,1", "--h", "2"]) == 2


def test_invariant_failure_exit_code(tmp_path, monkeypatch, capsys):
    import intersets.analyzer as analyzer
    from intersets.sumsets import Windowed

    def every_point(s, h, window=None, gen_radius=None):
        # a broken fold: claims every window point as an h-fold sum
        return Windowed(window, (1 << window.size) - 1, 0, False)

    monkeypatch.setattr(analyzer, "symbolic_hfold_sum", every_point)
    # the half-tail certificate for h = 2 is {0, 1, 2}, so the fold escapes it
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "family": "half-tail",
        "core": {"kind": "finite", "elements": ["0", "1"]},
    }))
    assert main(["hset", "--family", str(path), "--hmax", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violated: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err



_TAIL = {"family": "tail", "core": {"kind": "empty"}}
_PRODUCT = {"family": "product", "left": _TAIL, "right": _TAIL}
_CHAIN = {"family": "congruence-chain", "core": ["0", "1", "3"], "m1": "7"}
MALFORMED = {
    "core-is-an-integer": {"family": "tail", "core": 5},
    "core-is-a-list": {"family": "tail", "core": [1, 2]},
    "chain-core-is-a-set": {**_CHAIN, "core": {"kind": "finite", "elements": ["0"]}},
    "half-tail-null-core": {"family": "half-tail", "core": None},
    "scaled-null-factor": {"family": "scaled", "factor": None, "inner": _TAIL},
    "coset-tail-null-step": {
        "family": "coset-tail", "subgroup_step": None, "coset_base": "1"
    },
    "affine-null-shift": {"family": "affine", "unit": "1", "shift": None, "inner": _TAIL},
    "affine-of-product": {"family": "affine", "unit": "1", "shift": "0", "inner": _PRODUCT},
    "scaled-of-product": {"family": "scaled", "factor": "2", "inner": _PRODUCT},
    "elements-is-an-integer": {"family": "tail", "core": {"kind": "finite", "elements": 5}},
    "parts-is-an-integer": {"family": "tail", "core": {"kind": "union", "parts": 5}},
    "residues-is-a-string": {
        "family": "tail",
        "core": {"kind": "congruence", "modulus": "4", "residues": "13"},
    },
    "chain-core-is-a-string": {**_CHAIN, "core": "123"},
    "chain-modulus-zero": {**_CHAIN, "m1": None, "moduli": ["0", "8"]},
    "unknown-field": {**_TAIL, "junk": "3"},
}


def _hset_stdin(doc, monkeypatch) -> int:
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    return main(["hset", "--family", "-", "--hmax", "2"])


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_hset_malformed_document_is_one_error_line(doc, monkeypatch, capsys):
    assert _hset_stdin(doc, monkeypatch) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_hset_sample_search_stops_at_the_cap(monkeypatch, capsys):
    # the core lies past the window, and a fourfold wider search window
    # would pass the cap, so the sample is read as the least member
    doc = {"family": "half-tail", "core": {"kind": "finite", "elements": ["800000"]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["hset", "--family", "-", "--hmax", "2", "--format", "json",
                 "--window=-600000:600000"]) == 0
    rep = report_from_json(json.loads(capsys.readouterr().out))
    assert rep.statuses == ("CertifiedIn", "CertifiedIn")
    assert [v.sample for v in rep.verdicts] == [800000, 1600000]


def test_hset_null_ratio_is_the_default(monkeypatch, capsys):
    assert _hset_stdin(_CHAIN, monkeypatch) == 0
    expected = capsys.readouterr().out
    assert _hset_stdin({**_CHAIN, "ratio": None}, monkeypatch) == 0
    assert capsys.readouterr().out == expected


def test_hset_chain_core_past_the_fold_cap(monkeypatch, capsys):
    doc = {**_CHAIN, "core": [str(x) for x in range(0, 60, 2)], "m1": "200"}
    assert _hset_stdin(doc, monkeypatch) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split("\t")[1] for r in rows] == ["CertifiedIn", "EmpiricalEqual"]
