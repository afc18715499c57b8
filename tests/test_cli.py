import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import asreg2
import asreg2.algebra
import asreg2.automorphisms
import asreg2.beilinson
import asreg2.cli
import asreg2.linalg
import asreg2.quivers
import asreg2.skew
from asreg2.algebra import Monomial, graded_basis, quantum_spec
from asreg2.automorphisms import DEFAULT_POWERS, make_cyclic_group
from asreg2.cli import main, parse_cyclotomic
from asreg2.cyclotomic import cyc, zeta
from asreg2.quivers import Quiver

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_cyclotomic():
    assert parse_cyclotomic("2/3") == cyc(Fraction(2, 3))
    assert parse_cyclotomic("-1") == cyc(-1)
    assert parse_cyclotomic("zeta(5)") == zeta(5)
    assert parse_cyclotomic("zeta(6)^5") == zeta(6) ** 5
    assert parse_cyclotomic("2*zeta(3)^2") == zeta(3) ** 2 * 2
    assert parse_cyclotomic("-3/2*zeta(4)") == -zeta(4) * cyc(Fraction(3, 2))
    with pytest.raises(ValueError):
        parse_cyclotomic("zeta(5) + 1")
    with pytest.raises(ValueError):
        parse_cyclotomic("")


def test_info_command(capsys):
    code, out = run(capsys, ["info", "--wx", "1", "--wy", "3", "--max-degree", "6"])
    assert code == 0
    assert "ell=4" in out
    assert "[1, 1, 1, 2, 2, 2, 3]" in out


def test_info_invalid_weights(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--wx", "2", "--wy", "4"])
    assert "coprime" in str(exc.value)


def test_hdet_command(capsys, monkeypatch):
    # hdet decides the map by closed forms on its coefficients: no element
    # product and no elimination, on any form, refusals included
    calls = Counter()
    for owner, attr in ((asreg2.algebra.SparseElement, "__mul__"), (asreg2.linalg.Echelon, "add")):
        def counted(*args, _real=getattr(owner, attr), _name=attr):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, attr, counted)
    for argv in (["--wx", "1", "--wy", "1", "--alpha", "-1", "--a", "0", "--b", "2", "--c", "3",
                  "--d", "0"],
                 ["--wx", "1", "--wy", "3", "--a", "2", "--c", "5", "--d", "3"],
                 ["--wx", "2", "--wy", "3", "--alpha", "zeta(5)", "--a", "2"],
                 ["--family", "jordan", "--wy", "2", "--a", "2", "--c", "1"]):
        assert run(capsys, ["hdet"] + argv)[0] == 0
    with pytest.raises(SystemExit):
        main(["hdet", "--family", "jordan", "--wy", "1", "--a", "2", "--b", "1"])
    assert calls == {}
    code, out = run(capsys, ["hdet", "--wx", "1", "--wy", "1",
                             "--a", "2", "--d", "3"])
    assert code == 0
    assert out.splitlines() == ["algebra: quantum(alpha=1), weights (1, 1)",
                                "hdet = 6", "in HSL: no"]
    code, out = run(capsys, ["hdet", "--wx", "1", "--wy", "1", "--a", "2", "--d", "3",
                             "--format", "json"])
    assert code == 0
    assert out == (
        '{\n  "command": "hdet",\n  "params": {\n    "a": "2",\n    "b": null,\n'
        '    "c": null,\n    "d": "3"\n  },\n  "result": {\n    "hdet": "6",\n'
        '    "hsl": false\n  }\n}\n')


def test_hdet_identity_in_hsl(capsys):
    code, out = run(capsys, ["hdet", "--wx", "1", "--wy", "1"])
    assert code == 0
    assert "in HSL: yes" in out


def test_hdet_jordan_power(capsys):
    code, out = run(capsys, ["hdet", "--family", "jordan", "--wy", "2", "--a", "2"])
    assert code == 0
    assert "hdet = 8" in out.splitlines()  # a^(q+1) with q = 2


def test_hdet_antidiagonal_and_refusal(capsys):
    # x -> 2y, y -> 3x on xy + yx: hdet b c, not the determinant -6
    code, out = run(capsys, ["hdet", "--wx", "1", "--wy", "1", "--alpha", "-1",
                             "--a", "0", "--b", "2", "--c", "3", "--d", "0"])
    assert code == 0
    assert out.splitlines()[1:] == ["hdet = 6", "in HSL: no"]
    # x -> 2x, y -> y/2 on the q = 3 Jordan plane needs d = a^3
    with pytest.raises(SystemExit) as exc:
        main(["hdet", "--family", "jordan", "--wy", "3", "--a", "2", "--d", "1/2"])
    assert str(exc.value) == ("the given images do not define a graded automorphism "
                              "(relation not preserved or map not invertible)")


def test_fixed_command(capsys):
    code, out = run(capsys, ["fixed", "--wx", "1", "--wy", "1", "--r", "3",
                             "--max-degree", "6"])
    assert code == 0
    assert "[1, 0, 1, 2, 1, 2, 3]" in out
    assert "agreement: yes" in out


def test_ample_command(capsys):
    code, out = run(capsys, ["ample", "--wx", "1", "--wy", "1", "--r", "2",
                             "--max-degree", "16"])
    assert code == 0
    assert "verdict: FINITE-UP-TO-16" in out


def test_ample_window_too_short_to_certify(capsys):
    argv = ["ample", "--wx", "1", "--wy", "2", "--r", "1", "--max-degree", "1"]
    code, out = run(capsys, argv)
    assert code == 0
    assert "window too short to certify: FINITE needs 3 zero degrees, the window has 2" in out
    assert "verdict: UNDECIDED-WINDOW-SHORTER-THAN-3" in out
    code, out = run(capsys, argv + ["--format", "json"])
    result = json.loads(out)["result"]
    assert result["verdict"] == "UNDECIDED-WINDOW-SHORTER-THAN-3"
    assert result["dims"] == [0, 0]
    # from a window of ell*r degrees on the verdict is the usual one
    code, out = run(capsys, ["ample", "--wx", "1", "--wy", "2", "--r", "1", "--max-degree", "2"])
    assert "window too short" not in out
    assert "verdict: FINITE-UP-TO-2" in out


def test_ample_exploratory(capsys):
    code, out = run(capsys, ["ample", "--wx", "1", "--wy", "1", "--r", "2",
                             "--max-degree", "8", "--action-powers", "1,0"])
    assert code == 0
    assert "EXPLORATORY-REPORT-ONLY" in out


def test_quiver_dot_matches_golden(tmp_path, capsys):
    out_file = tmp_path / "q.dot"
    code, _ = run(capsys, ["quiver", "qsg", "--wx", "1", "--wy", "1", "--r", "3",
                           "--format", "dot", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / "qsg_1_1_r3.dot").read_bytes()


def test_quiver_json_matches_golden(tmp_path, capsys):
    # two-digit levels, where the natural order of the labels ("v0_2" before
    # "v0_10") is not their lexicographic order
    out_file = tmp_path / "q.json"
    code, _ = run(capsys, ["quiver", "qsg", "--wx", "1", "--wy", "2", "--r", "12",
                           "--format", "json", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / "qsg_1_2_r12.json").read_bytes()
    vertices = json.loads(out_file.read_text())["result"]["vertices"]
    assert vertices != sorted(vertices)


def test_quiver_renders_dot_only_for_the_dot_format(monkeypatch, capsys):
    # and the text lines only for the text format, the JSON tree only for JSON
    rendered = []

    def recorded(writer):
        real = getattr(asreg2.cli, writer)

        def write(q):
            rendered.append(writer)
            return real(q)
        return write

    for writer in ("to_dot", "to_lines", "to_json_dict"):
        monkeypatch.setattr(asreg2.cli, writer, recorded(writer))
    starts = {"json": "{", "text": "vertices: ", "dot": "digraph Q {"}
    for argv in (["quiver", "qsg", "--wx", "1", "--wy", "1", "--r", "3"],
                 ["reflect", "at", "--kind", "qs", "--wx", "1", "--wy", "3", "--vertex", "v3"]):
        for fmt, writers in (("json", ["to_json_dict"]), ("text", ["to_lines"]), ("dot", ["to_dot"])):
            code, out = run(capsys, argv + ["--format", fmt])
            assert code == 0 and out.startswith(starts[fmt]) and rendered == writers, (argv, fmt)
            rendered.clear()


def test_dot_and_json_output():
    q = asreg2.quivers.quiver_qs(quantum_spec(1, 1, 1))
    dot = asreg2.cli.to_dot(q)
    assert dot.splitlines()[0] == "digraph Q {"
    assert '  "v0" -> "v1" [label=x];' in dot
    d = asreg2.cli.to_json_dict(q)
    assert d["vertices"] == ["v0", "v1"]
    assert d["arrows"][0] == {"src": "v0", "dst": "v1", "tag": "x"}
    untag = asreg2.cli.to_dot(asreg2.quivers.make_canonical_quiver(1, 1))
    assert "label" not in untag


CHECK_GOLDENS = [
    ("check_1_3_r12", ["--wx", "1", "--wy", "3", "--r", "12"]),
    ("check_1_1_r20", ["--wx", "1", "--wy", "1", "--r", "20"]),
    ("check_1_1_r50", ["--wx", "1", "--wy", "1", "--r", "50"]),
    ("check_1_1_r150", ["--wx", "1", "--wy", "1", "--r", "150"]),
    ("check_1_1_r300", ["--wx", "1", "--wy", "1", "--r", "300"]),
    # ell*r = 2 400: the shortest path, the least rotations and the power
    # sums at a size where a quadratic stage shows
    ("check_1_1_r1200", ["--wx", "1", "--wy", "1", "--r", "1200"]),
    ("check_j23_r24", ["--family", "jordan", "--wy", "23", "--r", "24"]),
]
AMPLE_GOLDENS = [
    ("ample_1_1_r100", ["--wx", "1", "--wy", "1", "--r", "100"]),
    ("ample_1_1_r12_p2_3", ["--wx", "1", "--wy", "1", "--r", "12", "--action-powers", "2,3"]),
    ("ample_j11_r12", ["--family", "jordan", "--wy", "11", "--r", "12"]),
    ("ample_j3_r6_p2_0", ["--family", "jordan", "--wy", "3", "--r", "6", "--action-powers", "2,0"]),
]
# the text report, which is built only for --format text
AMPLE_TEXT_GOLDENS = [
    ("ample_2_3_z5_r4", ["--wx", "2", "--wy", "3", "--alpha", "zeta(5)", "--r", "4"]),
    ("ample_j3_r4", ["--family", "jordan", "--wy", "3", "--r", "4"]),
    ("ample_1_2_r6_p2_3", ["--wx", "1", "--wy", "2", "--r", "6", "--action-powers", "2,3"]),
]
REFLECT_GOLDENS = [
    ("reflect_2_5_c3_t6_15", ["--wx", "2", "--wy", "5", "--c", "3", "--target-i", "6", "--target-j", "15"]),
    ("reflect_1_3_c6_t6_18", ["--wx", "1", "--wy", "3", "--c", "6", "--target-i", "6", "--target-j", "18"]),
    ("reflect_9_13_c3_t27_39",
     ["--wx", "9", "--wy", "13", "--c", "3", "--target-i", "27", "--target-j", "39"]),
]
# the covering quiver and Q_S, each grid_quiver's arrows in bytes
QUIVER_GOLDENS = [
    ("covering_2_3_c4.json", ["quiver", "covering", "--wx", "2", "--wy", "3", "--c", "4",
                              "--format", "json"]),
    ("qs_3_5.dot", ["quiver", "qs", "--wx", "3", "--wy", "5", "--format", "dot"]),
]
# the argv of every golden file, the quiver ones first
GOLDEN_ARGVS = [argv + ["--out", "golden.out"] for argv in (
    [["quiver", "qsg", "--wx", "1", "--wy", "1", "--r", "3", "--format", "dot"],
     ["quiver", "qsg", "--wx", "1", "--wy", "2", "--r", "12", "--format", "json"]]
    + [argv for _, argv in QUIVER_GOLDENS]
    + [["check", *flags, "--format", "json"] for _, flags in CHECK_GOLDENS]
    + [["ample", *flags, "--format", "json"] for _, flags in AMPLE_GOLDENS]
    + [["reflect", "search", *flags, "--format", "json"] for _, flags in REFLECT_GOLDENS])]


@pytest.mark.parametrize("name, argv", QUIVER_GOLDENS, ids=["covering_2_3_c4", "qs_3_5"])
def test_quiver_matches_golden(tmp_path, capsys, name, argv):
    out_file = tmp_path / name
    code, _ = run(capsys, [*argv, "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name, flags", CHECK_GOLDENS,
                         ids=["1_3_r12", "1_1_r20", "1_1_r50", "1_1_r150", "1_1_r300", "1_1_r1200",
                              "j23_r24"])
def test_check_matches_golden(tmp_path, capsys, name, flags):
    # pins the check bytes at configs that no benchmark job reaches; the
    # Jordan plane sends non-monomial products through the product memo
    out_file = tmp_path / "check.json"
    code, _ = run(capsys, ["check", *flags, "--format", "json", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / (name + ".json")).read_bytes()


@pytest.mark.parametrize(
    "name, flags",
    [(name + ".json", flags + ["--format", "json"]) for name, flags in AMPLE_GOLDENS]
    + [(name + ".txt", flags + ["--format", "text"]) for name, flags in AMPLE_TEXT_GOLDENS],
    ids=["1_1_r100", "1_1_r12_p2_3", "j11_r12", "j3_r6_p2_0",
         "text_2_3_z5_r4", "text_j3_r4", "text_1_2_r6_p2_3"])
def test_ample_matches_golden(tmp_path, capsys, name, flags):
    # pins the ample bytes at large r, on non-ample actions of both planes
    # and on the Jordan plane, in JSON and as text
    out_file = tmp_path / name
    code, _ = run(capsys, ["ample", *flags, "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / name).read_bytes()


def test_ample_json_builds_no_text_lines(monkeypatch, capsys):
    # the text lines open with the algebra's description, which JSON omits
    def no_lines(self):
        raise AssertionError("the JSON report built the text lines")

    monkeypatch.setattr(asreg2.algebra.AlgebraSpec, "describe", no_lines)
    code, out = run(capsys, ["ample", "--wx", "1", "--wy", "2", "--r", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "FINITE-UP-TO-36"


@pytest.mark.parametrize("name, flags", REFLECT_GOLDENS, ids=["2_5_c3", "1_3_c6", "9_13_c3"])
def test_reflect_search_matches_golden(tmp_path, capsys, name, flags):
    # pins the reflection witnesses on covering quivers of 21, 24 and 66
    # vertices, the last 262 moves long
    out_file = tmp_path / "reflect.json"
    code, _ = run(capsys, ["reflect", "search", *flags, "--format", "json", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / (name + ".json")).read_bytes()


def test_check_at_large_order(capsys):
    # ell*r = 100 and a Jordan plane with q + 1 = 12
    for argv in (["--wx", "1", "--wy", "1", "--r", "50"],
                 ["--family", "jordan", "--wy", "11", "--r", "12"]):
        code, out = run(capsys, ["check", *argv])
        assert code == 0
        assert out.endswith("overall: ok\n")


def test_quiver_json(capsys):
    code, out = run(capsys, ["quiver", "qs", "--wx", "1", "--wy", "3",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["vertices"] == ["v0", "v1", "v2", "v3"]
    assert {"src": "v0", "dst": "v3", "tag": "y"} in payload["result"]["arrows"]


def test_quiver_canonical(capsys):
    code, out = run(capsys, ["quiver", "canonical", "--i", "3", "--j", "9"])
    assert code == 0
    assert len([l for l in out.splitlines() if "->" in l]) == 12


def test_quiver_qsg_on_an_admitted_jordan_action(capsys):
    # diag(xi, xi^-1) acts on the Jordan plane exactly when r divides q+1
    code, out = run(capsys, ["quiver", "qsg", "--family", "jordan", "--wy", "2", "--r", "3"])
    assert code == 0
    assert len([l for l in out.splitlines() if "->" in l]) == 9


def test_reflect_at(capsys):
    code, out = run(capsys, ["reflect", "at", "--kind", "qs", "--wx", "1", "--wy", "3",
                             "--vertex", "v3"])
    assert code == 0
    assert "v3 -> v0 [y]" in out
    assert "v3 -> v2 [x]" in out


def test_reflect_at_rejects_interior_vertex(capsys):
    with pytest.raises(SystemExit):
        main(["reflect", "at", "--kind", "qs", "--wx", "1", "--wy", "3",
              "--vertex", "v1"])


def test_reflect_search(capsys):
    code, out = run(capsys, ["reflect", "search", "--wx", "1", "--wy", "3",
                             "--c", "3", "--target-i", "3", "--target-j", "9"])
    assert code == 0
    assert "replay verified: yes" in out


def test_reflect_search_not_found_names_source_and_target(capsys):
    # past max_depth, or to a target of other direction counts, the reply
    # still carries the source, the target and the params
    source = ["reflect", "search", "--wx", "1", "--wy", "3", "--c", "3"]
    for target, depth in (("3", "0"), ("2", None)):
        argv = source + ["--target-i", target, "--target-j", "9"]
        argv += ["--max-depth", depth] if depth else []
        code, out = run(capsys, argv)
        assert code == 1
        assert out == ("source: covering c=3 of weights (1, 3)\n"
                       "target: canonical (%s, 9)\n"
                       "no reflection sequence found\n" % target)
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 1
        assert json.loads(out) == {"command": "reflect-search",
                                   "params": {"c": 3, "target": [int(target), 9]},
                                   "result": {"found": False}}
    # one move fewer than the distance is refused, the distance itself is not
    code, out = run(capsys, source + ["--target-i", "3", "--target-j", "9", "--format", "json"])
    steps = len(json.loads(out)["result"]["sequence"])
    assert steps > 0
    for depth, found in ((steps - 1, False), (steps, True)):
        code, out = run(capsys, source + ["--target-i", "3", "--target-j", "9",
                                          "--max-depth", str(depth), "--format", "json"])
        assert json.loads(out)["result"]["found"] is found and code == (0 if found else 1)


def test_reflect_search_reports_a_witness_that_does_not_replay(monkeypatch, capsys):
    # a witness that starts at an interior vertex, or names no vertex of the
    # source, fails its replay: reported with exit 1, not raised; so does one
    # that replays to a quiver of another class than the target's
    source = asreg2.quivers.covering_quiver(quantum_spec(1, 3, 1), 3)
    order, word = asreg2.quivers._cycle_walk(source)
    interior = next(v for k, v in enumerate(order) if word[k - 1] == word[k])
    turn = next(v for k, v in enumerate(order) if word[k - 1] != word[k])
    argv = ["reflect", "search", "--wx", "1", "--wy", "3", "--c", "3", "--target-i", "3", "--target-j", "9"]
    for witness in ([interior, "v0_0"], ["v9_9"], [turn]):
        if witness != [turn]:
            with pytest.raises(ValueError):
                asreg2.quivers.bgp_reflect(source, *witness)
        monkeypatch.setattr(asreg2.cli, "reflection_search", lambda q1, goal, max_depth: witness)
        code, out = run(capsys, argv)
        assert code == 1
        assert out.endswith("reflection sequence (%d steps): %s\nreplay verified: NO\n"
                            % (len(witness), " ".join(witness)))
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 1
        assert json.loads(out)["result"] == {"found": True, "sequence": witness, "verified": False}


def test_reflect_search_walks_each_quiver_once(monkeypatch, capsys):
    # the source in the search, the target for its class word and the
    # replayed state for the verdict: three walks, none of them twice
    walked = []
    real = asreg2.quivers._cycle_walks

    def counted(q, tags=False):
        walked.append(len(q.vertices))
        return real(q, tags)

    monkeypatch.setattr(asreg2.quivers, "_cycle_walks", counted)
    code, out = run(capsys, ["reflect", "search", "--wx", "1", "--wy", "3", "--c", "3",
                             "--target-i", "3", "--target-j", "9", "--format", "json"])
    assert code == 0 and json.loads(out)["result"]["verified"] is True
    assert walked == [12, 12, 12]


def test_check_command(capsys):
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "1", "--r", "3",
                             "--max-degree", "6"])
    assert code == 0
    assert "overall: ok" in out
    assert "FAIL" not in out


def test_check_runs_rho_certificate_once(monkeypatch, capsys):
    real = asreg2.skew.rho_system
    calls = []
    certify = [True]

    def counted(action):
        calls.append(action)
        return real(action) and certify[0]

    for module in (asreg2.cli, asreg2.skew):
        monkeypatch.setattr(module, "rho_system", counted)
    argv = ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"]
    code, _ = run(capsys, argv)
    assert code == 0 and len(calls) == 1
    # both lines read that one run's flag
    certify[0] = False
    code, out = run(capsys, argv)
    assert code == 1 and len(calls) == 2
    failed = [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["rho idempotents orthogonal and complete",
                      "Lambda idempotent system basic", "overall: FAIL"]


def test_check_lambda_lines_form_no_lambda_product(monkeypatch, capsys):
    # the rho and Lambda lines read one O(r) certificate; at ell*r = 80 both
    # gated checks are off, so check forms no Lambda product at all
    real = asreg2.beilinson.lambda_mul_basis
    calls = [0]

    def counted(action, t1, t2):
        calls[0] += 1
        return real(action, t1, t2)

    monkeypatch.setattr(asreg2.beilinson, "lambda_mul_basis", counted)
    monkeypatch.setattr(asreg2.beilinson.LambdaElement, "_basis_mul", staticmethod(counted))
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "1", "--r", "40"])
    assert code == 0 and out.endswith("overall: ok\n")
    assert calls[0] == 0
    # the counter sees the gated checks when they run
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "1", "--r", "3"])
    assert code == 0 and calls[0] > 0


def test_check_forms_the_nabla_skew_dimension_once(monkeypatch, capsys):
    # the "dim Lambda" line compares nabla_skew_dim_formula with r * dim
    # nabla; the structure-constant check reads that line, not a second count
    real = asreg2.beilinson.nabla_skew_dim_formula
    calls = []

    def counted(action):
        calls.append(action)
        return real(action)

    for module in (asreg2.beilinson, asreg2.cli):
        monkeypatch.setattr(module, "nabla_skew_dim_formula", counted)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3"])
    assert code == 0 and "skew-of-nabla structure constants" in out
    assert len(calls) == 1
    # a wrong dimension fails that line alone
    monkeypatch.setattr(asreg2.cli, "nabla_skew_dim_formula", lambda action: real(action) + 1)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3"])
    failed = [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")]
    assert code == 1 and failed == ["dim Lambda = r * dim nabla", "overall: FAIL"]


def test_check_gabriel_oracle_off_the_cycle_domain(monkeypatch, capsys):
    # a path is no union of cycles: the comparison reads FAIL, not a traceback
    path = Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v1", "v2", "")])
    monkeypatch.setattr(asreg2.cli, "gabriel_quiver_oracle", lambda action: path)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"])
    assert code == 1
    failed = [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["Gabriel oracle matches skew quiver", "overall: FAIL"]


def test_check_non_cycle_component_fails(monkeypatch, capsys):
    # Q_{S,G} of (1, 2), r = 3 plus a path component: the quiver lines read
    # FAIL, not a traceback
    real = asreg2.cli.quiver_qsg

    def with_path(action):
        q = real(action)
        return Quiver(q.vertices + ("w0", "w1", "w2"),
                      q.arrows + (("w0", "w1", "x"), ("w1", "w2", "y")))

    monkeypatch.setattr(asreg2.cli, "quiver_qsg", with_path)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"])
    assert code == 1
    failed = [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["skew quiver decomposes into 3 copies of the 1-covering",
                      "component canonical type (1, 2)",
                      "Gabriel oracle matches skew quiver", "overall: FAIL"]


def test_check_walks_each_quiver_once(monkeypatch, capsys):
    # (1, 2), r = 3: Q_{S,G} (9 vertices) is walked once, with tags (its
    # untagged words are that walk's words stripped), the 1-covering (3
    # vertices) with tags and the Gabriel oracle (9 vertices) without, each
    # in one pass over all of its components
    walked = []
    walks = asreg2.quivers._cycle_walks

    def counted_walks(q, tags=False):
        walked.append((len(q.vertices), tags))
        return walks(q, tags)

    monkeypatch.setattr(asreg2.quivers, "_cycle_walks", counted_walks)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"])
    assert code == 0 and out.endswith("overall: ok\n")
    assert sorted(walked) == [(3, True), (9, False), (9, True)]


def test_check_canonical_type_is_the_sorted_pair(capsys):
    # canonical types are (i, j) with i <= j, so w_x > w_y gives (c w_y, c w_x)
    code, out = run(capsys, ["check", "--wx", "3", "--wy", "2", "--r", "2"])
    assert code == 0 and out.endswith("overall: ok\n")
    assert "%-55s ok\n" % "component canonical type (4, 6)" in out


def test_check_sweep_reports_ok_on_every_line(capsys):
    # every coprime weight pair up to 5 on the quantum plane (w_x > w_y too)
    # and every admissible Jordan plane with q <= 5, at r = 1..6
    configs = [["--wx", str(wx), "--wy", str(wy), "--r", str(r)]
               for wx in range(1, 6) for wy in range(1, 6) if gcd(wx, wy) == 1
               for r in range(1, 7)]
    configs += [["--family", "jordan", "--wy", str(q), "--r", str(r)]
                for q in range(1, 6) for r in range(1, 7) if (q + 1) % r == 0]
    assert len(configs) == 127
    for flags in configs:
        code, out = run(capsys, ["check", *flags, "--format", "json"])
        result = json.loads(out)["result"]
        assert code == 0 and result["ok"], (flags, result)
        assert all(check["ok"] for check in result["checks"]), flags


@pytest.mark.parametrize("flags", [
    ["--wx", "1", "--wy", "2", "--alpha=2/3", "--r", "3"],
    ["--wx", "2", "--wy", "3", "--alpha=zeta(5)", "--r", "4"],
    ["--family", "jordan", "--wy", "5", "--r", "3"],
], ids=["1_2_r3", "2_3_r4", "j5_r3"])
def test_check_forms_each_product_once(monkeypatch, capsys, flags):
    # every (m1, m2) that check asks for is formed once, into the product
    # memo of the one spec that check builds; the corner line forms three
    # S*G products per monomial of S_(<= 8) and the Gabriel oracle one Lambda
    # product per (0 < d2 < d < ell, m in S_(d-d2), n in S_(d2)), not one per
    # grid triple or character
    requested, specs = set(), []
    product, spec_from_args = asreg2.algebra.monomial_product, asreg2.cli._spec_from_args
    made, per_stage = Counter(), {}

    def per_stage_count(stage, module, name):
        # the calls of module.name made inside cli's stage function
        real, stage_fn = getattr(module, name), getattr(asreg2.cli, stage)

        def counted(*args):
            made[name] += 1
            return real(*args)

        def run_stage(*args):
            before = made[name]
            result = stage_fn(*args)
            per_stage[stage] = made[name] - before
            return result

        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(asreg2.cli, stage, run_stage)

    per_stage_count("corner_dimension_checks", asreg2.skew, "skew_mul_basis")
    per_stage_count("gabriel_quiver_oracle", asreg2.beilinson, "lambda_mul_basis")

    def counted_product(spec, m1, m2):
        requested.add((m1, m2))
        return product(spec, m1, m2)

    def recorded_spec(args):
        specs.append(spec_from_args(args))
        return specs[-1]

    for module in (asreg2.algebra, asreg2.skew, asreg2.beilinson):
        monkeypatch.setattr(module, "monomial_product", counted_product)
    monkeypatch.setattr(asreg2.algebra.AlgebraElement, "_basis_mul", staticmethod(counted_product))
    monkeypatch.setattr(asreg2.cli, "_spec_from_args", recorded_spec)
    code, out = run(capsys, ["check", *flags])
    assert code == 0 and out.endswith("overall: ok\n")
    assert len(specs) == 1
    spec = specs[0]
    formed = len(spec._products)
    assert 20 < formed == len(requested)
    ell, dims = spec.ell, [len(graded_basis(spec, d)) for d in range(9)]
    assert per_stage["corner_dimension_checks"] == 3 * sum(dims)
    assert per_stage["gabriel_quiver_oracle"] == sum(
        dims[d - d2] * dims[d2] for d in range(ell) for d2 in range(1, d))


def test_check_counts_fixed_dims_once_per_degree(monkeypatch, capsys):
    # the trace-average line reads dim (S^G)_d off the corner rows, so a
    # check-suite round counts the fixed monomials of each (job, degree)
    # once, in the corner line
    counted, job = Counter(), [None]
    for name in ("corner_dimension_checks", "fixed_ring_dims"):
        real = getattr(asreg2.skew, name)

        def counting(action, D, real=real):
            counted.update((job[0], d) for d in range(D + 1))
            return real(action, D)

        monkeypatch.setattr(asreg2.skew, name, counting)
        monkeypatch.setattr(asreg2.cli, name, counting)
    jobs = _load_workloads().WORKLOADS["check-suite"].round(0)
    for k, argv in enumerate(j.argv for j in jobs):
        job[0] = k
        code, out = run(capsys, list(argv))
        assert code == 0 and json.loads(out)["result"]["ok"], argv
    # no --max-degree: every job checks the degrees 0..8
    assert counted == Counter((k, d) for k in range(len(jobs)) for d in range(9))
    assert len(counted) == 225


def test_check_trace_average_compares_with_the_corner_rows(monkeypatch, capsys):
    real = asreg2.cli.molien_dims
    monkeypatch.setattr(asreg2.cli, "molien_dims",
                        lambda action, D: [n + (d == 2) for d, n in enumerate(real(action, D))])
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3"])
    assert code == 1
    failed = [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["trace-average fixed dims (d <= 8)", "overall: FAIL"]


def test_check_jordan(capsys):
    code, out = run(capsys, ["check", "--family", "jordan", "--wy", "1", "--r", "2",
                             "--max-degree", "6"])
    assert code == 0
    assert "overall: ok" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("wx=1\nwy=3\nr=2\nmax-degree=5\nformat=json\n")
    # a config value beats the flag's declared default (fixed's --max-degree 12)
    expected = run(capsys, ["fixed", "--wx", "1", "--wy", "3", "--r", "2", "--max-degree", "5",
                            "--format", "json"])
    assert expected[0] == 0 and json.loads(expected[1])["params"]["max_degree"] == 5
    assert run(capsys, ["fixed", "--config", str(cfg)]) == expected
    # flags win over the config file
    code, out = run(capsys, ["fixed", "--config", str(cfg), "--max-degree", "4", "--format", "text"])
    assert code == 0
    assert "(d=0..4)" in out


def test_config_supplies_required_flags(tmp_path, capsys):
    # --vertex, --target-i and --target-j may come from a flag or the config;
    # a flag beats the config, and with neither the job exits 2 as argparse does;
    # a config's kind beats reflect at's declared --kind qs
    cfg = tmp_path / "job.cfg"
    jobs = ((["reflect", "search", "--wx", "1", "--wy", "3", "--c", "6"],
             {"target-i": "6", "target-j": "18"}, "--target-i, --target-j"),
            (["reflect", "at", "--kind", "qs", "--wx", "1", "--wy", "2"],
             {"vertex": "v0"}, "--vertex"),
            (["reflect", "at", "--wx", "1", "--wy", "2"],
             {"kind": "covering", "c": "2", "vertex": "v0_0"}, "--vertex"))
    for argv, values, names in jobs:
        flags = [token for key, value in values.items() for token in ("--" + key, value)]
        expected = run(capsys, argv + flags)
        assert expected[0] == 0 and expected[1]
        for key, value in values.items():
            cfg.write_text("%s=%s\n" % (key, value))
            rest = [token for k, v in values.items() if k != key for token in ("--" + k, v)]
            assert run(capsys, argv + rest + ["--config", str(cfg)]) == expected
        cfg.write_text("".join("%s=%s\n" % item for item in values.items()))
        assert run(capsys, argv + ["--config", str(cfg)]) == expected
        cfg.write_text("".join("%s=%s\n" % (key, {"vertex": "v9", "kind": "qsg"}.get(key, "3"))
                               for key in values))
        assert run(capsys, argv + flags + ["--config", str(cfg)]) == expected
        cfg.write_text("wx=1\n")
        for extra in ([], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: the following arguments are required: %s\n" % names)
    with pytest.raises(SystemExit) as exc:
        main(["reflect", "search", "--target-j", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("the following arguments are required: --target-i\n")


def test_bad_inputs_exit_cleanly(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--alpha", "1/0"])
    assert "denominator" in str(exc.value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wx=abc\n")
    # a config value is checked even where a flag overrides it
    for argv in (["info", "--config", str(cfg)], ["info", "--wx", "1", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "integer" in str(exc.value)
    cfg.write_text("nonsense\n")
    with pytest.raises(SystemExit) as exc:
        main(["info", "--config", str(cfg)])
    assert "key=value" in str(exc.value)
    # config values meet the same choices as the flags they seed
    cfg.write_text("family=jordn\n")
    with pytest.raises(SystemExit) as exc:
        main(["info", "--config", str(cfg)])
    assert "'jordn'" in str(exc.value)
    cfg.write_text("format=xml\n")
    with pytest.raises(SystemExit) as exc:
        main(["info", "--config", str(cfg)])
    assert "'xml'" in str(exc.value)
    # the Jordan plane has no alpha to set, from a flag or a config file
    cfg.write_text("alpha=2\nfamily=jordan\n")
    for argv in (["hdet", "--family", "jordan", "--wy", "2", "--alpha", "2"],
                 ["hdet", "--wy", "2", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith("invalid algebra: ") and "\n" not in str(exc.value)
    # a malformed --action-powers is named in one line; an empty one too,
    # from a flag or a config file, rather than running the default action
    for powers in ("1;0", "1,2,3", "1", "a,b", ""):
        with pytest.raises(SystemExit) as exc:
            main(["ample", "--r", "2", "--action-powers", powers])
        assert str(exc.value) == ("invalid action: --action-powers needs two integers px,py,"
                                  " got %r" % powers)
    cfg.write_text("action_powers=\n")
    with pytest.raises(SystemExit) as exc:
        main(["ample", "--r", "2", "--config", str(cfg)])
    assert str(exc.value) == "invalid action: --action-powers needs two integers px,py, got ''"
    # the skew quiver of an action the Jordan plane does not admit (r must divide q+1)
    for argv in (["quiver", "qsg", "--family", "jordan", "--wy", "2", "--r", "2"],
                 ["reflect", "at", "--kind", "qsg", "--family", "jordan", "--wy", "2", "--r", "2",
                  "--vertex", "v0_0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith("invalid quiver: jordan relation needs ")
        assert "\n" not in str(exc.value)
    # quiver constructors reject bad sizes with one line, not a traceback
    for argv in (["quiver", "qsg", "--r", "0"],
                 ["quiver", "covering", "--c", "0"],
                 ["quiver", "canonical", "--i", "0", "--j", "2"],
                 ["reflect", "at", "--kind", "covering", "--c", "0", "--vertex", "v0"],
                 ["reflect", "search", "--c", "0", "--target-i", "1", "--target-j", "1"],
                 ["reflect", "search", "--target-i", "0", "--target-j", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith("invalid quiver: ")
    # negative windows, from flags and from config files alike
    for argv in (["ample", "--max-degree", "-3"],
                 ["info", "--max-degree", "-1"],
                 ["fixed", "--max-degree", "-2"],
                 ["check", "--max-degree", "-1"],
                 ["reflect", "search", "--target-i", "1", "--target-j", "1",
                  "--max-depth", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "must be >= 0" in str(exc.value)
    cfg.write_text("max-degree=-3\n")
    with pytest.raises(SystemExit) as exc:
        main(["ample", "--config", str(cfg)])
    assert str(exc.value) == "--max-degree must be >= 0, got -3"
    cfg.write_text("max-depth=-1\n")
    with pytest.raises(SystemExit) as exc:
        main(["reflect", "search", "--target-i", "1", "--target-j", "1", "--config", str(cfg)])
    assert str(exc.value) == "--max-depth must be >= 0, got -1"
    # a config key must name an option flag of the chosen subcommand
    for key in ("command=hdet", "mode=at", "kind=qs", "config=other.cfg"):
        cfg.write_text(key + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["info", "--config", str(cfg)])
        assert str(exc.value) == "config: unknown key %r" % key.split("=")[0]
    # every hdet flag reaches the map or is refused; none is dropped
    for argv, start in ((["--wx", "1", "--wy", "2", "--b", "1"], "invalid automorphism parameters: --b"),
                        (["--wx", "2", "--wy", "3", "--c", "1"], "invalid automorphism parameters: --c"),
                        (["--family", "jordan", "--wy", "1", "--b", "1"], "the given images do not"),
                        (["--family", "jordan", "--wy", "2", "--d", "5"], "the given images do not")):
        with pytest.raises(SystemExit) as exc:
            main(["hdet", *argv])
        assert str(exc.value).startswith(start) and "\n" not in str(exc.value)
    # unreadable config files and unwritable outputs
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00wx=1\n")
    for argv, start in ((["info", "--config", str(binary)], "cannot read config "),
                        (["info", "--config", str(tmp_path / "missing" / "x.cfg")], "cannot read config "),
                        (["info", "--config", str(tmp_path)], "cannot read config "),
                        (["info", "--out", str(tmp_path / "missing" / "o.txt")], "cannot write ")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith(start) and "\n" not in str(exc.value)


@pytest.mark.parametrize("command, flag, value", [
    (["info"], "--alpha", "-1/2"),
    (["hdet"], "--a", "-zeta(3)"),
    (["hdet"], "--b", "-1/2"),
    (["hdet"], "--c", "-2*zeta(3)"),
    (["hdet"], "--d", "-zeta(5)^2"),
    (["ample", "--r", "3"], "--action-powers", "-1,1"),
], ids=["alpha", "a", "b", "c", "d", "action-powers"])
def test_negative_value_after_a_space(capsys, command, flag, value):
    # "--flag -v" parses as "--flag=-v"
    spaced = run(capsys, [*command, flag, value, "--format", "json"])
    joined = run(capsys, [*command, "%s=%s" % (flag, value), "--format", "json"])
    assert spaced == joined and spaced[0] == 0


def test_flag_without_value_is_refused(tmp_path, monkeypatch, capsys):
    for argv in (["info", "--alpha"], ["info", "--alpha", "--wx", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --alpha: expected one argument" in capsys.readouterr().err
    # argparse before 3.12 drops the value of "--opt=--" and stores [], which
    # is refused as a missing value; an argparse that keeps "--" sends it down
    # that value's own path: a choices error, a bad value, or a file of that
    # name.  Either way no traceback and no stdout
    probe = argparse.ArgumentParser()
    probe.add_argument("--opt")
    stored = probe.parse_args(["--opt=--"]).opt
    assert stored in ([], "--")
    monkeypatch.chdir(tmp_path)
    for argv in (["info", "--alpha=--"], ["info", "--out=--"], ["quiver", "qs", "--format=--"]):
        flag = argv[-1][:-3]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert captured.out == "", argv
        if stored == []:
            assert code == 2, argv
            assert captured.err.splitlines()[-1] == (
                "asreg2 %s: error: argument %s: expected one argument" % (argv[0], flag))
        elif flag == "--out":
            assert code in (0, None) and (tmp_path / "--").exists(), argv
        elif code == 2:  # argparse's own one-line refusal, after its usage
            assert captured.err.splitlines()[-1].startswith(
                "asreg2 %s: error: argument %s: " % (argv[0], flag)), argv
        else:  # the value's own one-line message
            assert code not in (0, None) and "\n" not in str(code), argv


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _parse_outcome(parse, argv, capsys):
    """vars of the namespace parse(argv) gives, or (exit code, stdout, stderr)."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return vars(args)


MISPLACED_WX = "option --wx comes before the subcommand; options go after it"


def test_option_before_the_subcommand_is_named(capsys):
    for argv, line in ((["--wx", "1", "ample"], "asreg2: error: " + MISPLACED_WX),
                       (["--wx=1", "ample"], "asreg2: error: " + MISPLACED_WX),
                       (["reflect", "--wx", "1", "search"], "asreg2 reflect: error: " + MISPLACED_WX),
                       (["--r", "2", "check"], "asreg2: error: " + MISPLACED_WX.replace("wx", "r"))):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.splitlines()[-1] == line, argv
    # help and its abbreviations still print help; "-" and "--" name no option
    for argv, code in ((["--he"], 0), (["-h"], 0), (["-", "ample"], 2), (["--", "ample"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code, argv
        assert "comes before the subcommand" not in capsys.readouterr().err, argv


def test_parse_matches_argparse(tmp_path, monkeypatch, capsys):
    # main parses once, by the parser the leading subcommand names pick;
    # argparse's parse through every nested parser is the oracle
    def one_parse(argv):
        return asreg2.cli._parse(argv)[0]

    cfg = tmp_path / "job.cfg"
    cfg.write_text("command=hdet\n")
    bad = [[], ["-h"], ["bogus"], ["reflect"], ["reflect", "bogus"], ["reflect", "search", "-h"],
           ["ample", "extra"], ["ample", "--he"], ["--wx", "1", "ample"], ["ample", "--", "x"],
           ["info", "--alpha"]]
    with_config = [["info", "--config", str(cfg)],
                   ["reflect", "search", "--target-i", "1", "--target-j", "1", "--config", str(cfg)]]
    jobs = [list(job.argv) for workload in _load_workloads().WORKLOADS.values()
            for job in workload.space()]
    for argv in jobs + GOLDEN_ARGVS + bad + with_config:
        expected = _parse_outcome(asreg2.cli.build_parser().parse_args, argv, capsys)
        assert isinstance(expected, dict) == (argv not in bad), argv
        if argv == ["--wx", "1", "ample"]:
            # the one departure from argparse, which names "1" as the subcommand
            usage = expected[2].split("asreg2: error:")[0]
            expected = expected[:2] + (usage + "asreg2: error: " + MISPLACED_WX + "\n",)
        assert _parse_outcome(one_parse, argv, capsys) == expected, argv
    # help exits 0, the rest exit 2
    codes = [_parse_outcome(one_parse, argv, capsys)[0] for argv in bad]
    assert codes == [2, 0, 2, 2, 2, 0, 2, 0, 2, 2, 2]
    # the config is read after the parse, through the chosen subcommand's flags
    for argv in with_config:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == "config: unknown key 'command'"
    # main() with no argv reads sys.argv, as argparse does
    argv = GOLDEN_ARGVS[-1]
    monkeypatch.setattr(sys, "argv", ["asreg2", *argv])
    assert _parse_outcome(one_parse, None, capsys) == _parse_outcome(one_parse, argv, capsys)


def _leaves(parser, names=()):
    """(subcommand names, parser) of every parser no subcommand follows."""
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if sub is None:
        return [(list(names), parser)]
    return [leaf for name, p in sub.choices.items() for leaf in _leaves(p, names + (name,))]


LEAVES = _leaves(asreg2.cli.build_parser())
# values that pass no check or that argparse reads otherwise: a bad int, a
# bad choice, an empty value, a leading "-", "--"
ODD_VALUES = st.sampled_from(["1.5", "x", "", "jsn", "-1", "-1/2", "-", "--"])
# help, "--", abbreviations and stray words
ODD_TOKENS = st.sampled_from(["-h", "--help", "--", "--form", "--he", "--max", "--w", "--target",
                              "ample", "qs", "-x", "-"])


def _plain_values(action):
    """Texts the flag of action takes."""
    return (st.sampled_from(list(action.choices)) if action.choices
            else st.integers(0, 20).map(str) if action.type is int
            else st.sampled_from(["1", "2/3", "zeta(5)", "v3"]))


@st.composite
def leaf_argvs(draw):
    """An argv of a leaf parser and a seed: some of its flags' dests, with
    values of their type or choices."""
    names, leaf = draw(st.sampled_from(LEAVES))
    table = leaf._option_string_actions
    flags = {action.dest: action for action in table.values() if action.dest != "help"}
    seed = {dest: draw(_plain_values(flags[dest]).map(flags[dest].type or str))
            for dest in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))}
    argv = list(names)
    # most runs are a flag and a value it takes, after a space or an "=";
    # the rest carry an odd value, lack their value or are an odd token
    for _ in range(draw(st.integers(0, 6))):
        option = draw(st.sampled_from(sorted(table.keys() - {"-h", "--help"})))
        action = table[option]
        value = draw(_plain_values(action))
        form = draw(st.sampled_from(["space", "equals"] * 7 + ["odd value", "no value", "odd token"]))
        if form == "odd value":
            value = draw(ODD_VALUES)
            form = draw(st.sampled_from(["space", "equals"]))
        argv += {"space": [option, value], "equals": [option + "=" + value], "no value": [option],
                 "odd token": [draw(ODD_TOKENS)]}[form]
    # repeats come from drawing the same option twice
    return argv, seed


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(leaf_argvs())
# argparse before 3.12 reads "--alpha=--" as alpha = []
@example(job=(["info", "--alpha=--"], {}))
# a repeated flag: its last value stands
@example(job=(["reflect", "at", "--kind=covering", "--vertex", "v0", "--kind", "qsg"], {}))
# a seeded value beats the declared default and loses to its flag
@example(job=(["reflect", "at", "--vertex", "v0_0", "--c", "3"], {"kind": "covering", "c": 2}))
def test_table_parse_matches_argparse(capsys, job):
    # the table pass or argparse behind it: the namespace, or the exit code,
    # stdout and stderr, of the nested parse_args on every drawn argv; the
    # nested parse takes no seed, so a seeded parse that gets through is
    # compared with the leaf parser's parse from the seeded namespace
    argv, seed = job
    expected = _parse_outcome(asreg2.cli.build_parser().parse_args, argv, capsys)
    if isinstance(expected, dict):
        names = {dest: expected[dest] for dest in ("command", "mode") if dest in expected}
        leaf = dict((tuple(n), p) for n, p in LEAVES)[tuple(names.values())]
        if seed:
            args, extras = leaf.parse_known_args(argv[len(names):], argparse.Namespace(**names, **seed))
            assert not extras
            expected = vars(args)
        listed = [action for action in leaf._actions if type(expected.get(action.dest)) is list]
        if listed:
            # the [] argparse before 3.12 stores for "--opt=--" is refused as a missing value
            expected = (2, "", "%s%s: error: argument %s: expected one argument\n" % (
                leaf.format_usage(), leaf.prog, "/".join(listed[0].option_strings)))
    assert _parse_outcome(lambda a: asreg2.cli._parse(a, seed)[0], argv, capsys) == expected


def test_table_parse_leaves_argparse_unused_on_plain_flags(monkeypatch):
    # every benchmark job and every golden argv outside quiver, whose kind is
    # a positional, is read from the option table; an abbreviation is not
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    jobs = [list(job.argv) for workload in _load_workloads().WORKLOADS.values()
            for job in workload.space()]
    for argv in jobs + GOLDEN_ARGVS:
        asreg2.cli._parse(argv)
        assert len(calls) == (argv[0] == "quiver"), argv
        calls.clear()
    for argv in (["ample", "--wx", "1", "--wy", "2", "--r", "3", "--form", "json"],
                 ["ample", "--alpha", "-1/2"], ["reflect", "search", "--target-i", "1", "-h"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            asreg2.cli._parse(argv)
        assert len(calls) == 1, argv
        calls.clear()
    args, _ = asreg2.cli._parse(["ample", "--wx=1", "--wy", "2", "--r=3", "--format=json"])
    assert vars(args) == vars(asreg2.cli._parse(
        ["ample", "--wx", "1", "--wy", "2", "--r", "3", "--form", "json"])[0])


def test_handler_runs_as_the_module_attribute(monkeypatch):
    # each subcommand's handler is called through the module attribute of
    # its name, so a wrapper set there (as perfbench's tracer sets one) runs
    calls = []
    for names, leaf in LEAVES:
        name = leaf._defaults["handler"].__name__
        monkeypatch.setattr(asreg2.cli, name, lambda args, name=name: calls.append(name) or 0)
        required = ["--%s=1" % key.replace("_", "-") for key in asreg2.cli._REQUIRED
                    if any(action.dest == key for action in leaf._actions)]
        assert main([*names, *(["qs"] if names == ["quiver"] else []), *required]) == 0
        assert calls == [name], names
        calls.clear()


def test_byte_identical_output(tmp_path, monkeypatch, capsys):
    # a job run twice gives the same bytes, and so does the job with each
    # flag it omits spelled as --flag=<declared default>: the handlers use
    # the defaults the parser declares
    monkeypatch.chdir(tmp_path)

    def output(argv):
        code, out = run(capsys, argv)
        return code, out, Path("golden.out").read_bytes() if "--out" in argv else None

    jobs = [["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5", "--format", "json"]]
    jobs += GOLDEN_ARGVS + [list(workload.space()[0].argv)
                            for workload in _load_workloads().WORKLOADS.values()]
    for argv in jobs:
        given = {token.split("=")[0] for token in argv}
        defaults = ["%s=%s" % (action.option_strings[0], action.default)
                    for action in asreg2.cli._parse(argv)[1]._actions
                    if action.option_strings and action.option_strings[0] not in given
                    and action.default not in (None, argparse.SUPPRESS)]
        assert defaults, argv  # every job leaves a flag to its declared default
        expected = output(argv)
        assert expected[0] == 0 and output(argv) == expected == output(argv + defaults), argv


def _subprocess_env(**extra):
    """The environment with this checkout's asreg2 first on PYTHONPATH."""
    src = str(Path(asreg2.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_optimized_run_gives_identical_bytes():
    # invariants and the hypotheses of the counts are explicit raises, so
    # python -O checks and prints the same, on check and on a Jordan ample
    env = _subprocess_env()
    for argv, expect in (
            (["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"], b'"ok": true'),
            (["ample", "--family", "jordan", "--wy", "3", "--r", "4"], b'"FINITE-UP-TO-64"')):
        outs = [subprocess.run([sys.executable, *flags, "-m", "asreg2", *argv, "--format", "json"],
                               env=env, capture_output=True, check=True).stdout
                for flags in ([], ["-O"])]
        assert outs[0] == outs[1], argv
        assert expect in outs[0], argv


def test_json_goldens_identical_across_hash_seeds():
    # the golden JSON bytes from fresh processes whose str hashes, and so
    # set and dict-building orders, differ
    argvs = ([["check", *flags] for _, flags in CHECK_GOLDENS]
             + [["ample", *flags] for _, flags in AMPLE_GOLDENS]
             + [["reflect", "search", *flags] for _, flags in REFLECT_GOLDENS])
    names = [name for name, _ in CHECK_GOLDENS + AMPLE_GOLDENS + REFLECT_GOLDENS]
    script = ("import json, sys\nfrom asreg2.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    assert main(argv + ['--format', 'json']) == 0\n")
    outs = [subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                           env=_subprocess_env(PYTHONHASHSEED=seed),
                           capture_output=True, check=True).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0] == b"".join((DATA / (name + ".json")).read_bytes() for name in names)


JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'))
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | JSON_TEXT
    | st.lists(st.integers() | st.booleans()),
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(JSON_TEXT, kids),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(JSON_TREES)
def test_json_writer_equals_json_dumps(tree):
    assert asreg2.cli._json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_json_writer_dispatches_on_the_exact_type():
    # a subclass of a report type is no report type: a NamedTuple, an int
    # subclass and a str subclass raise as a float does
    class Label(str):
        pass

    for value in (Monomial(1, 2), [Monomial(0, 0)], {"a": Label("x")}, IntEnum("E", "A").A):
        with pytest.raises(TypeError):
            asreg2.cli._json(value)


def test_reports_describe_only_for_text(monkeypatch, capsys):
    # the algebra and action lines are formatted only when the text is
    # built: no describe() on a JSON job of any command that describes them
    def no_describe(self):
        raise AssertionError("a JSON report described its algebra or action")

    monkeypatch.setattr(asreg2.algebra.AlgebraSpec, "describe", no_describe)
    monkeypatch.setattr(asreg2.automorphisms.CyclicGroupAction, "describe", no_describe)
    for argv in (["info", "--wx", "1", "--wy", "3", "--max-degree", "6"],
                 ["hdet", "--wx", "1", "--wy", "1", "--a", "2", "--d", "3"],
                 ["fixed", "--wx", "1", "--wy", "2", "--r", "3"],
                 ["ample", "--wx", "1", "--wy", "2", "--r", "3"],
                 ["check", "--wx", "1", "--wy", "2", "--r", "3"],
                 ["check", "--family", "jordan", "--wy", "5", "--r", "3"]):
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 0 and json.loads(out)["command"] == argv[0]
    monkeypatch.undo()
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3"])
    assert out.startswith("algebra: quantum(alpha=1), weights (1, 2)\n"
                          "action: r=3, generator diag(xi^1, xi^2)\n")


def test_ample_help_spells_the_default_powers_from_the_action(capsys):
    with pytest.raises(SystemExit):
        main(["ample", "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default %d,%d)" % DEFAULT_POWERS in help_text
    assert DEFAULT_POWERS == (1, -1)
    action = make_cyclic_group(quantum_spec(1, 1, 1), 5)
    assert (action.px, action.py) == (1, 4)


def test_json_writer_refuses_other_types():
    for value in (1.5, {1, 2}, {1: 2}, {"a": [0, 1.0]}, [{"b": None, 2: 0}]):
        with pytest.raises(TypeError):
            asreg2.cli._json(value)


WORKLOAD_JOBS = {"ample-quantum": 75, "ample-jordan": 25, "check-suite": 63, "reflect-search": 232}


@pytest.mark.parametrize("name", WORKLOAD_JOBS)
def test_workload_jobs_match_recorded_digests(name):
    # every job the benchmark can draw from the workload, through the
    # benchmark's own output checks: its recorded digest, and the verdict,
    # the check names or the replayed reflection witness
    workloads = _load_workloads()
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    jobs = workloads.WORKLOADS[name].space()
    assert len(jobs) == WORKLOAD_JOBS[name]
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(job.argv))
        assert workloads.check_output(name, job, code, buf.getvalue(), expected) == [], job.key
