import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asreg2
import asreg2.algebra
import asreg2.beilinson
import asreg2.cli
import asreg2.quivers
import asreg2.skew
from asreg2.cli import main, parse_cyclotomic
from asreg2.cyclotomic import cyc, zeta
from asreg2.quivers import Quiver
from asreg2.rationals import RAT

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_cyclotomic():
    assert parse_cyclotomic("2/3") == cyc(RAT(2, 3))
    assert parse_cyclotomic("-1") == cyc(-1)
    assert parse_cyclotomic("zeta(5)") == zeta(5)
    assert parse_cyclotomic("zeta(6)^5") == zeta(6) ** 5
    assert parse_cyclotomic("2*zeta(3)^2") == zeta(3) ** 2 * 2
    assert parse_cyclotomic("-3/2*zeta(4)") == -zeta(4) * cyc(RAT(3, 2))
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


def test_hdet_command(capsys):
    code, out = run(capsys, ["hdet", "--wx", "1", "--wy", "1",
                             "--a", "2", "--d", "3"])
    assert code == 0
    assert "hdet (koszul-dual) = 6" in out
    assert "hdet (normal-recursion) = 6" in out
    assert "hdet (table) = 6" in out
    assert "methods agree: yes" in out
    assert "in HSL: no" in out


def test_hdet_identity_in_hsl(capsys):
    code, out = run(capsys, ["hdet", "--wx", "1", "--wy", "1"])
    assert code == 0
    assert "in HSL: yes" in out


def test_hdet_jordan_power(capsys):
    code, out = run(capsys, ["hdet", "--family", "jordan", "--wy", "2", "--a", "2"])
    assert code == 0
    assert "hdet (table) = 8" in out  # a^(q+1) with q = 2


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


@pytest.mark.parametrize("name, flags", [
    ("check_1_3_r12", ["--wx", "1", "--wy", "3", "--r", "12"]),
    ("check_1_1_r20", ["--wx", "1", "--wy", "1", "--r", "20"]),
    ("check_1_1_r50", ["--wx", "1", "--wy", "1", "--r", "50"]),
    ("check_1_1_r150", ["--wx", "1", "--wy", "1", "--r", "150"]),
    ("check_1_1_r300", ["--wx", "1", "--wy", "1", "--r", "300"]),
    ("check_j23_r24", ["--family", "jordan", "--wy", "23", "--r", "24"]),
], ids=["1_3_r12", "1_1_r20", "1_1_r50", "1_1_r150", "1_1_r300", "j23_r24"])
def test_check_matches_golden(tmp_path, capsys, name, flags):
    # pins the check bytes at configs that no benchmark job reaches; the
    # Jordan plane sends non-monomial products through the product memo
    out_file = tmp_path / "check.json"
    code, _ = run(capsys, ["check", *flags, "--format", "json", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / (name + ".json")).read_bytes()


@pytest.mark.parametrize("name, flags", [
    ("ample_1_1_r100", ["--wx", "1", "--wy", "1", "--r", "100"]),
    ("ample_1_1_r12_p2_3", ["--wx", "1", "--wy", "1", "--r", "12", "--action-powers", "2,3"]),
    ("ample_j11_r12", ["--family", "jordan", "--wy", "11", "--r", "12"]),
    ("ample_j3_r6_p2_0", ["--family", "jordan", "--wy", "3", "--r", "6", "--action-powers", "2,0"]),
], ids=["1_1_r100", "1_1_r12_p2_3", "j11_r12", "j3_r6_p2_0"])
def test_ample_matches_golden(tmp_path, capsys, name, flags):
    # pins the ample bytes at large r, on non-ample actions of both planes
    # and on the Jordan plane
    out_file = tmp_path / "ample.json"
    code, _ = run(capsys, ["ample", *flags, "--format", "json", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_bytes() == (DATA / (name + ".json")).read_bytes()


@pytest.mark.parametrize("name, flags", [
    ("reflect_2_5_c3_t6_15", ["--wx", "2", "--wy", "5", "--c", "3", "--target-i", "6", "--target-j", "15"]),
    ("reflect_1_3_c6_t6_18", ["--wx", "1", "--wy", "3", "--c", "6", "--target-i", "6", "--target-j", "18"]),
], ids=["2_5_c3", "1_3_c6"])
def test_reflect_search_matches_golden(tmp_path, capsys, name, flags):
    # pins the reflection witnesses on covering quivers of 21 and 24 vertices
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


def test_check_gabriel_oracle_off_the_cycle_domain(monkeypatch, capsys):
    # a path is no union of cycles: the comparison reads FAIL, not a traceback
    path = Quiver(["v0", "v1", "v2"], [("v0", "v1", ""), ("v1", "v2", "")])
    monkeypatch.setattr(asreg2.cli, "gabriel_quiver_oracle", lambda spec, action: path)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"])
    assert code == 1
    failed = [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["Gabriel oracle matches skew quiver", "overall: FAIL"]


def test_check_non_cycle_component_fails(monkeypatch, capsys):
    # Q_{S,G} of (1, 2), r = 3 plus a path component: the quiver lines read
    # FAIL, not a traceback
    real = asreg2.cli.quiver_qsg

    def with_path(spec, r):
        q = real(spec, r)
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
    # Q_{S,G} of (1, 2), r = 3 has 3 components: they, the cover and the
    # 3 components of the Gabriel oracle are walked once each, and only
    # Q_{S,G} and the oracle are split into components
    walked, split = [], []
    walk, components = asreg2.quivers._cycle_walk, asreg2.quivers.components

    def counted_walk(q, tags=False):
        walked.append(q)
        return walk(q, tags)

    def counted_components(q):
        split.append(q)
        return components(q)

    for module in (asreg2.quivers, asreg2.cli):
        monkeypatch.setattr(module, "_cycle_walk", counted_walk)
    monkeypatch.setattr(asreg2.quivers, "components", counted_components)
    code, out = run(capsys, ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"])
    assert code == 0 and out.endswith("overall: ok\n")
    assert len(walked) == 7 and len(split) == 2


@pytest.mark.parametrize("flags", [
    ["--wx", "1", "--wy", "2", "--alpha=2/3", "--r", "3"],
    ["--wx", "2", "--wy", "3", "--alpha=zeta(5)", "--r", "4"],
    ["--family", "jordan", "--wy", "5", "--r", "3"],
], ids=["1_2_r3", "2_3_r4", "j5_r3"])
def test_check_forms_each_product_once(monkeypatch, capsys, flags):
    # every (m1, m2) that check asks for is formed by one top-level
    # _xy_normal call (the Jordan rewriting recurses below it)
    requested, calls, formed, depth = set(), [0], [0], [0]
    product, normal = asreg2.algebra.monomial_product, asreg2.algebra._xy_normal

    def counted_product(spec, m1, m2):
        calls[0] += 1
        requested.add((m1, m2))
        return product(spec, m1, m2)

    def counted_normal(spec, b, a):
        formed[0] += not depth[0]
        depth[0] += 1
        try:
            return normal(spec, b, a)
        finally:
            depth[0] -= 1

    for module in (asreg2.algebra, asreg2.skew, asreg2.beilinson):
        monkeypatch.setattr(module, "monomial_product", counted_product)
    monkeypatch.setattr(asreg2.algebra.AlgebraElement, "_basis_mul", staticmethod(counted_product))
    monkeypatch.setattr(asreg2.algebra, "_xy_normal", counted_normal)
    code, out = run(capsys, ["check", *flags])
    assert code == 0 and out.endswith("overall: ok\n")
    # the memo serves the repeats: the Lambda and nabla(S*G) sides of each
    # structure pair, and the corner and Lambda_0 loops
    assert 20 < formed[0] == len(requested) < calls[0] // 2


def test_check_jordan(capsys):
    code, out = run(capsys, ["check", "--family", "jordan", "--wy", "1", "--r", "2",
                             "--max-degree", "6"])
    assert code == 0
    assert "overall: ok" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("wx=1\nwy=3\nr=2\nmax-degree=6\n")
    code, out = run(capsys, ["fixed", "--config", str(cfg)])
    assert code == 0
    assert "(d=0..6)" in out
    # flags win over the config file
    code, out = run(capsys, ["fixed", "--config", str(cfg), "--max-degree", "4"])
    assert code == 0
    assert "(d=0..4)" in out


def test_config_supplies_required_flags(tmp_path, capsys):
    # --vertex, --target-i and --target-j may come from a flag or the config;
    # a flag beats the config, and with neither the job exits 2 as argparse does
    cfg = tmp_path / "job.cfg"
    jobs = ((["reflect", "search", "--wx", "1", "--wy", "3", "--c", "6"],
             {"target-i": "6", "target-j": "18"}, "--target-i, --target-j"),
            (["reflect", "at", "--kind", "qs", "--wx", "1", "--wy", "2"],
             {"vertex": "v0"}, "--vertex"))
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
        cfg.write_text("".join("%s=v9\n" % key if key == "vertex" else "%s=2\n" % key
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
    with pytest.raises(SystemExit) as exc:
        main(["info", "--config", str(cfg)])
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
    # a malformed --action-powers is named in one line
    for powers in ("1;0", "1,2,3", "1", "a,b"):
        with pytest.raises(SystemExit) as exc:
            main(["ample", "--r", "2", "--action-powers", powers])
        assert str(exc.value) == ("invalid action: --action-powers needs two integers px,py,"
                                  " got %r" % powers)
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


def test_flag_without_value_is_refused(capsys):
    for argv in (["info", "--alpha"], ["info", "--alpha", "--wx", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --alpha: expected one argument" in capsys.readouterr().err


def test_byte_identical_output(capsys):
    argv = ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5",
            "--format", "json"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_optimized_run_gives_identical_bytes():
    # invariants and the hypotheses of the counts are explicit raises, so
    # python -O checks and prints the same, on check and on a Jordan ample
    src = str(Path(asreg2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, expect in (
            (["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5"], b'"ok": true'),
            (["ample", "--family", "jordan", "--wy", "3", "--r", "4"], b'"FINITE-UP-TO-64"')):
        outs = [subprocess.run([sys.executable, *flags, "-m", "asreg2", *argv, "--format", "json"],
                               env=env, capture_output=True, check=True).stdout
                for flags in ([], ["-O"])]
        assert outs[0] == outs[1], argv
        assert expect in outs[0], argv


WORKLOAD_JOBS = {"ample-quantum": 75, "ample-jordan": 25, "check-suite": 63, "reflect-search": 232}


@pytest.mark.parametrize("name", WORKLOAD_JOBS)
def test_workload_jobs_match_recorded_digests(name):
    # every job the benchmark can draw from the workload, against its recorded output
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digests = json.loads((PERFBENCH / "expected.json").read_text())["digests"]
    jobs = workloads.WORKLOADS[name].space()
    assert len(jobs) == WORKLOAD_JOBS[name]
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(job.argv)) == 0
        assert workloads.digest(buf.getvalue()) == digests[job.key], job.key
