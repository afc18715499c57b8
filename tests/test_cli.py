import json
from pathlib import Path

import pytest

from asreg2.cli import main, parse_cyclotomic
from asreg2.cyclotomic import cyc, zeta
from asreg2.rationals import RAT

DATA = Path(__file__).parent / "data"


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
    with pytest.raises(SystemExit):
        main(["ample", "--r", "2", "--action-powers", "1;0"])


def test_byte_identical_output(capsys):
    argv = ["check", "--wx", "1", "--wy", "2", "--r", "3", "--max-degree", "5",
            "--format", "json"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
