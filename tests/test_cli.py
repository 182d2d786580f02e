"""Command-line interface: golden invocations, formats, exit codes."""

import json
import subprocess
import sys


from ecgroups.cli import main


def run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ecgroups.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout.strip(), proc.stderr.strip()


def run_json(*argv):
    rc, out, err = run(*argv)
    assert rc == 0, err
    return json.loads(out)


def test_main_callable_directly(capsys):
    rc = main(["count", "--field", "p=13", "--curve", "0,0,0,0,2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"N": 19, "t": -5}


def test_info_golden():
    out = run_json("info", "--field", "p=13", "--curve", "0,0,0,0,2")
    assert out == {"b2": "0", "b4": "0", "b6": "8", "b8": "0",
                   "c4": "0", "c6": "1", "delta": "1", "j": "0",
                   "singular_kind": "nonsingular"}


def test_count_without_affine_points_exits_one():
    # y^2 + y = x^3 + x + 1 has E(F_2) = {O}: no point can be drawn, so the
    # sampling methods fail at once (a timeout turns a hang into a failure)
    for method in ("bsgs", "random"):
        proc = subprocess.run(
            [sys.executable, "-m", "ecgroups.cli", "count", "--field", "p=2",
             "--curve", "0,0,1,1,1", "--method", method],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and "no affine point" in proc.stderr, proc.stderr
    assert main(["count", "--field", "p=2", "--curve", "0,0,1,1,1"]) == 0


def test_json_keys_sorted():
    rc, out, _ = run("structure", "--field", "p=13", "--curve", "0,0,0,0,3")
    assert rc == 0
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_count_methods():
    for method in ("brute", "closed"):
        out = run_json("count", "--field", "p=5", "--curve", "0,0,0,1,0",
                       "--method", method)
        assert out["N"] == 4
    for method in ("brute", "random", "bsgs"):
        out = run_json("count", "--field", "p=13", "--curve", "0,0,0,0,2",
                       "--method", method)
        assert out["N"] == 19
    # Z_2 x Z_2 has exponent below 4*sqrt(q): the random-point method
    # correctly reports it cannot decide
    rc, _, err = run("count", "--field", "p=5", "--curve", "0,0,0,1,0",
                     "--method", "random")
    assert rc == 1 and "brute force" in err
    out = run_json("count", "--field", "p=13", "--curve", "0,0,0,0,2",
                   "--method", "lucas", "--n", "5")
    assert out == {"N": 370519, "V": 775, "n": 5}


def test_structure_and_torsion():
    out = run_json("structure", "--field", "p=13", "--curve", "0,0,0,0,3")
    assert (out["N"], out["d"], out["e"]) == (9, 3, 1)
    assert len(out["generators"]) == 2
    out = run_json("torsion", "--field", "p=13", "--curve", "0,0,0,0,3",
                   "--n", "3")
    assert len(out["points"]) == 8


def test_twist_encode_decode():
    out = run_json("twist", "--field", "p=13", "--curve", "0,0,0,0,2")
    assert out["curve"].startswith("p=13|")
    enc = run_json("encode", "--field", "p=13", "--curve", "0,0,0,0,2",
                   "--m", "0", "--K", "2")
    dec = run_json("decode", "--field", "p=13", "--curve", "0,0,0,0,2",
                   "--point", enc["point"], "--K", "2")
    assert dec == {"m": 0}


def test_bad_message_input_is_usage_error_under_optimize():
    # input checks are not asserts, so python -O keeps them
    curve = ("--field", "p=13", "--curve", "0,0,0,6,11")
    for argv in (("encode", *curve, "--m", "-1", "--K", "2"),
                 ("decode", *curve, "--point", "inf", "--K", "1"),
                 ("construct", "--field", "p=3", "--N", "4"),
                 ("zeta", *curve, "--nmax", "100"),
                 ("cm", "--d", "-3", "--p", "3"),
                 ("count", *curve, "--method", "lucas", "--n", "300")):
        proc = subprocess.run([sys.executable, "-O", "-m", "ecgroups.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage error: ") and len(proc.stderr.strip()) > 13


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by the counting kernels that use it, not at start-up
    code = "import sys, ecgroups.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.strip() == "False", proc.stderr


def test_classes_and_census():
    out = run_json("classes", "--q", "5")
    assert out["total_nonsingular"] == 20 and out["class_count"] == 12
    cen = run_json("census", "--q", "5")
    assert sum(cen["counts"].values()) == 20


def test_construct_cm_embed_lint():
    out = run_json("construct", "--field", "p=13", "--N", "19")
    assert out["N"] == 19
    out = run_json("cm", "--d", "-7", "--p", "11")
    assert out["N"] == 8 and out["t"] == 4
    out = run_json("embed", "--field", "p=5", "--curve", "0,0,0,0,1",
                   "--r", "3")
    assert out["k"] == 2
    out = run_json("lint", "--field", "p=5", "--curve", "0,0,0,0,1")
    assert "supersingular" in out["flags"]


def test_zeta_lseries_angles():
    out = run_json("zeta", "--field", "p=13", "--curve", "0,0,0,0,2",
                   "--nmax", "3")
    assert out["L"] == [1, 5, 13] and out["counts"][:2] == [19, 171]
    out = run_json("lseries", "--curve", "0,0,0,0,1", "--nmax", "10")
    assert out["a"][6] == -4
    out = run_json("angles", "--curve", "0,0,0,0,1", "--mode", "vary_prime",
                   "--limit", "100")
    assert out["samples"] == 23 and len(out["histogram"]) == 64


def test_extension_field_grammar():
    out = run_json("count", "--field", "p=2;n=3;mod=1,1,0,1",
                   "--curve", "0,0,1,0,0")
    assert out["N"] == 9


def test_table_format_and_out(tmp_path):
    rc, out, _ = run("--format", "table", "census", "--q", "5")
    assert rc == 0
    rows = dict(line.split(",") for line in out.splitlines())
    assert rows["0"] == "4"
    target = tmp_path / "o.json"
    rc, out, _ = run("--out", str(target), "info", "--field", "p=13",
                     "--curve", "0,0,0,0,2")
    assert rc == 0
    assert json.loads(target.read_text())["delta"] == "1"


def test_seed_reproducibility():
    a = run("--seed", "7", "count", "--field", "p=13", "--curve",
            "0,0,0,0,2", "--method", "random")
    b = run("--seed", "7", "count", "--field", "p=13", "--curve",
            "0,0,0,0,2", "--method", "random")
    assert a == b and a[0] == 0


def test_seeded_output_repeats_across_processes():
    # the generators come from seeded point draws that pick among square
    # roots through set order, so that order must not vary between runs
    argv = ("--seed", "3", "structure", "--field", "p=101", "--curve", "0,0,0,1,0")
    outs = {run(*argv) for _ in range(3)}
    assert len(outs) == 1 and next(iter(outs))[0] == 0


def test_zeta_exact_functional_equation():
    # 1601 * 1601 ** -1 is 0.9999999999999999 in floats
    out = run_json("zeta", "--field", "p=1601", "--curve", "1,2,3,4,5")
    assert out["L"] == [1, 2, 1601] and out["counts"][0] == 1604


def test_exit_code_domain_error():
    rc, _, err = run("count", "--field", "p=13", "--curve", "0,0,0,0,4",
                     "--method", "closed")
    assert rc == 1 and err


def test_exit_code_usage_error():
    rc, _, err = run("info", "--field", "p=4", "--curve", "0,0,0,0,1")
    assert rc == 2 and err
    rc, _, _ = run("info", "--field", "p=13")
    assert rc == 2
    rc, _, _ = run("nosuchcommand")
    assert rc == 2


def test_singular_curve_info_ok_but_count_fails():
    out = run_json("info", "--field", "p=5", "--curve", "0,0,0,0,0")
    assert out["singular_kind"] == "cusp" and out["j"] is None
    rc, _, _ = run("count", "--field", "p=5", "--curve", "0,0,0,0,0")
    assert rc == 1
