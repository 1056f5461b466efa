import csv
import hashlib
import io
import json
from math import prod

import pytest

from frobsplit.cli import execute, flatten, main, parse, render
from frobsplit.finfield import is_prime


def run(argv):
    ns = parse(argv)
    return execute(ns)


def test_parse_torus_example():
    ns = parse(["torus", "--family", "C", "--r", "1", "--ell", "3", "--m", "1"])
    assert ns.subcommand == "torus"
    assert (ns.family, ns.r, ns.ell, ns.m) == ("C", 1, 3, 1)


def test_parse_weil_example():
    ns = parse(["weil", "--q", "3", "--poly", "9,0,6,0,1"])
    assert ns.subcommand == "weil" and ns.q == 3


def test_parse_rejects_bad_family(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["torus", "--family", "Q", "--r", "1", "--ell", "3"])
    assert exc.value.code == 2
    assert "--family" in capsys.readouterr().err


def test_parse_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["torus", "--family", "C", "--r", "1", "--ell", "3", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_help_exits_zero_and_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("torus", "density", "cm-fraction", "simulate", "goursat", "weil", "nonspecial"):
        assert sub in out


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["simulate", "--family", "C", "--r", "1", "--ells", "3", "--samples", "10"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_density_product_payload():
    report, status = run(
        ["density", "--family", "C", "--r", "1", "--ells", "3,5", "--m", "1", "--squeeze", "full"]
    )
    assert status == 0
    assert report["result"]["product"] == {"num": "35", "den": "96"}
    assert report["command"]["ells"] == "3,5"


def test_cm_fraction_payload():
    report, status = run(["cm-fraction", "--degree", "4", "--ell", "3"])
    assert status == 0
    assert report["result"]["per_ell"][0]["fraction"] == {"num": "1", "den": "10"}


def test_weil_rejection_exit_4():
    report, status = run(["weil", "--q", "3", "--poly", "3,-5,1"])
    assert status == 4
    assert report["error"]["type"] == "RootBoundViolation"


def test_weil_analysis_payload():
    report, status = run(["weil", "--q", "3", "--poly", "9,0,6,0,1"])
    assert status == 0
    res = report["result"]
    assert res["d"] == 2 and res["root"] == "3,0,1"
    assert res["isogeny_shape"] == "Y^2"
    assert res["factors"][0]["e"] == 2 and res["factors"][0]["d_y"] == 1


def test_budget_exceeded_exit_3():
    # the cofactor of Phi_8(ell) = ell^4 + 1 is past finfield.IS_PRIME_LIMIT
    report, status = run(["torus", "--family", "C", "--r", "4", "--ell", "10000019"])
    assert status == 3
    assert report["error"]["type"] == "BudgetExceeded"


def test_composite_ell_domain_rejection():
    report, status = run(["torus", "--family", "C", "--r", "1", "--ell", "4"])
    assert status == 4


def test_torus_payload_counts():
    report, status = run(["torus", "--family", "C", "--r", "1", "--ell", "5", "--m", "2"])
    assert status == 0
    res = report["result"]
    assert res["torus_order"] == "24" and res["regular_count"] == "16"
    assert res["normalizer_order"] == "48" and res["weyl_order"] == "2"
    # matrices serialize as row-major coefficient vectors
    gen = res["generators"][0]
    assert isinstance(gen[0][0], list)


def test_simulate_round_trip_payload_identical():
    argv = [
        "simulate", "--family", "C", "--r", "1", "--ells", "3,5",
        "--samples", "2000", "--seed", "11",
    ]
    first, s1 = run(argv)
    second, s2 = run(argv)
    assert s1 == s2 == 0
    assert first["result"] == second["result"]
    assert first["command"] == second["command"]


def test_goursat_cli():
    report, status = run(
        ["goursat", "--family", "C", "--r", "1", "--ells", "5,7", "--seed", "3"]
    )
    assert status == 0
    res = report["result"]
    assert res["full_product"] and res["in_hypothesis"]
    assert res["closure_order"] == str(120 * 336)


def test_goursat_answers_on_four_primes():
    # SL_2 over F_5, F_7, F_11 and F_13: a product of order 1.2e11
    report, status = run(["goursat", "--family", "C", "--r", "1", "--ells", "5,7,11,13", "--seed", "1"])
    assert status == 0
    res = report["result"]
    assert res["full_product"] and res["in_hypothesis"]
    assert res["closure_order"] == res["product_order"] == "116237721600"


def test_goursat_answers_on_su3_f3():
    # 9^9 matrices over GF(9), of which SU_3(F_3) holds 6048
    report, status = run(["goursat", "--family", "A", "--r", "3", "--ells", "3", "--seed", "1"])
    assert status == 0
    res = report["result"]
    assert res["full_product"] and res["closure_order"] == res["product_order"] == "6048"


def test_goursat_answers_on_sp4_f3():
    # 3^16 matrices over GF(3), of which Sp_4(F_3) holds 51840
    report, status = run(["goursat", "--family", "C", "--r", "2", "--ells", "3", "--seed", "1"])
    assert status == 0
    res = report["result"]
    assert res["full_product"] and res["closure_order"] == res["product_order"] == "51840"


@pytest.mark.parametrize(
    "ells,family,r,order",
    [
        ("1009", "C", 1, "1027242720"),  # SL_2(F_1009)
        ("1009,1013", "C", 1, "1067827214394420480"),
        ("5,7", "C", 2, "2588931072000000"),  # Sp_4(F_5) x Sp_4(F_7)
        ("41", "A", 1, "1"),  # SU_1 is trivial
    ],
)
def test_goursat_answers_on_the_natural_action(ells, family, r, order):
    report, status = run(["goursat", "--family", family, "--r", str(r), "--ells", ells, "--seed", "1"])
    assert status == 0
    res = report["result"]
    assert res["full_product"] and all(res["projections_surjective"])
    assert res["closure_order"] == res["product_order"] == order


# The sha256 of each report's canonical JSON, timing_ms removed, as the
# chain on the whole product answered every draw before Goursat's lemma
# decided the in-hypothesis ones: the README examples first, then draws
# with repeated primes, exceptional fields, rank 2 and 3, and three samples.
GOURSAT = {
    "goursat --family C --r 1 --ells 5,7 --seed 1": "25e4ab20035d10ad12310ec91614536f4956aba34d1102d5e0938332296f819d",
    "goursat --family C --r 1 --ells 5,7,11,13 --seed 1": "798571e757ebd9846ff422dada28413017c5dcc3357ee871a0082b52d7f8b8bc",
    "goursat --family C --r 1 --ells 1009,1013 --seed 1": "269bcc7b039d69b19749c28081e295ea7ff16696df1ed680948b3397e7f4cd69",
    "goursat --family A --r 3 --ells 3 --seed 1": "233009dcbc98c79d243d43ec10d5a50c5d978f5f1e7f7053a1567688ac910c16",
    "goursat --family C --r 1 --ells 5,5 --seed 2": "038237b9b4b9244571d58174415f2b7350d3bc1da1d0feff1087be963c007360",
    "goursat --family C --r 2 --ells 11,13 --seed 1": "11d5c161027b47e1d1f426d41ee13b143a18454e2bb6b0132b472c08857165f7",
    "goursat --family C --r 1 --ells 3,3,5 --seed 4": "6eafbd66d110ac057935638acd25168f29748c73ad3b266ad76ba0d58a17ed08",
    "goursat --family A --r 2 --ells 3,3 --seed 1": "79cd97b1cb49263de5f3fdd644b854d98c989b3a49cd35ce142e8cc260b914e0",
    "goursat --family A --r 3 --ells 5,7 --seed 3": "d6318bf0e0c546f176e68a487d17bec9579cffc5c8f3b685c2954d2a69307c30",
    "goursat --family A --r 2 --ells 3,5 --seed 0 --samples 3": "3ea105e3e90a02f0669cb3c166e1d018ff3af03969635b0834a868fac728601c",
}


@pytest.mark.parametrize("command", GOURSAT, ids=lambda command: command.replace(" --", "-").replace(" ", ""))
def test_a_goursat_command_gives_its_recorded_digest(command):
    report, status = run(command.split())
    del report["timing_ms"]
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert (status, hashlib.sha256(canonical.encode()).hexdigest()) == (0, GOURSAT[command])


def test_nonspecial_cli():
    report, status = run(["nonspecial", "--r", "6", "--sig", "1:5"])
    assert status == 0
    assert "ii" in report["result"]["satisfied"]
    report2, status2 = run(["nonspecial", "--r", "6", "--sig", "3:3"])
    assert status2 == 0
    assert report2["result"]["satisfied"] == []
    report3, status3 = run(["nonspecial", "--r", "6", "--sig", "1:4"])
    assert status3 == 4


def test_csv_and_json_agree_field_for_field():
    ns = parse(["density", "--family", "C", "--r", "1", "--ells", "3,5"])
    report, _ = execute(ns)
    as_json = json.loads(render(report, "json"))
    reader = csv.reader(io.StringIO(render(report, "csv")))
    rows = {k: v for k, v in list(reader)[1:]}
    flat = dict(flatten(as_json))
    for key, value in flat.items():
        assert rows[key] == value


def test_main_writes_output_file(tmp_path):
    out = tmp_path / "report.json"
    status = main(
        ["cm-fraction", "--degree", "4", "--ell", "2", "--output", str(out)]
    )
    assert status == 0
    data = json.loads(out.read_text())
    assert data["result"]["per_ell"][0]["fraction"] == {"num": "1", "den": "5"}
    assert data["schema"] == "frobsplit/2"


def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "no" / "such" / "dir.json", tmp_path):
        argv = ["torus", "--family", "C", "--r", "1", "--ell", "3", "--output", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and str(path) in captured.err


def test_torus_gu2_f2_answers():
    report, status = run(["torus", "--family", "A", "--r", "2", "--ell", "2"])
    assert status == 0
    res = report["result"]
    assert res["torus_order"] == "3" and res["regular_count"] == "0"
    assert res["normalizer_order"] == "6" and res["weyl_order"] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--family", "C", "--r", "2", "--ells", "5,7"],
        ["density", "--family", "C", "--r", "3", "--ells", "5,7,11"],
        ["density", "--family", "A", "--r", "3", "--ells", "5"],
        ["density", "--family", "A", "--r", "4", "--ells", "5"],
        ["density", "--family", "C", "--r", "2", "--ells", "1009"],
        ["density", "--family", "A", "--r", "4", "--ells", "10007"],
    ],
)
def test_density_answers_at_paper_ranks(argv):
    report, status = run(argv)
    assert status == 0
    for entry in report["result"]["per_ell"]:
        num, den = int(entry["fraction"]["num"]), int(entry["fraction"]["den"])
        assert 0 < num < den


@pytest.mark.parametrize(
    "argv,status,error",
    [
        (["goursat", "--family", "C", "--r", "1", "--ells", "5,7", "--seed", "1", "--samples", "0"], 4, "ValueError"),
        (["goursat", "--family", "C", "--r", "1", "--ells", "5,7", "--seed", "1", "--samples", "1"], 4, "ValueError"),
        # GSp_4(F_101) acts on (101^4 - 1)/100 lines, over MAX_GROUP_SIZE
        (["goursat", "--family", "C", "--r", "2", "--ells", "101", "--seed", "1"], 3, "BudgetExceeded"),
        (["torus", "--family", "C", "--r", "1", "--ell", "3", "--m", "0"], 4, "ValueError"),
        (["nonspecial", "--r", "0", "--sig", "0:0"], 4, "ValueError"),
        (["cm-fraction", "--degree", "4", "--ell", "4"], 4, "CompositeModulus"),
        (["density", "--family", "C", "--r", "1", "--ells", ","], 4, "ValueError"),
        (["simulate", "--family", "C", "--r", "1", "--ells", ",", "--samples", "10", "--seed", "1"], 4, "ValueError"),
        (["torus", "--family", "C", "--r", "4", "--ell", "10000019"], 3, "BudgetExceeded"),
        (["weil", "--q", "3", "--poly", "9,0,6,0,1", "--ells", ","], 4, "ValueError"),
        (["goursat", "--family", "C", "--r", "1", "--ells", ",", "--seed", "1"], 4, "ValueError"),
        (["cm-fraction", "--degree", "4", "--ells", ","], 4, "ValueError"),
        (["weil", "--q", "998244359987710471", "--poly", "998244359987710471,0,1"], 4, "ValueError"),
        # GU_2(F_101) acts on GF(101)^4 as well
        (["goursat", "--family", "A", "--r", "2", "--ells", "101", "--seed", "1"], 3, "BudgetExceeded"),
        # (t^2 + 3)^2 is reducible: analyze checks each ell without a certificate
        (["weil", "--q", "3", "--poly", "9,0,6,0,1", "--ells", "4"], 4, "BadAuxPrime"),
        (["weil", "--q", "3", "--poly", "9,0,6,0,1", "--ells", "3"], 4, "BadAuxPrime"),
        # the prime set is {3}: a repeated prime would be counted twice
        (["cm-fraction", "--degree", "4", "--ells", "3,3"], 4, "ValueError"),
        (["cm-fraction", "--degree", "4", "--ell", "3", "--ells", "3"], 4, "ValueError"),
        # IS_PRIME_LIMIT is composite but passes Miller-Rabin to every base
        # is_prime tries, so every prime argument refuses it
        (["torus", "--family", "C", "--r", "1", "--ell", "3317044064679887385961981"], 4, "PrimalityUndecided"),
        (["density", "--family", "C", "--r", "1", "--ells", "3317044064679887385961981"], 4, "PrimalityUndecided"),
        (["simulate", "--family", "C", "--r", "1", "--ells", "3317044064679887385961981", "--samples", "10", "--seed", "1"], 4, "PrimalityUndecided"),
        (["goursat", "--family", "C", "--r", "1", "--ells", "5,3317044064679887385961981", "--seed", "1"], 4, "PrimalityUndecided"),
        (["cm-fraction", "--degree", "2", "--ell", "3317044064679887385961981"], 4, "PrimalityUndecided"),
        (["weil", "--q", "3", "--poly", "9,0,6,0,1", "--ells", "3317044064679887385961981"], 4, "PrimalityUndecided"),
    ],
)
def test_rejections_exit_with_a_json_error(argv, status, error, capsys):
    assert main(argv) == status
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == error
    assert "result" not in report


def test_weil_answers_at_a_prime_above_a_machine_word(capsys):
    # 2^63 + 29, the least prime above 2^63: GF(p) needs no word-size cap
    argv = ["weil", "--q", "3", "--poly", "9,0,6,0,1", "--ells", "9223372036854775837"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["aux_primes"] == [9223372036854775837]
    assert report["result"]["conclusion"] == "certified-self-product"


def test_weil_answers_when_every_small_prime_divides_the_discriminant(capsys):
    """h = x (x - N) with N = 3 * 5 * ... * 149, so disc(h) = N^2 and the
    auxiliary prime of the factorisation over Z lies above 149."""
    q, n = 3**252, prod(p for p in range(3, 150, 2) if is_prime(p))
    poly = ",".join(map(str, (q * q, -n * q, 2 * q, -n, 1)))
    assert main(["weil", "--q", str(q), "--poly", poly]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [f["poly"] for f in report["result"]["factors"]] == [f"{q},{-n},1", f"{q},0,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--family", "C", "--r", "1", "--ells", ","],
        ["simulate", "--family", "C", "--r", "1", "--ells", ",", "--samples", "10", "--seed", "1"],
        ["goursat", "--family", "C", "--r", "1", "--ells", ",", "--seed", "1"],
        ["cm-fraction", "--degree", "4", "--ell", "3", "--ells", ","],
        ["weil", "--q", "3", "--poly", "9,0,6,0,1", "--ells", ""],
    ],
)
def test_every_ells_flag_rejects_a_list_naming_no_prime(argv):
    report, status = run(argv)
    assert status == 4
    assert report["error"]["message"] == "--ells names no prime"
