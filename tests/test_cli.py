import argparse
import dataclasses
import io
import json
import pathlib
import sys

import pytest

from hullcodes import cli, selftest
from hullcodes.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_construct_family(capsys):
    rc = main(
        "construct --family twisted_pair --q 7 --t 3 --k 2 --l 1".split()
    )
    assert rc == 0
    out = _json_out(capsys)
    assert out["schema"] == 1
    assert out["report"]["hull_dim"] == 1
    assert out["mds_verified"] is True
    assert out["length"] == 6 and out["k"] == 2


def test_construct_ternary(capsys):
    rc = main(["construct", "--ternary", "n3k1"])
    assert rc == 0
    out = _json_out(capsys)
    assert out["report"]["hull_dim"] == 1
    assert out["min_distance"] == 3


def test_construct_rejects_l_above_k(capsys):
    rc = main("construct --family twisted_pair --q 7 --t 3 --k 1 --l 2".split())
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_construct_rejects_bad_family(capsys):
    rc = main("construct --family even_cosets --r 7 --m 4 --t 3 --k 1 --l 0".split())
    assert rc == 2


def test_construct_missing_target(capsys):
    rc = main("construct --family twisted_pair --q 7 --t 3".split())
    assert rc == 2
    rc = main("construct --k 2 --l 1".split())  # no mode
    assert rc == 2
    assert "construct needs --family, --seed-json or --ternary" in capsys.readouterr().err


def test_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "code.json"
    rc = main(
        f"construct --family odd_cosets --r 5 --m 3 --t 1 --variant ii "
        f"--k 2 --l 1 --output {path}".split()
    )
    assert rc == 0
    first = json.loads(path.read_text())
    rc = main(["verify", str(path)])
    assert rc == 0
    second = _json_out(capsys)
    assert second["code"] == first["code"]
    assert second["report"] == first["report"]


def test_verify_rejects_zero_multiplier(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "field": {"p": 5, "m": 1, "modulus": [0, 1]},
                "a": [0, 1, 2],
                "v": [1, 0, 1],
                "k": 1,
                "extended": False,
            }
        )
    )
    assert main(["verify", str(path)]) == 2


def test_verify_rejects_duplicate_points(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "field": {"p": 5, "m": 1, "modulus": [0, 1]},
                "a": [0, 1, 1],
                "v": [1, 1, 1],
                "k": 1,
                "extended": False,
            }
        )
    )
    assert main(["verify", str(path)]) == 2


def test_verify_missing_file():
    assert main(["verify", "/nonexistent/code.json"]) == 2


def test_construct_from_seed_json(tmp_path, capsys):
    # serialize the GF(13) full-field almost-self-dual seed, then reduce
    from hullcodes.gf import Field
    from hullcodes.grs import eval_set, grs, spec_to_dict

    f = Field(13)
    spec = grs(eval_set(f, range(13)), [1] * 13, 6)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    rc = main(f"construct --seed-json {path} --k 4 --l 2".split())
    assert rc == 0
    out = _json_out(capsys)
    assert out["report"]["hull_dim"] == 2
    # the same seed extends to length 14
    rc = main(f"construct --seed-json {path} --extend --k 4 --l 2".split())
    assert rc == 0
    out = _json_out(capsys)
    assert out["length"] == 14 and out["report"]["hull_dim"] == 2


def test_enumerate_ternary_rows(capsys):
    rc = main("enumerate --q 3 --format csv".split())
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,variant,q,n,k,l,classification,mds_verified,hull_verified"
    assert len(lines) == 5
    assert all(line.endswith("True,True") for line in lines[1:])


def test_enumerate_family_json(capsys):
    rc = main(
        "enumerate --family twisted_pair --q 7 --t 3 --format json".split()
    )
    assert rc == 0
    out = _json_out(capsys)
    rows = out["rows"]
    assert [(r["n"], r["k"], r["l"]) for r in rows] == [
        (6, 1, 0),
        (6, 1, 1),
        (6, 2, 0),
        (6, 2, 1),
        (6, 2, 2),
    ]
    assert all(r["mds_verified"] and r["hull_verified"] for r in rows)


def test_enumerate_deterministic(capsys):
    args = "enumerate --family odd_cosets --r 5 --m 3 --t 1 --variant i".split()
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_enumerate_needs_family(capsys):
    assert main(["enumerate", "--q", "5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        # one flag per family that the family never reads
        "construct --family additive --p 3 --s 1 --e 1 --variant ii --r 7 --omega 5 --k 2 --l 1",
        "construct --family twisted_pair --q 7 --t 3 --mu 1,2 --k 2 --l 1",
        "construct --family even_cosets --r 7 --m 3 --t 4 --q 11 --k 2 --l 1",
        "construct --family odd_cosets --r 5 --m 3 --t 1 --variant ii --omega 3 --k 2 --l 1",
        "enumerate --family odd_cosets --r 5 --m 3 --t 1 --p 5",
        # the ternary table reads no family flag but --q
        "enumerate --q 3 --r 5",
        "enumerate --q 3 --variant i",
    ],
)
def test_family_flags_the_family_never_reads_are_refused(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not read" in captured.err or "has no effect" in captured.err


def test_family_flags_are_the_family_params_fields():
    from hullcodes.families import FamilyParams

    assert cli._FAMILY_FLAGS == tuple(f.name for f in dataclasses.fields(FamilyParams))
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("construct", "enumerate"):
        options = sub.choices[command]._option_string_actions
        assert all(f"--{name}" in options for name in cli._FAMILY_FLAGS), command


@pytest.mark.parametrize(
    "argv",
    [
        # an empty list is refused like "," (argv lists: str.split drops "")
        ["construct", "--family", "even_cosets", "--r", "7", "--m", "3", "--t", "4",
         "--mu", "", "--k", "2", "--l", "1"],
        ["construct", "--ternary", "n4k2", "--v", ""],
        ["construct", "--family", "even_cosets", "--r", "7", "--m", "3", "--t", "4",
         "--variant", "", "--k", "2", "--l", "1"],
        # a stray comma is an empty item, not a separator to skip
        "construct --ternary n4k2 --v 1,,1,1".split(),
        "construct --family even_cosets --r 7 --m 3 --t 4 --mu 0,1,,2,3 --k 2 --l 1".split(),
    ],
)
def test_empty_flag_values_are_refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, like the write end of `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, verdict",
    [
        # the rows are all verified before the output is written
        ("enumerate --family even_cosets --r 7 --m 3 --t 4 --variant iv --format csv", 0),
        ("construct --ternary n4k2", 0),
        # every command writes its output once, after its verdict
        ("selftest", 0),
        ("census", 0),
        ("enumerate --q 3", 0),
        ("verify {golden}/roundtrip_construct_file.json", 0),
    ],
)
def test_closed_stdout_is_not_invalid_input(argv, verdict, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(argv.format(golden=GOLDEN).split()) == verdict
    assert capsys.readouterr().err == ""


def test_census(capsys):
    rc = main(["census"])
    assert rc == 0
    out = _json_out(capsys)
    assert out["hull_histogram"]["1"] == 0
    assert out["subspaces"] == 130


def test_census_honours_the_codeword_budget(capsys):
    # the census checks the budget once, with min_distance's message
    assert main("census --max-codewords 5".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumerating q^k = 3^2 codewords exceeds the budget of 5\n"
    assert main("census --max-codewords 9".split()) == 0


def test_selftest_passes(capsys):
    rc = main(["selftest"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all selftest suites passed" in out
    assert out.count("ok  ") == len(selftest.SUITES)


def test_selftest_honours_budget(capsys):
    # the oracle-equivalence suite enumerates codewords, so it must stop
    rc = main("selftest --max-codewords 0 --max-minor-k 0".split())
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert captured.out == ""  # no suite line is written before the error


@pytest.mark.parametrize(
    "budgets, verdict, mds",
    [
        # the q = 3 rows take the family rows' MDS check: minors when no
        # codeword may be enumerated
        ("--max-codewords 0", 0, True),
        # no route is left, so no row is verified MDS
        ("--max-codewords 0 --max-minor-k 0", 1, None),
    ],
)
def test_enumerate_ternary_budgets(budgets, verdict, mds, capsys):
    assert main(f"enumerate --q 3 {budgets}".split()) == verdict
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(r["mds_verified"] is mds for r in json.loads(captured.out)["rows"])


def test_budget_zero_codewords_is_honoured(capsys):
    # no codeword may be enumerated, so the ternary distance is out of budget
    rc = main("construct --ternary n3k1 --max-codewords 0".split())
    assert rc == 1
    assert "budget" in capsys.readouterr().err


def test_budget_zero_minor_k_is_honoured(capsys):
    rc = main(
        "construct --family twisted_pair --q 7 --t 3 --k 2 --l 1 "
        "--max-codewords 1 --max-minor-k 0".split()
    )
    assert rc == 0
    assert _json_out(capsys)["mds_verified"] is None


def test_enumerate_raises_minor_budget_to_k_max(capsys):
    # both budgets 0: only the cap raised to the grid's largest k verifies a row
    rc = main(
        "enumerate --family twisted_pair --q 7 --t 3 --format csv "
        "--max-codewords 0 --max-minor-k 0".split()
    )
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.split(",")[7] == "True" for row in rows)


@pytest.mark.parametrize("flag", ["--max-codewords", "--max-minor-k"])
def test_budget_rejects_negative_flag(flag, capsys):
    rc = main(["construct", "--ternary", "n3k1", flag, "-1"])
    assert rc == 2
    assert "non-negative" in capsys.readouterr().err


def test_construct_ternary_fails_when_not_mds(monkeypatch, capsys):
    from hullcodes.gf import Field
    from hullcodes.hull import linear_code

    # a [3, 1, 2] stand-in: not MDS, though its hull formulas agree
    monkeypatch.setattr(
        cli, "ternary_codes", lambda kind, v: linear_code(Field(3), [[1, 1, 0]])
    )
    rc = main(["construct", "--ternary", "n3k1"])
    assert _json_out(capsys)["min_distance"] == 2
    assert rc == 1


def test_enumerate_ternary_fails_when_a_row_is_not_mds(monkeypatch, capsys):
    from hullcodes.gf import Field
    from hullcodes.hull import linear_code

    real = cli.ternary_codes
    # a [4, 2, 2] stand-in for n4k2: not MDS, though its hull formulas agree
    monkeypatch.setattr(
        cli,
        "ternary_codes",
        lambda kind, v=None: linear_code(Field(3), [[1, 0, 1, 0], [0, 1, 0, 1]])
        if kind == "n4k2" else real(kind, v),
    )
    rc = main(["enumerate", "--q", "3"])
    rows = {r["variant"]: r for r in _json_out(capsys)["rows"]}
    assert rows["n4k2"]["mds_verified"] is False and rows["n4k2"]["hull_verified"]
    assert all(r["mds_verified"] for kind, r in rows.items() if kind != "n4k2")
    assert rc == 1


@pytest.mark.parametrize("schema", [99, 0, None])
def test_rejects_unknown_schema(schema, tmp_path, capsys):
    from hullcodes.gf import Field
    from hullcodes.grs import eval_set, grs, spec_to_dict

    d = spec_to_dict(grs(eval_set(Field(13), range(13)), [1] * 13, 6))
    if schema is None:
        del d["schema"]
    else:
        d["schema"] = schema
    path = tmp_path / "code.json"
    path.write_text(json.dumps(d))
    assert main(["verify", str(path)]) == 2
    assert "schema" in capsys.readouterr().err
    assert main(f"construct --seed-json {path} --k 4 --l 2".split()) == 2


def test_output_file(tmp_path):
    path = tmp_path / "rows.csv"
    rc = main(f"enumerate --q 3 --format csv --output {path}".split())
    assert rc == 0
    assert path.read_text().startswith("family,variant")


def _seed_file(tmp_path, extended):
    from hullcodes.gf import Field
    from hullcodes.grs import eval_set, grs, spec_to_dict

    f = Field(13)
    if extended:  # m = 3 on 5 < q points, so b = 5 is free
        pts = eval_set(f, [0, 1, 2, 3, 8])
        spec = grs(pts, [f.sqrt(f.neg(u)) for u in pts.u], 3, extended=True)
    else:
        spec = grs(eval_set(f, range(13)), [1] * 13, 6)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    return path


@pytest.mark.parametrize(
    "args, extended",
    [
        # b = 1 is an evaluation point of a non-extended family seed
        ("--family twisted_pair --q 7 --t 3 --k 2 --l 1 --b 1", None),
        ("--seed-json {seed} --k 4 --l 2 --b 3", False),
        ("--seed-json {seed} --extend --k 4 --l 2 --b 0", False),
        # k = m: the twist (x - b)^0 is trivial
        ("--seed-json {seed} --k 3 --l 1 --b 5", True),
        ("--family twisted_pair --q 7 --t 3 --k 2 --l 1 --extend", None),
        ("--ternary n4k2 --extend", None),
        *((f"--ternary n4k2 {flag}", None) for flag in (
            "--k 2", "--l 1", "--alpha 5", "--b 0", "--family additive")),
        ("--ternary n4k2 --seed-json {seed}", False),
        ("--family twisted_pair --q 7 --t 3 --k 2 --l 1 --v 1,1,1", None),
        ("--seed-json {seed} --k 4 --l 2 --v 1,1,1", False),
        ("--seed-json {seed} --k 4 --l 2 --family additive", False),
        # family parameters outside family mode
        ("--seed-json {seed} --k 4 --l 2 --q 7 --t 3 --variant iv", False),
        ("--ternary n4k2 --r 5 --mu 1,2", None),
        *((f"--seed-json {{seed}} --k 4 --l 2 {flag}", False) for flag in (
            "--variant i", "--r 5", "--m 3", "--t 3", "--mu 1", "--p 3", "--s 1",
            "--e 1", "--q 7", "--omega 3")),
        *((f"--ternary n4k2 {flag}", None) for flag in ("--variant i", "--omega 3")),
    ],
)
def test_construct_rejects_inputs_that_do_nothing(args, extended, tmp_path, capsys):
    seed = _seed_file(tmp_path, extended) if extended is not None else None
    assert main(["construct"] + args.format(seed=seed).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has no effect" in captured.err or "--extend" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        # GF(49): above the field, and a negative value that a log index
        # lookup would wrap
        "--family even_cosets --r 7 --m 3 --t 4 --variant iv --k 3 --l 1 --b 1000",
        "--family even_cosets --r 7 --m 3 --t 4 --variant iv --k 3 --l 1 --b -3",
        # GF(13): 100 = 9 mod 13, but it is no element
        "--seed-json {golden}/eseed13_small.json --k 2 --l 1 --b 100",
    ],
)
def test_construct_rejects_b_outside_the_field(args, capsys):
    assert main(["construct"] + args.format(golden=GOLDEN).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an element of GF(" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        # 2^30 elements: refused before any table is built
        {"field": {"p": 2, "m": 30, "modulus": None}},
        {"field": {"p": 3, "m": 10**12, "modulus": None}},
        {"field": {"p": 5, "m": 1}},
        {"field": {"p": 5, "m": 1, "modulus": [[0], 1]}},
        {"field": [5, 1]},
        {"a": None},
        {"k": "1"},
        [1, 2, 3],
    ],
)
def test_verify_rejects_malformed_or_oversized_json(doc, tmp_path, capsys):
    if isinstance(doc, dict):
        base = {
            "schema": 1,
            "field": {"p": 5, "m": 1, "modulus": [0, 1]},
            "a": [0, 1, 2],
            "v": [1, 1, 1],
            "k": 1,
        }
        doc = {key: val for key, val in {**base, **doc}.items() if val is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_a_cached_seed_is_still_revalidated_on_every_construct(monkeypatch, capsys):
    from hullcodes import construct, families

    argv = "construct --family twisted_pair --q 11 --t 5 --k {k} --l {l}"
    assert main(argv.format(k=3, l=1).split()) == 0  # builds and caches the seed
    capsys.readouterr()
    monkeypatch.setattr(construct, "check_certificate", lambda cert, spec: False)
    for k, l in ((3, 1), (2, 2), (4, 0)):
        hits = families.build_family.cache_info().hits
        assert main(argv.format(k=k, l=l).split()) == 2
        assert families.build_family.cache_info().hits == hits + 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed certificate fails re-validation" in captured.err
