"""Golden CLI contract: stdout and exit code of fixed commands.

Each case runs `cli.main` in-process and compares its stdout and exit
code with the files under tests/golden/, so a refactor that changes any
byte of CLI output fails here.  `{golden}` in an argv names the golden
directory (seed inputs live there) and `{tmp}` a per-test directory.

Regenerate the expected files (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from hullcodes import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> argv; a case whose name ends in "_file" also compares the
# file it writes to {tmp}/code.json
CASES = {
    "enumerate_q3": "enumerate --q 3",
    "census": "census",
    "selftest": "selftest",
    "construct_ternary_n4k2": "construct --ternary n4k2",
    "construct_twisted_pair": "construct --family twisted_pair --q 7 --t 3 --k 2 --l 1",
    "construct_seed13": "construct --seed-json {golden}/seed13.json --k 4 --l 2",
    "construct_seed13_extend": "construct --seed-json {golden}/seed13.json --extend --k 4 --l 2",
    "construct_eseed13_full": "construct --seed-json {golden}/eseed13_full.json --k 6 --l 3",
    "construct_eseed13_pi_free": "construct --seed-json {golden}/eseed13_full.json --k 6 --l 5",
    "construct_eseed13_twist_b": "construct --seed-json {golden}/eseed13_small.json --k 2 --l 1 --b 5",
    # n = q, so the twist is root-free and b-free: quadratic, cubic, cubic * quadratic^2
    "construct_eseed13_twist_quad": "construct --seed-json {golden}/eseed13_full.json --k 5 --l 2",
    "construct_eseed13_twist_cubic": "construct --seed-json {golden}/eseed13_full.json --k 4 --l 1",
    "construct_eseed13_twist_cubic_quad2": "construct --seed-json {golden}/eseed13_full.json --k 2 --l 0",
    "construct_eseed13_twist_square": "construct --seed-json {golden}/eseed13_small.json --k 1 --l 0",
    **{
        f"enumerate_even_cosets_{v}": f"enumerate --family even_cosets --r 5 --m 4 --t 1 --variant {v} --format csv"
        for v in ("i", "ii", "iii", "iv")
    },
    **{
        f"enumerate_odd_cosets_{v}": f"enumerate --family odd_cosets --r 5 --m 3 --t 1 --variant {v}"
        for v in ("i", "ii", "iii")
    },
    **{
        f"enumerate_additive_{v}": f"enumerate --family additive --p 3 --s 1 --e 1 --variant {v}"
        for v in ("i", "ii")
    },
    "enumerate_twisted_pair": "enumerate --family twisted_pair --q 7 --t 3 --format csv",
    "roundtrip_construct_file": (
        "construct --family odd_cosets --r 5 --m 3 --t 1 --variant ii "
        "--k 2 --l 1 --output {tmp}/code.json"
    ),
    "roundtrip_verify": "verify {golden}/roundtrip_construct_file.json",
}


def _run(name, tmp):
    argv = CASES[name].format(golden=GOLDEN, tmp=tmp).split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    written = (pathlib.Path(tmp) / "code.json").read_text() if name.endswith("_file") else None
    return rc, buf.getvalue(), written


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_MAX_CODEWORDS, raising=False)
    monkeypatch.delenv(cli.ENV_MAX_MINOR_K, raising=False)
    rc, out, written = _run(name, tmp_path)
    expected = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert rc == expected[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    if written is not None:
        assert written == (GOLDEN / f"{name}.json").read_text()


def _regenerate():
    import tempfile

    from hullcodes.gf import Field
    from hullcodes.grs import eval_set, grs, spec_to_dict

    GOLDEN.mkdir(exist_ok=True)
    f = Field(13)
    full = eval_set(f, range(13))
    small = eval_set(f, [0, 1, 2, 3, 8])
    seeds = {
        "seed13": grs(full, [1] * 13, 6),
        "eseed13_full": grs(full, [1] * 13, 7, extended=True),
        "eseed13_small": grs(small, [f.sqrt(f.neg(u)) for u in small.u], 3, extended=True),
    }
    for stem, spec in seeds.items():
        (GOLDEN / f"{stem}.json").write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")

    codes = {}
    # the round trip's construct must run before its verify
    for name in sorted(CASES, key=lambda n: n != "roundtrip_construct_file"):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out, written = _run(name, tmp)
        codes[name] = rc
        (GOLDEN / f"{name}.stdout").write_text(out)
        if written is not None:
            (GOLDEN / f"{name}.json").write_text(written)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
