import json
import os
import pathlib
import subprocess
import sys

import pytest

import germ
from germ import analytic, jsonio, normalizer
from germ.analytic import LaurentDomain
from germ.cli import main
from germ.fields import field_create
from germ.multidim import MultiGerm, MultiSeries
from germ.series import Germ1D, Series
from germ_testutil import laurent_germ_to_dict, series_from_ints

F3 = field_create(3, 1)


@pytest.fixture
def germ_file(tmp_path):
    f = Germ1D(F3, series_from_ints(F3, [0, 0, 0, 1, 1], 40))
    path = tmp_path / "f.json"
    path.write_text(jsonio.dump(jsonio.germ_to_dict(f)))
    return str(path)


def test_invariants_command(germ_file, capsys):
    assert main(["invariants", germ_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == {"m": 0, "d": 3, "e": 1, "r": [1, 0]}
    assert out["stable_threshold"] == [1, 2]


def test_invariants_fixture_xp_1px(tmp_path, capsys):
    # x^p(1+x) over F_3
    f = Germ1D(F3, series_from_ints(F3, [0, 0, 0, 1, 1], 30))
    path = tmp_path / "g.json"
    path.write_text(jsonio.dump(jsonio.germ_to_dict(f)))
    assert main(["invariants", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == {"m": 0, "d": 3, "e": 1, "r": [1, 0]}


def test_normalize_deterministic(germ_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    tr = tmp_path / "tr.jsonl"
    assert main(["normalize", germ_file, "--order", "24", "--seed", "7",
                 "--out", str(out1), "--transcript", str(tr)]) == 0
    assert main(["normalize", germ_file, "--order", "24", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in tr.read_text().splitlines()]
    assert all(r["kind"] in ("eps", "phi", "extension") for r in records)
    assert any(r["kind"] == "phi" for r in records)


def test_normalize_transcript_starts_with_extension_rows(tmp_path, capsys):
    # x^3 + x^6 over F_3 restarts three times, up to F_{3^27}
    co = [0] * 19
    co[3] = co[6] = 1
    path = tmp_path / "f.json"
    path.write_text(jsonio.dump(jsonio.germ_to_dict(
        Germ1D(F3, Series(F3, co, 18)))))
    tr = tmp_path / "tr.jsonl"
    assert main(["normalize", str(path), "--order", "18",
                 "--transcript", str(tr)]) == 0
    rows = [json.loads(line) for line in tr.read_text().splitlines()]
    assert rows[:3] == [{"kind": "extension", "k": k} for k in (3, 9, 27)]
    assert all(r["kind"] != "extension" for r in rows[3:])
    out = json.loads(capsys.readouterr().out)
    assert out["normal_form"]["field"]["k"] == 27


def test_bottcher_command(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(_BOTTCHER_GERM))
    assert main(["bottcher", str(path), "--order", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "bottcher" and out["verified_order"] >= 16


def test_jtable_golden(tmp_path):
    out = tmp_path / "t.tsv"
    assert main(["jtable", "--p", "3", "--d", "18", "--r", "19,12,0",
                 "--nmax", "30", "--out", str(out)]) == 0
    golden = pathlib.Path(__file__).parent / "golden" / "jtable_p3.tsv"
    assert out.read_bytes() == golden.read_bytes()


def test_conjcheck_exit_codes(germ_file, tmp_path, capsys):
    ident = {"field": {"p": 3, "k": 1, "modulus": [0, 1]},
             "series": {"trunc": 24,
                        "coeffs": [[0], [1]] + [[0]] * 23}}
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(ident))
    assert main(["conjcheck", germ_file, germ_file, str(phi_path),
                 "--order", "24"]) == 0
    other = Germ1D(F3, series_from_ints(F3, [0, 0, 0, 1], 40))
    gpath = tmp_path / "g.json"
    gpath.write_text(jsonio.dump(jsonio.germ_to_dict(other)))
    # invariants differ, so no Phi can conjugate them: disagreement -> exit 2
    assert main(["conjcheck", germ_file, str(gpath), str(phi_path),
                 "--order", "24"]) == 2


def test_extension_field_roundtrip(tmp_path, capsys):
    f9 = field_create(3, 2)
    co = [f9.zero, f9.zero, f9.zero, f9.one, f9.from_vec((1, 1)),
          f9.from_int(2)]
    f = Germ1D(f9, Series(f9, co, 30))
    path = tmp_path / "f9.json"
    path.write_text(jsonio.dump(jsonio.germ_to_dict(f)))
    back = jsonio.germ_from_dict(json.loads(path.read_text()))
    assert back.dom is f9
    assert back.series.coeffs == f.series.coeffs
    assert main(["normalize", str(path), "--order", "24"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"]["r"] == [1, 0]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["invariants", str(bad)]) == 1


def test_compose_and_iterate(germ_file, capsys):
    assert main(["compose", germ_file, germ_file, "--order", "40"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["predicted"]["r_bound"] == [4, 3, 0]
    assert out["profile"]["r"] == [4, 3, 0]
    assert main(["iterate", germ_file, "--n", "2", "--check",
                 "--order", "40"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["match"] and out["predicted"]["r0"] == 4


def test_infinity_command(tmp_path, capsys):
    poly = {"field": {"p": 3, "k": 1, "modulus": [0, 1]},
            "coeffs": [[0], [2], [0], [1]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    assert main(["infinity", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == {"m": 0, "d": 3, "e": 1, "r": [2, 0]}


def test_multinorm_command(tmp_path, capsys):
    eps0 = MultiSeries(F3, 2, 12, {(1, 0): 1})
    mg = MultiGerm(F3, (1, 1), ((2, 1), (0, 2)),
                   (eps0, MultiSeries.zero(F3, 2, 12)), 12)
    path = tmp_path / "mg.json"
    path.write_text(jsonio.dump(jsonio.multigerm_to_dict(mg)))
    assert main(["multinorm", str(path), "--degree", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified_degree"] == 12


def test_multinorm_huge_exponent_entry(tmp_path, capsys):
    eps0 = MultiSeries(F3, 2, 12, {(1, 0): 1})
    mg = MultiGerm(F3, (1, 1), ((10 ** 6, 1), (0, 2)),
                   (eps0, MultiSeries.zero(F3, 2, 12)), 12)
    path = tmp_path / "mg.json"
    path.write_text(jsonio.dump(jsonio.multigerm_to_dict(mg)))
    assert main(["multinorm", str(path), "--degree", "12"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["verified_degree"] == 12


def test_multinorm_deep_eps_term(tmp_path, capsys):
    # eps = x^1100 at trunc 1200: forming x^1100 one product per step used
    # to recurse 1100 deep and die with RecursionError
    path = tmp_path / "mg.json"
    path.write_text(json.dumps({"N": 1, "field": {"p": 3, "k": 1},
                                "C": [[1]], "D": [[2]], "trunc": 1200,
                                "eps": [{"1100": [1]}]}))
    assert main(["multinorm", str(path), "--degree", "1200"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["verified_degree"] == 1200


def _growth_germ():
    dom = LaurentDomain(F3, prec=40)
    co = [dom.zero] * 25
    co[3] = dom.one
    co[4] = dom.t_power(1)
    co[6] = dom.one
    return laurent_germ_to_dict(Germ1D(dom, Series(dom, co, 24)))


def test_growth_command(tmp_path, capsys):
    path = tmp_path / "lf.json"
    path.write_text(jsonio.dump(_growth_germ()))
    tsv = tmp_path / "g.tsv"
    assert main(["growth", str(path), "--order", "40",
                 "--out", str(tsv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["ok"]
    lines = tsv.read_text().splitlines()
    assert lines[0] == "n\tneg_val\tbound"
    assert len(lines) == 41


def test_laurent_roundtrip(tmp_path):
    dom = LaurentDomain(F3, prec=16)
    co = [dom.zero] * 10
    co[3] = dom.one
    co[5] = dom.make(2, [1, 0, 2])
    f = Germ1D(dom, Series(dom, co, 9))
    d = laurent_germ_to_dict(f)
    f2 = jsonio.laurent_germ_from_dict(json.loads(json.dumps(d)))
    for a, b in zip(f.series.coeffs, f2.series.coeffs):
        assert (a.val, a.unit, a.prec) == (b.val, b.unit, b.prec)


_FIELD3 = {"p": 3, "k": 1, "modulus": [0, 1]}
_SERIES = {"trunc": 20, "coeffs": [[0], [0], [0], [1], [1]]}
_GERM = {"field": _FIELD3, "series": _SERIES}
# x^2 + x^3 over F_3 and F_5, a x^2 + (1 + a) x^3 over F_9, and the identity
# and x + a x^2 as conjugacies
_GERM3 = {"field": _FIELD3, "series": {"trunc": 20,
                                       "coeffs": [[0], [0], [1], [1]]}}
_GERM5 = dict(_GERM3, field={"p": 5, "k": 1, "modulus": [0, 1]})
_GERM9 = {"field": {"p": 3, "k": 2}, "series": {
    "trunc": 20, "coeffs": [[0, 0], [0, 0], [0, 1], [1, 1]]}}
_PHI3 = {"field": _FIELD3, "series": {"trunc": 24, "coeffs": [[0], [1]]}}
_PHI9 = {"field": {"p": 3, "k": 2}, "series": {
    "trunc": 24, "coeffs": [[0, 0], [1, 0], [0, 1]]}}


# (id, input files, argv[, the one error line, where the library's own
# message must come through untranslated])
_BAD_INPUTS = [
    ("top-level-list", {"f": [1, 2]}, ["invariants", "{f}"]),
    ("p-as-string", {"f": dict(_GERM, field=dict(_FIELD3, p="3"))},
     ["invariants", "{f}"]),
    ("huge-k", {"f": dict(_GERM, field=dict(_FIELD3, k=10 ** 9))},
     ["invariants", "{f}"]),
    ("vector-longer-than-k",
     {"f": dict(_GERM, series={"trunc": 20,
                               "coeffs": [[0], [0], [0], [1, 2], [1]]})},
     ["normalize", "{f}"]),
    ("iterate-n-0", {"f": _GERM}, ["iterate", "{f}", "--n", "0"]),
    ("negative-order", {"f": _GERM}, ["normalize", "{f}", "--order", "-3"]),
    ("order-not-int", {"f": _GERM},
     ["compose", "{f}", "{f}", "--order", "x"]),
    ("composite-p", {}, ["jtable", "--p", "4", "--r", "1"]),
    ("r-e-nonzero", {}, ["jtable", "--p", "3", "--r", "1"]),
    ("r-not-ints", {}, ["jtable", "--p", "3", "--r", "1,zero"]),
    ("unknown-command", {}, ["frobnicate"]),
    ("growth-on-field-germ", {"f": _GERM}, ["growth", "{f}"]),
    ("ragged-matrix", {"f": {"field": _FIELD3, "N": 2, "C": [[1], [1]],
                             "D": [[2, 1], [0]], "eps": [{}, {}]}},
     ["multinorm", "{f}"]),
    ("negative-multigerm-exponent",
     {"f": {"field": _FIELD3, "N": 2, "C": [[1], [1]],
            "D": [[2, 0], [0, 2]], "eps": [{"-1,2": [1]}, {}]}},
     ["multinorm", "{f}", "--degree", "6"],
     "error: negative exponent (-1, 2)"),
    ("poly-vector-longer-than-k",
     {"f": {"field": _FIELD3, "coeffs": [[0], [2], [0], [1, 1]]}},
     ["infinity", "{f}"]),
    ("phi-without-trunc",
     {"f": _GERM, "phi": {"field": _FIELD3, "series": {"coeffs": []}}},
     ["conjcheck", "{f}", "{f}", "{phi}"]),
    ("bottcher-unnormalized",
     {"f": dict(_GERM, series={"trunc": 20,
                               "coeffs": [[0], [0], [2], [1]]})},
     ["bottcher", "{f}"]),
    ("conjcheck-over-two-characteristics",
     {"f": _GERM3, "g": _GERM5, "phi": _PHI3},
     ["conjcheck", "{f}", "{g}", "{phi}"]),
    ("conjcheck-phi-over-extension",
     {"f": _GERM3, "phi": _PHI9}, ["conjcheck", "{f}", "{f}", "{phi}"]),
    ("compose-over-extension", {"f": _GERM3, "g": _GERM9},
     ["compose", "{f}", "{g}"]),
    ("compose-over-two-characteristics", {"f": _GERM3, "g": _GERM5},
     ["compose", "{f}", "{g}"]),
]


@pytest.mark.parametrize("files,argv,message", [
    pytest.param(f, a, m[0] if m else None, id=i)
    for i, f, a, *m in _BAD_INPUTS])
def test_bad_input_exits_1_with_one_error_line(tmp_path, capsys, files,
                                               argv, message):
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(body))
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert message is None or lines[0] == message


def _failed_oracle(*args):
    return normalizer.ConjReport(ok=False, checked_order=0,
                                 first_disagreement=3)


_MULTIGERM = {"N": 2, "field": _FIELD3, "C": [[1], [1]],
              "D": [[2, 1], [0, 2]], "trunc": 12, "eps": [{"1,0": [1]}, {}]}
_BOTTCHER_GERM = _GERM3

# (id, input files, argv, forced failure as (object, name, replacement),
# exit code): 1 for bad input, 2 when a computed result fails its check
_EXIT_CASES = [
    ("ok", {"f": _GERM}, ["invariants", "{f}"], None, 0),
    ("parse-error", {"f": "{not json"}, ["invariants", "{f}"], None, 1),
    ("validation-error", {"f": _GERM}, ["growth", "{f}"], None, 1),
    ("normalize-oracle-fails", {"f": _GERM},
     ["normalize", "{f}", "--order", "12"],
     (normalizer, "verify_conjugacy", _failed_oracle), 2),
    ("bottcher-oracle-fails", {"f": _BOTTCHER_GERM}, ["bottcher", "{f}"],
     (normalizer, "verify_conjugacy", _failed_oracle), 2),
    ("growth-oracle-fails", {"f": _growth_germ()},
     ["growth", "{f}", "--order", "20"],
     (analytic, "verify_conjugacy", _failed_oracle), 2),
    ("multinorm-witness-fails", {"f": _MULTIGERM}, ["multinorm", "{f}"],
     (MultiSeries, "agree", lambda self, other: 1), 2),
]


@pytest.mark.parametrize("files,argv,forced,code",
                         [pytest.param(*c[1:], id=c[0]) for c in _EXIT_CASES])
def test_exit_codes(tmp_path, capsys, monkeypatch, files, argv, forced, code):
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(body if isinstance(body, str)
                               else json.dumps(body))
    if forced:
        monkeypatch.setattr(*forced)
    assert main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err
    else:
        assert err == []


# one process, one cached parser: no option of a call may reach the next
_CALL_SEQUENCE = [
    ["invariants", "{f}", "--out", "{dir}/inv.json"],
    ["normalize", "{f}", "--order", "20", "--seed", "3", "--no-extension",
     "--choice", "nprime", "--out", "{dir}/nf.json"],
    ["normalize", "{f}", "--order", "0"],
    ["normalize", "{f}", "--order", "16"],
    ["jtable", "--p", "3", "--d", "18", "--r", "19,12,0", "--nmax", "5"],
    ["invariants", "{f}"],
]


def _outcome(code, out, err, outdir):
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
    return code, out, err, files


def test_main_calls_in_one_process_match_separate_processes(
        germ_file, tmp_path, capsys):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(germ.__file__)))
    together, apart = tmp_path / "together", tmp_path / "apart"
    outcomes = {together: [], apart: []}
    for argv in _CALL_SEQUENCE:
        for outdir in (together, apart):
            outdir.mkdir(exist_ok=True)
            args = [a.format(f=germ_file, dir=outdir) for a in argv]
            if outdir is together:
                code = main(args)
                out, err = capsys.readouterr()
            else:
                run = subprocess.run([sys.executable, "-m", "germ.cli", *args],
                                     capture_output=True, text=True, env=env)
                code, out, err = run.returncode, run.stdout, run.stderr
            outcomes[outdir].append(_outcome(code, out, err, outdir))
    assert [o[0] for o in outcomes[together]] == [0, 0, 1, 0, 0, 0]
    assert outcomes[together] == outcomes[apart]
