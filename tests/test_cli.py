import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import stat
import tracemalloc

import numpy as np
import pytest

import gausspack as g
from conftest import per_level, pinned
from gausspack import _textio, cli, figures, validation

GOLDEN = pathlib.Path(__file__).parent / "golden"

SHO_COHERENT = json.dumps({
    "version": 1, "name": "coherent", "system": "sho", "omega": 1.0,
    "beta_over_beta0": 1.0, "p0": 1.3,
    "times": {"linspace": [0.0, 3.0, 7]},
})


def test_no_command_is_usage_error(run_cli):
    code, _, err = run_cli()
    assert code == 64 and err


def test_unknown_preset(run_cli):
    code, _, err = run_cli("evolve", "--preset", "fig99")
    assert code == 64
    assert "fig99" in err and "fig2-middle" in err  # lists the valid names


@pytest.mark.parametrize("source", [
    ["--preset", "nope"],
    ["--scenario", '{"version": 1, "preset": "nope"}'],
])
def test_unknown_preset_message_is_unquoted(source, capsys):
    assert cli.main(["evolve", *source]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("gausspack: error: unknown preset 'nope'; valid names: "
                   "fig1, fig2-bottom, fig2-middle, fig2-top, fig3, fig4\n")


def test_bad_format_choice(run_cli):
    code, _, err = run_cli("evolve", "--preset", "fig1", "--format", "svg")
    assert code == 64


def test_malformed_inline_scenario(run_cli):
    code, _, err = run_cli("evolve", "--scenario", '{"version": 1,')
    assert code == 64 and "gausspack:" in err


def test_evolve_csv_shape(run_cli):
    code, out, err = run_cli("evolve", "--preset", "fig2-middle")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "x,re_psi,im_psi,abs_psi,prob"
    assert len(lines) == 513  # header + one row per grid point
    for line in lines[1:]:
        x, re, im, ab, prob = map(float, line.split(","))
        assert abs(re * re + im * im - prob) < 1e-15
        assert abs(ab * ab - prob) < 1e-15


def test_evolve_is_deterministic(run_cli):
    a = run_cli("evolve", "--preset", "fig3", "--combined")
    b = run_cli("evolve", "--preset", "fig3", "--combined")
    assert a == b and a[0] == 0


def test_evolve_multiple_times_needs_out_or_combined(run_cli):
    code, _, err = run_cli("evolve", "--preset", "fig1")
    assert code == 64
    assert "--combined" in err


@pytest.mark.parametrize("out", ["-", "run.json"])
def test_evolve_combined_json_is_refused(out, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["evolve", "--preset", "fig1", "--combined", "--format", "json",
                     "--out", out])
    stdout, err = capsys.readouterr()
    assert code == 64 and stdout == ""
    assert err.startswith("gausspack: error: --combined ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_many_tables_to_stdout_write_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["evolve", "--preset", "fig1", "--out", "-"]) == 64
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("gausspack: error: multiple output tables")
    assert list(tmp_path.iterdir()) == []


def test_evolve_combined_csv(run_cli):
    code, out, _ = run_cli("evolve", "--preset", "fig1", "--combined")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x,re_psi,im_psi,abs_psi,prob"
    assert len(lines) == 1 + 5 * 512
    times = {line.split(",", 1)[0] for line in lines[1:]}
    assert len(times) == 5


def test_evolve_writes_numbered_files(run_cli, tmp_path):
    target = tmp_path / "psi.csv"
    code, out, _ = run_cli("evolve", "--preset", "fig1", "--out", str(target))
    assert code == 0 and out == ""
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"psi_{i:03d}.csv" for i in range(5)]
    first = (tmp_path / "psi_000.csv").read_text()
    assert first.startswith("x,re_psi,im_psi,abs_psi,prob\n")


def test_evolve_json_document(run_cli):
    code, out, _ = run_cli("evolve", "--preset", "fig2-top", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1 and doc["command"] == "evolve"
    assert doc["scenario"]["name"] == "fig2-top"
    assert doc["scenario"]["system"] == "free"
    (table,) = doc["tables"]
    assert table["columns"] == ["x", "re_psi", "im_psi", "abs_psi", "prob"]
    assert len(table["rows"]) == 512
    assert table["t"] == 10.0


def test_scenario_file_and_inline_text_agree(run_cli, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(SHO_COHERENT)
    from_file = run_cli("fractions", "--scenario", str(path))
    inline = run_cli("fractions", "--scenario", SHO_COHERENT)
    assert from_file == inline and from_file[0] == 0


def test_fractions_csv(run_cli):
    code, out, _ = run_cli("fractions", "--scenario", SHO_COHERENT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,total,plus,minus,r_plus,r_minus"
    assert len(lines) == 8
    for line in lines[1:]:
        t, total, plus, minus, r_plus, r_minus = map(float, line.split(","))
        assert r_plus + r_minus == 1.0
        assert abs(plus + minus - total) < 1e-12 * total
        # a width-matched oscillator packet never develops any asymmetry
        assert r_plus == 0.5


def test_fractions_json(run_cli):
    code, out, _ = run_cli("fractions", "--preset", "fig3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "fractions"
    assert doc["columns"] == ["t", "total", "plus", "minus", "r_plus", "r_minus"]
    assert len(doc["rows"]) == 5
    r_plus = [row[4] for row in doc["rows"]]
    assert r_plus[0] == 0.5  # no asymmetry at t = 0
    assert max(r_plus) > 0.85  # strong transfer near an eighth period


@pytest.mark.parametrize("command", ["evolve", "fractions"])
def test_json_scenario_block_is_serialize_scenario(command, run_cli):
    """A document's scenario block is serialize_scenario's text, signed
    zeros included, as in the rows."""
    doc = json.dumps({"version": 1, "name": "signed-zero", "system": "free",
                      "x0": -0.0, "times": [-0.0, 1.0], "grid_n": 16})
    code, out, _ = run_cli(command, "--scenario", doc, "--format", "json")
    assert code == 0
    scenario = g.serialize_scenario(g.load_scenario(doc)).rstrip("\n")
    assert '"x0":-0,' in scenario and '"times":[-0,1]' in scenario
    assert out.startswith(f'{{"version":1,"command":"{command}","scenario":{scenario},')


def test_figure_svg_matches_golden(run_cli):
    code, out, _ = run_cli("figure", "--preset", "fig2-middle")
    assert code == 0
    assert out == (GOLDEN / "fig2-middle.svg").read_text()


def test_figure_data_tables(run_cli):
    code, out, _ = run_cli("figure", "--preset", "fig3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "figure"
    assert len(doc["tables"]) == 5
    cols = doc["tables"][0]["columns"]
    assert cols[0] == "x" and "scaled" in cols


def test_validate_passes(run_cli):
    code, out, _ = run_cli("validate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True and doc["n_failed"] == 0
    assert doc["n_checks"] == len(doc["checks"]) == 18


def test_validate_filter(run_cli):
    code, out, _ = run_cli("validate", "--filter", "sho", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["n_checks"] < 18
    assert all("sho" in c["name"] for c in doc["checks"])


def test_validate_filter_matching_nothing_is_usage_error(run_cli):
    code, out, err = run_cli("validate", "--filter", "nothing")
    assert code == 64 and out == ""
    assert err == "gausspack: error: --filter 'nothing' matches no check\n"


def test_validate_unreachable_tolerance_fails(run_cli):
    code, out, _ = run_cli("validate", "--rel-tol", "1e-30", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False and doc["n_failed"] > 0


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e400", "abc"])
def test_bad_tolerance_override_is_usage_error(tol, capsys):
    assert cli.main(["validate", f"--rel-tol={tol}"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "argument --rel-tol:" in err and repr(tol) in err


def test_validate_csv(run_cli):
    code, out, _ = run_cli("validate", "--filter", "normalization",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,system,params,analytic,oracle,abs_err,rel_err,tol,pass"
    assert len(lines) == 5  # one per system
    assert all(line.endswith(",true") for line in lines[1:])


def test_validate_csv_holds_the_json_records(tmp_path):
    """The CSV header is a JSON record's key list, and every cell parses
    back to that record's value."""
    args = ["validate", "--filter", "normalization", "--rel-tol", "1e-30", "--out"]
    assert cli.main(args + [str(tmp_path / "r.json")]) == 1
    assert cli.main(args + [str(tmp_path / "r.csv"), "--format", "csv"]) == 1
    records = json.loads((tmp_path / "r.json").read_text())["checks"]
    header, *rows = csv.reader(io.StringIO((tmp_path / "r.csv").read_text()))
    assert header == list(records[0])
    assert len(rows) == len(records) == 4
    assert {record["pass"] for record in records} == {True, False}
    for row, record in zip(rows, records):
        assert len(row) == len(header)
        for key, cell in zip(header, row):
            value = record[key]
            parsed = cell if isinstance(value, str) else json.loads(cell)
            assert type(parsed) is type(value) and parsed == value


def test_out_of_range_time_is_reported(run_cli):
    doc = json.dumps({
        "version": 1, "name": "blow", "system": "inverted",
        "omega_tilde": 1.0, "times": [400.0],
    })
    code, _, err = run_cli("evolve", "--scenario", doc)
    assert code == 1
    assert err.startswith("gausspack:")


def test_overflowing_integer_time_is_a_usage_error(run_cli):
    doc = json.dumps({
        "version": 1, "name": "huge", "system": "free", "times": [0.5, 10**400],
    })
    code, out, err = run_cli("fractions", "--scenario", doc)
    assert code == 64 and out == ""
    assert err == f"gausspack: error: field 'times': times must be a finite number, got {10**400}\n"
    # Past Python's 4300-digit limit the integer cannot even be parsed.
    doc = doc.replace(str(10**400), "1" + "0" * 5000)
    code, out, err = run_cli("fractions", "--scenario", doc)
    assert code == 64 and out == ""
    assert err.startswith("gausspack: error: cannot parse scenario:")
    assert "Traceback" not in err


# Inline scenarios for the two families the presets leave out: a uniformly
# accelerated packet and an inverted oscillator, both with hbar, mass != 1.
# The inverted times reach |omega_tilde*t| > 30, where the hyperbolic
# functions switch to their exponent-extracted form.  The oscillator
# scenario asks for both density outputs, kedensity and scaled.
INLINE_SCENARIOS = {
    "accel-pin": json.dumps({
        "version": 1, "name": "accel-pin", "system": "accel", "force": -0.7,
        "hbar": 0.6, "mass": 1.7, "x0": 0.3, "alpha": 1.3, "p0": 0.9,
        "times": [-0.8, 0.0, 0.45, 1.7, 6.0],
        "window": {"unit": "dx_t", "halfwidth": 6.0}, "grid_n": 48,
    }),
    "inverted-pin": json.dumps({
        "version": 1, "name": "inverted-pin", "system": "inverted",
        "omega_tilde": 1.25, "hbar": 0.7, "mass": 2.1, "alpha": 0.9, "p0": 0.4,
        "times": [-3.1, 0.0, 0.7, 2.0, 24.5, 26.0, 90.0, 230.0],
        "window": {"unit": "dx_t", "halfwidth": 6.0}, "grid_n": 48,
    }),
    "sho-density-pin": json.dumps({
        "version": 1, "name": "sho-density-pin", "system": "sho", "omega": 1.4,
        "hbar": 0.8, "mass": 1.3, "alpha": 1.1, "p0": 0.9,
        "times": [-0.6, 0.0, 1.9, 7.3],
        "outputs": ["psi", "prob", "kedensity", "scaled"],
        "window": {"unit": "dx_t", "halfwidth": 6.0}, "grid_n": 48,
    }),
}

# sha256 of every file each command writes, one set per numpy dispatch
# level (conftest.per_level).  Re-taken once, when the closed forms came to
# be read from the classical flow M(t): 13 of these 18 commands moved, and
# fig2-middle's tables and the figure SVGs of fig1, fig3 and accel-pin did
# not.  Outside such a deliberate re-pin the bytes must never change.
OUTPUT_DIGESTS = {
    ("evolve", "--preset", "fig1"): per_level({
        "out_000.csv": "e8128c3742523856f14b66feb4accb7e26ec679b4eaded04ddd6dd64ec8ed9fd",
        "out_001.csv": "104de7cc2d163a97d45e0fd11198b297f60628788c99ad6c20f649e73524c1d2",
        "out_002.csv": "a6143daf6ad6b75a5d748607fd727d07152c478a1fb9dfa8e83e575dd4468d7b",
        "out_003.csv": "8e0d9142142c7f5513d3561f410523be08e4779b642ee694557e0ecd27297ba6",
        "out_004.csv": "5c336e73b1ae5bb3a69f43d38dfe64de51589039cc968b4619452587bcd65031",
    }, baseline={
        "out_000.csv": "91262eec0950705804af087e3831b48147d30ecdf1404592a43ea4d089282c1b",
        "out_001.csv": "a72484d25676ac532333b112f7aad6a416ccc53103b22f631bffb8527083a570",
        "out_002.csv": "3ac8b23411446585afc7a34707b082addb9fe84d74180997f390704b8a855b1e",
        "out_003.csv": "5991d82421e8e4c11e6a9358737f2af12dc2075eed6fff23afbe47562292afa2",
        "out_004.csv": "0a41181e1c337b146177d08c0cda78e51b14575ee71d30a88b6299d67d9ba48b",
    }),
    ("evolve", "--preset", "fig1", "--combined"): per_level({
        "out.csv": "207786e9f257afc747f454ffe0615ff18ea35cb8e4b43a4d53914668dae8ddd5",
    }, baseline={
        "out.csv": "ce3c0c24cb0166ed9ff90577bdcd3d2912835fcf9a4d8734014f4b155e038c16",
    }),
    ("evolve", "--preset", "fig1", "--format", "json"): per_level({
        "out.json": "717e17da50df6371469b36e6ad637f17f0e7fb49cba871ffaac0d4464aaa0e8e",
    }, baseline={
        "out.json": "1ece5ba4113d3cf763caf995b531d27a42e6d95c6a7a7a139aff31db1af7e025",
    }),
    ("fractions", "--preset", "fig3"): per_level({
        "out.csv": "f9d0dd1bd0d130c4acc7867dfa0ce06470c95b098b6782da03da911fdf300e5e",
    }),
    ("fractions", "--preset", "fig3", "--format", "json"): per_level({
        "out.json": "232d41a47efd888eb6aa310dee1f89545dc69b034b70ef4b30a833890ee85414",
    }),
    ("figure", "--preset", "fig2-middle", "--format", "csv"): per_level({
        "out.csv": "a549a6be1fa46f2754352ab8cc7e7537b79b46659e38071f77020e0b6b656233",
    }, x86_v3={
        "out.csv": "5b1eb10d10efd347d3bc3544c45ef318bb9f76acf6d8101c3a95623238bfc6c3",
    }, baseline={
        "out.csv": "e8d258eb1f181dbf2a515da7b51a104ccb252e3fb3e8d2f801927ac56af92826",
    }),
    ("figure", "--preset", "fig2-middle", "--format", "json"): per_level({
        "out.json": "c5e4f39ac5e067942657a9a8c07dc00c9cf53f2c234c1a86803914983f1029a3",
    }, x86_v3={
        "out.json": "4648c6767bbf209290d16abb100cfcc47fd0d40690dad9371d93ed1ac769516f",
    }, baseline={
        "out.json": "ebf602b2ea9a34c3717a540ad81a16bf9a5d0a8d94ea861aab918aa45fee62a7",
    }),
    ("fractions", "--scenario", "accel-pin"): per_level({
        "out.csv": "75c4c136c7958ac44a4d2e5d821b7ecc3cc69c5df16c4f8859c17e2c1e28572c",
    }),
    ("evolve", "--scenario", "accel-pin", "--combined"): per_level({
        "out.csv": "c2ebaf8625c88b2d6ca99c1e817dba51bdca2d02620a72025d8597d905dab19e",
    }, baseline={
        "out.csv": "d876d4b178a0d35ad63cd5096a91268c9abd390ef2a87af6367c5976ffe1a59c",
    }),
    ("fractions", "--scenario", "inverted-pin"): per_level({
        "out.csv": "99d7589b3a34ae64f0fb7fda73b2be72933fc62b1a3676e7825d3819a51b66ee",
    }),
    ("evolve", "--scenario", "inverted-pin", "--combined"): per_level({
        "out.csv": "ce28561e65cfc9ed1a76192fa79eed31e2174f7c8c4d3838e861023219a221bd",
    }, baseline={
        "out.csv": "734fec9fd697a541cb4fdeac204fecf8ab69a01287a71199f4e2990af084d069",
    }),
    ("figure", "--preset", "fig1"): per_level({
        "out.svg": "1f1b139a285750dc28e32c46c7f1cfc60d1ae3d3fc91f220f82762563b4fe076",
    }),
    ("figure", "--preset", "fig3"): per_level({
        "out.svg": "bcafa02cfe743b7e23c960ad0c5e4d52fd75dc0e7d2552bf8c242b398ed4aeb4",
    }),
    ("figure", "--preset", "fig3", "--format", "csv"): per_level({
        "out_000.csv": "2d4f7f72d795aa80ceae95d15cd5fe05bba1165db1498f7733208303b841dfbe",
        "out_001.csv": "272802e09973fb707fff29e4dfa7de797ba039fdf3ed7dd65f746a65d7626330",
        "out_002.csv": "cbbf2ab08cba9850dddd731c1f0548d5c725a1e814bf2ef1ee48456e6d27c975",
        "out_003.csv": "8ba7c21cbd4541f71582c07cca9cfab229eb921b74796bfb44765121beec2562",
        "out_004.csv": "d1829efb1a04b628fc8ce28dbb5f3570c2aca35a21438c6d6f061c126f947de4",
    }, x86_v3={
        "out_000.csv": "753852179c9856ed3d129b063418bf04e4f1014906de92e32295641ba29cb40b",
        "out_001.csv": "be0f9567709114792e0da8f478b1618e304de06ebfb9da35ce07cbd20d39f8b4",
        "out_002.csv": "db782b8d9c4e68252346c969786c88e6a104af2b41a39239af2ef8745af3d796",
        "out_003.csv": "34f382367e37e88e11a71801ac9641563f5e858986dc85486fb6cd8fe58bbe1e",
        "out_004.csv": "bee0fda591a72a9272eda74c22ba7ab0b703b11b97045aa159378fc1b67aa2ad",
    }, baseline={
        "out_000.csv": "72486055c589795f598026d8144567d064c8374bdab2ed733defb8a31d6f03b0",
        "out_001.csv": "48baeebc4c85905ec3c94fba91a362e232f5cf706e8576306dd79c4c46188a52",
        "out_002.csv": "b5742614faf1cfdc7cb2a1a8206d898599d8a3a1b062053332c688303c032e3d",
        "out_003.csv": "8239eedfe39c716173971c63ecc28cf66c26aa6926a7b4bcd0a358864c51dcfe",
        "out_004.csv": "bee0fda591a72a9272eda74c22ba7ab0b703b11b97045aa159378fc1b67aa2ad",
    }),
    ("figure", "--scenario", "accel-pin"): per_level({
        "out.svg": "f7280d108ecc9c01fa3dba5a3e3aa9d325e9ca86645b96e493b2746a359e189f",
    }),
    ("figure", "--scenario", "inverted-pin"): per_level({
        "out.svg": "3c378d5b26765cb6b3b0a0a3549c2e7a312780d8c9b9b4289031336e4705c645",
    }),
    ("figure", "--scenario", "sho-density-pin", "--format", "csv"): per_level({
        "out_000.csv": "1d73bb3860148025ba66fa391d6d803ca01dae0e37c738416f437c392d307006",
        "out_001.csv": "e6133213386f943b8416e07a23644c067579042a128291c2de6c887774ff6cff",
        "out_002.csv": "0a58285fb8e71e6573d96ec5362a95473c19269fb26aca109d916cf42add4c14",
        "out_003.csv": "ad4a6c602fac4db0fca7f4844e79fd9104eed4f1f5e9feddb13879215b0c391a",
    }, x86_v3={
        "out_000.csv": "cf6bf57a08114dcb119b6143a02fb4dd0dc459d0e8c234836ea13ad9729b0648",
        "out_001.csv": "e6133213386f943b8416e07a23644c067579042a128291c2de6c887774ff6cff",
        "out_002.csv": "725f2be4abe16fb5af60f4df43a7e59013d268aa464204d0f7f0a4aeffb61cb9",
        "out_003.csv": "13aca1c7e44559505dd726a8019a1fa4899f17bf2495afef259f5e26f8a569ae",
    }, baseline={
        "out_000.csv": "32ee59af4e1b041c22e9940f8516ad913f840aef68b8b12bc493b46e0e588151",
        "out_001.csv": "2e1eb0b44c5351c19bd0d475f4c941a3165bc26ae25652166d47e751049dc9cd",
        "out_002.csv": "5465b2760d8a3ca6e3fc8e2054726007da15000425423b4bc61aeaedbcc8bd77",
        "out_003.csv": "69425aca02c688758ac87a1a2aff886d62d7cc4a6ba0f2ba35cb4ab856f9e3fa",
    }),
    ("evolve", "--scenario", "sho-density-pin", "--combined"): per_level({
        "out.csv": "7a4cdd79e4b8148afd8b279d3c3a0a418c17d733a4e9f7bc78e38baef57d5086",
    }, baseline={
        "out.csv": "fc3bb8203ffb3a9b5089e3663e7b5b90008bc413da4d774845b13d1583b6d540",
    }),
}


@pytest.mark.parametrize("args", OUTPUT_DIGESTS, ids=" ".join)
def test_table_output_digests(args, tmp_path):
    if "--format" in args:
        suffix = "." + args[args.index("--format") + 1]
    else:
        suffix = ".svg" if args[0] == "figure" else ".csv"
    argv = [INLINE_SCENARIOS.get(a, a) for a in args]
    assert cli.main([*argv, "--out", str(tmp_path / f"out{suffix}")]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == pinned(OUTPUT_DIGESTS[args])


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_non_finite_table_value_is_a_numerical_error(fmt, monkeypatch, capsys,
                                                     tmp_path):
    def grid_with_nan(*args):
        grid = g.sample_grid(*args)
        prob = grid.prob.copy()
        prob[len(prob) // 2] = np.nan
        return dataclasses.replace(grid, prob=prob)

    monkeypatch.setattr(figures, "sample_grid", grid_with_nan)
    target = tmp_path / f"psi.{fmt}"
    command = "figure" if fmt == "svg" else "evolve"  # only figure writes SVG
    code = cli.main([command, "--preset", "fig2-middle", "--format", fmt,
                     "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gausspack: numerical error:") and err.count("\n") == 1
    assert not target.exists()


def test_non_finite_later_table_leaves_no_file(monkeypatch, capsys, tmp_path):
    def grid_with_nan(system, params, t, window, n):
        grid = g.sample_grid(system, params, t, window, n)
        if t == 4.0:  # the last of fig1's five times
            grid = dataclasses.replace(grid, prob=np.full_like(grid.prob, np.nan))
        return grid

    monkeypatch.setattr(figures, "sample_grid", grid_with_nan)
    code = cli.main(["evolve", "--preset", "fig1", "--out", str(tmp_path / "run.csv")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("gausspack: numerical error:")
    assert list(tmp_path.iterdir()) == []


def test_overflowing_frequency_is_a_usage_error(capsys):
    doc = json.dumps({"version": 1, "name": "huge-omega", "system": "sho",
                      "omega": 1e200, "times": [0.0, 1.0]})
    assert cli.main(["fractions", "--scenario", doc]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gausspack: error: field 'omega': ") and "Traceback" not in err


# Inputs that each ended in a raw Python traceback (exit 1): a frequency
# whose square underflows to 0 (exit 64 now, refused where the system is
# built), gamma = hbar/(mass*omega*beta) with mass*omega*beta underflowing
# to 0, a quadratic coefficient |a| with no float square, and the chirp's
# divisor 2*hbar*|A|**2 underflowing to 0 (a tiny hbar, a huge alpha).
_RAW_TRACEBACKS = {
    "omega_tilde-square-underflows": (64, "fractions", {
        "system": "inverted", "omega_tilde": 1.1315473779143406e-240,
        "mass": 2.5291244416048238e-279, "times": [0.0, 1.0]}),
    "omega-subnormal": (64, "evolve", {
        "system": "sho", "omega": 3.52956535e-316, "times": [1e-150]}),
    "gamma-infinite": (1, "fractions", {
        "system": "sho", "omega": 1e-160, "mass": 1e-200, "times": [0.0, 1.0]}),
    "quad-coeff-square-overflows": (1, "figure", {
        "system": "free", "alpha": 1e-80, "times": [0.0],
        "outputs": ["psi", "prob", "kedensity"]}),
    "chirp-divisor-underflows": (1, "figure", {
        "system": "inverted", "omega_tilde": 8.081517551373508,
        "hbar": 6.088798310114892e-248, "mass": 6.52758258167745,
        "alpha": 1.0929703959470301e+88, "p0": 8.70400261481397,
        "times": [-0.0, 5.939983404999195]}),
}


@pytest.mark.parametrize("case", _RAW_TRACEBACKS)
def test_underflowing_and_overflowing_inputs_are_refused(case, run_cli, tmp_path):
    code, command, doc = _RAW_TRACEBACKS[case]
    doc = json.dumps({"version": 1, "name": "edge", **doc})
    returned, out, err = run_cli(command, "--format", "csv", "--scenario", doc,
                                 "--out", str(tmp_path / "table.csv"))
    assert (returned, out) == (code, "")
    assert err.startswith("gausspack: error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Scenario documents the loader refused with a raw ZeroDivisionError (the
# first two), named a field the document does not hold (the next four), or
# passed with a scaled time that overflows (exit 1 later).  Each key is the
# document field the refusal names now.
_LOADER_REFUSALS = {
    "hbar-zero-beta": ("hbar", {"system": "free", "hbar": 0.0, "beta": 1.0}),
    "mass-omega-underflows": ("beta_over_beta0", {
        "system": "sho", "omega": 1e-160, "mass": 1e-200, "beta_over_beta0": 1.0}),
    "t0-underflows": ("alpha", {"system": "free", "alpha": 1e-200, "times": [1.0]}),
    "alpha-overflows": ("beta", {"system": "free", "hbar": 1e-300, "beta": 1e300}),
    "p0-overflows": ("p0_over_dp0", {"system": "free", "p0_over_dp0": 1e300, "alpha": 1e-10}),
    "beta-underflows": ("alpha", {
        "system": "sho", "omega": 1.0, "hbar": 1e-300, "alpha": 1e-100}),
    "scaled-time-overflows": ("times", {
        "system": "free", "alpha": 1e5, "mass": 1e10,
        "times": {"unit": "t0", "values": [1e300]}}),
    "window-width-overflows": ("window", {"system": "free", "window": [-1e308, 1e308]}),
}


@pytest.mark.parametrize("case", _LOADER_REFUSALS)
def test_loader_refusal_names_the_document_key(case, capsys, tmp_path):
    field, doc = _LOADER_REFUSALS[case]
    doc = json.dumps({"version": 1, "name": "f", "times": [0.0], **doc})
    with pytest.raises(g.ScenarioError) as info:
        g.load_scenario(doc)
    assert info.value.field == field
    code = cli.main(["fractions", "--scenario", doc, "--out", str(tmp_path / "f.csv")])
    err = capsys.readouterr().err
    assert code == 64 and err.count("\n") == 1
    assert err.startswith(f"gausspack: error: field {field!r}: ")
    assert list(tmp_path.iterdir()) == []


def test_a_total_kinetic_energy_that_underflows_is_a_constraint_failure(capsys, tmp_path):
    """T(0) is 0.0 here: the table's r_plus was nan, refused at exit 2."""
    doc = json.dumps({"version": 1, "name": "f", "system": "free", "hbar": 1e-130,
                      "mass": 1e308, "alpha": 1e10, "times": [0.0]})
    code = cli.main(["fractions", "--scenario", doc, "--out", str(tmp_path / "f.csv")])
    assert (code, capsys.readouterr().err) == (
        1, "gausspack: error: total kinetic energy is not positive\n")
    assert list(tmp_path.iterdir()) == []


def test_a_total_kinetic_energy_that_overflows_is_a_constraint_failure(capsys, tmp_path):
    """T is inf here: the table's r_plus was nan, refused at exit 2."""
    doc = json.dumps({"version": 1, "name": "f", "system": "free", "mass": 1e-200,
                      "alpha": 1e-130, "hbar": 1e140, "times": [1.0]})
    code = cli.main(["fractions", "--scenario", doc, "--out", str(tmp_path / "f.csv")])
    assert (code, capsys.readouterr().err) == (
        1, "gausspack: error: total kinetic energy overflows the float range\n")
    assert list(tmp_path.iterdir()) == []

def test_a_window_whose_width_overflows_is_a_usage_error(run_cli, tmp_path):
    """np.linspace over an infinite span gave a NaN grid, refused at exit 2."""
    doc = json.dumps({"version": 1, "name": "f", "system": "free", "times": [0.0],
                      "window": [-1e308, 1e308], "grid_n": 16})
    code, out, err = run_cli("figure", "--format", "csv", "--scenario", doc,
                             "--out", str(tmp_path / "f.csv"))
    assert (code, out) == (64, "")
    assert err.startswith("gausspack: error: field 'window': ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_packet_relative_window_whose_width_overflows_is_refused_by_the_grid(
        run_cli, tmp_path):
    """A dx_t window is placed at each time, so sample_grid refuses it (exit 1).

    It gave a NaN grid before, refused at exit 2 by the finiteness gate.
    """
    doc = json.dumps({"version": 1, "name": "f", "system": "free", "times": [0.0],
                      "window": {"unit": "dx_t", "halfwidth": 1.5e308}, "grid_n": 16})
    code, out, err = run_cli("figure", "--format", "csv", "--scenario", doc,
                             "--out", str(tmp_path / "f.csv"))
    assert (code, out) == (1, "")
    assert err == ("gausspack: error: window must have a width hi - lo below 1.8e308, "
                   "got (-1.0606601717798214e+308, 1.0606601717798214e+308)\n")
    assert list(tmp_path.iterdir()) == []


# Figures whose axes overflowed or divided by zero: ticks i*(hi - lo)/4 past
# the float range wrote "inf" at exit 0, and a flat panel at 6e29, where
# +-1 is absorbed, raised ZeroDivisionError.  The first grid does not
# resolve its packet, so numpy warns (see tests/test_fuzz.py).
_FIGURE_AXES = {
    "ticks-overflow": {
        "system": "sho", "omega": 1.1959744427366214e-84, "hbar": 4.559363849015301e+151,
        "times": [-4.312809352175276e+86, 1.0833562818355007e-146], "grid_n": 16,
        "window": [-5.0316424293039425e-232, 1e+308],
        "outputs": ["psi", "prob", "kedensity", "scaled"]},
    "flat-panel": {
        "system": "sho", "omega": 1.567006559478298e+61, "beta_over_beta0": 2.8695689437683205,
        "times": {"linspace": [-0.0, 1.6908666387864368, 3]},
        "window": {"unit": "dx_t", "halfwidth": 1.658688393039849e-72},
        "outputs": ["psi", "prob"], "grid_n": 48},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", _FIGURE_AXES)
def test_figure_axes_stay_finite(case, tmp_path):
    doc = json.dumps({"version": 1, "name": "f", **_FIGURE_AXES[case]})
    assert cli.main(["figure", "--scenario", doc, "--out", str(tmp_path / "f.svg")]) == 0
    svg = (tmp_path / "f.svg").read_text()
    assert "inf" not in svg and "nan" not in svg


# 2^15 grid points at two times: every table, and every SVG polyline, is at
# least _textio._PARALLEL_MIN_VALUES values, so each is split across a helper.
LARGE_SCENARIO = json.dumps({
    "version": 1, "name": "large-pin", "system": "sho", "omega": 1.4,
    "hbar": 0.8, "mass": 1.3, "alpha": 1.1, "p0": 0.9, "times": [0.0, 1.9],
    "outputs": ["psi", "prob", "kedensity", "scaled"],
    "window": {"unit": "dx_t", "halfwidth": 6.0}, "grid_n": 2**15,
})


def test_large_outputs_match_the_serial_bytes(monkeypatch, tmp_path, forks):
    commands = {
        "evolve.csv": ["evolve", "--combined"],
        "figure.json": ["figure", "--format", "json"],
        "figure.svg": ["figure", "--format", "svg"],
    }

    def run(tag):
        outputs = {}
        for name, args in commands.items():
            before = len(forks)
            path = tmp_path / f"{tag}-{name}"
            assert cli.main([*args, "--scenario", LARGE_SCENARIO, "--out", str(path)]) == 0
            outputs[name] = (path.read_bytes(), len(forks) - before)
        return outputs

    # Two usable CPUs wherever this runs, so one helper per large block.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parallel = run("parallel")
    monkeypatch.setattr(_textio, "_PARALLEL_MIN_VALUES", 2**62)
    serial = run("serial")
    # one combined table; one table per time; five polylines per time
    assert {name: n for name, (_, n) in parallel.items()} == {
        "evolve.csv": 1, "figure.json": 2, "figure.svg": 10}
    assert {name: n for name, (_, n) in serial.items()} == dict.fromkeys(commands, 0)
    for name in commands:
        assert parallel[name][0] == serial[name][0], name


@pytest.mark.parametrize("args", [["evolve", "--combined"], ["figure", "--format", "json"],
                                  ["figure", "--format", "svg"]], ids=" ".join)
def test_large_outputs_to_stdout_match_the_file(args, capsys, tmp_path):
    path = tmp_path / "out"
    assert cli.main([*args, "--scenario", LARGE_SCENARIO, "--out", str(path)]) == 0
    assert cli.main([*args, "--scenario", LARGE_SCENARIO, "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


def test_writing_a_large_table_holds_a_bounded_part_of_its_text(
        monkeypatch, tmp_path, forks):
    """Serial, and with one helper whose text is passed on a piece at a time."""
    block = np.random.default_rng(0).standard_normal((2**17, 6))
    path = tmp_path / "large.csv"
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        tracemalloc.start()
        try:
            cli._emit(functools.partial(_textio.write_csv, list("abcdef"), block), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forks) == cpus - 1
        assert path.read_text() == _textio.render_csv(list("abcdef"), block)
        assert peak < path.stat().st_size / 6, cpus


@pytest.mark.parametrize("old", [None, b"an earlier run\n"])
def test_a_helper_dying_mid_send_leaves_the_file_as_it_was(
        old, monkeypatch, capsys, tmp_path, forks, helpers_die_while_sending):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "run.csv"
    if old is not None:
        path.write_bytes(old)
    code = cli.main(["evolve", "--combined", "--scenario", LARGE_SCENARIO,
                     "--out", str(path)])
    assert code == 1 and len(forks) == 1
    assert capsys.readouterr().err.startswith("gausspack: i/o error:")
    assert list(tmp_path.iterdir()) == ([] if old is None else [path])
    assert old is None or path.read_bytes() == old


@pytest.mark.parametrize("out", ["-", "report"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_validate_report_writes_nothing(fmt, out, monkeypatch, capsys,
                                                   tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(validation, "_check_normalization",
                        lambda system, params, t: (1.0, math.nan, 1e-12))
    code = cli.main(["validate", "--filter", "normalization", "--format", fmt,
                     "--out", out])
    stdout, err = capsys.readouterr()
    assert code == 2 and stdout == ""
    assert err.startswith("gausspack: numerical error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _fifo(tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs os.mkfifo")
    os.mkfifo(tmp_path / "fifo")
    return os.open(tmp_path / "fifo", os.O_RDONLY | os.O_NONBLOCK), None, "fifo"


def _dev_fd_pipe(tmp_path):
    if not os.path.isdir("/dev/fd"):
        pytest.skip("needs /dev/fd")
    reader, writer = os.pipe()
    return reader, writer, f"/dev/fd/{writer}"


@pytest.mark.parametrize("make", [_fifo, _dev_fd_pipe], ids=["fifo", "dev-fd-pipe"])
def test_a_non_regular_path_gets_the_whole_text_in_place(make, capsys, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["fractions", "--preset", "fig3", "--format", "json"]
    assert cli.main([*args, "--out", "-"]) == 0
    expected = capsys.readouterr().out.encode()  # < 1 kB: fits the pipe buffer
    reader, writer, out = make(tmp_path)
    try:
        assert cli.main([*args, "--out", out]) == 0
        assert os.read(reader, 2**20) == expected
    finally:
        os.close(reader)
        if writer is not None:
            os.close(writer)
    assert [p.name for p in tmp_path.iterdir()] == ([] if writer is not None else ["fifo"])


def test_a_rewritten_file_keeps_its_mode_and_symlink(tmp_path):
    path, link = tmp_path / "frac.csv", tmp_path / "link.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    link.symlink_to(path)
    assert cli.main(["fractions", "--preset", "fig1", "--out", str(link)]) == 0
    assert link.is_symlink() and path.read_text().startswith("t,total,")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert sorted(tmp_path.iterdir()) == [path, link]


@pytest.mark.parametrize("name", ["missing/", "missing/run.csv", "."])
def test_an_unwritable_path_is_an_io_error(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fractions", "--preset", "fig1", "--out", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gausspack: i/o error: [Errno ") and f"'{name}'" in err
    assert list(tmp_path.iterdir()) == []
