"""End-to-end CLI tests.  Most run ``cli.main`` in-process through the
``run_main`` fixture (``conftest.py``), from ``tmp_path`` to check that the
CLI does not depend on the working directory.  ``python -m qrmirror`` runs
as a child process (``run_cli``) only where a process is what is tested:
the entry point and the hang guard's timeout.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qrmirror import cli, optics, potential
from qrmirror.constants import CONSTANTS
from qrmirror.reflection import SolveError, solve_reflection


def test_help(run_cli):
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "quantum reflection" in cp.stdout


def test_material_list(run_main):
    # the shipped material files and the two mirrors known by name
    cp = run_main("material", "list")
    assert cp.returncode == 0
    assert cp.stdout.split() == ["diamond", "graphene", "perfect_conductor",
                                 "silica", "silicon"]


@pytest.mark.parametrize("name, text", [
    ("perfect_conductor",
     "perfect_conductor: ideal mirror (r_TM = 1, r_TE = -1)\n"),
    ("graphene", "graphene: conducting sheet, eta = 0.0229253\n"),
    ("silica",
     "silica: 2 oscillator(s)\n"
     "  static epsilon = 3.8010\n"
     "  wavelength = 30120.4 a0 = 1593.88 nm\n"
     "  osc: wp2 = 0.265476 Eh^2, w02 = 0.241781 Eh^2, gamma = 0 Eh\n"
     "  osc: wp2 = 3.52502e-05 Eh^2, w02 = 2.06989e-05 Eh^2, gamma = 0 Eh\n"),
])
def test_material_show_text(run_main, name, text):
    cp = run_main("material", "show", name)
    assert (cp.returncode, cp.stdout, cp.stderr) == (0, text, "")


def test_named_mirror_is_not_shadowed_by_a_file(run_main, tmp_path):
    # a file in the working directory that bears a named mirror's name is
    # not read: the names resolve before any path
    for name in ("perfect_conductor", "graphene"):
        (tmp_path / name).write_text("name = impostor\nosc = 1.0, 0.5, 0.1\n")
    cp = run_main("material", "show", "perfect_conductor")
    assert cp.stdout.startswith("perfect_conductor: ideal mirror")
    cp = run_main("material", "show", "graphene")
    assert cp.stdout.startswith("graphene: conducting sheet")


def test_unknown_mirror_lists_every_name(run_main):
    cp = run_main("potential", "--mirror", "perfect_conductr")
    assert cp.returncode == 2
    assert cp.stderr == ("error: unknown material 'perfect_conductr'; shipped: "
                         "diamond, graphene, perfect_conductor, silica, "
                         "silicon\n")


def test_mirror_file_is_read_once(monkeypatch, tmp_path):
    reads = []
    key_value_lines = optics.key_value_lines

    def counting(path, *args):
        reads.append(str(path))
        return key_value_lines(path, *args)

    monkeypatch.setattr(optics, "key_value_lines", counting)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "glass.mat"
    path.write_text("name = glass\nosc = 1.0, 0.5, 0.0\n")
    assert cli.main(["potential", "--mirror", str(path), "--points", "16",
                     "--z-min-a0", "1", "--z-max-a0", "1e3"]) == 0
    assert reads == [str(path)]


def test_material_show(run_main):
    cp = run_main("material", "show", "silicon")
    assert cp.returncode == 0
    assert "11.87" in cp.stdout


def test_material_show_reads_a_relative_path_as_mirror_does(monkeypatch,
                                                            tmp_path, capsys):
    # one name-to-path rule: a file where the name points, else a shipped
    # material
    (tmp_path / "damped.mat").write_text(
        "name = damped\nosc = 1.0, 0.01, 100.0\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["material", "show", "damped.mat"]) == 0
    out = capsys.readouterr().out
    assert "damped: 1 oscillator(s)" in out and "gamma = 100 Eh" in out
    assert cli.main(["potential", "--mirror", "damped.mat", "--points", "16",
                     "--z-min-a0", "1", "--z-max-a0", "1e3"]) == 0


def test_unknown_material_exits_2(run_main):
    cp = run_main("material", "show", "unobtainium")
    assert cp.returncode == 2


def test_vacuum_mirror_rejected(run_main, tmp_path):
    # by name, and as a material file without oscillators, which `material
    # show` once crashed on (exit 1) while printing its wavelength
    (tmp_path / "vac.mat").write_text("name = vac\n")
    for argv in (["potential", "--mirror", "vacuum"],
                 ["potential", "--mirror", "vac.mat"],
                 ["material", "show", "vac.mat"]):
        cp = run_main(*argv)
        assert cp.returncode == 2
        assert cp.stderr == "error: vacuum is not a mirror\n"


def test_zero_height_rejected(run_main):
    cp = run_main("reflect", "--mirror", "silica", "--height-cm", "0")
    assert cp.returncode == 2


@pytest.mark.parametrize("argv", [
    ["potential", "--mirror", "perfect_conductor", "--z-max-a0", "inf",
     "--points", "16"],
    ["potential", "--mirror", "silica", "--slab-nm", "inf"],
])
def test_non_finite_grid_or_thickness_exits_2(run_cli, tmp_path, argv):
    # both inputs once made the CLI hang; the timeout turns a return of
    # that hang into a failure
    cp = run_cli(*argv, cwd=tmp_path, timeout=60)
    assert cp.returncode == 2
    assert "error:" in cp.stderr


@pytest.mark.parametrize("argv, message", [
    (["potential", "--mirror", "silica", "--slab-nm", "nan"], "finite"),
    (["reflect", "--mirror", "silica", "--height-cm", "nan"], "finite"),
    (["reflect", "--mirror", "silica", "--height-cm", "inf"], "finite"),
    (["potential", "--mirror", "silica", "--porosity", "1"], "not a mirror"),
    (["potential", "--mirror", "silica", "--points", "8"], "need"),
    (["potential", "--mirror", "silica", "--z-min-a0", "10", "--z-max-a0", "1"],
     "need"),
    # the C5/z^5 tail underflows long before z_max; once a quadrature miss
    (["potential", "--mirror", "silica", "--slab-nm", "5", "--z-max-a0",
      "1e70", "--points", "64"], "V underflows"),
])
def test_bad_input_exits_2(monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_non_finite_material_file_exits_2(monkeypatch, tmp_path, capsys):
    path = tmp_path / "bad"
    path.write_text("name = bad\nosc = nan, 0.5, 0.1\n")
    monkeypatch.chdir(tmp_path)
    argv = ["potential", "--mirror", str(path), "--points", "16"]
    assert cli.main(argv) == 2
    assert f"{path}:2: non-finite oscillator value" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_perfect_conductor_file_with_oscillators_exits_2(monkeypatch, tmp_path,
                                                        capsys):
    # material files hold dielectrics only: a `kind` line is an unknown key
    path = tmp_path / "both"
    path.write_text("name = both\nkind = perfect_conductor\n"
                    "osc = 1.0, 0.5, 0.1\n")
    monkeypatch.chdir(tmp_path)
    argv = ["potential", "--mirror", str(path), "--points", "16"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:2: unknown key 'kind'\n"
    assert list(tmp_path.iterdir()) == [path]


def test_oversized_grid_exits_2_before_any_quadrature(monkeypatch, tmp_path,
                                                      capsys):
    # 1e6 points once took 15 s and 744 MB; 1e8 ran for minutes
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(potential, "_potential", no_quadrature)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["potential", "--mirror", "silica",
                     "--points", "100001"]) == 2
    err = capsys.readouterr().err
    assert err == "error: need 16 <= n_points <= 100000, got 100001\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["reproduce", "table1", "--points", "16"],
    ["reproduce", "table1", "--mirror", "graphene"],
    ["reproduce", "table1", "--z-min-a0", "5"],
    ["reproduce", "table2", "--height-cm", "10"],
])
def test_reproduce_rejects_mirror_and_grid_flags(capsys, argv):
    # reproduce runs its own registry of mirrors on fixed grids
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("mirror", "graphene"), ("slab_nm", "5"), ("porosity", "0.5"),
    ("height_cm", "10"), ("z_min_a0", "5"), ("z_max_a0", "1e6"),
    ("points", "16"),
])
def test_reproduce_rejects_mirror_and_grid_config(monkeypatch, tmp_path,
                                                  capsys, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\nno_timestamp = yes\n")
    assert cli.main(["reproduce", "table1", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_reproduce_accepts_output_config(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\nout = t1.json\nno_timestamp = yes\n")
    assert cli.main(["reproduce", "table1", "--config", str(cfg)]) == 0
    cells = json.loads((tmp_path / "t1.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["pass"] * 6


def test_library_and_cli_load_no_scipy(run_python, tmp_path):
    # scipy serves only numerov_reflection, which imports it itself: the
    # library, the C3 anchor integral, the CLI and a reproduce run load
    # numpy alone
    code = ("import sys, qrmirror, qrmirror.cli\n"
            "silica = qrmirror.cli._mirror_registry()['silica']\n"
            "assert qrmirror.vdw_coefficient_integral(silica) > 0\n"
            "code = qrmirror.cli.main(['reproduce', 'table1', '--format', "
            "'csv', '--no-timestamp', '--out', 'table1.csv'])\n"
            "print(code, sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    cp = run_python("-c", code, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "table1.csv").exists()


def test_slab_and_porosity_conflict(run_main):
    cp = run_main("potential", "--mirror", "silica", "--slab-nm", "5",
                  "--porosity", "0.5")
    assert cp.returncode == 2


def test_potential_perfect_conductor_csv(run_main, tmp_path):
    out = tmp_path / "pot.csv"
    cp = run_main("potential", "--mirror", "perfect_conductor",
                  "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    c4_line = next(ln for ln in lines if ln.startswith("# C4_Eh_a04"))
    c4 = float(c4_line.split("=")[1].split(";")[0])
    assert c4 == pytest.approx(73.6, rel=0.01)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "z_a0,z_nm,V_Eh,V_neV,V_over_Vstar"


def test_potential_json_schema(run_main, tmp_path):
    out = tmp_path / "pot.json"
    cp = run_main("potential", "--mirror", "perfect_conductor",
                  "--format", "json", "--out", str(out),
                  "--points", "60", "--z-min-a0", "0.5", "--z-max-a0", "1e6")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 2
    assert payload["fit"]["C4_Eh_a04"] == pytest.approx(73.6, rel=0.015)
    assert payload["columns"][:4] == ["z_a0", "z_nm", "V_Eh", "V_neV"]


def test_deterministic_output_without_timestamp(run_main, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        cp = run_main("potential", "--mirror", "perfect_conductor",
                      "--points", "40", "--z-min-a0", "1", "--z-max-a0", "1e5",
                      "--out", str(out), "--no-timestamp")
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_header_present_by_default(run_main, tmp_path):
    out = tmp_path / "c.csv"
    cp = run_main("potential", "--mirror", "perfect_conductor",
                  "--points", "40", "--z-min-a0", "1", "--z-max-a0", "1e5",
                  "--out", str(out))
    assert cp.returncode == 0
    assert out.read_text().startswith("# generated:")


def test_reflect_perfect_conductor_30cm(run_main, tmp_path):
    out = tmp_path / "refl.csv"
    cp = run_main("reflect", "--mirror", "perfect_conductor",
                  "--height-cm", "30", "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "h_m,E_neV,refl_prob,loss,re_r,im_r,flux_drift"
    prob = float(lines[1].split(",")[2])
    assert prob == pytest.approx(0.05, abs=0.01)


def test_badlands_trends(run_main, tmp_path):
    out = tmp_path / "bad.json"
    cp = run_main("badlands", "--mirror", "perfect_conductor",
                  "--height-cm", "10", "--height-cm", "30", "--height-cm", "50",
                  "--format", "json", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    peaks = payload["peaks"]
    qs = [peaks[k]["Q"] for k in ("0.1", "0.3", "0.5")]
    zs = [peaks[k]["z_a0"] for k in ("0.1", "0.3", "0.5")]
    assert qs[0] > qs[1] > qs[2]
    assert zs[0] > zs[1] > zs[2]


def test_lifetime_command(run_main, tmp_path):
    out = tmp_path / "life.csv"
    cp = run_main("lifetime", "--mirror", "perfect_conductor",
                  "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "material,porosity,im_a_nm,lifetime_s,re_a_nm"
    tau = float(lines[1].split(",")[3])
    assert tau == pytest.approx(0.11, rel=0.20)


def test_config_file_with_cli_override(run_main, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("mirror = perfect_conductor\n"
                   "points = 40\n"
                   "z_min_a0 = 1\n"
                   "z_max_a0 = 1e5\n"
                   "no_timestamp = true\n")
    out1 = tmp_path / "one.csv"
    cp = run_main("potential", "--config", str(cfg), "--out", str(out1))
    assert cp.returncode == 0, cp.stderr
    assert "perfect conductor" in out1.read_text()
    # CLI flag overrides the config value
    out2 = tmp_path / "two.csv"
    cp = run_main("potential", "--config", str(cfg), "--mirror", "silicon",
                  "--out", str(out2))
    assert cp.returncode == 0, cp.stderr
    assert "silicon" in out2.read_text()


def test_bad_config_key_exits_2(run_main, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("flux_capacitor = 1\n")
    cp = run_main("potential", "--config", str(cfg),
                  "--mirror", "perfect_conductor")
    assert cp.returncode == 2


@pytest.mark.parametrize("key, value", [
    ("points", "abc"), ("points", "16.5"), ("no_timestamp", "maybe"),
    ("format", "xml"), ("height_cm", "10,,20"), ("slab_nm", "5nm"),
    ("z_min_a0", "one"),
])
def test_bad_config_value_exits_2_naming_file_line_and_key(
        monkeypatch, tmp_path, capsys, key, value):
    # values are parsed when the config is loaded, before any table is built
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"mirror = perfect_conductor\n{key} = {value}\n")
    assert cli.main(["potential", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: {key}: "), err
    assert list(tmp_path.iterdir()) == [cfg]


def test_sparse_grid_writes_a_table_without_fits(monkeypatch, tmp_path):
    # a step wider than a decade leaves one point per end decade
    monkeypatch.chdir(tmp_path)
    argv = ["potential", "--mirror", "silica", "--z-min-a0", "1",
            "--z-max-a0", "1e40", "--points", "16", "--format", "json",
            "--out", "sparse.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    fit = json.loads((tmp_path / "sparse.json").read_text())["fit"]
    assert fit["near_exponent"] is None and fit["far_exponent"] is None


_SPECIAL = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-200, 1e200]


def _drawn(ordinary):
    # about one draw in four is special
    return st.one_of(st.sampled_from(_SPECIAL), *[ordinary] * 3)


# each drawn input goes to the command line or to the config file
_INPUTS = st.builds(
    lambda grid, modifier: {**grid, **modifier},
    st.fixed_dictionaries({
        "mirror": st.sampled_from(["silica", "silica", "perfect_conductor"]),
        "z_min_a0": _drawn(st.floats(1e-6, 10.0)),
        "z_max_a0": _drawn(st.floats(1e3, 1e9)),
        "points": st.integers(-5, 2000),
    }),
    st.one_of(st.just({}),
              st.fixed_dictionaries({"slab_nm": _drawn(st.floats(0.1, 1e4))}),
              st.fixed_dictionaries({"porosity": _drawn(st.floats(0.0, 1.0))})))


@settings(max_examples=300, deadline=None)
@given(inputs=_INPUTS, in_config=st.lists(st.booleans(), min_size=5,
                                          max_size=5))
def test_potential_inputs_exit_0_1_or_2_with_one_message(inputs, in_config):
    # the CLI input contract; an escaping exception (a traceback) or a numpy
    # warning, turned into an error here, fails the test by itself
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        argv, lines = ["potential"], []
        for (key, value), config in zip(inputs.items(), in_config):
            if config:
                lines.append(f"{key} = {value}")
            else:
                argv.append(f"--{key.replace('_', '-')}={value}")
        if lines:
            Path("run.cfg").write_text("\n".join(lines) + "\n")
            argv += ["--config", "run.cfg"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        written = sorted(p.name for p in Path(tmp).iterdir()
                         if p.name != "run.cfg")
    message = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert message == [] and len(written) == 1
    else:
        assert len(message) == 1, message
        assert message[0].startswith(
            "error: " if code == 2 else "numerical failure: "), message
    if code == 2:
        assert written == []


@pytest.mark.parametrize("slab_nm", ["1e140", "1e300"])
def test_slab_far_thicker_than_the_grid_is_bulk(monkeypatch, tmp_path,
                                                slab_nm):
    # such a slab's response scale c/2d lies below every xi at which
    # kappa^2 = (cq/xi)^2 of the xi rule is still a finite float
    monkeypatch.chdir(tmp_path)
    common = ["potential", "--mirror", "silica", "--points", "32",
              "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*common, "--out", "bulk.json"]) == 0
        assert cli.main([*common, "--slab-nm", slab_nm,
                         "--out", "slab.json"]) == 0
    bulk, slab = (json.loads((tmp_path / name).read_text())
                  for name in ("bulk.json", "slab.json"))
    col = bulk["columns"].index("V_Eh")
    assert ([row[col] for row in slab["rows"]]
            == pytest.approx([row[col] for row in bulk["rows"]], rel=1e-9))


def test_numerical_failure_exits_1(run_main):
    # a grid clipped at 1e3 a0 ends before the far WKB-exact region: the
    # solve of the only point fails, and the solver's message reaches stderr
    cp = run_main("reflect", "--mirror", "perfect_conductor",
                  "--height-cm", "30", "--z-min-a0", "1e-8",
                  "--z-max-a0", "1e3", "--points", "200")
    assert cp.returncode == 1
    # the CLI's own message, not a crash that also exits 1
    assert "numerical failure: h = 0.3 m:" in cp.stderr, cp.stderr
    assert "WKB-exact region" in cp.stderr, cp.stderr


@pytest.mark.parametrize("height_cm, z_max, points", [
    ("30", "3e4", "300"), ("1e-6", "5e6", "300")])
def test_grid_clipped_past_z_end_min_solves(run_main, tmp_path, pc_table,
                                            height_cm, z_max, points):
    # the solve ends where r is read, at the landing point z_l, not where r
    # stopped changing: at 30 cm a grid clipped at 3e4 a0 holds z_l, and at
    # 1e-8 m one clipped at 5e6 a0 holds z_end_min but not z_l, so the solve
    # lands at z_end_min.  P must agree with the solver table's (measured
    # 1.8e-9 and 2.1e-11 apart)
    cp = run_main("reflect", "--mirror", "perfect_conductor",
                  "--height-cm", height_cm, "--z-min-a0", "1e-8",
                  "--z-max-a0", z_max, "--points", points,
                  "--format", "json", "--out", "r.json")
    assert cp.returncode == 0, cp.stderr
    (row,) = json.loads((tmp_path / "r.json").read_text())["rows"]
    full = solve_reflection(pc_table, CONSTANTS.energy_au_from_height(row[0]))
    assert row[2] == pytest.approx(full.probability, abs=1e-7)


def test_potential_on_a_window_without_asymptotic_regimes(monkeypatch,
                                                          tmp_path):
    # neither end of 10-1e5 a0 is a clean power law for a 5 nm slab: the
    # table is written anyway, with no coefficient
    monkeypatch.chdir(tmp_path)
    argv = ["potential", "--mirror", "silica", "--slab-nm", "5",
            "--z-min-a0", "10", "--z-max-a0", "1e5", "--points", "64",
            "--format", "json", "--out", "slab.json"]
    assert cli.main(argv) == 0
    fit = json.loads((tmp_path / "slab.json").read_text())["fit"]
    assert [fit[f"C{p}_Eh_a0{p}"] for p in (3, 4, 5)] == [None, None, None]
    assert all(math.isfinite(fit[k]) for k in ("near_exponent",
                                               "far_exponent"))


@pytest.mark.parametrize("heights", [["10", "10"], ["10", "10.00000001"]])
def test_badlands_heights_that_collide_exit_2(monkeypatch, tmp_path, capsys,
                                              heights):
    # the report keys its columns by %g of the height in metres; the check
    # comes before any table is built
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(cli, "build_potential_table", no_table)
    monkeypatch.chdir(tmp_path)
    argv = ["badlands", "--mirror", "perfect_conductor"]
    for h in heights:
        argv += ["--height-cm", h]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "heights must differ" in err and heights[-1] in err
    assert not list(tmp_path.iterdir())


def test_reproduce_table1(run_main, tmp_path):
    out = tmp_path / "t1.csv"
    cp = run_main("reproduce", "table1", "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    rows = [ln for ln in lines if ln.startswith("table1")]
    assert len(rows) == 6
    assert all(",pass," in row for row in rows)
    pc_c3 = next(r for r in rows if "perfect_conductor,c3" in r)
    assert float(pc_c3.split(",")[3]) == pytest.approx(0.25, rel=0.01)


def test_custom_material_file_path(run_main, tmp_path):
    custom = tmp_path / "mymat"
    custom.write_text("name = mymat\nosc = 0.27, 0.025, 0.0\n")
    out = tmp_path / "pot.csv"
    cp = run_main("potential", "--mirror", str(custom), "--points", "60",
                  "--z-min-a0", "0.5", "--z-max-a0", "1e6",
                  "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert "mymat" in out.read_text()


def test_potential_slab_far_exponent(run_main, tmp_path):
    out = tmp_path / "slab.json"
    cp = run_main("potential", "--mirror", "silica", "--slab-nm", "5",
                  "--z-min-a0", "1e-2", "--z-max-a0", "1e7",
                  "--format", "json", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    assert payload["fit"]["far_exponent"] == pytest.approx(5.0, abs=0.05)
    assert payload["fit"]["C5_Eh_a05"] is not None
    assert payload["fit"]["C4_Eh_a04"] is None


def test_reflect_silica_30cm(run_main, tmp_path):
    out = tmp_path / "silica.csv"
    cp = run_main("reflect", "--mirror", "silica", "--height-cm", "30",
                  "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    prob = float(out.read_text().splitlines()[1].split(",")[2])
    assert prob == pytest.approx(0.18, abs=0.03)


def test_reproduce_fig2_structural(run_main, tmp_path):
    out = tmp_path / "fig2.csv"
    cp = run_main("reproduce", "fig2", "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    text = out.read_text()
    assert ",fail," not in text
    # structural checks only: no numeric reference cells
    rows = [ln for ln in text.splitlines() if ln.startswith("fig2")]
    assert len(rows) == 3
    assert all(",pass," in r for r in rows)


def test_reproduce_fig1_structural(run_main, tmp_path):
    out = tmp_path / "fig1.csv"
    cp = run_main("reproduce", "fig1", "--out", str(out), "--no-timestamp")
    assert cp.returncode == 0, cp.stderr
    rows = [ln for ln in out.read_text().splitlines() if ln.startswith("fig1")]
    assert len(rows) == 2
    assert all(",pass," in r for r in rows)


def test_reproduce_fig1_failed_solve_exits_1(run_main, monkeypatch, tmp_path):
    # fig1 has no per-point error column: a failed solve is a numerical
    # failure of the run, reported by main, not a traceback
    def failing(table, energy_au):
        raise SolveError("no WKB-exact region (test)")

    monkeypatch.setattr(cli, "solve_reflection", failing)
    cp = run_main("reproduce", "fig1", "--no-timestamp")
    assert cp.returncode == 1
    assert cp.stderr == "numerical failure: no WKB-exact region (test)\n"
    assert not list(tmp_path.iterdir())
