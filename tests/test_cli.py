"""End-to-end CLI tests. Each runs ``python -m qrmirror`` through the
``run_cli`` fixture (``conftest.py``); most start it from ``tmp_path`` to
check that the CLI does not depend on the working directory.
"""

import json

import pytest

from qrmirror import cli


def test_help(run_cli):
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "quantum reflection" in cp.stdout


def test_material_list(run_cli):
    cp = run_cli("material", "list")
    assert cp.returncode == 0
    names = cp.stdout.split()
    for expected in ("perfect_conductor", "silicon", "silica", "diamond",
                     "graphene"):
        assert expected in names


def test_material_show(run_cli):
    cp = run_cli("material", "show", "silicon")
    assert cp.returncode == 0
    assert "11.87" in cp.stdout


def test_unknown_material_exits_2(run_cli):
    cp = run_cli("material", "show", "unobtainium")
    assert cp.returncode == 2


def test_vacuum_mirror_rejected(run_cli, tmp_path):
    cp = run_cli("potential", "--mirror", "vacuum", cwd=tmp_path)
    assert cp.returncode == 2
    assert "not a mirror" in cp.stderr


def test_zero_height_rejected(run_cli, tmp_path):
    cp = run_cli("reflect", "--mirror", "silica", "--height-cm", "0",
                 cwd=tmp_path)
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
    path = tmp_path / "both"
    path.write_text("name = both\nkind = perfect_conductor\n"
                    "osc = 1.0, 0.5, 0.1\n")
    monkeypatch.chdir(tmp_path)
    argv = ["potential", "--mirror", str(path), "--points", "16"]
    assert cli.main(argv) == 2
    assert f"{path}:3: a perfect_conductor file takes no osc lines" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


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


def test_slab_and_porosity_conflict(run_cli, tmp_path):
    cp = run_cli("potential", "--mirror", "silica", "--slab-nm", "5",
                 "--porosity", "0.5", cwd=tmp_path)
    assert cp.returncode == 2


def test_potential_perfect_conductor_csv(run_cli, tmp_path):
    out = tmp_path / "pot.csv"
    cp = run_cli("potential", "--mirror", "perfect_conductor",
                 "--out", str(out), "--no-timestamp", cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    c4_line = next(ln for ln in lines if ln.startswith("# C4_Eh_a04"))
    c4 = float(c4_line.split("=")[1].split(";")[0])
    assert c4 == pytest.approx(73.6, rel=0.01)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "z_a0,z_nm,V_Eh,V_neV,V_over_Vstar"


def test_potential_json_schema(run_cli, tmp_path):
    out = tmp_path / "pot.json"
    cp = run_cli("potential", "--mirror", "perfect_conductor",
                 "--format", "json", "--out", str(out),
                 "--points", "60", "--z-min-a0", "0.5", "--z-max-a0", "1e6",
                 cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["fit"]["C4_Eh_a04"] == pytest.approx(73.6, rel=0.015)
    assert payload["columns"][:4] == ["z_a0", "z_nm", "V_Eh", "V_neV"]


def test_deterministic_output_without_timestamp(run_cli, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        cp = run_cli("potential", "--mirror", "perfect_conductor",
                     "--points", "40", "--z-min-a0", "1", "--z-max-a0", "1e5",
                     "--out", str(out), "--no-timestamp", cwd=tmp_path)
        assert cp.returncode == 0, cp.stderr
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_header_present_by_default(run_cli, tmp_path):
    out = tmp_path / "c.csv"
    cp = run_cli("potential", "--mirror", "perfect_conductor",
                 "--points", "40", "--z-min-a0", "1", "--z-max-a0", "1e5",
                 "--out", str(out), cwd=tmp_path)
    assert cp.returncode == 0
    assert out.read_text().startswith("# generated:")


def test_reflect_perfect_conductor_30cm(run_cli, tmp_path):
    out = tmp_path / "refl.csv"
    cp = run_cli("reflect", "--mirror", "perfect_conductor",
                 "--height-cm", "30", "--out", str(out), "--no-timestamp",
                 cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "h_m,E_neV,refl_prob,loss,re_r,im_r,flux_drift"
    prob = float(lines[1].split(",")[2])
    assert prob == pytest.approx(0.05, abs=0.01)


def test_badlands_trends(run_cli, tmp_path):
    out = tmp_path / "bad.json"
    cp = run_cli("badlands", "--mirror", "perfect_conductor",
                 "--height-cm", "10", "--height-cm", "30", "--height-cm", "50",
                 "--format", "json", "--out", str(out), cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    peaks = payload["peaks"]
    qs = [peaks[k]["Q"] for k in ("0.1", "0.3", "0.5")]
    zs = [peaks[k]["z_a0"] for k in ("0.1", "0.3", "0.5")]
    assert qs[0] > qs[1] > qs[2]
    assert zs[0] > zs[1] > zs[2]


def test_lifetime_command(run_cli, tmp_path):
    out = tmp_path / "life.csv"
    cp = run_cli("lifetime", "--mirror", "perfect_conductor",
                 "--out", str(out), "--no-timestamp", cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "material,porosity,im_a_nm,lifetime_s"
    tau = float(lines[1].split(",")[3])
    assert tau == pytest.approx(0.11, rel=0.20)


def test_config_file_with_cli_override(run_cli, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("mirror = perfect_conductor\n"
                   "points = 40\n"
                   "z_min_a0 = 1\n"
                   "z_max_a0 = 1e5\n"
                   "no_timestamp = true\n")
    out1 = tmp_path / "one.csv"
    cp = run_cli("potential", "--config", str(cfg), "--out", str(out1),
                 cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert "perfect conductor" in out1.read_text()
    # CLI flag overrides the config value
    out2 = tmp_path / "two.csv"
    cp = run_cli("potential", "--config", str(cfg), "--mirror", "silicon",
                 "--out", str(out2), cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert "silicon" in out2.read_text()


def test_bad_config_key_exits_2(run_cli, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("flux_capacitor = 1\n")
    cp = run_cli("potential", "--config", str(cfg),
                 "--mirror", "perfect_conductor", cwd=tmp_path)
    assert cp.returncode == 2


def test_numerical_failure_exits_1(run_cli, tmp_path):
    # grid clipped so the far WKB-exact region is off-table
    cp = run_cli("reflect", "--mirror", "perfect_conductor",
                 "--height-cm", "30", "--z-min-a0", "1e-8",
                 "--z-max-a0", "1e3", "--points", "200", cwd=tmp_path)
    assert cp.returncode == 1
    # the CLI's own message, not a crash that also exits 1
    assert "numerical failure:" in cp.stderr, cp.stderr


def test_reproduce_table1(run_cli, tmp_path):
    out = tmp_path / "t1.csv"
    cp = run_cli("reproduce", "table1", "--out", str(out), "--no-timestamp",
                 cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    rows = [ln for ln in lines if ln.startswith("table1")]
    assert len(rows) == 6
    assert all(",pass," in row for row in rows)
    pc_c3 = next(r for r in rows if "perfect_conductor,c3" in r)
    assert float(pc_c3.split(",")[3]) == pytest.approx(0.25, rel=0.01)


def test_custom_material_file_path(run_cli, tmp_path):
    custom = tmp_path / "mymat"
    custom.write_text("name = mymat\nosc = 0.27, 0.025, 0.0\n")
    out = tmp_path / "pot.csv"
    cp = run_cli("potential", "--mirror", str(custom), "--points", "60",
                 "--z-min-a0", "0.5", "--z-max-a0", "1e6",
                 "--out", str(out), cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert "mymat" in out.read_text()


def test_potential_slab_far_exponent(run_cli, tmp_path):
    out = tmp_path / "slab.json"
    cp = run_cli("potential", "--mirror", "silica", "--slab-nm", "5",
                 "--z-min-a0", "1e-2", "--z-max-a0", "1e7",
                 "--format", "json", "--out", str(out), cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(out.read_text())
    assert payload["fit"]["far_exponent"] == pytest.approx(5.0, abs=0.05)
    assert payload["fit"]["C5_Eh_a05"] is not None
    assert payload["fit"]["C4_Eh_a04"] is None


def test_reflect_silica_30cm(run_cli, tmp_path):
    out = tmp_path / "silica.csv"
    cp = run_cli("reflect", "--mirror", "silica", "--height-cm", "30",
                 "--out", str(out), "--no-timestamp", cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    prob = float(out.read_text().splitlines()[1].split(",")[2])
    assert prob == pytest.approx(0.18, abs=0.03)


def test_reproduce_fig2_structural(run_cli, tmp_path):
    out = tmp_path / "fig2.csv"
    cp = run_cli("reproduce", "fig2", "--out", str(out), "--no-timestamp",
                 cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    text = out.read_text()
    assert ",fail," not in text
    # structural checks only: no numeric reference cells
    rows = [ln for ln in text.splitlines() if ln.startswith("fig2")]
    assert len(rows) == 3
    assert all(",pass," in r for r in rows)


def test_reproduce_fig1_structural(run_cli, tmp_path):
    out = tmp_path / "fig1.csv"
    cp = run_cli("reproduce", "fig1", "--out", str(out), "--no-timestamp",
                 cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    rows = [ln for ln in out.read_text().splitlines() if ln.startswith("fig1")]
    assert len(rows) == 2
    assert all(",pass," in r for r in rows)
