import hashlib
import re
import sys

import numpy as np
import pytest

from ptdeco import cli, dephasing, oracle, pt_core

pytestmark = pytest.mark.filterwarnings("ignore::ptdeco.errors.TruncationWarning")


def run(argv):
    return cli.main(argv)


def read_rows(path):
    """(header_comments, column_names, data rows as float lists)."""
    comments, names, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(x) if x else float("nan") for x in line.split(",")])
    return comments, names, rows


class TestSpectrumCommand:
    def test_classifications(self, capsys):
        assert run(["spectrum", "--alpha", "0.5,1.0,1.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "classification=Real" in out[0]
        assert "classification=ExceptionalPoint" in out[1]
        assert "classification=ComplexPairs" in out[2]

    def test_empty_grid_usage_error(self, capsys):
        assert run(["spectrum", "--alpha", ""]) == 2
        assert "config error" in capsys.readouterr().err

    def test_closed_form_value(self, capsys):
        assert run(["spectrum", "--alpha", "0.9"]) == 0
        out = capsys.readouterr().out
        assert f"{np.sqrt(0.19):.17g}"[:10] in out

    def test_broken_phase_allowed_here(self, capsys):
        assert run(["spectrum", "--alpha", "1.5"]) == 0

    def test_exact_pairs_print_no_negative_zero(self, capsys):
        assert run(["spectrum", "--alpha", "1.1,1.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("classification=ComplexPairs") == 2
        # "-0" not followed by a digit or a point is a signed zero
        assert re.search(r"-0(?![.\d])", out) is None, out


class TestFigure1Command:
    def test_default_family(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert run(["figure1", "--out", str(out), "--n-points", "30"]) == 0
        comments, names, rows = read_rows(out)
        assert any("hbar = 1" in c for c in comments)
        assert names == ["t", "D_alpha=0.0", "D_alpha=0.5", "D_alpha=0.9", "D_alpha=1.0"]
        first = rows[0]
        assert first[0] == 0.0
        assert all(v == 1.0 for v in first[1:])
        for row in rows:
            if row[0] > 0.5:
                assert row[1] < row[2] < row[3] < row[4] == 1.0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["figure1", "--n-points", "12", "--t-end", "6.0"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        ha = hashlib.sha256(a.read_bytes()).hexdigest()
        hb = hashlib.sha256(b.read_bytes()).hexdigest()
        assert ha == hb

    def test_quadrature_failure_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run(
            ["figure1", "--out", str(out), "--n-points", "8", "--tol", "1e-18"]
        )
        assert code == 1
        assert not out.exists()
        assert "QuadratureFailure" in capsys.readouterr().err

    def test_broken_alpha_rejected(self, capsys):
        assert run(["figure1", "--alpha", "0.5,1.2"]) == 2

    def test_existing_tmp_file_survives(self, tmp_path):
        out = tmp_path / "fig1.csv"
        user_file = tmp_path / "fig1.csv.tmp"
        user_file.write_text("not ours\n")
        assert run(["figure1", "--out", str(out), "--n-points", "4"]) == 0
        assert user_file.read_text() == "not ours\n"
        assert out.stat().st_mode == user_file.stat().st_mode  # open()'s default mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1.csv", "fig1.csv.tmp"]

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fig1.csv"
        assert run(["figure1", "--out", str(out), "--n-points", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith(f"config error: cannot write {out}")
        assert not out.parent.exists()
        assert list(tmp_path.iterdir()) == []


class TestEvolveCommand:
    def test_maximally_mixed_constant(self, tmp_path):
        out = tmp_path / "ev.csv"
        assert (
            run(
                [
                    "evolve", "--alpha", "0.5", "--state", "0.5,0,0",
                    "--n-points", "6", "--t-end", "3", "--out", str(out),
                ]
            )
            == 0
        )
        _, names, rows = read_rows(out)
        for row in rows:
            np.testing.assert_allclose(row[1:], [0.5, 0, 0, 0, 0, 0, 0.5, 0], atol=1e-14)

    def test_alpha0_pt_equals_hermitian(self, tmp_path):
        argv = ["evolve", "--alpha", "0", "--n-points", "5", "--t-end", "2"]
        h, p = tmp_path / "h.csv", tmp_path / "p.csv"
        assert run(argv + ["--representation", "hermitian", "--out", str(h)]) == 0
        assert run(argv + ["--representation", "pt", "--out", str(p)]) == 0
        _, _, rows_h = read_rows(h)
        _, _, rows_p = read_rows(p)
        np.testing.assert_allclose(rows_h, rows_p, atol=1e-12)

    def test_pt_trajectory_unit_trace_non_hermitian(self, tmp_path):
        out = tmp_path / "pt.csv"
        assert (
            run(
                [
                    "evolve", "--alpha", "0.6", "--representation", "pt",
                    "--n-points", "8", "--t-end", "4", "--out", str(out),
                ]
            )
            == 0
        )
        _, _, rows = read_rows(out)
        saw_non_hermitian = False
        for row in rows:
            t, r11re, r11im, r12re, r12im, r21re, r21im, r22re, r22im = row
            assert r11re + r22re == pytest.approx(1.0, abs=1e-12)
            assert r11im + r22im == pytest.approx(0.0, abs=1e-12)
            if abs(r12re - r21re) > 1e-6 or abs(r12im + r21im) > 1e-6:
                saw_non_hermitian = True
        assert saw_non_hermitian

    def test_inconsistent_state_exit1(self, capsys):
        code = run(["evolve", "--alpha", "0.5", "--state", "0.7,0.1,0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "InconsistentInitialState" in err
        assert "r11(0) = 1/2 - Re r12(0)" in err

    def test_inconsistent_state_reported_before_gamma(self, tmp_path, capsys):
        # a tolerance no gamma(t) can meet: the state check must come first
        out = tmp_path / "ev.csv"
        argv = ["evolve", "--state", "0.7,0.1,0", "--tol", "1e-18", "--out", str(out)]
        assert run(argv) == 1
        assert "InconsistentInitialState" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("representation", ["hermitian", "pt"])
    def test_matches_per_time_evolve_exact(self, tmp_path, representation):
        out = tmp_path / "ev.csv"
        argv = [
            "evolve", "--alpha", "0.7", "--state", "0.5,0,-0.4", "--beta", "2",
            "--n-points", "25", "--t-end", "9", "--representation", representation,
            "--out", str(out),
        ]
        assert run(argv) == 0
        _, _, rows = read_rows(out)
        model = dephasing.DephasingModel(0.7, 2.0, dephasing.SpectralDensity(1.0, -0.5, 1.0))
        rho0 = np.array([[0.5, -0.4j], [0.4j, 0.5]])
        cmap = dephasing.qubit_transform(0.7)
        for row in rows:
            rho = dephasing.evolve_exact(model, rho0, row[0])
            if representation == "pt":
                rho = pt_core.map_state_back(rho, cmap)
            expected = np.column_stack((rho.real.ravel(), rho.imag.ravel())).ravel()
            np.testing.assert_allclose(row[1:], expected, rtol=0.0, atol=1e-15)


class TestOracleCompareCommand:
    def test_default_instance_passes(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run(["oracle-compare", "--out", str(out), "--n-points", "11"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("PASS")
        assert "fitted_c=" in stdout
        comments, names, rows = read_rows(out)
        assert names[0] == "alpha"
        assert any("pooled fitted c" in c for c in comments)

    def test_tight_tolerance_fails(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run(
            [
                "oracle-compare", "--out", str(out), "--n-points", "11",
                "--compare-tol", "1e-9",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_defaults_are_the_oracle_constants(self):
        args = cli.build_parser().parse_args(["oracle-compare"])
        cfg = cli.build_config(args, cli._COMMAND_DEFAULTS["oracle-compare"])
        assert (cfg.modes, cfg.fock_dim, cfg.omega_max) == (
            oracle.DEFAULT_N_MODES, oracle.DEFAULT_FOCK_DIM, oracle.DEFAULT_OMEGA_MAX
        )
        spectral = oracle.DEFAULT_SPECTRAL
        assert (cfg.j0, cfg.mu, cfg.omega_c) == (spectral.j0, spectral.mu, spectral.omega_c)


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment line\n"
            "alpha = 0.0,0.5\n"
            "t_end = 4.0\n"
            "n_points = 5\n"
        )
        out = tmp_path / "o.csv"
        assert (
            run(
                [
                    "figure1", "--config", str(cfgfile), "--out", str(out),
                    "--n-points", "7",  # flag wins over file
                ]
            )
            == 0
        )
        _, names, rows = read_rows(out)
        assert len(rows) == 7
        assert names == ["t", "D_alpha=0.0", "D_alpha=0.5"]
        assert rows[-1][0] == 4.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("frobnicate = 3\n")
        assert run(["figure1", "--config", str(cfgfile)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file_rejected(self, capsys):
        assert run(["figure1", "--config", "/nonexistent/x.cfg"]) == 2

    def test_bad_value_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("beta = warm\n")
        assert run(["figure1", "--config", str(cfgfile)]) == 2


class TestParameterChecks:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["figure1", "--beta", "0"], "beta"),
            (["figure1", "--j0", "-1"], "j0"),
            (["evolve", "--omega-c", "0"], "omega_c"),
            (["oracle-compare", "--modes", "0"], "modes"),
            (["oracle-compare", "--fock-dim", "1"], "fock_dim"),
            (["oracle-compare", "--omega-max", "-1"], "omega_max"),
            (["figure1", "--mu", "-1"], "mu"),
            (["evolve", "--mu", "-1.5"], "mu"),
            (["oracle-compare", "--mu", "-3"], "mu"),
        ],
    )
    def test_out_of_range_is_one_line_config_error(self, tmp_path, capsys, argv, name):
        out = tmp_path / "never.csv"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert name in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--alpha", "nan"],
            ["evolve", "--alpha", "nan"],
            ["spectrum", "--alpha", "nan"],
            ["oracle-compare", "--alpha", "0,nan"],
            ["evolve", "--state", "0.5,0,nan"],
        ],
    )
    def test_non_finite_alpha_or_state_is_config_error(self, tmp_path, capsys, argv):
        out_flag = [] if argv[0] == "spectrum" else ["--out", str(tmp_path / "never.csv")]
        assert run(argv + out_flag) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--beta", "nan"],
            ["figure1", "--mu", "nan"],
            ["evolve", "--t-end", "inf"],
            ["oracle-compare", "--omega-max=-inf"],
        ],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_config_value_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("beta = nan\n")
        assert run(["figure1", "--config", str(cfgfile)]) == 2
        assert "bad value for beta" in capsys.readouterr().err


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--tol", "5"],
            ["spectrum", "--out", "x.csv"],
            ["figure1", "--modes", "7"],
            ["evolve", "--fock-dim", "3"],
            ["oracle-compare", "--tol", "1e-8"],
        ],
    )
    def test_unread_flag_is_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_keys_stay_shared(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("modes = 3\nfock_dim = 4\nn_points = 3\n")
        out = tmp_path / "o.csv"
        assert run(["figure1", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert len(read_rows(out)[2]) == 3


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        import subprocess

        res = subprocess.run(
            [sys.executable, "-m", "ptdeco", "spectrum", "--alpha", "0.5"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert "classification=Real" in res.stdout

    def test_import_loads_no_scipy(self):
        import subprocess

        code = (
            "import ptdeco, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestRowFormatting:
    def test_rows_match_per_cell_format(self, rng):
        special = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, 2.0]
        random_row = list(rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, size=6))
        table = [special, random_row]
        expected = [",".join(cli._fmt(v) for v in row) for row in table]
        assert cli._fmt_rows(table) == expected
        assert expected[0] == "-0,4.9406564584124654e-324,1e+308,0.10000000000000001,0.33333333333333331,2"


class TestCriticalPointRepresentation:
    def test_pt_representation_rejected_at_alpha_one(self, capsys):
        # the PT-representation state diverges at the critical point; the
        # hermitian representation still works there
        code = run(
            ["evolve", "--alpha", "1.0", "--representation", "pt",
             "--n-points", "4", "--t-end", "1"]
        )
        assert code == 1
        assert "ExceptionalPoint" in capsys.readouterr().err

    def test_hermitian_representation_works_at_alpha_one(self, tmp_path):
        out = tmp_path / "frozen.csv"
        assert (
            run(
                ["evolve", "--alpha", "1.0", "--representation", "hermitian",
                 "--n-points", "4", "--t-end", "1", "--out", str(out)]
            )
            == 0
        )
        _, _, rows = read_rows(out)
        for row in rows[1:]:
            np.testing.assert_allclose(row[1:], rows[0][1:], atol=1e-14)
