import argparse
import decimal
import hashlib
import math
import os
import re
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest

from ptdeco import cli, dephasing, oracle, pt_core

from .conftest import count_calls

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # a test extra: only the property test needs it
    given = None

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

    @pytest.mark.parametrize("command", ["figure1", "evolve"])
    def test_gamma_function_overflow_is_one_line(self, command, tmp_path, capsys):
        # mu = 160 is inside the domain mu > -1, but Gamma(mu + 18) overflows
        out = tmp_path / "never.csv"
        assert run([command, "--mu", "160", "--n-points", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: QuadratureFailure: Gamma(mu + 18) overflows")
        assert len(err.splitlines()) == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("trailing", ["", "/"])
    def test_directory_out_is_config_error(self, tmp_path, capsys, trailing):
        # the temporary file is written, and the replace onto a directory fails
        out = tmp_path / "taken"
        out.mkdir()
        path = str(out) + trailing
        assert run(["figure1", "--out", path, "--n-points", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith(f"config error: cannot write {path}: ")
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    def test_existing_out_keeps_its_mode(self, tmp_path, mode):
        out = tmp_path / "fig1.csv"
        out.write_text("old\n")
        out.chmod(mode)
        assert run(["figure1", "--out", str(out), "--n-points", "3"]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_text().startswith("# ptdeco figure1\n")

    @pytest.mark.parametrize("umask", [0o027, 0o077], ids=oct)
    def test_new_out_takes_the_umask_default(self, tmp_path, umask):
        out = tmp_path / "fig1.csv"
        old = os.umask(umask)
        try:
            assert run(["figure1", "--out", str(out), "--n-points", "3"]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_symlinked_out_writes_its_target(self, tmp_path):
        target = tmp_path / "data" / "fig1.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("data", "fig1.csv"))
        assert run(["figure1", "--out", str(link), "--n-points", "3"]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        _, names, rows = read_rows(target)
        assert names[0] == "t" and len(rows) == 3
        assert sorted(p.name for p in target.parent.iterdir()) == ["fig1.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.csv"]


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
        cfg = cli.build_config(args, cli._SUBCOMMANDS["oracle-compare"].defaults)
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

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.cfg"
        cfgfile.write_bytes(b"beta = 0.5 # \xff\n")
        assert run(["figure1", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot read config {cfgfile}: ")

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
        res = subprocess.run(
            [sys.executable, "-m", "ptdeco", "spectrum", "--alpha", "0.5"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert "classification=Real" in res.stdout

    def test_truncation_warning_is_no_runtime_warning(self, tmp_path):
        # the default instance warns on its Fock tail; under -W
        # error::RuntimeWarning it still reports its verdict
        res = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning", "-m", "ptdeco",
                "oracle-compare", "--out", str(tmp_path / "cmp.csv"),
            ],
            capture_output=True,
            text=True,
        )
        assert res.returncode in (0, 1), res.stderr
        assert re.match(r"(PASS|FAIL) ", res.stdout), res.stdout
        assert "Traceback" not in res.stderr and "TruncationWarning" in res.stderr

    def test_import_loads_no_scipy(self):
        code = (
            "import ptdeco, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    def test_parser_is_shared(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_builds_the_parser_tree_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for alpha in ("0.5", "1.0", "1.5"):
            assert run(["spectrum", "--alpha", alpha]) == 0
        # the top-level parser and one per subcommand, all from the first call
        assert len(built) == 1 + len(cli._SUBCOMMANDS)
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            ["figure1", "--no-such-flag"],
            ["figure1", "--beta", "nan"],
            ["evolve", "--representation", "other"],
            ["no-such-command"],
            [],
        ],
    )
    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys, bad):
        argv = ["figure1", "--n-points", "3", "--beta", "2"]
        parser = cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        assert cli.build_parser() is parser
        assert run(argv + ["--out", str(tmp_path / "after.csv")]) == 0
        cli.build_parser.cache_clear()
        assert run(argv + ["--out", str(tmp_path / "fresh.csv")]) == 0
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        commands = [
            ["figure1", "--n-points", "50"],
            ["oracle-compare"],
            ["evolve", "--representation", "pt", "--n-points", "50"],
        ]
        for i, argv in enumerate(commands):
            alone, shared = tmp_path / f"alone{i}.csv", tmp_path / f"shared{i}.csv"
            res = subprocess.run(
                [sys.executable, "-m", "ptdeco", *argv, "--out", str(alone)],
                capture_output=True,
                text=True,
            )
            capsys.readouterr()
            assert run(argv + ["--out", str(shared)]) == res.returncode == 0, res.stderr
            out = capsys.readouterr().out
            assert out == res.stdout.replace(str(alone), str(shared))
            assert shared.read_bytes() == alone.read_bytes()


def per_cell(table):
    """The reference CSV lines: one ``%.17g`` (``cli._fmt``) per cell."""
    return [",".join(cli._fmt(v) for v in row) for row in np.asarray(table).tolist()]


def exact_ties():
    """Doubles whose exact decimal expansion has 18 significant digits and
    ends in 5: ties at the 17th digit, from 1e-8 to 1e14."""
    values = []
    for j in range(4, 27):  # m 2^-j = m 5^j 10^-j, with m odd
        lo, hi = -(-(10**17) // 5**j), (10**18 - 1) // 5**j
        for m in np.linspace(lo, min(hi, 2**53), 5).astype(np.int64) | 1:
            if lo <= m <= hi:
                values.append(math.ldexp(float(m), -j))
    return values


def edge_values():
    """Powers of ten and their neighbours, the fixed/scientific switches and
    the array writer's range ends, each with its neighbours; exact ties."""
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280])
    near = (switches[:, None] * (1.0 + np.arange(-6, 7) * 2.0**-52)).ravel()
    values = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), near, exact_ties()]
    )
    return np.concatenate([values, -values])


def as_table(values, cols):
    """``values`` as rows of ``cols`` cells, the last row padded with 1.5."""
    values = np.asarray(values, dtype=float)
    pad = np.full(-values.size % cols, 1.5)
    return np.concatenate([values, pad]).reshape(-1, cols)


def mixed_table(rng, rows, cols):
    """Cells over many magnitudes, with zeros, signed zeros and integers."""
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-30, 30, size=(rows, cols))
    table[::7, 0] = 0.0
    table[3::11, -1] = -0.0
    table[5::13, 1 % cols] = rng.integers(-1000, 1000, size=table[5::13].shape[0])
    return table


#: SHA-256 of the CSV bytes, and of its parsed cells as float64, of
#: bench-shaped and default runs as the one-``%``-per-row writer wrote them,
#: with the verdict line each printed first (None for "wrote PATH").
GOLDEN = {
    "figure1": (
        ["figure1", "--alpha", "0,0.3,0.5,0.7,0.9,0.99,1", "--n-points", "4000"],
        "c00ad1ff893a1158bf53c6d89f26a338f3b66dd6fa4d34df5cda9c74e4dc17f8",
        "c4e9b645b1868b5eb23fdec63b3ab2562bd3e38cede65d685c90518e521885b7",
        None,
    ),
    "evolve-pt": (
        ["evolve", "--representation", "pt", "--n-points", "4000"],
        "5acc2b43e4886f356e2c0d16e13859111f23d9663eeb38751a2a9647f593d3ae",
        "148d73aa7e84b99838307aa652ac94559f8781a4215d52b36ac6e5027cc82219",
        None,
    ),
    "evolve-hermitian": (
        ["evolve", "--representation", "hermitian", "--n-points", "4000"],
        "3314909dc5021c6ca20994546517fb432e53f031875c06740a5dfb5a0473c58e",
        "454cafb9c793daafe52fcbec8b2df03938fada3e9ebd203de7dd206b25f248ac",
        None,
    ),
    "oracle-compare": (
        ["oracle-compare"],
        "deb9a551f926852766e95fd49897f6a0a557b8bddfc73d4697fe8f2980c6bbf0",
        "4abd37a09fafe865cef88f5103dbcf09923a0cd951e0697ce99ff89c0c1f2cba",
        "PASS fitted_c=3.900854107777008 residual=0.0051019774353794345 tolerance=0.01 "
        "max_abs_dev=0.18270144580865588 fock_tail=0.0057811502837847419",
    ),
    # 4 x 101 rows of 7 cells: past _ARRAY_MIN_CELLS as one table
    "oracle-compare-4alpha": (
        ["oracle-compare", "--alpha", "0,0.3,0.6,0.9", "--n-points", "101"],
        "a45724255438121aa38ec5cbdef0e9faa2d70518e3fe462e5e84b89cd540f6b2",
        "20c56cf4a571fb99839dec15dd42ace1ff6adfb79fa6503c35b7df8e035afd6f",
        "PASS fitted_c=3.9008586626908528 residual=0.0053133497639378247 tolerance=0.01 "
        "max_abs_dev=0.18270144580865588 fock_tail=0.0057811502837847419",
    ),
}


class TestRowFormatting:
    def test_rows_match_per_cell_format(self, rng):
        special = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, 2.0]
        random_row = list(rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, size=6))
        table = [special, random_row]
        expected = per_cell(table)
        assert cli._fmt_rows(table) == expected
        assert cli._fmt_block(np.array(table)) == expected
        assert expected[0] == "-0,4.9406564584124654e-324,1e+308,0.10000000000000001,0.33333333333333331,2"

    if given is not None:

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(
            cols=st.integers(1, 6),
            cells=st.lists(
                st.one_of(
                    st.integers(0, 2**64 - 1).map(
                        lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]
                    ),
                    st.floats(),  # NaN, +-inf, +-0 and subnormals come often
                ),
                min_size=1,
                max_size=48,
            ),
        )
        def test_array_writer_on_any_bit_pattern(self, cols, cells):
            table = as_table(cells, cols)
            assert cli._fmt_block(table) == per_cell(table)

    @pytest.mark.parametrize("cols", [1, 8])
    def test_array_writer_on_edge_families(self, cols):
        table = as_table(edge_values(), cols)
        assert cli._fmt_block(table) == per_cell(table)

    def test_ties_are_ties(self):
        # the 17-digit rounding of each of these is an exact tie
        ties = exact_ties()
        assert len(ties) > 50
        for x in ties:
            digits = decimal.Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x

    def test_small_tables_take_percent(self, rng, monkeypatch):
        blocks = count_calls(monkeypatch, cli, "_fmt_block")
        cols = 8
        below = mixed_table(rng, cli._ARRAY_MIN_CELLS // cols - 1, cols)
        assert below.size < cli._ARRAY_MIN_CELLS
        assert cli._fmt_rows(below) == per_cell(below)
        assert blocks == []
        at = mixed_table(rng, -(-cli._ARRAY_MIN_CELLS // cols), cols)
        assert cli._fmt_rows(at) == per_cell(at)
        assert blocks == [at.shape]

    @pytest.mark.parametrize("cols", [3, 8])
    def test_blocks_cover_the_table(self, rng, monkeypatch, cols):
        blocks = count_calls(monkeypatch, cli, "_fmt_block")
        step = cli._BLOCK_CELLS // cols
        table = mixed_table(rng, 2 * step + 3, cols)
        assert cli._fmt_rows(table) == per_cell(table)
        assert blocks == [(step, cols), (step, cols), (3, cols)]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_csv(self, tmp_path, capsys, name):
        argv, csv_sha, cells_sha, verdict = GOLDEN[name]
        out = tmp_path / "golden.csv"
        assert run(argv + ["--out", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[-1] == f"wrote {out}"
        data = out.read_bytes()
        lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
        cells = [line.split(",") for line in lines[1:]]  # after the column names
        # %.17g round-trips: every cell is its own %.17g exactly when written right
        assert all(cli._fmt(float(c)) == c for row in cells for c in row)
        values = np.array(cells, dtype=float)
        if hashlib.sha256(values.tobytes()).hexdigest() != cells_sha:
            pytest.skip("this build's numerics differ in the last bits from the golden run")
        assert hashlib.sha256(data).hexdigest() == csv_sha
        assert stdout[:-1] == ([verdict] if verdict else [])


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
