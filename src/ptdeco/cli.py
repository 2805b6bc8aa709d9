"""Scenario runner: spectrum | figure1 | evolve | oracle-compare.

Configuration is a flat ``key=value`` text file plus command-line overrides
(last one wins). Every CSV is schema-stable: '#'-prefixed header comments,
fixed column order, 17-significant-digit numbers, no locale dependence,
byte-for-byte reproducible on identical configuration. Exit codes: 0
success, 1 numerical/validation failure, 2 usage or configuration error.

All outputs use hbar = 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dephasing, oracle, pt_core
from .errors import PtDecoError

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _fmt(x: float) -> str:
    """17-significant-digit, locale-independent float formatting."""
    return f"{float(x):.17g}"


def _fmt_rows(table) -> list[str]:
    """CSV lines of a 2-D float table, each cell as :func:`_fmt` gives it.

    One ``%`` operation per row: the same bytes as joining ``_fmt`` cells.
    """
    table = np.asarray(table, dtype=float)
    row_fmt = ",".join(["%.17g"] * table.shape[1])
    return [row_fmt % tuple(row) for row in table.tolist()]


def _label(x: float) -> str:
    """Shortest round-trip form, for header labels."""
    return repr(float(x))


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    alphas: tuple[float, ...] = (0.0, 0.5, 0.9, 1.0)
    j0: float = 1.0
    mu: float = -0.5
    omega_c: float = 1.0
    beta: float = 0.5
    t_start: float = 0.0
    t_end: float = 20.0
    n_points: int = 200
    tol: float = 1e-10
    modes: int = oracle.DEFAULT_N_MODES
    fock_dim: int = oracle.DEFAULT_FOCK_DIM
    omega_max: float = oracle.DEFAULT_OMEGA_MAX
    compare_tol: float = 1e-2
    state_r11: float = 0.5
    state_re12: float = 0.0
    state_im12: float = 0.5
    representation: str = "hermitian"
    out: str = ""

    def times(self) -> np.ndarray:
        if self.n_points < 2:
            raise ConfigError("n_points must be >= 2")
        if not (self.t_end > self.t_start >= 0.0):
            raise ConfigError("need t_end > t_start >= 0")
        return np.linspace(self.t_start, self.t_end, self.n_points)

    def models(self) -> list[dephasing.DephasingModel]:
        """One model per alpha; the bath and beta are range-checked here."""
        spectral = _checked(
            dephasing.SpectralDensity, j0=self.j0, mu=self.mu, omega_c=self.omega_c
        )
        return [
            _checked(dephasing.DephasingModel, alpha=a, beta=self.beta, spectral=spectral)
            for a in self.alphas
        ]


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; its parameter checks are config errors."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite_float(text: str) -> float:
    """A flag or config value that must be a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_alpha_list(text: str) -> tuple[float, ...]:
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    if not items:
        raise ConfigError("empty alpha list")
    try:
        return tuple(_finite_float(s) for s in items)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad alpha list {text!r}: {exc}") from exc


_CONFIG_PARSERS = {
    "alpha": ("alphas", _parse_alpha_list),
    "j0": ("j0", _finite_float),
    "mu": ("mu", _finite_float),
    "omega_c": ("omega_c", _finite_float),
    "beta": ("beta", _finite_float),
    "t_start": ("t_start", _finite_float),
    "t_end": ("t_end", _finite_float),
    "n_points": ("n_points", int),
    "tol": ("tol", _finite_float),
    "modes": ("modes", int),
    "fock_dim": ("fock_dim", int),
    "omega_max": ("omega_max", _finite_float),
    "compare_tol": ("compare_tol", _finite_float),
    "state_r11": ("state_r11", _finite_float),
    "state_re12": ("state_re12", _finite_float),
    "state_im12": ("state_im12", _finite_float),
    "representation": ("representation", str),
    "out": ("out", str),
}


def load_config_file(path: str, base: ScenarioConfig) -> ScenarioConfig:
    updates = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_PARSERS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                field_name, parser = _CONFIG_PARSERS[key]
                try:
                    updates[field_name] = parser(value.strip())
                except (ValueError, ConfigError, argparse.ArgumentTypeError) as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return replace(base, **updates)


#: Flags that are not a number: their argparse settings. Any other flag
#: parses as its config key does.
_FLAG_SETTINGS = {
    "out": dict(metavar="PATH", help="output CSV path"),
    "state": dict(
        metavar="R11,RE12,IM12",
        help="initial state entries r11, Re r12, Im r12 (r22 = 1 - r11)",
    ),
    "representation": dict(choices=["hermitian", "pt"]),
}

#: The flags every CSV-writing subcommand reads: output, bath and time grid.
_CSV_FLAGS = ("out", "beta", "mu", "j0", "omega_c", "t_end", "n_points")

#: Help text and flags of each subcommand: each takes only the flags it reads.
_SUBCOMMANDS = {
    "spectrum": ("eigenvalues and phase classification over an alpha grid", ()),
    "figure1": ("decoherence-function family D(t; alpha) as CSV", _CSV_FLAGS + ("tol",)),
    "evolve": (
        "exact reduced qubit trajectory as CSV",
        _CSV_FLAGS + ("tol", "state", "representation"),
    ),
    "oracle-compare": (
        "brute-force bath validation report as CSV",
        _CSV_FLAGS + ("modes", "fock_dim", "omega_max", "compare_tol"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdeco",
        description="Dephasing dynamics of PT-symmetric qubits (hbar = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--alpha", metavar="LIST", help="comma-separated alpha values")
        for flag in flags:
            settings = _FLAG_SETTINGS.get(flag) or dict(type=_CONFIG_PARSERS[flag][1])
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **settings)
    return parser


def build_config(args: argparse.Namespace, base: ScenarioConfig) -> ScenarioConfig:
    cfg = base
    if args.config:
        cfg = load_config_file(args.config, cfg)
    updates = {}
    for key, (field_name, _) in _CONFIG_PARSERS.items():
        value = getattr(args, key, None)
        if value is not None and key != "alpha":
            updates[field_name] = value
    if args.alpha is not None:
        updates["alphas"] = _parse_alpha_list(args.alpha)
    if getattr(args, "state", None) is not None:
        parts = [s.strip() for s in args.state.split(",")]
        if len(parts) != 3:
            raise ConfigError("--state expects three numbers: r11,re12,im12")
        try:
            r11, re12, im12 = (_finite_float(s) for s in parts)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"bad --state {args.state!r}: {exc}") from exc
        updates.update(state_r11=r11, state_re12=re12, state_im12=im12)
    return replace(cfg, **updates)


def _write_atomic(path: str, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; keep open()'s mode
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _require_unbroken_alphas(cfg: ScenarioConfig) -> None:
    bad = [a for a in cfg.alphas if abs(a) > 1.0]
    if bad:
        raise ConfigError(f"|alpha| <= 1 required here, got {bad}")


def cmd_spectrum(cfg: ScenarioConfig) -> int:
    if not cfg.alphas:
        raise ConfigError("empty alpha grid")
    for a in cfg.alphas:
        ham = dephasing.qubit_hamiltonian(a)
        report = pt_core.spectrum(ham)
        vals = []
        for v in report.eigenvalues:
            re = _fmt(v.real + 0.0)  # an exact conjugate pair may have real part -0.0
            vals.append(f"{re}{v.imag:+.17g}j" if abs(v.imag) > 1e-12 else re)
        print(
            f"alpha={_fmt(a)} classification={report.classification.value} "
            f"eigenvalues={','.join(vals)}"
        )
    return 0


def _header(cmd: str, cfg: ScenarioConfig, extra: list[str] | None = None) -> list[str]:
    lines = [
        f"# ptdeco {cmd}",
        "# hbar = 1",
        f"# j0 = {_fmt(cfg.j0)} mu = {_fmt(cfg.mu)} omega_c = {_fmt(cfg.omega_c)} "
        f"beta = {_fmt(cfg.beta)}",
        f"# alphas = {','.join(_label(a) for a in cfg.alphas)}",
        f"# t_start = {_fmt(cfg.t_start)} t_end = {_fmt(cfg.t_end)} "
        f"n_points = {cfg.n_points} tol = {_fmt(cfg.tol)}",
    ]
    if extra:
        lines.extend(extra)
    return lines


def cmd_figure1(cfg: ScenarioConfig) -> int:
    _require_unbroken_alphas(cfg)
    models = cfg.models()
    table = dephasing.sweep_alpha(
        cfg.alphas, cfg.times(), models[0].spectral, cfg.beta, tol=cfg.tol
    )
    lines = _header("figure1", cfg)
    lines.append("t," + ",".join(f"D_alpha={_label(a)}" for a in cfg.alphas))
    lines.extend(_fmt_rows(np.column_stack((table.times, table.decoherence))))
    out = cfg.out or "figure1.csv"
    _write_atomic(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_evolve(cfg: ScenarioConfig) -> int:
    _require_unbroken_alphas(cfg)
    if len(cfg.alphas) != 1:
        raise ConfigError("evolve expects exactly one alpha")
    if cfg.representation not in ("hermitian", "pt"):
        raise ConfigError(f"unknown representation {cfg.representation!r}")
    (model,) = cfg.models()
    times = cfg.times()
    r12 = cfg.state_re12 + 1j * cfg.state_im12
    rho0 = np.array(
        [[cfg.state_r11, r12], [np.conj(r12), 1.0 - cfg.state_r11]], dtype=complex
    )
    cmap = dephasing.qubit_transform(model.alpha) if cfg.representation == "pt" else None
    # the state at t = 0 needs no gamma: an inadmissible rho0 fails first
    dephasing.evolve_exact_given_d(rho0, model.e1, 0.0, 1.0)

    table = dephasing.sweep_alpha([model.alpha], times, model.spectral, model.beta, tol=cfg.tol)
    rhos = dephasing.evolve_exact_given_d(rho0, model.e1, times, table.decoherence[:, 0])
    if cmap is not None:
        rhos = pt_core.map_state_back(rhos, cmap)
    entries = rhos.reshape(times.size, 4)
    parts = np.stack((entries.real, entries.imag), axis=-1).reshape(times.size, 8)
    lines = _header("evolve", cfg, [f"# representation = {cfg.representation}"])
    names = [f"rho{i}{j}_{part}" for i in (1, 2) for j in (1, 2) for part in ("re", "im")]
    lines.append(",".join(["t"] + names))
    lines.extend(_fmt_rows(np.column_stack((times, parts))))
    out = cfg.out or "evolve.csv"
    _write_atomic(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_oracle_compare(cfg: ScenarioConfig) -> int:
    _require_unbroken_alphas(cfg)
    models = cfg.models()
    bath = _checked(
        oracle.discretize_bath, models[0].spectral, cfg.modes, cfg.omega_max, cfg.fock_dim
    )
    times = cfg.times()

    reports = [oracle.run_comparison(m.alpha, bath, m.beta, times) for m in models]
    pooled_c, pooled_resid = oracle.fit_decay_constant(
        np.concatenate([r.exponents for r in reports]),
        np.concatenate([r.brute_decoherence for r in reports]),
    )

    extra = [
        f"# modes = {cfg.modes} fock_dim = {cfg.fock_dim} omega_max = {_fmt(cfg.omega_max)}",
        f"# pooled fitted c = {_fmt(pooled_c)} pooled residual = {_fmt(pooled_resid)}",
    ]
    lines = _header("oracle-compare", cfg, extra)
    lines.append("alpha,t,exponent,D_analytic,D_brute,dev_D,dev_rho")
    for a, r in zip(cfg.alphas, reports):
        columns = [np.full(times.size, a), times, r.exponents, r.analytic_decoherence]
        columns += [r.brute_decoherence, r.dev_decoherence, r.dev_rho]
        lines.extend(_fmt_rows(np.column_stack(columns)))
    out = cfg.out or "oracle_compare.csv"
    _write_atomic(out, "\n".join(lines) + "\n")

    ok = pooled_resid <= cfg.compare_tol
    status = "PASS" if ok else "FAIL"
    print(
        f"{status} fitted_c={_fmt(pooled_c)} residual={_fmt(pooled_resid)} "
        f"tolerance={_fmt(cfg.compare_tol)} max_abs_dev={_fmt(max(r.max_abs_dev for r in reports))} "
        f"fock_tail={_fmt(max(r.fock_tail for r in reports))}"
    )
    print(f"wrote {out}")
    return 0 if ok else FAILURE_EXIT


_COMMAND_DEFAULTS = {
    "spectrum": ScenarioConfig(alphas=(0.0, 0.5, 0.9, 1.0, 1.1, 1.5)),
    "figure1": ScenarioConfig(),
    "evolve": ScenarioConfig(alphas=(0.6,)),
    "oracle-compare": ScenarioConfig(
        alphas=(0.0, 0.6),
        **asdict(oracle.DEFAULT_SPECTRAL),  # j0, mu, omega_c
        t_end=5.0,
        n_points=21,
    ),
}

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "figure1": cmd_figure1,
    "evolve": cmd_evolve,
    "oracle-compare": cmd_oracle_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args, _COMMAND_DEFAULTS[args.command])
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PtDecoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
