"""Scenario runner: spectrum | figure1 | evolve | oracle-compare.

Configuration is a flat ``key=value`` text file plus command-line overrides
(last one wins). Every CSV is schema-stable: '#'-prefixed header comments,
fixed column order, 17-significant-digit numbers, no locale dependence,
byte-for-byte reproducible on identical configuration on the same numpy
build and CPU (the cells depend on numpy's exp/sin/cos kernels). Exit codes:
0 success, 1 numerical/validation failure, 2 usage or configuration error.

All outputs use hbar = 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import dephasing, oracle, pt_core
from .errors import PtDecoError

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _fmt(x: float) -> str:
    """17-significant-digit, locale-independent float formatting."""
    return f"{float(x):.17g}"


#: Tables of fewer cells take one ``%`` per row: the array writer's fixed
#: cost per pass outweighs its lower cost per cell below about this size.
_ARRAY_MIN_CELLS = 1000
#: Cells per array pass (whole rows, at least one); bounds the writer's
#: temporaries to a few hundred kB.
_BLOCK_CELLS = 4096


def _fmt_rows(table) -> list[str]:
    """CSV lines of a 2-D float table, each cell as :func:`_fmt` gives it.

    Small tables take one ``%`` operation per row. Larger ones go through
    :func:`_fmt_block` a block of rows at a time, with the same bytes.
    """
    table = np.asarray(table, dtype=float)
    if table.size < _ARRAY_MIN_CELLS:
        row_fmt = ",".join(["%.17g"] * table.shape[1])
        return [row_fmt % tuple(row) for row in table.tolist()]
    step = max(1, _BLOCK_CELLS // table.shape[1])
    lines = []
    for start in range(0, len(table), step):
        lines.extend(_fmt_block(table[start : start + step]))
    return lines


#: Range of the decimal exponent p = 16 - k in ``|x| 10^p``, for the
#: k = floor(log10|x|) of every cell the array path formats: 1e-280 < |x| <
#: 1e280, and a computed log10 may land on the integer past either end.
_P_MIN, _P_MAX = 16 - 280, 16 + 281
#: Dekker's splitting constant 2^27 + 1: a double into two 26-bit halves.
_SPLIT = 134217729.0
#: Cell width in the assembly buffer: sign, up to 23 characters of a number
#: ("d.dddddddddddddddde-ddd", "0.000ddddddddddddddddd") and the separator.
#: ``'%.17g'`` of any double, sign included, fits in the first 24 bytes.
_CELL = 25
#: Layout of a cell's 24-byte digit row: the leading digit at byte 3, the
#: other 16 as four aligned 4-byte groups at bytes 4..19.
_LEAD = 3
#: Styles of a cell: fixed notation for k = -4..16 is style k + 4; the rest
#: take style _SCI, d.ddde+XX.
_SCI = 21


def _split(a):
    """Dekker's split of ``a`` into ``hi + lo``, each with 26 significant bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _pow10_parts(p: int) -> tuple[float, float, float, float]:
    """``10^p = hi + lo`` to about 2^-106 relative, from exact integer
    arithmetic, with Dekker's split of ``hi``."""
    num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
    hi = num / den  # correctly rounded
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    return (hi, lo, *_split(hi))


@functools.cache
def _pow10_table() -> np.ndarray:
    """Columns ``_pow10_parts(p)`` for p in [_P_MIN, _P_MAX], NaN until
    :func:`_pow10_rows` first needs them."""
    return np.full((4, _P_MAX - _P_MIN + 1), np.nan)


def _pow10_rows(p: np.ndarray) -> list[np.ndarray]:
    """``hi, lo`` and the split of ``hi`` of ``10^p``, per element of ``p``."""
    table = _pow10_table()
    idx = p - _P_MIN
    need = np.zeros(table.shape[1], dtype=bool)
    need[idx] = True
    for i in np.flatnonzero(need & np.isnan(table[0])):
        table[:, i] = _pow10_parts(int(i) + _P_MIN)
    return [row.take(idx) for row in table]


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ASCII of 0000..9999 as one uint32 per group; the number of
    trailing zero digits of each group (4 for 0000); and, for m = 0..17, the
    digit row mask that keeps the first m digits, as three uint64 words."""
    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):  # ascii4[a, b, c, d] spells abcd
        ascii4[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    zeros = np.zeros((10, 10, 10, 10), dtype=np.int64)
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[..., 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    byte = np.arange(24) - _LEAD
    masks = ((byte >= 0) & (byte < np.arange(18)[:, None])).astype(np.uint8) * np.uint8(255)
    return ascii4.view(np.uint32).ravel(), zeros.ravel(), masks.view(np.uint64)


def _fmt_block(block: np.ndarray) -> list[str]:
    """CSV lines of a 2-D float table, byte-identical to ``'%.17g' %`` per
    cell, computed for all cells at once.

    A cell with 1e-280 < |x| < 1e280 gets its 17 digits ``N`` and exponent
    ``k`` from ``|x| 10^(16-k)`` held as a double-double; the error of that
    sum is below 2^-46 units of ``N``. A cell whose rounding it cannot settle
    (within 2^-30 of a tie, every exact tie included), whose ``N`` is not
    surely in [1e16, 1e17) (``log10`` one off), or that lies outside that
    range or is not finite, is formatted by ``%`` itself.
    """
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    ax = np.abs(x)
    fast = (ax > 1e-280) & (ax < 1e280)  # False for 0, NaN and inf
    # every other cell runs through as 1.0, and is overwritten at the end
    safe = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(safe)).astype(np.int64)
    hi, lo, hh, hl = _pow10_rows(16 - k)
    # Dekker's two-product: prod + err == safe * hi exactly
    prod = safe * hi
    xh, xl = _split(safe)
    err = ((xh * hh - prod) + xh * hl + xl * hh) + xl * hl
    corr = err + safe * lo  # prod + corr = |x| 10^(16-k), up to ~1e-14
    whole = np.floor(corr)
    frac = corr - whole
    digits = prod.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # N = 10^16 also comes from an x just below 10^k whose k is one too big:
    # keep it only where |x| 10^(16-k) >= 1e16 for sure, or exactly
    above = (prod - 1e16) + corr
    exact = (err == 0.0) & (lo == 0.0) & (above == 0.0)
    fast &= (np.abs(frac - 0.5) > 2.0**-30) & ((above > 2.0**-30) | exact) & (digits < 10**17)

    # N as its leading digit and four groups of 4 (int64 // is vectorized)
    ascii4, zeros4, masks = _digit_tables()
    lead = digits // 10**16
    rest = digits - lead * 10**16
    groups = []
    for scale in (10**12, 10**8, 10**4):
        groups.append(rest // scale)
        rest -= groups[-1] * scale
    groups.append(rest)
    text = np.zeros((n, 24), dtype=np.uint8)
    text[:, _LEAD] = lead + 48
    words = text.view(np.uint32)
    tz = np.zeros(n, dtype=np.int64)
    for j, g in enumerate(groups):
        words[:, 1 + j] = ascii4.take(g)  # bytes 4 + 4j .. 7 + 4j
    for j, g in enumerate(reversed(groups)):
        tz += (tz == 4 * j) * zeros4.take(g)
    # keep the significant digits, and the integer digits of a fixed number
    fixed = (k >= -4) & (k < 17)
    keep = np.where(fixed, np.maximum(17 - tz, k + 1), 17 - tz)
    np.bitwise_and(text.view(np.uint64), masks.take(keep, axis=0), out=text.view(np.uint64))
    point = np.where(keep > np.where(fixed, k + 1, 1), ord("."), 0)

    # lay out each style on a contiguous run of rows, then put them back
    style = np.where(fixed, k + 4, _SCI).astype(np.int8)
    order = np.argsort(style, kind="stable")
    text, point, k = text.take(order, axis=0), point.take(order), k.take(order)
    d = _LEAD  # text[:, d + j] is digit j of N
    cells = np.zeros((n, _CELL), dtype=np.uint8)
    stop = 0
    for s, count in enumerate(np.bincount(style, minlength=_SCI + 1)):
        run = slice(stop, stop + count)
        stop += count
        if not count:
            continue
        cell, t = cells[run], text[run]
        if s == _SCI:  # d.ddde+XX
            e = k[run]
            cell[:, 1] = t[:, d]
            cell[:, 2] = point[run]
            cell[:, 3:19] = t[:, d + 1 : d + 17]
            cell[:, 19] = ord("e")
            cell[:, 20] = np.where(e < 0, ord("-"), ord("+"))
            exp = ascii4.take(np.abs(e)).view(np.uint8).reshape(count, 4)[:, 1:]
            exp[:, 0] *= np.abs(e) >= 100
            cell[:, 21:24] = exp
        elif s >= 4:  # ddd.ddd, k = s - 4 >= 0
            c = s - 4
            cell[:, 1 : c + 2] = t[:, d : d + c + 1]
            cell[:, c + 2] = point[run]
            cell[:, c + 3 : 19] = t[:, d + c + 1 : d + 17]
        else:  # 0.000ddd, k = s - 4 < 0
            c = 4 - s
            cell[:, 1 : 2 + c] = ord("0")
            cell[:, 2] = ord(".")
            cell[:, 2 + c : 19 + c] = t[:, d : d + 17]
    back = np.empty(n, dtype=np.intp)
    back[order] = np.arange(n)
    out = cells.take(back, axis=0)

    out[:, 0] = np.signbit(x) * ord("-")
    out[~fast, 1:] = 0
    out[x == 0.0, 1] = ord("0")
    for i in np.flatnonzero(~fast & (x != 0.0)):
        own = ("%.17g" % x[i]).encode("ascii")
        out[i, : len(own)] = np.frombuffer(own, dtype=np.uint8)
    sep = out[:, _CELL - 1].reshape(rows, cols)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


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
    except (OSError, UnicodeDecodeError) as exc:
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
    """Write ``text`` to ``path`` through a temporary file beside it; an OS
    error is a config error, and leaves no temporary file. A symlinked
    ``path`` is written through: its target is replaced, the link kept.

    The new file takes the permission bits of the file it replaces, or
    ``open()``'s default (0666 less the umask) where there is none. Being
    a new file, it has a new inode: a hard link to the old one keeps the
    old contents."""
    target = os.path.realpath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=os.path.basename(target) + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)  # mkstemp creates 0600
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
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


def _write_csv(cfg: ScenarioConfig, command: str, names, table, extra) -> str:
    """Write the CSV of ``command``: the header comments, ``extra`` comment
    lines, the column names and the rows of ``table``. Returns its path."""
    lines = [
        f"# ptdeco {command}",
        "# hbar = 1",
        f"# j0 = {_fmt(cfg.j0)} mu = {_fmt(cfg.mu)} omega_c = {_fmt(cfg.omega_c)} "
        f"beta = {_fmt(cfg.beta)}",
        f"# alphas = {','.join(_label(a) for a in cfg.alphas)}",
        f"# t_start = {_fmt(cfg.t_start)} t_end = {_fmt(cfg.t_end)} "
        f"n_points = {cfg.n_points} tol = {_fmt(cfg.tol)}",
        *extra,
        ",".join(names),
        *_fmt_rows(table),
    ]
    out = cfg.out or command.replace("-", "_") + ".csv"
    _write_atomic(out, "\n".join(lines) + "\n")
    return out


def cmd_figure1(cfg: ScenarioConfig) -> int:
    _require_unbroken_alphas(cfg)
    models = cfg.models()
    table = dephasing.sweep_alpha(
        cfg.alphas, cfg.times(), models[0].spectral, cfg.beta, tol=cfg.tol
    )
    names = ["t"] + [f"D_alpha={_label(a)}" for a in cfg.alphas]
    out = _write_csv(cfg, "figure1", names, np.column_stack((table.times, table.decoherence)), ())
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
    names = ["t"] + [f"rho{i}{j}_{part}" for i in (1, 2) for j in (1, 2) for part in ("re", "im")]
    out = _write_csv(
        cfg, "evolve", names, np.column_stack((times, parts)),
        [f"# representation = {cfg.representation}"],
    )
    print(f"wrote {out}")
    return 0


def cmd_oracle_compare(cfg: ScenarioConfig) -> int:
    _require_unbroken_alphas(cfg)
    models = cfg.models()
    bath = _checked(
        oracle.discretize_bath, models[0].spectral, cfg.modes, cfg.omega_max, cfg.fock_dim
    )
    r = oracle.run_comparison(cfg.alphas, bath, cfg.beta, cfg.times())

    extra = [
        f"# modes = {cfg.modes} fock_dim = {cfg.fock_dim} omega_max = {_fmt(cfg.omega_max)}",
        f"# pooled fitted c = {_fmt(r.fitted_c)} pooled residual = {_fmt(r.fit_residual)}",
    ]
    names = ["alpha", "t", "exponent", "D_analytic", "D_brute", "dev_D", "dev_rho"]
    columns = (r.alphas[:, None], r.times, r.exponents, r.analytic_decoherence)
    columns += (r.brute_decoherence, r.dev_decoherence, r.dev_rho)
    table = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(names))
    out = _write_csv(cfg, "oracle-compare", names, table, extra)

    ok = r.passes(cfg.compare_tol)
    print(
        f"{'PASS' if ok else 'FAIL'} fitted_c={_fmt(r.fitted_c)} residual={_fmt(r.fit_residual)} "
        f"tolerance={_fmt(cfg.compare_tol)} max_abs_dev={_fmt(r.max_abs_dev)} "
        f"fock_tail={_fmt(r.fock_tail)}"
    )
    print(f"wrote {out}")
    return 0 if ok else FAILURE_EXIT


class Subcommand(NamedTuple):
    help: str
    flags: tuple[str, ...]  # the flags it reads, past --config and --alpha
    defaults: ScenarioConfig
    run: Callable[[ScenarioConfig], int]


#: The flags every CSV-writing subcommand reads: output, bath and time grid.
_CSV_FLAGS = ("out", "beta", "mu", "j0", "omega_c", "t_end", "n_points")

_SUBCOMMANDS = {
    "spectrum": Subcommand(
        "eigenvalues and phase classification over an alpha grid",
        (),
        ScenarioConfig(alphas=(0.0, 0.5, 0.9, 1.0, 1.1, 1.5)),
        cmd_spectrum,
    ),
    "figure1": Subcommand(
        "decoherence-function family D(t; alpha) as CSV",
        _CSV_FLAGS + ("tol",),
        ScenarioConfig(),
        cmd_figure1,
    ),
    "evolve": Subcommand(
        "exact reduced qubit trajectory as CSV",
        _CSV_FLAGS + ("tol", "state", "representation"),
        ScenarioConfig(alphas=(0.6,)),
        cmd_evolve,
    ),
    "oracle-compare": Subcommand(
        "brute-force bath validation report as CSV",
        _CSV_FLAGS + ("modes", "fock_dim", "omega_max", "compare_tol"),
        ScenarioConfig(
            alphas=(0.0, 0.6),
            **asdict(oracle.DEFAULT_SPECTRAL),  # j0, mu, omega_c
            t_end=5.0,
            n_points=21,
        ),
        cmd_oracle_compare,
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ptdeco`` parser, built on the first call and shared after it:
    ``parse_args`` leaves a parser as it was, also when it exits on an error,
    so repeated :func:`main` calls in one process set up argparse once.
    Every caller gets this one object, so none may add to it."""
    parser = argparse.ArgumentParser(
        prog="ptdeco",
        description="Dephasing dynamics of PT-symmetric qubits (hbar = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--alpha", metavar="LIST", help="comma-separated alpha values")
        for flag in command.flags:
            settings = _FLAG_SETTINGS.get(flag) or dict(type=_CONFIG_PARSERS[flag][1])
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **settings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        command = _SUBCOMMANDS[args.command]
        return command.run(build_config(args, command.defaults))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PtDecoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
