"""Scenario layer: config parsing, synthetic users, sweeps and reports.

A scenario is an INI-style text file with sections

* ``[users]`` or ``[generator]`` -- explicit user list, or bounds for a
  synthetic population standing in for a site-measured one,
* ``[sweep]``   -- XPD values (dB), models, trials per user, optional
  antenna pattern file (read and checked with the config),
* ``[link]``    -- system constants (all optional, LTE defaults),
* ``[seed]``    -- master seed.

The parser maps each key through one table onto a keyword argument of
:class:`UserSpec`, :class:`GeneratorBounds`, :class:`Scenario` or
:class:`~dualpolsim.link.LinkParams`. Those dataclasses hold every
default and every range rule, so one built in code is checked exactly
as a parsed one.

Running a scenario produces, per (model, XPD) pair, a pooled empirical
throughput CDF over all users, plus a summary table mapping each XPD to
its correlation coefficient and equivalent antenna spacings. Outputs
are plain CSV plus one metadata text file.

Reproducibility: a run draws from one PCG64DXSM stream seeded by
``[seed, RUN_TAG]``. Each user's Gram matrices are drawn once per run,
at its point of that stream: the run's start advanced by a 128-bit hash
of the user id. Users are drawn a block at a time: each user's raw
variates are pulled at its own point, as a draw of that user alone
would pull them, and the arithmetic that makes them Gram matrices runs
once per block, elementwise, so the block changes no sample. Every
(XPD, model) task of the user reads that one draw. So a user's draws
depend on the seed and its id only, and CDFs of different models and
XPDs are paired samples (common random numbers).
Reports are byte-identical for identical (config, seed), and a subset of
a sweep (fewer XPDs, models or users, in any order) reproduces the full
sweep's samples of that subset.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import io
import math
import numbers
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .correlation import (
    LAPLACIAN_SPREAD_DEG,
    AodDistribution,
    NoSolutionError,
    SpacingQuery,
    equivalent_spacing,
    _xpd_rho,
)
from .link import MODELS, LinkParams, _sigma, cdf, draw_grams, evaluate_user
from .pattern import (
    MAX_ABS_DB, RadiationPattern, gain_at, load_pattern, scale_to_xpd,
)

__all__ = [
    "ConfigError",
    "UserSpec",
    "GeneratorBounds",
    "Scenario",
    "TableRow",
    "RunReport",
    "parse_scenario",
    "generate_users",
    "run",
    "format_table_csv",
    "write_report",
]

DEFAULT_XPD_SWEEP_DB = (3.0, 5.0, 10.0, 20.0, 30.0)
#: Laplacian AoD spread of the paper's reference scenario.
DEFAULT_SPREAD_DEG = 26.0
DEFAULT_USER_COUNT = 100
# Size limits, checked when a scenario is parsed or built. Within them
# a run, report included, peaks under MAX_RSS_MIB resident: README
# "Scenario files" gives the bytes measured per sample, row and task.
#: Most samples one pooled (model, XPD) CDF may hold: users x trials per user.
MAX_CDF_SAMPLES = 5 * 10**6
#: Most samples a run may pool over all its cells: users x trials per user x cells.
MAX_RUN_SAMPLES = 4 * 10**7
#: Most users a scenario may hold.
MAX_USERS = 10**4
#: Most (model, XPD) cells a run may pool: models x XPDs.
MAX_CELLS = 100
#: Peak resident memory, in MiB, that the limits above keep a run under.
MAX_RSS_MIB = 2048
#: Rows per block in which a CDF file is formatted and written.
_CDF_BLOCK_ROWS = 4096
#: Most trials of one block of users whose Gram matrices a run draws at once.
_DRAW_BLOCK_TRIALS = 4096
#: Second word of the run stream's seed key; the population stream uses 0xA0D.
RUN_TAG = 0x5EED


class ConfigError(ValueError):
    """Raised for malformed scenario configuration; names the location."""


def _check_size(users: int, trials_per_user: int, cells: int) -> None:
    """Reject a run over :data:`MAX_CDF_SAMPLES`, then over the other size limits."""
    if users * trials_per_user > MAX_CDF_SAMPLES:
        raise ValueError(
            f"users x trials_per_user = {users} x {trials_per_user} exceeds the "
            f"{MAX_CDF_SAMPLES:.0e} samples a pooled CDF may hold"
        )
    if users > MAX_USERS:
        raise ValueError(f"{users} users exceed the {MAX_USERS} a scenario may hold")
    if cells > MAX_CELLS:
        raise ValueError(f"models x XPDs = {cells} cells exceed the {MAX_CELLS} a run may pool")
    if users * trials_per_user * cells > MAX_RUN_SAMPLES:
        raise ValueError(
            f"users x trials_per_user x cells = {users} x {trials_per_user} x {cells} "
            f"exceeds the {MAX_RUN_SAMPLES:.0e} samples a run may pool"
        )


@dataclass(frozen=True)
class UserSpec:
    """One simulated user position, reduced to link-relevant quantities; angles in radians."""

    user_id: str
    path_loss_db: float
    mean_aod: float
    aod_spread: float = math.radians(DEFAULT_SPREAD_DEG)
    #: Laplacian AoD law of ``mean_aod`` and ``aod_spread``, built (and checked) once.
    aod: AodDistribution = field(init=False, repr=False, compare=False)
    #: 128-bit BLAKE2b hash of the id: how far the user's substream lies along a run's stream.
    stream_key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.user_id, str):
            raise ValueError(f"user id must be a str, got {type(self.user_id).__name__}")
        object.__setattr__(self, "stream_key", int.from_bytes(
            hashlib.blake2b(self.user_id.encode(), digest_size=16).digest(), "little"))
        if not 0.0 <= self.path_loss_db <= MAX_ABS_DB:
            raise ValueError(
                f"user {self.user_id}: path loss must lie in [0, {MAX_ABS_DB:g}] dB"
            )
        try:
            aod = AodDistribution.laplacian(self.mean_aod, self.aod_spread)
        except ValueError as exc:
            raise ValueError(f"user {self.user_id}: {exc}") from None
        object.__setattr__(self, "aod", aod)


@dataclass(frozen=True)
class GeneratorBounds:
    """Knobs of the synthetic user population.

    Path loss follows a log-distance model over uniformly drawn
    distances; mean AoD is uniform in a sector; the Laplacian spread is
    fixed or drawn uniformly from a range.
    """

    distance_m: tuple[float, float] = (3.0, 60.0)
    path_loss_exponent: float = 3.0
    reference_loss_db: float = 41.0
    sector_deg: float = 120.0
    sector_center_deg: float = 0.0
    aod_spread_deg: tuple[float, float] = (DEFAULT_SPREAD_DEG, DEFAULT_SPREAD_DEG)

    def __post_init__(self) -> None:
        lo, hi = self.distance_m
        if not (0 < lo <= hi):
            raise ValueError("degenerate distance bounds: need 0 < min <= max")
        if not self.path_loss_exponent > 0:
            raise ValueError("path loss exponent must be positive")
        if not 0.0 <= self.sector_deg <= 360.0:
            raise ValueError("sector width must lie in [0, 360] degrees")
        half = self.sector_deg / 2.0
        if not -180.0 <= self.sector_center_deg - half <= self.sector_center_deg + half <= 180.0:
            raise ValueError(
                "sector_center_deg +- sector_deg/2 must lie within [-180, 180] degrees"
            )
        lo, hi = LAPLACIAN_SPREAD_DEG
        if not lo <= self.aod_spread_deg[0] <= self.aod_spread_deg[1] <= hi:
            raise ValueError(
                f"degenerate AoD spread bounds: need {lo:g} <= min <= max <= {hi:g} degrees"
            )

    def path_loss_db(self, distance_m) -> np.ndarray:
        return self.reference_loss_db + 10.0 * self.path_loss_exponent * np.log10(
            np.asarray(distance_m, dtype=float)
        )


@dataclass(frozen=True)
class Scenario:
    """Fully validated simulation description; it holds its pattern, so a run reads no file."""

    users: tuple[UserSpec, ...]
    xpd_sweep_db: tuple[float, ...] = DEFAULT_XPD_SWEEP_DB
    models: tuple[str, ...] = ("ii",)
    link: LinkParams = field(default_factory=LinkParams)
    seed: int = 0
    trials_per_user: int = 1000
    pattern: RadiationPattern | None = None
    pattern_reference_deg: float = 0.0
    table_spread_deg: float = DEFAULT_SPREAD_DEG

    def __post_init__(self) -> None:
        if len(self.users) == 0:
            raise ValueError("scenario needs at least one user")
        if len({u.user_id for u in self.users}) != len(self.users):
            raise ValueError("user ids must be unique: substreams are keyed by them")
        _check_xpd_sweep(self.xpd_sweep_db, "xpd_db")
        for name in ("trials_per_user", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a Python int, so that the size check below cannot wrap around
            object.__setattr__(self, name, int(value))
        if self.trials_per_user < 1:
            raise ValueError("trials_per_user must be >= 1")
        _check_size(len(self.users), self.trials_per_user,
                    len(self.models) * len(self.xpd_sweep_db))
        if len(self.models) == 0:
            raise ValueError("scenario needs at least one model")
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"models {list(self.models)} name a model twice")
        bad = [m for m in self.models if m not in MODELS]
        if bad:
            raise ValueError(f"unknown models {bad}; expected subset of {MODELS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not math.isfinite(self.pattern_reference_deg):
            raise ValueError("pattern_reference_deg must be finite")
        lo, hi = LAPLACIAN_SPREAD_DEG
        if not lo <= self.table_spread_deg <= hi:
            raise ValueError(f"table_spread_deg must lie in [{lo:g}, {hi:g}] degrees")


@dataclass(frozen=True)
class TableRow:
    """One XPD point of the summary table."""

    xpd_db: float
    rho_exact: float
    rho_approx: float
    d_iso_lambda: float
    d_lap_lambda: float
    spread_deg: float


@dataclass(frozen=True)
class RunReport:
    """Everything a scenario run produces."""

    table_rows: tuple[TableRow, ...]
    cdf_series: dict
    metadata: dict


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _floats(raw: str, where: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{where}: expected numbers, got {raw!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{where}: expected finite numbers, got {raw!r}")
    return vals


def _models(raw: str) -> tuple[str, ...]:
    """Model tags of a comma- or space-separated list."""
    return tuple(raw.replace(",", " ").split())


def _check_xpd_sweep(values, where: str) -> None:
    """Reject an empty XPD sweep, a repeated value or ``{:g}`` file label, then
    a value beyond +-:data:`MAX_ABS_DB` dB or NaN, naming ``where``.

    Equal values with distinct labels, such as 0 and -0, would share one
    pooled (model, XPD) cell.
    """
    labels = [f"{x:g}" for x in values]
    if not labels or len(set(labels)) != len(labels) or len(set(values)) != len(values):
        raise ConfigError(f"{where}: need at least one XPD value and no two that "
                          f"are equal or print alike, got {labels}")
    if not all(abs(v) <= MAX_ABS_DB for v in values):
        raise ConfigError(f"{where}: dB values must lie within +-{MAX_ABS_DB:g} dB")


def _one_float(raw: str, where: str) -> float:
    vals = _floats(raw, where)
    if len(vals) != 1:
        raise ConfigError(f"{where}: expected a single number, got {raw!r}")
    return vals[0]


def _one_int(raw: str, where: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _range(raw: str, where: str) -> tuple[float, float]:
    vals = _floats(raw, where)
    if len(vals) not in (1, 2):
        raise ConfigError(f"{where}: expected one or two numbers, got {raw!r}")
    return (vals[0], vals[-1])


def _one_angle(raw: str, where: str) -> float:
    """One angle written in degrees, returned in radians."""
    return math.radians(_one_float(raw, where))


# Per section, file key -> (keyword of the dataclass the section builds,
# reader of its text); [sweep] and [seed] both build the Scenario, and
# [generator] ``count`` is the size argument of generate_users.
_KEYS = {
    "generator": {
        "count": ("count", _one_int),
        "distance_m": ("distance_m", _range),
        "path_loss_exponent": ("path_loss_exponent", _one_float),
        "reference_loss_db": ("reference_loss_db", _one_float),
        "sector_deg": ("sector_deg", _one_float),
        "sector_center_deg": ("sector_center_deg", _one_float),
        "aod_spread_deg": ("aod_spread_deg", _range),
    },
    "sweep": {
        "xpd_db": ("xpd_sweep_db", _floats),
        "models": ("models", lambda raw, where: _models(raw)),
        "trials_per_user": ("trials_per_user", _one_int),
        "pattern_file": ("pattern", lambda raw, where: _read_pattern(Path(raw)) if raw else None),
        "pattern_reference_deg": ("pattern_reference_deg", _one_float),
        "table_spread_deg": ("table_spread_deg", _one_float),
    },
    "link": {
        "bandwidth_hz": ("effective_bandwidth", _one_float),
        "overhead": ("overhead_fraction", _one_float),
        "max_spectral_efficiency": ("max_spectral_efficiency", _one_float),
        "noise_density_dbm_hz": ("noise_density_dbm_hz", _one_float),
    },
    "seed": {"value": ("seed", _one_int)},
}

# The key=value tokens of one [users] line, which builds a UserSpec.
_USER_KEYS = {
    "path_loss_db": ("path_loss_db", _one_float),
    "mean_aod_deg": ("mean_aod", _one_angle),
    "spread_deg": ("aod_spread", _one_angle),
}


def _read(items, keys: dict, where: str) -> dict:
    """Keyword arguments of the ``(key, text)`` pairs ``items`` read through ``keys``."""
    kwargs = {}
    for key, raw in items:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")
        name, reader = keys[key]
        kwargs[name] = reader(raw, f"{where} {key}")
    return kwargs


def _read_text(path: Path) -> str:
    """UTF-8 text of a file, BOM dropped, whatever the locale; else a :class:`ConfigError`."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def _read_pattern(path: Path) -> RadiationPattern:
    """The pattern file at ``path``, loaded; an unreadable file is a :class:`ConfigError`."""
    try:
        return load_pattern(_read_text(path))
    except OSError as exc:
        raise ConfigError(f"cannot read pattern file {path}: {exc}") from None


@contextmanager
def _config_errors(prefix: str):
    """Re-raise a ``ValueError`` as a :class:`ConfigError` whose message starts with ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_user_line(user_id: str, raw: str) -> UserSpec:
    where = f"[users] {user_id}"
    tokens = {}
    for token in raw.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ConfigError(f"{where}: expected key=value tokens, got {token!r}")
        if key in tokens:
            raise ConfigError(f"duplicate key {key!r} in {where}")
        tokens[key] = value
    kwargs = _read(tokens.items(), _USER_KEYS, where)
    missing = {"path_loss_db", "mean_aod_deg"} - tokens.keys()
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    with _config_errors("[users] "):  # UserSpec messages already name the user
        return UserSpec(user_id, **kwargs)


def parse_scenario(source: str) -> Scenario:
    """Parse and validate scenario text into a :class:`Scenario`.

    Each section's keys become keyword arguments of the dataclass it
    builds; omitted keys keep the dataclass defaults (the LTE defaults
    for ``[link]``) and the dataclasses check every range. Raises
    :class:`ConfigError` naming the offending section and key for
    unknown keys, malformed or out-of-range values, duplicate user ids
    and missing required sections. A ``pattern_file`` is read here: an
    unreadable one is a :class:`ConfigError`, a malformed one a
    :class:`~dualpolsim.pattern.PatternFormatError` naming its line.
    """
    # default_section="" cannot be named by a header, so a [DEFAULT]
    # section is an unknown section rather than defaults for every section
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    parser.optionxform = str  # keys and user ids are case-sensitive, as section names are
    try:
        parser.read_string(source)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key {exc.option!r} in [{exc.section}]") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in _KEYS and section != "users":
            raise ConfigError(f"unknown section [{section}]")
    has_users = parser.has_section("users")
    has_gen = parser.has_section("generator")
    if not has_users and not has_gen:
        raise ConfigError("missing required section: provide [users] or [generator]")
    if has_users and has_gen:
        raise ConfigError("provide either [users] or [generator], not both")

    kwargs = {name: _read(parser[name].items(), keys, f"[{name}]")
              for name, keys in _KEYS.items() if parser.has_section(name)}
    scenario_kwargs = {**kwargs.get("sweep", {}), **kwargs.get("seed", {})}
    with _config_errors("[link]: "):
        link = LinkParams(**kwargs.get("link", {}))

    if has_users:
        users = tuple(_parse_user_line(uid, raw) for uid, raw in parser["users"].items())
        if not users:
            raise ConfigError("[users] section is empty")
    else:
        generator = kwargs["generator"]
        count = generator.pop("count", DEFAULT_USER_COUNT)
        cells = (len(scenario_kwargs.get("models", Scenario.models))
                 * len(scenario_kwargs.get("xpd_sweep_db", Scenario.xpd_sweep_db)))
        with _config_errors("[generator] count: "):  # before a user is drawn
            _check_size(count, scenario_kwargs.get("trials_per_user", Scenario.trials_per_user),
                        cells)
        # population substream: keyed away from the run stream, whose
        # key ends in RUN_TAG; a negative seed fails here, before
        # Scenario sees it
        with _config_errors("[seed] value: "):
            seq = np.random.SeedSequence([scenario_kwargs.get("seed", Scenario.seed), 0xA0D])
        with _config_errors("[generator]: "):
            users = tuple(generate_users(count, np.random.default_rng(seq),
                                         GeneratorBounds(**generator)))

    with _config_errors(""):
        return Scenario(users=users, link=link, **scenario_kwargs)


def generate_users(
    count: int, rng: np.random.Generator, bounds: GeneratorBounds
) -> list[UserSpec]:
    """Draw a synthetic user population within the given bounds.

    Distances are uniform between the bounds and mapped through the
    log-distance path loss; mean AoDs are uniform in the sector. The
    draw is fully determined by the generator state.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d_lo, d_hi = bounds.distance_m
    distances = rng.uniform(d_lo, d_hi, count)
    half_sector = math.radians(bounds.sector_deg) / 2.0
    center = math.radians(bounds.sector_center_deg)
    mean_aods = center + rng.uniform(-half_sector, half_sector, count)
    s_lo, s_hi = bounds.aod_spread_deg
    spreads = np.radians(rng.uniform(s_lo, s_hi, count))
    losses = bounds.path_loss_db(distances)
    return [
        UserSpec(
            user_id=f"u{k:04d}",
            path_loss_db=float(losses[k]),
            mean_aod=float(mean_aods[k]),
            aod_spread=float(spreads[k]),
        )
        for k in range(count)
    ]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _channel_terms(loss: np.ndarray, omni: np.ndarray, xpd_db: float, gains) -> tuple:
    """:func:`~dualpolsim.link._sigma`'s (alpha, beta, omni, rho) of a block's users at ``xpd_db``.

    ``omni`` is 1 / ``loss``; ``gains`` is None or the users' ``(co,
    cross)`` gains of the rescaled pattern. Also returns the first user
    failing a per-user channel's checks (``len(loss)`` if none) and the
    message; only pattern gains can fail them.
    """
    if gains is None:
        chi = 10.0 ** (xpd_db / 10.0)
        return ((omni, omni), (omni / chi,) * 2, omni, _xpd_rho(chi, chi)), len(loss), ""
    co, cross = gains
    # power that port t radiates cross-polarized arrives through the other polarization
    alpha, beta = co / loss, cross[::-1] / loss
    with np.errstate(divide="ignore", invalid="ignore"):  # zero cross gain: infinite XPD
        chi = co / cross
        terms = (alpha, beta, omni, _xpd_rho(*chi))
    port = np.concatenate((alpha, beta))
    failed = np.array([~np.isfinite(port).all(0), (port < 0).any(0),
                       (alpha + beta <= 0).any(0), *~(chi > 0)])
    k = int(failed.any(0).argmax())
    if not failed[:, k].any():
        return terms, len(loss), ""
    messages = ("gains must be finite", "gains must be >= 0",
                "each port needs some received power (alpha + beta > 0)",
                *(f"chi{i} must be a positive linear XPD, got {float(c[k])}"
                  for i, c in enumerate(chi, 1)))
    return terms, k, messages[int(failed[:, k].argmax())]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether float arrays ``a`` and ``b`` hold the same bit patterns.

    Bits and not values, so that -0.0 and 0.0, or NaNs of different
    payloads, count as different.
    """
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _summary_table(xpd_sweep_db, spread_deg: float) -> tuple[TableRow, ...]:
    """Correlation and equivalent spacings per XPD; ``spread_deg`` sets d_lap."""
    lap = AodDistribution.laplacian(0.0, math.radians(spread_deg))
    iso = AodDistribution.isotropic()
    rows = []
    for xpd_db in xpd_sweep_db:
        chi = 10.0 ** (xpd_db / 10.0)
        # the coefficients of dualpole_corr_exact and dualpole_corr_approx at chi
        rho_exact, rho_approx = float(_xpd_rho(chi, chi)), min(2.0 / math.sqrt(chi), 1.0)
        d_iso = equivalent_spacing(SpacingQuery(rho_exact, iso))
        try:
            d_lap = equivalent_spacing(SpacingQuery(rho_exact, lap))
        except NoSolutionError:
            d_lap = math.nan  # unreachable on the first branch: an empty cell
        rows.append(TableRow(xpd_db=xpd_db, rho_exact=rho_exact, rho_approx=rho_approx,
                             d_iso_lambda=d_iso, d_lap_lambda=d_lap, spread_deg=spread_deg))
    return tuple(rows)


def run(scenario: Scenario) -> RunReport:
    """Execute the full sweep and assemble a report; no file is read.

    The pattern, if any, is rescaled once per XPD. The users, in id
    order, go in blocks of at most :data:`_DRAW_BLOCK_TRIALS` trials (one
    user if it draws more). Before a block's draw, XPD by XPD, one
    :func:`~dualpolsim.pattern.gain_at` call reads the rescaled pattern
    at the users' mean AoDs and :func:`_channel_terms` gives their Sigma
    inputs in array passes, checked as per-user channels would be; model
    iii's spacing is checked per (user, XPD). One
    :func:`~dualpolsim.link.draw_grams` call then draws each user's
    ``trials_per_user`` Gram matrices from its substream (see the module
    docstring). Per (XPD, model), one array pass gives the block's Sigma,
    and each user's task evaluates its Sigma on the user's one draw, into
    the user's slice of one float64 column per (model, XPD). After the
    last block, XPD by XPD, each column becomes one read-only empirical
    CDF, unless it equals an earlier model's column of the same XPD bit
    for bit (models ii and iv without a pattern, every model at 0 dB):
    then its key holds that model's CDF object. A summary table covering
    the sweep is included.

    Module errors are re-raised naming the failing step: the XPD of a
    failed rescale or pattern lookup, the user and XPD of a failed
    channel check, the user, XPD and model of a failed spacing check or
    task. Checks go user by user through the whole sweep, so the error
    names the first failing user by id, at its first failing XPD.
    """
    # canonical user order, so that the first failing user is the same
    # whatever the config listing order; substreams follow the user id
    ordered_users = sorted(scenario.users, key=lambda u: u.user_id)
    stream = np.random.PCG64DXSM(np.random.SeedSequence([scenario.seed, RUN_TAG]))
    run_start = stream.state
    rng = np.random.Generator(stream)

    # Scenario guarantees unique models and XPD labels, so no key repeats
    n = scenario.trials_per_user
    per_block = max(1, _DRAW_BLOCK_TRIALS // n)
    columns = {(model, xpd_db): np.empty(len(ordered_users) * n)
               for xpd_db in scenario.xpd_sweep_db for model in scenario.models}
    user = xpd_db = model = None  # loop variables of the step running; None: not in that loop
    try:
        sweep = []  # (XPD, the pattern rescaled to it or None)
        for xpd_db in scenario.xpd_sweep_db:
            sweep.append((xpd_db, None if scenario.pattern is None else scale_to_xpd(
                scenario.pattern, xpd_db, math.radians(scenario.pattern_reference_deg))))
        for start in range(0, len(ordered_users), per_block):
            block = ordered_users[start:start + per_block]
            user = model = None
            aods = np.array([spec.mean_aod for spec in block])
            loss = np.array([10.0 ** (spec.path_loss_db / 10.0) for spec in block])
            omni, sigmas = 1.0 / loss, np.empty((4, len(block)))  # Sigma of one (XPD, model)
            plan = []  # (XPD, the block's terms at it, its first failing user, the message)
            for xpd_db, scaled in sweep:
                plan.append((xpd_db, *_channel_terms(
                    loss, omni, xpd_db, None if scaled is None else gain_at(scaled, aods))))
            # pair p is user p // len(plan) at XPD p % len(plan): checks go pair by pair
            first, x = min((bad, x) for x, (_, _, bad, _) in enumerate(plan))
            if "iii" in scenario.models:
                model = "iii"
                rhos = np.stack([np.broadcast_to(terms[3], len(block))
                                 for _, terms, _, _ in plan], axis=1).ravel()
                for p, rho in enumerate(rhos[:first * len(plan) + x].tolist()):
                    user, xpd_db = block[p // len(plan)], plan[p % len(plan)][0]
                    equivalent_spacing(SpacingQuery(rho, user.aod), root=False)
            if first < len(block):
                user, (xpd_db, _, _, message), model = block[first], plan[x], None
                raise ValueError(message)
            user = xpd_db = model = None
            features, det_w = draw_grams(rng, run_start, [spec.stream_key for spec in block], n)
            for xpd_db, terms, _, _ in plan:
                for model in sorted(scenario.models):  # so model iv may reuse iii's Sigma
                    if model != "iv" or "iii" not in scenario.models:
                        sigmas[:] = _sigma(model, *terms)
                    rows = columns[(model, xpd_db)][start * n:].reshape(-1, n)
                    for k, (user, row, sigma) in enumerate(zip(block, rows, sigmas.T)):
                        row[:] = evaluate_user(sigma.tolist(), model, (features[k], det_w[k]), n,
                                               scenario.link).throughput
    except (ValueError, ArithmeticError) as exc:
        steps = (user and f"user {user.user_id}", xpd_db is not None and f"xpd {xpd_db:g} dB",
                 model and f"model {model}")
        raise type(exc)(f"{', '.join(filter(None, steps)) or 'draw'}: {exc}") from exc
    # the last block's draw and plan need not stay resident while the CDFs are sorted
    del features, det_w, plan, terms
    cdf_series = {}
    for xpd_db in scenario.xpd_sweep_db:
        # this XPD's columns, freed when the next XPD's are taken
        cells = {model: columns.pop((model, xpd_db)) for model in scenario.models}
        for k, (model, column) in enumerate(cells.items()):
            twin = next((m for m in scenario.models[:k] if _same_bits(cells[m], column)), None)
            if twin is None:
                cdf_series[(model, xpd_db)] = cdf(column)
                cdf_series[(model, xpd_db)].flags.writeable = False
            else:
                cdf_series[(model, xpd_db)] = cdf_series[(twin, xpd_db)]

    metadata = {
        "version": __version__,
        "seed": scenario.seed,
        "trials_per_user": scenario.trials_per_user,
        "users": len(scenario.users),
        "models": ",".join(scenario.models),
        "xpd_db": ",".join(f"{x:g}" for x in scenario.xpd_sweep_db),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return RunReport(table_rows=_summary_table(scenario.xpd_sweep_db, scenario.table_spread_deg),
                     cdf_series=cdf_series, metadata=metadata)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def format_table_csv(rows) -> str:
    """CSV text of the summary table; a NaN d_lap is written as an empty field."""
    out = io.StringIO()
    out.write("xpd_db,rho_exact,rho_approx,d_iso_lambda,d_lap_lambda,spread_deg\n")
    for r in rows:
        d_lap = "" if math.isnan(r.d_lap_lambda) else f"{r.d_lap_lambda:.6f}"
        out.write(
            f"{r.xpd_db:g},{r.rho_exact:.6f},{r.rho_approx:.6f},"
            f"{r.d_iso_lambda:.6f},{d_lap},{r.spread_deg:g}\n"
        )
    return out.getvalue()


def _percent_texts(fmt: str, column: np.ndarray) -> np.ndarray:
    """(k, width) ``uint8`` matrix of the ``fmt % v`` texts of a k-value ``column``, NUL-padded.

    One ``%`` call formats the column; ``fmt`` must write no whitespace,
    as ``%.3f`` and ``%.10g`` write none, not even for nan or inf.
    """
    texts = np.array(((fmt + "\n") * column.size % tuple(column.tolist())).encode().split())
    return texts.view(np.uint8).reshape(column.size, -1)


@functools.lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of 4-byte texts, each NUL-padded and read as one ``uint32``.

    ``lead[i]`` is ``%d`` of i, empty for 0; ``tail[i]`` is ``%d`` of i,
    ``tail[10000 + i]`` is ``%04d`` of i and ``tail[20000 + i]`` is
    ``%04d`` of i less its trailing zeros, empty for 0, for i < 10000;
    ``decimals[i]`` is ``.%03d`` of i, for i < 1000. Each section is
    built from its own generator, so one list of texts is held at a time.
    """
    def table(texts):
        return np.array(list(texts), dtype="S4").view(np.uint32)

    numbers = range(10000)
    tail = np.concatenate((table(map(str, numbers)), table(f"{i:04d}" for i in numbers),
                           table(f"{i:04d}".rstrip("0") for i in numbers)))
    lead = tail[:10000].copy()
    lead[0] = 0
    return lead, tail, table(f".{i:03d}" for i in range(1000))


def _millis(v: np.ndarray) -> np.ndarray:
    """round-half-even(v * 1000) exactly, in int64, for v == 0 or 1 <= v < 2**26.

    With ``v = m * 2**(e - 53)`` for an integer mantissa ``m < 2**53``,
    ``v * 1000`` is ``m * 1000`` (below 2**63) shifted right by
    ``53 - e`` bits, 27 to 53; the bits shifted out decide the rounding,
    as ``%.3f`` rounds.
    """
    frac, exp = np.frexp(v)
    scaled = np.ldexp(frac, 53).astype(np.int64) * 1000
    shift = (53 - exp).astype(np.int64)
    k = scaled >> shift
    rem = scaled - (k << shift)
    half = np.int64(1) << (shift - 1)
    return k + ((rem > half) | ((rem == half) & (k & 1 == 1)))


def _value_field(values: np.ndarray) -> np.ndarray:
    """(n, width) ``uint8`` matrix of the ``%.3f`` texts of ``values``, NUL-padded.

    +0.0 and values in [1, 2**26), which hold every throughput from
    1 bit/s to the cap, are written in 12 bytes from their exact
    :func:`_millis` through :func:`_digit_tables`. Every other value
    (-0.0, NaN, +-inf, negative, in (0, 1) or from 2**26) goes through
    one ``%.3f`` pass (:func:`_percent_texts`).
    """
    fast = ((values >= 1.0) & (values < 2.0**26)) | (values.view(np.int64) == 0)
    every = fast.all()
    k = _millis(values if every else values[fast])
    ip, dec = np.divmod(k, 1000)
    hi, lo = np.divmod(ip, 10000)
    lead, tail, decimals = _digit_tables()
    texts = np.empty((k.size, 3), np.uint32)
    texts[:, 0] = lead[hi]
    texts[:, 1] = tail[lo + 10000 * (hi > 0)]
    texts[:, 2] = decimals[dec]
    texts = texts.view(np.uint8)
    if every:
        return texts
    slow = _percent_texts("%.3f", values[~fast])
    field = np.zeros((values.size, max(12, slow.shape[1])), np.uint8)
    field[fast, :12] = texts
    field[~fast, :slow.shape[1]] = slow
    return field


def _prob_rows(rows: np.ndarray, column: np.ndarray, start: int, n: int) -> None:
    """Write the ``%.10g`` texts of rows ``start`` on of an N-row probability column into ``rows``.

    ``rows`` are those rows of :func:`_prob_field`; e is the decade
    [10**e, 10**(e + 1)) of i/N at the first row, -4 to -1, or 0 at
    i/N = 1. A row whose probability has the bits of the double i/N
    takes its text from the rational: ``q, r = divmod(i * 10**(9 - e), N)``
    is exact in int64, and ``q + (2r > N)``, if in [10**9, 10**10), is
    the mantissa that ``%.10g`` rounds i/N to, unless the double may round
    otherwise: ``|2r - N| <= N // 10**5 + 2``. The text is ``0.`` and
    -1 - e zeros before the mantissa's digits less their trailing zeros,
    or ``1``. The rows left over go through one ``%`` pass
    (:func:`_percent_texts`): rows below 1e-4, which print in e-notation,
    rows near a rounding tie or of a later decade, rows whose bits are
    not i/N, and every row when N > 9.2e8 (i * 10**13 would overflow).
    """
    # the decade of i/N at the first row, -5 below 1e-4
    e = -next((k for k in range(5) if (start + 1) * 10**k >= n), 5)
    ranks = np.arange(start + 1, start + 1 + column.size)
    written = (ranks / n).view(np.int64) == column.view(np.int64)
    written &= e >= -4 and n <= np.iinfo(np.int64).max // 10**10
    if written.any():
        ranks *= 10 ** (9 - e)
        q, r = np.divmod(ranks, n, out=(np.empty_like(ranks), ranks))
        # scaled, the double i/N lies within 1.2e-6 of the rational, so it
        # rounds alike unless 2r lies within 2.4e-6 N of N
        r *= 2
        r -= n
        q += r > 0
        np.abs(r, out=r)
        written &= (r > n // 10**5 + 2) & (q >= 10**9) & (q < 10**10)
        q[~written] = 10**9  # any mantissa, so that every table index below is in range
        a, q = np.divmod(q, 10**8, out=(r, q))
        b, c = np.divmod(q, 10**4)
        # after the leading "0": a word of "." and -1 - e zeros, then the two
        # digits of a and four each of b and c; the last group that is not
        # all zeros loses its trailing zeros, a as the "%04d" of 100 a
        _, tail, _ = _digit_tables()
        words = np.empty((column.size, 4), np.uint32)
        words[:, 0] = np.frombuffer(b".000"[:-e].ljust(4, b"\0"), np.uint32)
        trailing = c == 0
        words[:, 3] = tail[c + 20000]
        b += 10000
        np.add(b, 10000, out=b, where=trailing)
        words[:, 2] = tail[b]
        trailing &= b == 20000
        a[trailing] = 100 * a[trailing] + 20000
        words[:, 1] = tail[a]
        if e < 0:
            rows[:, 1] = ord("0")
        rows[:, 2:18] = words.view(np.uint8).reshape(-1, 16)
    left = ~written
    if left.any():
        texts = _percent_texts("%.10g", column[left])
        rows[left, 1:18] = 0  # the rank path's placeholder words
        rows[left, 1:1 + texts.shape[1]] = texts


def _prob_field(probs: np.ndarray) -> np.ndarray:
    """(N, 19) ``uint8`` matrix of the ``,%.10g\\n`` texts of ``probs``.

    The ``%.10g`` text, at most 17 bytes, sits between the comma and the
    newline, NUL-padded. It is built by :func:`_prob_rows` a block of at
    most :data:`_CDF_BLOCK_ROWS` rows at a time, a block never spanning
    two decades of i/N: rows whose probability is the double i/N, as
    :func:`~dualpolsim.link.cdf` makes it, take their texts from their
    ranks i, and the rows left over take theirs from one ``%`` pass.
    """
    n = probs.size
    field = np.zeros((n, 19), np.uint8)
    field[:, 0] = ord(",")
    field[:, -1] = ord("\n")
    # a block starts at the first rank i of each decade: i * 10**k >= N
    firsts = (-(-n // 10**k) for k in range(5))
    cuts = sorted({*range(0, n, _CDF_BLOCK_ROWS), *(i - 1 for i in firsts if i >= 1), n})
    for start, stop in zip(cuts, cuts[1:]):
        _prob_rows(field[start:stop], probs[start:stop], start, n)
    return field


def _write_cdf(f, series, prob_fields: list) -> None:
    """Write one CDF series as CSV to the binary file ``f``: the header, then blocks of rows.

    Each row reads ``%.3f,%.10g`` of its (value, cumulative probability)
    pair. ``prob_fields`` holds (probability column, its
    :func:`_prob_field`) pairs; a column with the bits of one already in
    it is not formatted again. A block of :data:`_CDF_BLOCK_ROWS` rows
    is one ``uint8`` matrix, its :func:`_value_field` beside its
    probability rows; one ``bytes.translate`` pass drops its NUL padding.
    """
    arr = np.asarray(series, dtype=float).reshape(len(series), 2)
    values, probs = arr[:, 0], arr[:, 1]
    prob_field = next((field for column, field in prob_fields if _same_bits(column, probs)), None)
    if prob_field is None:
        prob_field = _prob_field(probs)
        prob_fields.append((probs, prob_field))
    f.write(b"throughput_bps,cum_prob\n")
    for start in range(0, len(arr), _CDF_BLOCK_ROWS):
        block = slice(start, start + _CDF_BLOCK_ROWS)
        rows = np.hstack((_value_field(values[block]), prob_field[block]))
        f.write(rows.tobytes().translate(None, b"\0"))


def write_report(report: RunReport, out_dir) -> list[Path]:
    """Write table, per-(model, XPD) CDFs and metadata under ``out_dir``.

    CSV content is a pure function of the scenario and seed; only the
    metadata file carries a timestamp. Each CDF file is streamed in
    blocks of rows, each row ``%.3f,%.10g`` of a (value, cumulative
    probability) pair. A probability i/N, as every CDF of :func:`run`
    has, takes its text from the integer rank i; rows below 1e-4, near
    a rounding tie or not i/N go through ``%.10g`` (see
    :func:`_prob_field`). A probability column shared by several CDFs
    (every CDF of a run has users x trials rows) is formatted once per
    call, and so is a series object held by several keys, as
    :func:`run` shares one for equal CDFs: the later keys' files are
    copies of the first one's bytes. Equal but distinct arrays are
    formatted once each, to the same bytes. Two keys whose file names
    print alike raise ``ValueError`` before anything is written.
    """
    names = {}  # CDF file name -> the key written to it
    for key in sorted(report.cdf_series):
        name = f"cdf_{key[0]}_{key[1]:g}.csv"
        if name in names:
            raise ValueError(f"CDF keys {names[name]} and {key} both print to {name}")
        names[name] = key
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    table_path = out_dir / "table1.csv"
    table_path.write_text(format_table_csv(report.table_rows))
    written.append(table_path)

    prob_fields = []
    first_paths = {}  # id of a series object -> the file first written for it
    for name, key in names.items():
        series, path = report.cdf_series[key], out_dir / name
        if id(series) in first_paths:
            shutil.copyfile(first_paths[id(series)], path)
        else:
            with path.open("wb") as f:
                _write_cdf(f, series, prob_fields)
            first_paths[id(series)] = path
        written.append(path)

    meta_path = out_dir / "run_metadata.txt"
    meta_path.write_text(
        "".join(f"{k}={v}\n" for k, v in report.metadata.items())
    )
    written.append(meta_path)
    return written
