"""Experiment configuration: flat INI sections, validated before any run.

Validation is collect-all: a bad file reports every problem at once instead
of failing on the first. Range checks are delegated to CutoffSpec so the
error text always cites the same invariant the library enforces.
"""

import configparser
import math

from .cutoff import CutoffSpec

try:  # CPython's built-in SHA-1, which hashlib falls back to, without loading OpenSSL
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

__all__ = ["ConfigError", "ExperimentConfig", "FIELDS", "parse_config", "require_values"]

_EXPERIMENTS = ("uniqueness", "q-sweep", "boundary-layer", "simulate")


def _short_sha1(text: str) -> str:
    """The first 12 hex digits of the SHA-1 of text's UTF-8 bytes."""
    return sha1(text.encode()).hexdigest()[:12]


class ConfigError(ValueError):
    """Carries the full list of validation problems in .errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


# ExperimentConfig field -> (INI section, INI key, conversion of the value
# text, default), in the order the config hash walks them.  Anything else in
# a file is an unknown section or key; configparser lowercases option names,
# so the keys are lowercase too.
FIELDS = {
    "experiment": ("experiment", "id", str, "simulate"),
    "s_min": ("grid", "s_min", float, None),  # None: derive S/4 from the cutoff at run time
    "s_max": ("grid", "s_max", float, None),  # None: derive max(8, 4 s0)
    "n": ("grid", "n", int, 261),
    "ratio": ("grid", "ratio", float, 1.02),
    "r0": ("cutoff", "r0", float, 0.55),
    "R_list": ("cutoff", "r", _floats, (0.8352702114112720,)),
    "gamma_list": ("cutoff", "gamma", _floats, (0.25,)),
    "ramps": ("flow", "ramps", _floats, (1e2, 1e3)),
    "T": ("flow", "t", float, 0.1),
    "dt": ("flow", "dt", float, 1e-3),
    "sample_times": ("flow", "sample_times", _floats, ()),
}


class ExperimentConfig:
    """The fields of FIELDS as attributes: the keywords given, the defaults
    for the rest, validated together."""

    def __init__(self, **fields):
        if unknown := fields.keys() - FIELDS:
            raise TypeError(f"unknown ExperimentConfig fields: {', '.join(sorted(unknown))}")
        for name, (*_, default) in FIELDS.items():
            setattr(self, name, fields.get(name, default))
        errors = validate(self)
        if errors:
            raise ConfigError(errors)

    @property
    def config_hash(self) -> str:
        return _short_sha1("|".join(f"{name}={getattr(self, name)!r}" for name in FIELDS))

    def grid_bounds(self, R: float) -> tuple:
        """(s_min, s_max) for a run at cut-off radius R, deriving the default
        truncation s_min = S/4, s_max = max(8, 4 s0) where not pinned."""
        S = -math.log(R)
        s0 = -math.log(self.r0)
        lo = self.s_min if self.s_min is not None else S / 4.0
        hi = self.s_max if self.s_max is not None else max(8.0, 4.0 * s0)
        return lo, hi


def validate(cfg: ExperimentConfig) -> list:
    errors = []
    # NaN passes every comparison below, and inf most of them
    for name in FIELDS:
        value = getattr(cfg, name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            errors.append(f"{name} must be finite")
    if cfg.experiment not in _EXPERIMENTS:
        errors.append(f"experiment id {cfg.experiment!r} not one of {_EXPERIMENTS}")
    if cfg.n < 16:
        errors.append("grid n must be at least 16")
    if cfg.ratio < 1.0:
        errors.append("grid ratio must be >= 1")
    if cfg.s_min is not None and cfg.s_min <= 0.0:
        errors.append("grid s_min must be positive")
    if cfg.s_max is not None and cfg.s_min is not None and cfg.s_max <= cfg.s_min:
        errors.append("grid s_max must exceed s_min")
    if cfg.T <= 0.0:
        errors.append("flow horizon T must be positive")
    if cfg.dt <= 0.0 or cfg.dt > cfg.T:
        errors.append("flow dt must lie in (0, T]")
    if not cfg.ramps:
        errors.append("ramps must not be empty")
    if any(k <= 0.0 for k in cfg.ramps):
        errors.append("ramps must be positive")
    if any(b <= a for a, b in zip(cfg.ramps, cfg.ramps[1:])):
        errors.append("ramps must be strictly increasing")
    for t in cfg.sample_times:
        if not 0.0 < t <= cfg.T:
            errors.append(f"sample time {t:g} outside (0, T]")
    if any(b <= a for a, b in zip(cfg.sample_times, cfg.sample_times[1:])):
        errors.append("sample times must be strictly increasing")
    # a repeated R or gamma would run the same members twice and write twin rows
    for name, values in (("R", cfg.R_list), ("gamma", cfg.gamma_list)):
        if not values:
            errors.append(f"cutoff {name} list must not be empty")
        elif len(set(values)) < len(values):
            errors.append(f"cutoff {name} values must be distinct")
    # range checks via CutoffSpec so messages cite the library invariant
    seen = set()
    for R in cfg.R_list:
        for gamma in cfg.gamma_list:
            try:
                CutoffSpec(cfg.r0, R, gamma)
            except ValueError as exc:
                msg = f"cutoff (r0={cfg.r0:g}, R={R:g}, gamma={gamma:g}): {exc}"
                if str(exc) not in seen:
                    errors.append(msg)
                    seen.add(str(exc))
    return errors


def require_values(cfg: ExperimentConfig, command: str, least: dict):
    """Raises one ConfigError naming, by INI key, each field of cfg with
    fewer values than command needs; least maps a field to (count, what its
    values are)."""
    short = []
    for name, (count, what) in least.items():
        section, key, _, _ = FIELDS[name]
        values = getattr(cfg, name)
        if len(values) < count:
            short.append(f"{command} needs at least {count} {what} ([{section}] {key}), "
                         f"got {len(values)}: " + ", ".join(f"{v:g}" for v in values))
    if short:
        raise ConfigError(short)


def parse_config(path) -> ExperimentConfig:
    # values are literal: no key refers to another, so '%' is just a bad value
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        # configparser messages span lines; the CLI reports one
        raise ConfigError([f"malformed file: {' '.join(str(exc).split())}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"malformed file: {path}: {exc}"]) from None
    if not read:
        raise ConfigError([f"config file {path} not found or unreadable"])
    errors = []
    for section in cp.sections():
        keys = {key for sec, key, *_ in FIELDS.values() if sec == section}
        if not keys:
            errors.append(f"unknown section [{section}]")
        elif unknown := set(cp[section]) - keys:
            errors.append(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
    if errors:
        raise ConfigError(errors)
    try:
        kwargs = {name: convert(cp[section][key])
                  for name, (section, key, convert, _) in FIELDS.items()
                  if cp.has_option(section, key)}
    except ValueError as exc:
        raise ConfigError([f"malformed value: {exc}"]) from exc
    return ExperimentConfig(**kwargs)
