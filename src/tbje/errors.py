"""Exception classes shared across the library, the type check that turns
a malformed config section into a ``ConfigError``, the one reader of a
config section, and the one comparison of two configs.

The CLI maps these onto distinct exit codes (see ``tbje.cli``).
"""

import dataclasses
import math


class TbjeError(Exception):
    """Base class for all library errors."""


class ShapeError(TbjeError):
    """Operands have incompatible shapes; the message names both."""


class NumericError(TbjeError):
    """Non-finite values where finite ones are required."""


class ContractError(TbjeError):
    """An operation was called outside its contract (e.g. all keys masked,
    backward() invoked twice on one tape)."""


class ConfigError(TbjeError):
    """Invalid or inconsistent configuration / incompatible artifacts."""


class DataWarning(UserWarning):
    """Recoverable data-quality issue (empty utterance, too-short waveform,
    embedding fallbacks). Extraction continues with a documented substitute."""


_KINDS = ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
          (str, "a string"), ((list, tuple), "an array"), (dict, "an object"))


def json_kind(value) -> str:
    """The JSON type of ``value``; a bool is never counted as a number."""
    return next((name for types, name in _KINDS if isinstance(value, types)),
                "null")


def _check_value(value, like, name: str) -> None:
    """``value`` must have the JSON type of the default ``like`` (an integer
    may stand for a number); the entries of an array or object default
    must have the type of its first entry."""
    want, got = json_kind(like), json_kind(value)
    if got != want and (want, got) != ("a number", "an integer"):
        raise ConfigError(f"config key {name!r} must be {want}, got {got}")
    if isinstance(like, dict) and like:
        entry = next(iter(like.values()))
        for key, item in value.items():
            _check_value(item, entry, f"{name}.{key}")
    elif isinstance(like, (list, tuple)) and like:
        for i, item in enumerate(value):
            _check_value(item, like[0], f"{name}[{i}]")


def check_section(raw, defaults: dict, section: str = "") -> dict:
    """Return the config section ``raw``, read from JSON, once it is known
    to be an object whose keys all appear in ``defaults`` with values of
    their defaults' types; an integer given for a float default is returned
    as a float. ``section`` prefixes the key names in errors."""
    prefix = section + "." if section else ""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section or 'root'!r} must be an "
                          f"object, got {json_kind(raw)}")
    unknown = sorted(prefix + key for key in set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    for key, value in raw.items():
        _check_value(value, defaults[key], prefix + key)
    return {key: float(value) if isinstance(defaults[key], float) else value
            for key, value in raw.items()}


def read_section(cls, raw, section: str):
    """A ``cls`` whose fields are those the config section ``raw`` gives,
    checked by ``check_section`` against the defaults of ``cls()``, and
    those defaults for the rest; a number given must be finite, which is
    checked after ``cls``'s own, narrower checks."""
    defaults = dataclasses.asdict(cls())
    given = check_section(raw, defaults, section)
    config = cls(**{**defaults, **given})
    for key, value in given.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {section + '.' + key!r} must be a "
                              f"finite number, got {value}")
    return config


def require_match(what: str, got: dict, want: dict, sides: tuple[str, str],
                  skip=()) -> None:
    """Raise the one-line ConfigError ``what (key: A got, B want; ...)``
    naming, in sorted order, each key of ``want`` outside ``skip`` whose
    value in ``got`` differs; ``sides`` names A and B."""
    differ = [f"{k}: {sides[0]} {got.get(k)!r}, {sides[1]} {want[k]!r}"
              for k in sorted(want) if k not in skip and got.get(k) != want[k]]
    if differ:
        raise ConfigError(f"{what} (" + "; ".join(differ) + ")")
