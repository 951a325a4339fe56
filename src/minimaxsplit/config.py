"""One schema for every config dataclass, and for the two model classes.

Each config field declares its rule once, in its metadata (PEP 557):
``n: int = spec(at_least(2), 500)``. Every config's ``__post_init__`` calls
`check` first (or is `check`), so a config that exists is valid, whether it
came from ``--config`` JSON or from Python; rules that tie two fields
together follow in the config's own ``__post_init__``. The two model
classes check theirs the same way, raising DataError. A bool is not an
int, and a float field also takes an int, kept as an int so that a
manifest's config echo repeats it as given; numpy ints become ints and
lists tuples.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields
from functools import cache
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints

from .dataset import CLASSIFICATION, REGRESSION, is_int
from .errors import ConfigError
from .splitting import TAGS, SplitCriterion

# a rule maps a typed value to None or a complaint, e.g. "want >= 2, got 1"
Rule = Callable[[Any], Optional[str]]


def spec(rule: Rule, default=MISSING):
    """A config field whose value must pass `rule`; required without a default."""
    return field(default=default, metadata={"rule": rule})


def must(ok: Callable[[Any], bool], what: str) -> Rule:
    """The rule that `ok(value)` holds; `what` says so in words."""
    return lambda value: None if ok(value) else f"want {what}, got {value!r}"


def at_least(low: int) -> Rule:
    return must(lambda v: v >= low, f">= {low}")


def between(low: float, high: float) -> Rule:
    return must(lambda v: low < v < high, f"a value in ({low}, {high})")


def one_of(*choices) -> Rule:
    return must(lambda v: v in choices, f"one of {choices}")


TYPED = must(lambda v: True, "")  # no rule beyond the field's type hint
# a noise level: the studies square noisy targets (risks) and take their
# fourth powers (SSIM), which overflow from about 1e77 on; fails JSON's NaN
# and Infinity (floats) and, comparing exactly, an int past every float
NOISE = must(lambda v: 0 <= v <= 1e50, "a finite number in [0, 1e50]")
NONEMPTY = must(len, "a nonempty string")
TASK = one_of(REGRESSION, CLASSIFICATION)
CRITERION = must(lambda v: isinstance(v, SplitCriterion) or v in TAGS,
                  f"a criterion tag ({' | '.join(TAGS)})")


def each(rule: Rule) -> Rule:
    """A nonempty tuple whose entries all pass `rule`."""
    def entries(values: tuple) -> Optional[str]:
        if not values:
            return "want a nonempty list, got []"
        return next(filter(None, map(rule, values)), None)
    return entries


_JSON_NAME = {int: "integer", float: "number", bool: "boolean", str: "string", type(None): "null"}
_WRONG = object()


def _typed(hint, value):
    """`value` as a value of the type `hint`, or _WRONG."""
    origin = get_origin(hint)
    if origin is Union:
        typed = (_typed(alternative, value) for alternative in get_args(hint))
        return next((v for v in typed if v is not _WRONG), _WRONG)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return _WRONG
        typed = tuple(_typed(get_args(hint)[0], v) for v in value)
        return _WRONG if any(v is _WRONG for v in typed) else typed
    if hint is float and isinstance(value, float):
        return value
    if hint in (int, float):
        return int(value) if is_int(value) else _WRONG
    return value if isinstance(value, hint) else _WRONG


def _want(hint) -> str:
    if get_origin(hint) is Union:
        return " | ".join(map(_want, get_args(hint)))
    if get_origin(hint) is tuple:
        return f"list of {_want(get_args(hint)[0])}"
    return _JSON_NAME.get(hint) or hint.__name__


@cache
def _schema(cls) -> tuple:
    """(name, type hint, rule) of each field of a config class."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata["rule"]) for f in fields(cls))


def check(config, error: type = ConfigError) -> None:
    """`error` (ConfigError unless given) naming the field and the value
    unless every field has its declared type and passes its rule; stores
    the typed values."""
    cls = type(config)
    for name, hint, rule in _schema(cls):
        raw = getattr(config, name)
        value = _typed(hint, raw)
        if value is _WRONG:
            raise error(f"{cls.__name__}.{name}: want {_want(hint)}, got {raw!r}")
        if value is not None and (fault := rule(value)):
            raise error(f"{cls.__name__}.{name}: {fault}")
        object.__setattr__(config, name, value)
