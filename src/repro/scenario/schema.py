"""Strict mapping <-> dataclass machinery shared by every config surface.

Every declarative document in the package -- the scenario DSL
(:mod:`repro.scenario.spec`) and its nested sections -- goes through the
two functions here:

* :func:`from_mapping` builds a (frozen) spec dataclass from a plain dict,
  rejecting unknown keys and wrong types with **path-qualified** errors
  (``"workload.p: expected a number, got 'high'"``), so a typo in a deeply
  nested YAML file points at the exact offending node instead of running a
  different experiment.
* :func:`to_mapping` serialises a spec dataclass back to a plain
  JSON/YAML-safe dict.  The pair round-trips exactly:
  ``from_mapping(cls, to_mapping(spec)) == spec`` for every valid spec.

Field types are read from the dataclass annotations; the supported
vocabulary is deliberately small (bool/int/float/str, enums, optionals,
nested spec dataclasses and homogeneous tuples of any of those) -- enough
for a declarative schema, small enough to validate loudly.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from typing import Any, Mapping

__all__ = ["SpecError", "check_keys", "from_mapping", "to_mapping"]


class SpecError(ValueError):
    """A validation error carrying the document path of the offending node.

    ``path`` is dot-separated from the document root (``""`` for the root
    itself, ``"tiers[2].share"`` inside sequences); the rendered message
    always leads with it so tracebacks and CLI errors point at the exact
    key to fix.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def check_keys(doc: Mapping[str, Any], allowed: set[str], path: str) -> None:
    """Reject unknown keys loudly (typos must not run a different experiment)."""
    unknown = set(doc) - allowed
    if unknown:
        raise SpecError(
            path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _type_name(tp: Any) -> str:
    return getattr(tp, "__name__", str(tp))


def _unwrap_optional(tp: Any) -> tuple[Any, bool]:
    """``X | None`` -> ``(X, True)``; anything else -> ``(tp, False)``."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1 and len(typing.get_args(tp)) == 2:
            return args[0], True
        raise TypeError(f"unsupported union annotation {tp!r} in spec schema")
    return tp, False


def _coerce(value: Any, tp: Any, path: str) -> Any:
    """Validate/convert one document value against an annotation."""
    tp, optional = _unwrap_optional(tp)
    if value is None:
        if optional:
            return None
        raise SpecError(path, f"expected {_type_name(tp)}, got null")

    origin = typing.get_origin(tp)
    if origin is tuple:
        item_tp = typing.get_args(tp)[0]
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {type(value).__name__}")
        return tuple(
            _coerce(item, item_tp, f"{path}[{i}]") for i, item in enumerate(value)
        )
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        if not isinstance(value, Mapping):
            raise SpecError(
                path, f"expected a mapping for {_type_name(tp)}, got "
                f"{type(value).__name__}"
            )
        return from_mapping(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        if isinstance(value, tp):
            return value
        if isinstance(value, str):
            for member in tp:
                if value.upper() in (member.name.upper(), str(member.value).upper()):
                    return member
        raise SpecError(
            path,
            f"unknown {_type_name(tp)} {value!r}; expected one of "
            f"{[m.value for m in tp]}",
        )
    if tp is bool:
        if isinstance(value, bool):
            return value
        raise SpecError(path, f"expected a bool, got {type(value).__name__}")
    if tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise SpecError(path, f"expected an int, got {type(value).__name__}")
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise SpecError(path, f"expected a number, got {type(value).__name__}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise SpecError(path, f"expected a string, got {type(value).__name__}")
    raise TypeError(f"unsupported annotation {tp!r} in spec schema")  # pragma: no cover


def from_mapping(cls: type, doc: Mapping[str, Any], path: str = "") -> Any:
    """Build spec dataclass ``cls`` from a plain mapping, strictly.

    Unknown keys, missing required keys and type mismatches raise
    :class:`SpecError` with the dot-path of the offending node; dataclass
    ``__post_init__`` validation errors are re-raised the same way, so
    *every* rejection a document can trigger is path-qualified.
    """
    if not isinstance(doc, Mapping):
        raise SpecError(
            path or "<root>", f"expected a mapping, got {type(doc).__name__}"
        )
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    check_keys(doc, {f.name for f in fields}, path)
    kwargs: dict[str, Any] = {}
    for f in fields:
        if f.name in doc:
            kwargs[f.name] = _coerce(doc[f.name], hints[f.name], _join(path, f.name))
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise SpecError(path, f"missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(path, str(exc)) from None


def to_mapping(spec: Any) -> dict[str, Any]:
    """Serialise a spec dataclass to a JSON/YAML-safe dict (full fields).

    Every field is emitted (defaults included) so the output is a complete,
    self-describing document; enums become their ``value``, nested specs
    become nested dicts, tuples become lists.  ``from_mapping`` inverts
    this exactly.
    """

    def convert(value: Any) -> Any:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                f.name: convert(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    if not dataclasses.is_dataclass(spec):
        raise TypeError(f"expected a spec dataclass, got {type(spec).__name__}")
    return convert(spec)
