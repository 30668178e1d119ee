"""JSON envelope and type-driven (de)serialization for the API types.

Every request and result of :mod:`repro.api` serializes to the same
strict-JSON envelope::

    {"schema": "repro.api/1", "kind": "sta", "data": {...}}

* ``schema`` carries the API schema version; :func:`check_schema`
  rejects payloads from a different major version with a one-line
  :class:`~repro.errors.ParameterError`.
* ``kind`` names the concrete request/result type (each class declares
  its own), so :func:`from_json` can dispatch without the caller
  knowing the type up front.
* ``data`` holds the dataclass fields: tuples become JSON arrays and
  are coerced *back* to tuples on decode, non-finite floats are
  stored as the strings ``"Infinity"`` / ``"-Infinity"`` / ``"NaN"``
  (strict JSON has no literal for them) and restored on decode,
  ``None`` maps to ``null``.

Decoding is driven by the dataclass annotations, and its decoders are
built once: a record class resolves its type hints on its first
decode, and each distinct field annotation gets one decoder, built on
first use and memoized.  A decode then checks the schema and kind,
rejects unknown fields and calls one prebuilt decoder per field.  A
value that does not fit its annotation is a one-line
:class:`~repro.errors.ParameterError`.

The round-trip contract — ``from_json(to_json(x)) == x`` for every
request and result type — is enforced property-based in
``tests/api/test_roundtrip.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from collections.abc import Callable
from itertools import chain
from typing import Any, ClassVar

from ..errors import ParameterError

__all__ = [
    "API_SCHEMA",
    "API_SCHEMA_VERSION",
    "ApiRecord",
    "check_schema",
    "decode_envelope",
    "envelope_kind",
    "from_json",
    "known_kinds",
]

#: Family name of the request/response schema.
API_SCHEMA = "repro.api"

#: Major version of the request/response schema.  Bump on an
#: incompatible change of any request or result shape.
API_SCHEMA_VERSION = 1

#: Spelling of non-finite floats inside the strict-JSON payload.
_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf,
              "NaN": math.nan}

#: A field decoder: plain JSON data in, the annotated value out.
_Decoder = Callable[[Any], Any]

#: kind -> concrete record class, populated by ``__init_subclass__``.
_KINDS: dict[str, type["ApiRecord"]] = {}


def _schema_tag() -> str:
    return f"{API_SCHEMA}/{API_SCHEMA_VERSION}"


def check_schema(payload: dict) -> None:
    """Validate the envelope's ``schema`` field.

    Parameters
    ----------
    payload : dict
        A decoded envelope (must carry ``schema``).

    Raises
    ------
    ParameterError
        If the schema family or major version does not match this
        build's :data:`API_SCHEMA` / :data:`API_SCHEMA_VERSION`.
    """
    tag = payload.get("schema")
    if not isinstance(tag, str) or "/" not in tag:
        raise ParameterError(
            f"not a {API_SCHEMA} payload (schema={_shown(tag)})")
    family, _, version = tag.partition("/")
    if family != API_SCHEMA:
        raise ParameterError(
            f"not a {API_SCHEMA} payload (schema={_shown(tag)})")
    if version != str(API_SCHEMA_VERSION):
        raise ParameterError(
            f"unsupported {API_SCHEMA} schema version {version!r} "
            f"(this build speaks version {API_SCHEMA_VERSION})")


#: Item-type sets of the containers :func:`_encode` copies in one pass.
_FLOAT_ONLY = {float}
_SEQUENCES = {list, tuple}


def _finite_floats(items: Any) -> bool:
    """Whether *items* (a list or tuple) holds exact ``float`` values
    only, all finite: a NaN or infinite item makes the sum non-finite,
    and so does an overflowing one, which then takes the item path."""
    return (set(map(type, items)) == _FLOAT_ONLY
            and math.isfinite(sum(items)))


def _encode(value: Any) -> Any:
    """Lower a field value to strict-JSON-safe plain data.

    A list or tuple of finite floats, or of such lists and tuples,
    is copied as lists in one pass; any other container is lowered
    item by item.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        if math.isnan(value):
            return "NaN"
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        if _finite_floats(value):
            return list(value)
        if (set(map(type, value)) <= _SEQUENCES
                and _finite_floats(list(chain.from_iterable(value)))):
            return list(map(list, value))
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _encode(item)
                for key, item in value.items()}
    raise ParameterError(
        f"cannot serialize field value of type {type(value).__name__}")


def _shown(value: Any) -> str:
    """``repr(value)`` for a decode message, or a description when
    the value holds an integer past CPython's digit limit for
    ``str``/``repr`` (whose ``repr`` raises ``ValueError``)."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return (f"a {type(value).__name__} holding an integer too "
                "large to print")


def _decode_float(value: Any) -> float:
    """A JSON number or non-finite spelling as a float."""
    if type(value) is float:
        return value
    if isinstance(value, str):
        try:
            return _NONFINITE[value]
        except KeyError:
            raise ParameterError(
                f"not a float spelling: {_shown(value)}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(
            f"expected a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(
            f"expected a number, got an integer of "
            f"{value.bit_length()} bits, too large for a float") from None


def _decode_int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"expected an int, got {_shown(value)}")
    return value


def _decode_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"expected a bool, got {_shown(value)}")
    return value


def _decode_str(value: Any) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"expected a string, got {_shown(value)}")
    return value


def _decode_any(value: Any) -> Any:
    return value


_SCALAR_DECODERS = {Any: _decode_any, float: _decode_float,
                    int: _decode_int, bool: _decode_bool,
                    str: _decode_str}


def _union_decoder(annotation: Any, arms: tuple) -> _Decoder:
    optional = type(None) in arms
    decoders = tuple(_decoder(arm) for arm in arms
                     if arm is not type(None))

    def decode(value: Any) -> Any:
        if value is None and optional:
            return None
        for decoder in decoders:
            try:
                return decoder(value)
            except ParameterError:
                continue
        raise ParameterError(
            f"value {_shown(value)} fits no arm of {annotation}")

    return decode


def _array_decoder(item: _Decoder) -> _Decoder:
    def decode(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ParameterError(
                f"expected an array, got {_shown(value)}")
        return tuple(map(item, value))

    return decode


def _entries_decoder(arms: tuple[_Decoder, ...]) -> _Decoder:
    def decode(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ParameterError(
                f"expected an array, got {_shown(value)}")
        if len(arms) != len(value):
            raise ParameterError(
                f"expected {len(arms)} entries, got {len(value)}")
        return tuple(arm(item) for arm, item in zip(arms, value))

    return decode


def _object_decoder(item: _Decoder) -> _Decoder:
    def decode(value: Any) -> dict:
        if not isinstance(value, dict):
            raise ParameterError(
                f"expected an object, got {_shown(value)}")
        return {str(key): item(entry) for key, entry in value.items()}

    return decode


@functools.cache
def _decoder(annotation: Any) -> _Decoder:
    """The decoder coercing JSON data back to *annotation*, built once
    per annotation (the registered records use a few dozen)."""
    scalar = _SCALAR_DECODERS.get(annotation)
    if scalar is not None:
        return scalar
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return _union_decoder(annotation, args)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return _array_decoder(_decoder(args[0]))
        return _entries_decoder(tuple(_decoder(arm) for arm in args))
    if origin is dict:
        return _object_decoder(_decoder(args[1]))
    raise ParameterError(
        f"unsupported field annotation {annotation!r}")


@functools.cache
def _field_decoders(cls: type) -> dict[str, _Decoder]:
    """Field name -> decoder of a record class, resolved once per
    class: the one place its string annotations are evaluated."""
    hints = typing.get_type_hints(cls)
    return {field.name: _decoder(hints[field.name])
            for field in dataclasses.fields(cls)}


class ApiRecord:
    """Base class of every serializable request/result dataclass.

    Subclasses are frozen dataclasses that declare a unique class-level
    ``kind`` string; declaring it registers the class so
    :func:`from_json` can round-trip arbitrary envelopes.
    """

    #: Envelope tag of the concrete record type.
    kind: ClassVar[str] = ""

    #: Field names to drop from the envelope when their value is
    #: ``None`` (instead of serializing ``null``) — how optional
    #: late additions like ``Result.timings`` stay schema-compatible.
    _omit_none: ClassVar[frozenset] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Register the subclass's ``kind`` in the dispatch table."""
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind", "")
        if kind:
            _KINDS[kind] = cls

    def to_dict(self) -> dict[str, Any]:
        """The strict-JSON envelope as a plain dict."""
        data = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None and field.name in self._omit_none:
                continue
            data[field.name] = _encode(value)
        return {"schema": _schema_tag(), "kind": type(self).kind,
                "data": data}

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a strict-JSON string (no NaN/Infinity literals).

        Parameters
        ----------
        indent : int, optional
            Pretty-print indentation; compact when ``None``.
        """
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ApiRecord":
        """Rebuild an instance from an envelope dict.

        Raises
        ------
        ParameterError
            On schema mismatch, a foreign ``kind``, unknown fields,
            or field values that do not fit their annotations.
        """
        check_schema(payload)
        kind = payload.get("kind")
        if cls is not ApiRecord and kind != cls.kind:
            raise ParameterError(
                f"expected a {cls.kind!r} payload, got {_shown(kind)}")
        target = cls if cls is not ApiRecord else _KINDS.get(kind)
        if target is None:
            raise ParameterError(
                f"unknown payload kind {_shown(kind)}; known kinds: "
                f"{', '.join(known_kinds())}")
        data = payload.get("data")
        if not isinstance(data, dict):
            raise ParameterError("envelope has no 'data' object")
        decoders = _field_decoders(target)
        unknown = data.keys() - decoders
        if unknown:
            raise ParameterError(
                f"unknown field(s) for {kind!r}: "
                f"{_shown(sorted(unknown))}")
        return target(**{name: decoders[name](value)
                         for name, value in data.items()})

    @classmethod
    def from_json(cls, payload: "str | dict[str, Any]") -> "ApiRecord":
        """Inverse of :meth:`to_json`; also accepts an envelope dict.

        Raises
        ------
        ParameterError
            If :func:`decode_envelope` or :meth:`from_dict` rejects
            the payload.
        """
        return cls.from_dict(decode_envelope(payload))


def decode_envelope(payload: "str | dict[str, Any]") -> dict[str, Any]:
    """Parse envelope JSON text into its dict (a dict passes through).

    The one place envelopes are decoded: :meth:`ApiRecord.from_json`,
    the server's ``/v1/run`` route and its batch lines all call it,
    so every malformed body is the same typed error.

    Raises
    ------
    ParameterError
        If the text is not JSON — nesting past the decoder's
        recursion limit and integer literals past CPython's int/str
        digit limit included — or not a JSON object.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except ValueError as error:
            # JSONDecodeError, and CPython's int/str digit limit on
            # an over-long integer literal.
            raise ParameterError(
                f"not a JSON payload: {error}") from None
        except RecursionError:
            raise ParameterError(
                "not a JSON payload: nested too deeply to "
                "decode") from None
    if not isinstance(payload, dict):
        raise ParameterError("payload must be a JSON object")
    return payload


def envelope_kind(envelope: dict[str, Any]) -> "str | None":
    """The decoded envelope's ``kind`` tag, or ``None`` when it is
    missing or not a string (used to label error envelopes)."""
    kind = envelope.get("kind")
    return kind if isinstance(kind, str) else None


def from_json(payload: "str | dict[str, Any]") -> ApiRecord:
    """Decode any known request/result envelope by its ``kind``.

    Parameters
    ----------
    payload : str or dict
        JSON text or an already-decoded envelope dict.

    Returns
    -------
    ApiRecord
        The concrete request/result instance.

    Raises
    ------
    ParameterError
        On malformed JSON, schema mismatch, or an unknown ``kind``.
    """
    return ApiRecord.from_json(payload)


def known_kinds() -> tuple[str, ...]:
    """Sorted ``kind`` tags of every registered request/result type."""
    return tuple(sorted(_KINDS))
