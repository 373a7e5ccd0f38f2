"""Codec registry: the engine's user-extension surface.

Mirrors the reference's extension interfaces (SURVEY.md §2.6):
``ValuesEncoder/ValuesDecoder`` (/root/reference/types/types.go:15-27) and
the per-type encoding legality lists. A codec registers under a string id
with the physical families it supports and a speed rank. The built-ins
register from the one table in functions/column.py, and the auto-selector
reads their legality and rank here. A user codec becomes usable by name —
``encode_values``/``decode_values`` dispatch through this table, and an
``encode_table`` ``choices`` entry can name it — with no core edits. The
selector itself only trials the built-ins.

A codec object provides:
    encode(values: pa.Array) -> (payload: bytes, meta: dict)
    decode(payload, typ: pa.DataType, count: int) -> pa.Array
    families: set[str]   # of {'int32','int64','float32','float64','bool',
                         #     'bytes','decimal128'}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pyarrow as pa

__all__ = ["Codec", "register", "get", "codecs_for_family", "all_codecs"]


@dataclass
class Codec:
    name: str
    families: set[str]
    encode: Callable[[pa.Array], tuple[bytes, dict]]
    decode: Callable[[bytes, pa.DataType, int], pa.Array]
    # Prior speed rank for near-tie selection (higher = faster).
    speed_rank: int = 3

    def __post_init__(self):
        self.families = set(self.families)


_REGISTRY: dict[str, Codec] = {}


def register(codec: Codec) -> Codec:
    if codec.name in _REGISTRY:
        raise ValueError(f"codec {codec.name!r} already registered")
    _REGISTRY[codec.name] = codec
    return codec


def get(name: str) -> Codec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown codec {name!r}; known: {sorted(_REGISTRY)}")


def codecs_for_family(family: str) -> list[Codec]:
    return [c for c in _REGISTRY.values() if family in c.families]


def all_codecs() -> dict[str, Codec]:
    return dict(_REGISTRY)
