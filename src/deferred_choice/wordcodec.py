"""32-byte word encoding for transaction payloads, query parameters and results.

Every payload is a sequence of 32-byte words with scalar values stored
big-endian in the low-order bytes. Lists of (timestamp, value) pairs are
length-prefixed; expression text is a length word followed by UTF-8 bytes
zero-padded to the next word boundary.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

WORD_SIZE = 32
WORD_MAX = 2**256 - 1


class CodecError(ValueError):
    """A byte payload does not match the expected word layout."""


def encode_word(value: int) -> bytes:
    if not 0 <= value <= WORD_MAX:
        raise CodecError(f"value out of word range: {value}")
    return value.to_bytes(WORD_SIZE, "big")


def encode_words(*values: int) -> bytes:
    return b"".join(encode_word(v) for v in values)


def decode_word(data: bytes, index: int = 0) -> int:
    start = index * WORD_SIZE
    word = data[start : start + WORD_SIZE]
    if len(word) != WORD_SIZE:
        raise CodecError(f"truncated payload: no word at index {index}")
    return int.from_bytes(word, "big")


def word_count(data: bytes) -> int:
    if len(data) % WORD_SIZE:
        raise CodecError(f"payload length {len(data)} is not word aligned")
    return len(data) // WORD_SIZE


def encode_bool(flag: bool) -> bytes:
    return encode_word(1 if flag else 0)


def decode_bool(data: bytes, index: int = 0) -> bool:
    return decode_word(data, index) != 0


def encode_pairs(pairs: Sequence[tuple[int, int]] | Iterable[tuple[int, int]]) -> bytes:
    items = list(pairs)
    out = [encode_word(len(items))]
    for at, value in items:
        out.append(encode_word(at))
        out.append(encode_word(value))
    return b"".join(out)


def decode_pairs(data: bytes, index: int = 0) -> list[tuple[int, int]]:
    count = decode_word(data, index)
    return [
        (decode_word(data, index + 1 + 2 * i), decode_word(data, index + 2 + 2 * i))
        for i in range(count)
    ]


def encode_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    padding = (-len(raw)) % WORD_SIZE
    return encode_word(len(raw)) + raw + b"\x00" * padding


def decode_text(data: bytes, index: int = 0) -> str:
    length = decode_word(data, index)
    start = (index + 1) * WORD_SIZE
    raw = data[start : start + length]
    if len(raw) != length:
        raise CodecError("truncated text payload")
    return raw.decode("utf-8")


def text_word_span(text: str) -> int:
    """Number of words occupied by ``encode_text(text)``."""
    raw_len = len(text.encode("utf-8"))
    return 1 + (raw_len + WORD_SIZE - 1) // WORD_SIZE
