"""32-byte word encoding for transaction payloads, query parameters and results.

Every payload is a sequence of 32-byte words with scalar values stored
big-endian in the low-order bytes. Expression text is a length word
followed by UTF-8 bytes zero-padded to the next word boundary. A history
slice is a count word followed by that many (timestamp, value) word pairs;
``oracles.History`` both writes it (``since``) and reads it (``served``).
"""

from __future__ import annotations

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


def decode_words(data: bytes, count: int, index: int = 0) -> list[int]:
    """The ``count`` words from word ``index`` on, in one call."""
    start = index * WORD_SIZE
    stop = start + count * WORD_SIZE
    if len(data) < stop:
        missing = max(index, len(data) // WORD_SIZE)
        raise CodecError(f"truncated payload: no word at index {missing}")
    words = []
    for at in range(start, stop, WORD_SIZE):
        words.append(int.from_bytes(data[at : at + WORD_SIZE], "big"))
    return words


def encode_bool(flag: bool) -> bytes:
    return encode_word(1 if flag else 0)


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
