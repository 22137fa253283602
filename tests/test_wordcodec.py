import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferred_choice import wordcodec as wc
from reference import decode_bool


def test_scalar_round_trip():
    data = wc.encode_word(2**64 - 1)
    assert len(data) == 32
    assert wc.decode_word(data) == 2**64 - 1


def test_scalar_big_endian_low_order():
    assert wc.encode_word(1) == b"\x00" * 31 + b"\x01"


def test_bool_words():
    assert decode_bool(wc.encode_bool(True)) is True
    assert decode_bool(wc.encode_bool(False)) is False
    assert wc.encode_bool(True) == wc.encode_word(1)


def test_text_round_trip_and_padding():
    data = wc.encode_text("d_w >= 2")
    assert len(data) % 32 == 0
    assert wc.decode_text(data) == "d_w >= 2"


def test_value_out_of_range():
    with pytest.raises(wc.CodecError):
        wc.encode_word(2**256)
    with pytest.raises(wc.CodecError):
        wc.encode_word(-1)


def test_truncated_payloads():
    with pytest.raises(wc.CodecError):
        wc.decode_word(b"\x00" * 16)
    with pytest.raises(wc.CodecError):
        wc.decode_text(wc.encode_word(64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, wc.WORD_MAX), max_size=6), st.integers(0, 3))
def test_decode_words_agrees_with_decode_word(values, index):
    data = wc.encode_words(*range(index)) + wc.encode_words(*values)
    assert wc.decode_words(data, len(values), index) == [
        wc.decode_word(data, index + offset) for offset in range(len(values))
    ]
    with pytest.raises(wc.CodecError, match=f"no word at index {index + len(values)}"):
        wc.decode_words(data, len(values) + 1, index)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_text_round_trip(text):
    encoded = wc.encode_text(text)
    assert len(encoded) % 32 == 0
    assert wc.decode_text(encoded) == text
