"""Tests for repro.net.asn."""

import pytest

from repro.net.asn import ASN_MAX, is_private_asn, validate_asn


class TestValidation:
    def test_accepts_ordinary_asn(self):
        assert validate_asn(3257) == 3257

    def test_accepts_four_byte_asn(self):
        assert validate_asn(4200000000) == 4200000000

    @pytest.mark.parametrize("bad", [0, -1, ASN_MAX + 1, "x", None, 1.5])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_asn(bad)


class TestClassification:
    def test_private_range_16bit(self):
        assert is_private_asn(65000)  # the paper's leaked ASN (A8.3.2)
        assert is_private_asn(64512)
        assert is_private_asn(65534)
        assert not is_private_asn(64511)
        assert not is_private_asn(65535)

    def test_private_range_32bit(self):
        assert is_private_asn(4200000000)
        assert is_private_asn(4294967294)
        assert not is_private_asn(4294967295)
