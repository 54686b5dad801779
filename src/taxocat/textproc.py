"""Shared text utilities: tokenization and token-set overlap."""
from __future__ import annotations

# Every byte but a-z and 0-9 becomes a space.
_ASCII_ALNUM = bytes(
    b if (0x61 <= b <= 0x7A or 0x30 <= b <= 0x39) else 0x20 for b in range(256))


def tokenize(text: str) -> list[str]:
    """`re.findall("[a-z0-9]+", text.lower())` in one translate: each lowered
    code point encodes to one byte ("?" if not ASCII), so the runs are the same."""
    return text.lower().encode("ascii", "replace").translate(_ASCII_ALNUM).decode("ascii").split()


def token_set(text: str) -> frozenset[str]:
    return frozenset(tokenize(text))


def jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    """Jaccard overlap |a & b| / |a | b|; 0.0 when both sets are empty."""
    if not a and not b:
        return 0.0
    common = len(a & b)
    return common / (len(a) + len(b) - common)
