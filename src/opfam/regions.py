"""Region descriptors for local spectral spaces.

Grammar:  `disc re,im,r` | `rect a:b:c:d` | `union(R1, R2, ...)` | `empty`.
Regions test membership of complex points; intersections exist as an
internal combinator (no surface grammar).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError


class Region:
    def contains(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def intersect(self, other: "Region") -> "Region":
        return Intersection(parts=(self, other))


@dataclass(frozen=True)
class Empty(Region):
    def contains(self, z):
        return np.zeros(np.shape(z), dtype=bool)

    def describe(self):
        return "empty"


@dataclass(frozen=True)
class Disc(Region):
    center: complex
    radius: float

    def contains(self, z):
        return np.abs(np.asarray(z, dtype=complex) - self.center) <= self.radius

    def describe(self):
        parts = (self.center.real, self.center.imag, self.radius)
        return "disc " + ",".join(repr(float(v)) for v in parts)


@dataclass(frozen=True)
class Rect(Region):
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        return (
            (z.real >= self.re_min)
            & (z.real <= self.re_max)
            & (z.imag >= self.im_min)
            & (z.imag <= self.im_max)
        )

    def describe(self):
        parts = (self.re_min, self.re_max, self.im_min, self.im_max)
        return "rect " + ":".join(repr(float(v)) for v in parts)


@dataclass(frozen=True)
class Union(Region):
    parts: tuple[Region, ...]

    def contains(self, z):
        out = np.zeros(np.shape(z), dtype=bool)
        for p in self.parts:
            out |= p.contains(z)
        return out

    def describe(self):
        return "union(" + ", ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class Intersection(Region):
    parts: tuple[Region, ...]

    def contains(self, z):
        out = np.ones(np.shape(z), dtype=bool)
        for p in self.parts:
            out &= p.contains(z)
        return out

    def describe(self):
        return "intersect(" + ", ".join(p.describe() for p in self.parts) + ")"


# A token is a keyword (group 1), a number (group 2) or one other character
# (group 3); spaces and tabs between tokens are skipped.
_TOKEN = re.compile(
    r"[ \t]*(?:([A-Za-z]+)|([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(.))", re.S
)
_KEYWORD, _NUMBER, _END = 1, 2, 0  # a token's kind is its group; _END ends the text


def parse_region(text: str) -> Region:
    """Parse a region descriptor (grammar in the module docstring).

    An error names the offset of the offending token in the stripped
    text, or the text length once the text has ended.
    """
    text = text.strip()
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(text)]
    tokens += [(_END, "", len(text))]
    at = 0  # index of the next token

    def fail(message: str, back: int = 0):
        offset = tokens[at - back][2]
        raise InputError(f"region descriptor error at {offset}: {message} in {text!r}")

    def take(want: int | str, message: str) -> str:
        """The next token, which must be of kind `want` or be the text `want`."""
        nonlocal at
        if want not in tokens[at][:2]:
            fail(message)
        at += 1
        return tokens[at - 1][1]

    def numbers(sep: str, n: int) -> list[float]:
        vals = []
        for k in range(n):
            if k:
                take(sep, f"expected {sep!r}")
            vals.append(float(take(_NUMBER, f"bad number {tokens[at][1]!r}")))
        return vals

    def region() -> Region:
        nonlocal at
        kw = take(_KEYWORD, "expected a region keyword")
        if kw == "empty":
            return Empty()
        if kw == "disc":
            re_, im, r = numbers(",", 3)
            if r < 0:
                fail("disc radius must be >= 0", back=1)
            return Disc(center=complex(re_, im), radius=r)
        if kw == "rect":
            vals = numbers(":", 4)
            if vals[0] > vals[1] or vals[2] > vals[3]:
                fail("rect bounds must be ordered a<=b, c<=d", back=1)
            return Rect(*vals)
        if kw == "union":
            take("(", "expected '('")
            parts = [] if tokens[at][1] == ")" else [region()]
            while parts and tokens[at][1] == ",":
                at += 1
                parts.append(region())
            take(")", "expected ')'")
            return Union(parts=tuple(parts)) if parts else Empty()
        fail(f"unknown region kind {kw!r}", back=1)

    result = region()
    if tokens[at][0] != _END:
        fail("unexpected trailing content")
    return result
