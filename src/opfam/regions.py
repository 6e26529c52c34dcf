"""Region descriptors for local spectral spaces.

Grammar:  `disc re,im,r` | `rect a:b:c:d` | `union(R1, R2, ...)` | `empty`.
Regions test membership of complex points; intersections exist as an
internal combinator (no surface grammar).
"""

from __future__ import annotations

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise InputError(f"region descriptor error at {self.pos}: {message} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a region keyword")
        return self.text[start : self.pos]

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        allowed = "+-.0123456789eE"
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            # Stop before a sign that starts the next token (not an exponent).
            if (
                self.text[self.pos] in "+-"
                and self.pos > start
                and self.text[self.pos - 1] not in "eE"
            ):
                break
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            return float(token)
        except ValueError:
            self.fail(f"bad number {token!r}")

    def region(self) -> Region:
        kw = self.word()
        if kw == "empty":
            return Empty()
        if kw == "disc":
            re = self.number()
            self.expect(",")
            im = self.number()
            self.expect(",")
            r = self.number()
            if r < 0:
                self.fail("disc radius must be >= 0")
            return Disc(center=complex(re, im), radius=r)
        if kw == "rect":
            vals = [self.number()]
            for _ in range(3):
                self.expect(":")
                vals.append(self.number())
            if vals[0] > vals[1] or vals[2] > vals[3]:
                self.fail("rect bounds must be ordered a<=b, c<=d")
            return Rect(*vals)
        if kw == "union":
            self.expect("(")
            parts = []
            if self.peek() != ")":
                parts.append(self.region())
                while self.peek() == ",":
                    self.expect(",")
                    parts.append(self.region())
            self.expect(")")
            if not parts:
                return Empty()
            return Union(parts=tuple(parts))
        self.fail(f"unknown region kind {kw!r}")


def parse_region(text: str) -> Region:
    parser = _Parser(text.strip())
    region = parser.region()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.fail("unexpected trailing content")
    return region
