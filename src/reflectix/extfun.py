"""Extensible functions indexed by type representation.

An ExtFun starts empty and grows by registering (pattern, case) pairs.
Applying it to a ground representation picks the most specific pattern
that matches, independently of the order cases were registered in.

Dispatch is a hash lookup on the pattern's head followed by a scan of
that one bucket, whose cases are kept sorted most specific first. The
wildcard pattern lives outside the buckets and acts as the default.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .desc import _invalidate, _register_lock
from .errors import NotSupported
from .typerep import (
    ANY,
    Head,
    TypePattern,
    TypeRep,
    brief,
    matches,
    pattern_key,
)

# A case receives the matched representation so it can destructure the
# argument types, followed by the applied arguments.
CaseFn = Callable[..., Any]


@dataclass(frozen=True)
class _Case:
    key: tuple
    pattern: TypePattern
    fn: CaseFn


class ExtFun:
    """A type-indexed function extensible one case at a time."""

    def __init__(self, doc: str):
        self.doc = doc
        self._buckets: dict[Head, tuple[_Case, ...]] = {}
        self._default: Optional[_Case] = None
        self._lock = threading.Lock()
        # Patterns probed by the most recent dispatch, for tests that
        # pin down the complexity contract.
        self.last_probes: list[TypePattern] = []

    def extend(self, pattern: TypePattern, fn: CaseFn) -> None:
        """Register a case; an identical pattern overwrites its case.

        Buckets are replaced wholesale so concurrent dispatch never
        observes a half-updated list. Every staged per-type memo is then
        emptied, as desc.register does, so a plan that selected a case
        once selects again.
        """
        case = _Case(pattern_key(pattern), pattern, fn)
        with self._lock, _register_lock:
            if pattern is ANY:
                self._default = case
            else:
                bucket = list(self._buckets.get(pattern.head, ()))
                for i, existing in enumerate(bucket):
                    if existing.pattern == pattern:
                        bucket[i] = case
                        break
                else:
                    bisect.insort(bucket, case, key=lambda c: c.key)
                self._buckets[pattern.head] = tuple(bucket)
            _invalidate()

    def patterns(self) -> list[TypePattern]:
        """All registered patterns, bucket by bucket, most specific first."""
        out = [c.pattern for b in self._buckets.values() for c in b]
        if self._default is not None:
            out.append(self._default.pattern)
        return out

    def _select(self, t: TypeRep) -> Optional[_Case]:
        self.last_probes = []
        bucket = self._buckets.get(t.head, ()) if t is not ANY else ()
        for case in bucket:
            self.last_probes.append(case.pattern)
            if matches(case.pattern, t):
                return case
        return self._default

    def apply(self, t: TypeRep, *args: Any) -> Any:
        """Dispatch on t and run the selected case.

        Raises NotSupported, carrying this function's doc string and
        the rendered type, when no pattern covers t.
        """
        case = self._select(t)
        if case is None:
            raise NotSupported(self.doc, brief(t))
        return case.fn(t, *args)

    def supports(self, t: TypeRep) -> bool:
        """Would apply find a case for t?"""
        return self._select(t) is not None

    def __repr__(self) -> str:
        n = sum(len(b) for b in self._buckets.values())
        n += 1 if self._default else 0
        return f"<extfun {self.doc!r}: {n} cases>"


def create(doc: str) -> ExtFun:
    """A fresh extensible function with no cases."""
    return ExtFun(doc)
