"""Page cache model: residency as page runs, LRU only when bounded.

Both the host kernel and every guest kernel own a page cache.  The cache
tracks which (object, page) pairs are resident; it does not store bytes
(bytes live in the filesystem's content sources) — residency is what
determines whether a read pays device time.

An unbounded cache (the default) never evicts, so recency is never
observed: it keeps, per object key, a sorted flat list of disjoint,
coalesced ``[first, last)`` page-run boundaries plus a running resident
count, and every operation costs a ``bisect`` and the runs it touches.  A
bounded cache needs per-page recency for exact LRU eviction, so it keeps
one ``OrderedDict`` entry per page.

"Read without cache" experiments call :meth:`drop` (the paper clears the
guest disk buffer and disables the hypervisor's virtual-disk cache);
"re-read" experiments leave the cache warm.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Dict, Hashable, List, Tuple

PAGE_SIZE = 4096


def _covered(bounds: List[int], first: int, last: int) -> int:
    """Pages of ``[first, last)`` inside the runs of a boundary list."""
    i = bisect_right(bounds, first)
    if i & 1:  # ``first`` lies inside the run ending at bounds[i]
        covered = bounds[i] - first
        if covered >= last - first:
            return last - first
        i += 1
    else:
        covered = 0
    n = len(bounds)
    while i < n and bounds[i] < last:
        covered += min(bounds[i + 1], last) - bounds[i]
        i += 2
    return covered


class PageCache:
    """Cache of 4 KiB pages keyed by (object key, page index)."""

    def __init__(self, capacity_bytes: float = float("inf"),
                 name: str = "pagecache"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_pages = (float("inf") if capacity_bytes == float("inf")
                               else max(1, int(capacity_bytes // PAGE_SIZE)))
        self._bounded = self.capacity_pages != float("inf")
        if self._bounded:
            self._pages: "OrderedDict[Tuple[Hashable, int], None]" = \
                OrderedDict()
        else:
            #: key -> [first0, last0, first1, last1, ...], sorted, disjoint
            #: and coalesced (no two runs abut).
            self._runs: Dict[Hashable, List[int]] = {}
            self._resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ---------------------------------------------------------------- sizing
    @property
    def resident_pages(self) -> int:
        return len(self._pages) if self._bounded else self._resident

    @property
    def resident_bytes(self) -> int:
        return self.resident_pages * PAGE_SIZE

    # ----------------------------------------------------------------- pages
    @staticmethod
    def page_span(offset: int, length: int) -> range:
        """Page indices covering [offset, offset+length)."""
        if length <= 0:
            return range(0)
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        return range(first, last + 1)

    def missing_bytes(self, key: Hashable, offset: int, length: int) -> int:
        """Bytes in the range whose pages are NOT resident (device I/O need).

        Also counts hits/misses and, in a bounded cache, refreshes the LRU
        position of resident pages.
        """
        if length <= 0:
            return 0
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE + 1
        if self._bounded:
            pages = self._pages
            missing_pages = 0
            move_to_end = pages.move_to_end
            for page in range(first, last):
                entry = (key, page)
                if entry in pages:
                    move_to_end(entry)
                else:
                    missing_pages += 1
        else:
            bounds = self._runs.get(key)
            missing_pages = last - first
            if bounds:
                missing_pages -= _covered(bounds, first, last)
        self.hits += last - first - missing_pages
        self.misses += missing_pages
        return missing_pages * PAGE_SIZE

    def contains(self, key: Hashable, offset: int, length: int) -> bool:
        """True if every page of the range is resident (no LRU side effects)."""
        span = self.page_span(offset, length)
        if self._bounded:
            return all((key, page) in self._pages for page in span)
        bounds = self._runs.get(key)
        covered = _covered(bounds, span.start, span.stop) if bounds else 0
        return covered == len(span)

    def insert(self, key: Hashable, offset: int, length: int) -> None:
        """Mark the pages of the range resident, evicting LRU pages if needed."""
        if length <= 0:
            return
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE + 1
        if not self._bounded:
            self._insert_run(key, first, last)
            return
        pages = self._pages
        capacity = self.capacity_pages
        move_to_end = pages.move_to_end
        popitem = pages.popitem
        for page in range(first, last):
            entry = (key, page)
            if entry in pages:
                move_to_end(entry)
            else:
                pages[entry] = None
                if len(pages) > capacity:
                    popitem(last=False)
                    self.evictions += 1

    def _insert_run(self, key: Hashable, first: int, last: int) -> None:
        """Merge ``[first, last)`` into the key's runs, joining every run it
        overlaps or abuts."""
        bounds = self._runs.get(key)
        if bounds is None:
            self._runs[key] = [first, last]
            self._resident += last - first
            return
        lo = bisect_left(bounds, first)
        hi = bisect_right(bounds, last)
        if lo == hi and not lo & 1:  # in a gap, touching no run
            bounds[lo:lo] = (first, last)
            self._resident += last - first
            return
        if lo & 1:  # starts inside or right after a run: extend that run
            lo -= 1
            first = bounds[lo]
        if hi & 1:  # ends inside or right before a run: extend to its end
            last = bounds[hi]
            hi += 1
        absorbed = bounds[lo:hi]
        self._resident += ((last - first) - sum(absorbed[1::2])
                           + sum(absorbed[::2]))
        bounds[lo:hi] = (first, last)

    def invalidate(self, key: Hashable) -> int:
        """Drop all pages of one object; returns pages dropped."""
        if not self._bounded:
            bounds = self._runs.pop(key, None)
            if bounds is None:
                return 0
            dropped = sum(bounds[1::2]) - sum(bounds[::2])
            self._resident -= dropped
            return dropped
        stale = [entry for entry in self._pages if entry[0] == key]
        for entry in stale:
            del self._pages[entry]
        return len(stale)

    def drop(self) -> None:
        """Drop everything (echo 3 > /proc/sys/vm/drop_caches)."""
        if self._bounded:
            self._pages.clear()
        else:
            self._runs.clear()
            self._resident = 0

    def __repr__(self) -> str:
        return (f"<PageCache {self.name} pages={self.resident_pages} "
                f"hits={self.hits} misses={self.misses}>")
