"""Secondary index substrate: a physically-modeled B+-tree."""

from repro.index.btree import BTreeIndex
from repro.index import layout

__all__ = ["BTreeIndex", "layout"]
