"""Storage substrate: types, simulated disk, heaps, buffer pool."""

from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.chunk import Chunk
from repro.storage.disk import DiskProfile, DiskStats, SimClock, SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.table import Table
from repro.storage.types import Column, ColumnType, Row, Schema

__all__ = [
    "BufferPool",
    "BufferStats",
    "Chunk",
    "Column",
    "ColumnType",
    "DiskProfile",
    "DiskStats",
    "HeapFile",
    "Row",
    "Schema",
    "SimClock",
    "SimulatedDisk",
    "Table",
]
