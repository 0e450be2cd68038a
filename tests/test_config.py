"""EngineConfig validation and geometry."""

import pytest

from repro.config import CpuCosts, DEFAULT_CONFIG, EngineConfig
from repro.errors import ConfigError


def test_default_geometry_matches_paper():
    # 64-byte tuples in 8KB pages with a 512B header -> 120 tuples/page.
    assert DEFAULT_CONFIG.tuples_per_page(64) == 120


def test_usable_page_bytes():
    cfg = EngineConfig(page_size=8192, page_header=512)
    assert cfg.usable_page_bytes == 7680


def test_page_header_must_fit():
    with pytest.raises(ConfigError):
        EngineConfig(page_size=100, page_header=100)


def test_tuples_per_page_rejects_oversized_tuple():
    with pytest.raises(ConfigError):
        DEFAULT_CONFIG.tuples_per_page(10_000)


def test_tuples_per_page_rejects_nonpositive():
    with pytest.raises(ConfigError):
        DEFAULT_CONFIG.tuples_per_page(0)


@pytest.mark.parametrize("field,value", [
    ("extent_pages", 0),
    ("max_region_pages", 0),
    ("work_mem_pages", 0),
    ("buffer_pool_pages", 0),
])
def test_invalid_knobs_rejected(field, value):
    with pytest.raises(ConfigError):
        EngineConfig(**{field: value})


def test_cpu_costs_are_small_relative_to_io():
    # The guiding ratio: one random I/O >> one tuple inspection.
    cpu = CpuCosts()
    assert cpu.tuple_inspect < 0.01
    assert cpu.cache_probe < cpu.tuple_inspect
