"""RPL105 golden-bad fixture: floats leaking into integer counters."""


def account(stats, n, extent):
    stats.pages_read += n / extent
    stats.bytes_read = float(n) * 4096
    stats.hits += 1.0


def charge(clock, kind, ms):
    clock.counts[kind] += ms / 0.05
