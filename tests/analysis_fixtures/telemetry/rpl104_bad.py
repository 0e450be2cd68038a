"""RPL104 golden-bad fixture: a telemetry module that charges."""


def snapshot(ctx, page_id):
    page = ctx.get_page(page_id)
    ctx.charge_inspect(1)
    return page


def merge_rows(ctx, batch):
    ctx.charge_exchange(len(batch))


def tax(clock, kind):
    clock.counts[kind] += 1


def warm(buffer, heap, page_ids):
    return buffer.touch_pages(heap, page_ids)
