"""RPL104 golden-bad fixture: a telemetry module that charges."""


def snapshot(ctx, page_id):
    page = ctx.get_page(page_id)
    ctx.charge_inspect(1)
    return page


def tax(clock):
    clock.charge_cpu(0.5)


def tax_each(clock, costs):
    clock.charge_cpu_seq(costs)


def warm(buffer, heap, page_ids):
    return buffer.touch_pages(heap, page_ids)
