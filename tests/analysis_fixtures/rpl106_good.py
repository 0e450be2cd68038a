"""RPL106 golden-good fixture: operators honouring the protocol."""

import abc


class Operator(abc.ABC):
    @abc.abstractmethod
    def batches(self, ctx):
        ...

    def rows(self, ctx):
        for batch in self.batches(ctx):
            yield from batch


class Scan(Operator):
    def batches(self, ctx):
        yield []


class Narrow(Scan):
    pass  # inherits batches() from Scan


class Sketch(Operator, abc.ABC):
    @abc.abstractmethod
    def estimate(self):
        ...
