"""RPL106 golden-bad fixture: operators outside the one protocol."""

import abc


class Operator(abc.ABC):
    @abc.abstractmethod
    def batches(self, ctx):
        ...

    def rows(self, ctx):
        for batch in self.batches(ctx):
            yield from batch


class Silent(Operator):
    schema = None


class SilentChild(Silent):
    pass


class RowEngine(Operator):
    def batches(self, ctx):
        yield []

    def rows(self, ctx):  # a second engine beside batches()
        yield ()


class RowsOnly(Operator):
    def rows(self, ctx):
        yield ()
