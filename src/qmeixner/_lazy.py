"""Deferred numpy for the operator modules.

The closed forms (qseries, meixner, verify) are plain Python; only the
operator side needs numpy, whose import costs more than the rest of a
closed-form command's start-up.  `oscillator` and `pseudorotation` bind
their global `np` to a `NumpyOnFirstUse`, so `import qmeixner` loads every
module but not numpy.
"""


class NumpyOnFirstUse:
    """Stands in for a module's global `np` until the first attribute read.

    That read imports numpy, rebinds the module's `np` to it and returns the
    attribute; from then on the module's code reads numpy itself.
    """

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
