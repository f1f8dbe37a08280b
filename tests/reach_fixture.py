"""A module for the def enumerator of ``benchmarks/reach.py`` to key: a
decorated function, a property and a nested def."""


def traced(fn):
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


@traced
def decorated():
    return 1


class Box:
    def __init__(self):
        self._size = 2

    @property
    def size(self):
        return self._size

    def outer(self):
        def inner():
            return self._size
        return inner
