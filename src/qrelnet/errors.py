"""Exception types and the immutable record base shared across the package.

Every error carries a stable machine-readable ``code`` so the command-line
front end can report failures without string matching.
"""

from operator import attrgetter


class Record:
    """Immutable named fields, compared, hashed and shown like a frozen dataclass.

    A subclass names in ``_fields`` the fields that ``==``, ``hash`` and
    ``repr`` use, and its ``__init__`` stores every field with ``_set``.
    Instances of different classes never compare equal, and assigning or
    deleting an attribute raises ``AttributeError``.  A plain class, because
    importing ``dataclasses`` (and with it ``inspect``) costs every start of
    the CLI several milliseconds.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QrelnetError(ValueError):
    """Base class for rejected inputs and violated preconditions."""

    code = "invalid_input"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class CapacityError(QrelnetError):
    """Input exceeds a hard size cap."""

    code = "capacity"


class WidthMismatchError(QrelnetError):
    """Object sizes disagree (edge counts, state widths, probability lists)."""

    code = "width_mismatch"


class OverlapError(QrelnetError):
    """Two graphs overlap on a different vertex set than the declared one."""

    code = "overlap_violation"


class SublayerError(QrelnetError):
    """Quantum subgraph is not vertex-contained in the classical one."""

    code = "sublayer_violation"


class NormalizationError(QrelnetError):
    """State vector norm is too far from one."""

    code = "not_normalized"
