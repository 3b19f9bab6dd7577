"""Immutable value helpers used by specifications.

TLA+ values are immutable; the checker fingerprints whole states, so every
value stored in a :class:`repro.tla.state.State` must be hashable.  This
module provides the small vocabulary of values the ZooKeeper and Zab
specifications use:

- :class:`Rec` -- an immutable record with attribute access (the analogue
  of a TLA+ record ``[field |-> value]``).
- :class:`Zxid` -- a ZooKeeper transaction id ``(epoch, counter)`` with the
  total order used by the protocol.
- :class:`Txn` -- a transaction: a zxid plus an opaque value.
- sequence helpers mirroring the TLA+ ``Sequences`` module
  (:func:`seq_append`, :func:`seq_tail`, :func:`is_prefix`, ...).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple, Tuple


class Rec(Mapping):
    """An immutable, hashable record with attribute access.

    >>> m = Rec(mtype="ACK", zxid=(1, 2))
    >>> m.mtype
    'ACK'
    >>> m.replace(mtype="COMMIT").mtype
    'COMMIT'
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, **fields: Any):
        object.__setattr__(self, "_items", tuple(sorted(fields.items())))
        object.__setattr__(self, "_hash", hash(self._items))

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            # never resolve dunder/private probes through the fields
            # (deepcopy and pickle probe for __deepcopy__, __getstate__
            # and friends before __init__ has run on reconstruction)
            raise AttributeError(name)
        for key, value in object.__getattribute__(self, "_items"):
            if key == name:
                return value
        raise AttributeError(name)

    def __copy__(self) -> "Rec":
        return self  # immutable

    def __deepcopy__(self, memo) -> "Rec":
        return self  # immutable: fields are themselves immutable values

    def __getitem__(self, name: str) -> Any:
        try:
            return self.__getattr__(name)
        except AttributeError:
            raise KeyError(name)

    def __setattr__(self, name: str, value: Any):
        raise TypeError("Rec is immutable")

    def __iter__(self):
        return iter(key for key, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Rec):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self._items)
        return f"Rec({inner})"

    def __reduce__(self):
        # Default pickling would setattr on the reconstructed instance,
        # which the immutability guard rejects; rebuild from the item
        # tuple instead (Rec-bearing values cross process pipes and the
        # on-disk spec cache).
        return (_rec_from_items, (self._items,))

    def replace(self, **updates: Any) -> "Rec":
        """Return a copy of this record with some fields replaced."""
        fields = dict(self._items)
        fields.update(updates)
        return Rec(**fields)

    def fields(self) -> Tuple[str, ...]:
        return tuple(key for key, _ in self._items)


def _rec_from_items(items: Tuple[Tuple[str, Any], ...]) -> "Rec":
    """Rebuild a Rec from its sorted item tuple (pickle support)."""
    rec = object.__new__(Rec)
    object.__setattr__(rec, "_items", items)
    object.__setattr__(rec, "_hash", hash(items))
    return rec


class Zxid(NamedTuple):
    """A ZooKeeper transaction id, totally ordered by (epoch, counter)."""

    epoch: int
    counter: int

    def __repr__(self) -> str:
        return f"<{self.epoch},{self.counter}>"


ZXID_ZERO = Zxid(0, 0)


class Txn(NamedTuple):
    """A transaction: a zxid and an opaque payload value."""

    zxid: Zxid
    value: int

    def __repr__(self) -> str:
        return f"Txn({self.zxid!r},v={self.value})"


# --- sequence helpers (TLA+ Sequences module analogues) -------------------

Seq = Tuple  # a TLA+ sequence is just a Python tuple


def seq(*items: Any) -> Tuple:
    """Build a sequence: ``seq(1, 2, 3) == (1, 2, 3)``."""
    return tuple(items)


def seq_append(sequence: Tuple, item: Any) -> Tuple:
    """``Append(seq, item)``."""
    return sequence + (item,)

def seq_concat(left: Tuple, right: Iterable) -> Tuple:
    """``left \\o right``."""
    return left + tuple(right)


def seq_head(sequence: Tuple) -> Any:
    """``Head(seq)``; raises IndexError on the empty sequence."""
    return sequence[0]


def seq_tail(sequence: Tuple) -> Tuple:
    """``Tail(seq)``."""
    return sequence[1:]


def is_prefix(shorter: Tuple, longer: Tuple) -> bool:
    """The prefix relation on sequences (the paper's ⊑)."""
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def comparable(left: Tuple, right: Tuple) -> bool:
    """True iff one sequence is a prefix of the other."""
    return is_prefix(left, right) or is_prefix(right, left)


def last_zxid(history: Tuple[Txn, ...]) -> Zxid:
    """``LastZxidOfHistory``: zxid of the last txn, or <0,0> when empty."""
    if not history:
        return ZXID_ZERO
    return history[-1].zxid


def updated(base: Tuple, index: int, value: Any) -> Tuple:
    """Functional update of one slot of a tuple (TLA+ ``EXCEPT ![i]``)."""
    return base[:index] + (value,) + base[index + 1 :]
