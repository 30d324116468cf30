"""Row memos: re-encode a row only when its inputs change.

Two JSON producers re-encode mostly unchanged rows on every call: the
control plane's ``classes`` reply and the scheduler snapshot.  Both keep
each row's text and reuse it while the row's inputs are unchanged:

* ``classes`` keeps the tuple of objects the row was built from and
  reuses the text while every element is still the *same object*
  (:func:`same_objects`).
* The snapshot (``HFSC.snapshot_state``) reads most of a row from the
  flat class columns, whose writers stamp the slot with the current
  epoch; it reuses the text while the slot's stamp is no later than the
  epoch the row was encoded at, and compares only the few objects
  outside the columns (the class, its name, its parent's name, its spec
  objects) by identity, inline.

Identity, not equality, because equal values can print differently
(``1 == 1.0``, ``0.0 == -0.0``); and because the memo holds the objects,
none of them can be freed and its ``id`` reused.

The snapshot side hands its rows out inside the returned document, so
they are read-only: :class:`FrozenRow` refuses in-place edits, and
:class:`EncodedRows` carries each row's canonical text beside it for the
codec to splice in (:func:`repro.persist.codec.dumps_snapshot`).
"""

from __future__ import annotations

import json
from operator import is_
from typing import Any, Iterable, List, Optional, Sequence

#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` through one
#: shared encoder: the snapshot body's canonical form.
canonical_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def same_objects(old: Sequence[Any], new: Sequence[Any]) -> bool:
    """True iff ``old`` and ``new`` hold the same objects, position by
    position (keys of one memo have a fixed length)."""
    return all(map(is_, old, new))


def _refuse(self, *args, **kwargs):
    raise TypeError(
        f"{type(self).__name__} is read-only: it is shared with later "
        "snapshots; copy it (dict(row) / list(rows)) to edit"
    )


class FrozenRow(dict):
    """A ``dict`` that refuses in-place edits (nested values are tuples)."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (FrozenRow, (dict(self),))


class EncodedRows(list):
    """Rows plus the canonical text of each (``None`` = encode it then).

    Plain ``json.dumps`` sees a list; the snapshot codec splices
    ``"[" + ",".join(texts) + "]"`` in its place instead.  The list itself
    is read-only so the rows and their texts cannot drift apart.
    """

    __slots__ = ("texts",)
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __init__(self, rows: Iterable[Any], texts: List[Optional[str]]):
        super().__init__(rows)
        self.texts = texts

    def __reduce__(self):
        return (EncodedRows, (list(self), self.texts))

    def encoded(self) -> str:
        """The canonical text of the whole list.

        A run of rows without a text is encoded by one encoder call: a
        list's text is ``"[" + ",".join(item texts) + "]"``.
        """
        parts: List[str] = []
        run: List[Any] = []
        for row, text in zip(self, self.texts):
            if text is None:
                run.append(row)
                continue
            if run:
                parts.append(canonical_text(run)[1:-1])
                run = []
            parts.append(text)
        if run:
            parts.append(canonical_text(run)[1:-1])
        return "[" + ",".join(parts) + "]"
