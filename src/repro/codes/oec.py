"""Online Error Correction (OEC), Appendix A of the paper.

A receiving party P_R collects points on an unknown d-degree polynomial
q(.) from a subset P' of parties containing at most t corruptions.  Each
time a new point arrives, P_R re-runs RS decoding; as soon as it finds a
d-degree polynomial on which at least d + t + 1 of the received points lie,
that polynomial is guaranteed to be q(.) (because at least d + 1 of those
points come from honest parties).  OEC succeeds whenever d < |P'| - 2t.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

from repro.codes.reed_solomon import rs_decode, rs_decode_batch
from repro.field.array import FieldArray
from repro.field.gf import GF, FieldElement
from repro.field.polynomial import Polynomial


class OECStatus(enum.Enum):
    """State of an online error correction attempt."""

    WAITING = "waiting"
    DONE = "done"


class OnlineErrorCorrector:
    """Incremental OEC(d, t, P') as used throughout the paper.

    Feed points with :meth:`add_point`; once enough consistent points have
    arrived, :attr:`polynomial` holds the recovered d-degree polynomial.
    """

    def __init__(self, field: GF, degree: int, max_faults: int):
        self.field = field
        self.degree = degree
        self.max_faults = max_faults
        self.points: Dict[int, FieldElement] = {}
        self.polynomial: Optional[Polynomial] = None
        self.status = OECStatus.WAITING

    def add_point(self, x, y) -> Optional[Polynomial]:
        """Record the point (x, y) and retry decoding.

        Returns the recovered polynomial once decoding succeeds, else None.
        Duplicate x values keep the first reported y (a sender cannot
        retroactively change its point).
        """
        if self.status is OECStatus.DONE:
            return self.polynomial
        x_val = int(self.field(x))
        if x_val not in self.points:
            self.points[x_val] = self.field(y)
        return self.try_decode()

    def try_decode(self) -> Optional[Polynomial]:
        """Attempt RS decoding with the points received so far."""
        if self.status is OECStatus.DONE:
            return self.polynomial
        if len(self.points) < self.degree + self.max_faults + 1:
            return None
        point_list = [(self.field(x), y) for x, y in self.points.items()]
        poly = rs_decode(self.field, point_list, self.degree, self.max_faults)
        if poly is not None:
            self.polynomial = poly
            self.status = OECStatus.DONE
        return poly

    @property
    def done(self) -> bool:
        return self.status is OECStatus.DONE

    def value_at(self, x) -> Optional[FieldElement]:
        """Evaluate the recovered polynomial, if available."""
        if self.polynomial is None:
            return None
        return self.polynomial.evaluate(x)

    def secret(self) -> Optional[FieldElement]:
        """The recovered polynomial's constant term (the shared value)."""
        if self.polynomial is None:
            return None
        return self.polynomial.constant_term()


class BatchOnlineErrorCorrector:
    """OEC over many values that share the same set of senders.

    The batched twin of running ``count`` independent
    :class:`OnlineErrorCorrector` instances: every sender contributes one
    *row* (its share of each of the ``count`` values) and all columns are
    decoded together via :func:`rs_decode_batch`, which amortizes the
    interpolation matrices across the whole batch.  Row entries may be None
    (a sender that garbled one value); such columns simply wait for more
    rows, exactly as their scalar twin would.

    Decoding succeeds column-by-column; :attr:`done` flips once every column
    has been recovered.  :meth:`secrets` fails loudly (raises ValueError)
    while any column is still undecoded rather than returning partial data.
    """

    def __init__(self, field: GF, count: int, degree: int, max_faults: int):
        self.field = field
        self.count = count
        self.degree = degree
        self.max_faults = max_faults
        self._order: List[int] = []
        self._rows: Dict[int, List[Optional[int]]] = {}
        #: True once any sender row carried a None; while False, every
        #: undecoded column shares the full sender set and try_decode can
        #: skip the per-column grouping scan (sticky-conservative: merges
        #: that later fill the gaps do not clear it).
        self._has_gaps = False
        self.polynomials: List[Optional[Polynomial]] = [None] * count
        self.status = OECStatus.DONE if count == 0 else OECStatus.WAITING

    def add_row(self, x, values: Sequence) -> bool:
        """Record one sender's row of values and retry decoding.

        ``values`` must have length ``count``; entries are ints/FieldElements
        or None for values this sender did not (validly) report.  As in the
        scalar corrector, the first reported value per (x, column) wins.
        """
        if len(values) != self.count:
            raise ValueError("row length does not match batch size")
        if self.status is OECStatus.DONE:
            return True
        p = self.field.modulus
        x_val = int(self.field(x))
        row = self._rows.get(x_val)
        if row is None:
            if isinstance(values, FieldArray):
                # Already-reduced residues, no Nones.
                self._rows[x_val] = values.tolist()
            else:
                normalized = [None if v is None else int(v) % p for v in values]
                self._has_gaps = self._has_gaps or any(v is None for v in normalized)
                self._rows[x_val] = normalized
            self._order.append(x_val)
        else:
            for column, value in enumerate(values):
                if row[column] is None and value is not None:
                    row[column] = int(value) % p
        return self.try_decode()

    def try_decode(self) -> bool:
        """Attempt batched RS decoding of every still-undecoded column."""
        if self.status is OECStatus.DONE:
            return True
        threshold = self.degree + self.max_faults + 1
        # No column can have reached the decode threshold before that many
        # distinct senders reported -- skip the O(count * senders) grouping
        # scan entirely for the early add_row calls.
        if len(self._order) < threshold:
            return False
        undecoded = [
            column for column in range(self.count)
            if self.polynomials[column] is None
        ]
        groups: Dict[tuple, List[int]] = {}
        if not self._has_gaps:
            # Gap-free batches (every sender reported every value, the
            # common case): all undecoded columns share the full sender
            # set, so the per-column grouping scan and the
            # column-by-column transpose both collapse to one transpose of
            # the stored rows.
            groups[tuple(self._order)] = undecoded
        else:
            # Group undecoded columns by the set of senders that reported
            # them, so each group shares one rs_decode_batch call (and its
            # matrices).
            for column in undecoded:
                xs = tuple(
                    x for x in self._order if self._rows[x][column] is not None
                )
                if len(xs) < threshold:
                    continue
                groups.setdefault(xs, []).append(column)
        for xs, columns in groups.items():
            if not self._has_gaps:
                matrix = list(zip(*(self._rows[x] for x in xs)))
                rows = matrix if len(columns) == self.count else [matrix[c] for c in columns]
            else:
                rows = [[self._rows[x][column] for x in xs] for column in columns]
            decoded = rs_decode_batch(self.field, xs, rows, self.degree, self.max_faults)
            for column, poly in zip(columns, decoded):
                if poly is not None:
                    self.polynomials[column] = poly
        if all(poly is not None for poly in self.polynomials):
            self.status = OECStatus.DONE
        return self.status is OECStatus.DONE

    @property
    def done(self) -> bool:
        return self.status is OECStatus.DONE

    def secrets(self) -> List[FieldElement]:
        """Constant terms of every decoded polynomial; loud while incomplete."""
        if self.status is not OECStatus.DONE:
            undecoded = [i for i, poly in enumerate(self.polynomials) if poly is None]
            raise ValueError(f"batch OEC has not decoded values {undecoded}")
        return [poly.constant_term() for poly in self.polynomials]  # type: ignore[union-attr]

    def values_at(self, x) -> List[FieldElement]:
        """Evaluate every decoded polynomial at ``x``; loud while incomplete."""
        if self.status is not OECStatus.DONE:
            raise ValueError("batch OEC has not decoded all values")
        return [poly.evaluate(x) for poly in self.polynomials]  # type: ignore[union-attr]
