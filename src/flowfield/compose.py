"""Composition of flow fields between three time points.

Two flows between the times t1, t2, t3 determine the third through
sequential composition (flow 1->2 followed by flow 2->3 equals flow 1->3).
The mode names which of the three flows is the unknown to be computed.

The engine relabels the three times as A, B, C: A is the anchor time of
the requested output reference, C the other endpoint of the unknown flow,
and B the remaining time. Both known flows are brought into a common
anchoring, their vectors added with direction-dependent signs, and the sum
is re-anchored at A when needed. Every warp along the way propagates the
validity masks, so the output mask is the conjunction of all warped
operand masks and splat coverage.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import FlowError, FlowField, Reference
from .ops import apply, invert, switch_reference

__all__ = ["ComposeMode", "combine"]


class ComposeMode(enum.IntEnum):
    """Which flow of the 1->2, 2->3, 1->3 triple is unknown."""

    FLOW_1_2 = 1
    FLOW_2_3 = 2
    FLOW_1_3 = 3


# Temporal spans (from, to) of (first input, second input, unknown) per mode.
_SPANS = {
    ComposeMode.FLOW_1_2: ((2, 3), (1, 3), (1, 2)),
    ComposeMode.FLOW_2_3: ((1, 2), (1, 3), (2, 3)),
    ComposeMode.FLOW_1_3: ((1, 2), (2, 3), (1, 3)),
}


def _abc_times(mode: ComposeMode, output_reference: Reference) -> tuple[int, int, int]:
    """Frozen relabeling of the times 1, 2, 3 as (A, B, C).

    A is where the unknown flow's requested reference anchors (its start
    for source, its end for target), C the unknown flow's other endpoint,
    B the remaining time.
    """
    unknown_from, unknown_to = _SPANS[mode][2]
    a = unknown_from if output_reference is Reference.SOURCE else unknown_to
    c = unknown_to if a == unknown_from else unknown_from
    b = ({1, 2, 3} - {a, c}).pop()
    return a, b, c


def _anchor_time(field: FlowField, span: tuple[int, int]) -> int:
    """Time whose grid the field's vectors sit on."""
    return span[0] if field.reference is Reference.SOURCE else span[1]


def combine(
    f_first: FlowField,
    f_second: FlowField,
    mode: ComposeMode | int,
    output_reference: Reference | str | None = None,
) -> FlowField:
    """Compute the unknown flow of a three-time composition.

    Parameters
    ----------
    f_first, f_second : FlowField
        The two known flows in temporal order: mode 1 takes (flow 2->3,
        flow 1->3), mode 2 takes (flow 1->2, flow 1->3), mode 3 takes
        (flow 1->2, flow 2->3). Their references are independent.
    mode : ComposeMode or int in {1, 2, 3}
        Which flow is unknown (1: flow 1->2, 2: flow 2->3, 3: flow 1->3).
    output_reference : Reference or str, optional
        Reference of the result; defaults to f_first's reference. The
        result is derived directly in this reference, so no trailing
        reference switch is ever needed.
    """
    try:
        mode = ComposeMode(mode)
    except ValueError:
        raise FlowError(f"mode must be 1, 2 or 3, got {mode!r}") from None
    if f_first.shape != f_second.shape:
        raise FlowError(f"flow dims differ: {f_first.shape} vs {f_second.shape}")
    out_ref = (
        f_first.reference if output_reference is None else Reference.parse(output_reference)
    )

    first_span, second_span, unknown_span = _SPANS[mode]
    a, b, c = _abc_times(mode, out_ref)
    if set(first_span) == {a, b}:
        f_ab, ab_span = f_first, first_span
        f_bc, bc_span = f_second, second_span
    else:
        f_ab, ab_span = f_second, second_span
        f_bc, bc_span = f_first, first_span

    sign_ab = 1.0 if ab_span[0] == a else -1.0
    sign_bc = 1.0 if bc_span[0] == b else -1.0
    if unknown_span[0] == c:
        # The unknown flow runs C to A, so both displacement signs flip.
        sign_ab, sign_bc = -sign_ab, -sign_bc

    if _anchor_time(f_bc, bc_span) == c:
        f_bc = switch_reference(f_bc)  # now anchored at B

    bc_vectors = f_bc.masked_vectors()
    bc_mask = f_bc.mask
    # The flow that carries B's grid onto A's.
    warp = invert(f_ab) if ab_span[0] == a else f_ab
    anchored_at_a = _anchor_time(f_ab, ab_span) == a
    if anchored_at_a:
        # Move the B-anchored operand onto A's grid before adding.
        bc_vectors, bc_mask = apply(warp, bc_vectors, data_mask=bc_mask)

    # Finite operands near the float64 limit can overflow when added; that
    # is reported here, before a warp would blame the data for it.
    with np.errstate(over="ignore"):
        vectors = sign_ab * f_ab.masked_vectors() + sign_bc * bc_vectors
    if not np.isfinite(vectors).all():
        raise FlowError("composed flow vectors overflow float64")
    mask = f_ab.mask & bc_mask

    if not anchored_at_a:
        # The sum still sits on B's grid; move it onto A's.
        vectors, mask = apply(warp, vectors, data_mask=mask)

    vectors = np.where(mask[..., None], vectors, 0.0)
    # The unchecked constructor below relies on this scan: sampling a
    # near-limit sum can still overflow.
    if not np.isfinite(vectors).all():
        raise FlowError("composed flow vectors overflow float64")
    return FlowField._trusted(vectors, out_ref, mask)

