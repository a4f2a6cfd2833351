"""AGU template reduction.

"The final AGU generated for the target network is reduced from this
template AGU to provide the demanded on-chip and off-chip memory access
patterns" (paper §3.3, Fig. 6).  Once the compiler knows every pattern
an AGU will ever replay, the hardware generator re-instantiates each AGU
with only the template fields those patterns exercise and a pattern
table of exactly the right depth — trimming counters and table rows the
design will never use.
"""

from __future__ import annotations

from repro.compiler.patterns import AccessPattern
from repro.components.agu import AGURole, AddressGenerationUnit, TEMPLATE_FIELDS
from repro.errors import CompileError
from repro.nngen.design import AcceleratorDesign


def fields_for_patterns(patterns: list[AccessPattern]) -> tuple[str, ...]:
    """Union of template fields the given patterns exercise."""
    used: set[str] = set()
    for pattern in patterns:
        used.update(pattern.fields_used())
    # Keep template declaration order for stable module names.
    return tuple(f for f in TEMPLATE_FIELDS if f in used) or ("start_address",)


def reduce_agus(design: AcceleratorDesign, coordinator_program) -> dict[str, AddressGenerationUnit]:
    """Replace the design's template AGUs with reduced instances.

    Returns the reduced AGUs (also installed into ``design.components``).
    ``coordinator_program`` is the compiled
    :class:`~repro.compiler.control.CoordinatorProgram` whose pattern
    tables define what each AGU must support.
    """
    tables = {
        AGURole.MAIN: coordinator_program.main_table,
        AGURole.DATA: coordinator_program.data_table,
        AGURole.WEIGHT: coordinator_program.weight_table,
    }
    reduced: dict[str, AddressGenerationUnit] = {}
    for role, table in tables.items():
        instance = f"agu_{role.value}"
        original = design.components.get(instance)
        if original is None:
            raise CompileError(f"design has no '{instance}' to reduce")
        if not table:
            # An AGU with nothing to do keeps the minimal template.
            table = [AccessPattern(start_address=0, x_length=1)]
        # Folds of one layer share a pattern shape; the hardware table
        # stores one row per distinct shape, re-based per fold.  The
        # fields a pattern exercises depend on its shape alone, so the
        # field union needs one representative per shape.
        distinct_shapes: dict[tuple[int, int, int, int], AccessPattern] = {}
        for pattern in table:
            distinct_shapes.setdefault(
                (pattern.x_length, pattern.stride, pattern.y_length,
                 pattern.offset), pattern)
        agu = AddressGenerationUnit(
            instance,
            role=role,
            n_patterns=len(distinct_shapes),
            address_width=original.address_width,
            burst_words=original.burst_words,
            fields=fields_for_patterns(list(distinct_shapes.values())),
        )
        design.components[instance] = agu
        reduced[instance] = agu
    return reduced
