"""Structure constants of the real Clifford algebra over R^3 with a Euclidean metric.

Basis blades are indexed by bitmasks (bit i set means the generator e_{i+1} is
a factor) and stored in the canonical coefficient order

    1, e1, e2, e3, e12, e13, e23, e123

The product of two blades is computed once, by sorting the concatenated
generator lists and contracting repeated generators with e_i e_i = +1, and the
resulting sign/target tables drive ``chshbounds.ga.geometric_product``.
"""

from __future__ import annotations

BLADE_ORDER: tuple[int, ...] = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
BLADE_NAMES: tuple[str, ...] = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
BLADE_GRADES: tuple[int, ...] = tuple(bin(mask).count("1") for mask in BLADE_ORDER)
_INDEX_OF_MASK = {mask: i for i, mask in enumerate(BLADE_ORDER)}


def blade_product(mask_left: int, mask_right: int) -> tuple[int, int]:
    """Multiply two basis blades; return (sign, result mask).

    Generators of the right factor are merged one at a time into the sorted
    generator list of the left factor, flipping the sign once per
    transposition and contracting e_i e_i to +1.
    """
    acc = [i for i in (0, 1, 2) if mask_left >> i & 1]
    sign = 1
    for gen in (0, 1, 2):
        if not (mask_right >> gen & 1):
            continue
        passed = sum(1 for i in acc if i > gen)
        if passed % 2:
            sign = -sign
        if gen in acc:
            acc.remove(gen)
        else:
            acc.append(gen)
            acc.sort()
    mask = 0
    for i in acc:
        mask |= 1 << i
    return sign, mask


def _build_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    signs = []
    targets = []
    for left in BLADE_ORDER:
        for right in BLADE_ORDER:
            sign, mask = blade_product(left, right)
            signs.append(sign)
            targets.append(_INDEX_OF_MASK[mask])
    return tuple(signs), tuple(targets)


# Flattened 8x8 tables, row-major in the canonical blade order:
# coefficient u_i * v_j contributes PRODUCT_SIGNS[8*i+j] * u_i * v_j to the
# coefficient at PRODUCT_TARGETS[8*i+j].
PRODUCT_SIGNS, PRODUCT_TARGETS = _build_tables()
