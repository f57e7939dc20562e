"""Closed-form orders of the named subgroups, the oracle their tests count
elements against."""


def named_subgroup_order(name: str, q: int) -> int:
    gl2 = (q * q - 1) * (q * q - q)
    orders = {
        "U_S": q**3,
        "U_K": q**3,
        "M": (q - 1) * gl2,
        "M1": q * (q * q - 1),
        "R_klingen": q * q * (q * q - 1),
        "S": q * q * (q - 1) ** 2,
        "A": q * q * (q - 1) ** 2,
        "B": q * (q - 1) ** 3,
        "C": q * q * (q - 1) ** 3,
        "D": q * q * (q - 1) ** 3,
        "R_last": q**3,
        "Row1": q * q * (q - 1) ** 3,
        "Row2": q * q * (q - 1) ** 3,
        "Row3": (q - 1) * gl2,
        "Row4": q * (q - 1) ** 3,
        "Row5": q * q * (q - 1) ** 2,
        "Row6": q * q * (q - 1) ** 2,
        "Row7": q * q * (q - 1) ** 2,
        "Row8": q**3 * (q - 1),
        "Z_ray": q,
    }
    return orders[name]
