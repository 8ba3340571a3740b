"""The integer rule, and the bound rule on sizes and indices, shared by
every way into the library."""


def require_int(value, what, low=None, high=None):
    """`value`, if it is an int (a bool is not) in `low..high`; either
    bound may be left out (`high` only with `low`).  Else a ValueError
    that names `what` and the value: "is not an integer", "must be >= low"
    or "out of range low..high"."""
    if type(value) is not int:
        raise ValueError("%s %r is not an integer" % (what, value))
    if high is not None:
        if not low <= value <= high:
            raise ValueError("%s %d out of range %d..%d" % (what, value, low, high))
    elif low is not None and value < low:
        raise ValueError("%s %d must be >= %d" % (what, value, low))
    return value
