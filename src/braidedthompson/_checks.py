"""The integer rule shared by every way into the library."""


def require_int(value, what):
    """`value`, if it is an int (a bool is not); else a ValueError that
    names `what` and the value."""
    if type(value) is int:
        return value
    raise ValueError("%s %r is not an integer" % (what, value))
