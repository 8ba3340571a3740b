"""The integer rule, the bound rule on sizes and indices, and the one
spelling of an integer in text, shared by every way into the library."""

import re

# An integer in text: an optional leading "-", then ASCII digits (leading
# zeros allowed), not every spelling int() reads ("+1", "1_0", or digits
# of other scripts).
_INT = re.compile(r"-?[0-9]+")


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


def int_prefix(tokens):
    """The values of the leading `tokens` (strings without whitespace)
    that spell an integer; the run ends at the first token that does not."""
    text = " ".join(tokens)
    # A token without whitespace that int() reads but that is not spelled
    # so holds a "+", a "_" or a non-ASCII digit: a run with none of those
    # is read in bulk.
    if "+" not in text and "_" not in text and text.isascii():
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    n = 0
    while n < len(tokens) and _INT.fullmatch(tokens[n]):
        n += 1
    return tuple(map(int, tokens[:n]))
