"""Building a frozen dataclass without running its checks."""


def _unchecked(cls, **fields):
    """A `cls` holding `fields` as they are, with no check or copy.

    Only for values whose fields the caller has already made valid and that
    are never handed out: the DBN trainers' working models over their flat
    vector, and the layer solver's candidate stacks.
    """
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value
