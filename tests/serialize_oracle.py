"""The number encoders of ``comcat.serialize``, kept as test oracles.

``num_to_json`` and ``vector_to_json`` are as they were before plain
Python ints and floats were recognized by their exact type ahead of the
``isinstance`` test against the ``Fraction`` ABC.  The encoders must
return equal values of the same types for every number.
"""

from fractions import Fraction


def num_to_json(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return x
    return float(x)


def vector_to_json(v):
    return [num_to_json(x) for x in v]
