"""The operation record shared by the workloads."""

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One timed call into entkit and the check of its output.

    ``call`` takes no argument and returns the program's output; only it is
    timed.  ``check`` maps that output to a list of problems, empty when the
    output is right.  For a ``rejection`` operation the call must refuse its
    input; a problem then means the operation failed, not that the
    benchmark saw a wrong answer.
    """

    name: str
    call: Callable
    check: Callable
    rejection: bool = False
