"""Malformed JSON matrix files: each differs from a valid file in one way.

``valid(keys)`` is an accepted file with size keys ``keys`` (I/4 at sizes
2 and 2, a state and a Choi matrix alike), and ``MALFORMED`` maps a row
name to the text of a file that every matrix reader must refuse.
"""

import json

import numpy as np


def valid(keys=("d1", "d2")):
    mat = np.eye(4) / 4
    return {keys[0]: 2, keys[1]: 2, "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()}


def _dump(obj):
    # "INF" stands for the token 1e999, which Python reads as an infinite float
    return json.dumps(obj).replace('"INF"', "1e999")


def _entry(obj, value):
    re = [list(row) for row in obj["re"]]
    re[0][0] = value
    return {**obj, "re": re}


MALFORMED = {
    "size-2.7": lambda o, k: _dump({**o, k[0]: 2.7}),
    "size-true": lambda o, k: _dump({**o, k[0]: True, k[1]: 4}),
    "size-string": lambda o, k: _dump({**o, k[0]: "2"}),
    "size-1e999": lambda o, k: _dump({**o, k[0]: "INF"}),
    "im-vector": lambda o, k: _dump({**o, "im": [0, 0, 0, 0]}),
    "im-scalar": lambda o, k: _dump({**o, "im": 0}),
    "re-strings": lambda o, k: _dump({**o, "re": [[repr(x) for x in row] for row in o["re"]]}),
    "list": lambda o, k: _dump([1, 2]),
    "string": lambda o, k: _dump("x"),
    "missing-im": lambda o, k: _dump({key: v for key, v in o.items() if key != "im"}),
    "shapes-differ": lambda o, k: _dump({**o, "im": np.zeros((4, 3)).tolist()}),
    "boolean-entry": lambda o, k: _dump(_entry(o, True)),
}


def malformed(row, keys=("d1", "d2")):
    """The text of malformed file ``row`` with size keys ``keys``."""
    return MALFORMED[row](valid(keys), keys)
