"""Desk-scale caps: small enough to search honestly, big enough to matter.

Every bounded search and pipeline in the package reads its cap here:
the SEQLATIN_DESK_LIMIT environment variable if set, else the
operation's documented default.  The variable moves every cap at once.
"""

import os

ENV_VAR = "SEQLATIN_DESK_LIMIT"


def desk_cap(default: int) -> int:
    env = os.environ.get(ENV_VAR)
    if env is not None:
        return int(env)
    return default
